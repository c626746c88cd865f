"""Tile-size distribution statistics (paper Fig. 6 and Table 1 rows).

The paper reports, per tiling variant, the distribution of matricized tile
sizes in megabytes and the "average #rows/#columns per block" ranges;
:class:`TileSizeStats` summarizes either sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TileSizeStats:
    """Summary statistics of a 1-D sample (tile sizes or byte sizes)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p25: float
    median: float
    p75: float

    @classmethod
    def from_sample(cls, sample: np.ndarray) -> "TileSizeStats":
        s = np.asarray(sample, dtype=np.float64)
        if s.size == 0:
            raise ValueError("empty sample")
        q25, q50, q75 = np.percentile(s, [25, 50, 75])
        return cls(
            count=int(s.size),
            mean=float(s.mean()),
            std=float(s.std()),
            minimum=float(s.min()),
            maximum=float(s.max()),
            p25=float(q25),
            median=float(q50),
            p75=float(q75),
        )

    def row(self) -> str:
        """One formatted table row (count, mean, min, max, quartiles)."""
        return (
            f"n={self.count:>8d}  mean={self.mean:>10.1f}  min={self.minimum:>8.0f}  "
            f"p25={self.p25:>8.0f}  med={self.median:>8.0f}  p75={self.p75:>8.0f}  "
            f"max={self.maximum:>10.0f}"
        )
