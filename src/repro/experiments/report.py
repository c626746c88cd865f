"""Plain-text table and series formatting for experiment output."""

from __future__ import annotations

from typing import Sequence


def fmt_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table with a header rule."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for ri, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def ascii_spy(density_map, width: int = 64, height: int = 16) -> str:
    """A coarse ASCII rendering of a 2-D occupancy map (paper Fig. 5).

    ``density_map`` is any 2-D array-like of per-cell fill in [0, 1].
    """
    import numpy as np

    m = np.asarray(density_map, dtype=np.float64)
    nr, nc = m.shape
    ry = max(1, nr // height)
    rx = max(1, nc // width)
    # Downsample by block means.
    ty = (nr // ry) * ry
    tx = (nc // rx) * rx
    ds = m[:ty, :tx].reshape(ty // ry, ry, tx // rx, rx).mean(axis=(1, 3))
    ramp = " .:-=+*#%@"
    lines = []
    for row in ds:
        lines.append(
            "".join(ramp[min(int(v * (len(ramp) - 1) + 0.999), len(ramp) - 1)] for v in row)
        )
    return "\n".join(lines)
