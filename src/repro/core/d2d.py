"""NVLink device-to-device A-tile sharing (paper Section 4, last ¶).

"Implicit data movement allows the runtime system to select the 'best'
source of data ... when two GPU devices need the same tile of A, one GPU
needs to pull it from main memory ... but the second GPU may use the copy
residing on the first one, leveraging the fast NVlink ... thereby reducing
the pressure on the PCI-Express bus."

The coarse model prices this as a bandwidth blend: per process, the
fraction ``r`` of per-GPU A traffic that is *duplicated* across its GPUs
(the same tile needed by more than one of them) is served at the
uncontended device-to-device bandwidth, while the unique remainder pulls
through the contended host link:

    1 / bw_eff = (1 - r) / bw_host + r / bw_d2d

This is optimistic (it assumes the sibling copy is resident when needed)
and is therefore off by default; the A6 ablation quantifies the effect.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import ProcPlan


def duplicated_traffic_fraction(proc: ProcPlan, nK: int, m: np.ndarray, k: np.ndarray, gpus: int) -> float:
    """Fraction of the process's per-GPU A traffic shared with siblings.

    Computed from tile-key sets: ``r = 1 - union_bytes / sum_gpu_bytes``
    where per-GPU bytes count each tile once (block-level re-streams on
    the *same* GPU cannot be served device-to-device — they are temporal,
    not spatial, reuse).
    """
    per_gpu_keys = []
    for g in range(gpus):
        keys = []
        for blk in proc.gpu_blocks(g):
            for ch in blk.chunks:
                keys.append(ch.a_rows * nK + ch.a_cols)
        if keys:
            per_gpu_keys.append(np.unique(np.concatenate(keys)))
    if not per_gpu_keys:
        return 0.0

    def key_bytes(keys: np.ndarray) -> float:
        return float(np.sum(m[keys // nK] * k[keys % nK]) * 8)

    total = sum(key_bytes(u) for u in per_gpu_keys)
    union = key_bytes(np.unique(np.concatenate(per_gpu_keys)))
    return 1.0 - union / total if total > 0 else 0.0


def d2d_effective_bandwidth(
    bw_host: float, bw_d2d: float, duplicated_fraction: float
) -> float:
    """Harmonic blend of host-link and NVLink service rates."""
    r = min(max(duplicated_fraction, 0.0), 1.0)
    return 1.0 / ((1.0 - r) / bw_host + r / bw_d2d)
