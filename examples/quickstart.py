#!/usr/bin/env python
"""Quickstart: plan, execute and simulate a block-sparse GEMM.

Builds a small irregularly tiled block-sparse ``C <- A @ B`` (the paper's
shape: A short-and-wide, B square), runs it through the *full* distributed
pipeline — inspector, column assignment, block partition, chunking, and
the in-process numeric executor — then verifies against a dense reference
and prices the same plan on a 2-node Summit partition.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import assert_plan_valid
from repro.core import communication_volumes, psgemm_numeric, psgemm_simulate
from repro.machine import summit
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling
from repro.util import fmt_bytes, fmt_rate, fmt_time


def main() -> None:
    # The paper's shape in miniature: M << K = N, irregular tiles, 40 % fill.
    rows = random_tiling(800, 50, 200, seed=1)       # M = 800
    inner = random_tiling(8_000, 50, 200, seed=2)    # K = N = 8000
    a = random_block_sparse(rows, inner, density=0.4, seed=3)
    b = random_block_sparse(inner, inner, density=0.4, seed=4)
    print(f"A: {a}\nB: {b}")

    machine = summit(2)

    # 1) Numeric path: the distributed plan executed with real tiles.
    c, stats = psgemm_numeric(a, b, machine, p=2, gpus_per_proc=3)
    dense = a.to_dense() @ b.to_dense()
    ok = np.allclose(c.to_dense(), dense)
    print(f"\nNumeric execution: {stats.ntasks} GEMM tasks, "
          f"h2d {fmt_bytes(stats.h2d_bytes)}, "
          f"GPU peak {fmt_bytes(stats.gpu_peak_bytes)}, "
          f"matches dense reference: {ok}")
    assert ok

    # 2) Simulated path: the same planner priced on Summit hardware models.
    plan, report = psgemm_simulate(a.sparse_shape(), b.sparse_shape(), machine, p=2)
    assert_plan_valid(plan)
    print(f"\n{plan.summary()}")
    print(f"Simulated on 2 Summit nodes (12 V100s): "
          f"{fmt_time(report.makespan)} at {fmt_rate(report.perf)}")
    print(f"Communication: {communication_volumes(plan).summary()}")


if __name__ == "__main__":
    main()
