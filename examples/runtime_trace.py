#!/usr/bin/env python
"""Inside the runtime: a measured execution trace.

Runs a small contraction across two real worker processes with tracing on,
and prints what the ranks did: the plan, then an ASCII Gantt chart of the
merged trace (one row per resource — each rank's GEMM stream, its link,
its B-generation core, and the coordinator's ``net.-1``) and per-resource
utilization.  The blocks and chunks run in plan order under the 50/25/25
GPU-memory budget, the order the paper's control DAG enforces in PaRSEC
(Section 4).

Run:  python examples/runtime_trace.py
"""

from repro.core import psgemm_distributed, psgemm_plan
from repro.machine import summit
from repro.runtime import GeneratedCollection
from repro.sparse import random_block_sparse, random_shape_with_density
from repro.tiling import random_tiling


def main() -> None:
    rows = random_tiling(400, 40, 100, seed=1)
    inner = random_tiling(1_200, 40, 100, seed=2)
    a = random_block_sparse(rows, inner, 0.5, seed=3)
    b = GeneratedCollection(random_shape_with_density(inner, inner, 0.5, seed=4), seed=5)
    machine = summit(1)

    grid = dict(p=2, gpus_per_proc=3)  # two ranks of three GPUs
    print(psgemm_plan(a.sparse_shape(), b.shape, machine, **grid).summary())

    _, report = psgemm_distributed(a, b, machine, b_shape=b.shape, trace=True, **grid)
    trace = report.trace
    print(f"\nMeasured trace: {len(trace.events)} spans")
    print("\nGantt (one row per resource):")
    print(trace.gantt(width=72))
    print("\nUtilization:")
    for res, u in trace.utilization().items():
        print(f"  {res:>16s}: {u:6.1%}")


if __name__ == "__main__":
    main()
