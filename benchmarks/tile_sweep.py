"""Tile-size sweep: groups of one vs k-groups through ``execute_plan``.

    python3 benchmarks/tile_sweep.py [--smoke] [--reps N]

``runtime.numeric.execute_block`` walks a chunk either tile by tile (one
GEMM per task) or as *k-groups* (the A tiles that share an inner index are
stacked and multiply each B tile as one panel).  Which is faster depends on
the tile size only; this script measures both on one fixed-density problem
per tile size and prints the crossover that
``runtime.numeric.KGROUP_MAX_TASK_FLOPS`` cites (table in EXPERIMENTS.md).

Every problem has 10 tile rows of A at density 0.5 on one rank — k-groups
of 5 tiles on average, as on the benchmark's ``fine_tiles_p2`` — and as
many inner and column tiles as keep a run near ``FLOP_BUDGET``.  The two
paths are forced by setting the gate constant to 0 and to infinity; their
runs alternate, and both results are held against the dense reference.
``--smoke`` runs the full semantics, ``beta*C + alpha*A@B`` with a C input,
``alpha=0.5`` and ``beta=2``.  BLAS is pinned to one thread before NumPy
loads, as in ``benchmarks/e2e/child.py``; the header names the BLAS builds
NumPy (``np.matmul``) and SciPy (``dgemm``) link, which need not agree.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if "numpy" in sys.modules:
    raise SystemExit("numpy was imported before the BLAS pools were pinned")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.core import inspect  # noqa: E402
from repro.machine import summit  # noqa: E402
from repro.runtime import execute_plan, numeric  # noqa: E402
from repro.sparse.matrix import BlockSparseMatrix  # noqa: E402
from repro.tiling.tiling import Tiling  # noqa: E402

TILE_SIZES = (8, 12, 16, 24, 32, 40, 48, 56, 64, 80, 96, 128, 192, 256, 384, 512)
SMOKE_TILE_SIZES = (8, 32, 96)
ROW_TILES = 10
DENSITY = 0.5
FLOP_BUDGET = 3e9
#: k-groups must win by this much to count: the run-to-run spread of a cell.
MARGIN = 0.03


def _matrix(rng: np.random.Generator, rows: Tiling, cols: Tiling) -> BlockSparseMatrix:
    """Exactly ``DENSITY`` of the tiles, dealt evenly over the tile rows."""
    out = BlockSparseMatrix(rows, cols)
    per_row = max(1, round(DENSITY * cols.ntiles))
    for i in range(rows.ntiles):
        for j in rng.permutation(cols.ntiles)[:per_row].tolist():
            out.set_tile(i, j, rng.standard_normal((rows.tile_size(i), cols.tile_size(j))))
    return out


def problem(tile: int, flop_budget: float):
    """``(plan, a, b)`` of uniform ``tile``-sized tiles within the flop budget."""
    tasks_per_inner_sq = ROW_TILES * DENSITY * DENSITY  # tasks = this * inner * cols
    inner = int(math.sqrt(flop_budget / (2.0 * tile**3 * tasks_per_inner_sq)))
    inner = min(max(inner, 2), 40)
    rng = np.random.default_rng(tile)
    rows = Tiling.uniform(tile * ROW_TILES, tile)
    mid = Tiling.uniform(tile * inner, tile)
    a, b = _matrix(rng, rows, mid), _matrix(rng, mid, mid)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1), p=1)
    return plan, a, b


def blas_builds() -> str:
    """``numpy <name> <version>, scipy <name> <version>``."""
    builds = []
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        builds.append(f"{mod.__name__} {blas.get('name')} {blas.get('version')}")
    return ", ".join(builds)


def sweep(tile_sizes, reps: int, flop_budget: float, alpha=1.0, beta=1.0) -> list[dict]:
    """Per-task µs of both paths; a ``beta`` other than 1 adds a C input."""
    gate = numeric.KGROUP_MAX_TASK_FLOPS
    table = []
    try:
        for tile in tile_sizes:
            plan, a, b = problem(tile, flop_budget)
            c = _matrix(np.random.default_rng(1000 + tile), a.rows, b.cols) if beta != 1.0 else None
            reference = alpha * (a.to_dense() @ b.to_dense())
            if c is not None:
                reference += beta * c.to_dense()
            seconds = {0.0: [], math.inf: []}
            for rep in range(reps + 1):  # the first rep warms both paths
                for forced in seconds:
                    numeric.KGROUP_MAX_TASK_FLOPS = forced
                    t0 = time.perf_counter()
                    out, stats = execute_plan(plan, a, b, c, alpha, beta)
                    elapsed = time.perf_counter() - t0
                    if rep:
                        seconds[forced].append(elapsed)
                    wrong = not np.allclose(out.to_dense(), reference)
                    if stats.ntasks != plan.total_tasks or wrong:
                        raise SystemExit(f"tile {tile}: wrong result with the gate at {forced}")
            one, grouped = (1e6 * statistics.median(s) / plan.total_tasks for s in seconds.values())
            table.append({"tile": tile, "tasks": plan.total_tasks, "one_us": one,
                          "kgroup_us": grouped, "ratio": grouped / one})
    finally:
        numeric.KGROUP_MAX_TASK_FLOPS = gate
    return table


def crossover(table: list[dict]) -> int | None:
    """The largest tile size up to which k-groups win by ``MARGIN`` at every size."""
    best = None
    for row in table:
        if row["ratio"] > 1.0 - MARGIN:
            break
        best = row["tile"]
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="three small sizes, one rep: checks the plumbing, not the numbers")
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    print(f"BLAS: {blas_builds()}")
    if args.smoke:
        table = sweep(SMOKE_TILE_SIZES, 1, FLOP_BUDGET / 30, alpha=0.5, beta=2.0)
    else:
        table = sweep(TILE_SIZES, args.reps, FLOP_BUDGET)
    print(f"{'tile':>5} {'tasks':>6} {'groups of one':>14} {'k-groups':>10} {'ratio':>6}"
          "   (us per task)")
    for row in table:
        print(f"{row['tile']:>5} {row['tasks']:>6} {row['one_us']:>14.2f} "
              f"{row['kgroup_us']:>10.2f} {row['ratio']:>6.2f}")
    cross = crossover(table)
    gate_tile = round((numeric.KGROUP_MAX_TASK_FLOPS / 2.0) ** (1.0 / 3.0))
    print(f"crossover: k-groups win by >= {MARGIN:.0%} up to tile size {cross}; "
          f"the gate in runtime/numeric.py is 2*{gate_tile}^3 flops per task")
    return 0


if __name__ == "__main__":
    sys.exit(main())
