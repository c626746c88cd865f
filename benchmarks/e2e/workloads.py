"""The four workloads: sizes, seeded operand generation, timed operations.

The harness owns input generation: tilings, occupancy and tile values all
come from one ``numpy`` generator derived from ``--seed``, and the program
under test receives only the finished operands.  A seed permutes a fixed
set of tile sizes and places an *exact* number of tiles
(``round(density * tiles)``), so that the task and flop counts, and with
them every wall time, move little from seed to seed.

Sizes are the issue's starting points scaled down by roughly 2x in flops:
the driver runs 92 processes inside 3420 s, which leaves about 30 s per
process for set-up, warm-up and the timed reps together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core import inspect
from repro.dist import execute_plan_distributed
from repro.machine import summit
from repro.runtime import GeneratedCollection, execute_plan
from repro.serve import ContractionService
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.shape import SparseShape
from repro.tiling.tiling import Tiling

#: Seconds one distributed run or serve job may take before it counts as failed.
OP_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Spec:
    """One workload: the shape of its problem."""

    name: str
    m: int
    k: int
    n: int
    tile_lo: int
    tile_hi: int
    density: float
    #: Grid rows; the grid always has 2 ranks, so p=2 -> q=1 and p=1 -> q=2.
    p: int
    with_c: bool = False
    alpha: float = 1.0
    beta: float = 1.0
    #: B is an on-demand GeneratedCollection served through ContractionService.
    serve: bool = False
    jobs: int = 1


SPECS = {
    s.name: s
    for s in (
        # Large dense-ish tiles, A rows split over 2 ranks, no C input: the GEMM
        # stream does most of the work, so kernel and scaling changes show here
        # and copy-plane changes must stay flat.
        Spec("gemm_bound_p2", m=2400, k=2400, n=2400, tile_lo=160, tile_hi=320,
             density=0.9, p=2),
        # The paper's short-and-wide A with B columns split over 2 ranks and a C
        # input: bytes per flop are high, so pack, prefetch, writeback and reduce
        # weigh most against GEMM.
        Spec("abcd_short_a_q2", m=400, k=6400, n=6400, tile_lo=150, tile_hi=300,
             density=0.6, p=1, with_c=True, alpha=0.5, beta=1.0),
        # Tens of thousands of tiny GEMMs (the paper's v2/v3-like tiling):
        # per-task interpreter and dispatch cost dominates, BLAS and copies do little.
        Spec("fine_tiles_p2", m=800, k=3200, n=3200, tile_lo=16, tile_hi=64,
             density=0.5, p=2),
        # The paper's on-demand B: one ContractionService lifetime runs 5 jobs with
        # the same generated B and a new A each (job 1 cold, 2-5 warm), so B
        # service, warm cache, pool and scheduler do the work.
        Spec("ccsd_loop_serve", m=400, k=2880, n=2880, tile_lo=100, tile_hi=200,
             density=0.6, p=1, serve=True, jobs=5),
    )
}

#: ``--smoke`` sizes: same code paths, a fraction of a second each.
SMOKE_SIZES = {
    "gemm_bound_p2": dict(m=240, k=240, n=240, tile_lo=40, tile_hi=80),
    "abcd_short_a_q2": dict(m=80, k=480, n=480, tile_lo=30, tile_hi=60),
    "fine_tiles_p2": dict(m=96, k=256, n=256, tile_lo=8, tile_hi=16),
    "ccsd_loop_serve": dict(m=80, k=320, n=320, tile_lo=30, tile_hi=60),
}


def spec_for(name: str, smoke: bool) -> Spec:
    spec = SPECS[name]
    return replace(spec, **SMOKE_SIZES[name]) if smoke else spec


# ---- seeded operand generation ---------------------------------------------


def _tiling(rng: np.random.Generator, extent: int, lo: int, hi: int) -> Tiling:
    """Tile sizes spread evenly over about ``[lo, hi]``, in a seeded random order.

    Every seed gets the same number of tiles and the same set of sizes, in
    another order: the task count and the per-task cost then depend on the
    seed only through the occupancy, not through how many tiles it drew.
    """
    ntiles = max(1, round(extent / ((lo + hi) / 2)))
    ideal = np.linspace(lo, hi, ntiles)
    ideal *= extent / ideal.sum()
    sizes = np.floor(ideal).astype(np.int64)
    # Hand the rounding remainder to the tiles that lost the largest fraction.
    short = extent - int(sizes.sum())
    sizes[np.argsort(ideal - sizes)[::-1][:short]] += 1
    return Tiling.from_sizes(rng.permutation(sizes))


def _occupancy(rng: np.random.Generator, rows: Tiling, cols: Tiling,
               density: float) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of exactly ``round(density * tiles)`` present tiles.

    The tiles are dealt evenly over the tile rows (counts differ by at most
    one), at seeded random columns.
    """
    total = max(1, round(density * rows.ntiles * cols.ntiles))
    per_row = np.full(rows.ntiles, total // rows.ntiles)
    per_row[rng.permutation(rows.ntiles)[: total % rows.ntiles]] += 1
    picked = [np.sort(rng.permutation(cols.ntiles)[:count]) for count in per_row]
    return np.repeat(np.arange(rows.ntiles), per_row), np.concatenate(picked)


def _matrix(rng: np.random.Generator, rows: Tiling, cols: Tiling,
            coords: tuple[np.ndarray, np.ndarray]) -> BlockSparseMatrix:
    out = BlockSparseMatrix(rows, cols)
    for i, j in zip(coords[0].tolist(), coords[1].tolist()):
        out.set_tile(i, j, rng.standard_normal((rows.tile_size(i), cols.tile_size(j))))
    return out


@dataclass
class Prepared:
    """Everything the timed operations need, built once in set-up."""

    spec: Spec
    plan: object
    #: One A per job (a single entry except on the serve workload).
    a_list: list
    b: object
    c: object

    @property
    def a(self):
        return self.a_list[0]


def prepare(spec: Spec, seed: int) -> Prepared:
    """Set-up: generate the operands from ``seed`` and run the inspector."""
    rng = np.random.default_rng([seed, sorted(SPECS).index(spec.name)])
    rows = _tiling(rng, spec.m, spec.tile_lo, spec.tile_hi)
    inner = _tiling(rng, spec.k, spec.tile_lo, spec.tile_hi)
    cols = _tiling(rng, spec.n, spec.tile_lo, spec.tile_hi)
    a_coords = _occupancy(rng, rows, inner, spec.density)
    b_coords = _occupancy(rng, inner, cols, spec.density)
    # Every job of the loop has the same occupancy (one plan) and new values.
    a_list = [_matrix(rng, rows, inner, a_coords) for _ in range(spec.jobs)]
    if spec.serve:
        b_shape = SparseShape.from_coo(inner, cols, *b_coords)
        b = GeneratedCollection(b_shape, seed=int(rng.integers(1 << 31)))
    else:
        b = _matrix(rng, inner, cols, b_coords)
        b_shape = b.sparse_shape()
    c = None
    if spec.with_c:
        c = _matrix(rng, rows, cols, _occupancy(rng, rows, cols, spec.density))
    plan = inspect(a_list[0].sparse_shape(), b_shape, summit(2), p=spec.p)
    if plan.grid.nprocs != 2:
        raise RuntimeError(f"{spec.name}: expected a 2-rank grid, got {plan.grid.nprocs}")
    return Prepared(spec, plan, a_list, b, c)


# ---- the operations ---------------------------------------------------------


def serial_op(prep: Prepared) -> list:
    """The serial oracle: one ``execute_plan`` per job; returns ``[(C, stats)]``.

    A generated B is regenerated for every job, as a caller without the
    service would.
    """
    spec = prep.spec
    out = []
    for a in prep.a_list:
        b = prep.b.empty_clone() if spec.serve else prep.b
        out.append(execute_plan(prep.plan, a, b, prep.c, alpha=spec.alpha, beta=spec.beta))
    return out


def dist_op(prep: Prepared, *, trace: bool, **extra) -> list:
    """One cold ``execute_plan_distributed`` call; returns ``[(C, report)]``."""
    spec = prep.spec
    return [execute_plan_distributed(
        prep.plan, prep.a, prep.b, prep.c, alpha=spec.alpha, beta=spec.beta,
        trace=trace, metrics=trace, timeout=OP_TIMEOUT_S, **extra,
    )]


@dataclass
class ServeLoop:
    """What one service lifetime returned and how long each part took."""

    results: list
    #: Per job: seconds from ``submit()`` to ``result()`` as the client saw them.
    client_s: list
    #: Per job: the service's own snapshot (``state``, ``run_s``, ...).
    jobs: list
    spawns: int
    start_s: float
    shutdown_s: float


def serve_op(prep: Prepared, *, trace: bool) -> ServeLoop:
    """One ``ContractionService`` lifetime: start, ``jobs`` closed-loop jobs, shutdown."""
    t0 = time.perf_counter()
    svc = ContractionService(2, trace=trace, metrics=trace, timeout=OP_TIMEOUT_S)
    t_started = t_jobs_done = time.perf_counter()
    results, client_s = [], []
    try:
        svc.pool.start()
        t_started = time.perf_counter()
        for a in prep.a_list:
            t_submit = time.perf_counter()
            job_id = svc.submit(prep.plan, a, prep.b.empty_clone())
            results.append(svc.result(job_id, timeout=OP_TIMEOUT_S))
            client_s.append(time.perf_counter() - t_submit)
        t_jobs_done = time.perf_counter()
    finally:
        svc.shutdown()
    return ServeLoop(
        results=results, client_s=client_s, jobs=svc.jobs(), spawns=svc.pool.spawns,
        start_s=t_started - t0, shutdown_s=time.perf_counter() - t_jobs_done,
    )


