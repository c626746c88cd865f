"""Numeric execution of an :class:`~repro.core.plan.ExecutionPlan`.

This executor walks the plan exactly as the GPUs would — per process, per
GPU, per block, per chunk — but with real NumPy tiles, enforcing the memory
discipline through :class:`~repro.runtime.gpu_memory.GpuMemory` and the
generated-B life-cycle through the tile source.  It proves two things the
performance model alone cannot:

1. **correctness** — the planned task set computes exactly ``C + A @ B``
   (tests compare against the dense reference down to roundoff);
2. **the invariants the paper's control DAG encodes** — block residency
   never exceeds 50 % of GPU memory, a chunk plus its prefetch never
   exceed the other 50 %, B tiles are instantiated at most once per
   process, and every C tile is produced by exactly one process.

The per-block body (:func:`execute_blocks`) is shared with the real
multi-process executor in :mod:`repro.dist` — ranks, handoff helpers and
the inline spare all run it: everyone walks blocks, chunks and GEMMs in the
identical order with identical floating-point operations, so the
distributed result is bit-for-bit the serial result and this executor
doubles as the distributed executor's crosscheck oracle.  (Parity is
between the executors of one build: how a chunk's GEMMs are grouped —
:func:`chunk_groups` — may change the last bit from build to build.)  Every
product is one in-place ``dgemm``, ``C <- alpha*A@B + beta*C`` with ``beta``
0 or 1 (:func:`gemm_into`).  A caller chooses only *where* a C tile is born
(``c_slot``): the oracle allocates it, a worker hands out arena slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy.linalg.blas import dgemm

from repro.core.plan import Block, Chunk, ExecutionPlan, ProcPlan
from repro.runtime.data import MatrixSource, TileSource
from repro.runtime.gpu_memory import GpuMemory
from repro.sparse.matrix import BlockSparseMatrix
from repro.util.validation import require


@dataclass
class NumericStats:
    """Observed execution statistics.

    Attributes
    ----------
    ntasks:
        GEMM tasks actually executed.
    flops:
        Their flop count (2*m*n*k each).
    h2d_bytes, d2h_bytes:
        Host->device traffic (B blocks + A chunks) and C writeback.
    b_tiles_generated:
        Tiles pulled from the B source, summed over processes.
    gpu_peak_bytes:
        Maximum device-memory high-water mark over all GPUs.
    per_proc_tasks:
        Task counts per process (load-balance checks).
    """

    ntasks: int = 0
    flops: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    b_tiles_generated: int = 0
    gpu_peak_bytes: int = 0
    per_proc_tasks: dict[int, int] = field(default_factory=dict)

    @classmethod
    def merge(cls, parts: Iterable["NumericStats"]) -> "NumericStats":
        """Combine per-process (or per-attempt) statistics into a total.

        Counters are summed, ``gpu_peak_bytes`` is the max over parts (each
        part tracks a disjoint set of GPUs), and ``per_proc_tasks`` is the
        union of the per-rank task counts (summed on the rare key overlap,
        e.g. a rank re-executed after a fault).
        """
        out = cls()
        for s in parts:
            out.ntasks += s.ntasks
            out.flops += s.flops
            out.h2d_bytes += s.h2d_bytes
            out.d2h_bytes += s.d2h_bytes
            out.b_tiles_generated += s.b_tiles_generated
            out.gpu_peak_bytes = max(out.gpu_peak_bytes, s.gpu_peak_bytes)
            for rank, n in s.per_proc_tasks.items():
                out.per_proc_tasks[rank] = out.per_proc_tasks.get(rank, 0) + n
        return out


def block_cols_of_k(block: Block, b_csr) -> dict[int, list[int]]:
    """Per-inner-tile list of this block's present B columns, in CSR order."""
    block_cols = set(block.columns.tolist())
    cols_of_k: dict[int, list[int]] = {}
    for k in block.k_tiles.tolist():
        row = b_csr.indices[b_csr.indptr[k] : b_csr.indptr[k + 1]]
        cols_of_k[k] = [j for j in row.tolist() if j in block_cols]
    return cols_of_k


#: Mean flops per task of a chunk up to which stacking its A tiles pays: the
#: crossover of ``benchmarks/tile_sweep.py`` (tile size 48; EXPERIMENTS.md).
KGROUP_MAX_TASK_FLOPS = 2.0 * 48**3


def chunk_groups(chunk: Chunk) -> list[list[int]]:
    """Positions of ``chunk``'s A tiles, grouped for execution.

    A fine-tiled chunk is walked as *k-groups*: the tiles that share an
    inner index, in order of first appearance, multiply each B tile as one
    stacked panel.  A chunk whose mean task is large gains nothing from
    that and would pay the stack copy, so it runs groups of one — the
    chunk's own tile order.  A pure function of the plan: every executor of
    a chunk walks the same groups.
    """
    if chunk.flops > KGROUP_MAX_TASK_FLOPS * chunk.ntasks:
        return [[ti] for ti in range(chunk.ntiles)]
    by_k: dict[int, list[int]] = {}
    for ti, k in enumerate(chunk.a_cols.tolist()):
        by_k.setdefault(k, []).append(ti)
    return list(by_k.values())


#: Flops of one product above which it runs ``np.matmul``, which releases the
#: GIL: f2py's ``dgemm`` holds it for the whole call, and a call longer than a
#: worker's stall window (8 heartbeats of 0.25 s) would starve its heartbeat
#: thread and get a healthy rank killed.  2·1024³ flops is ≤ ~40 ms on one core.
GIL_MAX_CALL_FLOPS = 2.0 * 1024**3


def gemm_into(dest, a, b, alpha: float, accumulate: bool, key) -> None:
    """``dest <- alpha*a@b``, ``+ dest`` if ``accumulate``: one in-place ``dgemm``
    on the transposes, where a C-contiguous float64 ``dest`` is the Fortran
    array BLAS writes.  Any other would be copied: ``ValueError`` naming ``key``."""
    if 2.0 * a.shape[0] * a.shape[1] * b.shape[1] > GIL_MAX_CALL_FLOPS:
        dest[...] = np.matmul(a, b) * alpha + (dest if accumulate else 0.0)
    elif dgemm(alpha, b.T, a.T, float(accumulate), dest_t := dest.T, 0, 0, 1) is not dest_t:
        raise ValueError(f"C tile {key}: dgemm writes in place only into C-contiguous float64")


def execute_block(
    block: Block,
    block_name: str,
    *,
    rank: int,
    a_get_tile: Callable[[int, int], np.ndarray],
    b: TileSource,
    cols_of_k: dict[int, list[int]],
    mem: GpuMemory,
    stats: NumericStats,
    alpha: float = 1.0,
    fetch_chunk: Callable[[int, object], list[np.ndarray]] | None = None,
    on_task: Callable[[], None] | None = None,
    on_event: Callable[[str, str, float, float], None] | None = None,
    resource: str = "",
    clock: Callable[[], float] | None = None,
    c_slot: Callable[[tuple[int, int], int, int], np.ndarray] | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Run one resident block's chunk stream; returns the device C tiles.

    Each chunk is walked by :func:`chunk_groups`; every product is one
    :func:`gemm_into`, ``alpha`` folded in.  A group of one writes each task
    into its C tile in chunk tile order (the first sets it, later ones add).
    A k-group's tiles are stacked once and multiply each B tile ``(k, j)``
    of the block as one panel into a reused scratch buffer; its contiguous
    row slices, the tasks' ``(m_i, n_j)`` contributions, are copied or added
    into C in group order.  ``on_task`` fires once per task either way.

    ``fetch_chunk(ci, chunk)`` may supply prefetched A tiles (in chunk tile
    order) — the distributed worker's traced fetcher — otherwise tiles
    come from ``a_get_tile``.  ``c_slot((i, j), m, n)`` may supply the
    C-contiguous float64 ``(m, n)`` array a C tile is born in (a group of
    one raises ``ValueError`` on any other); without it, ``np.empty``.  The
    GEMM order and every operand are identical either way, which is what
    makes serial and distributed runs of one build bit-equal.
    """
    c_dev: dict[tuple[int, int], np.ndarray] = {}
    new_tile = c_slot if c_slot is not None else lambda key, m, n: np.empty((m, n))
    scratch = np.empty(0)  # one reused product buffer for the fused panels
    prev_chunk: str | None = None
    for ci, chunk in enumerate(block.chunks):
        chunk_name = f"{block_name}.chunk{ci}"
        # Prefetch discipline: next chunk reserved while the previous is
        # still resident, then the previous freed.
        mem.reserve(chunk_name, chunk.a_bytes)
        if prev_chunk is not None:
            mem.release(prev_chunk)
        prev_chunk = chunk_name
        stats.h2d_bytes += chunk.a_bytes

        a_tiles = fetch_chunk(ci, chunk) if fetch_chunk is not None else None
        t_start = clock() if on_event is not None and clock is not None else 0.0
        rows, ks = chunk.a_rows.tolist(), chunk.a_cols.tolist()
        for group in chunk_groups(chunk):
            k = ks[group[0]]
            if a_tiles is not None:
                tiles = [a_tiles[ti] for ti in group]
            else:
                tiles = [a_get_tile(rows[ti], k) for ti in group]
            members = [(rows[ti], tile.shape[0]) for ti, tile in zip(group, tiles)]
            fused = len(tiles) > 1
            # The group's A tiles stacked once: the chunk's device copy.
            panel = np.concatenate(tiles) if fused else tiles[0]
            nrows, kdim = panel.shape
            for j in cols_of_k[k]:
                b_tile = b.tile(rank, k, j)
                n = b_tile.shape[1]
                if fused:
                    if scratch.size < nrows * n:
                        scratch = np.empty(nrows * n)
                    prod = scratch[: nrows * n].reshape(nrows, n)
                    gemm_into(prod, panel, b_tile, alpha, False, "panel")
                lo = 0
                for i, m in members:
                    dest = c_dev.get((i, j))
                    if first := dest is None:  # the tile is born where it stays
                        dest = c_dev[(i, j)] = new_tile((i, j), m, n)
                    if not fused:
                        gemm_into(dest, panel, b_tile, alpha, not first, (i, j))
                    elif first:
                        dest[...] = prod[lo : lo + m]
                    else:
                        dest += prod[lo : lo + m]
                    lo += m
                    if on_task is not None:
                        on_task()
                stats.ntasks += len(members)
                stats.flops += 2.0 * nrows * n * kdim
        if on_event is not None and clock is not None:
            on_event(f"{block_name}.chunk{ci}.gemm", resource, t_start, clock())
    if prev_chunk is not None:
        mem.release(prev_chunk)
    return c_dev


def proc_blocks(proc: ProcPlan, gpus_per_proc: int) -> Iterator[tuple[int, int, Block]]:
    """A rank's ``(gpu, position, block)`` triples, in execution order."""
    for g in range(gpus_per_proc):
        for bi, block in enumerate(proc.gpu_blocks(g)):
            yield g, bi, block


def execute_blocks(
    blocks: Iterable[tuple[int, int, Block]],
    rank: int,
    a_get_tile: Callable[[int, int], np.ndarray],
    b: TileSource,
    *,
    gpu_memory_bytes: int,
    b_csr,
    alpha: float = 1.0,
    chunk_fetcher: Callable[[int, int, Block], Callable] | None = None,
    on_task: Callable[[], None] | None = None,
    on_event: Callable[[str, str, float, float], None] | None = None,
    clock: Callable[[], float] | None = None,
    restore_block: Callable[[int, int, Block], dict | None] | None = None,
    on_block: Callable[[int, int, Block, dict], None] | None = None,
    skip_block: Callable[[int, int, Block], bool] | None = None,
    c_slot: Callable[[tuple[int, int], int, int], np.ndarray] | None = None,
) -> tuple[dict[tuple[int, int], np.ndarray], NumericStats]:
    """Execute ``(gpu, position, block)`` triples of ``rank``'s plan;
    returns ``(C tiles, stats)``.

    The one per-block body: the serial :func:`execute_plan` runs it over
    every rank's :func:`proc_blocks`, a distributed worker over its own, and
    a rebalance helper (or the coordinator's inline spare) over the blocks
    reclaimed from ``rank`` — stats, B-source calls and ``per_proc_tasks``
    are attributed to ``rank`` whoever computes.  B tiles are evicted at the
    end of each block's life-cycle (``b.evict``), C tiles are counted as
    written back (d2h) once per block, exactly as PaRSEC's control DAG
    forces on the real machine.  ``c_slot`` is passed through to
    :func:`execute_block`.

    Checkpoint hooks: ``restore_block(g, bi, block)`` may return the
    block's finished ``{(i, j): tile}`` dict — the whole block is then
    skipped (no GEMMs, no stats) and the tiles enter ``produced`` as-is;
    ``on_block(g, bi, block, c_dev)`` fires after each *executed* block's
    writeback, which is where the distributed worker commits the block's
    file.  Restored blocks are exactly the committed ones, and committed
    tiles are bit-identical to recomputed ones, so a resumed run's C
    equals an uninterrupted run's C bit for bit.

    ``skip_block(g, bi, block)`` is the rebalancer's yield point, checked
    *before* the restore hook at every block boundary: a ``True`` return
    drops the block entirely (someone else now owns it — its tiles arrive
    through that owner, so producing them here would violate the
    one-producer-per-tile reduction invariant).
    """
    stats = NumericStats()
    produced: dict[tuple[int, int], np.ndarray] = {}
    mems: dict[int, GpuMemory] = {}
    for g, bi, block in blocks:
        block_name = f"block{bi}"
        if skip_block is not None and skip_block(g, bi, block):
            continue
        if restore_block is not None:
            restored = restore_block(g, bi, block)
            if restored is not None:
                produced.update(restored)
                continue
        mem = mems.get(g)
        if mem is None:
            mem = mems[g] = GpuMemory(gpu_memory_bytes)
        mem.reserve(block_name, block.b_bytes + block.c_bytes)
        stats.h2d_bytes += block.b_bytes
        cols_of_k = block_cols_of_k(block, b_csr)
        c_dev = execute_block(
            block,
            block_name,
            rank=rank,
            a_get_tile=a_get_tile,
            b=b,
            cols_of_k=cols_of_k,
            mem=mem,
            stats=stats,
            alpha=alpha,
            fetch_chunk=chunk_fetcher(g, bi, block) if chunk_fetcher is not None else None,
            on_task=on_task,
            on_event=on_event,
            resource=f"gpu.{rank}.{g}.comp",
            clock=clock,
            c_slot=c_slot,
        )

        # Writeback: C tiles leave the device once per block.  Within a
        # process, blocks hold disjoint column sets, so no key collides.
        for (i, j), tile in c_dev.items():
            produced[(i, j)] = tile
            stats.d2h_bytes += tile.nbytes
        if on_block is not None:
            on_block(g, bi, block, c_dev)

        # Evict the block's B tiles at end of life-cycle.
        if hasattr(b, "evict"):
            for k, js in cols_of_k.items():
                for j in js:
                    b.evict(rank, k, j)

        mem.release(block_name)
    stats.gpu_peak_bytes = max((mem.peak for mem in mems.values()), default=0)
    stats.per_proc_tasks[rank] = stats.ntasks
    return produced, stats


def execute_plan(
    plan: ExecutionPlan,
    a: BlockSparseMatrix,
    b: TileSource | BlockSparseMatrix,
    c: BlockSparseMatrix | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> tuple[BlockSparseMatrix, NumericStats]:
    """Run the plan numerically; returns ``(C, stats)``.

    ``C <- beta * C + alpha * A @ B`` — the full GEMM semantics the paper
    states (``C <- alpha A B + beta C``); ``c`` (if given) supplies the
    input C.  The result's tilings are ``(a.rows, B cols)``.
    """
    if isinstance(b, BlockSparseMatrix):
        b = MatrixSource(b)
    require(a.rows == plan.a_shape.rows and a.cols == plan.a_shape.cols, "A tilings differ from plan")
    b_rows = plan.b_shape.rows
    b_cols = plan.b_shape.cols
    require(a.cols == b_rows, "A and B do not conform")

    out = BlockSparseMatrix(a.rows, b_cols)
    if c is not None:
        require(c.rows == a.rows and c.cols == b_cols, "C tilings do not conform")
        for (i, j), tile in c.items():
            out.set_tile(i, j, beta * tile)

    b_csr = plan.b_shape.csr  # occupancy for per-k column lists
    produced_by: dict[tuple[int, int], int] = {}
    parts: list[NumericStats] = []

    for proc in plan.procs:
        produced, proc_stats = execute_blocks(
            proc_blocks(proc, plan.grid.gpus_per_proc),
            proc.rank,
            a.get_tile,
            b,
            gpu_memory_bytes=plan.gpu_memory_bytes,
            b_csr=b_csr,
            alpha=alpha,
        )
        parts.append(proc_stats)
        for (i, j), tile in produced.items():
            prev = produced_by.setdefault((i, j), proc.rank)
            require(
                prev == proc.rank,
                f"C tile ({i},{j}) produced by two processes ({prev}, {proc.rank})",
            )
            out.accumulate_tile(i, j, tile)

    stats = NumericStats.merge(parts)
    if hasattr(b, "generated_tiles"):
        stats.b_tiles_generated = b.generated_tiles()
    elif isinstance(b, MatrixSource):
        stats.b_tiles_generated = len(b.access_counts)
    return out, stats
