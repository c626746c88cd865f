"""The plan verifier: statically prove an :class:`ExecutionPlan` is safe.

The inspector/executor split means every run trusts the plan it is handed.
:func:`verify_plan` re-derives the invariants the executors rely on and
reports every breach as a :class:`~repro.analysis.findings.Finding`
instead of failing deep inside a worker:

* **coverage** — every A tile a chunk schedules exists in the A shape
  (P101); every block's B-tile metadata is consistent with the B shape
  (P102); every nonzero C tile is owned by exactly one rank, so no
  cross-rank write races and no dropped output (P103); each grid row's
  columns, and each rank's blocks, partition exactly once (P104) — a
  column two blocks share is written twice even when every footprint
  is honest;
* **memory safety** — block footprints within ``BLOCK_FRACTION`` (50 %) of
  GPU memory (P110), chunk footprints within ``CHUNK_FRACTION`` (25 %) (P111),
  block + two double-buffered chunks fit the device (P112), round-robin
  GPU balance (P113), every B tile fits the per-rank B-service LRU
  budget (P114);
* **comm consistency** — the per-process A/C volumes stored on the plan
  equal the volumes re-derived from its needed-tile sets via
  :func:`repro.core.inspector.expected_comm_volumes` (P120).

:func:`assert_plan_valid` wraps the verifier for executors: it raises
:class:`PlanVerificationError` listing every finding, which is how
``psgemm_distributed(..., verify_plan=True)`` rejects a corrupted plan
before any worker process is spawned.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.findings import AnalysisReport
from repro.core.inspector import DTYPE_BYTES, expected_comm_volumes
from repro.core.plan import BLOCK_FRACTION, CHUNK_FRACTION, ExecutionPlan


class PlanVerificationError(ValueError):
    """A plan failed static verification (carries the full report)."""

    def __init__(self, report: AnalysisReport):
        self.report = report
        super().__init__(
            "execution plan failed static verification:\n" + report.render()
        )


def assert_plan_valid(plan: ExecutionPlan) -> AnalysisReport:
    """Run :func:`verify_plan`; raise :class:`PlanVerificationError` on findings."""
    report = verify_plan(plan)
    if not report.ok:
        raise PlanVerificationError(report)
    return report


def verify_plan(plan: ExecutionPlan) -> AnalysisReport:
    """Statically check ``plan``; returns a report (empty when healthy)."""
    report = AnalysisReport()
    _check_column_partition(plan, report)
    _check_a_coverage(plan, report)
    _check_b_consistency(plan, report)
    _check_c_ownership(plan, report)
    check_memory(plan, report)
    _check_comm_volumes(plan, report)
    return report


# ---- coverage --------------------------------------------------------------


def _check_column_partition(plan: ExecutionPlan, report: AnalysisReport) -> None:
    ntc = plan.b_shape.ntile_cols
    for r in range(plan.grid.p):
        row_procs = [p for p in plan.procs if p.row == r]
        cols = (
            np.concatenate([p.columns for p in row_procs])
            if row_procs
            else np.empty(0, dtype=np.int64)
        )
        uniq, counts = np.unique(cols, return_counts=True)
        dup = uniq[counts > 1]
        missing = np.setdiff1d(np.arange(ntc), uniq)
        if dup.size:
            report.add(
                "P104",
                f"columns {dup[:5].tolist()} assigned to more than one process",
                obj=f"grid row {r}",
            )
        if missing.size:
            report.add(
                "P104",
                f"columns {missing[:5].tolist()} assigned to no process",
                obj=f"grid row {r}",
            )
        bad = uniq[(uniq < 0) | (uniq >= ntc)]
        if bad.size:
            report.add(
                "P104",
                f"columns {bad[:5].tolist()} outside the B tile grid (ntc={ntc})",
                obj=f"grid row {r}",
            )
    for proc in plan.procs:
        cols = np.concatenate([b.columns for b in proc.blocks] or [np.empty(0, np.int64)])
        uniq, counts = np.unique(cols, return_counts=True)
        for what, bad in (
            ("in more than one block", uniq[counts > 1]),
            ("in no block", np.setdiff1d(proc.columns, uniq)),
            ("not assigned to the rank", np.setdiff1d(uniq, proc.columns)),
        ):
            if bad.size:
                report.add("P104", f"block columns {bad[:5].tolist()} {what}",
                           obj=f"rank {proc.rank}")


def _check_a_coverage(plan: ExecutionPlan, report: AnalysisReport) -> None:
    nK = plan.a_shape.ntile_cols
    ai, ak = plan.a_shape.nonzero_tiles()
    present = np.sort(ai * nK + ak)
    for proc in plan.procs:
        for bi, block in enumerate(proc.blocks):
            for ci, chunk in enumerate(block.chunks):
                keys = chunk.a_rows.astype(np.int64) * nK + chunk.a_cols
                pos = np.searchsorted(present, keys)
                ok = (pos < present.size) & (present[np.minimum(pos, present.size - 1)] == keys)
                if not ok.all():
                    bad = np.flatnonzero(~ok)[:5]
                    tiles = [
                        (int(chunk.a_rows[x]), int(chunk.a_cols[x])) for x in bad
                    ]
                    report.add(
                        "P101",
                        f"chunk schedules A tiles {tiles} absent from the A shape",
                        obj=f"rank {proc.rank} / block {bi} / chunk {ci}",
                    )


def _check_b_consistency(plan: ExecutionPlan, report: AnalysisReport) -> None:
    b_csc = plan.b_shape.csr.tocsc()
    k_sizes = plan.a_shape.cols.sizes.astype(np.int64)
    n_sizes = plan.b_shape.cols.sizes.astype(np.int64)
    counts_per_col = np.diff(b_csc.indptr)
    for proc in plan.procs:
        for bi, block in enumerate(proc.blocks):
            where = f"rank {proc.rank} / block {bi}"
            cols = block.columns.astype(np.int64)
            # B tiles of the block's columns.
            kk = np.concatenate(
                [b_csc.indices[b_csc.indptr[j] : b_csc.indptr[j + 1]] for j in cols]
            ) if cols.size else np.empty(0, dtype=np.int64)
            jj = np.repeat(cols, counts_per_col[cols]) if cols.size else kk
            # Every inner tile the block claims must have at least one B
            # tile in the block's columns.
            covered = np.unique(kk)
            orphans = np.setdiff1d(block.k_tiles, covered)
            if orphans.size:
                report.add(
                    "P102",
                    f"inner tiles {orphans[:5].tolist()} have no B tile in the "
                    f"block's columns",
                    obj=where,
                )
            nbytes = int(np.sum(k_sizes[kk] * n_sizes[jj]) * DTYPE_BYTES)
            if block.b_tile_count != kk.size or block.b_bytes != nbytes:
                report.add(
                    "P102",
                    f"stored B footprint ({block.b_tile_count} tiles, "
                    f"{block.b_bytes} B) != shape-derived footprint "
                    f"({kk.size} tiles, {nbytes} B)",
                    obj=where,
                )


def _check_c_ownership(plan: ExecutionPlan, report: AnalysisReport) -> None:
    ntc = plan.c_shape.ntile_cols
    ci, cj = plan.c_shape.nonzero_tiles()
    all_keys = np.sort(ci * ntc + cj)
    owner_keys: list[np.ndarray] = []
    owner_ranks: list[np.ndarray] = []
    for proc in plan.procs:
        sub = plan.c_shape.csr[proc.a_slice_rows][:, proc.columns].tocoo()
        if sub.nnz == 0:
            continue
        keys = proc.a_slice_rows[sub.row] * ntc + proc.columns[sub.col]
        owner_keys.append(keys)
        owner_ranks.append(np.full(keys.size, proc.rank, dtype=np.int64))
    keys = np.concatenate(owner_keys) if owner_keys else np.empty(0, dtype=np.int64)
    ranks = np.concatenate(owner_ranks) if owner_ranks else keys
    uniq, counts = np.unique(keys, return_counts=True)
    for key in uniq[counts > 1][:5]:
        who = sorted(set(ranks[keys == key].tolist()))
        i, j = int(key // ntc), int(key % ntc)
        report.add(
            "P103",
            f"C tile ({i},{j}) owned by ranks {who} — cross-rank write race",
            obj=f"C tile ({i},{j})",
        )
    uncovered = np.setdiff1d(all_keys, uniq)
    if uncovered.size:
        tiles = [(int(k // ntc), int(k % ntc)) for k in uncovered[:5]]
        report.add(
            "P103",
            f"{uncovered.size} nonzero C tiles owned by no rank "
            f"(e.g. {tiles}) — output would be dropped",
            obj="C coverage",
        )


# ---- memory safety ---------------------------------------------------------


def check_memory(plan: ExecutionPlan, report: AnalysisReport) -> None:
    """The memory-safety rules (P110-P114) alone: all that admission
    control (:func:`repro.serve.service.memory_findings`) runs."""
    mem = plan.gpu_memory_bytes
    block_budget = int(mem * BLOCK_FRACTION)
    chunk_budget = int(mem * CHUNK_FRACTION)
    # The per-rank B service caches generated tiles under an LRU budget of
    # gpu_memory_bytes; a single tile over that budget is unservable.
    biggest_b = plan.b_shape.max_tile_nbytes(DTYPE_BYTES)
    if biggest_b > mem:
        report.add(
            "P114",
            f"largest B tile ({biggest_b} B) exceeds the per-rank B-service "
            f"budget ({mem} B of GPU memory); the on-demand LRU can never "
            f"hold it — retile B or raise the device memory",
            obj="B shape",
        )
    for proc in plan.procs:
        counts = np.zeros(plan.grid.gpus_per_proc, dtype=np.int64)
        for bi, block in enumerate(proc.blocks):
            where = f"rank {proc.rank} / gpu {block.gpu} / block {bi}"
            counts[block.gpu] += 1
            resident = block.b_bytes + block.c_bytes
            if resident > block_budget and len(block.columns) != 1:
                report.add(
                    "P110",
                    f"resident B+C footprint {resident} B exceeds the block "
                    f"budget {block_budget} B "
                    f"({BLOCK_FRACTION:.0%} of {mem} B)",
                    obj=where,
                )
            if resident > mem * 0.95:
                report.add(
                    "P110",
                    f"resident B+C footprint {resident} B exceeds 95% of the "
                    f"{mem} B device",
                    obj=where,
                )
            cb = chunk_budget
            if resident > block_budget:  # oversized singleton block
                cb = max((mem - resident) // 2, 1)
            for ci, chunk in enumerate(block.chunks):
                cwhere = f"{where} / chunk {ci}"
                if chunk.a_bytes > cb and chunk.ntiles != 1:
                    report.add(
                        "P111",
                        f"chunk of {chunk.ntiles} A tiles, {chunk.a_bytes} B "
                        f"exceeds the chunk budget {cb} B",
                        obj=cwhere,
                    )
                if resident + 2 * chunk.a_bytes > mem and chunk.ntiles != 1:
                    report.add(
                        "P112",
                        f"block ({resident} B) + double-buffered chunk "
                        f"(2 x {chunk.a_bytes} B) exceeds the {mem} B device",
                        obj=cwhere,
                    )
        nonempty = counts[counts > 0]
        if nonempty.size and counts.min() > 0 and counts.max() - counts.min() > 1:
            report.add(
                "P113",
                f"per-GPU block counts {counts.tolist()} differ by more than "
                f"one (round-robin balance violated)",
                obj=f"rank {proc.rank}",
            )


# ---- comm consistency -------------------------------------------------------


def _check_comm_volumes(plan: ExecutionPlan, report: AnalysisReport) -> None:
    expected = expected_comm_volumes(plan)
    for proc in plan.procs:
        for name, want in expected[proc.rank].items():
            got = getattr(proc, name)
            if got != want:
                report.add(
                    "P120",
                    f"stored {name}={got} differs from the plan-implied "
                    f"volume {want}",
                    obj=f"rank {proc.rank}",
                )
