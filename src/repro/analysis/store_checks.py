"""Pre-flight checks for checkpoint directories and the tile store.

The runtime already defends itself — the coordinator refuses a snapshot
whose plan hash disagrees with the plan it was handed, and the store's GC
keeps disk under budget — but both refusals happen *after* processes
spawn and operands are packed.  These checks let ``repro analyze`` (and
scripts) prove the same invariants statically, before a long run starts:

* **P121** — a checkpoint directory's coordinator snapshot belongs to a
  different plan (or a future snapshot format).  Resuming would silently
  recompute everything at best and mix block files at worst; the runtime
  raises, this reports.
* **P122** — the store cannot hold what the run will ask of it: the
  bytes the run can write exceed the free space of the filesystem backing
  the store.

Both operate on paths that may not exist yet — an absent checkpoint dir
or store is simply a fresh start and produces no findings.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from repro.analysis.findings import AnalysisReport
from repro.core.inspector import DTYPE_BYTES
from repro.core.plan import ExecutionPlan
from repro.store.journal import VERSION as SNAPSHOT_VERSION
from repro.store.journal import plan_fingerprint, read_snapshot
from repro.store.tilestore import TileStore


def verify_store_setup(
    plan: ExecutionPlan,
    *,
    checkpoint_dir: str | None = None,
    store_dir: str | None = None,
) -> AnalysisReport:
    """Run every applicable store/checkpoint check for one planned run.

    Mirrors the argument surface of ``psgemm_distributed``: pass the same
    ``checkpoint_dir``/``store_dir`` you intend to run with, and the report
    is empty exactly when the run would not be refused (P121) or starved of
    disk (P122).
    """
    report = AnalysisReport()
    if checkpoint_dir is not None:
        check_checkpoint_compat(plan, checkpoint_dir, report=report)
    root = store_dir or (
        os.path.join(checkpoint_dir, "store") if checkpoint_dir else None
    )
    if root is not None:
        check_store_capacity(plan, root, report=report)
    return report


# ---- P121: checkpoint/plan compatibility ------------------------------------


def check_checkpoint_compat(
    plan: ExecutionPlan,
    checkpoint_dir: str,
    report: AnalysisReport | None = None,
) -> AnalysisReport:
    """P121: would resuming from ``checkpoint_dir`` be refused for ``plan``?

    Re-derives the coordinator's own refusal: the snapshot's plan hash
    must equal ``plan_fingerprint(plan)`` (or be absent — a directory of
    block files alone is fine, they are run-hash-namespaced).  Also flags
    a snapshot written by a newer format version and a rank-count
    mismatch, either of which would make the per-rank block files mean
    something different.
    """
    if report is None:
        report = AnalysisReport()
    snap = read_snapshot(checkpoint_dir)
    if snap is None:
        return report
    where = os.path.join(checkpoint_dir, "coordinator.json")
    version = snap.get("v")
    if isinstance(version, int) and version > SNAPSHOT_VERSION:
        report.add(
            "P121",
            f"snapshot format v{version} is newer than this build's "
            f"v{SNAPSHOT_VERSION}; resume semantics are undefined — "
            f"use a matching build or a fresh checkpoint directory",
            obj=where,
        )
        return report
    want = plan_fingerprint(plan)
    got = snap.get("plan")
    if got not in (None, want):
        report.add(
            "P121",
            f"checkpoint belongs to a different plan "
            f"(snapshot plan hash {str(got)[:12]}..., this plan "
            f"{want[:12]}...); resuming would mix incompatible block files — "
            f"point checkpoint_dir at a fresh directory",
            obj=where,
        )
    nranks = snap.get("nranks")
    if isinstance(nranks, int) and nranks != len(plan.procs):
        report.add(
            "P121",
            f"checkpoint was written by a {nranks}-rank run but this plan "
            f"has {len(plan.procs)} ranks; per-rank block files would be "
            f"misattributed on resume",
            obj=where,
        )
    return report


# ---- P122: store capacity ---------------------------------------------------


def _b_tile_bytes(plan: ExecutionPlan) -> int:
    """Payload bytes of every unique B tile."""
    k_sizes = plan.a_shape.cols.sizes.astype(np.int64)
    n_sizes = plan.b_shape.cols.sizes.astype(np.int64)
    kk, jj = plan.b_shape.nonzero_tiles()
    return int((k_sizes[kk] * n_sizes[jj]).sum()) * DTYPE_BYTES


def check_store_capacity(
    plan: ExecutionPlan,
    store_root: str,
    report: AnalysisReport | None = None,
) -> AnalysisReport:
    """P122: can the store at ``store_root`` hold what this run writes?

    The failure mode: a working set larger than the free space of the
    filesystem the store lives on.  Free-space accounting credits bytes
    the store already holds (they are re-used, not re-written).
    """
    if report is None:
        report = AnalysisReport()
    demand = _b_tile_bytes(plan)
    # Free space of the filesystem that will (or does) hold the store:
    # walk up to the nearest existing ancestor of a not-yet-created root.
    probe = os.path.abspath(store_root)
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        free = shutil.disk_usage(probe).free
    except OSError:
        return report  # unprobeable filesystem: nothing to prove
    held = 0
    if os.path.isdir(os.path.join(store_root, "objects")):
        store = TileStore(store_root)
        try:
            held = sum(o.nbytes for o in store.scan())
        finally:
            store.close()
    growth = max(demand - held, 0)
    if growth > free:
        report.add(
            "P122",
            f"the run's persistent B working set (~{demand} B, "
            f"{held} B already on disk) exceeds the {free} B free on the "
            f"store's filesystem; shrink the store (`repro store gc "
            f"--budget`) or move it",
            obj=store_root,
        )
    return report
