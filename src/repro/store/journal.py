"""Crash-consistent checkpointing: fingerprints, journal, snapshots.

Three cooperating pieces turn a checkpoint directory into a resumable run:

* **fingerprints** — :func:`plan_fingerprint` hashes everything an
  :class:`~repro.core.plan.ExecutionPlan` makes a worker do (grid,
  shapes, per-block column/chunk arrays); :func:`b_fingerprint`
  hashes the B operand's identity (generator seed state + occupancy, or a
  concrete matrix's tile bytes); :func:`run_fingerprint` folds both with
  ``alpha`` into the run hash that namespaces every checkpointed C tile.
  Two runs share checkpoint state *iff* their run hashes match — which is
  exactly the condition under which their per-block C tiles are
  bit-identical.
* **:class:`WritebackJournal`** — one append-only JSONL file per rank
  (``journal-rank<r>.jsonl``).  A record is appended (and fsynced) only
  *after* the block's C tiles are durably in the tile store, so a record
  is a promise: "these tiles exist and are intact".  The resume path
  still re-validates every promised tile against its stored CRC —
  write-then-journal ordering plus read-time validation is what makes a
  SIGKILL at any instant recoverable.
* **coordinator snapshot** — ``coordinator.json``, atomically replaced:
  run/plan hashes, operand fingerprint, and per-rank progress.  The
  resume path refuses a checkpoint directory whose hashes disagree with
  the plan in hand (analysis rule ``P121``) instead of silently splicing
  tiles from a different contraction into the output.

Journal reads tolerate a torn final line (a rank killed mid-append), the
same policy as :func:`repro.dist.health.read_events`.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.util.jsonl import read_jsonl

#: Journal / snapshot format version, stamped into every record.
VERSION = 1

SNAPSHOT_NAME = "coordinator.json"


# ---- fingerprints ----------------------------------------------------------


def _hash_update_array(h, arr) -> None:
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def _hash_shape(h, shape) -> None:
    """Fold a :class:`~repro.sparse.shape.SparseShape` into the hash."""
    _hash_update_array(h, shape.rows.sizes)
    _hash_update_array(h, shape.cols.sizes)
    _hash_update_array(h, shape.csr.indptr)
    _hash_update_array(h, shape.csr.indices)


def plan_fingerprint(plan) -> str:
    """A stable SHA-256 over everything the plan tells workers to do.

    Built from the plan's semantic content (never ``pickle``, whose byte
    stream is an implementation detail): grid geometry, operand shapes, and each rank's block/chunk schedule.  Identical inspector
    inputs produce identical fingerprints across runs and processes.
    """
    h = hashlib.sha256(b"repro-plan-v1")
    g = plan.grid
    h.update(f"{g.p}|{g.q}|{g.gpus_per_proc}|{plan.gpu_memory_bytes}".encode())
    _hash_shape(h, plan.a_shape)
    _hash_shape(h, plan.b_shape)
    for proc in plan.procs:
        h.update(f"proc|{proc.rank}|{proc.row}|{proc.col}".encode())
        _hash_update_array(h, proc.columns)
        for block in proc.blocks:
            h.update(f"block|{block.gpu}".encode())
            _hash_update_array(h, block.columns)
            for chunk in block.chunks:
                _hash_update_array(h, chunk.a_rows)
                _hash_update_array(h, chunk.a_cols)
    return h.hexdigest()


def b_fingerprint(b) -> str:
    """A stable SHA-256 of the B operand's *values* (not its storage).

    For a :class:`~repro.runtime.data.GeneratedCollection` the values are
    fully determined by ``(fill, RNG state, occupancy)``; for a concrete
    :class:`~repro.sparse.matrix.BlockSparseMatrix` every tile's bytes are
    folded in (checkpoint-scale operands are small enough to hash).
    """
    from repro.runtime.data import GeneratedCollection, MatrixSource
    from repro.util.rng import _state_entropy

    h = hashlib.sha256(b"repro-b-v1")
    if isinstance(b, MatrixSource):
        b = b.matrix
    if isinstance(b, GeneratedCollection):
        h.update(f"generated|{b.fill}|{_state_entropy(b._rng)}".encode())
        _hash_shape(h, b.shape)
    else:  # concrete BlockSparseMatrix
        h.update(b"matrix")
        for key in sorted(b.keys()):
            h.update(str(key).encode())
            _hash_update_array(h, b.get_tile(*key))
    return h.hexdigest()


def run_fingerprint(plan_hash: str, b_hash: str, alpha: float) -> str:
    """The namespace of one run's checkpointed C tiles (v3: in-place ``dgemm``)."""
    h = hashlib.sha256(b"repro-run-v3")  # v1 and v2 tiles (older kernels) differ in roundoff
    h.update(plan_hash.encode())
    h.update(b_hash.encode())
    h.update(repr(float(alpha)).encode())
    return h.hexdigest()


# ---- the writeback journal -------------------------------------------------


def ckpt_namespace(run_hash: str) -> str:
    """The tile-store namespace of a run's checkpointed C tiles."""
    return f"ckpt:{run_hash}"


def ckpt_tile_key(rank: int, gpu: int, block: int, i: int, j: int) -> tuple:
    """The store key of one checkpointed C tile."""
    return (rank, gpu, block, i, j)


@dataclass(frozen=True)
class CompletedBlock:
    """One journaled unit of finished work (scattered to resuming ranks)."""

    rank: int
    gpu: int
    block: int
    chunks: int
    ntasks: int
    tiles: tuple  # ((i, j), ...) C-tile keys the block produced


def journal_path(ckpt_dir: str, rank: int, suffix: str = "") -> str:
    return os.path.join(ckpt_dir, f"journal-rank{rank}{suffix}.jsonl")


def _sidecar_paths(ckpt_dir: str, rank: int) -> list[str]:
    """Handoff sidecar journals (``journal-rank<r>.h<id>.jsonl``), sorted.

    Rebalancing hands a straggler's unstarted blocks to a helper, which
    journals them under the *origin's* rank but in its own sidecar file —
    two processes must never append to one journal.  Resume reads the
    main journal plus every sidecar; record contents are identical.
    """
    pattern = os.path.join(ckpt_dir, f"journal-rank{rank}.h*.jsonl")
    return sorted(glob.glob(pattern))


class WritebackJournal:
    """One rank's append-only record of durably checkpointed blocks.

    The writer appends exactly one fsynced JSON line per completed block,
    *after* the block's C tiles hit the store — so every record the reader
    accepts describes work that never needs to run again.

    ``suffix`` names a handoff sidecar (``.h<id>``): a helper executing
    blocks reclaimed from ``rank`` journals them under the origin's rank
    without sharing the origin's file handle.
    """

    def __init__(self, ckpt_dir: str, rank: int, suffix: str = ""):
        self.path = journal_path(ckpt_dir, rank, suffix)
        self.rank = rank
        os.makedirs(ckpt_dir, exist_ok=True)
        # Append mode: a retried attempt extends its predecessor's journal
        # (earlier completed blocks stay valid — same plan, same tiles).
        self._fh = open(self.path, "a", encoding="utf-8")  # repro: noqa[L308] - handle owned by the journal, closed in close()
        self.appended = 0

    def record(self, run_hash: str, completed: CompletedBlock) -> None:
        line = json.dumps({
            "v": VERSION,
            "run": run_hash,
            "rank": completed.rank,
            "gpu": completed.gpu,
            "block": completed.block,
            "chunks": completed.chunks,
            "ntasks": completed.ntasks,
            "tiles": [list(t) for t in completed.tiles],
            "t": time.time(),  # labeling only
        }, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_journal(ckpt_dir: str, rank: int, run_hash: str) -> list[CompletedBlock]:
    """Parse one rank's journal, keeping only intact records of this run.

    Tolerates a missing file, a torn final line (rank killed mid-append),
    torn multibyte characters, and records from other runs (a reused
    checkpoint directory after the operands changed — those are simply
    stale, not fatal; the run-hash namespace keeps their tiles separate).

    Handoff sidecars (``journal-rank<r>.h*.jsonl``) are folded in after
    the main journal: blocks a helper completed on the origin's behalf
    resume exactly as if the origin had journaled them itself.
    """
    out: list[CompletedBlock] = []
    paths = [journal_path(ckpt_dir, rank), *_sidecar_paths(ckpt_dir, rank)]
    for path in paths:
        try:
            records = read_jsonl(path)
        except FileNotFoundError:
            continue
        for rec in records:
            if rec.get("run") != run_hash:
                continue
            try:
                out.append(CompletedBlock(
                    rank=int(rec["rank"]),
                    gpu=int(rec["gpu"]),
                    block=int(rec["block"]),
                    chunks=int(rec.get("chunks", 0)),
                    ntasks=int(rec.get("ntasks", 0)),
                    tiles=tuple(
                        (int(i), int(j)) for i, j in rec.get("tiles", [])
                    ),
                ))
            except (KeyError, TypeError, ValueError):
                continue  # malformed record: recompute that block instead
    return out


def validated_completed_blocks(
    ckpt_dir: str, rank: int, run_hash: str, store
) -> dict[tuple[int, int], CompletedBlock]:
    """The rank's journaled blocks whose tiles all verify against the store.

    Keyed by ``(gpu, block)``.  A journal record whose tiles are missing
    or fail their CRC is dropped — the block is recomputed, which is
    always safe (the journal is an optimization, never the only copy of
    the truth until its tiles verify).  Duplicate records (a block
    completed on two attempts) collapse to the last one.
    """
    ns = ckpt_namespace(run_hash)
    out: dict[tuple[int, int], CompletedBlock] = {}
    for rec in read_journal(ckpt_dir, rank, run_hash):
        ok = all(
            store.get(ns, ckpt_tile_key(rec.rank, rec.gpu, rec.block, i, j),
                      verify=True) is not None
            for i, j in rec.tiles
        )
        if ok:
            out[(rec.gpu, rec.block)] = rec
    return out


# ---- coordinator snapshots -------------------------------------------------


def write_snapshot(ckpt_dir: str, payload: dict) -> None:
    """Atomically replace ``coordinator.json`` (write + fsync + rename)."""
    os.makedirs(ckpt_dir, exist_ok=True)
    path = os.path.join(ckpt_dir, SNAPSHOT_NAME)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_snapshot(ckpt_dir: str) -> dict | None:
    """The last coordinator snapshot, or ``None`` when absent/corrupt.

    A corrupt snapshot cannot happen under the atomic-replace discipline,
    but a hand-edited or foreign file should degrade to "no snapshot",
    not a crash (the journal is the source of truth for resume anyway).
    """
    path = os.path.join(ckpt_dir, SNAPSHOT_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        return None
    return data if isinstance(data, dict) else None
