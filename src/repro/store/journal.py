"""Crash-consistent checkpointing: fingerprints, block files, snapshot.

Three pieces turn a checkpoint directory into a resumable run:

* **fingerprints** — :func:`plan_fingerprint` hashes everything an
  :class:`~repro.core.plan.ExecutionPlan` makes a worker do (grid,
  shapes, per-block column/chunk arrays); :func:`b_fingerprint` hashes the
  B operand's identity (generator seed state + occupancy, or a concrete
  matrix's tile bytes) and :func:`a_fingerprint` A's tile bytes;
  :func:`run_fingerprint` folds all three with ``alpha`` into the run hash
  that names the directory of the run's committed blocks.  Two runs share
  checkpoint state *iff* their run hashes match — which is exactly the
  condition under which their per-block C tiles are bit-identical.
* **block files** — ``blocks/<run hash>/r<rank>.g<gpu>.b<block>.blk``,
  one per finished block: its C tiles as :mod:`repro.store.codec`
  objects, back to back, each with its CRC (:func:`commit_block`).  The
  file is fsynced before it is renamed into place, so a file under its
  final name is a block that never needs to run again; the resume path
  still reads every one back whole and CRC-clean (:func:`read_block`)
  before it trusts it.  A block a rebalancing helper ran is committed
  under its origin rank's name.
* **coordinator snapshot** — ``coordinator.json``, atomically replaced:
  the run's plan, operand and run hashes.  The resume path refuses a
  checkpoint directory whose plan hash disagrees with the plan in hand
  (analysis rule ``P121``) instead of silently splicing tiles from a
  different contraction into the output.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re

import numpy as np

from repro.store.codec import CodecError, decode_tile, encode_tile, write_synced

#: Snapshot format version.
VERSION = 1

SNAPSHOT_NAME = "coordinator.json"


# ---- fingerprints ----------------------------------------------------------


def _hash_update_array(h, arr) -> None:
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a)  # the array's own buffer: the same bytes as ``a.tobytes()``


def _hash_matrix(h, m) -> None:
    """Fold a concrete matrix's tiles, in key order, into the hash."""
    h.update(b"matrix")
    for key in sorted(m.keys()):
        h.update(str(key).encode())
        _hash_update_array(h, m.get_tile(*key))


def _hash_shape(h, shape) -> None:
    """Fold a :class:`~repro.sparse.shape.SparseShape` into the hash."""
    _hash_update_array(h, shape.rows.sizes)
    _hash_update_array(h, shape.cols.sizes)
    _hash_update_array(h, shape.csr.indptr)
    _hash_update_array(h, shape.csr.indices)


def plan_fingerprint(plan) -> str:
    """A stable SHA-256 over everything the plan tells workers to do.

    Built from the plan's semantic content (never ``pickle``, whose byte
    stream is an implementation detail): grid geometry, operand shapes,
    and each rank's block/chunk schedule.  Identical inspector
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
        _hash_matrix(h, b)
    return h.hexdigest()


def a_fingerprint(a) -> str:
    """A stable SHA-256 of the A operand's tile bytes."""
    h = hashlib.sha256(b"repro-a-v1")
    _hash_matrix(h, a)
    return h.hexdigest()


def run_fingerprint(plan_hash: str, a_hash: str, b_hash: str, alpha: float) -> str:
    """The name of one run's block-file directory (v4: A is part of it)."""
    # v1 and v2 tiles (older kernels) differ in roundoff; v3 left A out.
    h = hashlib.sha256(b"repro-run-v4")
    h.update(plan_hash.encode())
    h.update(a_hash.encode())
    h.update(b_hash.encode())
    h.update(repr(float(alpha)).encode())
    return h.hexdigest()


# ---- block files -----------------------------------------------------------

#: ``r<rank>.g<gpu>.b<block>.blk``: one committed block.
_BLOCK_NAME = re.compile(r"r(\d+)\.g(\d+)\.b(\d+)\.blk")


def block_path(ckpt_dir: str, run_hash: str, rank, gpu, block) -> str:
    """Where one run's committed block lives (``"*"`` parts make a glob)."""
    return os.path.join(ckpt_dir, "blocks", run_hash, f"r{rank}.g{gpu}.b{block}.blk")


def commit_block(ckpt_dir: str, run_hash: str, rank: int, gpu: int, block: int,
                 tiles: dict) -> None:
    """Commit one finished block: its C tiles as codec objects, back to back.

    Each object is namespaced by the run hash and keyed ``(rank, gpu,
    block, i, j, left)``, ``left`` counting the tiles after it down to 0,
    so a reader knows the file is whole.  The file is fsynced under a
    temporary name, renamed into place, then its directory fsynced: the
    rename records the block done, and a kill before it leaves only a
    ``*.tmp`` file.  A block committed twice (a retried rank, a helper)
    is rewritten with the same bytes.
    """
    path = block_path(ckpt_dir, run_hash, rank, gpu, block)
    folder = os.path.dirname(path)
    os.makedirs(folder, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    keys = sorted(tiles)
    write_synced(tmp, [
        buf
        for n, (i, j) in enumerate(keys)
        for buf in encode_tile(
            run_hash, (rank, gpu, block, i, j, len(keys) - 1 - n), tiles[(i, j)]
        )
    ])
    os.replace(tmp, path)
    fd = os.open(folder, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_block(ckpt_dir: str, run_hash: str, rank: int, gpu: int,
               block: int) -> dict | None:
    """A committed block's C tiles by ``(i, j)``, or ``None`` unless its
    file is there, whole, CRC-clean and this run's block of that name."""
    try:
        with open(block_path(ckpt_dir, run_hash, rank, gpu, block), "rb") as fh:
            buf = memoryview(fh.read())
    except FileNotFoundError:
        return None
    tiles: dict = {}
    off, left = 0, -1
    try:
        while off < len(buf):
            header, arr = decode_tile(buf[off:])
            *where, i, j, after = header["key"]
            if (header["ns"] != run_hash or tuple(where) != (rank, gpu, block)
                    or (tiles and after != left - 1)):
                return None
            tiles[(i, j)] = arr
            left = after
            off += header["header_size"] + header["payload_bytes"]
    except (CodecError, TypeError, ValueError):
        return None
    return tiles if left == 0 else None


def completed_blocks(ckpt_dir: str, run_hash: str, rank: int) -> tuple:
    """``rank``'s committed blocks of this run that read back intact, as
    sorted ``(gpu, block)`` positions; a damaged file is recomputed."""
    out = []
    for path in glob.glob(block_path(ckpt_dir, run_hash, rank, "*", "*")):
        m = _BLOCK_NAME.fullmatch(os.path.basename(path))
        pos = (int(m[2]), int(m[3])) if m else None
        if pos and read_block(ckpt_dir, run_hash, rank, *pos) is not None:
            out.append(pos)
    return tuple(sorted(out))


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
    not a crash (the block files are what a resume restores anyway).
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
