"""The on-disk, content-addressed tile store.

A :class:`TileStore` persists B tiles across process *and* run boundaries:
the second cache tier behind the per-rank B-service LRU (a checkpoint's C
tiles are block files, :mod:`repro.store.journal`).  Layout::

    objects/ab/abcdef...tile   one codec-encoded tile per file
    stats.jsonl                one session-counter record per closed session

Properties the distributed executor leans on:

* **content addressing** — an object's file name is the SHA-256 of its
  logical identity ``(namespace, key)``.  Namespaces fold in the operand
  fingerprint (B generator seed/shape), so two runs over identical inputs
  share bytes and two runs over different inputs can never collide;
* **crash consistency** — objects are written to a temporary file in the
  same directory, fsynced, then :func:`os.replace`\\ d into place.  A
  reader sees either nothing or a complete object, never a torn one; the
  codec CRC catches anything the filesystem still manages to mangle;
* **zero-copy reads** — objects are memory-mapped and handed out as
  read-only NumPy views (the store keeps the maps alive until
  :meth:`close`);
* **size-bounded GC** — :meth:`gc` evicts least-recently-used objects
  (access bumps an object's mtime) until the store fits a byte budget;
* **concurrent writers** — many ranks on one filesystem can put the same
  object simultaneously: each writes its own temp file and the last
  ``os.replace`` wins with identical bytes.  A stats append is a single
  short write in append mode (atomic on POSIX for one line).

The store is deliberately dependency-free: stdlib ``mmap`` and
NumPy only.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.store.codec import (
    CodecError,
    decode_tile,
    encode_tile,
    map_tile,
    read_header,
    write_synced,
)
from repro.util.jsonl import read_jsonl

_OBJ_SUFFIX = ".tile"
_TMP_SUFFIX = ".tmp"

#: Temp files younger than this are presumed to belong to a live writer in
#: another process and are left alone by :meth:`TileStore.scan`'s sweep.
_TMP_SWEEP_SECONDS = 60.0


def object_digest(ns: str, key) -> str:
    """The content address of a tile: SHA-256 over ``(namespace, key)``."""
    ident = json.dumps([ns, list(key)], sort_keys=True).encode("utf-8")
    return hashlib.sha256(ident).hexdigest()


@dataclass
class StoreStats:
    """One store session's counters plus the on-disk totals."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    objects: int = 0
    disk_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """The session counters, as one ``stats.jsonl`` record carries them."""
        return {
            "hits": self.hits, "misses": self.misses, "puts": self.puts,
            "evictions": self.evictions, "corrupt": self.corrupt,
            "bytes_written": self.bytes_written, "bytes_read": self.bytes_read,
        }


@dataclass
class ObjectInfo:
    """One on-disk object, as :meth:`TileStore.scan` reports it."""

    digest: str
    path: str
    nbytes: int
    mtime: float


class TileStore:
    """A persistent tile store rooted at one directory (created on demand)."""

    def __init__(self, root: str):
        self.root = root
        self._objects_dir = os.path.join(root, "objects")
        os.makedirs(self._objects_dir, exist_ok=True)
        self._maps: list[mmap.mmap] = []
        self._session = StoreStats()  # objects / disk_bytes filled by stats()
        self._closed = False

    # -- paths ---------------------------------------------------------------

    def _path(self, digest: str) -> str:
        return os.path.join(self._objects_dir, digest[:2], digest + _OBJ_SUFFIX)

    @property
    def stats_path(self) -> str:
        return os.path.join(self.root, "stats.jsonl")

    # -- write ---------------------------------------------------------------

    def put(self, ns: str, key, arr: np.ndarray) -> bool:
        """Store one tile; returns ``False`` if it was already present.

        Atomic: the object is written next to its final path and renamed
        in, so a killed writer leaves at most a ``*.tmp`` file (swept by
        :meth:`gc`) and never a torn object.
        """
        digest = object_digest(ns, key)
        path = self._path(digest)
        if os.path.exists(path):
            return False
        blob = encode_tile(ns, key, arr)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}{_TMP_SUFFIX}"
        write_synced(tmp, blob)
        try:
            os.replace(tmp, path)
        except FileNotFoundError:
            # Another process's sweep mistook our in-flight temp file for a
            # dead writer's leftover (possible when a writer outlives
            # _TMP_SWEEP_SECONDS).  The content is deterministic, so just
            # write it again; second loss in a row means something is
            # actually deleting our files.
            write_synced(tmp, blob)
            os.replace(tmp, path)
        self._session.puts += 1
        self._session.bytes_written += len(blob[0]) + blob[1].nbytes
        return True

    # -- read ----------------------------------------------------------------

    def get(self, ns: str, key, *, verify: bool = False) -> np.ndarray | None:
        """Fetch a tile, or ``None`` when absent (or corrupt).

        Objects come back as zero-copy read-only views over a private
        memory map the store keeps open until :meth:`close`; ``verify=True``
        reads decode a fresh array.  A corrupt object is counted, treated
        as a miss, and left in place for post-mortems (GC will age it out).
        """
        path = self._path(object_digest(ns, key))
        try:
            mm = self._open_map(path)
        except CodecError:  # zero-length file: torn beyond recognition
            self._corrupt()
            return None
        if mm is None:
            self._session.misses += 1
            return None
        try:
            if verify:
                with memoryview(mm) as view:
                    _, arr = decode_tile(view)
                mm.close()  # decode copied the payload; the map can go
            else:
                header = read_header(mm)
                end = header["header_size"] + header["payload_bytes"]
                if len(mm) < end:
                    raise CodecError("object truncated")
                arr = map_tile(header, mm)
                self._maps.append(mm)  # must outlive the view
        except CodecError:
            mm.close()
            self._corrupt()
            return None
        self._session.hits += 1
        self._session.bytes_read += arr.nbytes
        self._touch(path)
        return arr

    @staticmethod
    def _open_map(path: str) -> mmap.mmap | None:
        """Map one object read-only; ``None`` when absent.

        The file handle is released immediately — the mapping survives it
        (POSIX mmap semantics) and its life-cycle belongs to the caller.
        Raises :class:`CodecError` for a zero-length (torn) file.
        """
        try:
            with open(path, "rb") as fh:
                try:
                    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except ValueError:
                    raise CodecError("zero-length object file") from None
        except FileNotFoundError:
            return None

    def _corrupt(self) -> None:
        self._session.corrupt += 1
        self._session.misses += 1

    @staticmethod
    def _touch(path: str) -> None:
        """Bump the object's recency (mtime is the LRU clock)."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - raced against an eviction
            pass

    # -- scan / GC -----------------------------------------------------------

    def scan(self) -> list[ObjectInfo]:
        """Every object on disk, oldest (least recently used) first."""
        out: list[ObjectInfo] = []
        for sub in sorted(os.listdir(self._objects_dir)):
            subdir = os.path.join(self._objects_dir, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                path = os.path.join(subdir, name)
                if not name.endswith(_OBJ_SUFFIX):
                    if name.endswith(_TMP_SUFFIX):
                        # A temp file is a dead writer's leftover only once
                        # it has gone stale: other ranks write (and rename
                        # away) their temps within moments, and sweeping a
                        # *live* writer's temp would fail its rename.
                        try:
                            stale = (
                                time.time() - os.stat(path).st_mtime
                                > _TMP_SWEEP_SECONDS
                            )
                        except FileNotFoundError:
                            stale = False  # renamed into place mid-scan
                        if stale:
                            _remove_quietly(path)
                    continue
                try:
                    st = os.stat(path)
                except FileNotFoundError:  # pragma: no cover - concurrent GC
                    continue
                out.append(ObjectInfo(
                    digest=name[:-len(_OBJ_SUFFIX)], path=path,
                    nbytes=st.st_size, mtime=st.st_mtime,
                ))
        out.sort(key=lambda o: (o.mtime, o.digest))
        return out

    def gc(self, budget_bytes: int) -> tuple[int, int]:
        """Evict LRU objects until the store fits; returns ``(n, bytes)``."""
        objs = self.scan()
        total = sum(o.nbytes for o in objs)
        evicted = freed = 0
        for obj in objs:
            if total <= budget_bytes:
                break
            _remove_quietly(obj.path)
            total -= obj.nbytes
            freed += obj.nbytes
            evicted += 1
            self._session.evictions += 1
        return evicted, freed

    # -- stats / life-cycle --------------------------------------------------

    def stats(self) -> StoreStats:
        """This session's counters plus the current on-disk totals."""
        objs = self.scan()
        return replace(
            self._session, objects=len(objs),
            disk_bytes=sum(o.nbytes for o in objs),
        )

    def close(self) -> None:
        """Flush session counters to ``stats.jsonl`` and drop every map.

        Idempotent; a session with no activity appends nothing.  Maps
        still referenced by live views are left open (closing them would
        invalidate the views) — they die with the process.
        """
        if not self._closed:
            s = self._session
            if s.hits or s.misses or s.puts or s.evictions:
                record = {"t": time.time(), **s.as_dict()}
                with open(self.stats_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._closed = True
        kept: list[mmap.mmap] = []
        for mm in self._maps:
            try:
                mm.close()
            except BufferError:  # a zero-copy view is still alive
                kept.append(mm)
        self._maps = kept


def read_store_stats(root: str) -> StoreStats:
    """Aggregate every recorded session of a store plus its disk state.

    This is what ``repro store stats`` renders: cumulative hit/miss/put
    counters across all runs that used the store (each session appends one
    record on close) and the current object count and byte total.  Torn
    trailing records — a killed run — are skipped, same policy as the
    run-event log.
    """
    total = StoreStats()
    stats_path = os.path.join(root, "stats.jsonl")
    if os.path.exists(stats_path):
        for rec in read_jsonl(stats_path):
            for name in total.as_dict():
                setattr(total, name, getattr(total, name) + int(rec.get(name, 0)))
    if os.path.isdir(os.path.join(root, "objects")):
        store = TileStore(root)
        try:
            objs = store.scan()
            total.objects = len(objs)
            total.disk_bytes = sum(o.nbytes for o in objs)
        finally:
            store.close()
    return total


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:  # pragma: no cover - raced with another GC
        pass
