"""Shared-memory tile arenas: zero-copy tiles between processes.

A :class:`TileArena` is one ``multiprocessing.shared_memory`` segment
holding many dense float64 tiles back to back, plus a small pickle-able
index ``{key: (offset, m, n)}``.  Every run has one C output arena per
worker attempt; A and a concrete B are packed
into arenas too only on the arena plane (see
:mod:`repro.dist.coordinator`).  Workers merely attach, and read or write
through NumPy views, so no tile bytes are ever pickled through a queue.
Every arena has one owner that creates and unlinks it: the run's
coordinator (in its ``finally``, even when a run fails or a worker is
killed mid-flight), or — for the operand arenas of pooled runs, repacked in
place job after job — the :class:`~repro.dist.pool.WorkerPool`, when it is
terminated.  :func:`active_segments` lists the names the current process
has created and not yet unlinked: the leak discipline is testable.

Lifetimes: a *name* lives as long as its owner holds it; a *mapping* lives
as long as its tiles.  Views handed out by :meth:`TileArena.get` /
:meth:`TileArena.slot` belong to the attachment and dangle once
:meth:`TileArena.close` has unmapped it, so whoever closes drops them
first.  C tiles the result keeps come from :meth:`TileArena.adopt` instead:
views of a private mapping of the segment that holds no file descriptor,
survives the unlink, and is unmapped when its last tile is dropped.
"""

from __future__ import annotations

import ctypes
import itertools
import mmap
import os
import secrets
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.util.validation import require

#: Segment names created by *this* process and not yet unlinked.
_ACTIVE_SEGMENTS: set[str] = set()

#: Atomic per-process sequence (``itertools.count`` increments under the
#: GIL, so concurrent in-process jobs can never draw the same number —
#: the old ``_SEQ += 1`` read-modify-write could).
_SEQ = itertools.count(1)


def active_segments() -> frozenset[str]:
    """Shared-memory segment names this process currently owns."""
    return frozenset(_ACTIVE_SEGMENTS)


def next_segment_name(tag: str) -> str:
    """A unique segment name (``psgemm-<pid>-<seq>-<token>-<tag>``).

    Thread-safe and collision-proof: the sequence number is drawn
    atomically, and the random token guards against the one hole the
    ``(pid, seq)`` pair leaves — a recycled pid on a host where a crashed
    run's segments still linger under the old name.
    """
    return f"psgemm-{os.getpid()}-{next(_SEQ)}-{secrets.token_hex(4)}-{tag}"


TileKey = tuple[int, int]

# ``mmap.mmap`` keeps a duplicate of the descriptor it maps for as long as
# the mapping lives (no ``trackfd=False`` before Python 3.13), and
# ``SharedMemory`` adds its own: a result that adopts its tiles would pin
# two descriptors per arena.  libc's ``mmap`` needs the descriptor only
# for the call.
_libc = ctypes.CDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (
    ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
    ctypes.c_int, ctypes.c_long,
)
_libc.munmap.restype = ctypes.c_int
_libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)


def _map_segment(name: str, size: int) -> np.ndarray:
    """The float64 words of segment ``name``, mapped without a descriptor.

    The mapping is independent of any ``SharedMemory`` object and of the
    name (it survives ``unlink``); it is unmapped when the last array
    viewing it is garbage-collected.
    """
    fd = os.open(f"/dev/shm/{name}", os.O_RDWR)
    try:
        addr = _libc.mmap(
            None, size, mmap.PROT_READ | mmap.PROT_WRITE, mmap.MAP_SHARED, fd, 0
        )
    finally:
        os.close(fd)
    if addr in (None, ctypes.c_void_p(-1).value):
        err = ctypes.get_errno()
        raise OSError(err, f"mmap of {name}: {os.strerror(err)}")
    buf = (ctypes.c_ubyte * size).from_address(addr)
    # Views reference ``buf``; when the last one goes, so does the mapping.
    # Never at interpreter exit: a tile may still be read by then.
    weakref.finalize(buf, _libc.munmap, addr, size).atexit = False
    return np.frombuffer(buf, dtype=np.float64, count=size // 8)


@dataclass(frozen=True)
class ArenaMeta:
    """Everything a worker needs to attach an arena (sent in the scatter)."""

    name: str
    size: int
    index: dict[TileKey, tuple[int, int, int]] = field(default_factory=dict)


class TileArena:
    """One shared-memory segment holding many dense tiles.

    Use :meth:`pack` (create + fill from tiles), :meth:`allocate` (create
    an empty writable arena for C output), or :meth:`attach` (map an
    existing segment in a worker).  ``get`` returns zero-copy read-only
    NumPy views; ``slot`` appends a writable tile and records it in the
    index (``put`` fills one from an array).
    """

    def __init__(self, shm: shared_memory.SharedMemory, meta: ArenaMeta, owner: bool):
        self._shm = shm
        self._owner = owner
        self.name = meta.name
        self.size = meta.size
        self.index: dict[TileKey, tuple[int, int, int]] = dict(meta.index)
        self._cursor = max(
            (off + m * n * 8 for off, m, n in self.index.values()), default=0
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def pack(cls, tag: str, tiles) -> "TileArena":
        """Create a segment sized for ``tiles`` (``(key, ndarray)`` pairs)
        and copy every tile in.  If any copy fails (duplicate key, sizing
        bug) the half-filled segment is unlinked before re-raising."""
        tiles = list(tiles)
        arena = None
        try:
            arena = cls.allocate(tag, sum(arr.nbytes for _, arr in tiles))
            arena.repack(tiles)
            return arena
        except BaseException:
            if arena is not None:
                arena.unlink()
            raise

    @classmethod
    def allocate(cls, tag: str, nbytes: int) -> "TileArena":
        """Create an empty arena of capacity ``nbytes`` (at least 1 byte)."""
        name = next_segment_name(tag)
        shm = None
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(int(nbytes), 1)
            )
            _ACTIVE_SEGMENTS.add(name)
            return cls(shm, ArenaMeta(name=name, size=shm.size), owner=True)
        except BaseException:
            if shm is not None:
                shm.close()
                shm.unlink()
            _ACTIVE_SEGMENTS.discard(name)
            raise

    @classmethod
    def attach(cls, meta: ArenaMeta) -> "TileArena":
        """Map an existing segment (worker side)."""
        # Note on the resource tracker: attaching re-registers the name
        # (bpo-38119), but workers share the coordinator's tracker process
        # and its cache is a set, so the re-registration is a no-op and the
        # coordinator's unlink deregisters exactly once.  Unregistering here
        # would instead race the coordinator and double-remove.
        shm = None
        try:
            shm = shared_memory.SharedMemory(name=meta.name)
            return cls(shm, meta, owner=False)
        except BaseException:
            if shm is not None:
                shm.close()
            raise

    # -- access --------------------------------------------------------------

    def meta(self) -> ArenaMeta:
        """The pickle-able attachment metadata (current index snapshot)."""
        return ArenaMeta(name=self.name, size=self.size, index=dict(self.index))

    def _view(self, entry: tuple[int, int, int]) -> np.ndarray:
        off, m, n = entry
        return np.ndarray((m, n), dtype=np.float64, buffer=self._shm.buf, offset=off)

    def get(self, key: TileKey) -> np.ndarray:
        """Zero-copy read-only view of a stored tile."""
        view = self._view(self.index[key])
        view.flags.writeable = False
        return view

    def slot(self, key: TileKey, m: int, n: int) -> np.ndarray:
        """Append an ``(m, n)`` tile under ``key``; returns its writable view
        (contents undefined until written)."""
        if key in self.index:  # formatted only on failure: once per C tile
            raise ValueError(f"tile {key} already stored")
        off = self._cursor
        end = off + m * n * 8
        if end > self.size:
            raise ValueError(f"arena {self.name} overflow: {end} > {self.size}")
        self.index[key] = entry = (off, m, n)
        self._cursor = end
        return self._view(entry)

    def put(self, key: TileKey, arr: np.ndarray) -> tuple[int, int, int]:
        """Append a copy of ``arr`` under ``key``; returns the entry."""
        self.slot(key, *arr.shape)[...] = arr
        return self.index[key]

    def repack(self, tiles) -> None:
        """Replace the contents with ``tiles``: same name, same mapping, pages
        already touched.  Too large a packing is refused, nothing overwritten."""
        tiles = list(tiles)
        total = sum(arr.nbytes for _, arr in tiles)
        require(total <= self.size, f"arena {self.name} cannot hold {total} B")
        self.index.clear()
        self._cursor = 0
        for key, arr in tiles:
            self.put(key, arr)

    def adopt(self, index: dict[TileKey, tuple[int, int, int]]) -> dict[TileKey, np.ndarray]:
        """Take over the tiles a worker appended through its own attachment
        and reported: :attr:`used_bytes` now counts them, and the returned
        writable views belong to the caller — they sit on a mapping of their
        own (:func:`_map_segment`) that outlives :meth:`unlink`."""
        self.index.update(index)
        self._cursor = max(
            [self._cursor, *(off + m * n * 8 for off, m, n in index.values())]
        )
        if not index:
            return {}
        words = _map_segment(self.name, self.size)
        return {
            key: words[off // 8 : off // 8 + m * n].reshape(m, n)
            for key, (off, m, n) in index.items()
        }

    def read(self, entry: tuple[int, int, int]) -> np.ndarray:
        """An *owning copy* of the tile at an index entry."""
        return np.array(self._view(entry))

    def __contains__(self, key: TileKey) -> bool:
        return key in self.index

    @property
    def used_bytes(self) -> int:
        """Bytes of tile data currently stored (<= ``size``)."""
        return self._cursor

    # -- life-cycle ----------------------------------------------------------

    def close(self) -> None:
        """Unmap this attachment (workers; coordinator before unlink); views
        from :meth:`get` / :meth:`slot` must be gone by now."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (coordinator only); idempotent."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _ACTIVE_SEGMENTS.discard(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TileArena({self.name}, {len(self.index)} tiles, {self.size} B)"
