"""A bounded memo keyed by object identity."""

from __future__ import annotations

import threading


class IdentityMemo:
    """Values computed once per *object*, for the last ``maxsize`` objects.

    For what is derived from an object its callers treat as immutable but
    that cannot be a dict key (an ``ExecutionPlan`` is a mutable dataclass):
    a pool's jobs resubmit the very plan object they ran before.  An entry
    holds its object, so the id cannot be reused while the entry lives; the
    oldest entry goes first.  ``compute`` runs outside the lock, so two
    threads racing on a new object may both compute (and agree).
    """

    def __init__(self, maxsize: int = 8):
        self._maxsize = maxsize
        self._entries: dict[int, tuple[object, object]] = {}
        self._lock = threading.Lock()

    def get(self, obj, compute):
        """``compute(obj)``, remembered."""
        with self._lock:
            hit = self._entries.get(id(obj))
        if hit is not None:
            return hit[1]
        value = compute(obj)
        with self._lock:
            while len(self._entries) >= self._maxsize:
                del self._entries[next(iter(self._entries))]
            self._entries[id(obj)] = (obj, value)
        return value
