"""Oracle and leak check, applied to every operation.

An operation fails when it raises or times out, when its C differs from
the serial oracle in any bit, when the task or flop count it reports
differs from the plan, or when it leaves a shared-memory segment behind.
Every failure is kept with its reason; ``failed / attempted`` is the
benchmark's ``failed_frac``.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

from repro.dist import active_segments


def shm_entries() -> frozenset[str]:
    """Names under ``/dev/shm`` (empty on hosts without it)."""
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()


def same_bits(c, oracle) -> bool:
    """Whether two block-sparse matrices hold identical tiles, bit for bit."""
    keys = sorted(c.keys())
    if keys != sorted(oracle.keys()):
        return False
    return all(np.array_equal(c.get_tile(i, j), oracle.get_tile(i, j)) for i, j in keys)


class OpChecker:
    """Counts operations attempted and failed, with the reason for each failure."""

    def __init__(self, plan):
        self._tasks = plan.total_tasks
        self._flops = plan.total_flops
        self.attempted = 0
        #: Index of the current attempt's first operation among all attempted.
        self._base = 0
        self._failed_ops: set[int] = set()
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    def _fail(self, label: str, job: int, reason: str) -> None:
        self._failed_ops.add(self._base + job)
        self.failures.append(f"{label}[{job}]: {reason}")

    def attempt(self, label: str, fn, nops: int = 1):
        """Run ``fn`` as ``nops`` operations; returns ``(result, seconds)``.

        ``result`` is ``None`` when ``fn`` raised.  The leak check brackets
        the call and is outside the measured seconds.
        """
        before = shm_entries()
        self._base = self.attempted
        self.attempted += nops
        result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # noqa: BLE001 - a failed op is a counted outcome
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
            for job in range(nops):
                self._fail(label, job, f"raised {reason}")
        seconds = time.perf_counter() - t0
        leaked = sorted((shm_entries() - before) | active_segments())
        if leaked:
            for job in range(nops):
                self._fail(label, job, f"left shared memory behind: {leaked[:3]}")
        return result, seconds

    def verify(self, label: str, results, oracle) -> None:
        """Compare the last attempt's ``(C, report)`` per job with the oracle and the plan.

        ``report`` is a ``DistReport`` or, for a serial rep, its ``NumericStats``.
        """
        for job, ((c, report), ref) in enumerate(zip(results, oracle)):
            if not same_bits(c, ref):
                self._fail(label, job, "result differs from the serial oracle")
            stats = getattr(report, "stats", report)
            if stats.ntasks != self._tasks:
                self._fail(label, job, f"{stats.ntasks} tasks, plan has {self._tasks}")
            if abs(stats.flops - self._flops) > 1e-9 * self._flops:
                self._fail(label, job, f"{stats.flops} flops, plan has {self._flops}")
