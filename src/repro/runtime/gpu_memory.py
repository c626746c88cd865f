"""GPU memory manager.

PaRSEC enforces the paper's memory strategy indirectly through control
edges; here the same invariants are enforced directly: a
:class:`GpuMemory` tracks named reservations against a capacity and raises
on overflow, and records the high-water mark so tests can assert that the
50 % block + 25 % chunk + 25 % prefetch discipline never exceeds device
memory.
"""

from __future__ import annotations

from repro.util.units import fmt_bytes


class GpuMemoryError(RuntimeError):
    """A reservation would exceed GPU memory."""


class GpuMemory:
    """Byte-granular reservation tracker for one GPU."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity_bytes)
        self._used = 0
        self._peak = 0
        self._reservations: dict[str, int] = {}

    @property
    def free(self) -> int:
        return self.capacity - self._used

    @property
    def peak(self) -> int:
        """High-water mark over the object's lifetime."""
        return self._peak

    def reserve(self, name: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``name``; raises on overflow/duplicate."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("reservation must be non-negative")
        if name in self._reservations:
            raise GpuMemoryError(f"reservation {name!r} already held")
        if self._used + nbytes > self.capacity:
            raise GpuMemoryError(
                f"reserving {fmt_bytes(nbytes)} for {name!r} exceeds capacity: "
                f"{fmt_bytes(self._used)} used of {fmt_bytes(self.capacity)}"
            )
        self._reservations[name] = nbytes
        self._used += nbytes
        self._peak = max(self._peak, self._used)

    def release(self, name: str) -> None:
        """Release the reservation ``name``."""
        try:
            nbytes = self._reservations.pop(name)
        except KeyError:
            raise GpuMemoryError(f"no reservation named {name!r}") from None
        self._used -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GpuMemory(used={fmt_bytes(self._used)}/{fmt_bytes(self.capacity)}, "
            f"peak={fmt_bytes(self._peak)})"
        )
