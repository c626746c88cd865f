"""Communication-volume analysis (paper Section 3.2.4).

The exact volumes are data-dependent and are filled into the plan by the
inspector; this module exposes them as a report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.util.units import fmt_bytes


@dataclass(frozen=True)
class CommReport:
    """Per-process and aggregate internode communication volumes (bytes)."""

    a_recv: np.ndarray
    a_send: np.ndarray
    c_send: np.ndarray
    c_recv: np.ndarray
    b_generated: np.ndarray

    @property
    def total_a(self) -> int:
        """Total A bytes crossing the network (counted at the receiver)."""
        return int(self.a_recv.sum())

    @property
    def total_c(self) -> int:
        """Total C bytes crossing the network."""
        return int(self.c_send.sum())

    @property
    def total_b_generated(self) -> int:
        """Total B bytes generated on demand (includes replication)."""
        return int(self.b_generated.sum())

    def summary(self) -> str:
        return (
            f"A moved {fmt_bytes(self.total_a)}, C moved {fmt_bytes(self.total_c)}, "
            f"B generated {fmt_bytes(self.total_b_generated)} "
            f"(max/proc: A recv {fmt_bytes(self.a_recv.max(initial=0))}, "
            f"A send {fmt_bytes(self.a_send.max(initial=0))})"
        )


def realized_a_recv_bytes(
    link_bytes: dict[tuple[int, int], int], nranks: int
) -> dict[int, int]:
    """Per-rank A bytes actually charged to worker->worker links.

    ``link_bytes`` is :attr:`repro.dist.comm.CommStats.link_bytes`:
    ``(src, dst)`` keyed byte counts where the coordinator is ``-1``.
    Worker->worker links carry the grid-row A broadcast (and nothing
    else), so summing a rank's incoming non-coordinator traffic yields
    its realized ``a_recv_bytes`` — the measured twin of the inspector's
    :func:`~repro.core.inspector.expected_comm_volumes` prediction the
    perf audit compares against.
    """
    out = {r: 0 for r in range(nranks)}
    for (src, dst), nbytes in link_bytes.items():
        if src >= 0 and 0 <= dst < nranks:
            out[dst] += int(nbytes)
    return out


def communication_volumes(plan: ExecutionPlan) -> CommReport:
    """Collect the exact volumes the inspector computed into a report."""
    procs = plan.procs
    return CommReport(
        a_recv=np.array([p.a_recv_bytes for p in procs], dtype=np.int64),
        a_send=np.array([p.a_send_bytes for p in procs], dtype=np.int64),
        c_send=np.array([p.c_send_bytes for p in procs], dtype=np.int64),
        c_recv=np.array([p.c_recv_bytes for p in procs], dtype=np.int64),
        b_generated=np.array([p.b_gen_bytes for p in procs], dtype=np.int64),
    )
