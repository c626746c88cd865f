"""Inter-node network model (alpha-beta with collective estimates)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_nonnegative, require_positive


@dataclass(frozen=True)
class NetworkModel:
    """Per-node injection-bandwidth network with alpha-beta point-to-point.

    Summit's fat tree is, at the scales used in the paper (<= 18 nodes),
    non-blocking: the binding constraint is each node's injection
    bandwidth, so collective estimates below are bandwidth-formulas plus a
    logarithmic latency term.
    """

    bandwidth: float
    latency: float = 1.5e-6

    def __post_init__(self) -> None:
        require_positive(self.bandwidth, "bandwidth")
        require_nonnegative(self.latency, "latency")

    def exchange_time(self, send_bytes: float, recv_bytes: float, nmessages: int = 1) -> float:
        """Injection-bound time for a node that sends and receives in bulk.

        Links are full duplex, so the cost is the max of the two volumes.
        """
        vol = max(float(send_bytes), float(recv_bytes))
        if vol <= 0:
            return 0.0
        return self.latency * max(1, nmessages) + vol / self.bandwidth
