"""Protocol model checking for the distributed executor (M4xx rules).

The protocol itself — wire vocabulary, role state machines, budgets — is
declared in :mod:`repro.dist.protocol`, beside the message classes, and is
the table the runtime dispatches on; this package *runs* it:
:mod:`~repro.analysis.protocol.checker` is a bounded exhaustive search
proving deadlock freedom, bounded queues, and recovery / resume safety over
small scopes, with reproducing traces (``repro analyze --model-check``).
"""

from repro.analysis.protocol.checker import (
    FaultSpec,
    ModelCheckResult,
    Scenario,
    check_protocol,
    default_scenarios,
)
from repro.dist.protocol import PROTOCOL, ProtocolModel

__all__ = [
    "FaultSpec",
    "ModelCheckResult",
    "PROTOCOL",
    "ProtocolModel",
    "Scenario",
    "check_protocol",
    "default_scenarios",
]
