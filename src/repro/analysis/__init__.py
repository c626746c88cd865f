"""Static analysis for plans, the source tree, and the protocol.

Three layers reporting through one uniform :class:`Finding` vocabulary
(rule id, severity, location, message) and one rule registry:

* :mod:`~repro.analysis.plan_checks` — the plan verifier: coverage,
  memory safety, and comm-consistency proofs over an
  :class:`~repro.core.plan.ExecutionPlan` (rules ``P1xx``) — the one
  verifier of the plan every executor trusts;
* :mod:`~repro.analysis.lint` — an AST concurrency lint for the hazards
  specific to this codebase: leaked shared memory, start-method-unsafe
  multiprocessing, legacy global RNG, frozen-dataclass mutation, bare
  excepts (rules ``L3xx``, suppressible with ``# repro: noqa[RULE]``;
  a stale suppression is itself flagged, ``L399``);
* :mod:`~repro.analysis.protocol` — the protocol model checker: the
  coordinator/worker state machines :mod:`repro.dist.protocol` declares
  (and the runtime dispatches on), explored exhaustively over small fault
  scopes — deadlock freedom, bounded queues, recovery/resume safety
  (rules ``M4xx``).

CLI: ``repro analyze`` (plan checks; ``--model-check``
adds the protocol layer), ``repro lint`` (source checks), and ``repro
rules`` (the generated rule catalog) — the first two exiting nonzero
exactly when findings exist.
Executors opt in via ``psgemm_distributed(..., verify_plan=True)``,
which raises :class:`PlanVerificationError` before any worker spawns.
"""

from repro.analysis.catalog import (
    check_rule_catalog,
    rule_catalog_markdown,
    write_rule_catalog,
)
from repro.analysis.findings import AnalysisReport, Finding, Location, Severity
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.plan_checks import (
    PlanVerificationError,
    assert_plan_valid,
    verify_plan,
)
from repro.analysis.protocol import (
    PROTOCOL,
    ModelCheckResult,
    ProtocolModel,
    Scenario,
    check_protocol,
    default_scenarios,
)
from repro.analysis.rules import Rule, all_rules, get_rule

__all__ = [
    "AnalysisReport",
    "Finding",
    "Location",
    "ModelCheckResult",
    "PROTOCOL",
    "PlanVerificationError",
    "ProtocolModel",
    "Rule",
    "Scenario",
    "Severity",
    "all_rules",
    "assert_plan_valid",
    "check_protocol",
    "check_rule_catalog",
    "default_scenarios",
    "get_rule",
    "rule_catalog_markdown",
    "verify_plan",
    "lint_paths",
    "lint_source",
    "write_rule_catalog",
]
