"""Uniform finding records for every analyzer layer.

All three analysis layers — the plan verifier, the AST lint, and the
protocol model checker — report through the same vocabulary: a :class:`Finding`
carries the rule id (see :mod:`repro.analysis.rules`), a severity, a
:class:`Location` (a file/line for lint, a plan path such as
``rank 3 / block 1 / chunk 0`` for the structural checks), and a message.
An :class:`AnalysisReport` aggregates findings and renders them in the
CI-friendly one-line-per-finding format the ``repro analyze`` / ``repro
lint`` subcommands print.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where a finding points: a source position and/or a plan path.

    Attributes
    ----------
    file:
        Source file (lint findings).
    line:
        1-based source line (lint findings).
    obj:
        Structural path inside the analyzed object, e.g.
        ``rank 3 / gpu 1 / block 2 / chunk 0`` or ``grid row 0``.
    """

    file: str | None = None
    line: int | None = None
    obj: str | None = None

    def __str__(self) -> str:
        parts = []
        if self.file is not None:
            parts.append(self.file if self.line is None else f"{self.file}:{self.line}")
        if self.obj is not None:
            parts.append(self.obj)
        return " ".join(parts) if parts else "<unknown>"


@dataclass(frozen=True)
class Finding:
    """One rule violation found by an analyzer."""

    rule: str
    severity: Severity
    location: Location
    message: str

    def render(self) -> str:
        return f"{self.location}: {self.severity} [{self.rule}] {self.message}"


@dataclass
class AnalysisReport:
    """An ordered collection of findings from one or more analyzers.

    ``files_scanned`` counts the source files an AST pass actually
    parsed — an empty report is only a clean bill of health when it is
    nonzero (``repro lint`` warns explicitly on a glob matching nothing).
    """

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    def add(
        self,
        rule: str,
        message: str,
        *,
        file: str | None = None,
        line: int | None = None,
        obj: str | None = None,
        severity: Severity | None = None,
    ) -> Finding:
        """Record a finding for ``rule`` (severity defaults to the rule's)."""
        from repro.analysis.rules import get_rule  # late: avoid import cycle

        f = Finding(
            rule=rule,
            severity=severity if severity is not None else get_rule(rule).severity,
            location=Location(file=file, line=line, obj=obj),
            message=message,
        )
        self.findings.append(f)
        return f

    def extend(self, other: "AnalysisReport") -> "AnalysisReport":
        self.findings.extend(other.findings)
        self.files_scanned += other.files_scanned
        return self

    @property
    def ok(self) -> bool:
        """True when no findings were recorded at all."""
        return not self.findings

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def rules_fired(self) -> set[str]:
        return {f.rule for f in self.findings}

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    def exit_code(self) -> int:
        """CI contract: nonzero exactly when findings exist."""
        return 0 if self.ok else 1

    def render(self) -> str:
        """One line per finding plus a trailing count summary."""
        lines = [f.render() for f in self.findings]
        n = len(self.findings)
        ne = len(self.errors())
        lines.append(
            "no findings"
            if n == 0
            else f"{n} finding(s): {ne} error(s), {n - ne} other(s)"
        )
        return "\n".join(lines)
