"""Queries on an :class:`~repro.analysis.findings.AnalysisReport` that only
the tests ask: which rules fired, and the findings of one rule."""


def rules_fired(report) -> set[str]:
    return {f.rule for f in report.findings}


def by_rule(report, rule: str) -> list:
    return [f for f in report.findings if f.rule == rule]
