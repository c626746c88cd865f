"""Auto-generated rule catalog: the registry rendered as Markdown.

``docs/rules.md`` is generated from :mod:`repro.analysis.rules` by
``make docs-rules`` (``repro rules -o docs/rules.md``); CI regenerates
it and fails on drift (``repro rules --check docs/rules.md``), so the
committed catalog can never lag the registry.  Nothing here is written
by hand — edit the registry, regenerate.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.rules import all_rules

_HEADER = """\
# Analysis rule catalog

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with `make docs-rules` (repro rules -o docs/rules.md);
     CI fails if this file drifts from repro/analysis/rules.py. -->

Every check the `repro` analysis subsystem can report, grouped by
family.  Lint (`L3xx`) findings may be suppressed per line with
`# repro: noqa[RULE]`; the structural families (P/M) are never
suppressible, and `L399` (stale-noqa) cannot suppress itself.
"""

_FAMILIES = (
    ("P1", "P1xx — plan verifier",
     "Static checks over a fully materialized `ExecutionPlan` and the "
     "store/checkpoint pre-flight (`repro analyze`)."),
    ("L3", "L3xx — AST concurrency lint",
     "Source-level checks of the concurrency and reproducibility "
     "idioms the runtime relies on (`repro lint`)."),
    ("M4", "M4xx — protocol model checker",
     "Bounded exhaustive exploration of the coordinator/worker message "
     "protocol the runtime dispatches on (`repro analyze --model-check`)."),
)


def rule_catalog_markdown() -> str:
    """Render every registered rule as the docs/rules.md catalog."""
    lines = [_HEADER]
    rules = all_rules()
    for prefix, title, blurb in _FAMILIES:
        family = [r for r in rules if r.id.startswith(prefix)]
        if not family:
            continue
        lines.append(f"\n## {title}\n")
        lines.append(blurb + "\n")
        lines.append("| Rule | Name | Severity | Invariant |")
        lines.append("|------|------|----------|-----------|")
        for r in family:
            desc = " ".join(r.description.split())
            lines.append(f"| `{r.id}` | {r.title} | {r.severity} | {desc} |")
    covered = {r.id for prefix, *_ in _FAMILIES for r in rules
               if r.id.startswith(prefix)}
    stray = [r for r in rules if r.id not in covered]
    if stray:  # a new family was registered without a catalog section
        lines.append("\n## Other rules\n")
        lines.append("| Rule | Name | Severity | Invariant |")
        lines.append("|------|------|----------|-----------|")
        for r in stray:
            desc = " ".join(r.description.split())
            lines.append(f"| `{r.id}` | {r.title} | {r.severity} | {desc} |")
    lines.append("")
    return "\n".join(lines)


def write_rule_catalog(path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rule_catalog_markdown())
    return path


def check_rule_catalog(path: str | Path) -> bool:
    """True when the committed catalog matches the registry exactly."""
    try:
        return Path(path).read_text() == rule_catalog_markdown()
    except OSError:
        return False
