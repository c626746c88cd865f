"""Performance attribution: critical path, roofline audit, trace diff.

The post-mortem side of the observability stack.  Where
:mod:`repro.runtime.tracing` records *what happened*, this package answers
*why the run took as long as it did*:

* :func:`attribute` — extract the critical path of a merged trace and
  charge it to the layers of :data:`LAYERS` (the repo benchmark's:
  ``dist.worker.gemm``, ``dist.coordinator.spawn``, …, ``unattributed``)
  per rank and run-wide;
* :func:`audit_run` — join measured GEMM seconds and realized comm bytes
  to the plan's roofline predictions (:class:`PerfModel`) and flag
  tasks/ranks outside a configurable band;
* :func:`diff_attributions` — align two runs of the same plan and attribute the
  makespan delta to layers/ranks;
* :func:`write_run_artifact` / :func:`read_run_artifact` — the enriched
  Chrome-trace file ``repro explain`` consumes;
* :func:`text_report` / :func:`html_report` — terminal and single-file
  HTML rendering.
"""

from repro.perf.artifact import (
    RunArtifact,
    read_run_artifact,
    write_run_artifact,
)
from repro.perf.attribution import (
    LAYERS,
    Attribution,
    PathSegment,
    attribute,
    classify,
    critical_path,
)
from repro.perf.audit import (
    COMM_BAND,
    DEFAULT_BAND,
    AuditEntry,
    RooflineAudit,
    audit_run,
    measured_gemm_seconds,
)
from repro.perf.diff import TraceDiff, diff_attributions
from repro.perf.model import (
    GemmPrediction,
    PerfModel,
    plan_task_id,
    span_task_id,
)
from repro.perf.report import html_report, text_report

__all__ = [
    "COMM_BAND",
    "DEFAULT_BAND",
    "LAYERS",
    "Attribution",
    "AuditEntry",
    "GemmPrediction",
    "PathSegment",
    "PerfModel",
    "RooflineAudit",
    "RunArtifact",
    "TraceDiff",
    "attribute",
    "audit_run",
    "classify",
    "critical_path",
    "diff_attributions",
    "html_report",
    "measured_gemm_seconds",
    "plan_task_id",
    "read_run_artifact",
    "span_task_id",
    "text_report",
    "write_run_artifact",
]
