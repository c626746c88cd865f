"""The serving layer: a persistent contraction service over a warm pool.

A one-shot call below :mod:`repro.dist` borrows a transient
:class:`~repro.dist.WorkerPool` and closes it; this package keeps the
expensive parts — worker processes and generated B tiles — alive
*across* runs.  One :class:`ContractionService` owns one
:class:`~repro.dist.WorkerPool` (spawned once, reused by every job, and
drained, reset and closed through its own methods) and a priority-FIFO
scheduler with admission control and backpressure; in-process clients
``submit`` plans and ``result`` them from any thread.  Each worker
carries a process-lifetime :class:`WarmTileCache` layered over the
persistent :class:`~repro.store.TileStore` tier, keyed by operand
fingerprint, so a job over a previously-seen B starts hot.  Each job's observability
(event log, Chrome trace, Prometheus metrics) is isolated under its own
run id.

* :mod:`~repro.serve.service` — :class:`ContractionService`, jobs,
  admission, scheduling;
* :mod:`~repro.serve.warmcache` — the cross-job B-tile cache.

CLI: ``repro serve --spec jobs.json`` submits a batch from a spec file
and renders a live queue table.
"""

from repro.serve.service import (
    MEMORY_RULES,
    AdmissionError,
    BackpressureError,
    ContractionService,
    Job,
    JobFailedError,
)
from repro.serve.warmcache import WarmTileCache

__all__ = [
    "AdmissionError",
    "BackpressureError",
    "ContractionService",
    "Job",
    "JobFailedError",
    "MEMORY_RULES",
    "WarmTileCache",
]
