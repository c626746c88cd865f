"""A PaRSEC-flavoured task runtime, in miniature.

The paper executes its plan through the PaRSEC runtime: tasks connected by
a *dataflow* DAG (correctness) plus a *control-flow* DAG (performance —
forcing the scheduler to respect the block/chunk memory strategy), with
data collections that can generate tiles on demand.  Here that order is
code that runs: :func:`~repro.runtime.numeric.execute_plan` walks each
GPU's blocks and chunks in plan order under :class:`GpuMemory`'s budget,
for the serial oracle and for every rank of :mod:`repro.dist` alike.

* :mod:`~repro.runtime.data` — B tile sources: the on-demand generated
  collection, and the per-rank sources every executor pulls B through,
  with the at-most-once-per-process life-cycle;
* :mod:`~repro.runtime.gpu_memory` — a GPU memory manager enforcing the
  50/25/25 budget split;
* :mod:`~repro.runtime.numeric` — in-process *numerical* execution of an
  :class:`~repro.core.plan.ExecutionPlan`: real tiles, real GEMMs, real
  memory accounting — proving the plan computes exactly ``C + A @ B``;
* :mod:`~repro.runtime.tracing` — measured span recording, the merged
  run trace and its utilization;
* :mod:`~repro.runtime.metrics` — the run's metric series, a fold of its
  report.
"""

from repro.runtime.data import (
    BService,
    ConcreteBSource,
    DelayedGeneratedCollection,
    GeneratedCollection,
    TileSource,
)
from repro.runtime.gpu_memory import GpuMemory, GpuMemoryError
from repro.runtime.numeric import NumericStats, execute_plan
from repro.runtime.tracing import SpanRecorder, SpanStream, Trace, TraceEvent

__all__ = [
    "TileSource",
    "BService",
    "ConcreteBSource",
    "DelayedGeneratedCollection",
    "GeneratedCollection",
    "GpuMemory",
    "GpuMemoryError",
    "NumericStats",
    "execute_plan",
    "SpanRecorder",
    "SpanStream",
    "Trace",
    "TraceEvent",
]
