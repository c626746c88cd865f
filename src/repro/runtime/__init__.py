"""A PaRSEC-flavoured task runtime, in miniature.

The paper executes its plan through the PaRSEC runtime: tasks connected by
a *dataflow* DAG (correctness) plus a *control-flow* DAG (performance —
forcing the scheduler to respect the block/chunk memory strategy), with
data collections that can generate tiles on demand.  This package rebuilds
those pieces at the fidelity a simulation needs:

* :mod:`~repro.runtime.data` — B tile sources: the on-demand generated
  collection, and the per-rank sources every executor pulls B through,
  with the at-most-once-per-process life-cycle;
* :mod:`~repro.runtime.gpu_memory` — a GPU memory manager enforcing the
  50/25/25 budget split;
* :mod:`~repro.runtime.numeric` — in-process *numerical* execution of an
  :class:`~repro.core.plan.ExecutionPlan`: real tiles, real GEMMs, real
  memory accounting — proving the plan computes exactly ``C + A @ B``;
* :mod:`~repro.runtime.engine` — a discrete-event simulator that executes
  the two-DAG task graph on modelled resources (GPU streams, host links,
  core pools, NICs) for fine-grained timing of small instances;
* :mod:`~repro.runtime.dag` — builds the dataflow + control DAGs from a
  plan (the generic PTG of Section 4);
* :mod:`~repro.runtime.tracing` — execution traces and utilization.
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
from repro.runtime.engine import DiscreteEventEngine, Resource, SimTask
from repro.runtime.dag import build_task_graph
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
    "DiscreteEventEngine",
    "Resource",
    "SimTask",
    "build_task_graph",
    "SpanRecorder",
    "SpanStream",
    "Trace",
    "TraceEvent",
]
