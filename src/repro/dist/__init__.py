"""A real multi-process distributed executor for execution plans.

The rest of the repository *models* the paper's distributed runtime; this
package *runs* it: one Python worker process per planned rank, shared-
memory tile arenas for zero-copy A/B/C traffic, a message fabric with
per-link byte counters mirroring :mod:`repro.core.comm_model`, the
per-rank B sources of :mod:`repro.runtime.data` (re-exported here),
operands read in place by forked workers, and a coordinator with fault
recovery (retry-once-then-reassign).  The serial executor
(:func:`repro.runtime.numeric.execute_plan`) is the bit-for-bit crosscheck
oracle: same plan, same seeds, identical C.

* :mod:`~repro.dist.tile_store` — shared-memory tile arenas + leak registry;
* :mod:`~repro.dist.comm` — coordinator/worker queues, per-link byte counts;
* :mod:`~repro.dist.protocol` — the protocol declared once: what endpoints
  enforce, the coordinator dispatches on and the model checker explores;
* :mod:`~repro.dist.worker` — the per-rank process and its fault hooks;
* :mod:`~repro.dist.coordinator` — scatter / supervise / reduce / clean up;
* :mod:`~repro.dist.pool` — the one owner of worker processes and their
  comm layer: a one-shot run borrows a transient pool, the serving layer
  (:mod:`repro.serve`) keeps one warm across runs;
* :mod:`~repro.dist.faults` — kill/delay/stall fault plans for recovery tests;
* :mod:`~repro.dist.health` — live heartbeats, stall detection, and the
  structured run-event log ``repro monitor`` attaches to.

The executor is static, as the paper's is: every block runs on the rank
the inspector gave it.  A stalled or crashed rank is recovered (retried,
then reassigned whole); a slow rank keeps its blocks, and the audit of
``repro explain`` names it from the run's trace.
"""

from repro.dist.comm import (
    COORDINATOR,
    CommLayer,
    CommStats,
    Endpoint,
    HeartbeatMsg,
    ScatterMsg,
)
from repro.dist.coordinator import DistExecutionError, DistReport, execute_plan_distributed
from repro.dist.faults import FaultInjection, FaultPlan
from repro.dist.health import (
    EventLog,
    RankHealth,
    RunHealth,
    read_events,
    replay_health,
    resolve_events_path,
    run_scoped_events_path,
)
from repro.dist.pool import WorkerPool
from repro.dist.tile_store import ArenaMeta, TileArena, active_segments
from repro.dist.worker import WorkerReport
from repro.runtime.data import BService, ConcreteBSource, validate_b_budget

__all__ = [
    "ArenaMeta",
    "BService",
    "COORDINATOR",
    "CommLayer",
    "CommStats",
    "ConcreteBSource",
    "DistExecutionError",
    "DistReport",
    "Endpoint",
    "EventLog",
    "FaultInjection",
    "FaultPlan",
    "HeartbeatMsg",
    "RankHealth",
    "RunHealth",
    "ScatterMsg",
    "TileArena",
    "WorkerPool",
    "WorkerReport",
    "active_segments",
    "execute_plan_distributed",
    "read_events",
    "replay_health",
    "resolve_events_path",
    "run_scoped_events_path",
    "validate_b_budget",
]
