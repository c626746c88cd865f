"""A real multi-process distributed executor for execution plans.

The rest of the repository *models* the paper's distributed runtime; this
package *runs* it: one Python worker process per planned rank, shared-
memory tile arenas for zero-copy A/B/C traffic, a message fabric with
per-link byte counters mirroring :mod:`repro.core.comm_model`, an
on-demand per-rank B service with an LRU byte budget, operands read in
place by forked workers, and a coordinator with fault recovery
(retry-once-then-reassign).  The serial executor
(:func:`repro.runtime.numeric.execute_plan`) is the bit-for-bit crosscheck
oracle: same plan, same seeds, identical C.

* :mod:`~repro.dist.tile_store` — shared-memory tile arenas + leak registry;
* :mod:`~repro.dist.comm` — coordinator/worker queues, per-link byte counts;
* :mod:`~repro.dist.protocol` — the protocol declared once: what endpoints
  enforce, the coordinator dispatches on and the model checker explores;
* :mod:`~repro.dist.bservice` — per-rank on-demand B generation under an
  LRU budget (:class:`~repro.runtime.gpu_memory.GpuMemory` semantics);
* :mod:`~repro.dist.worker` — the per-rank process and its fault hooks;
* :mod:`~repro.dist.coordinator` — scatter / supervise / reduce / clean up;
* :mod:`~repro.dist.pool` — a warm worker pool the coordinator can borrow,
  so the serving layer (:mod:`repro.serve`) reuses processes across runs;
* :mod:`~repro.dist.faults` — kill/delay/stall fault plans for recovery tests;
* :mod:`~repro.dist.health` — live heartbeats, stall/straggler detection,
  and the structured run-event log ``repro monitor`` attaches to.

When ``rebalance=True`` the coordinator also *acts* on stragglers: a
flagged rank is asked to relinquish its unstarted blocks at the next
block boundary, and the yielded work is handed off to a finished rank
(or the coordinator's inline spare) while staying bit-identical to the
serial oracle and checkpoint-safe (a handed-off block's file is
committed under the origin rank's name).
"""

from repro.dist.bservice import BService, ConcreteBSource, TieredBStore, validate_b_budget
from repro.dist.comm import (
    COORDINATOR,
    CommLayer,
    CommStats,
    Endpoint,
    HandoffMsg,
    RelinquishMsg,
    ScatterMsg,
)
from repro.dist.coordinator import DistExecutionError, DistReport, execute_plan_distributed
from repro.dist.faults import FaultInjection, FaultPlan
from repro.dist.health import (
    EventLog,
    HeartbeatMsg,
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
    "HandoffMsg",
    "HeartbeatMsg",
    "RankHealth",
    "RelinquishMsg",
    "RunHealth",
    "ScatterMsg",
    "TieredBStore",
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
