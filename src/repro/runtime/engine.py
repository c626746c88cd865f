"""Discrete-event simulation engine.

A minimal but faithful list-scheduling simulator: tasks with dependency
edges (dataflow *and* control flow — the engine does not distinguish, just
like PaRSEC's scheduler sees one merged precedence relation) are executed
on named :class:`Resource` s with integer capacity.  A task becomes ready
when all predecessors finished; each resource runs up to ``capacity``
tasks at once, picking ready tasks by ``(priority, id)``.

The engine is deliberately generic — the plan-specific structure lives in
:mod:`repro.runtime.dag` — so tests can exercise it with hand-built graphs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.runtime.tracing import Trace
from repro.util.validation import require


@dataclass
class SimTask:
    """A simulated task.

    Attributes
    ----------
    name:
        Unique identifier.
    resource:
        Name of the resource it occupies while running.
    duration:
        Seconds of resource occupancy.
    deps:
        Names of tasks that must finish first.
    priority:
        Lower runs first among ready tasks on the same resource.
    """

    name: str
    resource: str
    duration: float
    deps: tuple[str, ...] = ()
    priority: int = 0


@dataclass
class Resource:
    """A named execution resource with integer capacity."""

    name: str
    capacity: int = 1

    def __post_init__(self) -> None:
        require(self.capacity >= 1, "capacity must be >= 1")


class DiscreteEventEngine:
    """Executes a task graph and records a :class:`Trace`."""

    def __init__(self, resources: list[Resource]):
        self.resources = {r.name: r for r in resources}
        require(len(self.resources) == len(resources), "duplicate resource names")
        self._tasks: dict[str, SimTask] = {}

    def add_task(self, task: SimTask) -> None:
        require(task.name not in self._tasks, f"duplicate task {task.name!r}")
        require(task.resource in self.resources, f"unknown resource {task.resource!r}")
        require(task.duration >= 0, "duration must be >= 0")
        self._tasks[task.name] = task

    @property
    def ntasks(self) -> int:
        return len(self._tasks)

    def tasks(self) -> dict[str, SimTask]:
        """A snapshot of the loaded tasks by name (read-only view for
        static analysis; mutating the returned dict does not affect the
        engine)."""
        return dict(self._tasks)

    def run(self) -> Trace:
        """Simulate to completion; raises on cycles or missing deps.

        The returned :class:`Trace` uses the span vocabulary
        :func:`repro.perf.attribution.classify` reads, so
        :func:`repro.runtime.metrics.histograms_of` yields the same duration
        series for a simulated run as for a measured one.
        """
        tasks = self._tasks
        indeg: dict[str, int] = {}
        succ: dict[str, list[str]] = {name: [] for name in tasks}
        for t in tasks.values():
            cnt = 0
            for d in t.deps:
                require(d in tasks, f"task {t.name!r} depends on unknown {d!r}")
                succ[d].append(t.name)
                cnt += 1
            indeg[t.name] = cnt

        ready: dict[str, list[tuple[int, int, str]]] = {r: [] for r in self.resources}
        seq = itertools.count()
        for name, t in tasks.items():
            if indeg[name] == 0:
                heapq.heappush(ready[t.resource], (t.priority, next(seq), name))

        in_flight: dict[str, int] = {r: 0 for r in self.resources}
        completions: list[tuple[float, int, str]] = []
        trace = Trace(
            capacities={name: r.capacity for name, r in self.resources.items()}
        )
        now = 0.0
        done = 0

        def launch(res_name: str) -> None:
            res = self.resources[res_name]
            q = ready[res_name]
            while q and in_flight[res_name] < res.capacity:
                _, _, name = heapq.heappop(q)
                t = tasks[name]
                in_flight[res_name] += 1
                end = now + t.duration
                heapq.heappush(completions, (end, next(seq), name))
                trace.add(name, res_name, now, end)

        for r in self.resources:
            launch(r)

        while completions:
            now, _, name = heapq.heappop(completions)
            t = tasks[name]
            in_flight[t.resource] -= 1
            done += 1
            for s in succ[name]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    st = tasks[s]
                    heapq.heappush(ready[st.resource], (st.priority, next(seq), s))
            # Drain every resource: a completion may both free a slot here
            # and ready tasks elsewhere.
            for r in self.resources:
                launch(r)

        if done != len(tasks):
            stuck = [n for n, d in indeg.items() if d > 0]
            raise ValueError(
                f"task graph has a dependency cycle; {len(stuck)} tasks never ran "
                f"(e.g. {stuck[:5]})"
            )
        return trace
