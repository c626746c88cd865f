"""Tests for the discrete-event engine with hand-built task graphs."""

import pytest

from repro.runtime import DiscreteEventEngine, Resource, SimTask


def add_tasks(e, tasks):
    for t in tasks:
        e.add_task(t)


def engine(*resources):
    return DiscreteEventEngine([Resource(*r) if isinstance(r, tuple) else Resource(r) for r in resources])


class TestEngine:
    def test_serial_chain(self):
        e = engine("r")
        add_tasks(e, 
            [
                SimTask("a", "r", 1.0),
                SimTask("b", "r", 2.0, deps=("a",)),
                SimTask("c", "r", 3.0, deps=("b",)),
            ]
        )
        trace = e.run()
        assert trace.makespan == pytest.approx(6.0)
        assert [ev.task for ev in trace.events] == ["a", "b", "c"]

    def test_parallel_on_capacity(self):
        e = engine(("pool", 2))
        add_tasks(e, [SimTask(f"t{i}", "pool", 1.0) for i in range(4)])
        trace = e.run()
        assert trace.makespan == pytest.approx(2.0)

    def test_capacity_one_serializes(self):
        e = engine("r")
        add_tasks(e, [SimTask(f"t{i}", "r", 1.0) for i in range(4)])
        assert e.run().makespan == pytest.approx(4.0)

    def test_independent_resources_overlap(self):
        e = engine("x", "y")
        add_tasks(e, [SimTask("a", "x", 5.0), SimTask("b", "y", 3.0)])
        assert e.run().makespan == pytest.approx(5.0)

    def test_cross_resource_dependency(self):
        e = engine("link", "comp")
        add_tasks(e, 
            [
                SimTask("load", "link", 1.0),
                SimTask("gemm", "comp", 2.0, deps=("load",)),
                SimTask("load2", "link", 1.0),  # overlaps gemm
                SimTask("gemm2", "comp", 2.0, deps=("load2", "gemm")),
            ]
        )
        # load(0-1), gemm(1-3) || load2(1-2), gemm2(3-5).
        assert e.run().makespan == pytest.approx(5.0)

    def test_priority_order_within_resource(self):
        e = engine("r")
        add_tasks(e, 
            [
                SimTask("low", "r", 1.0, priority=5),
                SimTask("high", "r", 1.0, priority=0),
            ]
        )
        trace = e.run()
        assert trace.events[0].task == "high"

    def test_diamond_dependencies(self):
        e = engine(("pool", 4))
        add_tasks(e, 
            [
                SimTask("src", "pool", 1.0),
                SimTask("l", "pool", 2.0, deps=("src",)),
                SimTask("r", "pool", 3.0, deps=("src",)),
                SimTask("sink", "pool", 1.0, deps=("l", "r")),
            ]
        )
        assert e.run().makespan == pytest.approx(5.0)

    def test_cycle_detection(self):
        e = engine("r")
        add_tasks(e, 
            [
                SimTask("a", "r", 1.0, deps=("b",)),
                SimTask("b", "r", 1.0, deps=("a",)),
            ]
        )
        with pytest.raises(ValueError, match="cycle"):
            e.run()

    def test_unknown_dependency(self):
        e = engine("r")
        e.add_task(SimTask("a", "r", 1.0, deps=("ghost",)))
        with pytest.raises(ValueError, match="unknown"):
            e.run()

    def test_duplicate_task_rejected(self):
        e = engine("r")
        e.add_task(SimTask("a", "r", 1.0))
        with pytest.raises(ValueError):
            e.add_task(SimTask("a", "r", 1.0))

    def test_unknown_resource_rejected(self):
        e = engine("r")
        with pytest.raises(ValueError):
            e.add_task(SimTask("a", "nope", 1.0))

    def test_zero_duration_tasks(self):
        e = engine("r")
        add_tasks(e, [SimTask("a", "r", 0.0), SimTask("b", "r", 0.0, deps=("a",))])
        assert e.run().makespan == 0.0


class TestTrace:
    def test_utilization_and_busy(self):
        e = engine("x", "y")
        add_tasks(e, [SimTask("a", "x", 4.0), SimTask("b", "y", 2.0)])
        trace = e.run()
        util = trace.utilization()
        assert util["x"] == pytest.approx(1.0)
        assert util["y"] == pytest.approx(0.5)

    def test_gantt_renders(self):
        e = engine("x")
        e.add_task(SimTask("a", "x", 1.0))
        g = e.run().gantt(width=20)
        assert "x" in g and "#" in g

    def test_empty_trace(self):
        from repro.runtime.tracing import Trace

        t = Trace()
        assert t.makespan == 0.0
        assert t.utilization() == {}
        assert "empty" in t.gantt()


class TestChromeTrace:
    def test_chrome_trace_export(self):
        e = engine("x", "y")
        add_tasks(e, [SimTask("a", "x", 1.0), SimTask("b", "y", 2.0, deps=("a",))])
        trace = e.run()
        events = trace.to_chrome_trace()
        assert len(events) == 2
        by_name = {ev["name"]: ev for ev in events}
        assert by_name["a"]["ph"] == "X"
        assert by_name["b"]["ts"] == pytest.approx(1e6)
        assert by_name["b"]["dur"] == pytest.approx(2e6)
        assert by_name["a"]["tid"] != by_name["b"]["tid"]

    def test_chrome_trace_json_serializable(self):
        import json

        e = engine("x")
        e.add_task(SimTask("a", "x", 0.5))
        s = json.dumps({"traceEvents": e.run().to_chrome_trace()})
        assert '"traceEvents"' in s
