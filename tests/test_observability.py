"""Tests for the unified runtime observability layer.

Covers the distributed trace pipeline end to end — workers record
monotonic spans, the coordinator aligns and merges them into a
:class:`repro.runtime.tracing.Trace` — plus the regression tests for the
timing/accounting bugfixes that shipped with it:

* run-relative clocks use ``time.monotonic()`` (a stepping wall clock can
  no longer fire deadlines or produce negative durations);
* an oversized B tile is rejected with an actionable error *before* any
  worker starts (instead of emptying the LRU and dying mid-run).
"""

import json
import pickle

import numpy as np
import pytest

from repro.analysis import verify_plan
from repro.analysis.lint import lint_source
from repro.core import inspect, psgemm_distributed, psgemm_numeric
from repro.dist import BService, active_segments, validate_b_budget
from repro.machine import summit
from repro.runtime import GeneratedCollection, SpanRecorder, Trace, tracing
from repro.runtime.tracing import rank_of_resource
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling


def operands(seed=0, m=200, nk=600, density=0.5):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b = random_block_sparse(inner, inner, density, seed=seed + 3)
    return a, b


@pytest.fixture(scope="module")
def traced_run():
    """One traced 2-worker run shared by the merge/export/metric tests."""
    a, b = operands(seed=0)
    machine = summit(2)
    c, report = psgemm_distributed(a, b, machine, p=2, trace=True)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), machine, p=2)
    return plan, c, report


class TestSpanRecorder:
    def test_disabled_records_nothing(self):
        rec = SpanRecorder(enabled=False)
        rec.record("t", "r", 0.0, 1.0)
        with rec.span("t2", "r"):
            pass
        assert rec.spans == [] and rec.counters == {} and rec.dropped == 0

    def test_bounded_memory_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 3)
        rec = SpanRecorder()
        for i in range(5):
            rec.record(f"t{i}", "r", float(i), float(i) + 0.5)
        assert len(rec.spans) == 3
        assert rec.dropped == 2
        assert rec.stream().dropped == 2

    def test_dropped_spans_charge_duration_per_resource(self, monkeypatch):
        """Truncation is accounted: the seconds a dropped span covered land
        in a per-resource ``dropped.<resource>`` counter."""
        monkeypatch.setattr(tracing, "MAX_SPANS", 1)
        rec = SpanRecorder()
        rec.record("keep", "gpu.0.0.comp", 0.0, 1.0)
        rec.record("lost1", "gpu.0.0.comp", 1.0, 2.5)
        rec.record("lost2", "net.0", 2.0, 2.25)
        assert rec.dropped == 2
        assert rec.counters["dropped.gpu.0.0.comp"] == pytest.approx(1.5)
        assert rec.counters["dropped.net.0"] == pytest.approx(0.25)
        # The counters travel with the pickled stream to the coordinator.
        stream = pickle.loads(pickle.dumps(rec.stream()))
        assert stream.counters["dropped.gpu.0.0.comp"] == pytest.approx(1.5)
        assert stream.counters["dropped.net.0"] == pytest.approx(0.25)

    def test_span_contextmanager(self):
        rec = SpanRecorder()
        with rec.span("work", "cpu.0"):
            pass
        (task, resource, start, end) = rec.spans[0]
        assert (task, resource) == ("work", "cpu.0")
        assert end >= start >= 0.0

    def test_stream_pickles(self):
        rec = SpanRecorder()
        rec.record("t", "r", 0.0, 1.0)
        stream = pickle.loads(pickle.dumps(rec.stream()))
        assert stream.spans == [("t", "r", 0.0, 1.0)]
        assert stream.wall_origin == rec.wall_origin

    def test_now_is_monotonic_under_wall_clock_steps(self, monkeypatch):
        """Bugfix regression: a stepping wall clock must not affect now()."""
        import time as time_mod

        rec = SpanRecorder()
        t0 = rec.now()
        # Step the wall clock a day backwards: monotonic readings ignore it.
        real_time = time_mod.time
        monkeypatch.setattr(time_mod, "time", lambda: real_time() - 86_400.0)
        t1 = rec.now()
        assert t1 >= t0 >= 0.0

    def test_shared_origin_yields_comparable_clocks(self, monkeypatch):
        from types import SimpleNamespace

        # Each recorder reads both clocks once, and both clocks advance by
        # the same 0.5 s between the two recorders.
        mono, wall = iter((100.0, 100.5, 101.0, 101.0)), iter((1000.0, 1000.5))
        monkeypatch.setattr(tracing, "time", SimpleNamespace(
            monotonic=lambda: next(mono), time=lambda: next(wall)))
        a, b = SpanRecorder(origin=90.0), SpanRecorder(origin=90.0)
        # Same monotonic origin => the same wall origin, exactly.
        assert a.wall_origin == b.wall_origin == 990.0
        assert a.now() == b.now() == 11.0


class TestTraceQueries:
    """``Trace`` queries over measured-style spans: one task at a time per
    resource, as every executor resource runs."""

    def test_utilization_is_busy_time_over_makespan(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "gpu.0.0.comp", 0.0, 4.0)
        t.add("inbox.wait", "net.0", 0.0, 1.0)
        t.add("reduce", "net.-1", 3.0, 4.0)
        util = t.utilization()
        assert util == pytest.approx(
            {"gpu.0.0.comp": 1.0, "net.0": 0.25, "net.-1": 0.25})


class TestOversizedBTile:
    """Bugfix regression: a B tile over the LRU budget fails fast."""

    def _collection(self, seed=0):
        inner = random_tiling(300, 40, 120, seed=seed)
        shape = random_block_sparse(inner, inner, 0.5, seed=seed + 1).sparse_shape()
        return GeneratedCollection(shape, seed=seed + 2)

    def test_validate_rejects_small_budget(self):
        col = self._collection()
        biggest = col.shape.max_tile_nbytes()
        with pytest.raises(ValueError, match="B-service budget"):
            validate_b_budget(col.shape, biggest - 1)
        validate_b_budget(col.shape, biggest)  # exact fit is fine

    def test_bservice_construction_rejects_small_budget(self):
        col = self._collection()
        with pytest.raises(ValueError, match="cannot hold the largest B tile"):
            BService(col, budget_bytes=col.shape.max_tile_nbytes() - 1)

    def test_distributed_run_fails_before_spawning_workers(self):
        a, bmat = operands(seed=5)
        b = GeneratedCollection(bmat.sparse_shape(), seed=9)
        machine = summit(2)
        plan = inspect(a.sparse_shape(), b.shape, machine, p=2)
        plan.gpu_memory_bytes = b.shape.max_tile_nbytes() - 1
        from repro.dist import execute_plan_distributed

        with pytest.raises(ValueError, match="B-service budget"):
            execute_plan_distributed(plan, a, b)
        assert not active_segments()  # nothing was packed or spawned

    def test_plan_verifier_flags_p114(self):
        a, bmat = operands(seed=6)
        machine = summit(2)
        plan = inspect(a.sparse_shape(), bmat.sparse_shape(), machine, p=2)
        assert verify_plan(plan).ok
        plan.gpu_memory_bytes = bmat.sparse_shape().max_tile_nbytes() - 1
        report = verify_plan(plan)
        assert any(f.rule == "P114" for f in report.findings)


class TestMergedDistributedTrace:
    def test_chrome_trace_round_trips(self, traced_run, tmp_path):
        _, _, report = traced_run
        events = report.trace.to_chrome_trace()
        assert events, "traced run produced no spans"
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        parsed = json.loads(path.read_text())["traceEvents"]
        spans = [ev for ev in parsed if ev["ph"] == "X"]
        meta = [ev for ev in parsed if ev["ph"] == "M"]
        assert len(spans) == len(report.trace.events)
        assert len(spans) + len(meta) == len(parsed)
        for ev in spans:
            assert isinstance(ev["name"], str) and ev["name"]
            assert isinstance(ev["ts"], float) and isinstance(ev["dur"], float)
            assert ev["dur"] >= 0.0
            assert isinstance(ev["args"]["resource"], str)
        # Rank lanes are labeled for Perfetto: every worker rank gets a
        # process_name metadata event, and the coordinator lane is named.
        proc_names = {ev["args"]["name"] for ev in meta
                      if ev["name"] == "process_name"}
        assert "coordinator" in proc_names
        assert any(n.startswith("rank ") for n in proc_names)
        thread_names = {ev["args"]["name"] for ev in meta
                        if ev["name"] == "thread_name"}
        assert {e.resource for e in report.trace.events} == thread_names

    def test_spans_lie_within_the_run_interval(self, traced_run):
        _, _, report = traced_run
        span = report.trace.makespan
        assert span > 0
        for e in report.trace.events:
            # Clock alignment uses one wall sample per process; allow a
            # few ms of cross-process sampling jitter at the left edge.
            assert e.start >= -0.01
            assert e.end <= span + 1e-9
            assert e.duration >= 0.0

    def test_gemm_spans_reconcile_with_plan_chunks(self, traced_run):
        plan, _, report = traced_run
        per_rank = {}
        for e in report.trace.events:
            parts = e.resource.split(".")
            if parts[0] == "gpu" and parts[-1] == "comp":
                assert e.task.endswith(".gemm")
                rank = int(parts[1])
                per_rank[rank] = per_rank.get(rank, 0) + 1
        expected = {
            proc.rank: sum(len(b.chunks) for b in proc.blocks)
            for proc in plan.procs
        }
        assert per_rank == {r: n for r, n in expected.items() if n}
        assert set(per_rank) == set(report.stats.per_proc_tasks)

    def test_derived_metrics_populated(self, traced_run):
        _, _, report = traced_run
        util = {
            r: u for r, u in report.trace.utilization().items()
            if r.startswith("gpu.") and r.endswith(".comp")
        }
        assert {rank_of_resource(r) for r in util} == set(report.stats.per_proc_tasks)
        assert all(0.0 < u <= 1.0 for u in util.values())
        assert report.spans_dropped == 0
        assert report.shm_bytes > 0
        assert report.comm.link_bytes and report.comm.gather_bytes() > 0

    def test_trace_off_is_bit_identical_and_span_free(self):
        a, b = operands(seed=2)
        machine = summit(2)
        c_serial, _ = psgemm_numeric(a, b, machine, p=2)
        c_off, report = psgemm_distributed(a, b, machine, p=2, trace=False)
        assert np.array_equal(c_serial.to_dense(), c_off.to_dense())
        assert report.trace.events == []
        assert report.trace.utilization() == {}

    def test_wall_clock_step_does_not_break_a_run(self, monkeypatch):
        """Bugfix regression: deadlines/durations survive a stepping clock.

        The coordinator's deadline and every recorded interval are
        monotonic; a wall clock frozen in the past must neither trip the
        fault-recovery timeout nor yield negative span durations.
        """
        import time as time_mod

        frozen = time_mod.time() - 86_400.0
        monkeypatch.setattr(time_mod, "time", lambda: frozen)
        a, b = operands(seed=4, m=120, nk=300)
        c, report = psgemm_distributed(a, b, summit(2), p=2, timeout=60.0)
        c_serial, _ = psgemm_numeric(a, b, summit(2), p=2)
        assert np.array_equal(c_serial.to_dense(), c.to_dense())
        assert all(e.duration >= 0.0 for e in report.trace.events)


class TestTraceExportEdgeCases:
    """gantt()/to_chrome_trace() on degenerate and labeled traces."""

    def test_zero_duration_spans_export_cleanly(self):
        t = Trace()
        t.add("instant", "gpu.0.0.comp", 1.0, 1.0)
        t.add("work", "gpu.0.0.comp", 0.0, 2.0)
        spans = [e for e in t.to_chrome_trace() if e["ph"] == "X"]
        by_name = {e["name"]: e for e in spans}
        assert by_name["instant"]["dur"] == 0.0
        assert by_name["work"]["dur"] == pytest.approx(2e6)
        assert "gpu.0.0.comp" in t.gantt(width=20)

    def test_empty_trace_gantt_and_chrome(self):
        t = Trace()
        assert t.gantt() == "(empty trace)"
        assert t.to_chrome_trace() == []

    def test_unlabeled_resources_keep_flat_pid_layout(self):
        # Resources that carry no ranks ("x", "y"): no metadata events,
        # everything on pid 0 — the pre-metadata format.
        t = Trace()
        t.add("a", "x", 0.0, 1.0)
        t.add("b", "y", 0.5, 1.5)
        chrome = t.to_chrome_trace()
        assert all(e["ph"] == "X" for e in chrome)
        assert {e["pid"] for e in chrome} == {0}

    def test_rank_labeled_resources_gain_process_metadata(self):
        t = Trace()
        t.add("gen.0.0", "cpu.1", 0.0, 1.0)
        t.add("reduce", "net.-1", 0.0, 0.5)
        chrome = t.to_chrome_trace()
        meta = [e for e in chrome if e["ph"] == "M"]
        procs = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert procs == {"coordinator", "rank 1"}
        pid_of = {e["args"]["resource"]: e["pid"]
                  for e in chrome if e["ph"] == "X"}
        assert pid_of == {"cpu.1": 2, "net.-1": 0}

    def test_rank_of_resource_parsing(self):
        assert rank_of_resource("gpu.2.0.comp") == 2
        assert rank_of_resource("net.-1") == -1
        assert rank_of_resource("cpu.0") == 0
        assert rank_of_resource("net.n0") is None  # node-shared sim lanes
        assert rank_of_resource("x") is None
        assert rank_of_resource("gpu") is None

    def test_single_resource_capacity_override(self):
        # Every measured resource runs one span at a time, so a single
        # resource that is never idle reads 1.0 with no capacity override.
        t = Trace()
        for i in range(3):
            t.add(f"t{i}", "gpu.0.0.comp", float(i), i + 1.0)
        t.add("zero", "gpu.0.0.comp", 0.5, 0.5)
        assert t.utilization()["gpu.0.0.comp"] == pytest.approx(1.0)
        assert t.gantt(width=12).count("|") == 2  # one row, two borders


class TestDegenerateTraces:
    """Zero-span traces degrade to zeros, not crashes."""

    def test_empty_trace_queries_return_zeros(self):
        trace = Trace()
        assert trace.makespan == 0.0
        assert trace.utilization() == {}
        assert trace.to_chrome_trace() == []

    def test_zero_duration_spans_are_fine(self):
        trace = Trace()
        trace.add("t", "r", 1.0, 1.0)
        assert trace.makespan == 1.0
        assert trace.utilization()["r"] == 0.0


class TestWallClockLint:
    """L306: time.time() is forbidden inside the dist/ tree."""

    SRC = "import time\n\ndef f():\n    return time.time()\n"

    def test_flags_time_time_in_dist(self):
        findings = lint_source(self.SRC, filename="src/repro/dist/worker.py")
        assert [f.rule for f in findings] == ["L306"]

    def test_noqa_suppresses(self):
        src = self.SRC.replace(
            "time.time()", "time.time()  # repro: noqa[L306]"
        )
        assert lint_source(src, filename="src/repro/dist/worker.py") == []

    def test_outside_dist_is_ignored(self):
        findings = lint_source(self.SRC, filename="src/repro/runtime/x.py")
        assert findings == []

    def test_monotonic_is_fine_in_dist(self):
        src = "import time\n\ndef f():\n    return time.monotonic()\n"
        assert lint_source(src, filename="src/repro/dist/worker.py") == []

    def test_dist_tree_has_no_wall_clock_calls(self):
        import os

        import repro.dist as dist_pkg

        root = os.path.dirname(dist_pkg.__file__)
        for name in sorted(os.listdir(root)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                findings = lint_source(fh.read(), filename=os.path.join(root, name))
            assert [f for f in findings if f.rule == "L306"] == []
