"""Tests for ``Trace`` rendering and Chrome-trace export on hand-built spans."""

import json

import pytest

from repro.runtime.tracing import Trace


class TestTrace:
    def test_gantt_renders(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "x", 0.0, 1.0)
        g = t.gantt(width=20)
        assert "x" in g and "#" in g

    def test_empty_trace(self):
        t = Trace()
        assert t.makespan == 0.0
        assert t.utilization() == {}
        assert "empty" in t.gantt()


class TestChromeTrace:
    def test_chrome_trace_export(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "x", 0.0, 1.0)
        t.add("writeback.0", "y", 1.0, 3.0)
        events = t.to_chrome_trace()
        assert len(events) == 2
        by_name = {ev["name"]: ev for ev in events}
        assert by_name["block0.chunk0.gemm"]["ph"] == "X"
        assert by_name["writeback.0"]["ts"] == pytest.approx(1e6)
        assert by_name["writeback.0"]["dur"] == pytest.approx(2e6)
        assert by_name["block0.chunk0.gemm"]["tid"] != by_name["writeback.0"]["tid"]

    def test_chrome_trace_json_serializable(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "x", 0.0, 0.5)
        s = json.dumps({"traceEvents": t.to_chrome_trace()})
        assert '"traceEvents"' in s
