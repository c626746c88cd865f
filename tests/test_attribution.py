"""Tests for the performance-attribution subsystem (:mod:`repro.perf`).

Unit tests exercise each stage on synthetic traces: the layer
classifier (the repo benchmark's ``layer_of``, checked against it), the
backward-greedy critical-path sweep and its tiling invariant (layer seconds,
``unattributed`` included, == path length == makespan), the plan-derived
:class:`PerfModel` and its serialization, the run-artifact round trip,
the median-normalized roofline audit, and the run-to-run diff.

The ``dist``-marked acceptance tests run the real 3-worker executor and
assert the headline criteria: a clean traced run's critical path covers
>= 90% of the makespan; with an injected ``slow`` fault the audit flags
exactly the slowed rank (its relative achieved-vs-predicted ratio lands
outside the band); and ``repro explain --baseline`` against the clean
run attributes the makespan delta to that rank's GEMM layer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core import inspect, psgemm_distributed
from repro.dist import FaultPlan
from repro.machine import summit
from repro.perf import (
    DEFAULT_BAND,
    LAYERS,
    GemmPrediction,
    PerfModel,
    attribute,
    audit_run,
    classify,
    critical_path,
    diff_attributions,
    html_report,
    plan_task_id,
    read_run_artifact,
    span_task_id,
    text_report,
    write_run_artifact,
)
from repro.runtime import Trace
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling


def operands(seed=0, m=300, nk=900, density=0.5):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b = random_block_sparse(inner, inner, density, seed=seed + 3)
    return a, b


#: One span name of every shape a producer in ``src/repro`` records.
RECORDED_SPANS = (
    "block0.chunk1.gemm", "block3.chunk0.prefetch", "gen.3.7", "inbox.wait",
    "shm.attach", "writeback.1", "writeback.ckpt.block2", "pack.a", "pack.b",
    "spawn.setup", "spawn.1", "scatter.1", "reduce", "report.0",
    "report.teardown",
)

#: A traced ``repro selftest --procs 2 --checkpoint DIR --trace F`` run:
#: spawn, shm attach, queue wait, prefetch, B generation, GEMM, checkpoint
#: writeback, reduce and report spans, and path time under no span.
SELFTEST_ARTIFACT = Path(__file__).parent / "data" / "selftest_trace.json"


def benchmark_layers():
    """The repo benchmark's ``benchmarks/e2e/layers.py``, loaded by path."""
    path = Path(__file__).parents[1] / "benchmarks" / "e2e" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClassify:
    def test_measured_span_vocabulary(self):
        # Every name a producer records lands in its layer — the diff
        # depends on this being stable.
        assert classify("block0.chunk1.gemm") == "dist.worker.gemm"
        assert classify("gen.3.7") == "dist.bservice.gen"
        assert classify("block0.chunk1.prefetch") == "dist.worker.prefetch"
        assert classify("inbox.wait") == "dist.worker.qwait"
        assert classify("shm.attach") == "dist.worker.shm_attach"
        assert classify("writeback.0") == "dist.worker.writeback"
        assert classify("writeback.ckpt.block2") == "dist.worker.writeback"
        assert classify("scatter.1") == "dist.coordinator.scatter"
        assert classify("pack.a") == "dist.coordinator.pack"
        assert classify("reduce") == "dist.coordinator.reduce"
        assert classify("report.2") == "dist.coordinator.report"
        assert classify("spawn.1") == "dist.coordinator.spawn"

    def test_every_layer_is_known(self):
        for task in RECORDED_SPANS + ("mystery",):
            assert classify(task) in LAYERS
        assert classify("mystery") == "unattributed"

    def test_classify_is_the_benchmarks_layer_of(self):
        """One vocabulary: the program names every span it records as the
        repo benchmark does."""
        layer_of = benchmark_layers().layer_of
        for task in RECORDED_SPANS:
            assert classify(task) == layer_of(task), task
        assert set(map(layer_of, RECORDED_SPANS)) | {"unattributed"} == set(LAYERS)

    def test_explain_rows_are_the_benchmarks_run_rows(self, tmp_path):
        """On a committed traced artifact, ``repro explain --json``'s
        per-layer path seconds are the benchmark's ``run_rows``, row for
        row, to 1 us."""
        from repro.cli import main

        out = str(tmp_path / "explain.json")
        assert main(["explain", "--trace", str(SELFTEST_ARTIFACT), "--json", out]) == 0
        explained = json.load(open(out))["attribution"]["layers"]
        att = attribute(read_run_artifact(str(SELFTEST_ARTIFACT)).trace)
        rows = benchmark_layers().run_rows(att, att.makespan)
        assert rows.pop("dist.coordinator.untraced") == 0.0
        assert set(explained) == set(rows)
        assert len(rows) >= 8 and rows["unattributed"] > 0
        for layer, seconds in rows.items():
            assert explained[layer] == pytest.approx(seconds, abs=1e-6), layer


class TestSpanTaskId:
    def test_measured_span_maps_to_plan_task(self):
        assert span_task_id("block2.chunk3.gemm", "gpu.1.0.comp") == "p1.g0.b2.c3"
        assert plan_task_id(1, 0, 2, 3) == "p1.g0.b2.c3"

    def test_non_gemm_and_malformed_are_none(self):
        assert span_task_id("writeback", "gpu.0.0.comp") is None
        assert span_task_id("block0.chunk0.gemm", "cpu.0") is None
        assert span_task_id("blockX.chunk0.gemm", "gpu.0.0.comp") is None


class TestCriticalPath:
    def test_empty_trace(self):
        assert critical_path([]) == []
        att = attribute(Trace())
        assert att.path == [] and att.coverage == 0.0
        assert "empty trace" in att.summary()

    def test_gap_becomes_idle_and_path_tiles_makespan(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "gpu.0.0.comp", 0.0, 2.0)
        t.add("inbox.wait", "cpu.0", 3.0, 5.0)
        att = attribute(t)
        assert [s.layer for s in att.path] == [
            "dist.worker.gemm", "unattributed", "dist.worker.qwait"]
        assert att.path[0].start == pytest.approx(0.0)
        assert att.path[-1].end == pytest.approx(att.makespan)
        for prev, nxt in zip(att.path, att.path[1:]):
            assert nxt.start == pytest.approx(prev.end)
        # The tiling invariant: layers (unattributed included) sum to the
        # path length, which spans the whole makespan.
        assert sum(att.layers.values()) == pytest.approx(att.path_length)
        assert att.path_length == pytest.approx(att.makespan) == pytest.approx(5.0)
        assert att.idle_seconds == pytest.approx(1.0)
        assert att.coverage == pytest.approx(4.0 / 5.0)

    def test_head_idle_when_nothing_ran_at_zero(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "gpu.0.0.comp", 1.0, 2.0)
        att = attribute(t)
        assert [s.layer for s in att.path] == ["unattributed", "dist.worker.gemm"]
        assert att.coverage == pytest.approx(0.5)

    def test_overlapping_spans_never_double_count(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "gpu.0.0.comp", 0.0, 3.0)
        t.add("block0.chunk0.gemm", "gpu.1.0.comp", 1.0, 4.0)
        att = attribute(t)
        assert sum(att.layers.values()) == pytest.approx(4.0)
        assert att.idle_seconds == 0.0
        # Whole-trace busy seconds do sum both spans.
        assert att.trace_layers["dist.worker.gemm"] == pytest.approx(6.0)
        assert att.rank_layers[0]["dist.worker.gemm"] == pytest.approx(3.0)
        assert att.rank_layers[1]["dist.worker.gemm"] == pytest.approx(3.0)

    def test_to_dict_carries_the_acceptance_fields(self):
        t = Trace()
        t.add("block0.chunk0.gemm", "gpu.0.0.comp", 0.0, 1.0)
        d = attribute(t).to_dict()
        for key in ("makespan", "path_length", "coverage", "layers",
                    "trace_layers", "rank_layers", "critical_path"):
            assert key in d
        assert d["critical_path"][0]["layer"] == "dist.worker.gemm"


class TestPerfModel:
    def test_from_plan_and_round_trip(self):
        a, b = operands(seed=0, m=200, nk=600)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        model = PerfModel.from_plan(plan, plan_hash="abc")
        assert model.plan_hash == "abc" and model.nranks == 2
        assert model.gemm and all(p.seconds > 0 for p in model.gemm.values())
        assert {p.rank for p in model.gemm.values()} == {0, 1}
        for rank in (0, 1):
            assert model.comm[rank]["b_gen_bytes"] > 0
        # Serialization survives JSON exactly (the artifact's path).
        clone = PerfModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert clone == model


def _gemm_trace(rank_seconds):
    """One GEMM span per rank, all starting at zero."""
    t = Trace()
    for rank, sec in rank_seconds.items():
        t.add("block0.chunk0.gemm", f"gpu.{rank}.0.comp", 0.0, sec)
    return t


def _diff(base, cur, **hashes):
    return diff_attributions(attribute(base), attribute(cur), **hashes)


class TestArtifactRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "run.json")
        trace = _gemm_trace({0: 1.0, 1: 2.0})
        model = PerfModel(plan_hash="deadbeef", nranks=2, gemm={
            "p0.g0.b0.c0": GemmPrediction(rank=0, gpu=0, block=0, chunk=0,
                                          seconds=0.5, flops=1e9, ntasks=3),
        })
        links = {(-1, 0): 100, (1, 0): 40, (0, 1): 60}
        write_run_artifact(path, trace, model=model, comm_link_bytes=links,
                           meta={"command": "test"})
        art = read_run_artifact(path)
        assert len(art.trace.events) == len(trace.events)
        assert art.trace.makespan == pytest.approx(trace.makespan)
        assert art.model == model
        assert art.links == links
        assert art.plan_hash == "deadbeef"
        assert art.meta == {"command": "test"}

    def test_artifact_is_a_loadable_chrome_trace(self, tmp_path):
        path = str(tmp_path / "run.json")
        write_run_artifact(path, _gemm_trace({0: 1.0}))
        payload = json.load(open(path))
        assert all(ev["ph"] in ("X", "M") for ev in payload["traceEvents"])
        assert payload["repro"]["version"] == 1

    def test_plain_chrome_trace_still_loads(self, tmp_path):
        # A bare event list (no "repro" key) from another tool.
        path = str(tmp_path / "plain.json")
        with open(path, "w") as fh:
            json.dump([{"ph": "X", "name": "t", "ts": 0, "dur": 1e6,
                        "pid": 0, "tid": 0}], fh)
        art = read_run_artifact(path)
        assert len(art.trace.events) == 1
        assert art.model is None and art.links == {}


class TestAudit:
    def _model(self, preds):
        gemm = {}
        for (rank, block), sec in preds.items():
            gemm[plan_task_id(rank, 0, block, 0)] = GemmPrediction(
                rank=rank, gpu=0, block=block, chunk=0,
                seconds=sec, flops=1.0, ntasks=1,
            )
        return PerfModel(plan_hash="h", nranks=2, gemm=gemm)

    def _trace(self, measured):
        t = Trace()
        for (rank, block), sec in measured.items():
            t.add(f"block{block}.chunk0.gemm", f"gpu.{rank}.0.comp",
                  0.0, sec)
        return t

    def test_median_normalization_flags_the_outlier(self):
        # Every task runs 2x its prediction (a uniformly slower host);
        # one task on rank 1 runs 40x.  Median calibration keeps the
        # healthy tasks at rel ~1.0 and flags only the outlier.
        preds = {(r, b): 1.0 for r in (0, 1) for b in (0, 1, 2)}
        meas = {k: 2.0 for k in preds}
        meas[(1, 2)] = 40.0
        audit = audit_run(self._trace(meas), self._model(preds))
        assert audit.median_ratio == pytest.approx(2.0)
        assert [e.key for e in audit.flagged] == ["p1.g0.b2.c0"]
        assert audit.flagged_ranks == [1]
        rel = {e.rank: e.rel for e in audit.rank_entries}
        assert rel[1] > DEFAULT_BAND[1] > rel[0]
        assert "OUT OF BAND" in audit.summary()

    def test_uniform_slowdown_flags_nothing(self):
        preds = {(r, b): 1.0 for r in (0, 1) for b in (0, 1)}
        meas = {k: 37.0 for k in preds}
        audit = audit_run(self._trace(meas), self._model(preds))
        assert audit.flagged == [] and audit.flagged_ranks == []

    def test_unmeasured_tasks_are_skipped_not_flagged(self):
        preds = {(0, 0): 1.0, (0, 1): 1.0}
        audit = audit_run(self._trace({(0, 0): 2.0}), self._model(preds))
        assert [e.key for e in audit.entries] == ["p0.g0.b0.c0"]

    def test_no_model_yields_empty_audit(self):
        audit = audit_run(self._trace({(0, 0): 1.0}), None)
        assert audit.entries == [] and audit.comm_entries == []

    def test_comm_volumes_checked_exactly(self):
        model = self._model({(0, 0): 1.0, (1, 0): 1.0})
        model.comm = {0: {"a_recv_bytes": 100}, 1: {"a_recv_bytes": 100}}
        trace = self._trace({(0, 0): 1.0, (1, 0): 1.0})
        # Coordinator traffic (src -1) never counts as A broadcast; rank 0
        # matches its prediction, rank 1 moved 1.5x the plan's bytes.
        links = {(-1, 0): 10**6, (1, 0): 100, (0, 1): 150}
        audit = audit_run(trace, model, comm_link_bytes=links)
        by_rank = {e.rank: e for e in audit.comm_entries}
        assert not by_rank[0].flagged
        assert by_rank[1].flagged and by_rank[1].ratio == pytest.approx(1.5)
        assert "MISMATCH" in audit.summary()


class TestDiff:
    def test_delta_attributed_to_the_slowed_rank(self):
        base = _gemm_trace({0: 1.0, 1: 1.0})
        cur = _gemm_trace({0: 1.0, 1: 3.0})
        d = _diff(base, cur, base_hash="h", cur_hash="h")
        assert d.fingerprints_match is True
        assert d.regressed and d.delta == pytest.approx(2.0)
        assert d.slowest_rank() == 1
        what, grew = d.top_contributors(1)[0]
        assert what == "rank 1 dist.worker.gemm" and grew == pytest.approx(2.0)
        assert "what got slower" in d.summary()
        assert "largest growth on rank 1" in d.summary()

    def test_improvement_reports_what_got_faster(self):
        d = _diff(_gemm_trace({0: 3.0}), _gemm_trace({0: 1.0}))
        assert not d.regressed and d.slowest_rank() is None
        assert d.fingerprints_match is None  # no hashes to compare
        assert "what got faster" in d.summary()

    def test_fingerprint_mismatch_warns(self):
        d = _diff(_gemm_trace({0: 1.0}), _gemm_trace({0: 2.0}),
                        base_hash="a", cur_hash="b")
        assert d.fingerprints_match is False
        assert "WARNING" in d.summary()

    def test_to_dict_lists_top_contributors(self):
        d = _diff(_gemm_trace({0: 1.0}), _gemm_trace({0: 2.0}))
        payload = json.loads(json.dumps(d.to_dict()))
        assert payload["top_contributors"][0]["what"] == "rank 0 dist.worker.gemm"


class TestReports:
    def test_text_report_stitches_all_sections(self):
        att = attribute(_gemm_trace({0: 1.0, 1: 2.0}))
        d = _diff(_gemm_trace({0: 1.0}), _gemm_trace({0: 2.0}))
        out = text_report(att, None, d, title="t")
        assert "critical path" in out and "trace diff" in out

    def test_html_report_is_self_contained(self):
        trace = _gemm_trace({0: 1.0, 1: 2.0})
        page = html_report(trace, attribute(trace), title="unit")
        assert page.lstrip().lower().startswith("<!doctype html")
        assert 'id="data"' in page and "unit" in page
        # No external fetches: a single file must render offline.
        assert "http://" not in page and "https://" not in page


# ---------------------------------------------------------------------------
# Acceptance: the real 3-worker executor (slow; `make test-dist` tier).
# ---------------------------------------------------------------------------

#: The injected straggler for the acceptance runs: rank 1 sleeps on every
#: GEMM task from its third onward — tens of ms against sub-ms tasks, far
#: outside any band the audit would use.
SLOW_RANK, SLOW_SECONDS = 1, 0.02


def run_audit(report):
    """The audit ``repro explain`` runs: the report's trace against its model."""
    return audit_run(report.trace, report.model, comm_link_bytes=dict(report.comm.link_bytes))


@pytest.fixture(scope="module")
def clean_run():
    a, b = operands(seed=0)
    _, report = psgemm_distributed(a, b, summit(3), p=3, trace=True)
    return report


@pytest.fixture(scope="module")
def slow_run():
    a, b = operands(seed=0)
    _, report = psgemm_distributed(
        a, b, summit(3), p=3, trace=True,
        fault_plan=FaultPlan.slow(SLOW_RANK, at_task=3, seconds=SLOW_SECONDS),
    )
    return report


@pytest.mark.dist
class TestAcceptanceCleanRun:
    def test_critical_path_covers_the_makespan(self, clean_run):
        att = clean_run.attribution()
        assert att.path
        # The path tiles [0, makespan]: contiguous segments, no overlap.
        assert att.path[0].start == pytest.approx(0.0, abs=1e-6)
        assert att.path[-1].end == pytest.approx(att.makespan, rel=1e-6)
        for prev, nxt in zip(att.path, att.path[1:]):
            assert nxt.start == pytest.approx(prev.end, abs=1e-6)
        # Layers (unattributed included) sum to the path length exactly.
        assert sum(att.layers.values()) == pytest.approx(att.path_length,
                                                         rel=1e-6)
        assert att.path_length == pytest.approx(att.makespan, rel=1e-6)
        # The acceptance bar: measured spans explain >= 90% of the run.
        assert att.coverage >= 0.9
        assert att.layers.get("dist.worker.gemm", 0.0) > 0

    def test_clean_run_audit_is_quiet(self, clean_run):
        audit = run_audit(clean_run)
        assert audit.entries  # predictions joined to measurements
        assert audit.flagged_ranks == []

    def test_report_attribution_matches_module_function(self, clean_run):
        assert clean_run.attribution().trace_layers == pytest.approx(
            attribute(clean_run.trace).trace_layers
        )


@pytest.mark.dist
class TestAcceptanceSlowFault:
    def test_audit_flags_the_injected_rank_with_a_cause(self, slow_run):
        audit = run_audit(slow_run)
        assert audit.flagged_ranks == [SLOW_RANK]
        rel = {e.rank: e.rel for e in audit.rank_entries}
        assert rel[SLOW_RANK] > DEFAULT_BAND[1]
        assert rel[SLOW_RANK] == max(rel.values())
        # The flagged tasks name the culprit's plan tasks.
        worst = max(audit.flagged, key=lambda e: e.rel)
        assert worst.rank == SLOW_RANK
        assert f"rank {SLOW_RANK}" in audit.summary()
        assert "OUT OF BAND" in audit.summary()

    def test_diff_attributes_the_delta_to_the_slowed_rank(self, clean_run,
                                                          slow_run):
        d = diff_attributions(
            clean_run.attribution(), slow_run.attribution(),
            base_hash=clean_run.model.plan_hash,
            cur_hash=slow_run.model.plan_hash,
        )
        assert d.fingerprints_match is True  # same operands, same plan
        assert d.regressed
        assert d.slowest_rank() == SLOW_RANK
        what, _ = d.top_contributors(1)[0]
        assert what == f"rank {SLOW_RANK} dist.worker.gemm"
        # The slowed rank's busy growth explains the bulk of the delta.
        assert d.rank_deltas[SLOW_RANK] >= 0.5 * d.delta


@pytest.mark.dist
class TestAcceptanceExplainCli:
    def test_explain_baseline_round_trip(self, clean_run, slow_run,
                                         tmp_path, capsys):
        from repro.cli import main

        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        out = str(tmp_path / "explain.json")
        html = str(tmp_path / "explain.html")
        for path, report in ((base, clean_run), (cur, slow_run)):
            write_run_artifact(
                path, report.trace, model=report.model,
                comm_link_bytes=dict(report.comm.link_bytes),
            )
        rc = main(["explain", "--trace", cur, "--baseline", base,
                   "--json", out, "--html", html])
        assert rc == 0
        text = capsys.readouterr().out
        assert "critical path" in text and "trace diff" in text
        assert "OUT OF BAND" in text
        payload = json.load(open(out))
        assert payload["attribution"]["critical_path"]
        assert payload["audit"]["flagged_ranks"] == [SLOW_RANK]
        assert payload["diff"]["fingerprints_match"] is True
        assert str(SLOW_RANK) in payload["diff"]["rank_deltas"]
        page = open(html).read()
        assert page.lstrip().lower().startswith("<!doctype html")
