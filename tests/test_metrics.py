"""Unit tests for the run's metric series (:mod:`repro.runtime.metrics`).

Covers the one function that buckets durations (the histogram semantics),
the snapshot's lookup and pickling, the fold of a hand-built report through
:data:`SERIES` (no processes), and the Prometheus text exposition format —
validated by actually parsing the output line by line, not just substring
checks.
"""

import pickle
import re
from dataclasses import fields

import pytest

from repro.dist.comm import CommStats
from repro.dist.coordinator import DistReport
from repro.dist.worker import RankTally, WorkerReport
from repro.runtime.metrics import (
    DEFAULT_BUCKETS,
    SERIES,
    MetricsSnapshot,
    bucket_durations,
    histograms_of,
    snapshot_of,
)
from repro.runtime.numeric import NumericStats
from repro.runtime.tracing import Trace


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = bucket_durations([0.05, 0.5, 5.0], buckets=(0.1, 1.0))
        # <= 0.1, <= 1.0, and overflow: the trailing slot is +Inf only.
        assert h.counts == (1, 1, 1)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_boundary_is_inclusive(self):
        # Prometheus buckets are upper-inclusive: a value b lands in le="b".
        assert bucket_durations([0.1], buckets=(0.1, 1.0)).counts == (1, 0, 0)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            bucket_durations([], buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            bucket_durations([], buckets=(2.0, 1.0))


class TestSnapshot:
    def test_snapshot_is_picklable(self):
        snap = MetricsSnapshot(
            counters={"c": 1}, histograms={"h": bucket_durations([0.01])}
        )
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.counters["c"] == 1
        assert clone.histograms["h"].count == 1

    def test_get_lookup(self):
        snap = MetricsSnapshot(counters={"c": 3}, gauges={"g": 4})
        assert snap.get("c") == 3
        assert snap.get("g") == 4
        assert snap.get("missing") == 0.0
        assert snap.get("missing", -1.0) == -1.0


def _rank_report(rank, seed):
    """A WorkerReport whose every tally field holds a distinct value."""
    tally = {f.name: seed + n for n, f in enumerate(fields(RankTally), start=1)}
    stats = NumericStats(
        ntasks=10 * seed, flops=1e3 * seed, b_tiles_generated=7 * seed,
        gpu_peak_bytes=100 * seed, per_proc_tasks={rank: 10 * seed},
    )
    return WorkerReport(rank, 0, stats, c_index={}, **tally)


class TestSeriesFold:
    """``snapshot_of`` over a hand-built report: two ranks."""

    def _report(self):
        ranks = [_rank_report(0, seed=3), _rank_report(1, seed=5)]
        trace = Trace()
        for n, (task, resource) in enumerate([
            ("block0.chunk0.gemm", "gpu.0.0.comp"),
            ("block0.chunk1.gemm", "gpu.0.0.comp"),
            ("block0.chunk0.prefetch", "gpu.0.0.link"),
            ("writeback.ckpt.block0", "net.0"),
            ("writeback.0", "net.0"),  # the index hand-over: not a checkpoint
            ("gen.1.2", "cpu.0"),
        ]):
            trace.add(task, resource, float(n), n + 0.002)
        totals = {"heartbeat": 6, "stall": 1, "retry": 2, "reassign": 1}
        report = DistReport(
            stats=NumericStats.merge([r.stats for r in ranks]),
            trace=trace, comm=CommStats(), attempts={},
            segments=[], event_totals=totals, **vars(RankTally.merge(ranks)),
        )
        return ranks, totals, report

    def test_every_row_equals_its_source(self):
        ranks, totals, report = self._report()
        snap = snapshot_of(report)
        parts = [r.stats for r in ranks]
        for name, (kind, text, (source, *key)) in SERIES.items():
            assert snap.helps[name] == text
            if source == "stats":
                values = [getattr(s, key[0]) for s in parts]
                # every stat is a sum over ranks; the gauge a max
                expected = max(values) if kind == "gauge" else sum(values)
            elif source == "report":
                expected = sum(getattr(r, key[0]) for r in ranks)
            elif source == "events":
                expected = totals[key[0]]
            else:
                assert kind == "histogram"
                continue
            assert snap.get(name, None) == expected, name
        assert snap.get("repro_gemm_tasks_total") == 30 + 50
        assert snap.get("repro_gpu_peak_bytes") == 500
        assert {n: h.count for n, h in snap.histograms.items()} == {
            "repro_chunk_gemm_seconds": 2, "repro_prefetch_seconds": 1,
            "repro_checkpoint_seconds": 1,
        }
        kinds = {kind for kind, _, _ in SERIES.values()}
        assert kinds == {"counter", "gauge", "histogram"}
        assert set(snap.counters) | set(snap.gauges) | set(snap.histograms) == set(SERIES)

    def test_untraced_report_has_no_histograms(self):
        _, _, report = self._report()
        report.trace = Trace()
        snap = snapshot_of(report)
        assert snap.histograms == {} and histograms_of(Trace()) == {}
        assert snap.get("repro_gemm_tasks_total") == report.stats.ntasks


#: One Prometheus sample line: name[{labels}] value
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$'
)


def _parse_exposition(text):
    """Parse exposition text into {family: type} and [(name, labels, value)]."""
    types, samples = {}, []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            types[family] = kind
        elif line.startswith("#"):
            assert line.startswith("# HELP "), f"unknown comment: {line!r}"
        else:
            m = _SAMPLE_RE.match(line)
            assert m, f"malformed sample line: {line!r}"
            samples.append((m["name"], m["labels"], float(m["value"])))
    return types, samples


class TestPrometheus:
    def test_empty_snapshot_renders_empty(self):
        assert MetricsSnapshot().to_prometheus() == ""

    def test_counter_and_gauge_lines(self):
        text = MetricsSnapshot(
            counters={"repro_tasks_total": 42}, gauges={"repro_peak_bytes": 1.5},
            helps={"repro_tasks_total": "tasks executed"},
        ).to_prometheus()
        types, samples = _parse_exposition(text)
        assert types == {"repro_tasks_total": "counter", "repro_peak_bytes": "gauge"}
        assert ("repro_tasks_total", None, 42.0) in samples
        assert ("repro_peak_bytes", None, 1.5) in samples
        assert "# HELP repro_tasks_total tasks executed" in text
        # Integer-valued samples must not carry a trailing ".0".
        assert "repro_tasks_total 42\n" in text

    def test_histogram_series_are_cumulative_and_end_at_inf(self):
        h = bucket_durations((0.05, 0.5, 5.0), buckets=(0.1, 1.0))
        text = MetricsSnapshot(histograms={"repro_lat_seconds": h}).to_prometheus()
        types, samples = _parse_exposition(text)
        assert types == {"repro_lat_seconds": "histogram"}
        buckets = [(labels, v) for name, labels, v in samples
                   if name == "repro_lat_seconds_bucket"]
        assert buckets == [('le="0.1"', 1.0), ('le="1"', 2.0), ('le="+Inf"', 3.0)]
        assert ("repro_lat_seconds_sum", None, pytest.approx(5.55)) in [
            (n, l, v) for n, l, v in samples if n.endswith("_sum")
        ]
        assert ("repro_lat_seconds_count", None, 3.0) in samples

    def test_default_buckets_render(self):
        text = MetricsSnapshot(histograms={"h": bucket_durations([0.3])}).to_prometheus()
        _, samples = _parse_exposition(text)
        nbuckets = sum(1 for n, _, _ in samples if n == "h_bucket")
        assert nbuckets == len(DEFAULT_BUCKETS) + 1  # finite bounds + +Inf
