"""What one pinned child measures: the end-to-end reps and the traced run.

Imported by ``child.py`` only after the pinning guard has passed, because
importing this module imports NumPy.

``--trace 0`` measures the end-to-end metrics: set-up several times, one
discarded warm-up pair, then serial and distributed reps interleaved until
``--seconds`` have passed, all with ``trace=False, metrics=False``.

``--trace 1`` measures the per-layer metrics: interleaved serial / quiet /
traced reps for half of ``--seconds`` (the gap between quiet and traced is
the cost of observing), then the ``[M]`` microbenchmarks.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from multiprocessing import resource_tracker

from functools import partial

import checks
import layers
import microbench as mb
import workloads
from names import units
from repro.core import inspect
from repro.machine import summit

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest timed reps, whatever ``--seconds`` says.
MIN_REPS = 3


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the samples of one timing."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


class Bench:
    """One workload's operations, each run under the oracle and leak check."""

    def __init__(self, workload: str, seed: int, smoke: bool, perturb: bool):
        # Workers forked before this process first touches shared memory would
        # each start a resource tracker of their own, which warns at exit about
        # segments the coordinator already unlinked; start the shared one now,
        # so that the first service lifetime forks the same tree as the rest.
        resource_tracker.ensure_running()
        self.spec = workloads.spec_for(workload, smoke)
        self.seed = seed
        self.smoke = smoke
        self.spans = layers.SpanLog(self.spec.name)
        self.prep = None
        self.checker = None
        self._perturb = perturb

    def setup(self) -> float:
        with self.spans.span("setup"):
            t0 = time.perf_counter()
            self.prep = workloads.prepare(self.spec, self.seed)
            seconds = time.perf_counter() - t0
        if self.checker is None:
            self.checker = checks.OpChecker(self.prep.plan)
        return seconds

    def serial(self):
        """The oracle; returns ``(results, seconds)``."""
        with self.spans.span("runtime.execute_plan"):
            t0 = time.perf_counter()
            results = workloads.serial_op(self.prep)
            return results, time.perf_counter() - t0

    def timed(self, label: str, *, trace: bool, oracle, **extra):
        """One distributed run or serve loop, checked; ``(outcome, seconds)``.

        ``outcome`` is ``None`` when the operation raised, else the list of
        ``(C, report)`` (cold run) or the ``ServeLoop``.
        """
        spec = self.spec
        if spec.serve:
            name, op = "serve.ContractionService", workloads.serve_op
        else:
            name, op = "dist.execute_plan_distributed", workloads.dist_op
        with self.spans.span(f"{name}[{label}]"):
            outcome, seconds = self.checker.attempt(
                label, partial(op, self.prep, trace=trace, **extra), nops=spec.jobs
            )
        if outcome is not None:
            results = outcome.results if spec.serve else outcome
            if self._perturb:
                # --perturb proves the checker fires: flip one value of one result.
                _, tile = next(iter(results[0][0].items()))
                tile[0, 0] += 1.0
                self._perturb = False
            self.checker.verify(label, results, [c for c, _ in oracle])
        return outcome, seconds


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """``(metrics, samples)`` of the end-to-end metrics."""
    setup = [bench.setup() for _ in range(SETUP_REPS)]
    oracle, _ = bench.serial()
    bench.timed("warmup", trace=False, oracle=oracle)
    serial_s, wall_s = [], []
    deadline = time.perf_counter() + seconds
    while len(serial_s) < MIN_REPS or time.perf_counter() < deadline:
        oracle, s = bench.serial()
        serial_s.append(s)
        outcome, s = bench.timed("timed", trace=False, oracle=oracle)
        if outcome is not None:
            wall_s.append(s)
    if not wall_s:
        raise SystemExit(f"every timed operation failed: {bench.checker.failures[:3]}")
    samples = {
        "setup_s": summary(setup), "serial_s": summary(serial_s), "wall_s": summary(wall_s),
    }
    metrics = {name: s["median"] for name, s in samples.items()}
    metrics["speedup_vs_serial"] = metrics["serial_s"] / metrics["wall_s"]
    metrics["peak_rss_mb"] = peak_rss_mib()
    return metrics, samples


def _serve_timings(loop) -> dict[str, float]:
    """Job latencies of one service lifetime, from its public job snapshots."""
    run_s = [job["run_s"] for job in loop.jobs]
    return {
        "serve.start_s": loop.start_s,
        "serve.cold_job_s": loop.client_s[0],
        "serve.warm_job_p50_s": statistics.median(loop.client_s[1:]),
        # Everything a job spent outside its run: queueing and scheduler wake-up.
        "serve.queue_wait_p50_s": statistics.median(
            [c - r for c, r in zip(loop.client_s, run_s)]
        ),
        "serve.run_p50_s": statistics.median(run_s),
        "serve.shutdown_s": loop.shutdown_s,
    }


def _traced_rep(spec, outcome, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and the layer rows of one traced operation."""
    reports = [report for _, report in (outcome.results if spec.serve else outcome)]
    attributions = [report.attribution() for report in reports]
    metrics = layers.traced_metrics(reports, attributions, b_generated=spec.serve)
    rows: dict[str, float] = {}
    if spec.serve:
        run_s = [job["run_s"] for job in outcome.jobs]
        metrics["dist.pool.spawns"] = float(outcome.spawns)
        metrics["serve.warm_hits"] = float(sum(r.b_store_hits for r in reports[1:]))
        rows["serve.start"] = outcome.start_s
        rows["serve.queue_wait"] = sum(c - r for c, r in zip(outcome.client_s, run_s))
        rows["serve.shutdown"] = outcome.shutdown_s
        calls = zip(attributions, run_s)
    else:
        calls = zip(attributions, [wall])
    for attribution, call_s in calls:
        for layer, seconds in layers.run_rows(attribution, call_s).items():
            rows[layer] = rows.get(layer, 0.0) + seconds
    # What is left is the benchmark's own loop between public calls.
    rows[layers.UNATTRIBUTED] = rows.get(layers.UNATTRIBUTED, 0.0) + wall - sum(rows.values())
    metrics["trace.traced_wall_s"] = wall
    metrics["copy_frac"] = layers.copy_seconds(metrics) / wall
    metrics["unattributed_frac"] = (rows[layers.UNATTRIBUTED] + rows[layers.UNTRACED]) / wall
    return metrics, rows


def _microbenchmarks(bench: Bench, metrics: dict, oracle, tmp_root: str) -> None:
    """Fill in the ``[M]`` metrics, each inside a benchmark-side span."""
    spec, prep, spans = bench.spec, bench.prep, bench.spans
    plan = prep.plan
    machine = summit(2)
    a_shape = prep.a.sparse_shape()
    with spans.span("core.inspector.inspect"):
        metrics["core.inspector.inspect_s"] = mb.median_seconds(
            lambda: inspect(a_shape, plan.b_shape, machine, p=spec.p), 3
        )
    metrics["core.inspector.tasks"] = float(plan.total_tasks)
    metrics["core.inspector.blocks"] = float(plan.total_blocks)

    b_matrix = prep.b.as_matrix() if spec.serve else prep.b
    with spans.span("blas"):
        metrics["blas.peak_gflops"] = mb.blas_peak_gflops(256 if bench.smoke else 1536)
        metrics["blas.floor_s"] = mb.blas_floor_s(plan, prep.a, b_matrix)
    # The serve oracle runs the plan once per job.
    serial_s = metrics["trace.serial_s"] / spec.jobs
    metrics["runtime.numeric.gflops"] = plan.total_flops / serial_s / 1e9
    metrics["runtime.numeric.frac_of_peak"] = (
        metrics["runtime.numeric.gflops"] / metrics["blas.peak_gflops"]
    )
    metrics["runtime.numeric.overhead_frac"] = 1.0 - metrics["blas.floor_s"] / serial_s

    with spans.span("dist.tile_store"):
        packed = [("a", prep.a)] + ([] if spec.serve else [("b", prep.b)])
        metrics["dist.tile_store.pack_gbps"], metrics["dist.tile_store.read_gbps"] = (
            mb.arena_gbps(packed)
        )
    with spans.span("mem.copy"):
        metrics.update(mb.mem_copy(bench.smoke))
    if spec.serve:
        with spans.span("dist.bservice"):
            metrics["dist.bservice.hit_us"], metrics["dist.bservice.miss_us"] = (
                mb.bservice_us(prep.b, plan.gpu_memory_bytes)
            )
    with spans.span("dist.comm"):
        metrics["dist.comm.roundtrip_us"] = mb.comm_roundtrip_us()
    with spans.span("dist.pool"):
        metrics["dist.pool.start_s"] = mb.pool_start_s()

    if spec.name == "gemm_bound_p2":
        # The one workload that measures the store.  No workload checkpoints,
        # so these move no end-to-end metric today: they are the "before" of a
        # later checkpoint-path change.
        with spans.span("store"):
            budget = (1 << 20) if bench.smoke else (32 << 20)
            metrics.update(mb.store_rates(b_matrix, tmp_root, budget))
            ckpt = tempfile.mkdtemp(dir=tmp_root)
            try:
                outcome, s = bench.timed(
                    "checkpoint", trace=False, oracle=oracle, checkpoint_dir=ckpt
                )
            finally:
                shutil.rmtree(ckpt, ignore_errors=True)
            if outcome is not None:
                metrics["store.checkpoint_overhead_frac"] = (
                    s / metrics["trace.quiet_wall_s"] - 1.0
                )


def measure_per_layer(bench: Bench, seconds: float, tmp_root: str) -> tuple[dict, dict, list]:
    """``(metrics, samples, layer table)`` of the per-layer metrics."""
    spec = bench.spec
    bench.setup()
    # A metric that does not apply to this workload reads 0.
    metrics = dict.fromkeys(units("per_layer"), 0.0)

    oracle, _ = bench.serial()
    bench.timed("warmup", trace=False, oracle=oracle)
    serial_s, quiet_s, serve_timings, traced = [], [], [], []
    deadline = time.perf_counter() + seconds / 2
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        oracle, s = bench.serial()
        serial_s.append(s)
        outcome, s = bench.timed("quiet", trace=False, oracle=oracle)
        if outcome is not None:
            quiet_s.append(s)
            if spec.serve:
                serve_timings.append(_serve_timings(outcome))
        outcome, s = bench.timed("traced", trace=True, oracle=oracle)
        if outcome is not None:
            traced.append(_traced_rep(spec, outcome, s))
    if not quiet_s or not traced:
        raise SystemExit(f"every operation failed: {bench.checker.failures[:3]}")

    for name in traced[0][0]:
        metrics[name] = statistics.median(m[name] for m, _ in traced)
    for name in (serve_timings[0] if serve_timings else ()):
        metrics[name] = statistics.median(t[name] for t in serve_timings)
    samples = {
        "trace.serial_s": summary(serial_s),
        "trace.quiet_wall_s": summary(quiet_s),
        "trace.traced_wall_s": summary([m["trace.traced_wall_s"] for m, _ in traced]),
    }
    for name, s in samples.items():
        metrics[name] = s["median"]
    metrics["trace_overhead_frac"] = (
        metrics["trace.traced_wall_s"] / metrics["trace.quiet_wall_s"] - 1.0
    )
    # The layer table is that of the traced rep whose wall time is the median.
    _, rows = min(
        traced,
        key=lambda mr: abs(mr[0]["trace.traced_wall_s"] - metrics["trace.traced_wall_s"]),
    )
    wall = sum(rows.values())
    table = [
        {"layer": layer, "seconds": s, "frac": s / wall}
        for layer, s in sorted(rows.items(), key=lambda kv: -kv[1])
    ]
    _microbenchmarks(bench, metrics, oracle, tmp_root)
    return metrics, samples, table
