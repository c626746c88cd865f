"""Where a run's time goes: the per-phase budget of a serve job or a one-shot call.

    python3 benchmarks/serve_job_phases.py [--smoke] [--loops N] [--seed S] [--one-shot W]

By default, one ``ContractionService`` lifetime per loop on the shapes of
the repo benchmark's ``ccsd_loop_serve`` workload (five jobs, one plan, one
generated B, a new A each; untraced, as the end-to-end pass runs them).
For every job the client-side ``submit`` -> ``result`` time is split into

* ``submit->pickup`` — admission (the plan verifier's memory check,
  remembered per plan), queueing and the scheduler's wake-up, up to the
  start of the run;
* ``pack`` / ``scatter`` / ``supervise`` / ``reduce`` / ``report`` /
  ``teardown`` — the phases of the run's ``_Coordinator`` (``scatter`` net of
  ``pack``; ``supervise`` holds the ranks' GEMM streams);
* ``remainder`` — what is left: the run's set-up before ``scatter``
  (fingerprints, event log), artifacts, and waking the client.

and the table prints the cold job (the first of a loop) and the median warm
job.  With ``--one-shot W`` (``gemm_bound_p2``, ``abcd_short_a_q2`` or
``fine_tiles_p2``) the same phases split ``N`` cold
``execute_plan_distributed`` calls on that workload's shapes (untraced, after
one discarded call; ``remainder`` is validation and the run's set-up), the
table prints median and quartiles, and one traced call says when each
rank's GEMM stream started on the run's clock.

This is ROADMAP item 1's budget as one command; it lives beside the
frozen harness, borrows its workload generator, and changes nothing in it.
The phases are timed by wrapping the methods, so the numbers carry a few
microseconds of wrapper each, and the same file runs on an older checkout
for a before/after.  ``--smoke`` runs small sizes and checks the plumbing —
every result bit-equal to the oracle, phases within the total, no segment
left — not the numbers.  BLAS is pinned to one thread before NumPy loads, as
in ``benchmarks/e2e/child.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if "numpy" in sys.modules:
    raise SystemExit("numpy was imported before the BLAS pools were pinned")
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, "e2e"))

import checks  # noqa: E402  (benchmarks/e2e)
import workloads  # noqa: E402  (benchmarks/e2e)
from repro.dist import active_segments  # noqa: E402
from repro.dist.coordinator import _Coordinator  # noqa: E402
from repro.runtime.tracing import rank_of_resource  # noqa: E402
from repro.serve import ContractionService  # noqa: E402

PHASES = ("pack", "scatter", "supervise", "reduce", "report", "teardown")
COLUMNS = ("submit->pickup", *PHASES, "remainder", "total")
ONE_SHOT = ("gemm_bound_p2", "abcd_short_a_q2", "fine_tiles_p2")


def _accumulating(seconds: dict, key: str, method):
    """``method``, adding each call's duration to ``seconds[key]``."""

    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - t0

    return timed


def _stamping(seconds: dict, key: str, method):
    """``method``, noting in ``seconds[key]`` the instant it was entered."""

    def stamped(self, *args, **kwargs):
        seconds[key] = time.perf_counter()
        return method(self, *args, **kwargs)

    return stamped


@contextlib.contextmanager
def phase_clock():
    """Wrap the coordinator's phase methods and the service's ``_execute``;
    yields the dict the current job's durations and pickup instant land in."""
    seconds: dict[str, float] = {}
    wrapped = [(_Coordinator, phase, phase, _accumulating) for phase in PHASES]
    wrapped.append((ContractionService, "_execute", "pickup_at", _stamping))
    originals = [(cls, name, getattr(cls, name)) for cls, name, _, _ in wrapped]
    try:
        for cls, name, key, wrapper in wrapped:
            setattr(cls, name, wrapper(seconds, key, getattr(cls, name)))
        yield seconds
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


def _row(seconds: dict, total: float) -> dict:
    """One run's phases, ``scatter`` net of the ``pack`` it contains."""
    row = {phase: seconds.get(phase, 0.0) for phase in PHASES}
    row["scatter"] -= row["pack"]
    row["remainder"] = total - sum(row.values())
    row["total"] = total
    return row


def serve_loop(prep, seconds: dict) -> tuple[list[dict], list]:
    """One service lifetime; returns each job's row and the ``(C, report)`` list."""
    svc = ContractionService(2, trace=False, metrics=False, timeout=workloads.OP_TIMEOUT_S)
    rows, results = [], []
    try:
        svc.pool.start()
        for a in prep.a_list:
            seconds.clear()
            t_submit = time.perf_counter()
            job_id = svc.submit(prep.plan, a, prep.b.empty_clone())
            results.append(svc.result(job_id, timeout=workloads.OP_TIMEOUT_S))
            row = _row(seconds, time.perf_counter() - t_submit)
            row["submit->pickup"] = seconds["pickup_at"] - t_submit
            row["remainder"] -= row["submit->pickup"]
            rows.append(row)
    finally:
        svc.shutdown()
    return rows, results


def serve_table(args) -> list[str]:
    prep = workloads.prepare(workloads.spec_for("ccsd_loop_serve", args.smoke), args.seed)
    oracle = [c for c, _ in workloads.serial_op(prep)]
    cold, warm = [], []
    with phase_clock() as seconds:
        serve_loop(prep, seconds)  # discarded: imports, BLAS and page cache warm up
        for _ in range(1 if args.smoke else args.loops):
            rows, results = serve_loop(prep, seconds)
            for (c, _), ref in zip(results, oracle):
                if not checks.same_bits(c, ref):
                    raise SystemExit("a job's result differs from the serial oracle")
            cold.append(rows[0])
            warm.extend(rows[1:])
    _check_totals(cold + warm)
    lines = [
        f"ccsd_loop_serve{' (smoke sizes)' if args.smoke else ''}, seed {args.seed}: "
        f"{len(cold)} loop(s), {len(cold)} cold and {len(warm)} warm job(s); median ms",
        f"{'phase':<16}{'cold':>9}{'warm':>9}",
    ]
    for column in COLUMNS:
        cells = [1e3 * statistics.median(r[column] for r in rows) for rows in (cold, warm)]
        lines.append(f"{column:<16}{cells[0]:>9.2f}{cells[1]:>9.2f}")
    return lines


def one_shot_table(args) -> list[str]:
    name = args.one_shot
    prep = workloads.prepare(workloads.spec_for(name, args.smoke), args.seed)
    [(oracle, _)] = workloads.serial_op(prep)
    rows = []
    with phase_clock() as seconds:
        for _ in range(1 + (2 if args.smoke else args.loops)):  # the first is discarded
            seconds.clear()
            t_call = time.perf_counter()
            [(c, _)] = workloads.dist_op(prep, trace=False)
            rows.append(_row(seconds, time.perf_counter() - t_call))
            if not checks.same_bits(c, oracle):
                raise SystemExit("a call's result differs from the serial oracle")
            del c  # dropping a result unmaps its tiles: not the next call's time
    del rows[0]
    _check_totals(rows)
    [(_, report)] = workloads.dist_op(prep, trace=True)
    starts: dict[int, float] = {}
    for e in report.trace.events:
        if e.task.endswith(".gemm"):
            rank = rank_of_resource(e.resource)
            starts[rank] = min(e.start, starts.get(rank, e.start))
    lines = [
        f"{name}{' (smoke sizes)' if args.smoke else ''}, seed {args.seed}: "
        f"{len(rows)} untraced call(s); ms",
        f"{'phase':<16}{'median':>9}{'q1':>9}{'q3':>9}",
    ]
    for column in (*PHASES, "remainder", "total"):
        q1, median, q3 = statistics.quantiles([r[column] for r in rows], n=4, method="inclusive")
        lines.append(f"{column:<16}{1e3 * median:>9.2f}{1e3 * q1:>9.2f}{1e3 * q3:>9.2f}")
    lines.append("first GEMM of each rank, traced call, ms on the run's clock: " + ", ".join(
        f"rank {rank} {1e3 * t:.1f}" for rank, t in sorted(starts.items(), key=lambda kv: kv[1])
    ))
    return lines


def _check_totals(rows) -> None:
    for row in rows:
        if row["remainder"] < -1e-4:
            raise SystemExit(f"phases exceed the run's total: {row}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--loops", type=int, default=6,
                        help="service lifetimes, or with --one-shot timed calls")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one-shot", metavar="W", choices=ONE_SHOT,
                        help="split cold execute_plan_distributed calls on workload W")
    args = parser.parse_args(argv)

    before = checks.shm_entries()
    lines = one_shot_table(args) if args.one_shot else serve_table(args)
    leaked = sorted((checks.shm_entries() - before) | active_segments())
    if leaked:
        raise SystemExit(f"left shared memory behind: {leaked[:3]}")
    print("\n".join(lines))
    if args.smoke:
        print("serve-phases-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
