"""Does the benchmark repeat?  Run the full set twice on one commit and compare.

    python3 benchmarks/e2e/check_repeat.py [--runs 10] [--seconds S] [--workload NAME]

A *set* is what the benchmark driver runs: per workload, ``--runs`` untraced
runs on seeds ``0 .. runs-1``, and one traced run on seed 0 for the exact
counts.  Per end-to-end metric this prints both sets' medians, how much
worse the second is than the first, each set's spread (distance between the
first and third quartile of its runs, as a share of their median) and the
metric's bound from ``BENCHMARK.json``.

Exit code 1 when the second median is worse than the first by more than
the bound, when a spread other than ``setup_s``'s exceeds its bound, when
any operation failed, or when an exact count differs between the sets.
A spread above a third of its bound is flagged, not failed.  When a metric
misses, raise ``run_seconds`` (more reps per run) before raising a bound.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from names import EXACT_COUNTS, benchmark_json
from run import WORKLOADS, run_child


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    gap = (second - first) / first
    return gap if better == "lower" else -gap


def run_set(workloads, runs: int, seconds: float, label: str) -> dict:
    """``{workload: {"values": {metric: [per seed]}, "counts": {...}, "failed": n}}``."""
    out = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(runs):
            result = run_child(workload, seed, seconds, trace=0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"  {label} {workload} seed {seed}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
        traced = run_child(workload, 0, seconds, trace=1)
        failed += traced["failed"]
        counts = {name: traced["metrics"][name]["value"] for name in EXACT_COUNTS}
        out[workload] = {"values": values, "counts": counts, "failed": failed}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="untraced runs (seeds) per workload per set")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2: a spread needs two values")

    spec = benchmark_json()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    workloads = (args.workload,) if args.workload else WORKLOADS
    first = run_set(workloads, args.runs, seconds, "set 1")
    second = run_set(workloads, args.runs, seconds, "set 2")

    bad = 0
    print(f"\n{'workload':<16s} {'metric':<18s} {'median 1':>10s} {'median 2':>10s} "
          f"{'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v1, v2 = first[workload]["values"][name], second[workload]["values"][name]
            gap = worse_by(statistics.median(v1), statistics.median(v2), metric["better"])
            spreads = (spread(v1), spread(v2))
            notes = []
            if gap > bound:
                notes.append("MEDIANS DISAGREE")
            if name != "setup_s" and max(spreads) > bound:
                notes.append("SPREAD OVER BOUND")
            elif name != "setup_s" and max(spreads) > bound / 3:
                notes.append("spread over bound/3")
            bad += any(note.isupper() for note in notes)
            print(f"{workload:<16s} {name:<18s} {statistics.median(v1):>10.4g} "
                  f"{statistics.median(v2):>10.4g} {gap:>+9.1%} {spreads[0]:>9.1%} "
                  f"{spreads[1]:>9.1%} {bound:>6.0%}  {' '.join(notes)}")
        for name in EXACT_COUNTS:
            c1, c2 = first[workload]["counts"][name], second[workload]["counts"][name]
            if c1 != c2:
                bad += 1
                print(f"{workload:<16s} {name}: COUNT DIFFERS {c1:g} vs {c2:g}")
        failed = first[workload]["failed"] + second[workload]["failed"]
        if failed:
            bad += 1
            print(f"{workload:<16s} {failed} OPERATION(S) FAILED")
    print("medians and spreads within bounds, no failed operation, exact counts identical"
          if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
