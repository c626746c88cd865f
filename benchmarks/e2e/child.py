"""One workload, measured in a fresh process with BLAS pinned to one thread.

``run.py`` starts this script with the pinned environment; it is not meant
to be started by hand.  It prints one JSON object, the full result, as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from host import assert_pinned, host_digest
from names import ROOT, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)

    assert_pinned()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import measure  # imports NumPy: only now, behind the guard

    bench = measure.Bench(args.workload, args.seed, args.smoke, args.perturb)
    table: list = []
    if args.trace:
        metrics, samples, table = measure.measure_per_layer(bench, args.seconds, args.tmp)
    else:
        metrics, samples = measure.measure_end_to_end(bench, args.seconds)
    declared = units("per_layer" if args.trace else "end_to_end")
    checker, plan = bench.checker, bench.prep.plan
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "host": host_digest(ROOT),
        "params": {
            **dataclasses.asdict(bench.spec),
            "tasks": plan.total_tasks,
            "gflop": plan.total_flops / 1e9,
        },
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
        "samples": samples,
        "layers": table,
        "spans": bench.spans.spans,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
