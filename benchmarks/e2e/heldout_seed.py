"""Held-out seed: the traced pass on a seed nobody tuned against, next to seed 0's.

    python3 benchmarks/e2e/heldout_seed.py [--seed 1] [--smoke]

``--seed`` drives only the harness's operand generator, so a change that
was developed on seed 0 must show the same effect here.  For each workload
this prints the exact counts (tasks, blocks, bytes, messages, cache counts)
of both seeds side by side: they differ between seeds, because the inputs
do, and must not differ between two runs of one seed.
"""

from __future__ import annotations

import argparse
import sys

from names import EXACT_COUNTS, NEAR_COUNTS, benchmark_json
from run import WORKLOADS, run_child

#: The ``[C]`` counts: exact for a given seed.
COUNTS = EXACT_COUNTS + NEAR_COUNTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="the held-out seed")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.smoke else float(benchmark_json()["run_seconds"])

    failed = 0
    print(f"{'workload':<16s} {'count':<30s} {'seed 0':>14s} {f'seed {args.seed}':>14s}")
    for workload in WORKLOADS:
        results = [run_child(workload, seed, seconds, trace=1, smoke=args.smoke)
                   for seed in (0, args.seed)]
        failed += sum(result["failed"] for result in results)
        for name in COUNTS:
            base, held = (result["metrics"][name]["value"] for result in results)
            print(f"{workload:<16s} {name:<30s} {base:>14.0f} {held:>14.0f}")
    if failed:
        print(f"{failed} operation(s) failed the oracle or leak check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
