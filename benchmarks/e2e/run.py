"""The repo benchmark: distributed executor vs the serial oracle, BLAS pinned.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--out PATH]

runs every workload (or the named one) twice, each time in a fresh child
process with the BLAS pools pinned to one thread: once untraced for the
end-to-end metrics and once traced for the per-layer metrics and the layer
table.  Every metric is printed by name with its unit, and every result of
every operation is checked bit for bit against the serial oracle.

With ``--trace 0`` or ``--trace 1`` only that pass runs; the last line of
standard output is then the one JSON object the benchmark driver reads
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--smoke`` swaps in
tiny sizes: it checks the plumbing and the metric names, not performance.

This parent never imports NumPy; see ``child.py`` for what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

from host import pinned_env
from names import ROOT, benchmark_json

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for store and checkpoint files; inside the checkout, git-ignored.
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
#: A child that runs longer than this is killed, with every process it started.
CHILD_TIMEOUT_S = 170.0

WORKLOADS = ("gemm_bound_p2", "abcd_short_a_q2", "fine_tiles_p2", "ccsd_loop_serve")


def run_child(workload: str, seed: int, seconds: float, trace: int, *,
              smoke: bool = False, perturb: bool = False) -> dict:
    """Measure one workload in a fresh pinned process; returns its full result."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--tmp", tmp,
    ]
    if smoke:
        cmd.append("--smoke")
    if perturb:
        cmd.append("--perturb")
    # Its own session, so that a timeout can stop the workers it forked too.
    proc = subprocess.Popen(
        cmd, env=pinned_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s and was killed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def print_result(result: dict) -> None:
    """Every metric by name with its unit; quartiles and n where sampled."""
    tag = f"{result['workload']} seed={result['seed']} trace={result['trace']}"
    print(f"== {tag}: {result['params']['tasks']} tasks, "
          f"{result['params']['gflop']:.2f} Gflop, failed_frac "
          f"{result['failed_frac']:.4g} ({result['failed']}/{result['attempted']} ops)")
    for name, metric in result["metrics"].items():
        line = f"{result['workload']:<16s} {name:<34s} {metric['value']:>14.6g} {metric['unit']}"
        sample = result["samples"].get(name)
        if sample:
            line += f"   [q1 {sample['q1']:.4g}, q3 {sample['q3']:.4g}, n={sample['n']}]"
        print(line)
    if result["layers"]:
        wall = sum(row["seconds"] for row in result["layers"])
        print(f"-- layers of the median traced run (rows sum to its wall, {wall:.4f} s)")
        for row in result["layers"]:
            print(f"   {row['layer']:<30s} {row['seconds']:>10.4f} s  {row['frac']:>6.1%}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def driver_line(result: dict) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the harness's operand generator and nothing else")
    parser.add_argument("--seconds", type=float,
                        help="how long one pass measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only, 1: per-layer pass only (default: both)")
    parser.add_argument("--out", help="write every full result to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: plumbing check only")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one result on purpose, to show that the checker fires")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(benchmark_json()["run_seconds"])
    results = []
    for workload in (args.workload,) if args.workload else WORKLOADS:
        for trace in (args.trace,) if args.trace is not None else (0, 1):
            result = run_child(workload, args.seed, seconds, trace,
                               smoke=args.smoke, perturb=args.perturb)
            results.append(result)
            print_result(result)
            print(driver_line(result), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"results": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
