"""Smoke test of the benchmark harness: schema and metric names, not performance.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

(``PYTHONPATH=src`` is for ``benchmarks/conftest.py``, which pytest loads on
the way here; the harness itself finds ``src`` on its own.)  Every workload
runs once per pass at ``--smoke`` sizes, through the same parent, child,
oracle check and last-line JSON as a real run.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_smoke(workload: str, trace: int, *extra: str, seed: int = 3) -> dict:
    """The driver's last line of one ``--smoke`` run, parsed."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_matches_benchmark_json(workload, trace, key):
    line = run_smoke(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name) and len(name) <= 64
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_perturbed_result_counts_as_failed():
    line = run_smoke("abcd_short_a_q2", 0, "--perturb")
    assert line["correct"] is False
    assert line["failed"] == 1 and line["attempted"] > 1


def test_same_seed_same_inputs():
    def tasks(seed):
        line = run_smoke("fine_tiles_p2", 1, seed=seed)
        return line["metrics"]["core.inspector.tasks"]["value"]

    assert tasks(0) == tasks(0)
    assert tasks(0) != tasks(1)
