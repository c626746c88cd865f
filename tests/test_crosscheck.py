"""Tests for the cross-executor consistency harness."""

from dataclasses import replace

import pytest

from repro.core.crosscheck import ConsistencyReport, crosscheck, random_crosscheck
from repro.machine import summit
from repro.sparse import random_shape_with_density
from repro.tiling import random_tiling


class TestCrosscheck:
    def test_random_instances_pass(self):
        for seed in (0, 1, 2):
            report = random_crosscheck(seed=seed)
            assert report.ok, report.summary()

    def test_report_fields(self):
        rows = random_tiling(400, 30, 120, seed=0)
        inner = random_tiling(1500, 30, 120, seed=1)
        a = random_shape_with_density(rows, inner, 0.5, seed=2)
        b = random_shape_with_density(inner, inner, 0.5, seed=3)
        report = crosscheck(a, b, summit(2), p=2, gpus_per_proc=3)
        assert isinstance(report, ConsistencyReport)
        assert report.numeric_exact
        assert report.counts_consistent
        assert report.memory_safe
        assert report.b_lifecycle_ok
        assert report.flops_planned == pytest.approx(report.flops_counted)
        assert "PASS" in report.summary()

    def test_disagreeing_flop_counts_fail_the_report(self):
        report = random_crosscheck(seed=0)
        assert report.ok, report.summary()
        for field in ("flops_planned", "flops_executed", "flops_counted"):
            bad = replace(report, **{field: getattr(report, field) + 2.0})
            assert not bad.counts_consistent and not bad.ok, field
            assert "FAIL" in bad.summary()

    def test_deep_selftest_cli(self, capsys):
        from repro.cli import main

        assert main(["selftest", "--deep"]) == 0
        assert "ALL CHECKS" in capsys.readouterr().out
