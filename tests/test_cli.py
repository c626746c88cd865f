"""Tests for the command-line interface and the tiling advisor."""

import numpy as np
import pytest

from repro.chem import TilingVariant, alkane, build_abcd_problem
from repro.cli import build_parser, main
from repro.core.advisor import recommend_tiling
from repro.machine import summit


class TestCli:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "matches dense reference: True" in out

    def test_traits_prints_table(self, capsys):
        assert main(["traits"]) == 0
        out = capsys.readouterr().out
        assert "#GEMM tasks" in out and "paper" in out

    def test_scaling_subset(self, capsys):
        assert main(["scaling", "--variants", "v3", "--gpus", "3", "12"]) == 0
        out = capsys.readouterr().out
        assert "tiling v3" in out
        assert "v1" not in out.split("scaling")[0]

    def test_mpqc(self, capsys):
        assert main(["mpqc"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_advise_small(self, capsys):
        # AO cluster targets below ~16 make single B columns wider than a
        # GPU can ever hold for C65H132, so stay at/above the paper's range.
        assert main(["advise", "--targets", "5x22", "4x16", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out

    def test_monitor_renders_event_log(self, capsys, tmp_path):
        from repro.dist import EventLog

        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        log.emit("plan_accepted", nranks=2, heartbeat_interval=0.1,
                 tasks_per_rank={"0": 6, "1": 4})
        log.emit("heartbeat", rank=0, attempt=0, seq=0, tasks_done=0)
        log.emit("heartbeat", rank=0, attempt=0, seq=1, tasks_done=3)
        log.emit("rank_done", rank=0, attempt=0, tasks=6)
        log.emit("done", ntasks=10, heartbeats=2)
        log.close()
        assert main(["monitor", path]) == 0
        out = capsys.readouterr().out
        assert "run complete" in out
        assert "rank" in out and "state" in out  # the health table header
        assert "done" in out

    def test_monitor_live_run_not_marked_complete(self, capsys, tmp_path):
        from repro.dist import EventLog

        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        log.emit("plan_accepted", nranks=1, heartbeat_interval=0.1,
                 tasks_per_rank={"0": 6})
        log.emit("heartbeat", rank=0, attempt=0, seq=0, tasks_done=2)
        log.close()
        assert main(["monitor", path]) == 0
        out = capsys.readouterr().out
        assert "run complete" not in out
        assert "2/6" in out  # live task progress from the heartbeat

    @pytest.mark.parametrize("ending,code", [("done", 0), ("aborted", 1), ("failed", 1)])
    def test_monitor_follow_stops_at_the_terminal_record(self, capsys, tmp_path,
                                                         ending, code):
        """Every run ends its log — a lost one too (it used to leave
        ``--follow`` polling forever) — and what had not finished by then
        is shown as failed, not as still running."""
        from repro.dist import EventLog

        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        log.emit("plan_accepted", nranks=2, heartbeat_interval=0.1,
                 tasks_per_rank={"0": 6, "1": 4})
        log.emit("heartbeat", rank=1, attempt=0, seq=0, tasks_done=1)
        log.emit("rank_done", rank=0, attempt=0, tasks=6)
        if ending == "done":
            log.emit("rank_done", rank=1, attempt=0, tasks=4)
            log.emit("done", ntasks=10, heartbeats=1)
        else:
            log.emit(ending, reason="rank 1 is gone")
        log.close()
        assert main(["monitor", path, "--follow", "--interval", "0.01"]) == code
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[2:]}
        if ending == "done":
            assert "run complete" in out and rows == {"0": "done", "1": "done"}
        else:
            assert f"run {ending}: rank 1 is gone" in out
            assert rows == {"0": "done", "1": "failed"}

    def test_monitor_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "nope.jsonl")
        assert main(["monitor", path]) == 1
        assert "waiting for" in capsys.readouterr().out

    def test_monitor_run_id_selects_scoped_log(self, capsys, tmp_path):
        from repro.dist import EventLog

        base = str(tmp_path / "run-events.jsonl")
        for run_id, nranks in (("job-a", 1), ("job-b", 2)):
            log = EventLog(base, run_id=run_id)
            log.emit("plan_accepted", nranks=nranks, heartbeat_interval=0.1,
                     tasks_per_rank={str(r): 3 for r in range(nranks)})
            for r in range(nranks):
                log.emit("rank_done", rank=r, attempt=0, tasks=3)
            log.emit("done", ntasks=3 * nranks, heartbeats=0)
            log.close()
        assert main(["monitor", base, "--run-id", "job-b"]) == 0
        out = capsys.readouterr().out
        assert "run-events.job-b.jsonl" in out
        assert "run complete" in out
        assert main(["monitor", base, "--run-id", "job-a"]) == 0
        assert "run-events.job-a.jsonl" in capsys.readouterr().out

    def test_monitor_without_run_id_falls_back_to_newest(self, capsys, tmp_path):
        from repro.dist import EventLog

        base = str(tmp_path / "run-events.jsonl")
        log = EventLog(base, run_id="only")
        log.emit("done", ntasks=0, heartbeats=0)
        log.close()
        assert main(["monitor", base]) == 0
        assert "run-events.only.jsonl" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_help_names_exactly_the_registered_commands(self):
        """``repro --help`` prints the module docstring; its bullet list is
        the sub-parsers, no more (a deleted ``trace``) and no fewer."""
        import argparse
        import re

        parser = build_parser()
        (sub,) = (a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
        named = re.findall(r"^\* ``(\w+)``", parser.description, flags=re.M)
        assert sorted(named) == sorted(sub.choices)

    def test_explain_band_help_names_the_audit_default(self):
        import argparse

        from repro.perf.audit import DEFAULT_BAND

        (sub,) = (a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        help_text = " ".join(sub.choices["explain"].format_help().split())
        lo, hi = DEFAULT_BAND
        assert f"(default {lo:g}:{hi:g})" in help_text


class TestAdvisor:
    def _builder(self):
        mol = alkane(12)

        def build(cand):
            occ, ao = cand
            prob = build_abcd_problem(
                mol, TilingVariant(f"{occ}x{ao}", occ, ao), seed=0
            )
            return prob.t_shape, prob.v_shape

        return build

    def test_recommendation_is_minimum(self):
        rec = recommend_tiling(
            self._builder(), [(6, 14), (4, 8), (3, 5)], summit(1)
        )
        assert rec.best.time == min(c.time for c in rec.candidates)
        assert len(rec.candidates) == 3

    def test_labels_and_rows(self):
        rec = recommend_tiling(
            self._builder(), [(4, 8), (3, 5)], summit(1), labels=["fine", "coarse"]
        )
        rows = rec.table_rows()
        assert rows[0][0] == "fine"
        assert any("best" in r[-1] for r in rows)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            recommend_tiling(self._builder(), [], summit(1))


class TestD2d:
    def test_sharing_never_slower_and_fraction_bounds(self):
        from repro.core import psgemm_plan
        from repro.core.analytic import simulate
        from repro.core.d2d import (
            d2d_effective_bandwidth,
            duplicated_traffic_fraction,
        )
        from repro.sparse import random_shape_with_density
        from repro.tiling import random_tiling

        rows = random_tiling(600, 40, 160, seed=0)
        inner = random_tiling(3000, 40, 160, seed=1)
        a = random_shape_with_density(rows, inner, 0.5, seed=2)
        b = random_shape_with_density(inner, inner, 0.5, seed=3)
        machine = summit(1)
        plan = psgemm_plan(a, b, machine, p=1)
        off = simulate(plan, machine, use_d2d=False)
        on = simulate(plan, machine, use_d2d=True)
        assert on.makespan <= off.makespan + 1e-12

        m = a.rows.sizes.astype(np.int64)
        k = a.cols.sizes.astype(np.int64)
        for proc in plan.procs:
            frac = duplicated_traffic_fraction(
                proc, a.ntile_cols, m, k, plan.grid.gpus_per_proc
            )
            assert 0.0 <= frac < 1.0

    def test_effective_bandwidth_blend(self):
        assert d2d_eff(10e9, 40e9, 0.0) == pytest.approx(10e9)
        assert d2d_eff(10e9, 40e9, 1.0) == pytest.approx(40e9)
        mid = d2d_eff(10e9, 40e9, 0.5)
        assert 10e9 < mid < 40e9


def d2d_eff(host, d2d, frac):
    from repro.core.d2d import d2d_effective_bandwidth

    return d2d_effective_bandwidth(host, d2d, frac)
