"""Tests for the experiment drivers and report formatting."""

import numpy as np
import pytest

from repro.chem import TilingVariant, alkane, build_abcd_problem
from repro.experiments.report import ascii_spy, fmt_table
from repro.experiments.synthetic import run_synthetic_point
from repro.machine import summit


def small_problem():
    return build_abcd_problem(alkane(15), TilingVariant("t", 4, 10), seed=0)


class TestReport:
    def test_fmt_table_alignment(self):
        out = fmt_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # rectangular

    def test_ascii_spy_shapes(self):
        m = np.zeros((100, 200))
        m[:10, :20] = 1.0
        art = ascii_spy(m, width=40, height=10)
        lines = art.splitlines()
        assert len(lines) <= 10
        assert "@" in lines[0] or "%" in lines[0]
        assert art.splitlines()[-1].strip(" .") == ""


class TestSyntheticDriver:
    def test_point_structure(self):
        p = run_synthetic_point(
            12_000, 0.5, m=6_000, machine=summit(2), seed=0,
            p_candidates=(1, 2), with_dbcsr=True,
        )
        assert p.flops > 0
        assert p.parsec_perf > 0
        assert p.intensity > 0
        assert p.parsec_p in (1, 2)
        assert p.dbcsr is not None
        row = p.fig2_row()
        assert row[0] == 12_000

    def test_without_dbcsr(self):
        p = run_synthetic_point(
            12_000, 1.0, m=6_000, machine=summit(2), seed=0,
            p_candidates=(1,), with_dbcsr=False,
        )
        assert p.dbcsr is None
        assert p.fig2_row()[-1] == "-"


class TestC65Drivers:
    def test_scaling_series_small(self):
        # Use the real driver machinery on a fast variant.
        from repro.experiments.c65h132 import machine_for_gpus

        prob = small_problem()
        from repro.core import psgemm_simulate

        t_prev = None
        for g in (3, 12):
            _, rep = psgemm_simulate(
                prob.t_shape, prob.v_shape, machine_for_gpus(g), p=1
            )
            if t_prev is not None:
                assert rep.makespan < t_prev
            t_prev = rep.makespan

    def test_machine_for_gpus_validation(self):
        from repro.experiments.c65h132 import machine_for_gpus

        assert machine_for_gpus(3).total_gpus == 3
        assert machine_for_gpus(12).total_gpus == 12
        with pytest.raises(ValueError):
            machine_for_gpus(13)


class TestC65FigureHelpers:
    def test_fig5_density_maps_small(self):
        from repro.experiments.c65h132 import fig5_density_maps

        maps = fig5_density_maps("v3", grid=16)
        assert set(maps) == {"T", "V", "R"}
        for m in maps.values():
            assert m.ndim == 2
            assert 0.0 <= m.min() and m.max() <= 1.0 + 1e-9
            assert m.sum() > 0

    def test_fig6_tile_mb_positive(self):
        from repro.experiments.c65h132 import fig6_tile_mb

        mb = fig6_tile_mb("v3")
        assert (mb > 0).all()
        # v3's tile grid is 32^2 x 32^2.
        assert mb.size == (32**2) ** 2

    def test_table1_text_contains_all_variants(self):
        from repro.experiments.c65h132 import table1_text

        txt = table1_text()
        for col in ("v1 (ours)", "v2 (ours)", "v3 (ours)", "paper"):
            assert col in txt
