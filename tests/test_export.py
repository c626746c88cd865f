"""Tests for the JSON experiment export."""

import contextlib
import io
import json

import pytest

from repro.experiments import export
from repro.experiments.export import mpqc_data, scaling_data, table1_data


@pytest.fixture(scope="module")
def cli_export(tmp_path_factory):
    """One quick-scale ``repro export`` run, end to end through the CLI,
    shared by every test of the whole artifact: its exit code, stdout, the
    file it wrote, and the dict ``export_all`` returned to it."""
    from repro.cli import main

    real, returned = export.export_all, {}

    def export_all(*args, **kwargs):
        returned.update(real(*args, **kwargs))
        return returned

    out = str(tmp_path_factory.mktemp("export") / "r.json")
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(export, "export_all", export_all)
        code = main(["export", "-o", out, "--gpus", "3", "12"])
    return code, stdout.getvalue(), out, returned


class TestExport:
    def test_table1_structure(self):
        d = table1_data()
        assert set(d) == {"v1", "v2", "v3"}
        for v in d.values():
            assert v["tasks"] >= v["tasks_opt"] > 0
            assert 0 < v["density_v"] < 1

    def test_fig2_points(self, cli_export):
        pts = cli_export[3]["fig2"]
        assert len(pts) == 15  # 3 sizes x 5 densities
        for p in pts:
            assert p["parsec_tflops"] > 0
            assert p["dbcsr_feasible"] in (True, False)
            if p["dbcsr_feasible"]:
                assert p["dbcsr_tflops"] > 0
            else:
                assert p["dbcsr_tflops"] is None

    def test_scaling_points(self):
        d = scaling_data(gpu_counts=(3, 12))
        for v, series in d.items():
            assert [p["gpus"] for p in series] == [3, 12]
            assert series[0]["time"] > series[1]["time"]

    def test_mpqc_rows(self):
        rows = mpqc_data()
        assert [r["nodes"] for r in rows] == [8, 16]
        assert all(r["speedup"] > 1 for r in rows)

    def test_export_all_roundtrip(self, cli_export):
        _, _, path, data = cli_export
        with open(path) as f:
            back = json.load(f)
        assert back["meta"]["paper"].startswith("Herault")
        assert back["table1"].keys() == data["table1"].keys()
        assert len(back["fig2"]) == len(data["fig2"])

    def test_export_cli(self, cli_export):
        code, stdout, out, _ = cli_export
        assert code == 0
        assert "wrote" in stdout
        json.load(open(out))
