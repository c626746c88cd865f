"""CLI contract for ``repro analyze`` / ``repro lint``: exit codes + output."""

import pytest

from repro.cli import main


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert main(["lint", str(f)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text(
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "try:\n"
            "    pass\n"
            "except:\n"
            "    pass\n"
        )
        assert main(["lint", str(f)]) == 1
        out = capsys.readouterr().out
        assert "[L303]" in out and "[L305]" in out
        assert "2 finding(s)" in out
        assert f"{f}:2" in out

    def test_default_path_is_source_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_inspector_plan_analyzes_clean(self, capsys):
        assert main(["analyze", "--procs", "2", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "analyzed plan: 2 rank(s)" in out
        assert "no findings" in out


class TestSelftestFaultSpec:
    def test_out_of_range_fault_rank_rejected_early(self):
        """--inject-fault is validated against --procs before any worker
        process or plan is built."""
        with pytest.raises(ValueError, match="out of range"):
            main(["selftest", "--procs", "2", "--inject-fault", "5:1"])


class TestLintNoFilesMatched:
    def test_missing_path_warns_and_exits_zero(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 0
        out = capsys.readouterr().out
        assert "no files matched" in out
        assert "no findings" in out

    def test_empty_directory_warns_and_exits_zero(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path)]) == 0
        assert "no files matched" in capsys.readouterr().out


class TestModelCheckCommand:
    def test_analyze_model_check_passes_clean(self, capsys):
        """The shipped protocol model-checks clean from the CLI — the same
        gate `make model-check` runs in CI."""
        assert main(["analyze", "--procs", "2", "--nodes", "2",
                     "--model-check"]) == 0
        out = capsys.readouterr().out
        assert "model check:" in out
        assert "scenario(s)" in out and "state(s) explored" in out
        assert "no findings" in out


class TestRulesCommand:
    def test_prints_catalog(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "# Analysis rule catalog" in out
        for rule_id in ("P101", "L399", "M401"):
            assert f"`{rule_id}`" in out

    def test_check_detects_drift_and_accepts_fresh(self, tmp_path, capsys):
        stale = tmp_path / "rules.md"
        stale.write_text("# outdated\n")
        assert main(["rules", "--check", str(stale)]) == 1
        assert "drifted" in capsys.readouterr().out
        assert main(["rules", "-o", str(stale)]) == 0
        assert main(["rules", "--check", str(stale)]) == 0

    def test_committed_catalog_matches_registry(self):
        """docs/rules.md must be regenerated (make docs-rules) whenever the
        registry changes — CI enforces exactly this check."""
        import pathlib

        import repro

        repo = pathlib.Path(repro.__file__).resolve().parents[2]
        catalog = repo / "docs" / "rules.md"
        if not catalog.exists():  # running from an installed package
            pytest.skip("docs/rules.md not present in this layout")
        assert main(["rules", "--check", str(catalog)]) == 0
