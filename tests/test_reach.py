"""The import-reachability gate (``tools/reach.py``, ``make reach``)."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def run_reach(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120
    )


def test_names_the_orphan_and_the_reexport_only_module(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from pkg.kept import f\nfrom pkg.reexported import g\n"
    )
    (pkg / "kept.py").write_text("def f(): pass\n")
    (pkg / "reexported.py").write_text("def g(): pass\n")
    (pkg / "orphan.py").write_text("from pkg.kept import f\n")
    (pkg / "api.py").write_text("from . import f\n")  # resolves to pkg.kept
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from pkg.api import f\n")

    out = run_reach("--root", str(tmp_path), "scripts=scripts/*.py")
    assert out.returncode == 1, out.stdout + out.stderr
    unreachable, _, reexported = out.stdout.partition("reached only through")
    assert "every entry point: 1 modules" in unreachable and "src/pkg/orphan.py" in unreachable
    assert "re-export: 1 modules" in reexported and "src/pkg/reexported.py" in reexported
    assert "kept.py" not in out.stdout and "api.py" not in out.stdout

    # Named as an entry point with its reason, a module is kept.
    kept = run_reach("--root", str(tmp_path), "scripts=scripts/*.py",
                     "oracle=src/pkg/orphan.py,src/pkg/reexported.py")
    assert kept.returncode == 0, kept.stdout + kept.stderr

    typo = run_reach("--root", str(tmp_path), "scripts=scripts/nope*.py")
    assert typo.returncode != 0 and "matches nothing" in typo.stderr


def test_repository_has_no_unreached_module():
    out = run_reach()
    assert out.returncode == 0, out.stdout + out.stderr
    assert "unreachable from every entry point: 0 modules" in out.stdout
    assert "re-export: 0 modules" in out.stdout
