"""The import-reachability gate (``tools/reach.py``, ``make reach``)."""

import importlib.util
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


def test_names_the_definition_nothing_names(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    monkeypatch.setattr(reach, "KEEP", {"pkg.mod:oracle": "the reference the tests compare against"})
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from pkg.mod import dead, used\n")
    mod = pkg / "mod.py"
    mod.write_text(
        '__all__ = ["dead", "oracle", "used"]\n\n'
        "def used(): pass\n\n"
        "def dead():\n    pass\n\n"
        "class oracle: pass\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import used\nused()\n")
    argv = ["--root", str(tmp_path), "scripts=scripts/*.py"]

    assert reach.main(argv) == 1
    out = capsys.readouterr().out
    assert "named by no file an entry point loads: 1 names, 2 lines" in out
    assert "src/pkg/mod.py:dead" in out
    assert ":used" not in out and ":oracle" not in out

    mod.write_text(mod.read_text().replace("def dead():\n    pass\n\n", ""))
    assert reach.main(argv) == 0, capsys.readouterr().out


def test_names_the_member_nothing_outside_its_class_names(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    monkeypatch.setattr(reach, "KEEP", {"pkg.mod:Machine.kept": "the paper's reference path"})
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    mod = pkg / "mod.py"
    mod.write_text(
        "import ast\n\n"
        "class Machine:\n"
        "    def used(self): pass\n\n"  # named by an attribute in run.py
        "    def lonely(self, n):\n"  # named only inside its own class
        "        return self.lonely(n - 1) if n else 0\n\n"
        "    def on_tick(self): pass\n\n"  # named only by a string: the row.action dispatch
        "    def kept(self): pass\n\n"  # in KEEP
        "class Walker(ast.NodeVisitor):\n"
        "    def visit_Call(self, node): pass\n"  # the base class dispatches it
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from pkg.mod import Machine, Walker\n"
        "ROWS = ('on_tick',)\n"
        "m = Machine()\n"
        "m.used()\n"
        "for action in ROWS:\n"
        "    getattr(m, action)()\n"
        "Walker()\n"
    )
    argv = ["--root", str(tmp_path), "scripts=scripts/*.py"]

    assert reach.main(argv) == 1
    out = capsys.readouterr().out
    assert "outside its class: 1 members, 2 lines" in out
    assert "src/pkg/mod.py:Machine.lonely" in out
    for live in ("used", "on_tick", "kept", "visit_Call"):
        assert f".{live}" not in out

    mod.write_text(mod.read_text().replace(
        "    def lonely(self, n):\n        return self.lonely(n - 1) if n else 0\n\n", ""
    ))
    assert reach.main(argv) == 0, capsys.readouterr().out


def test_names_the_field_only_a_test_sets(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    monkeypatch.setattr(reach, "KEEP", {"pkg.mod:Options.hook": "a mutation hook"})
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    mod = pkg / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass, replace\n\n"
        "@dataclass(frozen=True)\n"
        "class Options:\n"
        "    name: str\n"  # no default: the caller must set it
        "    first: int = 0\n"  # set positionally by run.py
        "    second: int = 0\n"  # set by keyword through dataclasses.replace
        "    third: int = 0\n"  # set by keyword in a classmethod
        "    knob: float = 0.5\n"  # only the test sets it
        "    hook: bool = False\n\n"  # in KEEP
        "    @classmethod\n"
        "    def preset(cls):\n"
        "        return cls('p', third=3)\n\n"
        "@dataclass\n"
        "class Mutable:\n"
        "    loose: int = 0\n"  # not frozen: out of scope
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Options\nOptions('t', knob=0.9)\n"
    )
    (tmp_path / "scripts").mkdir()
    run = tmp_path / "scripts" / "run.py"
    run.write_text(
        "from pkg.mod import Mutable, Options, replace\n"
        "o = replace(Options('x', 1), second=2)\n"
        "Options.preset()\n"
        "Mutable()\n"
    )
    argv = ["--root", str(tmp_path), "scripts=scripts/*.py"]

    assert reach.main(argv) == 1
    out = capsys.readouterr().out
    assert "set by no file an entry point loads: 1 fields, 1 lines" in out
    assert "src/pkg/mod.py:Options.knob" in out
    for live in ("name", "first", "second", "third", "hook", "loose"):
        assert f".{live}" not in out

    run.write_text(run.read_text() + "Options('y', *(1, 2, 3, 0.7))\n")
    assert reach.main(argv) == 0, capsys.readouterr().out


def test_repository_has_no_unreached_module():
    out = run_reach()
    assert out.returncode == 0, out.stdout + out.stderr
    assert "unreachable from every entry point: 0 modules" in out.stdout
    assert "re-export: 0 modules" in out.stdout
    assert "named by no file an entry point loads: 0 names" in out.stdout
    assert "outside its class: 0 members" in out.stdout
    assert "set by no file an entry point loads: 0 fields" in out.stdout
