#!/usr/bin/env python3
"""Who reaches this module, and who names this function?  Import reachability of
the packages under ``src/`` from a declared list of entry points, down to their
top-level names (``make reach``; stdlib ``ast`` only).

Two closures are walked from each entry point.  *Loaded* is what Python
executes: every import statement, plus the ``__init__`` of every package on
the way and whatever those ``__init__`` files import.  *Used* follows only
imports somebody wrote on purpose: ``from pkg import name`` resolves through
``pkg/__init__.py`` to the module that defines ``name``, and an ``__init__``
that merely runs on the way contributes nothing.  A module no entry point
loads is unreachable; one that is loaded but not used is kept alive by a
package re-export alone.  A top-level ``def`` or ``class`` of a loaded module
(an entry file's own names are its surface) is dead when no loaded or entry file
names it: an ``ast.Name``, an ``ast.Attribute`` or a ``from ... import`` counts,
while its own definition, ``__all__`` strings and the imports of a package
``__init__`` do not.  Each finding fails the gate.  Tests are deliberately not
entry points: "only its own test uses it" is the finding.
"""

from __future__ import annotations

import argparse
import ast
import functools
import sys
from pathlib import Path

#: group -> globs relative to the repository root.  A module the paper's
#: text needs, or a reference implementation tests use as an oracle, is kept
#: by naming it here with its reason — not by a test.
ENTRY_POINTS = {
    "api": ["src/repro/core/psgemm.py", "src/repro/serve/__init__.py", "src/repro/dist/__init__.py"],
    "cli": ["src/repro/cli.py", "src/repro/__main__.py"],
    "bench-e2e": ["benchmarks/e2e/*.py"],
    "bench-tools": ["benchmarks/tile_sweep.py", "benchmarks/serve_job_phases.py"],
    # Figs. 2-9, Table 1, the Section 5.2 CPU comparison and their shared fixtures.
    "paper": [
        "benchmarks/conftest.py",
        "benchmarks/bench_fig*.py",
        "benchmarks/bench_table1_traits.py",
        "benchmarks/bench_mpqc_cpu_comparison.py",
    ],
    # What README.md tells a user to run (`make examples`).  Keeps
    # chem/ccsd.py: the paper's usage pattern of Section 2 — one ABCD
    # contraction per CCSD iteration, V fixed, T refined 10-20 times.
    "examples": ["examples/*.py"],
}

#: "module:name" -> reason.  A top-level name no entry point's closure names is
#: kept by declaring it here with its reason, as a module is kept by an entry
#: point — not because a test uses it.
KEEP = {
    "repro.sparse.gemm_ref:gemm_against_dense":
        "the dense oracle every executor's tests compare a block-sparse product against",
}


class Reach:
    def __init__(self, root: Path):
        self.root = root
        self.modules: dict[str, Path] = {}
        for path in sorted((root / "src").rglob("*.py")):
            parts = path.relative_to(root / "src").with_suffix("").parts
            self.modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        self.names = {path: name for name, path in self.modules.items()}

    @functools.cache
    def tree(self, path: Path) -> ast.Module:
        return ast.parse(path.read_text(), str(path))

    @functools.cache
    def imports(self, path: Path) -> list[tuple[str, str | None, str | None]]:
        """``(module, imported name, bound name)`` per import in ``path``, anywhere in the file."""
        me = self.names.get(path, "")  # "" for an entry file outside src/: its relative imports are skipped
        package = (me if path.name == "__init__.py" else me.rpartition(".")[0]).split(".")
        found = []
        for node in ast.walk(self.tree(path)):
            if isinstance(node, ast.Import):
                found += [(a.name, None, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (me or not node.level):
                base = package[: len(package) + 1 - node.level] if node.level else []
                base = ".".join(base + ([node.module] if node.module else []))
                found += [(base, a.name, a.asname or a.name) for a in node.names]
        return found

    def named(self, base: str, name: str | None, seen=()) -> set[Path]:
        """The package files one import names on purpose."""
        if base not in self.modules:
            return set()
        if name and f"{base}.{name}" in self.modules:
            return {self.modules[f"{base}.{name}"]}
        init = self.modules[base]
        if name and init.name == "__init__.py" and (base, name) not in seen:
            hits = set()
            for b, n, bound in self.imports(init):
                if n and bound == name:
                    hits |= self.named(b, n, (*seen, (base, name)))
            if hits:
                return hits
        return {init}

    def packages(self, dotted: str | None) -> set[Path]:
        """``dotted`` and the ``__init__`` of each package it sits in, where they exist."""
        parts = dotted.split(".") if dotted else []
        return {self.modules[m] for i in range(len(parts)) if (m := ".".join(parts[: i + 1])) in self.modules}

    def closure(self, entries: list[Path], used: bool) -> set[Path]:
        """Package files reached from the entry files."""
        seen: set[Path] = set()
        stack = list(entries)
        while stack:
            path = stack.pop()
            if path in seen:
                continue
            seen.add(path)
            for base, name, _ in self.imports(path):
                stack += self.named(base, name) if used else self.packages(f"{base}.{name}" if name else base)
            if not used:  # its packages' __init__ files run first
                stack += self.packages(self.names.get(path))
        return seen & self.names.keys()

    def mentions(self, path: Path) -> set[str]:
        """The names ``path`` uses; a package ``__init__``'s imports are re-exports, not uses."""
        found = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(self.tree(path)) if isinstance(n, (ast.Name, ast.Attribute))}
        if path.name != "__init__.py":
            found |= {name for _, name, _ in self.imports(path) if name}
        return found

    def definitions(self, path: Path) -> dict[str, int]:
        """Top-level ``def`` / ``class`` names of ``path`` and their line counts."""
        return {node.name: node.end_lineno - min(d.lineno for d in [node, *node.decorator_list]) + 1
                for node in self.tree(path).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def lines(paths) -> int:
    return sum(p.read_text().count("\n") for p in paths)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="repository to walk (default: this one), e.g. a checkout of the parent commit")
    ap.add_argument("entry", nargs="*", metavar="GROUP=GLOB[,GLOB...]", help="replace the declared ENTRY_POINTS")
    args = ap.parse_args(argv)
    groups = {g: s.split(",") for g, _, s in (e.partition("=") for e in args.entry)} or ENTRY_POINTS

    reach = Reach(args.root.resolve())
    everything, loaded, used, roots = set(reach.names), set(), set(), set()
    print(f"{'entry-point group':<20}{'modules':>8}{'lines':>8}")
    for group, specs in groups.items():
        entries = []
        for spec in specs:
            hits = sorted(reach.root.glob(spec))
            if not hits:
                sys.exit(f"reach: entry point {spec!r} matches nothing under {reach.root}")
            entries += hits
        mine = reach.closure(entries, used=False)
        loaded |= mine
        used |= reach.closure(entries, used=True)
        roots |= set(entries)
        print(f"{group:<20}{len(mine):>8}{lines(mine):>8}")
    print(f"{'any group':<20}{len(loaded):>8}{lines(loaded):>8}   of {len(everything)} modules, "
          f"{lines(everything)} lines in src/")

    named = set().union(*map(reach.mentions, loaded | roots))
    findings = {  # an __init__ is loaded because its package is, never because of a re-export
        ("unreachable from every entry point", "modules"):
            {(str(p.relative_to(reach.root)), lines([p])) for p in everything - loaded},
        ("reached only through a package __init__ re-export", "modules"):
            {(str(p.relative_to(reach.root)), lines([p])) for p in loaded - used if p.name != "__init__.py"},
        ("named by no file an entry point loads", "names"):
            {(f"{p.relative_to(reach.root)}:{name}", n)
             for p in loaded - roots for name, n in reach.definitions(p).items()
             if name not in named and f"{reach.names[p]}:{name}" not in KEEP},
    }
    for (title, unit), found in findings.items():
        print(f"{title}: {len(found)} {unit}, {sum(n for _, n in found)} lines")
        for what, n in sorted(found):
            print(f"  {what}  {n}")
    return 1 if any(findings.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
