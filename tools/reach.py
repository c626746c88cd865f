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
``__init__`` do not.  A ``def`` or property inside a class of such a module is
dead when no loaded or entry file names it: an ``ast.Attribute``, an
``ast.Name``, a keyword or a string constant counts (the protocol machines
dispatch on ``getattr(self, row.action)``), while a name said inside the
member's own class counts only when a live member of that class says it.
Dunders, and the ``visit_*`` methods of an ``ast.NodeVisitor`` subclass (the
base class dispatches them), are out of scope.  A field with a default of a
frozen dataclass of such a module is a knob nobody turns when no loaded or entry
file sets it: a keyword of that name in any call (construction or
``dataclasses.replace``) counts, and so does a call of the class with enough
positional arguments to reach it.  Each finding fails the gate.
Tests are deliberately not entry points: "only its own test uses it" is the
finding.
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

#: "module:name" or "module:Class.member" -> reason.  A top-level name or a
#: class member no entry point's closure names is kept by declaring it here
#: with its reason, as a module is kept by an entry point — not because a test
#: uses it.
KEEP = {
    "repro.sparse.gemm_ref:gemm_against_dense":
        "the dense oracle every executor's tests compare a block-sparse product against",
    "repro.dist.protocol:ProtocolModel.without":
        "the protocol model's row-deletion mutant, beside its max_retries / allow_reassign / "
        "journal_after_store mutation fields: an M4xx rule no mutant convicts proves nothing",
    **{f"repro.dist.protocol:ProtocolModel.{name}":
           "a mutation hook of the protocol model: the M4xx suite sets it to convict a broken "
           "protocol, and the model checker runs the default"
       for name in ("work_units", "max_retries", "allow_reassign", "max_extra_beats",
                    "journal_after_store")},
    **{f"repro.chem.screening:ScreeningModel.{name}":
           "a parameter of the sparsity model, fitted once to Table 1 (docs/calibration.md); "
           "the chemistry tests vary the cutoffs to check each moves the density it governs"
       for name in ("v_cutoff", "t_cutoff", "occ_pair_cutoff", "decay")},
    "repro.machine.spec:MachineSpec.inspection_rate":
        "a machine constant of docs/calibration.md beside the network fields the machine presets "
        "set; a preset for another machine sets it too",
    **{f"repro.machine.cpu:CpuModel.{name}":
           "a parameter of the Section 5.2 CPU yardstick, pinned with `efficiency` by the paper's "
           "two MPQC timings (308 s / 158 s); a model of another CPU sets all three"
       for name in ("peak_per_node", "parallel_efficiency_decay")},
    "repro.machine.spec:MachineSpec.aggregate_gemm_peak":
        "the paper's #GPUs x 7.2 Tflop/s yardstick, read by benchmarks/bench_frontier_projection.py "
        "(`make bench`), a side benchmark outside the entry points",
}

VISITORS = {"NodeVisitor", "NodeTransformer"}


def span(node) -> int:
    """Lines of a definition, its decorators included."""
    return node.end_lineno - min(d.lineno for d in [node, *node.decorator_list]) + 1


def said(node) -> str | None:
    """The name one node says: an identifier, an attribute, a keyword or a string constant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.keyword):
        return node.arg
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


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
        return {node.name: span(node) for node in self.tree(path).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}

    @functools.cache
    def sayings(self, path: Path) -> list[tuple[str, tuple[ast.ClassDef, str] | None]]:
        """Every name ``path`` says, with the innermost class member it is said in (``None`` outside one)."""
        found = []

        def walk(node, owner):
            if isinstance(node, ast.ClassDef):
                for child in ast.iter_child_nodes(node):
                    member = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    walk(child, (node, child.name) if member else owner)
                return
            if (name := said(node)) is not None:
                found.append((name, owner))
            for child in ast.iter_child_nodes(node):
                walk(child, owner)

        walk(self.tree(path), None)
        return found

    def members(self, path: Path) -> list[tuple[ast.ClassDef, str, int, bool]]:
        """``(class, member, lines, dispatched by Python)`` of every ``def`` or property inside a class
        of ``path``: Python calls dunders, and ``ast.NodeVisitor`` calls its subclasses' ``visit_*``."""
        classes = [n for n in ast.walk(self.tree(path)) if isinstance(n, ast.ClassDef)]
        visitors = set()
        for node in classes:  # file order: a base defined in the same file comes first
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
            if bases & (VISITORS | visitors):
                visitors.add(node.name)
        return [(node, f.name, span(f), (f.name.startswith("__") and f.name.endswith("__"))
                 or (node.name in visitors and f.name.startswith("visit_")))
                for node in classes for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]


def dead_members(reach: Reach, modules: set[Path], readers: set[Path]) -> set[tuple[str, int]]:
    """Members of ``modules``' classes that no file in ``readers`` names outside their class,
    nor any live member of their class."""
    said_by: dict[tuple[ast.ClassDef, str] | None, set[str]] = {}
    total: dict[str, int] = {}
    inside: dict[tuple[ast.ClassDef, str], int] = {}
    for path in readers:
        for name, owner in reach.sayings(path):
            said_by.setdefault(owner, set()).add(name)
            total[name] = total.get(name, 0) + 1
            if owner:
                inside[owner[0], name] = inside.get((owner[0], name), 0) + 1
    dead = set()
    for path in modules:
        by_class: dict[ast.ClassDef, dict[str, tuple[int, bool]]] = {}
        for cls, name, n, by_python in reach.members(path):
            by_class.setdefault(cls, {})[name] = (n, by_python)
        for cls, members in by_class.items():
            live = {m for m, (_, by_python) in members.items()
                    if by_python or total.get(m, 0) > inside.get((cls, m), 0)}
            stack = list(live)
            while stack:
                for m in said_by.get((cls, stack.pop()), set()) & members.keys() - live:
                    live.add(m)
                    stack.append(m)
            dead |= {(f"{path.relative_to(reach.root)}:{cls.name}.{m}", n) for m, (n, _) in members.items()
                     if m not in live and f"{reach.names[path]}:{cls.name}.{m}" not in KEEP}
    return dead


def frozen(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and said(d.func) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
               for d in cls.decorator_list)


def unset_fields(reach: Reach, modules: set[Path], readers: set[Path]) -> set[tuple[str, int]]:
    """Defaulted fields of ``modules``' frozen dataclasses that no file in ``readers`` sets."""
    keywords: set[str] = set()
    positional: dict[str, float] = {}  # class name -> most positional arguments any call passes

    def construct(name, call):
        n = float("inf") if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
        positional[name] = max(positional.get(name, 0), n)

    for path in readers:
        for node in ast.walk(reach.tree(path)):
            if isinstance(node, ast.Call):
                keywords |= {k.arg for k in node.keywords if k.arg}
                construct(said(node.func), node)
            elif isinstance(node, ast.ClassDef):  # ``cls(...)`` in its own classmethods
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and said(call.func) == "cls":
                        construct(node.name, call)
    unset = set()
    for path in modules:
        for cls in (n for n in ast.walk(reach.tree(path)) if isinstance(n, ast.ClassDef) and frozen(n)):
            fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                      and "ClassVar" not in ast.unparse(n.annotation)]
            unset |= {(f"{path.relative_to(reach.root)}:{cls.name}.{f.target.id}", f.end_lineno - f.lineno + 1)
                      for i, f in enumerate(fields)
                      if f.value is not None and f.target.id not in keywords
                      and positional.get(cls.name, 0) <= i
                      and f"{reach.names[path]}:{cls.name}.{f.target.id}" not in KEEP}
    return unset


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
        ("named by no file an entry point loads, outside its class", "members"):
            dead_members(reach, loaded - roots, loaded | roots),
        ("set by no file an entry point loads", "fields"):
            unset_fields(reach, loaded - roots, loaded | roots),
    }
    for (title, unit), found in findings.items():
        print(f"{title}: {len(found)} {unit}, {sum(n for _, n in found)} lines")
        for what, n in sorted(found):
            print(f"  {what}  {n}")
    return 1 if any(findings.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
