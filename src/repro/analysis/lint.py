"""AST concurrency lint for the repro source tree.

Custom :mod:`ast` rules for the hazards that have actually bitten (or
nearly bitten) the multi-process executor — the classes of bug a generic
linter does not know about:

* **L301** — a shared-memory segment (``SharedMemory(...)`` or a
  ``TileArena.pack/allocate/attach`` factory) created outside any ``try``
  whose ``finally``/``except`` calls ``.close()``/``.unlink()``, and handed
  to nobody: neither returned at once nor stored on an *owner* — ``self.x =
  ...``, ``self.x[k] = ...`` or ``self.x.append(...)`` inside a class one of
  whose methods unlinks (a run's coordinator until teardown, a worker pool
  until it is terminated).  Segments outlive the process; an exception
  between creation and the cleanup path leaks them until reboot.
* **L302** — a ``Queue``/``Process``/``Pool`` created directly on the
  ``multiprocessing`` module.  Start-method defaults differ per platform
  (fork vs spawn); all primitives must come from an explicit
  ``multiprocessing.get_context(...)`` so the executor controls it.
* **L303** — legacy global-state numpy RNG calls (``np.random.seed``,
  ``np.random.rand``, ...).  Global streams break the per-``(seed, tile)``
  reproducibility the bit-for-bit crosschecks rely on; use
  :mod:`repro.util.rng`.
* **L304** — ``object.__setattr__(...)``: mutating a frozen dataclass
  defeats the immutability shared plans rely on across processes.
* **L305** — bare ``except:``: swallows ``KeyboardInterrupt`` /
  ``SystemExit`` inside worker loops, turning a Ctrl-C into a hang.
* **L306** — ``time.time()`` inside :mod:`repro.dist` (any file under a
  ``dist`` directory): the executor's clocks and deadlines are
  run-relative, and a stepping wall clock (NTP) can fire or suppress the
  fault-recovery deadline or produce negative durations.  Use
  ``time.monotonic()``; the one permitted wall stamp (report labeling /
  clock alignment) carries a ``# repro: noqa[L306]``.
* **L307** — a ``threading.Thread`` created inside :mod:`repro.dist`
  without ``daemon=True``.  Worker helper threads (heartbeat, prefetch)
  must never block interpreter exit: the coordinator reaps failed
  workers with ``terminate``/``join``, and a lingering non-daemon thread
  wedges the process — exactly the hang the stall detector exists to
  kill, but self-inflicted.
* **L308** — ``open(...)`` or ``mmap.mmap(...)`` inside the ``dist`` or
  ``store`` trees outside a ``with`` statement, a cleanup ``try``
  (``.close()`` in ``finally``/``except``), or an immediate ``return``
  hand-off.  Workers are killed and restarted by design (fault
  injection, crash/resume); a descriptor opened without a guaranteed
  close path leaks across retries and — on the writeback path — can
  leave an unflushed journal or store object behind a crash.  A handle
  deliberately owned long-term by an object that closes it carries a
  ``# repro: noqa[L308]``.
* **L309** — a blocking ``.get()`` / ``.recv()`` call with no positional
  arguments, no ``timeout=`` and no ``block=False`` inside the ``serve``
  tree.  The serving layer outlives any single run; a scheduler or
  client blocked forever on a queue that a dead worker will never feed
  again hangs the whole service instead of failing one job.  Use
  ``timeout=...`` or the ``*_nowait`` forms; a deliberately unbounded
  wait carries a ``# repro: noqa[L309]``.  (Calls with positional
  arguments — ``dict.get(key)``, store ``get(ns, key)`` — are not
  blocking waits and are ignored.)

Suppression: append ``# repro: noqa[L301]`` (comma-separate ids, or
``noqa[all]``) to the offending line.  Suppressions are themselves
checked: a noqa whose rule does not fire on its line — the rule was
fixed, the code moved, or the id is a typo — is reported as **L399**
(stale-noqa).  L399 cannot be suppressed; the only fix is removing or
correcting the comment.  Only real ``#`` comments count: noqa-shaped
text inside a string or docstring (like the examples in this very
module) is extracted via :mod:`tokenize` and therefore ignored.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize

from repro.analysis.findings import AnalysisReport, Finding, Location
from repro.analysis.rules import get_rule

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")

#: Legacy global-stream functions of ``numpy.random``.
_LEGACY_RNG = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "random_integers", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "binomial",
}

#: Factories that hand back an owning handle to a shared-memory segment.
_SHM_FACTORIES = {"pack", "allocate", "attach"}
_SHM_FACTORY_OWNERS = {"TileArena", "cls"}

#: Multiprocessing primitives that bake in the ambient start method.
_MP_PRIMITIVES = {"Queue", "SimpleQueue", "JoinableQueue", "Process", "Pool"}


def _in_dist_tree(filename: str) -> bool:
    """Whether a path lies inside the distributed executor package."""
    parts = os.path.normpath(filename).replace("\\", "/").split("/")
    return "dist" in parts


def _in_store_tree(filename: str) -> bool:
    """Whether a path lies inside the persistent tile-store package."""
    parts = os.path.normpath(filename).replace("\\", "/").split("/")
    return "store" in parts


def _in_serve_tree(filename: str) -> bool:
    """Whether a path lies inside the serving-layer package."""
    parts = os.path.normpath(filename).replace("\\", "/").split("/")
    return "serve" in parts


def _noqa_rules(source: str) -> dict[int, set[str]]:
    """Per-line suppressed rule ids from ``# repro: noqa[...]`` comments.

    Extracted from real COMMENT tokens only, so noqa-shaped text inside
    a string literal or docstring neither suppresses anything nor trips
    the L399 stale-suppression check.
    """
    out: dict[int, set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m:
                out[tok.start[0]] = {
                    r.strip().upper() if r.strip() != "all" else "ALL"
                    for r in m.group(1).split(",") if r.strip()
                }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unreachable after a successful ast.parse; belt and braces
    return out


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a pure name chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _mp_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to the ``multiprocessing`` package itself."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "multiprocessing":
                    aliases.add(a.asname or "multiprocessing")
    return aliases


def _is_shm_creation(call: ast.Call) -> bool:
    chain = _attr_chain(call.func)
    if not chain:
        return False
    if chain[-1] == "SharedMemory":
        return True
    return (
        len(chain) >= 2
        and chain[-1] in _SHM_FACTORIES
        and chain[-2] in _SHM_FACTORY_OWNERS
    )


class _Walker(ast.NodeVisitor):
    """One pass collecting findings, tracking try/return context."""

    def __init__(self, filename: str):
        self.filename = filename
        self._in_dist = _in_dist_tree(filename)
        self._in_serve = _in_serve_tree(filename)
        self._lint_io = self._in_dist or _in_store_tree(filename)
        self.findings: list[Finding] = []
        # Stack of enclosing Try nodes that have a cleanup call
        # (.close()/.unlink()) in a finally or except block.
        self._cleanup_trys = 0
        self._in_return = 0
        # Enclosing classes (module level first), True for one with a method
        # that unlinks; and whether the expression being visited is stored on
        # such an owner.
        self._owner_classes: list[bool] = [False]
        self._in_owner_store = 0
        self._in_with_item = 0

    # -- helpers -------------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = get_rule(rule_id)
        self.findings.append(
            Finding(
                rule=rule_id,
                severity=rule.severity,
                location=Location(
                    file=self.filename, line=getattr(node, "lineno", None)
                ),
                message=message,
            )
        )

    @staticmethod
    def _has_cleanup(try_node: ast.Try) -> bool:
        regions: list[ast.AST] = list(try_node.finalbody)
        for handler in try_node.handlers:
            regions.extend(handler.body)
        for region in regions:
            for node in ast.walk(region):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("close", "unlink")
                ):
                    return True
        return False

    # -- visitors ------------------------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        protected = self._has_cleanup(node)
        if protected:
            self._cleanup_trys += 1
        # Handlers/finally themselves are not protected by this try.
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        if protected:
            self._cleanup_trys -= 1
        for handler in node.handlers:
            self.visit(handler)
        for stmt in node.finalbody:
            self.visit(stmt)

    def visit_Return(self, node: ast.Return) -> None:
        self._in_return += 1
        self.generic_visit(node)
        self._in_return -= 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._owner_classes.append(any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "unlink"
            for n in ast.walk(node)
        ))
        self.generic_visit(node)
        self._owner_classes.pop()

    def _on_owner(self, target: ast.AST) -> bool:
        """Whether ``target`` is ``self.x`` / ``self.x[...]`` in a class
        that unlinks what it holds."""
        if isinstance(target, ast.Subscript):
            target = target.value
        chain = _attr_chain(target)
        return len(chain) >= 2 and chain[0] == "self" and self._owner_classes[-1]

    def visit_Assign(self, node: ast.Assign) -> None:
        owned = any(self._on_owner(t) for t in node.targets)
        self._in_owner_store += owned
        self.generic_visit(node)
        self._in_owner_store -= owned

    def visit_With(self, node: ast.With) -> None:
        # Context-manager expressions are the sanctioned way to open a
        # resource — handles created there are exempt from L308.
        for item in node.items:
            self._in_with_item += 1
            self.visit(item.context_expr)
            self._in_with_item -= 1
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncWith = visit_With

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "L305",
                node,
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "catch a named exception (or at least 'except Exception')",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)

        if _is_shm_creation(node):
            if not (self._cleanup_trys or self._in_return or self._in_owner_store):
                self._emit(
                    "L301",
                    node,
                    f"shared-memory segment created by "
                    f"'{'.'.join(chain)}(...)' outside any try whose "
                    f"finally/except closes or unlinks it; a failure before "
                    f"cleanup leaks the segment until reboot",
                )

        # ``self.x.append(<creation>)`` stores its argument on the owner.
        owned = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "append"
            and self._on_owner(node.func.value)
        )
        self._in_owner_store += owned

        if (
            len(chain) == 2
            and chain[1] in _MP_PRIMITIVES
            and chain[0] in self._mp_aliases
        ):
            self._emit(
                "L302",
                node,
                f"'{chain[0]}.{chain[1]}(...)' uses the platform-default "
                f"start method; create it from an explicit "
                f"multiprocessing.get_context(...) instead",
            )

        if (
            len(chain) == 3
            and chain[0] in ("np", "numpy")
            and chain[1] == "random"
            and chain[2] in _LEGACY_RNG
        ):
            self._emit(
                "L303",
                node,
                f"legacy global RNG call '{'.'.join(chain)}(...)' breaks "
                f"seeded reproducibility; use "
                f"repro.util.rng.resolve_rng/spawn_rng",
            )

        if (
            self._in_dist
            and len(chain) == 2
            and chain[0] == "time"
            and chain[1] == "time"
        ):
            self._emit(
                "L306",
                node,
                "time.time() in repro.dist: run-relative clocks and "
                "deadlines must use time.monotonic() (a wall-clock step "
                "breaks deadlines and durations); suppress a deliberate "
                "wall stamp with # repro: noqa[L306]",
            )

        if (
            self._in_dist
            and chain
            and chain[-1] == "Thread"
            and (len(chain) == 1 or chain[0] == "threading")
        ):
            daemon = next(
                (kw.value for kw in node.keywords if kw.arg == "daemon"), None
            )
            if not (isinstance(daemon, ast.Constant) and daemon.value is True):
                self._emit(
                    "L307",
                    node,
                    "threading.Thread in repro.dist without daemon=True: a "
                    "non-daemon helper thread blocks interpreter exit and "
                    "wedges the coordinator's terminate/join reaping",
                )

        if self._lint_io:
            is_open = isinstance(node.func, ast.Name) and node.func.id == "open"
            is_mmap = (
                chain
                and chain[-1] == "mmap"
                and (len(chain) == 1 or chain[0] == "mmap")
            )
            if (
                (is_open or is_mmap)
                and not self._in_with_item
                and not self._cleanup_trys
                and not self._in_return
            ):
                what = "mmap.mmap" if is_mmap else "open"
                self._emit(
                    "L308",
                    node,
                    f"'{what}(...)' in the dist/store tree outside a 'with' "
                    f"statement, a cleanup try (close in finally/except), or "
                    f"an immediate return: a kill/crash between open and "
                    f"close leaks the descriptor across worker retries; "
                    f"suppress a deliberately long-lived handle with "
                    f"# repro: noqa[L308]",
                )

        if (
            self._in_serve
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "recv")
            and not node.args
        ):
            kwargs = {kw.arg: kw.value for kw in node.keywords}
            block_false = isinstance(
                kwargs.get("block"), ast.Constant
            ) and kwargs["block"].value is False
            if "timeout" not in kwargs and not block_false:
                self._emit(
                    "L309",
                    node,
                    f"blocking '.{node.func.attr}()' without timeout in the "
                    f"serve tree: the service outlives any run, and an "
                    f"unbounded wait on a queue a dead worker will never "
                    f"feed hangs it forever; pass timeout=... (or use the "
                    f"_nowait/block=False forms), or suppress a deliberate "
                    f"unbounded wait with # repro: noqa[L309]",
                )

        if (
            len(chain) == 2
            and chain[0] == "object"
            and chain[1] == "__setattr__"
        ):
            self._emit(
                "L304",
                node,
                "object.__setattr__ mutates a frozen dataclass; construct a "
                "new instance (dataclasses.replace) instead",
            )

        self.generic_visit(node)
        self._in_owner_store -= owned

    def run(self, tree: ast.Module) -> list[Finding]:
        self._mp_aliases = _mp_aliases(tree)
        self.visit(tree)
        return self.findings


def lint_source(source: str, filename: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns its (unsuppressed) findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as e:
        return [
            Finding(
                rule="L300",
                severity=get_rule("L300").severity,
                location=Location(file=filename, line=e.lineno),
                message=f"could not parse: {e.msg}",
            )
        ]
    findings = _Walker(filename).run(tree)
    noqa = _noqa_rules(source)
    kept = []
    for f in findings:
        suppressed = noqa.get(f.location.line or -1, set())
        if "ALL" in suppressed or f.rule in suppressed:
            continue
        kept.append(f)

    # L399: every suppression must earn its keep.  Checked against the
    # *raw* findings (before suppression), and appended after the
    # suppression filter, so L399 itself can never be noqa'd away.
    fired_by_line: dict[int, set[str]] = {}
    for f in findings:
        if f.location.line is not None:
            fired_by_line.setdefault(f.location.line, set()).add(f.rule)
    l399 = get_rule("L399")
    for lineno in sorted(noqa):
        fired = fired_by_line.get(lineno, set())
        for rid in sorted(noqa[lineno]):
            if rid == "ALL":
                if fired:
                    continue
                msg = ("'# repro: noqa[all]' suppresses nothing: no lint "
                       "rule fires on this line; remove the comment")
            else:
                try:
                    get_rule(rid)
                except KeyError:
                    msg = (f"'# repro: noqa[{rid}]' names an unknown rule "
                           f"{rid!r}; fix the id or remove the comment")
                else:
                    if rid in fired:
                        continue
                    msg = (f"'# repro: noqa[{rid}]' is stale: {rid} does "
                           f"not fire on this line; remove the comment")
            kept.append(Finding(
                rule="L399",
                severity=l399.severity,
                location=Location(file=filename, line=lineno),
                message=msg,
            ))
    return kept


def lint_paths(paths: list[str]) -> AnalysisReport:
    """Lint every ``.py`` file under the given files/directories."""
    report = AnalysisReport()
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                files.extend(
                    os.path.join(root, n) for n in sorted(names)
                    if n.endswith(".py")
                )
        elif os.path.isfile(path):
            files.append(path)
        # a path that exists as neither file nor directory matched
        # nothing: the caller (repro lint) warns on files_scanned == 0
    for fname in files:
        with open(fname, encoding="utf-8") as fh:
            report.findings.extend(lint_source(fh.read(), filename=fname))
    report.files_scanned = len(files)
    return report
