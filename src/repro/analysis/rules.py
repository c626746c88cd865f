"""The rule registry: every check the analysis subsystem can report.

Rule ids are stable, grep-able, and grouped by layer:

* ``P1xx`` — plan verifier (:mod:`repro.analysis.plan_checks`) and
  store/checkpoint pre-flight (:mod:`repro.analysis.store_checks`);
* ``L3xx`` — AST concurrency lint (:mod:`repro.analysis.lint`);
* ``M4xx`` — protocol model checker (:mod:`repro.analysis.protocol`):
  bounded exhaustive exploration of the coordinator/worker message
  protocol :mod:`repro.dist.protocol` declares and the runtime runs.

Lint findings may be suppressed per line with ``# repro: noqa[RULE]``
(comma-separate several ids, or ``noqa[all]``); the structural P/M
rules are never suppressible — a plan or protocol that violates them is
wrong, not noisy.  A suppression whose rule never fires on its line is
itself a finding (``L399``), so stale noqa comments cannot accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Severity


@dataclass(frozen=True)
class Rule:
    """One registered check.

    Attributes
    ----------
    id:
        Stable identifier (``P101``, ``L303``, ``M401``, ...).
    title:
        Short kebab-case name used in docs and rendered output.
    severity:
        Default severity of the rule's findings.
    description:
        One-sentence statement of the invariant the rule defends.
    """

    id: str
    title: str
    severity: Severity
    description: str


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown analysis rule {rule_id!r}") from None


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (the docs' rule catalog)."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


E = Severity.ERROR
W = Severity.WARNING

# ---- P1xx: plan verifier ---------------------------------------------------

register(Rule("P101", "plan-a-tile-missing", E,
              "a chunk schedules an A tile that is absent from the A shape"))
register(Rule("P102", "plan-b-tile-missing", E,
              "a block's B-tile metadata disagrees with the B shape "
              "(inner tile with no B tile in the block's columns, or "
              "byte/count totals that do not match the shape)"))
register(Rule("P103", "plan-c-ownership", E,
              "a nonzero C tile is owned by zero or by more than one rank "
              "(cross-rank write race or dropped output)"))
register(Rule("P104", "plan-column-partition", E,
              "the B tile columns of a grid row are not partitioned exactly "
              "once across the row's processes, or a rank's columns are not "
              "partitioned exactly once across its blocks"))
register(Rule("P110", "plan-block-over-budget", E,
              "a block's resident B+C footprint exceeds the block budget "
              "(50 % of GPU memory) or 95% of the device"))
register(Rule("P111", "plan-chunk-over-budget", E,
              "a multi-tile chunk exceeds the chunk budget "
              "(25 % of GPU memory)"))
register(Rule("P112", "plan-prefetch-overflow", E,
              "a block plus two in-flight chunks (double-buffered prefetch) "
              "does not fit in GPU memory"))
register(Rule("P113", "plan-gpu-imbalance", E,
              "block counts per GPU of one process differ by more than one "
              "(round-robin balance guarantee violated)"))
register(Rule("P114", "plan-b-tile-over-budget", E,
              "a B tile is larger than the per-rank B-service LRU budget "
              "(gpu_memory_bytes): the cache would evict everything and "
              "still fail to hold it mid-run"))
register(Rule("P120", "plan-comm-mismatch", E,
              "a process's stored communication volumes differ from the "
              "volumes implied by the plan (inspector aggregate drift)"))
register(Rule("P121", "checkpoint-plan-mismatch", E,
              "a checkpoint directory's coordinator snapshot was written "
              "for a different plan (or by a newer snapshot format, or a "
              "different rank count); resuming would mix incompatible "
              "per-rank block files — use a fresh checkpoint directory"))
register(Rule("P122", "store-capacity", W,
              "the persistent tile store cannot hold what the run writes: "
              "the run's working set exceeds the free space of the "
              "store's filesystem"))

# ---- L3xx: AST concurrency lint -------------------------------------------

register(Rule("L300", "lint-parse-error", E,
              "a file handed to the lint could not be parsed as Python"))
register(Rule("L301", "shm-no-cleanup", W,
              "a shared-memory segment (SharedMemory / TileArena) is created "
              "outside any try whose finally/except closes or unlinks it, "
              "and is neither returned at once nor stored on an owner (an "
              "attribute of a class that unlinks what it holds)"))
register(Rule("L302", "mp-no-context", W,
              "a multiprocessing Queue/Process/Pool is created directly on "
              "the module instead of through an explicit "
              "multiprocessing.get_context(...) start-method guard"))
register(Rule("L303", "legacy-global-rng", W,
              "a legacy global numpy RNG call (np.random.seed/rand/...) "
              "breaks per-seed reproducibility; use repro.util.rng"))
register(Rule("L304", "frozen-setattr", E,
              "object.__setattr__ mutates a frozen dataclass, defeating the "
              "immutability other threads/processes rely on"))
register(Rule("L305", "bare-except", W,
              "a bare 'except:' swallows KeyboardInterrupt/SystemExit; "
              "worker loops must catch named exceptions"))
register(Rule("L306", "wall-clock-in-dist", E,
              "time.time() inside repro.dist: run-relative clocks and "
              "deadlines must use time.monotonic() (an NTP step fires or "
              "suppresses deadlines and yields negative durations); a "
              "single wall stamp for report labeling may be suppressed "
              "with # repro: noqa[L306]"))
register(Rule("L307", "non-daemon-thread-in-dist", W,
              "a threading.Thread created inside repro.dist without "
              "daemon=True: a worker whose helper thread (heartbeat, "
              "prefetch) is non-daemon cannot be reaped by the "
              "coordinator's terminate/join and wedges process exit"))
register(Rule("L308", "unmanaged-file-handle", W,
              "open()/mmap.mmap() in the dist or store trees outside a "
              "'with' statement, a cleanup try (close in finally/except), "
              "or an immediate return: workers are killed and restarted by "
              "design, and an unguarded descriptor leaks across retries "
              "(and can leave an unflushed block file/store object behind a "
              "crash); a deliberately long-lived handle is suppressed with "
              "# repro: noqa[L308]"))
register(Rule("L309", "unbounded-blocking-recv", E,
              "a blocking '.get()'/'.recv()' with no timeout in the serve "
              "tree: the serving layer's scheduler and clients outlive any "
              "single run, so an unbounded wait on a queue a dead worker "
              "will never feed again hangs the service forever instead of "
              "failing the one job; pass timeout=... (or use the _nowait/"
              "block=False forms); a deliberately unbounded wait is "
              "suppressed with # repro: noqa[L309]"))
register(Rule("L399", "stale-noqa", W,
              "a '# repro: noqa[RULE]' suppression whose rule does not fire "
              "on that line (or that names an unknown rule): stale "
              "suppressions hide future regressions and rot silently; the "
              "only fix is removing or correcting the comment — L399 is "
              "itself never suppressible"))

# ---- M4xx: protocol model checker ------------------------------------------

register(Rule("M401", "protocol-deadlock", E,
              "the protocol model reaches a state where no coordinator or "
              "worker transition is enabled and the run is not terminal "
              "(the distributed run would hang forever)"))
register(Rule("M402", "protocol-unhandled-message", E,
              "a role's state machine has no transition for a message that "
              "can arrive at the head of its queue in a reachable state "
              "(the real receiver would raise or wedge on it)"))
register(Rule("M403", "protocol-orphaned-send", E,
              "a message from a rank's live attempt is still queued when "
              "the run completes cleanly: it was sent but can never be "
              "consumed (only superseded-attempt traffic may be discarded "
              "at teardown)"))
register(Rule("M404", "protocol-queue-overflow", E,
              "a reachable state pushes a comm-layer queue past its "
              "declared byte budget (the fabric's in-flight traffic is "
              "unbounded under some interleaving)"))
register(Rule("M405", "protocol-lost-work", E,
              "a fault schedule the retry->reassign recovery (or the "
              "checkpoint resume path) is specified to survive ends in a "
              "failed run, or completes with a rank's work missing or "
              "double-credited"))
register(Rule("M406", "protocol-journal-order", E,
              "the checkpoint path can record a block as done (rename its "
              "block file into place) before its C tiles are durably "
              "written (a crash between the two leaves a committed block "
              "file missing tiles); the file must be fsynced before it is "
              "renamed"))
register(Rule("M407", "protocol-block-ownership", E,
              "a steal x fault interleaving loses or double-executes a "
              "work unit: a rebalanced block must run exactly once — on "
              "the origin (steal superseded by its recovery), the helper "
              "rank, or the coordinator's inline spare — and the origin's "
              "target must shrink by exactly the units it yielded"))
register(Rule("M408", "protocol-relinquish-unacked", E,
              "a relinquish request is left dangling against a live "
              "attempt: every relinquish must be acknowledged by the "
              "worker (with the yielded positions, or empty when stale) "
              "or be provably superseded by the rank's own completion or "
              "recovery"))
