"""Fault injection for the distributed executor.

A :class:`FaultPlan` tells the coordinator which worker ranks to sabotage
and how: ``kill`` makes the worker process exit abruptly (``os._exit``,
no report, no cleanup — the closest a test can get to a crashed MPI rank)
after executing its *k*-th GEMM task; ``delay`` makes it sleep there;
``stall`` makes it hang *and* silences its heartbeat thread — the process
stays alive to the OS but goes dark to the run, which only the
coordinator's missed-heartbeat detector can catch.  By default a fault
fires only on a rank's first attempt (``once=True``), so the
coordinator's retry-once recovery succeeds; with ``once=False`` the fault
is persistent and recovery must fall through to reassignment.

``slow`` models a straggler rather than a crash: from its *k*-th GEMM
task onward the worker sleeps a little before **every** task, inside the
task's GEMM span, while the rank keeps making (slow) progress.  The rank
keeps its blocks (the plan is static) and the run waits for it; the
post-hoc audit of ``repro explain`` (:func:`repro.perf.audit_run`) flags
the rank from the run's trace.

``abort`` models losing the *whole job*, not one rank: the worker dies
exactly like ``kill`` but with a distinguished exit code that tells the
coordinator to give up immediately — no retry, no reassignment — leaving
only the block files the checkpoint committed.  It exists to exercise the
resume path end to end: run with ``checkpoint_dir`` and an ``abort``
fault, catch :class:`~repro.dist.DistExecutionError`, run again with the
same checkpoint directory, and the committed blocks are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FaultInjection:
    """One planned fault on one worker rank.

    Attributes
    ----------
    rank:
        The worker rank to sabotage.
    at_task:
        Fire after this many GEMM tasks have executed on the rank
        (1-based; a count past the rank's task total never fires).
        ``slow`` fires on this task *and every later one*.
    kind:
        ``"kill"``, ``"delay"``, ``"stall"`` (hang silently — heartbeats
        stop, process stays alive), ``"slow"`` (persistent per-task
        delay: slow, not a crash), or ``"abort"`` (die like
        ``kill`` but unrecoverably: the coordinator fails the whole run,
        to be resumed from its checkpoint).
    delay_seconds:
        Sleep length for ``"delay"`` (one sleep) and ``"slow"`` (every
        task from ``at_task`` on).
    once:
        Fire on the first attempt only (retry then succeeds); ``False``
        fires on every attempt (forcing reassignment).
    """

    rank: int
    at_task: int
    kind: str = "kill"
    delay_seconds: float = 0.2
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "delay", "stall", "slow", "abort"):
            raise ValueError(
                f"unknown fault kind {self.kind!r}; use 'kill', 'delay', "
                f"'stall', 'slow' or 'abort'"
            )
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.at_task < 1:
            raise ValueError("at_task is 1-based and must be >= 1")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds!r}")

    def armed(self, attempt: int) -> bool:
        """Whether this fault fires on the given (0-based) attempt."""
        return attempt == 0 or not self.once


@dataclass(frozen=True)
class FaultPlan:
    """All injections of one run; at most one per rank is honoured."""

    injections: tuple[FaultInjection, ...] = ()

    @classmethod
    def kill(cls, rank: int, at_task: int, once: bool = True) -> "FaultPlan":
        return cls((FaultInjection(rank=rank, at_task=at_task, kind="kill", once=once),))

    @classmethod
    def delay(cls, rank: int, at_task: int, seconds: float = 0.2) -> "FaultPlan":
        return cls(
            (FaultInjection(rank=rank, at_task=at_task, kind="delay",
                            delay_seconds=seconds),)
        )

    @classmethod
    def stall(cls, rank: int, at_task: int, once: bool = True) -> "FaultPlan":
        return cls(
            (FaultInjection(rank=rank, at_task=at_task, kind="stall", once=once),)
        )

    @classmethod
    def slow(cls, rank: int, at_task: int = 1,
             seconds: float = 0.05) -> "FaultPlan":
        """A live straggler: sleep before every task from ``at_task`` on.

        ``slow`` faults are persistent by construction (a retried attempt
        of a slow node is still slow); slow is not dead, so the run waits
        for it, and the audit flags it afterwards."""
        return cls(
            (FaultInjection(rank=rank, at_task=at_task, kind="slow",
                            delay_seconds=seconds, once=False),)
        )

    @classmethod
    def abort(cls, rank: int, at_task: int) -> "FaultPlan":
        """An unrecoverable kill: the coordinator fails the run immediately
        (``abort`` faults are always persistent — resuming the job is the
        only way past one, which is the point)."""
        return cls(
            (FaultInjection(rank=rank, at_task=at_task, kind="abort", once=False),)
        )

    @classmethod
    def parse(cls, spec: str, nranks: int | None = None) -> "FaultPlan":
        """Parse a CLI fault spec:
        ``RANK:TASK[:kill|delay|stall|slow|abort]``, comma-separated for
        several ranks.

        ``nranks`` (when known) bounds the rank field; duplicate ranks are
        rejected because at most one injection per rank is honoured.
        """
        injections: list[FaultInjection] = []
        seen: set[int] = set()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                raise ValueError(
                    f"bad fault spec {spec!r}: empty entry; expected "
                    f"comma-separated RANK:TASK[:kill|delay|stall|slow|abort]"
                )
            fields = part.split(":")
            if len(fields) not in (2, 3):
                raise ValueError(
                    f"bad fault spec {part!r}; expected "
                    f"RANK:TASK[:kill|delay|stall|slow|abort]"
                )
            try:
                rank, task = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(
                    f"bad fault spec {part!r}: RANK and TASK must be integers"
                ) from None
            kind = fields[2] if len(fields) == 3 else "kill"
            if kind not in ("kill", "delay", "stall", "slow", "abort"):
                raise ValueError(
                    f"bad fault kind {kind!r} in {part!r}; "
                    f"expected kill, delay, stall, slow or abort"
                )
            if rank < 0:
                raise ValueError(f"bad fault spec {part!r}: rank must be >= 0")
            if nranks is not None and rank >= nranks:
                raise ValueError(
                    f"bad fault spec {part!r}: rank {rank} out of range for "
                    f"{nranks} worker(s) (valid ranks: 0..{nranks - 1})"
                )
            if rank in seen:
                raise ValueError(
                    f"duplicate fault spec for rank {rank}: at most one "
                    f"injection per rank is honoured"
                )
            seen.add(rank)
            # slow models a persistently slow node; abort is unrecoverable
            # by definition — both fire on every attempt.
            injections.append(FaultInjection(
                rank=rank, at_task=task, kind=kind,
                once=kind not in ("abort", "slow"),
                delay_seconds=0.05 if kind == "slow" else 0.2,
            ))
        return cls(tuple(injections))

    def for_rank(self, rank: int) -> FaultInjection | None:
        for inj in self.injections:
            if inj.rank == rank:
                return inj
        return None
