"""Message-based communication layer for the multi-process executor.

The fabric models the paper's ``p x q`` grid plus a coordinator: one inbox
queue per worker rank (the coordinator scatters plans into them) and one
shared gather queue back to the coordinator.  Every message is pickled by
the sending :class:`Endpoint`, which counts the bytes per directed link
``(src, dst)`` — the executor's observable analogue of the exact volumes
:mod:`repro.core.comm_model` derives from the plan.  Workers additionally
model the grid-row A broadcast: each A tile they need but do not own under
the 2D-cyclic placement is charged to the ``owner -> rank`` link, which
reproduces the inspector's ``a_recv_bytes`` per process exactly (the tests
assert this).

A third, out-of-band channel carries **telemetry**: periodic worker
heartbeats (:class:`repro.dist.health.HeartbeatMsg`) flow through their own
shared queue so they can never reorder or delay the control-plane
``done``/``error`` messages, and their bytes are accounted in a separate
``telemetry_bytes`` counter so the plan-derived comm-volume crosschecks
stay byte-exact regardless of heartbeat cadence.

Every message is a class the receiver dispatches on: the coordinator
starts an attempt with a :class:`ScatterMsg`, a worker ends it with a
:class:`DoneMsg` or an :class:`ErrorMsg`, and dynamic
rebalancing adds two request/reply pairs — the coordinator asks a flagged
straggler to :class:`RelinquishMsg` its unstarted blocks (acked with a
:class:`RelinquishedMsg` at the worker's next block boundary), then ships
the reclaimed blocks to a finished helper rank as a :class:`HandoffMsg`
(answered with a :class:`HandoffDoneMsg`).  These ride the ordinary
inbox/gather queues: they only exist when ``rebalance=True``, and the
comm-volume crosscheck tests run without it.  A serving pool ends a warm
worker between jobs with a :class:`ShutdownMsg`.

The vocabulary is closed: :mod:`repro.dist.protocol` declares each message
class with its sending role, receiving role and channel, and an
:class:`Endpoint` refuses to send a class that is not declared, or one
leaving the wrong role or on the wrong channel (:class:`ProtocolError`) —
one check, in the one place every sender goes through.
"""

from __future__ import annotations

import functools
import pickle
import queue as _queue
from collections import Counter
from dataclasses import dataclass, field

from repro.core.grid import ProcessGrid
from repro.core.plan import ProcPlan
from repro.dist.faults import FaultInjection
from repro.dist.tile_store import ArenaMeta
from repro.util.units import fmt_bytes

#: The coordinator's rank in link keys (workers are ``0..nprocs-1``).
COORDINATOR = -1

#: Role names used throughout the protocol declaration.
COORDINATOR_ROLE = "coordinator"
WORKER_ROLE = "worker"

#: The two physical channels of :class:`CommLayer`: ``data`` (inboxes +
#: gather queue) and the out-of-band ``telemetry`` queue heartbeats ride so
#: they can never delay control messages.
DATA_CHANNEL = "data"
TELEMETRY_CHANNEL = "telemetry"


class ProtocolError(RuntimeError):
    """A send the declared protocol (:mod:`repro.dist.protocol`) forbids."""


@functools.cache
def _wire() -> dict:
    """Message class -> declaration.  Imported on first use: the protocol
    module imports this one for the classes it declares."""
    from repro.dist.protocol import WIRE

    return WIRE


def _role(rank: int) -> str:
    return COORDINATOR_ROLE if rank == COORDINATOR else WORKER_ROLE


@dataclass(frozen=True)
class ScatterMsg:
    """Coordinator -> worker: one attempt of one rank's slice of the plan."""

    proc: ProcPlan
    grid: ProcessGrid
    gpus_per_proc: int
    gpu_memory_bytes: int
    b_csr: object
    alpha: float
    #: ``None`` = resident plane: read the A (and ``("resident", None)``
    #: B) this rank was forked with; else ``b_spec`` is ``("arena", meta)``.
    #: A generated B is ``("generated", collection)`` on both planes.
    a_meta: ArenaMeta | None
    b_spec: tuple
    c_meta: ArenaMeta
    fault: FaultInjection | None
    attempt: int
    trace: bool = True
    heartbeat_interval: float = 0.0  # seconds; <= 0 disables heartbeats
    #: Persistent-store / checkpoint wiring (all inert when left at their
    #: defaults): ``store_dir`` roots the B-tile persistence tier,
    #: ``ckpt_dir`` enables block-file commits (and, when ``store_dir`` is
    #: unset, hosts the store under ``<ckpt_dir>/store``), ``b_hash`` /
    #: ``run_hash`` are the coordinator-computed operand and run
    #: fingerprints, and ``completed`` lists the ``(gpu, block)`` positions
    #: whose block files to restore instead of recompute.
    store_dir: str | None = None
    b_hash: str = ""
    ckpt_dir: str | None = None
    run_hash: str = ""
    completed: tuple = ()
    #: Block positions ``(gpu, index)`` this rank must *not* execute: they
    #: were relinquished to the rebalancer in an earlier attempt and are
    #: owned by a handoff now (producing them here would double-produce).
    excluded: tuple = ()
    #: Whether the rank polls its inbox between blocks for relinquish
    #: requests (the coordinator's ``rebalance=True``).
    rebalance: bool = False


@dataclass(frozen=True)
class ShutdownMsg:
    """Coordinator -> pooled worker: leave the dispatch loop and exit.
    Sent by the serving layer between jobs, never during a run."""

    reason: str = "shutdown"


@dataclass(frozen=True)
class RelinquishMsg:
    """Coordinator -> straggler: yield your unstarted blocks.

    ``attempt`` pins the request to one scatter generation; a worker that
    already finished (or was retried) sees a stale attempt and acks with
    an empty position list so the coordinator can retire the request.
    """

    attempt: int


@dataclass(frozen=True)
class HandoffMsg:
    """Coordinator -> helper rank: execute blocks reclaimed from a straggler.

    ``blocks`` are ``(gpu, position, block)`` triples in the *origin*
    rank's plan coordinates, so the block files committed during the
    handoff land under the origin's identity and resume stays coherent.
    ``c_meta`` names a dedicated shared-memory arena for the produced C
    tiles.  Operand and B-service parameters mirror the original
    ``ScatterMsg`` (resident plane included) so the helper reproduces
    tiles bit-for-bit.
    """

    handoff_id: int
    origin: int
    blocks: tuple  # of (gpu, position, Block) in the origin's plan
    a_meta: object  # ArenaMeta of the shared A arena; None = resident
    b_spec: tuple
    c_meta: object  # ArenaMeta of the handoff's dedicated C arena
    gpu_memory_bytes: int
    b_csr: object
    alpha: float
    store_dir: str | None = None
    b_hash: str = ""
    ckpt_dir: str | None = None
    run_hash: str = ""


@dataclass(frozen=True)
class DoneMsg:
    """Worker -> coordinator: ``report`` (a
    :class:`~repro.dist.worker.WorkerReport`) ends a successful attempt."""

    rank: int
    report: object


@dataclass(frozen=True)
class ErrorMsg:
    """Worker -> coordinator: the attempt raised; ``attempt`` is ``-1``
    when the failure preceded any scatter."""

    rank: int
    attempt: int
    traceback: str


@dataclass(frozen=True)
class RelinquishedMsg:
    """Worker -> coordinator: the ack of a :class:`RelinquishMsg` —
    the ``(gpu, index)`` block positions yielded, none if it was stale."""

    rank: int
    attempt: int
    positions: tuple


@dataclass(frozen=True)
class HandoffDoneMsg:
    """Helper -> coordinator: a :class:`HandoffMsg`'s C index and stats;
    ``c_index=None`` means the helper failed and the blocks must be redone."""

    rank: int
    handoff_id: int
    c_index: dict | None
    stats: object


@dataclass
class Endpoint:
    """One process's port into the fabric.

    Workers receive from their own inbox and send to the coordinator; the
    coordinator (rank :data:`COORDINATOR`) sends into any inbox and
    receives from the shared gather queue.  ``link_bytes`` counts pickled
    payload bytes per ``(src, dst)`` link on the *sending* side; receive
    sizes are returned so the coordinator can account worker->coordinator
    links (a worker cannot count a report that contains its own counters).
    """

    rank: int
    inboxes: list
    gather: object
    telemetry: object = None
    link_bytes: Counter = field(default_factory=Counter)
    messages: Counter = field(default_factory=Counter)
    telemetry_bytes: Counter = field(default_factory=Counter)

    def _check(self, dst: int, msg, channel: str) -> None:
        """Refuse a message the protocol does not declare for this link.

        Objects of builtin types are raw payloads, not messages: the fabric
        carries and counts them (its accounting tests and the benchmark's
        ping do exactly that) and no role machine has a row for one.
        """
        spec = _wire().get(type(msg))
        if spec is None:
            if type(msg).__module__ == "builtins":
                return
            raise ProtocolError(f"undeclared message class {type(msg).__name__}")
        link = (_role(self.rank), _role(dst), channel)
        if link != (spec.src, spec.dst, spec.channel):
            raise ProtocolError(
                f"{spec.name!r} is declared {spec.src} -> {spec.dst} "
                f"[{spec.channel}], not {link[0]} -> {link[1]} [{link[2]}]"
            )

    def send(self, dst: int, msg) -> int:
        self._check(dst, msg, DATA_CHANNEL)
        blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        self.link_bytes[(self.rank, dst)] += len(blob)
        self.messages[(self.rank, dst)] += 1
        target = self.gather if dst == COORDINATOR else self.inboxes[dst]
        target.put((self.rank, blob))
        return len(blob)

    def recv(self, timeout: float | None = None):
        """Blocking receive; returns ``(src, msg, nbytes)``.

        Raises :class:`queue.Empty` on timeout.
        """
        source = self.gather if self.rank == COORDINATOR else self.inboxes[self.rank]
        src, blob = source.get(timeout=timeout)
        return src, pickle.loads(blob), len(blob)

    def recv_nowait(self):
        """Non-blocking receive; raises :class:`Empty` when the inbox is
        drained.  Workers poll this at block boundaries so a coordinator
        :class:`RelinquishMsg` is noticed without ever blocking compute.
        """
        source = self.gather if self.rank == COORDINATOR else self.inboxes[self.rank]
        src, blob = source.get_nowait()
        return src, pickle.loads(blob), len(blob)

    def send_telemetry(self, msg) -> int:
        """Ship a heartbeat to the coordinator on the out-of-band channel.

        Byte-counted separately from ``link_bytes`` so telemetry cadence
        never perturbs the plan-derived comm-volume crosschecks.  Safe to
        call from a worker's heartbeat thread while the main thread uses
        :meth:`send` — the two paths touch disjoint queues and counters.
        """
        self._check(COORDINATOR, msg, TELEMETRY_CHANNEL)
        blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        self.telemetry_bytes[(self.rank, COORDINATOR)] += len(blob)
        self.telemetry.put((self.rank, blob))
        return len(blob)

    def recv_telemetry(self):
        """Non-blocking telemetry receive; raises :class:`Empty` when drained."""
        src, blob = self.telemetry.get_nowait()
        return src, pickle.loads(blob), len(blob)


class CommLayer:
    """The queue fabric for one distributed run (created by the coordinator)."""

    def __init__(self, nranks: int, ctx):
        self.nranks = nranks
        self._inboxes = [ctx.Queue() for _ in range(nranks)]
        self._gather = ctx.Queue()
        self._telemetry = ctx.Queue()

    def endpoint(self, rank: int) -> Endpoint:
        return Endpoint(
            rank=rank,
            inboxes=self._inboxes,
            gather=self._gather,
            telemetry=self._telemetry,
        )

    def close(self) -> None:
        for q in [*self._inboxes, self._gather, self._telemetry]:
            q.close()
            q.join_thread()


Empty = _queue.Empty


@dataclass
class CommStats:
    """Merged per-link traffic of one run (bytes and message counts).

    ``link_bytes`` keys are ``(src, dst)`` ranks with :data:`COORDINATOR`
    for the coordinator; worker->worker keys carry the *modeled* grid-row A
    broadcast, coordinator links carry actual pickled queue traffic.
    """

    link_bytes: Counter = field(default_factory=Counter)
    messages: Counter = field(default_factory=Counter)
    telemetry_bytes: Counter = field(default_factory=Counter)

    def absorb(self, link_bytes, messages=None) -> None:
        self.link_bytes.update(link_bytes)
        if messages:
            self.messages.update(messages)

    def absorb_telemetry(self, telemetry_bytes) -> None:
        """Fold in out-of-band heartbeat traffic (kept off ``link_bytes``)."""
        self.telemetry_bytes.update(telemetry_bytes)

    def telemetry_total(self) -> int:
        """Heartbeat bytes shipped worker -> coordinator, all ranks."""
        return sum(self.telemetry_bytes.values())

    def scatter_bytes(self) -> int:
        """Coordinator -> workers (plan scatter) bytes."""
        return sum(v for (s, _), v in self.link_bytes.items() if s == COORDINATOR)

    def gather_bytes(self) -> int:
        """Workers -> coordinator (C index + stats reports) bytes."""
        return sum(v for (_, d), v in self.link_bytes.items() if d == COORDINATOR)

    def a_broadcast_bytes(self) -> int:
        """Modeled worker<->worker A traffic (grid-row broadcast)."""
        return sum(
            v for (s, d), v in self.link_bytes.items()
            if s != COORDINATOR and d != COORDINATOR
        )

    def summary(self) -> str:
        text = (
            f"scatter {fmt_bytes(self.scatter_bytes())}, "
            f"gather {fmt_bytes(self.gather_bytes())}, "
            f"A broadcast {fmt_bytes(self.a_broadcast_bytes())} "
            f"over {len(self.link_bytes)} links"
        )
        telemetry = self.telemetry_total()
        if telemetry:
            text += f" (+{fmt_bytes(telemetry)} telemetry)"
        return text
