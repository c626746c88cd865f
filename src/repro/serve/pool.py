"""Cross-run pool housekeeping: shutdown pill and stale-traffic drain.

The :class:`~repro.dist.pool.WorkerPool` never sends or receives a
message.  The *cross-run* traffic that keeps a warm pool healthy between
jobs lives here:

* :class:`~repro.dist.comm.ShutdownMsg` — the pill a pooled worker's
  dispatch loop exits on, declared ``coordinator -> worker`` in
  :mod:`repro.dist.protocol` like every other message.  It can never
  race a run: the serving layer only sends it when no run is in flight.
* :func:`drain_stale` — empties the coordinator-side gather and
  telemetry queues.  After a failed or timed-out run, a worker may still
  flush reports or heartbeats for the dead run; if those lingered they
  would be mis-read as the *next* job's traffic.
* :func:`shutdown_pool` — graceful stop: pill every rank, wait, then
  hard-terminate stragglers and close the comm layer.
"""

from __future__ import annotations

import queue as _queue

from repro.dist.comm import ShutdownMsg
from repro.dist.pool import WorkerPool


def drain_stale(pool: WorkerPool) -> int:
    """Discard queued messages left over from a previous (dead) run.

    Returns the number of messages dropped.  Non-blocking: only traffic
    already sitting in the queues is consumed, so this is safe to call
    between jobs but must never run while a job is in flight.
    """
    endpoint = pool.endpoint()
    dropped = 0
    while True:
        try:
            endpoint.recv_nowait()
        except _queue.Empty:
            break
        dropped += 1
    while True:
        try:
            endpoint.recv_telemetry()
        except _queue.Empty:
            break
        dropped += 1
    return dropped


def reset_pool(pool: WorkerPool) -> int:
    """Recycle every worker process after a failed run.

    A worker that was mid-block when its run died may still be computing
    (or blocked sending into a queue nobody reads); reusing it for the
    next job would interleave two runs' traffic.  Terminate them all —
    the pool respawns ranks lazily on next use — and drain whatever they
    had already sent.  Returns the number of stale messages dropped.
    """
    pool.terminate()
    return drain_stale(pool)


def shutdown_pool(pool: WorkerPool, timeout: float = 5.0) -> None:
    """Gracefully stop a warm pool: pill, wait, terminate stragglers.

    Idempotent; safe on a pool that never spawned.  The pill path
    exercises the workers' clean-exit branch (flushing coverage/profile
    hooks where present); ranks that ignore it within ``timeout`` are
    hard-terminated by :meth:`~repro.dist.pool.WorkerPool.close`.
    """
    if pool.closed:
        return
    endpoint = pool.endpoint()
    for rank in pool.alive_ranks():
        endpoint.send(rank, ShutdownMsg())
    pool.join(timeout=timeout)
    pool.close()
