"""Tests for the multi-process distributed executor (:mod:`repro.dist`).

The serial executor is the oracle: every distributed run must reproduce
its C matrix *bit for bit* (same seeds), its merged statistics must equal
the serial statistics exactly, and every shared-memory segment must be
unlinked afterwards — including when workers are killed mid-run.

Fast parity checks run in tier-1; the slower multi-process scenarios
(fault recovery, 4-worker grids, the CLI round-trip) are marked ``dist``
and run via ``make test-dist``.
"""

import contextlib
import gc
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import inspect, psgemm_distributed, psgemm_numeric
from repro.dist import (
    COORDINATOR,
    BService,
    DistExecutionError,
    FaultPlan,
    HeartbeatMsg,
    TileArena,
    WorkerPool,
    WorkerReport,
    active_segments,
    execute_plan_distributed,
)
from repro.dist import coordinator, pool as dist_pool
from repro.dist.comm import DoneMsg, ErrorMsg
from repro.machine import summit
from repro.runtime import GeneratedCollection, execute_plan, numeric, tracing
from repro.runtime.numeric import NumericStats, block_cols_of_k, chunk_groups, proc_blocks
from repro.sparse import random_block_sparse
from repro.serve.warmcache import WarmTileCache
from repro.sparse.gemm_ref import gemm_against_dense
from repro.tiling import Tiling, random_tiling
from tests.test_numeric_executor import fine_operands, straddling_operands


def operands(seed=0, m=200, nk=600, density=0.5):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b = random_block_sparse(inner, inner, density, seed=seed + 3)
    return a, b


def assert_report_folds_its_log(report):
    """The run was recorded once: replaying ``report.events_path`` rebuilds
    the live health rank by rank (every field no clock feeds), and each of
    the coordinator's counters is the count of its event kind."""
    from repro.dist import read_events, replay_health
    from repro.runtime.metrics import SERIES

    events = read_events(report.events_path)
    replayed = replay_health(events)
    assert sorted(replayed.ranks) == sorted(report.health.ranks)
    for rank, live in report.health.ranks.items():
        for name in ("state", "attempt", "beats", "seq", "tasks_done",
                     "tasks_total", "stalls"):
            assert getattr(replayed.ranks[rank], name) == getattr(live, name), (
                rank, name,
            )
    for name, (_, _, (source, *key)) in SERIES.items():
        if source != "events":
            continue
        logged = [ev for ev in events if ev["event"] == key[0]]
        assert report.metrics.get(name, None) == len(logged), name
    assert report.stalled == events[-1]["stalled"]
    assert report.reassigned == events[-1]["reassigned"]


def assert_bit_equal_runs(a, b, machine, p, gpus_per_proc, **dist_kwargs):
    c_serial, s_serial = psgemm_numeric(a, b, machine, p=p, gpus_per_proc=gpus_per_proc)
    c_dist, report = psgemm_distributed(
        a, b, machine, p=p, gpus_per_proc=gpus_per_proc, **dist_kwargs
    )
    assert np.array_equal(c_serial.to_dense(), c_dist.to_dense()), "C differs bitwise"
    assert s_serial == report.stats, "merged stats differ from serial stats"
    assert np.allclose(c_dist.to_dense(), gemm_against_dense(a, b))
    return c_dist, report


@pytest.fixture(scope="module")
def q2_run():
    """One 1x2-grid distributed run shared by the comm/trace/leak tests."""
    a, b = operands(seed=0)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
    assert plan.grid.q == 2  # remote A tiles exist under 2D-cyclic placement
    c_serial, _ = execute_plan(plan, a, b)
    c_dist, report = execute_plan_distributed(plan, a, b)
    assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
    return plan, report


class TestParity:
    """Dist result == serial result == dense reference."""

    @pytest.mark.parametrize("p,gpus_per_proc", [(2, 6), (1, 6)])  # 2x1 and 1x2 grids
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_random_plans_two_grid_shapes(self, seed, p, gpus_per_proc):
        a, b = operands(seed=seed)
        assert_bit_equal_runs(a, b, summit(2), p, gpus_per_proc)

    def test_four_workers_2x2_grid(self):
        a, b = operands(seed=7)
        _, report = assert_bit_equal_runs(a, b, summit(2), 2, 3)
        assert report.nworkers == 4
        assert len(report.stats.per_proc_tasks) == 4

    def test_generated_b_source(self):
        a, bmat = operands(seed=3)
        b_shape = bmat.sparse_shape()
        c_serial, s_serial = psgemm_numeric(
            a, GeneratedCollection(b_shape, seed=77), summit(2), p=2, b_shape=b_shape
        )
        c_dist, report = psgemm_distributed(
            a, GeneratedCollection(b_shape, seed=77), summit(2), p=2, b_shape=b_shape
        )
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        assert s_serial == report.stats
        # The paper's invariant: every B tile instantiated at most once per rank.
        assert report.b_max_instantiations == 1

    def test_alpha_beta_and_c_input(self, monkeypatch):
        """Groups of one fold a non-power-of-two ``alpha`` into every
        ``dgemm``; the forked ranks inherit the gate and round alike."""
        monkeypatch.setattr(numeric, "KGROUP_MAX_TASK_FLOPS", 0.0)
        a, b = operands(seed=4)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=9)
        c_serial, _ = psgemm_numeric(a, b, summit(2), c=c0, p=2, alpha=-1.7, beta=0.5)
        c_dist, _ = psgemm_distributed(a, b, summit(2), c=c0, p=2, alpha=-1.7, beta=0.5)
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        dense = -1.7 * gemm_against_dense(a, b) + 0.5 * c0.to_dense()
        assert np.allclose(c_dist.to_dense(), dense)

    def test_plan_straddling_the_gil_bound(self, monkeypatch):
        """With the bound lowered into the plan's range, each rank runs some
        products as ``np.matmul`` and some as ``dgemm``; the choice is the
        product's shape, so the bits are the oracle's."""
        bound = 2.0 * 50**3
        monkeypatch.setattr(numeric, "GIL_MAX_CALL_FLOPS", bound)
        a, b = operands(seed=5)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        for proc in plan.procs:
            means = [ch.flops / ch.ntasks for blk in proc.blocks for ch in blk.chunks]
            assert min(means) < bound < max(means)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=6)
        c_serial, _ = psgemm_numeric(a, b, summit(2), c=c0, p=2, alpha=-1.7, beta=0.3)
        c_dist, _ = psgemm_distributed(a, b, summit(2), c=c0, p=2, alpha=-1.7, beta=0.3)
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        dense = -1.7 * gemm_against_dense(a, b) + 0.3 * c0.to_dense()
        assert np.allclose(c_dist.to_dense(), dense)

    @pytest.mark.dist
    def test_plan_straddling_the_kgroup_gate(self):
        """Each rank runs blocks of stacked k-groups and blocks of single
        tiles in one attempt; the grouping is the plan's, so the bits are
        the oracle's."""
        a, b = straddling_operands()
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2, gpus_per_proc=6)
        for proc in plan.procs:
            fused = {
                any(len(g) > 1 for g in chunk_groups(ch))
                for blk in proc.blocks for ch in blk.chunks
            }
            assert fused == {True, False}
        assert_bit_equal_runs(a, b, summit(2), 2, 6)


class TestCommAndTrace:
    def test_modeled_a_broadcast_matches_inspector(self, q2_run):
        plan, report = q2_run
        expected = sum(pp.a_recv_bytes for pp in plan.procs)
        assert expected > 0
        assert report.comm.a_broadcast_bytes() == expected

    def test_scatter_and_gather_bytes_counted(self, plane_runs):
        """A queued scatter is one message per rank; a forked rank is born
        holding its own, so nothing leaves the coordinator."""
        plan, _, _, _, runs = plane_runs
        for plane, (_, report) in runs.items():
            sent = {d: n for (s, d), n in report.comm.messages.items() if s == COORDINATOR}
            assert report.comm.gather_bytes() > 0, plane
            if plane == "fork":
                assert sent == {} and report.comm.scatter_bytes() == 0
                assert sum(report.comm.messages.values()) == plan.grid.nprocs
            else:
                assert sent == {r: 1 for r in range(plan.grid.nprocs)}, plane
                assert report.comm.scatter_bytes() > 0, plane

    def test_the_trace_spans_the_whole_call(self, q2_run):
        """Set-up (validation, the pool, fingerprints) and teardown (the
        pool's close, the C arenas' unlink) are spans of the call's trace."""
        _, report = q2_run
        spans = {e.task: e for e in report.trace.events}
        assert spans["spawn.setup"].start == 0.0 < spans["spawn.setup"].end
        assert spans["report.teardown"].end == report.trace.makespan

    def test_per_rank_trace_events(self, q2_run):
        plan, report = q2_run
        trace = report.trace
        assert trace.makespan > 0
        resources = {e.resource for e in trace.events}
        for pp in plan.procs:
            assert any(r.startswith(f"gpu.{pp.rank}.") for r in resources)
        # Prefetch (link) and compute events both present, and the Chrome
        # export the tracing module promises still works on merged traces:
        # one "X" span per event plus "M" metadata labeling the rank lanes.
        assert any(r.endswith(".link") for r in resources)
        assert any(r.endswith(".comp") for r in resources)
        chrome = trace.to_chrome_trace()
        assert len([ev for ev in chrome if ev["ph"] == "X"]) == len(trace.events)
        names = {ev["args"]["name"] for ev in chrome
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert {f"rank {pp.rank}" for pp in plan.procs} <= names


def pack_spans(report):
    return sorted(e.task for e in report.trace.events if e.task.startswith("pack."))


def segment_tags(report):
    """The tag each segment name ends in: ``a``, ``b``, ``c<rank>a<attempt>``, ``h<id>``."""
    return [name.rsplit("-", 1)[1] for name in report.segments]


def assert_resident(report):
    """The run packed nothing: no pack span, no operand segment."""
    assert pack_spans(report) == []
    assert all(tag[0] in "ch" for tag in segment_tags(report))


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="resident plane needs fork"
)


def mapped_segments(names, pid="self"):
    """Which of the segment ``names`` process ``pid`` still has mapped."""
    with open(f"/proc/{pid}/maps") as fh:
        maps = fh.read()
    return sorted(name for name in names if name in maps)


@contextlib.contextmanager
def start_method(method):
    """Pools built inside the block — a one-shot run's own among them —
    start their processes with ``method`` (``spawn`` takes the arena plane
    on Linux, too)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dist_pool, "default_start_method", lambda: method)
        yield


def run_on_plane(plane, plan, a, b, **kwargs):
    """``execute_plan_distributed`` on the fork, spawn or pool plane."""
    if plane != "pool":
        with start_method(plane):
            return execute_plan_distributed(plan, a, b, **kwargs)
    pool = WorkerPool(plan.grid.nprocs)
    try:
        return execute_plan_distributed(plan, a, b, pool=pool, **kwargs)
    finally:
        pool.close()


@pytest.fixture(scope="module")
def plane_runs():
    """One plan with a C input run serially, resident, spawned and pooled."""
    a, b = operands(seed=12)
    c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=13)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
    kwargs = dict(c=c0, alpha=0.5, beta=2.0)
    serial = execute_plan(plan, a, b, **kwargs)
    runs = {
        method: run_on_plane(method, plan, a, b, **kwargs)
        for method in ("fork", "spawn") if method in mp.get_all_start_methods()
    }
    runs["pool"] = run_on_plane("pool", plan, a, b, **kwargs)
    return plan, a, b, serial, runs


class TestDataPlanes:
    """Resident (fork) and arena (spawn, pool) planes: same bits, same counts."""

    def test_every_plane_matches_the_oracle(self, plane_runs):
        plan, _, _, (c_serial, s_serial), runs = plane_runs
        expected_links = sum(pp.a_recv_bytes for pp in plan.procs)
        assert len(runs) >= 2
        worker_links, b_hits = [], []
        for plane, (c, report) in runs.items():
            assert np.array_equal(c_serial.to_dense(), c.to_dense()), plane
            assert report.stats == s_serial, plane
            assert report.comm.a_broadcast_bytes() == expected_links, plane
            worker_links.append({
                link: n for link, n in report.comm.link_bytes.items()
                if -1 not in link
            })
            b_hits.append(report.b_hits)
        assert all(links == worker_links[0] for links in worker_links)
        assert all(hits == b_hits[0] for hits in b_hits)

    @needs_fork
    def test_resident_run_packs_nothing(self, plane_runs):
        _, report = plane_runs[-1]["fork"]
        assert_resident(report)
        assert sorted(segment_tags(report)) == ["c0a0", "c1a0"]
        # What shared memory held is exactly the C tiles written back.
        assert report.shm_bytes == report.stats.d2h_bytes

    @pytest.mark.parametrize("plane", ["spawn", "pool"])
    def test_arena_planes_still_pack_operands(self, plane_runs, plane):
        _, a, b, _, runs = plane_runs
        _, report = runs[plane]
        assert pack_spans(report) == ["pack.a", "pack.b"]
        assert sorted(segment_tags(report)) == ["a", "b", "c0a0", "c1a0"]
        assert report.shm_bytes == a.nbytes + b.nbytes + report.stats.d2h_bytes

    def test_prefetch_spans_survive_without_the_thread(self, plane_runs):
        plan, _, _, _, runs = plane_runs
        chunks = sum(
            len(blk.chunks) for pp in plan.procs
            for g in range(plan.grid.gpus_per_proc) for blk in pp.gpu_blocks(g)
        )
        for plane, (_, report) in runs.items():
            prefetch = [e for e in report.trace.events if e.task.endswith(".prefetch")]
            assert len(prefetch) == chunks, plane
            assert all(e.resource.endswith(".link") for e in prefetch)
            assert not any(e.task.endswith(".qwait") for e in report.trace.events)

    def test_tiles_without_a_c_input_are_adopted_not_copied(self, plane_runs):
        """C is written once: such a tile is the arena view its worker's
        first GEMM wrote into; one with a C input is ``beta*C`` added to."""
        _, _, _, (c_serial, _), runs = plane_runs
        for plane, (c, report) in runs.items():
            adopted = [key for key in c.keys() if not c.get(key).flags.owndata]
            assert adopted, plane
            for i, j in c.keys():
                tile = c.get_tile(i, j)
                assert tile.flags.writeable, plane
                assert np.array_equal(tile, c_serial.get_tile(i, j)), plane
            # The names went with the run although the result is still alive.
            assert active_segments() == frozenset()
            assert not set(report.segments) & set(os.listdir("/dev/shm")), plane
            assert mapped_segments(report.segments), plane

    @pytest.mark.parametrize("plane", [
        pytest.param("fork", marks=needs_fork), "spawn", "pool",
    ])
    def test_a_mapping_lives_as_long_as_its_tiles(self, plane):
        a, b = operands(seed=14)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        c_serial, _ = execute_plan(plan, a, b)
        fds = len(os.listdir("/proc/self/fd"))
        c, report = run_on_plane(plane, plan, a, b)
        names = [n for n in report.segments if n.rsplit("-", 1)[1][0] == "c"]
        # No C input: every tile is an arena view, and both C arenas stay
        # mapped — without a name, a descriptor or an owner.
        assert not any(c.get(key).flags.owndata for key in c.keys())
        assert mapped_segments(report.segments) == sorted(names)
        assert not set(report.segments) & set(os.listdir("/dev/shm"))
        assert active_segments() == frozenset()
        assert len(os.listdir("/proc/self/fd")) == fds
        i, j = next(iter(c.keys()))
        tile = c.get_tile(i, j)
        del c, report
        gc.collect()
        assert np.array_equal(tile, c_serial.get_tile(i, j))
        tile += 1.0  # still writable memory, not a dangling view
        assert len(mapped_segments(names)) == 1
        del tile
        gc.collect()
        assert mapped_segments(names) == []

    def test_one_shot_run_leaves_stderr_empty(self, tmp_path):
        """A result kept until interpreter exit outlives every
        ``SharedMemory`` object of its run; nothing may complain."""
        script = tmp_path / "one_shot.py"
        script.write_text(
            "from tests.test_dist_executor import operands\n"
            "from repro.core import psgemm_distributed\n"
            "from repro.machine import summit\n"
            "a, b = operands(seed=0)\n"
            "c, report = psgemm_distributed(a, b, summit(2), p=2)\n"
            "assert not any(c.get(key).flags.owndata for key in c.keys())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


@pytest.mark.dist
def test_pool_fingerprints_only_a_generated_b(monkeypatch):
    """Only a generated B's warm cache is keyed by B's fingerprint: a
    pooled job over a concrete B hashes none of it, while a generated B
    still is, and its second job is served warm."""
    calls = []
    real = coordinator.b_fingerprint
    monkeypatch.setattr(
        coordinator, "b_fingerprint", lambda b: calls.append(b) or real(b)
    )
    a, b = operands(seed=12, m=100, nk=200)
    b_gen = GeneratedCollection(b.sparse_shape(), seed=5)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
    pool = WorkerPool(plan.grid.nprocs, tile_cache_factory=WarmTileCache)
    try:
        for _ in range(2):
            c, _ = execute_plan_distributed(plan, a, b, pool=pool)
            assert np.array_equal(c.to_dense(), execute_plan(plan, a, b)[0].to_dense())
        assert calls == []
        reports = [
            execute_plan_distributed(plan, a, b_gen.empty_clone(), pool=pool)[1]
            for _ in range(2)
        ]
    finally:
        pool.close()
    assert len(calls) == 2
    assert reports[0].b_store_hits == 0 and reports[1].b_store_hits > 0


class TestPoolLifecycle:
    def test_close_ends_idle_workers_through_the_pill(self):
        pool = WorkerPool(2)
        pool.start()
        procs = [pool.ensure(rank) for rank in range(2)]
        pool.close()
        assert [p.exitcode for p in procs] == [0, 0]  # not -15: none was signalled
        assert mp.active_children() == []
        pool.close()  # idempotent

    def test_drain_drops_what_a_dead_run_left(self):
        pool = WorkerPool(1)
        try:
            worker_end = pool.comm.endpoint(0)
            worker_end.send(COORDINATOR, DoneMsg(0, WorkerReport(0, 3, NumericStats(), c_index={})))
            worker_end.send_telemetry(HeartbeatMsg(0, 3, 0, 0))
            deadline = time.monotonic() + 5.0
            dropped = 0
            while dropped < 2 and time.monotonic() < deadline:
                dropped += pool.drain()  # the feeder threads deliver asynchronously
            assert dropped == 2 and pool.drain() == 0
        finally:
            pool.close()


class TestSharedMemoryLifecycle:
    def test_all_segments_unlinked_after_success(self, q2_run):
        from multiprocessing import shared_memory

        _, report = q2_run
        assert report.segments, "run should have created shm segments"
        assert active_segments() == frozenset()
        for name in report.segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_all_segments_unlinked_after_failure(self):
        """A rank gone silent with nothing watching its heartbeats: the run
        fails at its timeout, and teardown still unlinks every segment."""
        a, b = operands(seed=5)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        with pytest.raises(DistExecutionError, match="timed out"):
            execute_plan_distributed(
                plan, a, b, fault_plan=FaultPlan.stall(0, 1),
                heartbeat_interval=0, timeout=1.0,
            )
        assert active_segments() == frozenset()

    @needs_fork
    def test_lost_run_releases_the_tiles_it_folded(self, monkeypatch, tmp_path):
        """Rank 0 is folded into the result, then rank 1 aborts: the run's
        segments are in none of ``/dev/shm``, ``active_segments()`` or this
        process's maps, while the exception is held and after it is gone."""
        from repro.dist import read_events, worker

        coordinator_pid, real = os.getpid(), worker.run_rank
        folded, fold = mp.get_context("fork").Event(), coordinator._Coordinator.fold

        def folding(self, producer, *args):
            fold(self, producer, *args)
            if producer == 0:
                folded.set()

        def late(msg, *args, **kwargs):  # forked workers inherit the patch
            if os.getpid() != coordinator_pid and msg.proc.rank == 1:
                folded.wait(timeout=60)  # rank 1 starts once rank 0 is folded
            return real(msg, *args, **kwargs)

        names, teardown = [], coordinator._Coordinator.teardown

        def spying(self):
            names.extend(arena.name for arena in self.arenas)
            teardown(self)

        monkeypatch.setattr(worker, "run_rank", late)
        monkeypatch.setattr(coordinator._Coordinator, "fold", folding)
        monkeypatch.setattr(coordinator._Coordinator, "teardown", spying)
        a, b = operands(seed=6)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        events_path = str(tmp_path / "events.jsonl")
        with start_method("fork"), pytest.raises(
            DistExecutionError, match="rank 1 aborted"
        ) as lost:
            # No heartbeats: however long rank 1 waits, it is not a stall.
            execute_plan_distributed(
                plan, a, b, fault_plan=FaultPlan.abort(1, 1), events_path=events_path,
                heartbeat_interval=0,
            )
        kinds = [(e["event"], e.get("rank")) for e in read_events(events_path)]
        assert kinds.index(("rank_done", 0)) < kinds.index(("abort", 1))
        assert sorted(n.rsplit("-", 1)[1] for n in names) == ["c0a0", "c1a0"]
        assert lost.tb is not None  # the run's frames are alive ...
        assert mapped_segments(names) == []  # ... and hold none of its tiles
        del lost
        gc.collect()
        assert mapped_segments(names) == []
        assert active_segments() == frozenset()
        assert not set(names) & set(os.listdir("/dev/shm"))
        assert mp.active_children() == []

    def test_arena_roundtrip_and_unlink(self):
        rng = np.random.default_rng(0)
        tiles = {(0, 0): rng.standard_normal((4, 5)), (1, 2): rng.standard_normal((3, 3))}
        arena = TileArena.pack("t", tiles.items())
        try:
            attached = TileArena.attach(arena.meta())
            for key, arr in tiles.items():
                view = attached.get(key)
                assert not view.flags.writeable
                assert np.array_equal(view, arr)
            entry = arena.index[(0, 0)]
            assert np.array_equal(arena.read(entry), tiles[(0, 0)])
            attached.close()
        finally:
            arena.unlink()
        assert arena.name not in active_segments()

    def test_arena_overflow_rejected(self):
        arena = TileArena.allocate("small", 8)
        try:
            with pytest.raises(ValueError):
                arena.put((0, 0), np.zeros((2, 2)))
        finally:
            arena.unlink()

    def test_repack_reuses_the_segment_and_forgets_the_old_packing(self):
        rng = np.random.default_rng(1)
        first = {(0, 0): rng.standard_normal((4, 5)), (1, 2): rng.standard_normal((3, 3))}
        second = {(0, 1): rng.standard_normal((2, 6)), (0, 0): rng.standard_normal((1, 1))}
        arena = TileArena.pack("t", first.items())
        try:
            name, size, before = arena.name, arena.size, mapped_segments([arena.name])
            arena.repack(second.items())
            assert (arena.name, arena.size) == (name, size)
            assert mapped_segments([name]) == before == [name]
            assert active_segments() == {name}
            assert sorted(arena.index) == sorted(second)  # (1, 2) is gone
            assert arena.used_bytes == sum(t.nbytes for t in second.values())
            attached = TileArena.attach(arena.meta())  # by the same name
            for key, tile in second.items():
                assert np.array_equal(attached.get(key), tile)
            attached.close()
            # Too large: refused, and the arena still holds the second packing.
            with pytest.raises(ValueError, match="cannot hold"):
                arena.repack([((0, 0), np.zeros((40, 40)))])
            assert sorted(arena.index) == sorted(second)
            assert np.array_equal(arena.get((0, 1)), second[(0, 1)])
        finally:
            arena.unlink()
        assert active_segments() == frozenset()


@pytest.fixture()
def reaped(monkeypatch):
    """The worker processes of every pool closed in this test, as its
    ``close`` left them (a one-shot run closes its own at teardown)."""
    procs, close = [], WorkerPool.close

    def spying(self, *args, **kwargs):
        procs.extend(self._workers.values())
        close(self, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "close", spying)
    return procs


class TestWorkersLeave:
    """A one-shot rank that has reported exits on its own, and one that
    waits in its dispatch loop exits on the pool's pill: teardown signals
    nobody."""

    @pytest.mark.parametrize("plane", [pytest.param("fork", marks=needs_fork), "spawn"])
    def test_fault_free_workers_exit_zero(self, reaped, plane):
        a, b = operands(seed=15)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        c_serial, _ = execute_plan(plan, a, b)
        with start_method(plane):
            c, _ = execute_plan_distributed(plan, a, b)
        assert np.array_equal(c.to_dense(), c_serial.to_dense())
        assert [p.exitcode for p in reaped] == [0, 0]  # not -15: nobody was signalled
        assert mp.active_children() == []
        assert active_segments() == frozenset()

    @pytest.mark.parametrize("plane", [pytest.param("fork", marks=needs_fork), "spawn"])
    def test_no_process_or_segment_outlives_a_call(self, plane):
        """Fault-free or aborted, a one-shot call closes the pool it
        borrowed: no child process, no segment is left."""
        a, b = operands(seed=15)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        with start_method(plane):
            execute_plan_distributed(plan, a, b)
            assert mp.active_children() == []
            assert active_segments() == frozenset()
            with pytest.raises(DistExecutionError, match="aborted"):
                execute_plan_distributed(plan, a, b, fault_plan=FaultPlan.abort(1, 1))
        assert mp.active_children() == []
        assert active_segments() == frozenset()

    @pytest.mark.dist
    def test_late_kill_is_retried_after_the_sibling_has_left(self, reaped):
        """Rank 0 dies on its last task: by the time the patrol's grace has
        passed and the retry is forked, rank 1 is long gone."""
        a, b = operands(seed=6)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2, gpus_per_proc=6)
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6,
            fault_plan=FaultPlan.kill(0, plan.procs[0].ntasks),
        )
        assert report.attempts == {0: 2, 1: 1}
        assert [p.exitcode for p in reaped] == [0, 0]  # the retry and the sibling
        assert mp.active_children() == []


class TestOneShotCriticalPath:
    """A one-shot run's fixed cost hides behind its slowest rank: the
    heaviest rank is started first and each rank's C is folded into the
    result the moment it reports."""

    def test_heaviest_rank_is_started_first(self):
        # Odd tile rows are 4x the even ones: rank 1 of the 2x1 grid holds
        # four fifths of A's rows, hence most of the flops.
        rows = Tiling.from_sizes([20, 80] * 3)
        inner = random_tiling(300, 20, 80, seed=1)
        a = random_block_sparse(rows, inner, 1.0, seed=2)
        b = random_block_sparse(inner, inner, 0.5, seed=3)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2, gpus_per_proc=6)
        assert plan.procs[1].flops > plan.procs[0].flops
        c_serial, _ = execute_plan(plan, a, b)
        c, report = execute_plan_distributed(plan, a, b)
        assert np.array_equal(c.to_dense(), c_serial.to_dense())
        spawned = sorted(
            (e.start, e.task) for e in report.trace.events
            if e.task.startswith("spawn.") and e.task != "spawn.setup"
        )
        assert [task for _, task in spawned] == ["spawn.1", "spawn.0"]

    def test_a_rank_is_folded_before_the_slower_one_reports(self):
        a, b = operands(seed=3)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2, gpus_per_proc=6)
        c_serial, _ = execute_plan(plan, a, b)
        c, report = execute_plan_distributed(
            plan, a, b, fault_plan=FaultPlan.slow(1, at_task=1, seconds=0.002)
        )
        assert np.array_equal(c.to_dense(), c_serial.to_dense())
        events = report.trace.events
        folds = sorted(e.end for e in events if e.task == "reduce")
        assert len(folds) == 3  # rank 0, rank 1, then the beta*C-only tiles
        # The slow rank's C left it after the fast rank's was in the result.
        assert folds[0] < max(e.end for e in events if e.task == "writeback.1")


class TestFaultRecovery:
    @pytest.mark.dist
    def test_killed_worker_is_retried_and_result_exact(self):
        a, b = operands(seed=6)
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6, fault_plan=FaultPlan.kill(0, 5)
        )
        assert report.attempts[0] == 2  # one failure, one successful retry
        assert all(report.attempts[r] == 1 for r in report.attempts if r != 0)
        assert report.reassigned == []
        # The retry was re-forked holding the same operands: still no arena;
        # and holding its own attempt-1 message: nothing was sent.
        assert_resident(report)
        assert report.comm.scatter_bytes() == 0
        assert sorted(segment_tags(report)) == ["c0a0", "c0a1", "c1a0"]
        # Only the live attempts' tiles were adopted: the dead attempt's
        # arena is unmapped as well as unlinked.
        assert sorted(
            n.rsplit("-", 1)[1] for n in mapped_segments(report.segments)
        ) == ["c0a1", "c1a0"]
        assert not set(report.segments) & set(os.listdir("/dev/shm"))

    @pytest.mark.dist
    def test_kill_inside_a_kgroup_is_retried_and_result_exact(self):
        """``on_task`` fires per task, not per stacked GEMM: a kill armed for
        the second row slice of a panel product fires, and the retry —
        which starts the group over — reproduces the oracle."""
        a, b = fine_operands(seed=6)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2, gpus_per_proc=6)
        at, before = None, 0
        for _, _, block in proc_blocks(plan.procs[0], plan.grid.gpus_per_proc):
            cols_of_k = block_cols_of_k(block, plan.b_shape.csr)
            for chunk in block.chunks:
                for group in chunk_groups(chunk):
                    ncols = len(cols_of_k[int(chunk.a_cols[group[0]])])
                    if at is None and len(group) > 1 and ncols:
                        at = before + 2
                    before += len(group) * ncols
        assert before == plan.procs[0].ntasks
        assert at is not None, "rank 0 runs no k-group"
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6, fault_plan=FaultPlan.kill(0, at)
        )
        assert report.attempts[0] == 2

    @pytest.mark.dist
    def test_persistently_failing_rank_is_reassigned(self):
        a, b = operands(seed=8)
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6, fault_plan=FaultPlan.kill(1, 3, once=False)
        )
        assert report.attempts[1] == 3  # initial + retry + reassigned inline
        assert report.reassigned == [1]
        assert_resident(report)  # the inline spare read A and B directly too

    @pytest.mark.dist
    def test_killed_worker_with_generated_b_still_exact(self):
        a, bmat = operands(seed=10)
        b_shape = bmat.sparse_shape()
        c_serial, _ = psgemm_numeric(
            a, GeneratedCollection(b_shape, seed=5), summit(2), p=2, b_shape=b_shape
        )
        c_dist, report = psgemm_distributed(
            a, GeneratedCollection(b_shape, seed=5), summit(2), p=2, b_shape=b_shape,
            fault_plan=FaultPlan.kill(0, 2, once=False),
        )
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        assert report.reassigned == [0]

    @pytest.mark.dist
    def test_delayed_worker_finishes_without_recovery(self):
        a, b = operands(seed=11)
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6, fault_plan=FaultPlan.delay(0, 5, seconds=0.3)
        )
        assert all(n == 1 for n in report.attempts.values())
        assert report.reassigned == []

    @pytest.mark.dist
    @pytest.mark.parametrize("fault,kwargs,ending,reason", [
        (FaultPlan.abort(0, 5), {}, "aborted", "rank 0 aborted"),
        # Silent, with no heartbeat to miss: nothing recovers it.
        (FaultPlan.stall(0, 1), dict(heartbeat_interval=0, timeout=1.0),
         "failed", "distributed run timed out"),
    ], ids=["abort", "unrecoverable-rank"])
    def test_lost_run_ends_its_log(self, tmp_path, capsys, fault, kwargs, ending, reason):
        """A lost run leaves exactly one terminal record, with the reason,
        and a monitor following the log stops (exit 1) on it."""
        from repro.cli import main
        from repro.dist import read_events
        from repro.dist.health import TERMINAL_EVENTS

        a, b = operands(seed=6)
        events_path = str(tmp_path / "events.jsonl")
        with pytest.raises(DistExecutionError, match=reason):
            psgemm_distributed(
                a, b, summit(2), p=2, events_path=events_path,
                fault_plan=fault, **kwargs,
            )
        assert not active_segments()
        events = read_events(events_path)
        ends = [e for e in events if e["event"] in TERMINAL_EVENTS]
        assert [e["event"] for e in ends] == [ending] and ends[0] is events[-1]
        assert reason in ends[0]["reason"]
        assert main(["monitor", events_path, "--follow"]) == 1
        assert f"run {ending}: {reason}" in capsys.readouterr().out

    def test_fault_plan_parsing(self):
        plan = FaultPlan.parse("1:20")
        assert plan.for_rank(1).kind == "kill" and plan.for_rank(1).at_task == 20
        assert plan.for_rank(0) is None
        assert FaultPlan.parse("0:3:delay").for_rank(0).kind == "delay"
        with pytest.raises(ValueError):
            FaultPlan.parse("nope")
        with pytest.raises(ValueError):
            FaultPlan.parse("0:0")  # at_task is 1-based
        with pytest.raises(ValueError):
            FaultPlan.parse("0:5:explode")  # unknown fault kind


@pytest.mark.dist
class TestInlineSpare:
    """A twice-failed rank runs ``run_rank`` inside the coordinator: one
    more producer like any other — its own arena, its own report, its own
    span stream."""

    def test_reassigned_rank_is_adopted_and_traced_like_any_other(self):
        a, b = operands(seed=8)
        c, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6, fault_plan=FaultPlan.kill(1, 3, once=False)
        )
        assert report.reassigned == [1]
        # No C input: every tile, the spare's included, is an arena view.
        assert not any(c.get(key).flags.owndata for key in c.keys())
        assert sorted(segment_tags(report)) == ["c0a0", "c1a0", "c1a1", "c1a2"]
        assert active_segments() == frozenset()
        assert not set(report.segments) & set(os.listdir("/dev/shm"))
        # Only the attempts that reported are mapped; the dead ones never were.
        assert sorted(
            n.rsplit("-", 1)[1] for n in mapped_segments(report.segments)
        ) == ["c0a0", "c1a2"]
        # The spare's spans arrive as a merged stream, in the vocabulary of
        # every other rank, and no spawn window stretches over dead attempts.
        rank1 = {e.task for e in report.trace.events if e.resource == "net.1"}
        assert {"shm.attach", "writeback.1", "report.1"} <= rank1
        assert any(
            e.resource.startswith("gpu.1.") and e.resource.endswith(".comp")
            for e in report.trace.events
        )
        assert not any(e.task == "spawn.1" for e in report.trace.events)
        assert report.attribution().path[0].start == pytest.approx(0.0, abs=1e-3)
        names = list(report.segments)
        del c, report
        gc.collect()
        assert mapped_segments(names) == []

    def test_reassigned_rank_says_what_it_restored(self, tmp_path):
        """The spare gets the message a worker would: the restore list, and
        the ``resume`` event that goes with it."""
        from repro.dist import read_events

        a, b = operands(seed=8)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        first_block = plan.procs[1].blocks[0].ntasks
        assert len(plan.procs[1].blocks) > 1
        c_serial, _ = execute_plan(plan, a, b)
        events_path = _events_path(tmp_path, "inline-resume-events.jsonl")
        c_dist, report = execute_plan_distributed(
            plan, a, b,
            fault_plan=FaultPlan.kill(1, first_block + 1, once=False),
            checkpoint_dir=str(tmp_path / "ckpt"), events_path=events_path,
        )
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        assert report.reassigned == [1]
        assert report.blocks_restored > 0
        resumes = [e for e in read_events(events_path) if e["event"] == "resume"]
        assert [(e["rank"], e["attempt"]) for e in resumes] == [(1, 1), (1, 2)]
        assert resumes[-1]["blocks"] == report.blocks_restored
        assert_report_folds_its_log(report)
        assert active_segments() == frozenset()

    def test_one_shot_run_with_a_reassignment_leaves_stderr_empty(self, tmp_path):
        script = tmp_path / "reassigned.py"
        script.write_text(
            "from tests.test_dist_executor import operands\n"
            "from repro.core import psgemm_distributed\n"
            "from repro.dist import FaultPlan\n"
            "from repro.machine import summit\n"
            "a, b = operands(seed=8)\n"
            "c, report = psgemm_distributed(\n"
            "    a, b, summit(2), p=2, fault_plan=FaultPlan.kill(1, 3, once=False))\n"
            "assert report.reassigned == [1]\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


class TestStaleReplies:
    @pytest.mark.parametrize("reply,kind,earlier_attempts", [
        (DoneMsg(0, WorkerReport(0, 7, NumericStats(), c_index={})), "done", 0),
        (ErrorMsg(0, 0, "tb"), "error", 1),
    ], ids=["superseded-attempt", "earlier-job"])
    def test_stale_reply_is_discarded(self, reply, kind, earlier_attempts, tmp_path):
        """A reply from a superseded attempt, or one an earlier job on the
        same pool left queued (that job numbered its attempts first), is
        logged and dropped — never credited, never recovered from."""
        from repro.dist import read_events

        assert pickle.loads(pickle.dumps(reply)) == reply
        a, b = operands(seed=12, m=100, nk=200)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        c_serial, s_serial = execute_plan(plan, a, b)
        events_path = str(tmp_path / "events.jsonl")
        pool = WorkerPool(plan.grid.nprocs)
        for _ in range(earlier_attempts):
            pool.next_attempt(0)
        try:
            pool.comm.endpoint(0).send(COORDINATOR, reply)
            c_dist, report = execute_plan_distributed(
                plan, a, b, pool=pool, events_path=events_path
            )
        finally:
            pool.close()
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        assert report.stats == s_serial
        stale = [e for e in read_events(events_path) if e["event"] == "stale_report"]
        assert [(e["rank"], e["kind"]) for e in stale] == [(0, kind)]
        assert set(report.attempts.values()) == {1}  # nothing was retried
        assert_report_folds_its_log(report)


class TestBService:
    def _collection(self):
        rows = random_tiling(60, 10, 20, seed=0)
        shape = random_block_sparse(rows, rows, 1.0, seed=1).sparse_shape()
        return GeneratedCollection(shape, seed=42)

    def test_generates_once_and_caches(self):
        col = self._collection()
        svc = BService(col, budget_bytes=1 << 20)
        t1 = svc.tile(0, 0, 0)
        t2 = svc.tile(0, 0, 0)
        assert t1 is t2
        assert svc.generated_tiles() == 1
        assert np.array_equal(t1, col.generate_tile(0, 0))

    def test_lru_budget_evicts_and_regenerates_identically(self):
        col = self._collection()
        keys = [(k, j) for k in range(col.shape.ntile_rows)
                for j in range(col.shape.ntile_cols) if col.has_tile(k, j)][:6]
        budget = sum(col.generate_tile(k, j).nbytes for k, j in keys[:2]) + 8
        svc = BService(col, budget_bytes=budget)
        first = {key: svc.tile(0, *key).copy() for key in keys}
        assert svc.lru_evictions > 0
        assert svc.max_instantiations() == 1
        # A re-pull of an evicted tile regenerates bit-identical values.
        again = svc.tile(0, *keys[0])
        assert np.array_equal(again, first[keys[0]])

    def test_block_lifecycle_evict_frees_budget(self):
        col = self._collection()
        svc = BService(col, budget_bytes=1 << 20)
        svc.tile(0, 0, 0)
        svc.evict(0, 0, 0)
        svc.evict(0, 0, 0)  # idempotent
        # Cache and budget let go of it: the next pull regenerates and
        # reserves it again.
        svc.tile(0, 0, 0)
        assert (svc.hits, svc.generated_tiles()) == (0, 2)


class TestNumericStatsMerge:
    def test_merge_sums_counters_and_maxes_peak(self):
        s1 = NumericStats(ntasks=2, flops=4.0, h2d_bytes=10, d2h_bytes=5,
                          b_tiles_generated=1, gpu_peak_bytes=100,
                          per_proc_tasks={0: 2})
        s2 = NumericStats(ntasks=3, flops=6.0, h2d_bytes=20, d2h_bytes=7,
                          b_tiles_generated=2, gpu_peak_bytes=80,
                          per_proc_tasks={1: 3})
        m = NumericStats.merge([s1, s2])
        assert m.ntasks == 5 and m.flops == 10.0
        assert m.h2d_bytes == 30 and m.d2h_bytes == 12
        assert m.b_tiles_generated == 3
        assert m.gpu_peak_bytes == 100
        assert m.per_proc_tasks == {0: 2, 1: 3}

    def test_merge_overlapping_ranks_sums(self):
        parts = [NumericStats(per_proc_tasks={0: 2}), NumericStats(per_proc_tasks={0: 3})]
        assert NumericStats.merge(parts).per_proc_tasks == {0: 5}

    def test_merge_empty(self):
        m = NumericStats.merge([])
        assert m == NumericStats()


def _events_path(tmp_path, name):
    """Place event logs under ``REPRO_EVENTS_DIR`` when CI sets it.

    CI uploads that directory as an artifact on failure, so a red
    telemetry test ships its own evidence; locally the log lands in the
    test's tmp dir and vanishes with it.
    """
    root = os.environ.get("REPRO_EVENTS_DIR")
    if root:
        os.makedirs(root, exist_ok=True)
        return os.path.join(root, name)
    return str(tmp_path / name)


class TestTelemetry:
    """Heartbeats, merged metrics, stall recovery and the event log."""

    def test_metrics_merged_into_report(self, q2_run):
        plan, report = q2_run
        snap = report.metrics
        assert snap is not None and not snap.empty
        # The fleet-total GEMM counter must agree with the merged stats.
        assert snap.get("repro_gemm_tasks_total") == report.stats.ntasks
        assert snap.get("repro_gemm_flops_total") == report.stats.flops
        # One observation per chunk GEMM stream: the histogram and the
        # trace describe the same events.
        h = snap.histograms["repro_chunk_gemm_seconds"]
        n_chunk_spans = sum(
            1 for e in report.trace.events if e.task.endswith(".gemm")
        )
        assert h.count == n_chunk_spans > 0
        assert report.health is not None
        # The run is short enough that a rank's first beat can race its
        # done report (the terminal-state guard then drops it), so assert
        # consistency, not a floor, on the accepted-beat count.
        assert snap.get("repro_heartbeats_total") == report.event_totals.get("heartbeat", 0)
        assert all(rh.state == "done" for rh in report.health.ranks.values())
        # Every beat's bytes are counted on receipt, accepted or not —
        # and beat 0 fires on scatter receipt, so some always arrive.
        assert report.comm.telemetry_total() > 0
        assert report.health.enabled

    def test_prometheus_export_from_real_run(self, q2_run):
        _, report = q2_run
        text = report.metrics.to_prometheus()
        assert text.endswith("\n")
        assert "# TYPE repro_gemm_tasks_total counter" in text
        assert "# TYPE repro_chunk_gemm_seconds histogram" in text
        assert 'repro_chunk_gemm_seconds_bucket{le="+Inf"}' in text
        # Exposition discipline: every non-comment line is `name[{labels}] value`.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_labels, value = line.rsplit(" ", 1)
            float(value)
            assert name_labels.startswith("repro_")

    def test_metrics_disabled_run_reports_none(self):
        a, b = operands(seed=12, m=100, nk=200)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        c_dist, report = execute_plan_distributed(
            plan, a, b, metrics=False, heartbeat_interval=0.0
        )
        assert report.metrics is None
        assert report.health is not None and not report.health.enabled
        c_serial, _ = execute_plan(plan, a, b)
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())

    @needs_fork
    def test_span_recorder_bound_counts_drops(self, monkeypatch):
        # A tiny recorder bound (the forked workers inherit it): the run
        # stays exact, the report says how much of the trace is missing
        # instead of silently truncating.
        monkeypatch.setattr(tracing, "MAX_SPANS", 4)
        a, b = operands(seed=13, m=100, nk=200)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        with start_method("fork"):
            c_dist, report = execute_plan_distributed(plan, a, b)
        c_serial, _ = execute_plan(plan, a, b)
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        assert report.spans_dropped > 0
        assert report.metrics.get("repro_spans_dropped_total") == report.spans_dropped
        lost = {k: v for k, v in report.span_counters.items() if k.startswith("dropped.")}
        assert lost and sum(lost.values()) > 0

    @pytest.mark.dist
    def test_stalled_rank_detected_and_reassigned(self, tmp_path):
        # A rank that hangs forever (stall fault = suspend heartbeats and
        # sleep) must be caught by missed heartbeats, retried once, then
        # reassigned — and the run must still be bit-exact.
        events_path = _events_path(tmp_path, "stall-run-events.jsonl")
        a, b = operands(seed=14)
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6,
            fault_plan=FaultPlan.stall(1, 5, once=False),
            heartbeat_interval=0.05,
            stall_after_beats=4,
            events_path=events_path,
        )
        assert report.attempts[1] == 3  # initial + retry + reassigned inline
        assert report.reassigned == [1]
        assert sorted(set(report.stalled)) == [1]
        assert report.health.ranks[1].state == "reassigned"
        assert report.health.ranks[1].stalls == 2
        assert report.metrics.get("repro_stalls_detected_total") == 2
        assert report.metrics.get("repro_worker_retries_total") == 1
        assert report.metrics.get("repro_ranks_reassigned_total") == 1

        # The event log tells the same story, in order: the rank beat,
        # went silent, was declared stalled, retried, stalled again,
        # reassigned; the run still finished.
        from repro.dist import read_events

        events = read_events(events_path)
        assert report.events_path == events_path
        kinds_r1 = [e["event"] for e in events if e.get("rank") == 1]
        for earlier, later in [("heartbeat", "stall"), ("stall", "retry"),
                               ("retry", "reassign")]:
            assert kinds_r1.index(earlier) < kinds_r1.index(later), kinds_r1
        assert events[0]["event"] == "plan_accepted"
        assert events[-1]["event"] == "done"
        assert events[-1]["stalled"] == [1]
        # And the monitor's replay reconstructs the same terminal state.
        assert_report_folds_its_log(report)

    @pytest.mark.dist
    def test_healthy_run_event_log_lifecycle(self, tmp_path):
        from repro.dist import read_events

        events_path = _events_path(tmp_path, "healthy-run-events.jsonl")
        a, b = operands(seed=15)
        # Hold each rank at its first task for a few beat intervals so
        # the first beats are drained well before the done reports land
        # (the test problem alone finishes inside one drain cycle, which
        # lets a rank's only beat race its final report).
        from repro.dist.faults import FaultInjection

        slow = FaultPlan(tuple(
            FaultInjection(rank=r, at_task=1, kind="delay", delay_seconds=0.4)
            for r in (0, 1)
        ))
        _, report = assert_bit_equal_runs(
            a, b, summit(2), 2, 6, fault_plan=slow,
            heartbeat_interval=0.05, events_path=events_path,
        )
        events = read_events(events_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "plan_accepted"
        assert kinds[-1] == "done"
        assert kinds.count("scatter") == 2
        assert kinds.count("rank_done") == 2
        assert "stall" not in kinds and "reassign" not in kinds
        for rank in (0, 1):
            rk = [e["event"] for e in events if e.get("rank") == rank]
            assert rk.index("worker_up") < rk.index("rank_done")
            # The 0.4 s hold spans ~8 beat intervals; ≥2 accepted beats
            # per rank is a safe floor.
            assert rk.count("heartbeat") >= 2
        assert events[-1]["heartbeats"] == report.event_totals.get("heartbeat", 0)
        assert_report_folds_its_log(report)


class TestSeriesAreFolds:
    """``report.metrics`` is a fold of the report the run returns
    (:data:`repro.runtime.metrics.SERIES`); nothing is counted for it live."""

    def test_measured_trace_exposes_the_duration_series(self, q2_run):
        from repro.runtime.metrics import histograms_of

        plan, report = q2_run
        n_measured = sum(e.task.endswith(".gemm") for e in report.trace.events)
        assert n_measured == plan.total_chunks
        hists = histograms_of(report.trace)
        assert hists["repro_chunk_gemm_seconds"].count == plan.total_chunks
        assert hists["repro_prefetch_seconds"].count > 0

    def test_untraced_run_has_counters_and_no_histograms(self):
        a, b = operands(seed=12, m=100, nk=200)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        _, report = execute_plan_distributed(plan, a, b, trace=False)
        snap = report.metrics
        assert snap.get("repro_gemm_tasks_total") == report.stats.ntasks > 0
        assert snap.get("repro_gemm_flops_total") == report.stats.flops
        assert snap.get("repro_b_service_misses_total") == report.stats.b_tiles_generated
        assert snap.get("repro_gpu_peak_bytes") == report.stats.gpu_peak_bytes
        assert snap.histograms == {}
        assert not report.trace.events


class TestCliIntegration:
    @pytest.mark.dist
    def test_selftest_procs(self, capsys):
        from repro.cli import main

        assert main(["selftest", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "matches serial executor bit-for-bit: True" in out

    @pytest.mark.dist
    def test_selftest_procs_with_fault(self, capsys):
        from repro.cli import main

        assert main(["selftest", "--procs", "2", "--inject-fault", "0:5"]) == 0
        out = capsys.readouterr().out
        assert "retried [0]" in out
        assert "matches dense reference: True" in out

    @pytest.mark.dist
    def test_selftest_procs_with_stall_fault(self, capsys, tmp_path):
        from repro.cli import main

        events = str(tmp_path / "run-events.jsonl")
        assert main(["selftest", "--procs", "2",
                     "--inject-fault", "1:5:stall", "--events", events]) == 0
        out = capsys.readouterr().out
        assert "stalled [1]" in out
        assert "retried [1]" in out
        assert "matches serial executor bit-for-bit: True" in out
        from repro.dist import read_events

        assert any(e["event"] == "stall" for e in read_events(events))
