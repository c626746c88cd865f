"""Tests for the serving layer (:mod:`repro.serve`).

The contract under test: one warm pool serves many jobs, every job's C
is bit-for-bit equal to the serial oracle (even when clients submit
concurrently), job artifacts never collide, higher-priority jobs jump
the queue, admission control rejects what the pool cannot run, and a
failed job leaves the service healthy.

Fast unit tests (warm cache, admission, event-log scoping) run in
tier-1; everything that spawns worker processes is marked ``dist`` and
runs via ``make test-dist``.
"""

import gc
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import inspect
from repro.machine import summit
from repro.perf import read_run_artifact
from repro.runtime import DelayedGeneratedCollection, GeneratedCollection, execute_plan
from repro.analysis import verify_plan
from repro.serve import (
    MEMORY_RULES,
    AdmissionError,
    BackpressureError,
    ContractionService,
    JobFailedError,
    WarmTileCache,
)
from repro.dist import active_segments
from repro.serve import service as service_module
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling
from tests.test_dist_executor import mapped_segments, segment_tags


def job_state(svc, job_id):
    return next(j["state"] for j in svc.jobs() if j["job_id"] == job_id)


def operands(seed=0, m=200, nk=600, density=0.5, gen_delay_s=0.0):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b_shape = random_block_sparse(inner, inner, density, seed=seed + 3).sparse_shape()
    if gen_delay_s > 0.0:
        b = DelayedGeneratedCollection(b_shape, seed=seed + 4, gen_delay_s=gen_delay_s)
    else:
        b = GeneratedCollection(b_shape, seed=seed + 4)
    return a, b


@pytest.fixture()
def problem():
    a, b = operands(seed=0)
    plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)
    assert plan.grid.nprocs == 2
    c_serial, _ = execute_plan(plan, a, b.empty_clone())
    return plan, a, b, c_serial.to_dense()


# ---- warm cache (tier-1) ---------------------------------------------------


class TestWarmTileCache:
    def test_get_put_roundtrip_and_stats(self):
        cache = WarmTileCache(1 << 20)
        assert cache.get("ns", (0, 0)) is None
        tile = np.arange(6.0).reshape(2, 3)
        cache.put("ns", (0, 0), tile)
        out = cache.get("ns", (0, 0))
        assert np.array_equal(out, tile)
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_put_keeps_the_callers_array(self):
        cache = WarmTileCache(1 << 20)
        tile = np.ones((2, 2))
        tile.flags.writeable = False
        cache.put("ns", (0, 0), tile)
        assert cache.get("ns", (0, 0)) is tile  # no copy

    def test_namespaces_do_not_alias(self):
        cache = WarmTileCache(1 << 20)
        cache.put("b:aaa", (0, 0), np.zeros((2, 2)))
        assert cache.get("b:bbb", (0, 0)) is None

    def test_lru_eviction_under_budget(self):
        tile = np.zeros((8, 8))  # 512 B
        cache = WarmTileCache(tile.nbytes * 2)
        for i in range(3):
            cache.put("ns", (0, i), tile)
        assert cache.get("ns", (0, 0)) is None  # oldest evicted
        assert cache.get("ns", (0, 2)) is not None
        assert cache.evictions == 1
        assert cache.stats()["cached_bytes"] <= cache.budget_bytes

    def test_oversized_tile_not_cached(self):
        cache = WarmTileCache(64)
        cache.put("ns", (0, 0), np.zeros((8, 8)))
        assert len(cache) == 0

    def test_pickles_empty(self):
        import pickle

        cache = WarmTileCache(12345)
        cache.put("ns", (0, 0), np.zeros((2, 2)))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.budget_bytes == 12345
        assert len(clone) == 0 and clone.get("ns", (0, 0)) is None


# ---- admission control (tier-1: rejected before any process spawns) --------


@pytest.fixture()
def verify_calls(monkeypatch):
    """The plans admission's memory check was asked about, in order."""
    calls, real = [], service_module.check_memory

    def counting(plan, report):
        calls.append(plan)
        return real(plan, report)

    monkeypatch.setattr(service_module, "check_memory", counting)
    return calls


class TestAdmission:
    def test_rank_mismatch_rejected(self, problem):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs + 1)
        try:
            with pytest.raises(AdmissionError, match="rank"):
                svc.submit(plan, a, b.empty_clone())
            assert svc.pool.spawns == 0
        finally:
            svc.shutdown()

    def test_memory_rule_violation_rejected_with_findings(self, problem):
        plan, a, b, _ = problem
        plan.procs[0].blocks[0].c_bytes = plan.gpu_memory_bytes  # fires P110
        svc = ContractionService(plan.grid.nprocs)
        try:
            with pytest.raises(AdmissionError) as exc:
                svc.submit(plan, a, b.empty_clone())
            assert any(f.rule == "P110" for f in exc.value.findings)
            assert svc.pool.spawns == 0
        finally:
            svc.shutdown()

    def test_memory_findings_are_the_verifiers_memory_rules(self, problem):
        plan, *_ = problem
        plan.procs[0].blocks[0].c_bytes = plan.gpu_memory_bytes  # P110
        plan.procs[1].blocks[0].chunks[0].a_bytes = plan.gpu_memory_bytes  # P111, P112
        plan.gpu_memory_bytes = plan.b_shape.max_tile_nbytes() - 1  # P114
        found = service_module.memory_findings(plan)
        assert {f.rule for f in found} == MEMORY_RULES
        assert found == [f for f in verify_plan(plan).findings if f.rule in MEMORY_RULES]

    def test_unknown_job_id(self, problem):
        plan, *_ = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            with pytest.raises(ValueError, match="unknown job"):
                svc.result("nope")
        finally:
            svc.shutdown()

    def test_refusal_is_remembered_and_raised_on_every_submit(self, problem, verify_calls):
        plan, a, b, _ = problem
        plan.procs[0].blocks[0].c_bytes = plan.gpu_memory_bytes  # fires P110
        svc = ContractionService(plan.grid.nprocs)
        try:
            for _ in range(3):
                with pytest.raises(AdmissionError) as exc:
                    svc.submit(plan, a, b.empty_clone())
                assert any(f.rule == "P110" for f in exc.value.findings)
            # verified once, refused three times
            assert len(verify_calls) == 1 and verify_calls[0] is plan
            assert svc.pool.spawns == 0 and svc.jobs() == []
        finally:
            svc.shutdown()

    def test_submit_verifies_outside_the_service_lock(self, problem, monkeypatch):
        """Bugfix regression: ``submit`` ran ``verify_plan`` holding the lock,
        so ``jobs()`` and the scheduler's ``_finish`` of the
        running job waited behind every submission."""
        plan, a, b, _ = problem
        plan.procs[0].blocks[0].c_bytes = plan.gpu_memory_bytes  # refused: no job runs
        verifying, release = threading.Event(), threading.Event()
        real = service_module.check_memory

        def slow_verify(p, report):
            verifying.set()
            assert release.wait(timeout=30)
            return real(p, report)

        monkeypatch.setattr(service_module, "check_memory", slow_verify)
        svc = ContractionService(plan.grid.nprocs)
        outcome = []

        def client():
            try:
                svc.submit(plan, a, b.empty_clone())
            except AdmissionError as exc:
                outcome.append(exc)

        submitter = threading.Thread(target=client)
        try:
            submitter.start()
            assert verifying.wait(timeout=30)
            listed = []
            lister = threading.Thread(target=lambda: listed.append(svc.jobs()))
            lister.start()
            lister.join(timeout=10)
            assert listed == [[]], "jobs() waited behind a submit that was verifying"
        finally:
            release.set()
            submitter.join(timeout=30)
            svc.shutdown()
        assert not submitter.is_alive() and len(outcome) == 1

    @pytest.mark.parametrize("kwargs", [
        {"no_such_knob": 1}, {"pool": None}, {"run_id": "mine"},
    ], ids=lambda kw: next(iter(kw)))
    def test_mistyped_keyword_fails_the_constructor(self, monkeypatch, kwargs):
        """Bugfix regression: the constructor took any keyword, and every
        job then died of it as a ``JobFailedError`` (and a pool reset)."""
        # the frozen benchmark's call: RunConfig fields pass
        ContractionService(2, trace=False, metrics=False, timeout=5.0).shutdown()
        pools = []
        monkeypatch.setattr(service_module, "WorkerPool",
                            lambda *args, **kw: pools.append(args))
        threads = threading.active_count()
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            ContractionService(2, **kwargs)
        assert pools == [] and threading.active_count() == threads

    @pytest.mark.parametrize("kwargs", [
        {"no_such_knob": 1}, {"pool": None}, {"run_id": "mine"},
    ], ids=lambda kw: next(iter(kw)))
    def test_mistyped_keyword_fails_submit_not_the_job(self, problem, kwargs):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            with pytest.raises(TypeError, match=next(iter(kwargs))):
                svc.submit(plan, a, b.empty_clone(), **kwargs)
            assert svc.pool.spawns == 0 and svc.jobs() == []
        finally:
            svc.shutdown()


# ---- full service behaviour (multi-process; `make test-dist`) --------------


@pytest.mark.dist
class TestContractionService:
    def test_concurrent_jobs_bit_equal_to_serial_oracle(self, problem, tmp_path):
        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        try:
            def client(i: int) -> None:
                try:
                    jid = svc.submit(plan, a, b.empty_clone())
                    out, _ = svc.result(jid, timeout=120)
                    results[i] = out.to_dense()
                except BaseException as exc:  # noqa: BLE001 - reraised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not errors, errors
            assert len(results) == 4
            for i, dense in results.items():
                assert np.array_equal(dense, oracle), f"client {i} C differs"
        finally:
            svc.shutdown()

    def test_warm_pool_reused_across_jobs(self, problem, tmp_path):
        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            j1 = svc.submit(plan, a, b.empty_clone())
            out1, rep1 = svc.result(j1, timeout=120)
            spawns_after_first = svc.pool.spawns
            j2 = svc.submit(plan, a, b.empty_clone())
            out2, rep2 = svc.result(j2, timeout=120)
            assert np.array_equal(out1.to_dense(), oracle)
            assert np.array_equal(out2.to_dense(), oracle)
            # Same processes served both jobs...
            assert svc.pool.spawns == spawns_after_first == plan.grid.nprocs
            # ...and the second job's B tiles came from the warm tier.
            assert rep1.b_store_hits == 0
            assert rep2.b_store_hits > 0
            assert rep2.b_store_hits == rep2.stats.b_tiles_generated
        finally:
            svc.shutdown()

    def test_per_job_artifacts_are_disjoint(self, problem, tmp_path):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            ids = [svc.submit(plan, a, b.empty_clone()) for _ in range(2)]
            reports = [svc.result(j, timeout=120)[1] for j in ids]
        finally:
            svc.shutdown()
        names = sorted(os.listdir(tmp_path))
        for jid, rep in zip(ids, reports):
            assert rep.run_id == jid
            assert f"run-events.{jid}.jsonl" in names
            assert f"trace.{jid}.json" in names
            assert f"metrics.{jid}.prom" in names
            assert os.path.basename(rep.events_path) == f"run-events.{jid}.jsonl"
            # Each event log carries only its own run's records.
            with open(os.path.join(tmp_path, f"run-events.{jid}.jsonl")) as fh:
                records = [json.loads(line) for line in fh]
            assert records and all(r["run"] == jid for r in records)
            # The trace is the run artifact `repro explain --trace` audits:
            # spans plus the model and the link bytes, like a one-shot run's.
            art = read_run_artifact(os.path.join(tmp_path, f"trace.{jid}.json"))
            assert art.trace.events and art.model is not None and art.links
            assert art.meta["job"] == jid

    def test_priority_jumps_queue_under_saturation(self, tmp_path):
        a, b = operands(seed=2, m=150, nk=450, gen_delay_s=0.02)
        plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            blocker = svc.submit(plan, a, b.empty_clone())
            # While the blocker occupies the pool, queue low before high.
            low = svc.submit(plan, a, b.empty_clone(), priority=0)
            high = svc.submit(plan, a, b.empty_clone(), priority=5)
            for jid in (blocker, low, high):
                svc.result(jid, timeout=180)
            started = {jid: svc._job(jid).started_s for jid in (low, high)}
            assert started[high] < started[low], (
                "high-priority job did not jump the queue"
            )
        finally:
            svc.shutdown()

    def test_backpressure_when_queue_full(self, tmp_path):
        a, b = operands(seed=3, m=150, nk=450, gen_delay_s=0.02)
        plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)
        svc = ContractionService(
            plan.grid.nprocs, artifacts_dir=str(tmp_path), queue_limit=2
        )
        try:
            ids = [svc.submit(plan, a, b.empty_clone()) for _ in range(2)]
            with pytest.raises(BackpressureError):
                svc.submit(plan, a, b.empty_clone())
            for jid in ids:  # drains the queue; admission reopens
                svc.result(jid, timeout=180)
            ids.append(svc.submit(plan, a, b.empty_clone()))
            svc.result(ids[-1], timeout=180)
        finally:
            svc.shutdown()

    def test_failed_job_does_not_poison_the_service(self, problem, tmp_path):
        from repro.dist import FaultPlan

        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            doomed = svc.submit(
                plan, a, b.empty_clone(),
                fault_plan=FaultPlan.parse("0:1:abort", plan.grid.nprocs),
            )
            with pytest.raises(JobFailedError):
                svc.result(doomed, timeout=120)
            assert job_state(svc, doomed) == "failed"
            healthy = svc.submit(plan, a, b.empty_clone())
            out, _ = svc.result(healthy, timeout=120)
            assert np.array_equal(out.to_dense(), oracle)
        finally:
            svc.shutdown()

    def test_finished_jobs_give_their_operands_back(self, problem):
        """Bugfix regression: a ``Job`` kept ``a``, ``b`` and ``kwargs`` after
        it finished, so a long-lived service pinned every operand ever
        submitted until ``shutdown()``."""
        from repro.dist import FaultPlan

        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            ok = svc.submit(plan, a, b.empty_clone(), alpha=1.0)
            svc.result(ok, timeout=120)
            doomed = svc.submit(
                plan, a, b.empty_clone(),
                fault_plan=FaultPlan.parse("0:1:abort", plan.grid.nprocs),
            )
            with pytest.raises(JobFailedError):
                svc.result(doomed, timeout=120)
            for jid in (ok, doomed):
                job = svc._job(jid)
                assert job.a is None and job.b is None and job.kwargs == {}
            out, report = svc.result(ok)  # result and report stay
            assert np.array_equal(out.to_dense(), oracle) and report is svc.report(ok)
        finally:
            svc.shutdown()

    def test_idle_the_moment_the_last_job_finishes(self, problem):
        """Bugfix regression: idleness used to be noticed only by the
        scheduler's next 0.1 s queue poll, so shutdown() stalled a poll
        interval after the last result was already out."""
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
            assert svc._idle.is_set()  # what shutdown() waits on
        finally:
            svc.shutdown()
        assert not svc._scheduler.is_alive()  # the stop sentinel woke it

    def test_twenty_jobs_leave_no_mapping_and_no_descriptor_behind(self, problem):
        """Finished jobs keep their results (arena views) for the service's
        lifetime: that may cost memory, never a descriptor per job — and a
        pooled worker unmaps each job's arenas before it reports."""
        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            # Fork before the first job packs A: a worker forked later is
            # born with the service's own mapping of that arena (and of
            # whatever else its parent has mapped, hence the check by name).
            svc.pool.start()
            fds = []
            for job in range(20):
                out, report = svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
                assert np.array_equal(out.to_dense(), oracle)
                # Garbage from elsewhere in the process (an earlier test's
                # queues, say) may be collected mid-loop and *drop* the
                # count: collect first, and gate on growth only.
                gc.collect()
                fds.append(len(os.listdir("/proc/self/fd")))
                if job < 5:
                    for rank in range(plan.grid.nprocs):
                        pid = svc.pool.ensure(rank).pid
                        assert mapped_segments(report.segments, pid) == [], (job, rank)
            assert fds[19] <= fds[1], fds
            assert svc.pool.spawns == plan.grid.nprocs
        finally:
            svc.shutdown()

    def test_fresh_process_service_leaves_stderr_empty(self, tmp_path):
        """Bugfix regression: workers forked before the owner ever touched
        shared memory each started a resource tracker of their own, which
        warned at exit about segments the coordinator had already unlinked."""
        script = tmp_path / "fresh_service.py"
        script.write_text(
            "from tests.test_serve import operands\n"
            "from repro.core import inspect\n"
            "from repro.machine import summit\n"
            "from repro.serve import ContractionService\n"
            "a, b = operands(seed=0)\n"
            "plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)\n"
            "svc = ContractionService(plan.grid.nprocs)\n"
            "try:\n"
            "    svc.pool.start()  # fork before any segment exists\n"
            "    svc.result(svc.submit(plan, a, b), timeout=120)\n"
            "finally:\n"
            "    svc.shutdown()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_shutdown_is_graceful_and_idempotent(self, problem, tmp_path):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        jid = svc.submit(plan, a, b.empty_clone())
        svc.shutdown()
        svc.shutdown()  # idempotent
        assert svc.pool.closed
        assert job_state(svc, jid) == "done"  # graceful shutdown drained it
        with pytest.raises(ValueError, match="shut down"):
            svc.submit(plan, a, b.empty_clone())


# ---- what the pool keeps between jobs (multi-process; `make test-dist`) -----


def fresh_values(a, seed):
    """``a``'s occupancy (hence its plan) with new tile values."""
    rng = np.random.default_rng(seed)
    out = type(a)(a.rows, a.cols)
    for (i, j), tile in a.items():
        out.set_tile(i, j, rng.standard_normal(tile.shape))
    return out


def own_segments():
    """This process's segments still named under ``/dev/shm``."""
    prefix = f"psgemm-{os.getpid()}-"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


def operand_segments(report):
    return [n for n, tag in zip(report.segments, segment_tags(report)) if tag in "ab"]


@pytest.mark.dist
class TestPoolLifetimeArenas:
    def test_five_jobs_repack_one_a_segment(self, problem):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs)
        names = []
        try:
            for job in range(5):
                a_job = fresh_values(a, seed=100 + job)
                ref, _ = execute_plan(plan, a_job, b.empty_clone())
                out, report = svc.result(
                    svc.submit(plan, a_job, b.empty_clone()), timeout=120
                )
                assert np.array_equal(out.to_dense(), ref.to_dense()), job
                assert segment_tags(report)[0] == "a"
                names.append(report.segments[0])
                # The run reports what it packed this job, and has unlinked
                # everything but the pool's arena.
                assert report.shm_bytes == a_job.nbytes + report.stats.d2h_bytes
                assert own_segments() == [names[0]]
                assert active_segments() == {names[0]}
            assert len(set(names)) == 1
            assert svc.pool.spawns == plan.grid.nprocs
        finally:
            svc.shutdown()
        assert own_segments() == [] and active_segments() == frozenset()

    def test_an_a_that_outgrows_the_segment_gets_a_new_one(self, problem):
        plan, a, b, oracle = problem
        big_a, big_b = operands(seed=5, m=320, nk=600)
        big_plan = inspect(big_a.sparse_shape(), big_b.shape, summit(2), p=1)
        assert big_a.nbytes > a.nbytes
        big_ref, _ = execute_plan(big_plan, big_a, big_b.empty_clone())
        svc = ContractionService(plan.grid.nprocs)
        try:
            _, small = svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
            out, big = svc.result(
                svc.submit(big_plan, big_a, big_b.empty_clone()), timeout=120
            )
            assert np.array_equal(out.to_dense(), big_ref.to_dense())
            assert big.segments[0] != small.segments[0]
            assert own_segments() == [big.segments[0]]  # the old one is unlinked
            # ... and a smaller A moves back into the larger segment.
            out, again = svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
            assert np.array_equal(out.to_dense(), oracle)
            assert again.segments[0] == big.segments[0]
            assert again.shm_bytes == a.nbytes + again.stats.d2h_bytes
        finally:
            svc.shutdown()
        assert own_segments() == []

    def test_a_failed_job_takes_its_segments_with_it(self, problem):
        from repro.dist import FaultPlan

        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            _, first = svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
            doomed = svc.submit(
                plan, a, b.empty_clone(),
                fault_plan=FaultPlan.parse("0:1:abort", plan.grid.nprocs),
            )
            with pytest.raises(JobFailedError):
                svc.result(doomed, timeout=120)
            # terminate() + drain(): the workers and the pool's arena are gone.
            assert own_segments() == [] and active_segments() == frozenset()
            a_next = fresh_values(a, seed=7)
            ref, _ = execute_plan(plan, a_next, b.empty_clone())
            out, after = svc.result(svc.submit(plan, a_next, b.empty_clone()), timeout=120)
            assert np.array_equal(out.to_dense(), ref.to_dense())
            assert after.segments[0] != first.segments[0]
            assert own_segments() == [after.segments[0]]
        finally:
            svc.shutdown()
        assert own_segments() == []

    def test_a_plan_is_verified_once_however_often_it_is_submitted(
        self, problem, verify_calls
    ):
        plan, a, b, oracle = problem
        other_a, other_b = operands(seed=5, m=320, nk=600)
        other = inspect(other_a.sparse_shape(), other_b.shape, summit(2), p=1)
        svc = ContractionService(plan.grid.nprocs)
        try:
            for _ in range(2):
                out, _ = svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
                assert np.array_equal(out.to_dense(), oracle)
            assert len(verify_calls) == 1 and verify_calls[0] is plan
            svc.result(svc.submit(other, other_a, other_b.empty_clone()), timeout=120)
            svc.result(svc.submit(plan, a, b.empty_clone()), timeout=120)
            assert [p is plan for p in verify_calls] == [True, False]
        finally:
            svc.shutdown()

    def test_a_pooled_concrete_b_is_repacked_like_a(self):
        from repro.dist import WorkerPool, execute_plan_distributed
        from tests.test_dist_executor import operands as concrete_operands

        a, b = concrete_operands(seed=0)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
        pool = WorkerPool(plan.grid.nprocs)
        seen = []
        try:
            for job in range(3):
                a_job, b_job = fresh_values(a, 20 + job), fresh_values(b, 30 + job)
                ref, _ = execute_plan(plan, a_job, b_job)
                out, report = execute_plan_distributed(plan, a_job, b_job, pool=pool)
                assert np.array_equal(out.to_dense(), ref.to_dense()), job
                assert segment_tags(report)[:2] == ["a", "b"]
                seen.append(operand_segments(report))
                assert own_segments() == sorted(seen[0])
                assert report.shm_bytes == (
                    a_job.nbytes + b_job.nbytes + report.stats.d2h_bytes
                )
            assert seen[0] == seen[1] == seen[2]
            assert pool.spawns == plan.grid.nprocs
        finally:
            pool.close()
        assert own_segments() == [] and active_segments() == frozenset()
