"""Persistent tile store unit tests (:mod:`repro.store`).

Codec round-trips and corruption detection, TileStore atomicity /
LRU GC / session stats, the writeback journal's torn-line tolerance and
tile re-validation, run fingerprinting, coordinator snapshots, and the
P121/P122 pre-flight checks.  Everything here is single-process and
tier-1 fast; the kill/resume end-to-end scenarios live in
``tests/test_checkpoint.py`` (marked ``dist``).
"""

import json
import os

import numpy as np
import pytest

from repro.analysis import check_checkpoint_compat, check_store_capacity
from repro.core import psgemm_plan
from repro.machine import summit
from repro.sparse import random_block_sparse
from repro.store import (
    ALIGN,
    CodecError,
    CompletedBlock,
    TileStore,
    WritebackJournal,
    b_fingerprint,
    ckpt_namespace,
    ckpt_tile_key,
    decode_tile,
    encode_tile,
    map_tile,
    object_digest,
    plan_fingerprint,
    read_header,
    read_journal,
    read_snapshot,
    read_store_stats,
    run_fingerprint,
    validated_completed_blocks,
    write_snapshot,
)
from repro.runtime import GeneratedCollection
from repro.tiling import random_tiling


def tile(seed=0, shape=(7, 11)):
    return np.random.default_rng(seed).standard_normal(shape)


class TestCodec:
    def test_roundtrip_uncompressed(self):
        arr = tile()
        blob = encode_tile("b:x", (3, 4), arr)
        header, out = decode_tile(blob)
        assert header["ns"] == "b:x" and header["key"] == (3, 4)
        assert np.array_equal(out, arr)

    def test_payload_is_aligned(self):
        header = read_header(encode_tile("ns", (1, 2), tile()))
        assert header["header_size"] % ALIGN == 0

    def test_map_tile_zero_copy(self):
        arr = tile(1)
        blob = encode_tile("ns", (0, 0), arr)
        view = map_tile(read_header(blob), blob)
        assert np.array_equal(view, arr)
        assert not view.flags.writeable

    def test_map_tile_refuses_compressed(self, tmp_path):
        """An object with a flag bit set (bit 0 once meant a zlib payload)
        is not a tile this codec reads; the store counts it as corrupt."""
        blob = bytearray(encode_tile("ns", (0,), tile()))
        blob[6] |= 0x1
        with pytest.raises(CodecError, match="flags"):
            read_header(bytes(blob))
        store = TileStore(str(tmp_path))
        try:
            assert store.put("ns", (0,), tile())
            path = store._path(object_digest("ns", (0,)))
            with open(path, "wb") as fh:
                fh.write(blob)
            assert store.get("ns", (0,)) is None
            assert store.stats().corrupt == 1
        finally:
            store.close()

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError, match="magic"):
            read_header(b"JUNK" + b"\x00" * 60)

    def test_flipped_payload_bit_fails_crc(self):
        blob = bytearray(encode_tile("ns", (0,), tile()))
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError, match="CRC32"):
            decode_tile(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = encode_tile("ns", (0,), tile())
        with pytest.raises(CodecError, match="truncated"):
            decode_tile(blob[:-8])

    def test_digest_is_key_deterministic(self):
        assert object_digest("b:x", (1, 2)) == object_digest("b:x", (1, 2))
        assert object_digest("b:x", (1, 2)) != object_digest("b:y", (1, 2))
        assert object_digest("b:x", (1, 2)) != object_digest("b:x", (2, 1))


class TestTileStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = TileStore(str(tmp_path))
        try:
            arr = tile()
            assert store.put("ns", (0, 1), arr)
            out = store.get("ns", (0, 1))
            assert np.array_equal(out, arr)
            assert not out.flags.writeable  # zero-copy mapped view
        finally:
            store.close()

    def test_duplicate_put_is_noop(self, tmp_path):
        store = TileStore(str(tmp_path))
        try:
            assert store.put("ns", (0,), tile())
            assert not store.put("ns", (0,), tile())
            assert store.stats().objects == 1
        finally:
            store.close()

    def test_missing_key_is_a_miss(self, tmp_path):
        store = TileStore(str(tmp_path))
        try:
            assert store.get("ns", (9, 9)) is None
            assert store.stats().misses == 1
        finally:
            store.close()

    def test_corrupt_object_treated_as_miss(self, tmp_path):
        store = TileStore(str(tmp_path))
        try:
            store.put("ns", (0,), tile())
            path = store._path(object_digest("ns", (0,)))
            blob = bytearray(open(path, "rb").read())
            blob[-1] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(bytes(blob))
            assert store.get("ns", (0,), verify=True) is None
            assert store.stats().corrupt == 1
        finally:
            store.close()

    def test_gc_evicts_lru_to_budget(self, tmp_path):
        store = TileStore(str(tmp_path))
        try:
            for i in range(6):
                store.put("ns", (i,), tile(i, shape=(32, 32)))
            total = store.stats().disk_bytes
            evicted, freed = store.gc(total // 2)
            assert evicted > 0 and freed > 0
            assert store.stats().disk_bytes <= total // 2
            # Newest objects survive.
            assert store.get("ns", (5,)) is not None
        finally:
            store.close()

    def test_sessions_accumulate_in_store_stats(self, tmp_path):
        root = str(tmp_path)
        for _ in range(2):
            store = TileStore(root)
            try:
                store.put("ns", (0,), tile())
                store.get("ns", (0,))
            finally:
                store.close()
        agg = read_store_stats(root)
        assert agg.hits == 2 and agg.puts == 1
        assert agg.objects == 1 and agg.disk_bytes > 0
        assert agg.hit_rate > 0

    def test_torn_stats_line_tolerated(self, tmp_path):
        root = str(tmp_path)
        store = TileStore(root)
        try:
            store.put("ns", (0,), tile())
        finally:
            store.close()
        with open(os.path.join(root, "stats.jsonl"), "a", encoding="utf-8") as fh:
            fh.write('{"hits": 4')  # killed session's partial append
        assert read_store_stats(root).puts == 1


def small_plan(p=2, seed=0):
    rows = random_tiling(200, 20, 80, seed=seed)
    inner = random_tiling(600, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, 0.5, seed=seed + 2)
    b = random_block_sparse(inner, inner, 0.5, seed=seed + 3)
    return psgemm_plan(a.sparse_shape(), b.sparse_shape(), summit(p), p=p)


class TestFingerprints:
    def test_plan_fingerprint_stable_across_rebuilds(self):
        assert plan_fingerprint(small_plan()) == plan_fingerprint(small_plan())

    def test_plan_fingerprint_sees_structure(self):
        assert plan_fingerprint(small_plan(seed=0)) != plan_fingerprint(small_plan(seed=5))

    def test_b_fingerprint_tracks_generator_seed(self):
        shape = small_plan().b_shape
        assert b_fingerprint(GeneratedCollection(shape, seed=1)) == \
            b_fingerprint(GeneratedCollection(shape, seed=1))
        assert b_fingerprint(GeneratedCollection(shape, seed=1)) != \
            b_fingerprint(GeneratedCollection(shape, seed=2))

    def test_run_fingerprint_namespaces_alpha(self):
        assert run_fingerprint("p", "b", 1.0) != run_fingerprint("p", "b", 2.0)
        assert ckpt_namespace("abc") == "ckpt:abc"


class TestJournal:
    def _block(self, rank=0, gpu=0, block=1):
        return CompletedBlock(rank=rank, gpu=gpu, block=block, chunks=2,
                              ntasks=9, tiles=((0, 0), (0, 1)))

    def test_record_read_roundtrip(self, tmp_path):
        j = WritebackJournal(str(tmp_path), rank=0)
        try:
            j.record("run1", self._block())
        finally:
            j.close()
        recs = read_journal(str(tmp_path), 0, "run1")
        assert len(recs) == 1
        assert recs[0].tiles == ((0, 0), (0, 1))

    def test_other_run_records_filtered(self, tmp_path):
        j = WritebackJournal(str(tmp_path), rank=0)
        try:
            j.record("old-run", self._block())
        finally:
            j.close()
        assert read_journal(str(tmp_path), 0, "new-run") == []

    def test_torn_final_line_skipped(self, tmp_path):
        j = WritebackJournal(str(tmp_path), rank=0)
        try:
            j.record("run1", self._block(block=0))
        finally:
            j.close()
        with open(j.path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "run": "run1", "rank": 0, "blo')  # SIGKILL here
        assert len(read_journal(str(tmp_path), 0, "run1")) == 1

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_journal(str(tmp_path), 3, "run1") == []

    def test_validation_requires_tiles_in_store(self, tmp_path):
        ckpt = str(tmp_path)
        store = TileStore(os.path.join(ckpt, "store"))
        try:
            ns = ckpt_namespace("run1")
            # Block 0's tiles are all present; block 1 is journaled but its
            # tile never landed (the crash window the CRC validation closes).
            for i, jdx in ((0, 0), (0, 1)):
                store.put(ns, ckpt_tile_key(0, 0, 0, i, jdx), tile(i + jdx))
            jr = WritebackJournal(ckpt, rank=0)
            try:
                jr.record("run1", self._block(block=0))
                jr.record("run1", self._block(block=1))
            finally:
                jr.close()
            good = validated_completed_blocks(ckpt, 0, "run1", store)
        finally:
            store.close()
        assert set(good) == {(0, 0)}
        assert good[(0, 0)].ntasks == 9


class TestSnapshot:
    def test_write_read_roundtrip(self, tmp_path):
        write_snapshot(str(tmp_path), {"v": 1, "state": "running", "plan": "abc"})
        snap = read_snapshot(str(tmp_path))
        assert snap["plan"] == "abc"

    def test_missing_and_corrupt_read_as_none(self, tmp_path):
        assert read_snapshot(str(tmp_path)) is None
        with open(os.path.join(str(tmp_path), "coordinator.json"), "w") as fh:
            fh.write("{not json")
        assert read_snapshot(str(tmp_path)) is None

    def test_atomic_replace_leaves_no_partial(self, tmp_path):
        write_snapshot(str(tmp_path), {"v": 1, "state": "running"})
        write_snapshot(str(tmp_path), {"v": 1, "state": "done"})
        assert read_snapshot(str(tmp_path))["state"] == "done"
        assert [f for f in os.listdir(str(tmp_path)) if f.endswith(".tmp")] == []


class TestStoreChecks:
    def test_fresh_dir_and_matching_snapshot_clean(self, tmp_path):
        plan = small_plan()
        assert check_checkpoint_compat(plan, str(tmp_path)).ok
        write_snapshot(str(tmp_path), {
            "v": 1, "plan": plan_fingerprint(plan), "nranks": len(plan.procs),
        })
        assert check_checkpoint_compat(plan, str(tmp_path)).ok

    def test_plan_mismatch_fires_p121(self, tmp_path):
        plan = small_plan()
        write_snapshot(str(tmp_path), {"v": 1, "plan": "not-this-plan"})
        report = check_checkpoint_compat(plan, str(tmp_path))
        assert report.rules_fired() == {"P121"}

    def test_future_snapshot_version_fires_p121(self, tmp_path):
        plan = small_plan()
        write_snapshot(str(tmp_path), {"v": 99, "plan": plan_fingerprint(plan)})
        assert check_checkpoint_compat(plan, str(tmp_path)).rules_fired() == {"P121"}

    def test_rank_count_mismatch_fires_p121(self, tmp_path):
        plan = small_plan()
        write_snapshot(str(tmp_path), {
            "v": 1, "plan": plan_fingerprint(plan), "nranks": 99,
        })
        assert check_checkpoint_compat(plan, str(tmp_path)).rules_fired() == {"P121"}

    def test_budget_below_largest_tile_fires_p122(self, tmp_path):
        report = check_store_capacity(
            small_plan(), str(tmp_path / "store"), budget_bytes=16
        )
        assert report.rules_fired() == {"P122"}

    def test_ample_budget_clean(self, tmp_path):
        report = check_store_capacity(
            small_plan(), str(tmp_path / "store"), budget_bytes=1 << 30
        )
        assert report.ok, report.render()
