"""Persistent tile store unit tests (:mod:`repro.store`).

Codec round-trips and corruption detection, TileStore atomicity /
LRU GC / session stats, block-file commits and their read-back checks,
run fingerprinting, coordinator snapshots, and the
P121/P122 pre-flight checks.  Everything here is single-process and
tier-1 fast; the kill/resume end-to-end scenarios live in
``tests/test_checkpoint.py`` (marked ``dist``).
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import check_checkpoint_compat, check_store_capacity, store_checks
from repro.core import psgemm_plan
from repro.machine import summit
from repro.sparse import random_block_sparse
from repro.store import (
    ALIGN,
    CodecError,
    TileStore,
    a_fingerprint,
    b_fingerprint,
    block_path,
    commit_block,
    completed_blocks,
    decode_tile,
    encode_tile,
    map_tile,
    object_digest,
    plan_fingerprint,
    read_block,
    read_header,
    read_snapshot,
    read_store_stats,
    run_fingerprint,
    write_snapshot,
)
from repro.runtime import GeneratedCollection
from repro.tiling import random_tiling
from tests.findings import by_rule, rules_fired


def tile(seed=0, shape=(7, 11)):
    return np.random.default_rng(seed).standard_normal(shape)


def encoded(ns, key, arr) -> bytes:
    """One object as the bytes a file holds: header, then payload."""
    return b"".join(encode_tile(ns, key, arr))


class TestCodec:
    def test_roundtrip_uncompressed(self):
        arr = tile()
        blob = encoded("b:x", (3, 4), arr)
        header, out = decode_tile(blob)
        assert header["ns"] == "b:x" and header["key"] == (3, 4)
        assert np.array_equal(out, arr)

    def test_payload_is_the_tiles_own_buffer(self):
        arr = tile()
        _, payload = encode_tile("b:x", (3, 4), arr)
        assert np.shares_memory(payload, arr)

    def test_payload_is_aligned(self):
        header = read_header(encoded("ns", (1, 2), tile()))
        assert header["header_size"] % ALIGN == 0

    def test_map_tile_zero_copy(self):
        arr = tile(1)
        blob = encoded("ns", (0, 0), arr)
        view = map_tile(read_header(blob), blob)
        assert np.array_equal(view, arr)
        assert not view.flags.writeable

    def test_map_tile_refuses_compressed(self, tmp_path):
        """An object with a flag bit set (bit 0 once meant a zlib payload)
        is not a tile this codec reads; the store counts it as corrupt."""
        blob = bytearray(encoded("ns", (0,), tile()))
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
        blob = bytearray(encoded("ns", (0,), tile()))
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError, match="CRC32"):
            decode_tile(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = encoded("ns", (0,), tile())
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

    def test_root_holds_only_objects_and_stats(self, tmp_path):
        root = str(tmp_path)
        store = TileStore(root)
        try:
            for i in range(3):
                store.put("ns", (i,), tile(i))
            store.get("ns", (0,))
        finally:
            store.close()
        assert sorted(os.listdir(root)) == ["objects", "stats.jsonl"]

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

    def test_digests_are_pinned(self):
        """Hashing an array's buffer in place hashes the bytes a copy held:
        the digests of an earlier build's checkpoints still match."""
        plan = small_plan()
        inner = random_tiling(600, 20, 80, seed=1)
        b = random_block_sparse(inner, inner, 0.5, seed=3)
        assert plan_fingerprint(plan) == (
            "5d58b812522c3c5dd98e9976f73c27f3bf9bfeef3f75deb3c5f71676bc2f72f4")
        assert b_fingerprint(b) == (
            "9916bf2dd2b2659237b8ca0ff6295b338751ebed259fe65b54498755755808a3")
        assert b_fingerprint(GeneratedCollection(plan.b_shape, seed=1)) == (
            "2c701ce752f0069504ab748caf148f02f94de6df967c554fcce9437c655fcf0c")

    def test_a_fingerprint_tracks_values(self):
        inner = random_tiling(600, 20, 80, seed=1)
        a = random_block_sparse(inner, inner, 0.5, seed=3)
        assert a_fingerprint(a) == a_fingerprint(a.copy())
        assert a_fingerprint(a) != a_fingerprint(a.copy().scale(-3.0))
        assert a_fingerprint(a) != b_fingerprint(a)

    def test_run_fingerprint_namespaces_alpha(self):
        assert run_fingerprint("p", "a", "b", 1.0) != run_fingerprint("p", "a", "b", 2.0)
        assert run_fingerprint("p", "a", "b", 1.0) != run_fingerprint("p", "a2", "b", 1.0)


class TestJournal:
    """The journal is the set of block files: one file per finished block,
    and its rename into place is the record that the block is done."""

    TILES = {(0, 0): tile(0), (0, 1): tile(1, shape=(7, 5)), (3, 1): tile(2, shape=(4, 5))}

    def _commit(self, ckpt, run="run1", rank=0, gpu=0, block=1, tiles=None):
        commit_block(ckpt, run, rank, gpu, block, self.TILES if tiles is None else tiles)
        return block_path(ckpt, run, rank, gpu, block)

    def test_record_read_roundtrip(self, tmp_path):
        ckpt = str(tmp_path)
        path = self._commit(ckpt)
        assert path == os.path.join(ckpt, "blocks", "run1", "r0.g0.b1.blk")
        got = read_block(ckpt, "run1", 0, 0, 1)
        assert sorted(got) == sorted(self.TILES)
        assert all(np.array_equal(got[k], self.TILES[k]) for k in self.TILES)
        assert completed_blocks(ckpt, "run1", 0) == ((0, 1),)
        # One file per block, nothing else: no temp file survives a commit.
        assert os.listdir(os.path.dirname(path)) == ["r0.g0.b1.blk"]

    def test_missing_journal_is_empty(self, tmp_path):
        assert completed_blocks(str(tmp_path), "run1", 3) == ()
        assert read_block(str(tmp_path), "run1", 3, 0, 0) is None

    def test_blocks_are_per_rank(self, tmp_path):
        ckpt = str(tmp_path)
        self._commit(ckpt, rank=1, block=7)
        self._commit(ckpt, rank=12, block=2)
        assert completed_blocks(ckpt, "run1", 0) == ()
        assert completed_blocks(ckpt, "run1", 1) == ((0, 7),)

    def test_truncated_block_not_restored(self, tmp_path):
        """Cut inside an object or exactly at an object boundary: either
        way the file is not whole, and the block is recomputed."""
        ckpt = str(tmp_path)
        path = self._commit(ckpt)
        blob = open(path, "rb").read()
        first = len(encoded("run1", (0, 0, 1, 0, 0, 2), self.TILES[(0, 0)]))
        for cut in (len(blob) - 8, first):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            assert read_block(ckpt, "run1", 0, 0, 1) is None
            assert completed_blocks(ckpt, "run1", 0) == ()

    def test_crc_corrupt_block_not_restored(self, tmp_path):
        ckpt = str(tmp_path)
        path = self._commit(ckpt)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert read_block(ckpt, "run1", 0, 0, 1) is None
        assert completed_blocks(ckpt, "run1", 0) == ()

    def test_other_run_records_filtered(self, tmp_path):
        """A block file moved under another run's (or block's) name is not
        restored: its objects name the run and block they belong to."""
        ckpt = str(tmp_path)
        path = self._commit(ckpt, run="old-run")
        for run, name in (("new-run", "r0.g0.b1.blk"), ("old-run", "r0.g0.b2.blk")):
            dst = os.path.join(ckpt, "blocks", run, name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(path, "rb") as src, open(dst, "wb") as fh:
                fh.write(src.read())
        assert completed_blocks(ckpt, "new-run", 0) == ()
        assert completed_blocks(ckpt, "old-run", 0) == ((0, 1),)

    def test_block_committed_twice_is_byte_identical(self, tmp_path):
        ckpt = str(tmp_path)
        path = self._commit(ckpt)
        first = open(path, "rb").read()
        # A retried attempt (or a helper) commits the same tiles again.
        self._commit(ckpt, tiles={k: v.copy() for k, v in self.TILES.items()})
        assert open(path, "rb").read() == first

    def test_killed_commit_leaves_only_a_temp_file(self, tmp_path):
        """A commit killed before its rename leaves a ``*.tmp`` file and no
        block: the rename is the record that the block is done."""
        ckpt = str(tmp_path)
        pid = os.fork()
        if pid == 0:  # the committing process dies at its rename
            os.replace = lambda *a: os._exit(9)
            try:
                self._commit(ckpt)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 9
        names = os.listdir(os.path.join(ckpt, "blocks", "run1"))
        assert len(names) == 1 and names[0].endswith(".tmp")
        assert completed_blocks(ckpt, "run1", 0) == ()


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
        assert rules_fired(report) == {"P121"}

    def test_future_snapshot_version_fires_p121(self, tmp_path):
        plan = small_plan()
        write_snapshot(str(tmp_path), {"v": 99, "plan": plan_fingerprint(plan)})
        assert rules_fired(check_checkpoint_compat(plan, str(tmp_path))) == {"P121"}

    def test_rank_count_mismatch_fires_p121(self, tmp_path):
        plan = small_plan()
        write_snapshot(str(tmp_path), {
            "v": 1, "plan": plan_fingerprint(plan), "nranks": 99,
        })
        assert rules_fired(check_checkpoint_compat(plan, str(tmp_path))) == {"P121"}

    def test_working_set_over_free_space_fires_p122(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            store_checks.shutil, "disk_usage", lambda path: SimpleNamespace(free=16)
        )
        report = check_store_capacity(small_plan(), str(tmp_path / "store"))
        assert rules_fired(report) == {"P122"}
        assert "16 B free" in by_rule(report, "P122")[0].message

    def test_ample_budget_clean(self, tmp_path):
        report = check_store_capacity(small_plan(), str(tmp_path / "store"))
        assert report.ok, report.render()
