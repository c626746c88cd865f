"""Tests for worst-fit block partitioning (3.2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_partition import (
    InfeasiblePartitionError,
    partition_columns_into_blocks,
)

GIB = 1024**3


def partition(cols_bytes, gpu_mem=16 * GIB, ngpus=3):
    cols = np.arange(len(cols_bytes))
    return partition_columns_into_blocks(cols, np.asarray(cols_bytes), gpu_mem, ngpus)


class TestPartition:
    def test_all_columns_placed_once(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(100 * 2**20, 2 * GIB, 40)
        blocks = partition(sizes)
        placed = sorted(c for b in blocks for c in b.columns)
        assert placed == list(range(40))

    def test_budget_respected(self):
        rng = np.random.default_rng(1)
        sizes = rng.integers(1 * 2**20, 4 * GIB, 60)
        budget = int(16 * GIB * 0.5)
        for blk in partition(sizes):
            assert blk.bytes_used <= budget
            assert blk.bytes_used == sum(sizes[c] for c in blk.columns)

    def test_round_robin_balance(self):
        rng = np.random.default_rng(2)
        sizes = rng.integers(3 * GIB, 7 * GIB, 30)  # ~1-2 columns per block
        blocks = partition(sizes, ngpus=4)
        counts = np.bincount([b.gpu for b in blocks], minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_worst_fit_prefers_most_remaining(self):
        # Two open blocks at 1 GiB and 3 GiB used; a 1 GiB column must go
        # to the emptier one (worst fit).
        cols = np.array([0, 1, 2])
        sizes = np.array([3 * GIB, 1 * GIB, 1 * GIB])
        blocks = partition_columns_into_blocks(cols, sizes, 16 * GIB, 2)
        # Sorted by size: col0 (3G) -> gpu0's block, col1 (1G) -> gpu1's
        # empty block (more remaining), col2 -> gpu1's block again (7G left
        # vs 5G left on gpu0).
        by_gpu = {b.gpu: b.columns for b in blocks}
        assert by_gpu[0] == [0]
        assert sorted(by_gpu[1]) == [1, 2]

    def test_single_gpu(self):
        sizes = np.full(10, 2 * GIB)
        blocks = partition(sizes, ngpus=1)
        assert all(b.gpu == 0 for b in blocks)
        assert len(blocks) >= 3  # 8 GiB budget, 2 GiB columns -> 4/block

    def test_fewer_columns_than_gpus(self):
        sizes = np.array([GIB])
        blocks = partition(sizes, ngpus=6)
        assert len(blocks) == 1  # empty initial blocks dropped

    def test_oversized_column_singleton_block(self):
        sizes = np.array([9 * GIB, GIB, GIB])
        blocks = partition(sizes)
        big = [b for b in blocks if 0 in b.columns]
        assert len(big) == 1 and big[0].columns == [0]

    def test_hopeless_column_always_raises(self):
        sizes = np.array([int(15.9 * GIB)])  # > 95 % of the GPU
        with pytest.raises(InfeasiblePartitionError):
            partition(sizes)

    def test_deterministic_under_ties(self):
        sizes = np.full(12, GIB)
        b1 = partition(sizes)
        b2 = partition(sizes)
        assert [b.columns for b in b1] == [b.columns for b in b2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_columns_into_blocks(
                np.array([0, 1]), np.array([GIB]), 16 * GIB, 2
            )

    @settings(max_examples=40, deadline=None)
    @given(
        # Up to a whole GPU: over the 8 GiB budget a column is a singleton
        # block, over 95 % of the device the partition fails.
        st.lists(st.integers(min_value=1, max_value=16 * GIB), min_size=1, max_size=80),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_invariants(self, sizes, ngpus):
        sizes = np.array(sizes)
        budget = 8 * GIB
        try:
            blocks = partition(sizes, ngpus=ngpus)
        except InfeasiblePartitionError:
            assert sizes.max() > 16 * GIB * 0.95
            return
        placed = sorted(c for b in blocks for c in b.columns)
        assert placed == list(range(len(sizes)))
        for blk in blocks:
            assert blk.bytes_used <= budget or len(blk.columns) == 1
            assert 0 <= blk.gpu < ngpus
