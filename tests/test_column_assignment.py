"""Tests for the flop-sorted mirrored-cyclic column assignment (3.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import assign_columns


def imbalance(asg) -> float:
    """``max / mean`` processor load; 1.0 is perfect balance."""
    mean = asg.flops.mean()
    return float(asg.flops.max() / mean) if mean > 0 else 1.0


class TestAssignColumns:
    def test_partition_complete_and_disjoint(self):
        f = np.random.default_rng(0).uniform(0, 10, 100)
        asg = assign_columns(f, 7)
        merged = np.sort(np.concatenate(asg.columns))
        assert np.array_equal(merged, np.arange(100))

    def test_flops_accounted(self):
        f = np.random.default_rng(1).uniform(0, 10, 50)
        asg = assign_columns(f, 4)
        assert asg.flops.sum() == pytest.approx(f.sum())

    def test_mirrored_exact_on_arithmetic_weights(self):
        # Weights 0..2q-1: mirrored dealing gives every processor exactly
        # one pair summing to 2q-1 — perfect balance.
        q = 8
        f = np.arange(2 * q, dtype=float)
        asg = assign_columns(f, q)
        assert np.allclose(asg.flops, asg.flops[0])
        assert imbalance(asg) == pytest.approx(1.0)

    def test_single_processor(self):
        f = np.array([1.0, 2.0, 3.0])
        asg = assign_columns(f, 1)
        assert asg.q == 1
        assert asg.columns[0].tolist() == [0, 1, 2]
        assert imbalance(asg) == 1.0

    def test_more_processors_than_columns(self):
        f = np.array([5.0, 1.0])
        asg = assign_columns(f, 4)
        sizes = [len(c) for c in asg.columns]
        assert sum(sizes) == 2
        assert max(sizes) <= 1

    def test_zero_weight_columns_still_assigned(self):
        f = np.zeros(10)
        asg = assign_columns(f, 3)
        assert sum(len(c) for c in asg.columns) == 10

    def test_deterministic(self):
        f = np.random.default_rng(3).uniform(0, 1, 64)
        a1 = assign_columns(f, 5)
        a2 = assign_columns(f, 5)
        for c1, c2 in zip(a1.columns, a2.columns):
            assert np.array_equal(c1, c2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            assign_columns(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            assign_columns(np.array([]), 2)

    @settings(max_examples=40)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=16),
    )
    def test_property_partition(self, weights, q):
        f = np.array(weights)
        asg = assign_columns(f, q)
        merged = np.sort(np.concatenate(asg.columns)) if f.size else np.array([])
        assert np.array_equal(merged, np.arange(f.size))
        assert asg.flops.sum() == pytest.approx(f.sum(), rel=1e-9, abs=1e-6)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=12), st.integers(0, 10_000))
    def test_property_mirrored_near_optimal_smooth(self, q, seed):
        rng = np.random.default_rng(seed)
        f = np.sort(rng.uniform(0.5, 1.5, 40 * q))
        asg = assign_columns(f, q)
        assert imbalance(asg) < 1.05
