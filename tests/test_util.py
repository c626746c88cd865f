"""Unit tests for repro.util (units, rng, validation)."""

import numpy as np
import pytest

from repro.util import (
    GIB,
    MIB,
    TERA,
    fmt_bytes,
    fmt_count,
    fmt_flops,
    fmt_rate,
    fmt_time,
    require,
    require_nonnegative,
    require_positive,
    resolve_rng,
    spawn_rng,
)
from repro.util.memo import IdentityMemo


class TestUnits:
    def test_byte_constants(self):
        assert MIB == 1024**2
        assert GIB == 1024**3

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(1536 * 1024) == "1.50 MiB"
        assert fmt_bytes(16 * GIB) == "16.00 GiB"

    def test_fmt_count(self):
        assert fmt_count(950) == "950"
        assert fmt_count(1_900_000) == "1.90 M"

    def test_fmt_flops(self):
        assert fmt_flops(1.237e15) == "1.24 Pflop"
        assert fmt_flops(877e12) == "877.00 Tflop"

    def test_fmt_rate(self):
        assert fmt_rate(203 * TERA) == "203.0 Tflop/s"
        assert fmt_rate(2.5e12) == "2.5 Tflop/s"

    def test_fmt_time(self):
        assert fmt_time(34.9) == "34.9 s"
        assert fmt_time(272) == "4.53 min"
        assert fmt_time(0.0021) == "2.1 ms"
        assert fmt_time(2.5e-5) == "25 us"
        assert fmt_time(7200) == "2.00 h"


class TestRng:
    def test_resolve_passthrough(self):
        rng = np.random.default_rng(3)
        assert resolve_rng(rng) is rng

    def test_resolve_seed_deterministic(self):
        a = resolve_rng(42).integers(0, 1000, 10)
        b = resolve_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_spawn_children_independent_and_deterministic(self):
        base = resolve_rng(7)
        c1 = spawn_rng(base, 1).standard_normal(8)
        c2 = spawn_rng(base, 2).standard_normal(8)
        c1_again = spawn_rng(resolve_rng(7), 1).standard_normal(8)
        assert not np.allclose(c1, c2)
        assert np.allclose(c1, c1_again)

    def test_spawn_does_not_advance_parent(self):
        base = resolve_rng(11)
        spawn_rng(base, 5)
        after = base.integers(0, 2**31)
        fresh = resolve_rng(11).integers(0, 2**31)
        assert after == fresh

    def test_spawn_order_independent(self):
        b1 = resolve_rng(9)
        b2 = resolve_rng(9)
        x = spawn_rng(b1, 3).standard_normal(4)
        spawn_rng(b2, 1)
        y = spawn_rng(b2, 3).standard_normal(4)
        assert np.allclose(x, y)


class TestValidation:
    def test_require(self):
        require(True, "nope")
        with pytest.raises(ValueError, match="nope"):
            require(False, "nope")

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ValueError):
            require_positive(0, "x")

    def test_require_nonnegative(self):
        require_nonnegative(0, "x")
        with pytest.raises(ValueError):
            require_nonnegative(-1, "x")


class TestRngBitGenerators:
    @pytest.mark.parametrize(
        "bitgen", ["PCG64", "MT19937", "Philox", "SFC64"]
    )
    def test_spawn_works_across_bit_generators(self, bitgen):
        cls = getattr(np.random, bitgen)
        c1 = spawn_rng(np.random.Generator(cls(42)), 1).standard_normal(4)
        c2 = spawn_rng(np.random.Generator(cls(42)), 1).standard_normal(4)
        c3 = spawn_rng(np.random.Generator(cls(42)), 2).standard_normal(4)
        assert np.allclose(c1, c2)
        assert not np.allclose(c1, c3)


class TestIdentityMemo:
    def test_computes_once_per_object_not_per_value(self):
        calls = []

        def compute(obj):
            calls.append(obj)
            return len(obj)

        memo = IdentityMemo()
        first, twin = [1, 2], [1, 2]  # equal, unhashable, distinct
        assert memo.get(first, compute) == 2
        assert memo.get(first, compute) == 2
        assert memo.get(twin, compute) == 2
        assert calls == [first, twin] and calls[1] is twin

    def test_holds_the_last_few_objects_only(self):
        calls = []
        memo = IdentityMemo(maxsize=2)
        objs = [[i] for i in range(3)]
        for obj in objs + [objs[2], objs[1], objs[0]]:
            memo.get(obj, lambda o: calls.append(o[0]))
        # 0 was evicted by 2; 2 and 1 are remembered; 0 is computed again.
        assert calls == [0, 1, 2, 0]

    def test_a_failed_compute_is_not_remembered(self):
        memo = IdentityMemo()
        obj = []
        with pytest.raises(ZeroDivisionError):
            memo.get(obj, lambda o: 1 / 0)
        assert memo.get(obj, lambda o: "ok") == "ok"
