"""Deterministic random-number-generator plumbing.

All stochastic code in :mod:`repro` accepts a ``seed`` argument that may be
``None``, an integer, or an existing :class:`numpy.random.Generator`.  Using
:func:`resolve_rng` at every entry point makes whole experiments exactly
reproducible from a single integer while still letting callers share one
generator across stages.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator"


def resolve_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` for a fresh seeded
        generator, or an existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, key: int) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and an integer key.

    Children with distinct keys are statistically independent streams; the
    same ``(rng state, key)`` pair always yields the same child.  This is how
    per-matrix / per-tile generation stays reproducible regardless of the
    order in which tiles are instantiated (the paper generates B tiles *on
    demand*, so instantiation order is schedule-dependent).
    """
    # Mix the key into fresh entropy drawn deterministically from the parent
    # state *without* advancing the parent (so sibling spawns commute).
    ss = np.random.SeedSequence(entropy=_state_entropy(rng), spawn_key=(key,))
    return np.random.default_rng(ss)


def _state_entropy(rng: np.random.Generator) -> int:
    """A stable integer fingerprint of ``rng``'s current state.

    Works across bit generators by folding whatever the state dict holds
    (nested dicts for PCG64, ``uint`` arrays for MT19937/SFC64, plain
    integers elsewhere) into one big integer.
    """

    def fold(value) -> int:
        if isinstance(value, dict):
            out = 0
            for k in sorted(value):
                out = (out * 1_000_003) ^ fold(value[k])
            return out
        if isinstance(value, np.ndarray):
            return int.from_bytes(value.tobytes()[:64], "little")
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, str):
            return int.from_bytes(value.encode()[:16], "little")
        return 0

    state = rng.bit_generator.state
    return fold(state.get("state", 0)) & (2**128 - 1)
