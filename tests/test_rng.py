import math

import numpy as np
import pytest

from hgtnet.rng import RngStream


def test_same_seed_same_sequence():
    a = RngStream(seed=7, stream_id=0)
    b = RngStream(seed=7, stream_id=0)
    assert np.array_equal(a.uniform(64), b.uniform(64))


def test_different_seeds_diverge():
    a = RngStream(seed=7).uniform(64)
    b = RngStream(seed=8).uniform(64)
    assert not np.array_equal(a, b)


def test_counter_advances():
    s = RngStream(seed=3)
    first = s.uniform(16)
    second = s.uniform(16)
    assert not np.array_equal(first, second)
    assert s.counter == 32


def test_draw_order_independence():
    # one call of 32 must equal two calls of 16 back to back
    a = RngStream(seed=11).uniform(32)
    s = RngStream(seed=11)
    b = np.concatenate([s.uniform(16), s.uniform(16)])
    assert np.array_equal(a, b)


def test_scalar_matches_array_path():
    s1 = RngStream(seed=5)
    s2 = RngStream(seed=5)
    scalars = np.array([s1.uniform() for _ in range(8)])
    assert np.array_equal(scalars, s2.uniform(8))


def test_derive_is_deterministic_and_independent():
    root = RngStream(seed=42)
    a = root.derive("init", 3)
    b = root.derive("init", 3)
    c = root.derive("init", 4)
    assert np.array_equal(a.uniform(8), b.uniform(8))
    assert not np.array_equal(a.uniform(8), c.uniform(8))
    # deriving must not consume from the parent stream
    fresh = RngStream(seed=42)
    assert np.array_equal(root.uniform(8), fresh.uniform(8))


def test_derive_distinguishes_token_types():
    root = RngStream(seed=1)
    assert not np.array_equal(root.derive(1).uniform(4), root.derive("1").uniform(4))
    assert not np.array_equal(root.derive(True).uniform(4), root.derive(1).uniform(4))


def test_derive_rejects_unknown_token_type():
    with pytest.raises(TypeError):
        RngStream(seed=1).derive(3.5)


def test_uniform_range_and_spread():
    u = RngStream(seed=123).uniform(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = RngStream(seed=321).normal(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_randint_bounds_and_coverage():
    s = RngStream(seed=9)
    draws = [s.randint(6) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 5
    assert len(set(draws)) == 6


def test_randint_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        RngStream(seed=1).randint(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a = RngStream(seed=77).shuffle(items)
    b = RngStream(seed=77).shuffle(items)
    assert a == b
    assert sorted(a) == items
    assert items == list(range(50))  # input untouched
    assert a != items  # astronomically unlikely to be identity


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
def test_keep_mask_equals_uniform_threshold(p):
    # b replays a: the same stream derived again, moved to the same position
    a = RngStream(seed=17).derive(4)
    b = RngStream(seed=17).derive(4)
    a.uniform(5)
    b.uniform(5)
    mask = a.keep_mask(10007, p)
    assert mask.dtype == np.bool_
    assert mask.tobytes() == (b.uniform(10007) >= p).tobytes()
    assert a.counter == b.counter
    assert np.array_equal(a.uniform(8), b.uniform(8))


class _FixedDraws(RngStream):
    """Stream whose raw draws are given, to probe values next to a threshold."""

    __slots__ = ("draws",)

    def _raw(self, n):
        return self.draws[:n].copy()


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9, 1.0 - 2.0**-53, 2.0**-60])
def test_keep_mask_threshold_is_exact_at_the_boundary(p):
    t = math.ceil(p * 2.0**53) << 11
    near = [t - 2049, t - 2048, t - 1, t, t + 1, t + 2047, t + 2048, 0, 2**64 - 1]
    s = _FixedDraws(seed=1)
    s.draws = np.array([v for v in near if 0 <= v < 2**64], dtype=np.uint64)
    n = len(s.draws)
    assert s.keep_mask(n, p).tobytes() == (s.uniform(n) >= p).tobytes()
