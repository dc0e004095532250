import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecast import rng


def test_scalar_and_vector_mix_agree():
    xs = np.array([0, 1, 2**63, 2**64 - 1, 0xDEADBEEF, 12345678901234567], dtype=np.uint64)
    vec = rng.mix64_array(xs)
    for x, v in zip(xs.tolist(), vec.tolist()):
        assert rng.mix64(x) == v


def test_streams_are_keyed_and_reproducible():
    a = [rng.Stream(1, 2, 3).next_u64() for _ in range(3)]
    b = [rng.Stream(1, 2, 3).next_u64() for _ in range(3)]
    assert a == b
    assert rng.Stream(1, 2, 3).next_u64() != rng.Stream(1, 2, 4).next_u64()
    assert rng.Stream(1).next_u64() != rng.Stream(2).next_u64()


def test_uniform_range_and_below():
    st = rng.Stream(9)
    vals = [st.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6
    st = rng.Stream(10)
    picks = [st.below(7) for _ in range(1000)]
    assert set(picks) == set(range(7))


def test_normal_pair_moments():
    st = rng.Stream(11)
    vals = []
    for _ in range(4000):
        a, b = st.normal_pair()
        vals.extend((a, b))
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1
    assert all(math.isfinite(v) for v in vals)


def test_poisson_mean():
    st = rng.Stream(12)
    lam = 2.5
    counts = [st.poisson(lam) for _ in range(4000)]
    assert abs(sum(counts) / len(counts) - lam) < 0.15
    assert rng.Stream(1).poisson(0.0) == 0


_KEY_PARTS = st.integers(-(2**70), 2**70)


@given(
    prefix=st.lists(_KEY_PARTS, max_size=3),
    parts=st.lists(_KEY_PARTS, max_size=8),
    suffix=st.lists(_KEY_PARTS, max_size=3),
    count=st.integers(0, 9),
)
@settings(max_examples=300, deadline=None)
def test_stream_draws_equal_the_scalar_streams(prefix, parts, suffix, count):
    draws = rng.stream_draws(prefix, parts, suffix, count)
    assert draws.dtype == np.uint64 and draws.shape == (len(parts), count)
    for row, part in zip(draws.tolist(), parts):
        stream = rng.Stream(*prefix, part, *suffix)
        assert row == [stream.next_u64() for _ in range(count)]


@given(seed=_KEY_PARTS, parts=st.lists(_KEY_PARTS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_vector_uniforms_and_normals_equal_the_scalar_rules(seed, parts):
    draws = rng.stream_draws((seed,), parts, (), 5)
    uniforms = rng.uniforms(draws[:, 0]).tolist()
    first, second = rng.normal_pairs(draws[:, 1::2], draws[:, 2::2])
    for i, part in enumerate(parts):
        stream = rng.Stream(seed, part)
        assert repr(stream.uniform()) == repr(uniforms[i])
        for k in range(2):
            want = stream.normal_pair()
            assert repr(want) == repr((first[i, k].item(), second[i, k].item()))
