import numpy as np
import pytest

from tilecast import wavelet
from tilecast.wavelet import (
    CoefficientPyramid,
    PyramidShapeError,
    forward_53,
    inverse_53,
)

import reference_wavelet as ref


def test_lifting_hand_example():
    # x = [1, 2, 3, 4]: d = [2-2, 4-3] = [0, 1]; s = [1+0, 3+0] = [1, 3]
    pyr = forward_53(np.array([[1, 2, 3, 4]]), depth=1)
    assert pyr.ll.tolist() == [[1, 3]]
    assert pyr.details[0][0].tolist() == [[0, 1]]  # HL carries the row detail
    assert inverse_53(pyr).tolist() == [[1, 2, 3, 4]]


def test_inverse_of_hand_pyramid():
    pyr = CoefficientPyramid(
        ll=np.array([[1, 3]]),
        details=(
            (np.array([[0, 1]]), np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int64)),
        ),
    )
    assert inverse_53(pyr).tolist() == [[1, 2, 3, 4]]


def test_depth_zero_is_identity():
    g = np.arange(12).reshape(3, 4)
    pyr = forward_53(g, 0)
    assert pyr.depth == 0
    assert np.array_equal(pyr.ll, g)
    assert np.array_equal(inverse_53(pyr), g)


def test_constant_grid_has_zero_details():
    pyr = forward_53(np.full((9, 14), 42), depth=3)
    assert (pyr.ll == 42).all()
    for hl, lh, hh in pyr.details:
        assert not hl.any() and not lh.any() and not hh.any()


def test_matches_scalar_reference_single_level():
    rng = np.random.default_rng(42)
    for _ in range(200):
        h = int(rng.integers(2, 12))
        w = int(rng.integers(2, 12))
        g = rng.integers(-128, 128, size=(h, w))
        pyr = forward_53(g, 1)
        ll, hl, lh, hh = ref.analyze_2d(g.tolist())
        assert pyr.ll.tolist() == ll
        assert pyr.details[0][0].tolist() == hl
        assert pyr.details[0][1].tolist() == lh
        assert pyr.details[0][2].tolist() == hh


def test_perfect_reconstruction_many_shapes():
    # assorted odd/even dimensions and depths 0..4
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        depth = int(rng.integers(0, 5))
        g = rng.integers(-128, 128, size=(h, w))
        assert np.array_equal(inverse_53(forward_53(g, depth)), g)


def test_coefficients_fit_int16_for_8bit_input():
    rng = np.random.default_rng(11)
    bound = 2**15
    for _ in range(50):
        g = rng.integers(0, 256, size=(64, 64)).astype(np.int64) - 128
        pyr = forward_53(g, 4)
        assert abs(pyr.ll).max() < bound
        for bands in pyr.details:
            for b in bands:
                if b.size:
                    assert abs(b).max() < bound


def _truncated(pyr, resolution):
    """The pyramid cut to the detail levels that resolution ``resolution`` needs."""
    return CoefficientPyramid(ll=pyr.ll, details=pyr.details[: resolution - 1])


def test_truncated_pyramid_dimensions():
    g = np.random.default_rng(0).integers(0, 256, size=(16, 16)) - 128
    pyr = forward_53(g, 4)  # 5 resolution levels
    assert inverse_53(_truncated(pyr, 5)).shape == (16, 16)
    assert inverse_53(_truncated(pyr, 3)).shape == (4, 4)
    assert inverse_53(_truncated(pyr, 1)).shape == (1, 1)
    assert np.array_equal(inverse_53(_truncated(pyr, 1)), pyr.ll)
    assert np.array_equal(inverse_53(_truncated(pyr, 5)), inverse_53(pyr))


def test_truncated_pyramid_matches_downsample_chain_oracle():
    # the low-resolution image equals iterated single-level LL bands
    # computed by the scalar reference
    rng = np.random.default_rng(5)
    for _ in range(60):
        h = int(rng.integers(2, 21))
        w = int(rng.integers(2, 21))
        depth = int(rng.integers(1, 5))
        g = rng.integers(-128, 128, size=(h, w))
        pyr = forward_53(g, depth)
        for res in range(1, depth + 2):
            expected = ref.ll_chain(g.tolist(), depth + 1 - res)
            assert inverse_53(_truncated(pyr, res)).tolist() == expected


def test_band_shape_mismatch_raises():
    pyr = forward_53(np.arange(64).reshape(8, 8), 1)
    hl, lh, hh = pyr.details[0]
    bad = CoefficientPyramid(ll=pyr.ll, details=((hl[:, :3], lh, hh),))
    with pytest.raises(PyramidShapeError):
        inverse_53(bad)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        forward_53(np.empty((0, 4)), 1)
    with pytest.raises(ValueError):
        forward_53(np.ones((4, 4)), -1)


def _rows(band):
    # the reference writes a band with no columns as [], not one [] per row
    return band.tolist() if band.size else []


def test_every_small_shape_matches_scalar_reference():
    # 1- and 2-wide axes are where the boundary neighbours are cut to length
    rng = np.random.default_rng(8)
    for h in range(1, 13):
        for w in range(1, 13):
            g = rng.integers(-128, 128, size=(h, w))
            pyr = forward_53(g, 1)
            bands = [pyr.ll.tolist(), *map(_rows, pyr.details[0])]
            assert bands == list(ref.analyze_2d(g.tolist()))
            if h > 1 and w > 1:
                assert ref.synthesize_2d(*bands) == g.tolist()
            for depth in range((max(h, w) - 1).bit_length() + 1):
                assert forward_53(g, depth).ll.tolist() == ref.ll_chain(g.tolist(), depth)
    for n in range(1, 13):
        ns, nd = wavelet.split_dims(n)
        s = rng.integers(-300, 300, size=ns)
        d = rng.integers(-300, 300, size=nd)
        expected = ref.synthesize_1d(s.tolist(), d.tolist())
        no_rows, no_cols = np.empty((0, n), dtype=np.int64), np.empty((n, 0), dtype=np.int64)
        row = CoefficientPyramid(s[None, :], ((d[None, :], no_rows[:, :ns], no_rows[:, :nd]),))
        column = CoefficientPyramid(s[:, None], ((no_cols[:ns], d[:, None], no_cols[:nd]),))
        assert inverse_53(row).tolist() == [expected]
        assert inverse_53(column).tolist() == [[v] for v in expected]


def test_non_integral_input_is_refused():
    # the lifting used to truncate these to [[0, 1], [2, -3]] without a word
    for bad in ([[0.5, 1.7], [2.2, -3.9]], [[1.0, np.nan]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError, match="non-integral"):
            forward_53(bad, 1)
    with pytest.raises(ValueError, match="non-integral"):
        inverse_53(CoefficientPyramid(ll=np.array([[0.5]]), details=()))
    with pytest.raises(ValueError, match="integer grid"):
        forward_53(np.array([["a", "b"]]), 1)
    whole = [[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]]
    assert inverse_53(forward_53(whole, 1)).tolist() == whole


def _extreme_patterns(h, w):
    """Grids of -128 and 127 whose signs alternate along rows, columns, both or at random."""
    r, c = np.indices((h, w))
    signs = [r % 2, c % 2, (r + c) % 2, (r // 2 + c // 3) % 2]
    rng = np.random.default_rng(h * w)
    signs += [rng.integers(0, 2, size=(h, w)) for _ in range(4)]
    return [np.where(s == 1, 127, -128) for s in signs] + [np.full((h, w), -128)]


def _checked_pass(a):
    """One lifting pass in int64, checked against the bound the working width relies on."""
    low, high = wavelet._analyze_last(a)
    peak = int(abs(a).max())
    assert int(abs(low).max()) <= 2 * peak + 1
    if high.size:
        assert int(abs(high).max()) <= 2 * peak + 1
        edged = np.concatenate([high[..., :1], high, high[..., -1:]], axis=-1)
        sums = edged[..., :-1] + edged[..., 1:] + 2  # every d[k-1] + d[k] + 2
        assert int(abs(sums).max()) <= 2 * (2 * peak + 1)
        assert int(abs(sums).max()) < 1 << 22
    return low, high


def test_int32_lifting_bound_on_extreme_8bit_input():
    depth = 7  # a codestream's deepest split
    assert wavelet._lifting_dtype(128, depth) == np.int32
    assert wavelet._lifting_dtype(128, 11) == np.int32
    assert wavelet._lifting_dtype(128, 12) == np.int64
    for h, w in ((128, 128), (129, 128), (130, 131), (255, 133)):
        for g in _extreme_patterns(h, w):
            cur = g.astype(np.int64)
            levels = []
            for _ in range(depth):
                low, high = _checked_pass(cur)
                ll_t, lh_t = _checked_pass(low.T)
                hl_t, hh_t = _checked_pass(high.T)
                levels.append((hl_t.T, lh_t.T, hh_t.T))
                cur = ll_t.T
            pyr = forward_53(g, depth)
            assert pyr.ll.dtype == np.int32
            assert np.array_equal(pyr.ll, cur)
            for got, want in zip(pyr.details, reversed(levels)):
                for band, wanted in zip(got, want):
                    assert band.dtype == np.int32 and np.array_equal(band, wanted)
                    assert int(abs(band).max(initial=0)) < 1 << 22
            assert np.array_equal(inverse_53(pyr), g)


def test_wide_input_lifts_in_int64():
    rng = np.random.default_rng(40)
    g = rng.choice([-(2**40), 2**40, 3, -7], size=(37, 50))
    pyr = forward_53(g, 7)
    assert pyr.ll.dtype == np.int64
    assert np.array_equal(inverse_53(pyr), g)
    # past int64 the lifting would wrap, so the grid is refused
    with pytest.raises(ValueError, match="overflow int64"):
        forward_53(np.full((4, 4), 2**50), 7)
    assert forward_53(np.full((4, 4), 2**50), 1).ll.dtype == np.int64
