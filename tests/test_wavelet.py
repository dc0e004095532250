import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert pyr.details == ()
    assert np.array_equal(pyr.ll, g)
    assert np.array_equal(inverse_53(pyr), g)
    # no level runs, so the grid comes back as given, in its own dtype
    for dtype in (bool, np.uint8, np.int16, np.int64, np.uint64):
        grid = g.astype(dtype)
        assert forward_53(grid, 0).ll is grid


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


def test_bands_come_out_c_contiguous():
    # the column pass lifts whole rows, so no band is a transposed view,
    # and each member of a stack's band is one contiguous block
    rng = np.random.default_rng(9)
    shapes = ((1, 1), (1, 9), (9, 1), (2, 2), (5, 2), (5, 4), (16, 16), (17, 31), (40, 1),
              (1, 64), (33, 2))
    for h, w in shapes:
        for lead in ((), (1,), (3,), (7,)):
            g = rng.integers(-128, 128, size=(*lead, h, w))
            for depth in range(4):
                pyr = forward_53(g, depth)
                bands = _bands(pyr)
                members = [member for band in bands for member in band] if lead else []
                assert all(a.flags.c_contiguous for a in bands + members), (lead, h, w, depth)


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
        ns, nd = (n + 1) // 2, n // 2
        s = rng.integers(-300, 300, size=ns)
        d = rng.integers(-300, 300, size=nd)
        expected = ref.synthesize_1d(s.tolist(), d.tolist())
        no_rows, no_cols = np.empty((0, n), dtype=np.int64), np.empty((n, 0), dtype=np.int64)
        row = CoefficientPyramid(s[None, :], ((d[None, :], no_rows[:, :ns], no_rows[:, :nd]),))
        column = CoefficientPyramid(s[:, None], ((no_cols[:ns], d[:, None], no_cols[:nd]),))
        assert inverse_53(row).tolist() == [expected]
        assert inverse_53(column).tolist() == [[v] for v in expected]


def test_non_integral_input_is_refused():
    # the lifting used to truncate these to [[0, 1], [2, -3]] without a word;
    # a float grid is refused by its dtype, whole numbers included
    whole = [[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]]
    for bad in ([[0.5, 1.7], [2.2, -3.9]], [[1.0, np.nan]], [[np.inf, 0.0]], whole):
        with pytest.raises(ValueError, match="integer grid, got dtype float64"):
            forward_53(bad, 1)
    with pytest.raises(ValueError, match="integer grid"):
        inverse_53(CoefficientPyramid(ll=np.array([[0.5]]), details=()))
    with pytest.raises(ValueError, match="integer grid"):
        forward_53(np.array([["a", "b"]]), 1)


def test_the_lifting_takes_integer_grids_only():
    g = [[1, 0, 1], [0, 1, 1]]
    for dtype in (np.bool_, np.int8, np.uint8, np.int64, np.uint64):
        assert inverse_53(forward_53(np.array(g, dtype=dtype), 1)).tolist() == g
    for bad in ([[1.0]], np.ones((2, 2), np.float32), np.ones((2, 2), complex)):
        with pytest.raises(ValueError, match="expected an integer grid"):
            forward_53(bad, 0)


def _extreme_patterns(h, w):
    """Grids of -128 and 127 whose signs alternate along rows, columns, both or at random."""
    r, c = np.indices((h, w))
    signs = [r % 2, c % 2, (r + c) % 2, (r // 2 + c // 3) % 2]
    rng = np.random.default_rng(h * w)
    signs += [rng.integers(0, 2, size=(h, w)) for _ in range(4)]
    return [np.where(s == 1, 127, -128) for s in signs] + [np.full((h, w), -128)]


def _checked_pass(a, axis):
    """One int64 lifting pass along ``axis``, checked against the bound int32 relies on."""
    low, high = wavelet._analyze(a, axis)
    peak = int(abs(a).max())
    assert int(abs(low).max()) <= 2 * peak + 1
    if high.size:
        assert int(abs(high).max()) <= 2 * peak + 1
        d = high.T if axis else high  # the lifting axis first
        edged = np.concatenate([d[:1], d, d[-1:]])
        sums = edged[:-1] + edged[1:] + 2  # every d[k-1] + d[k] + 2
        assert int(abs(sums).max()) <= 2 * (2 * peak + 1)
        assert int(abs(sums).max()) < 1 << 22
    return low, high


def _8bit_width(level):
    """The width 8-bit samples lift in at ``level`` (1 is the first split): int16 to 3, then int32."""
    return np.int16 if level <= 3 else np.int32


def test_int32_lifting_bound_on_extreme_8bit_input():
    depth = 7  # a codestream's deepest split
    # each level's width, from the bound carried from the peak: levels 1-3
    # in int16 and the rest in int32 at depth 11; at depth 12 the deepest
    # level (details[0]) and the LL it makes in int64, the eleven above it
    # as at depth 11
    g = _extreme_patterns(16, 16)[2]
    shallow, deep = forward_53(g, 11), forward_53(g, 12)
    assert shallow.ll.dtype == np.int32
    for i, level in enumerate(shallow.details):
        assert [band.dtype for band in level] == [_8bit_width(11 - i)] * 3
    assert deep.ll.dtype == np.int64
    assert [band.dtype for band in deep.details[0]] == [np.int64] * 3
    for i, level in enumerate(deep.details[1:]):
        assert [band.dtype for band in level] == [_8bit_width(11 - i)] * 3
    for got, want in zip(deep.details[1:], shallow.details):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(inverse_53(deep), g)
    for h, w in ((128, 128), (129, 128), (130, 131), (255, 133)):
        for g in _extreme_patterns(h, w):
            cur = g.astype(np.int64)
            levels = []
            for _ in range(depth):
                # the passes forward_53 runs: rows (the last axis), then columns (axis 0)
                low, high = _checked_pass(cur, 1)
                ll, lh = _checked_pass(low, 0)
                hl, hh = _checked_pass(high, 0)
                levels.append((hl, lh, hh))
                cur = ll
            pyr = forward_53(g, depth)
            assert pyr.ll.dtype == np.int32
            assert np.array_equal(pyr.ll, cur)
            for i, (got, want) in enumerate(zip(pyr.details, reversed(levels))):
                for band, wanted in zip(got, want):
                    assert band.dtype == _8bit_width(depth - i) and np.array_equal(band, wanted)
                    assert int(abs(band).max(initial=0)) < 1 << 22
            assert np.array_equal(inverse_53(pyr), g)


def _int16_checked_pass(a, axis):
    """One int64 lifting pass along ``axis``; every value it forms, sums included, within int16.

    The pass is formed here from the lifting steps, term by term, and
    must equal ``wavelet._analyze`` on the same input.
    """
    x = a.T if axis else a  # the lifting axis first
    even, odd = x[0::2], x[1::2]
    ns, nd = len(even), len(odd)
    following = np.concatenate([even[1:], even[-1:]])
    pairs = even[:nd] + following[:nd]  # every x[2n] + x[2n+2]
    d = odd - (pairs >> 1)
    edged = np.concatenate([d[:1], d, d[-1:]])
    sums = edged[:ns] + edged[1 : ns + 1] + 2  # every d[n-1] + d[n] + 2
    s = even + (sums >> 2)
    for formed in (pairs, d, sums, s):
        assert int(abs(formed).max(initial=0)) < 1 << 15
    low, high = wavelet._analyze(a, axis)
    assert np.array_equal(low, s.T if axis else s) and np.array_equal(high, d.T if axis else d)
    return low, high


def test_int16_lifting_bound_on_extreme_8bit_input():
    # levels 1-3 of 8-bit samples lift in int16: every sum each of their
    # passes forms, computed in int64, stays below 2**15; level 4 is int32
    for h, w in ((128, 128), (129, 128), (130, 131), (255, 133)):
        for g in _extreme_patterns(h, w):
            cur, levels = g.astype(np.int64), []
            for _ in range(3):
                # the passes forward_53 runs: rows (the last axis), then columns (axis 0)
                low, high = _int16_checked_pass(cur, 1)
                ll, lh = _int16_checked_pass(low, 0)
                hl, hh = _int16_checked_pass(high, 0)
                levels.append((hl, lh, hh))
                cur = ll
            pyr = forward_53(g, 4)
            assert pyr.ll.dtype == np.int32
            assert [band.dtype for band in pyr.details[0]] == [np.int32] * 3
            for got, want in zip(pyr.details[1:], reversed(levels)):
                for band, wanted in zip(got, want):
                    assert band.dtype == np.int16 and np.array_equal(band, wanted)
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
    # one level lifts values up to m in int64 while 9 * (m + 1) <= 2**63
    assert forward_53(np.full((4, 4), (1 << 63) // 9 - 1), 1).ll.dtype == np.int64
    with pytest.raises(ValueError, match="overflow int64"):
        forward_53(np.full((4, 4), 2**60 - 1), 1)


# the largest peak whose level stays below 2**31: 9 * (peak + 1) <= 2**31
_INT32_LEVEL_PEAK = (1 << 31) // 9 - 1


def _checked_synthesis(s, d, axis, peak):
    """One int64 synthesis pass along ``axis``, checked against the bound a pass obeys.

    Every value the pass forms, the sums inside its two lifting terms
    included, has magnitude below 3 * (peak + 1) over inputs of
    magnitude at most ``peak``.
    """
    s_, d_ = (s.T, d.T) if axis else (s, d)  # the lifting axis first
    ns, nd = len(s_), len(d_)
    edged = np.concatenate([d_[:1], d_, d_[-1:]])
    sums = edged[:ns] + edged[1 : ns + 1] + 2  # every d[k-1] + d[k] + 2
    even = s_ - (sums >> 2)
    following = np.concatenate([even[1:], even[-1:]])
    pairs = even[:nd] + following[:nd]  # every even[k] + even[k+1]
    odd = d_ + (pairs >> 1)
    for formed in (sums, even, pairs, odd):
        assert int(abs(formed).max()) < 3 * (peak + 1)
    samples = np.empty((ns + nd, *even.shape[1:]), dtype=np.int64)
    samples[0::2], samples[1::2] = even, odd
    out = wavelet._synthesize(s, d, axis)
    assert out.dtype == np.int64 and np.array_equal(out.T if axis else out, samples)
    return out


def _extreme_levels(peak, h, w):
    """One level's LL, HL, LH, HH of an h x w grid, every coefficient +-peak, signs patterned."""
    a, b, c, d = -(-h // 2), -(-w // 2), h // 2, w // 2
    rng = np.random.default_rng(peak % 1000 + h * w)
    for k in range(6):
        bands = []
        for shape in ((a, b), (a, d), (c, b), (c, d)):
            r, q = np.indices(shape)
            # signs alternating down columns, along rows, both, none, or at random
            signs = [r % 2, q % 2, (r + q) % 2, 0 * r, rng.integers(0, 2, size=shape)][min(k, 4)]
            # LL and LH take the pattern, HL and HH its opposite
            bands.append(np.where(signs == len(bands) % 2, peak, -peak).astype(np.int64))
        yield bands


@pytest.mark.parametrize("peak", [_INT32_LEVEL_PEAK, _INT32_LEVEL_PEAK + 1,
                                  2**31 - 1, 2**31])
def test_synthesis_bound_on_extreme_coefficients(peak):
    width = np.int32 if peak <= _INT32_LEVEL_PEAK else np.int64
    assert wavelet._level_dtype(peak) == width
    for h, w in ((8, 8), (9, 8), (7, 11)):
        for ll, hl, lh, hh in _extreme_levels(peak, h, w):
            # the passes inverse_53 runs: columns (axis 0) of (LL, LH) and (HL, HH), then rows
            low = _checked_synthesis(ll, lh, 0, peak)
            high = _checked_synthesis(hl, hh, 0, peak)
            row_peak = int(max(abs(low).max(), abs(high).max()))
            assert row_peak <= 3 * peak + 2
            want = _checked_synthesis(low, high, 1, row_peak)
            assert int(abs(want).max()) < 9 * (peak + 1)
            assert want.tolist() == ref.synthesize_2d(*(band.tolist() for band in (ll, hl, lh, hh)))
            got = inverse_53(CoefficientPyramid(ll=ll, details=((hl, lh, hh),)))
            assert got.dtype == width and np.array_equal(got, want)
            # int32 bands take the same width and give the same grid
            if peak < 2**31:
                narrow = [band.astype(np.int32) for band in (ll, hl, lh, hh)]
                got = inverse_53(CoefficientPyramid(ll=narrow[0], details=(tuple(narrow[1:]),)))
                assert got.dtype == width and np.array_equal(got, want)


def test_synthesis_width_limits():
    # one level lifts values up to m in int16 while 9 * (m + 1) <= 2**15
    assert wavelet._level_dtype(0) == np.int16
    assert wavelet._level_dtype((1 << 15) // 9 - 1) == wavelet._level_dtype(3639) == np.int16
    assert wavelet._level_dtype(3640) == np.int32
    assert wavelet._level_dtype(_INT32_LEVEL_PEAK) == np.int32
    assert wavelet._level_dtype(_INT32_LEVEL_PEAK + 1) == np.int64
    assert wavelet._level_dtype((1 << 63) // 9 - 1) == np.int64
    with pytest.raises(ValueError, match="overflow int64"):
        wavelet._level_dtype((1 << 63) // 9)
    # a level past int64 is refused, not wrapped
    big = np.full((2, 2), 2**62)
    with pytest.raises(ValueError, match="overflow int64"):
        inverse_53(CoefficientPyramid(ll=big, details=((big, big, big),)))
    # a pyramid with no detail level is its LL band, as given
    ll = np.array([[2**31 - 1, -(2**31)]], dtype=np.int32)
    assert inverse_53(CoefficientPyramid(ll=ll, details=())) is ll


@st.composite
def stacks(draw):
    """A stack of 1-9 same-shape grids, 1-40 a side, a depth 0-7, and the width of each level."""
    n, h, w = draw(st.integers(1, 9)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    depth = draw(st.integers(0, 7))
    # 8-bit samples lift levels 1-3 in int16 and deeper ones in int32; 2**40 forces int64
    peak = draw(st.sampled_from([128, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = rng.integers(-peak, peak, size=(n, h, w))
    grids[rng.integers(n), rng.integers(h), rng.integers(w)] = -peak  # the stack reaches its peak
    widths = [_8bit_width(k) if peak == 128 else np.int64 for k in range(1, depth + 1)]
    return grids, depth, widths


def _bands(pyr):
    return [pyr.ll, *(band for level in pyr.details for band in level)]


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_a_stack_lifts_as_its_members_do(case):
    grids, depth, widths = case
    pyr = forward_53(grids, depth)
    # each level's bands in its width, and the LL in the deepest one's;
    # depth 0 lifts nothing and returns the stack as given
    assert pyr.ll.dtype == (widths[-1] if depth else grids.dtype)
    for level, bands in zip(reversed(widths), pyr.details, strict=True):
        assert all(band.dtype == level for band in bands)
    alone = [forward_53(grid, depth) for grid in grids]
    for k, member in enumerate(alone):
        for band, wanted in zip(_bands(pyr), _bands(member), strict=True):
            assert np.array_equal(band[k], wanted)
    assert np.array_equal(inverse_53(pyr), grids)
    for resolution in range(1, depth + 2):
        got = inverse_53(_truncated(pyr, resolution))
        assert len(got) == len(grids)
        for k, member in enumerate(alone):
            assert np.array_equal(got[k], inverse_53(_truncated(member, resolution)))


def test_stack_lengths_that_disagree_are_refused():
    pyr = forward_53(np.arange(3 * 64).reshape(3, 8, 8), 2)
    hl, lh, hh = pyr.details[1]
    for bad in (
        CoefficientPyramid(ll=pyr.ll[:2], details=pyr.details),
        CoefficientPyramid(ll=pyr.ll, details=(pyr.details[0], (hl, lh[:2], hh))),
        CoefficientPyramid(ll=pyr.ll, details=(pyr.details[0], (hl, lh, hh[0]))),
    ):
        with pytest.raises(PyramidShapeError):
            inverse_53(bad)


def test_grids_of_other_dimensions_are_refused():
    for bad in (np.arange(8), np.arange(16).reshape(1, 2, 2, 4)):
        with pytest.raises(ValueError, match="ndim"):
            forward_53(bad, 1)
        with pytest.raises(ValueError, match="ndim"):
            inverse_53(CoefficientPyramid(ll=bad, details=()))
