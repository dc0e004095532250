"""Reversible 5/3 integer lifting wavelet pyramid.

One decomposition level splits a grid into LL/HL/LH/HH subbands with
the LeGall 5/3 lifting steps

    d[n] = x[2n+1] - floor((x[2n] + x[2n+2]) / 2)
    s[n] = x[2n]   + floor((d[n-1] + d[n] + 2) / 4)

applied rows-then-columns, using whole-sample symmetric extension at
boundaries. Even-indexed samples feed the low-pass band, so a length-n
signal splits into ceil(n/2) low and floor(n/2) high samples and odd
dimensions are handled without padding. One boundary rule serves every
length: a neighbour past either end of a band is that band's edge
sample (d[-1] = d[0], d[nd] = d[nd-1], x[2ns] = x[2ns-2]), so analysis
and synthesis share two lifting terms and never branch on parity. The
transform is exactly invertible on integer input, and one synthesis
serves every resolution: ``inverse_53`` of a pyramid cut to its first
r - 1 detail levels is the image at resolution level r.

Both directions take a stack ``(n, h, w)`` of same-shape grids as well
as one grid, and lift each grid of a stack on its own over the last two
axes, so a stack's bands are exactly its members' bands, one above the
other. A caller with many small grids of one shape (the tiles of a
codestream) pays each pass's fixed cost once for all of them.

The two terms lift along axis 0 of the array they are given, and no
pass makes a transposed copy: each pass swaps its lifting axis to the
front, a view, and back. The column pass slices whole rows
(``low[0::2]``, ``d[:1]``, ...), each of them contiguous. The row pass
gathers each row's even and odd samples once, in memory order. Either
way the bands swap back to C order, and every band a pass returns is
C-contiguous, a stack's members included. Synthesis runs the same terms
the same way and writes each pass into a C-ordered array through the
same swapped view.

Both directions lift each level at the narrowest width that stays
exact, by one rule: a level over values of magnitude at most m forms no
magnitude of 9 * (m + 1) or more, so it runs in int32 when that bound is
at most 2**31, that is for m up to 238,609,293, in int64 when it is at
most 2**63, and is refused above. In analysis, a 1-D pass over values
within m gives values within 2m + 1 (Taubman & Marcellin, *JPEG2000*,
2002) and forms no sum beyond twice that, so a row pass and then a
column pass form nothing of 8 * (m + 1) or more and keep the LL within
4m + 3. Analysis therefore measures the input's peak p once and carries
the bound from level to level: level k lifts values within
4**(k - 1) * (p + 1) - 1. For DC-shifted 8-bit samples (p = 128) every
level runs in int32 up to depth 11, and at depth 7, the deepest a
codestream holds, no level forms a magnitude of 9 * 129 * 4**6, about
2**22. A stack takes one width per level, from its largest peak. In
synthesis, coefficients read from a stream carry no bound but their
own, so each level measures m over its inputs: the LL so far and the
three detail bands. A 1-D synthesis pass over values within m forms no
magnitude of 3 * (m + 1) or more: the update sum d[k-1] + d[k] + 2
stays within 2m + 2, so the even samples stay within 1.5m + 1/2, their
pairwise sums within 3m + 1 and the odd samples within 2.5m + 1. A
column pass and then a row pass over outputs within 3m + 2 therefore
form nothing of 9 * (m + 1) or more. Decoded bands hold int32 literals,
and seven levels from peaks of 2**31 stay below 2**31 * 9**7, about
2**53, so a codestream never reaches the refusal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Band = np.ndarray
DetailBands = tuple[Band, Band, Band]


class PyramidShapeError(ValueError):
    """Detail-band dimensions are inconsistent with the LL band."""


@dataclass(frozen=True)
class CoefficientPyramid:
    """Wavelet coefficients of one grid, or of a stack of same-shape grids.

    ``ll`` is the deepest low-pass band. ``details[i]`` holds the
    (HL, LH, HH) bands at depth ``len(details) - i``, i.e. synthesis
    order: merging ``ll`` with ``details[0]`` yields the LL band one
    level up. The bands of a stack carry a leading axis, one entry per
    grid.
    """

    ll: Band
    details: tuple[DetailBands, ...]


def _integral_grid(a) -> np.ndarray:
    """``a`` as a grid, or a stack of grids, of a bool or integer dtype."""
    arr = np.asarray(a)
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D grid or a 3-D stack of grids, got ndim={arr.ndim}")
    if arr.dtype.kind not in "biu":
        raise ValueError(f"expected an integer grid, got dtype {arr.dtype}")
    return arr


def _level_dtype(peak: int) -> np.dtype:
    """int32 or int64: the narrowest width exact for one level over |x| <= peak.

    A level, analysis or synthesis, forms no magnitude of 9 * (peak + 1)
    or more; see the module docstring.
    """
    bound = 9 * (peak + 1)
    if bound <= 1 << 31:
        return np.dtype(np.int32)
    if bound <= 1 << 63:
        return np.dtype(np.int64)
    raise ValueError(f"values up to {peak} overflow int64")


def _peak(*arrays: np.ndarray) -> int:
    """The largest magnitude in any of ``arrays``."""
    return max(max(-int(a.min(initial=0)), int(a.max(initial=0))) for a in arrays)


def _update_term(d: np.ndarray, ns: int) -> np.ndarray:
    """floor((d[k-1] + d[k] + 2) / 4) for k in 0..ns-1 along axis 0, d mirrored at both ends."""
    edged = np.concatenate([d[:1], d, d[-1:]])
    return (edged[:ns] + edged[1 : ns + 1] + 2) >> 2


def _predict_term(even: np.ndarray, nd: int) -> np.ndarray:
    """floor((even[k] + even[k+1]) / 2) for k in 0..nd-1 along axis 0, even mirrored at the end."""
    following = np.concatenate([even[1:], even[-1:]])
    return (even[:nd] + following[:nd]) >> 1


def _analyze(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One lifting pass along ``axis`` (0 or 1) of each grid: returns (low, high).

    ``a`` is one grid or a stack of them; ``axis`` counts within a
    grid. The terms lift along axis 0 of the view they get, so the
    lifting axis is swapped to the front, a view, and back. A row's
    even samples sit two apart and are gathered once, in memory order;
    a column pass uses its even and odd rows in place, since each row
    is contiguous. The terms mostly keep their operands' memory order,
    but numpy picks another for some small shapes, so the bands are
    made C-contiguous on the way out (a no-op when they already are).
    """
    lift = a.ndim - 2 + axis
    view = a.swapaxes(0, lift)
    even, odd = view[0::2], view[1::2]
    if axis:
        even, odd = even.copy(order="F"), odd.copy(order="F")
    ns, nd = len(even), len(odd)
    if nd:
        odd = odd - _predict_term(even, nd)
        even = even + _update_term(odd, ns)
    low, high = even.swapaxes(0, lift), odd.swapaxes(0, lift)
    return np.ascontiguousarray(low), np.ascontiguousarray(high)


def _synthesize(s: np.ndarray, d: np.ndarray, axis: int) -> np.ndarray:
    """Invert _analyze: interleave (low, high) back into samples along ``axis``."""
    lift = s.ndim - 2 + axis
    shape = list(s.shape)
    shape[lift] += d.shape[lift]
    s, d = s.swapaxes(0, lift), d.swapaxes(0, lift)
    ns, nd = len(s), len(d)
    even = s - _update_term(d, ns) if nd else s
    out = np.empty(shape, dtype=even.dtype)
    samples = out.swapaxes(0, lift)
    samples[0::2] = even
    if nd:
        samples[1::2] = d + _predict_term(even, nd)
    return out


def _analyze2d(a: np.ndarray) -> tuple[Band, Band, Band, Band]:
    # rows, then columns: the rounding makes the two orders differ
    low, high = _analyze(a, 1)
    ll, lh = _analyze(low, 0)
    hl, hh = _analyze(high, 0)
    return ll, hl, lh, hh


def _synthesize2d(ll: Band, hl: Band, lh: Band, hh: Band) -> np.ndarray:
    *stack, a, b = ll.shape
    c, d = hh.shape[-2:]
    if (
        hl.shape != (*stack, a, d)
        or lh.shape != (*stack, c, b)
        or hh.shape != (*stack, c, d)
        or not (0 <= a - c <= 1)
        or not (0 <= b - d <= 1)
    ):
        raise PyramidShapeError(
            f"inconsistent band shapes: LL{ll.shape} HL{hl.shape} LH{lh.shape} HH{hh.shape}"
        )
    return _synthesize(_synthesize(ll, lh, 0), _synthesize(hl, hh, 0), 1)


def forward_53(samples, depth: int) -> CoefficientPyramid:
    """Decompose a 2-D integer grid ``depth`` times, recursing on LL.

    ``samples`` may also be a stack ``(n, h, w)`` of same-shape grids:
    each is lifted on its own over the last two axes, and every band
    keeps the leading stack axis, so member ``k`` of each band is that
    band of ``forward_53(samples[k], depth)``. ``depth`` 0 returns the
    input as given, as a single LL band. Input is expected DC-shifted
    (e.g. 8-bit value - 128) when coding images, but any integer grid
    (bool, signed or unsigned) is accepted; a grid of another dtype,
    float included, raises ``ValueError``, and so does a grid too large
    for exact lifting in int64. Each level is lifted, and its bands come
    out, in int32 when the bound carried from the input's peak keeps
    every value the level forms inside int32, else in int64 (see the
    module docstring), so a deep pyramid of wide input may hold int32
    bands at its shallow levels and int64 bands at its deep ones.
    """
    grid = _integral_grid(samples)
    if grid.size == 0:
        raise ValueError("empty grid")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # level k + 1 lifts values within 4**k * (p + 1) - 1 (module docstring);
    # every width is taken, and a grid too wide refused, before any level runs
    p = _peak(grid)
    widths = [_level_dtype(4**k * (p + 1) - 1) for k in range(depth)]
    cur, collected = grid, []
    for width in widths:
        ll, hl, lh, hh = _analyze2d(cur.astype(width, copy=False))
        collected.append((hl, lh, hh))
        cur = ll
    return CoefficientPyramid(ll=cur, details=tuple(reversed(collected)))


def inverse_53(pyramid: CoefficientPyramid) -> np.ndarray:
    """Synthesize a pyramid; the exact inverse of forward_53.

    A pyramid cut to its first ``r - 1`` detail levels synthesizes the
    image at resolution level ``r``: the deepest LL band alone is level
    1, and each detail level merged doubles (odd dims: ceil-doubles)
    the grid. A pyramid of stacked bands, each ``(n, h, w)`` with the
    same ``n``, synthesizes a stack of ``n`` grids, each as it would be
    alone; stack lengths that disagree raise ``PyramidShapeError``.

    Each level is synthesized in int32 when the measured peak of its
    inputs keeps every value it forms inside int32, else in int64: the
    rule ``forward_53`` applies to its carried bound (see the module
    docstring). The result is int32 or int64, the width of the last
    level. A pyramid with no detail level returns its LL band
    as given.
    """
    cur = _integral_grid(pyramid.ll)
    for bands in pyramid.details:
        level = [cur, *map(_integral_grid, bands)]
        width = _level_dtype(_peak(*level))
        cur = _synthesize2d(*(a.astype(width, copy=False) for a in level))
    return cur
