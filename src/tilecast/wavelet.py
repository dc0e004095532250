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

The two terms lift along axis 0 of the array they are given, and no
pass makes a transposed copy. The column pass slices whole rows
(``low[0::2]``, ``d[:1]``, ...), each of them contiguous, so its bands
come out C-contiguous as they are computed. The row pass works on the
grid's transpose, a view: it gathers each row's even and odd samples
once, in memory order, and its bands transpose back to C order.
Synthesis runs the same terms the same way.

Analysis works at the narrowest width that stays exact. A 1-D pass over
values of magnitude at most m gives values of magnitude at most 2m + 1
(Taubman & Marcellin, *JPEG2000*, 2002), and no sum it forms exceeds
twice that, so ``depth`` levels (2 * depth passes) over a grid peaking
at p never form a magnitude of (p + 1) * 2**(2 * depth + 1) or more.
When that bound is at most 2**31 the pyramid is lifted in int32: for
DC-shifted 8-bit samples (p = 128) that holds up to depth 11, and at
depth 7, the deepest a codestream holds, the bound is 129 * 2**15, about
2**22. Otherwise it is lifted in int64, and a grid whose bound exceeds
2**63 is refused. Synthesis runs in int64, since coefficients read from
a stream carry no such bound.
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
    """Wavelet coefficients of one grid.

    ``ll`` is the deepest low-pass band. ``details[i]`` holds the
    (HL, LH, HH) bands at depth ``depth - i``, i.e. synthesis order:
    merging ``ll`` with ``details[0]`` yields the LL band one level up.
    """

    ll: Band
    details: tuple[DetailBands, ...]

    @property
    def depth(self) -> int:
        return len(self.details)

    @property
    def levels(self) -> int:
        """Number of addressable resolution levels (depth + 1)."""
        return len(self.details) + 1


def _integral_grid(a) -> np.ndarray:
    """``a`` as a 2-D array of whole numbers; a float grid must hold integral values."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got ndim={arr.ndim}")
    if arr.dtype.kind == "f":
        if not (np.isfinite(arr).all() and (arr == np.trunc(arr)).all()):
            raise ValueError("grid holds a non-integral value")
    elif arr.dtype.kind not in "biu":
        raise ValueError(f"expected an integer grid, got dtype {arr.dtype}")
    return arr


def _as_coeffs(a) -> np.ndarray:
    return _integral_grid(a).astype(np.int64, copy=False)


def _lifting_dtype(peak: int, depth: int) -> np.dtype:
    """int32 or int64: the narrowest width exact for ``depth`` levels over |x| <= peak.

    Every value the lifting forms has magnitude below
    (peak + 1) * 2**(2 * depth + 1); see the module docstring.
    """
    bound = (peak + 1) << 2 * depth + 1
    if bound <= 1 << 31:
        return np.dtype(np.int32)
    if bound <= 1 << 63:
        return np.dtype(np.int64)
    raise ValueError(f"values up to {peak} overflow int64 at depth {depth}")


def _update_term(d: np.ndarray, ns: int) -> np.ndarray:
    """floor((d[k-1] + d[k] + 2) / 4) for k in 0..ns-1 along axis 0, d mirrored at both ends."""
    edged = np.concatenate([d[:1], d, d[-1:]])
    return (edged[:ns] + edged[1 : ns + 1] + 2) >> 2


def _predict_term(even: np.ndarray, nd: int) -> np.ndarray:
    """floor((even[k] + even[k+1]) / 2) for k in 0..nd-1 along axis 0, even mirrored at the end."""
    following = np.concatenate([even[1:], even[-1:]])
    return (even[:nd] + following[:nd]) >> 1


def _analyze(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One lifting pass along ``axis`` (0 or 1) of a 2-D grid: returns (low, high).

    The terms lift along axis 0 of the view they get, so a row pass
    works on ``a.T``, a view, and its bands transpose back to C order.
    A row's even samples sit two apart and are gathered once, in
    memory order; a column pass uses its even and odd rows in place,
    since each row is contiguous.
    """
    view = a.T if axis else a
    even, odd = view[0::2], view[1::2]
    if axis:
        even, odd = even.copy(order="F"), odd.copy(order="F")
    ns, nd = len(even), len(odd)
    if nd:
        odd = odd - _predict_term(even, nd)
        even = even + _update_term(odd, ns)
    return (even.T, odd.T) if axis else (even, odd)


def _synthesize(s: np.ndarray, d: np.ndarray, axis: int) -> np.ndarray:
    """Invert _analyze: interleave (low, high) back into samples along ``axis``."""
    if axis:
        s, d = s.T, d.T
    ns, nd = len(s), len(d)
    if nd == 0:
        out = s.copy()
    else:
        even = s - _update_term(d, ns)
        out = np.empty((ns + nd, even.shape[1]), dtype=even.dtype, order="F" if axis else "C")
        out[0::2] = even
        out[1::2] = d + _predict_term(even, nd)
    return out.T if axis else out


def _analyze2d(a: np.ndarray) -> tuple[Band, Band, Band, Band]:
    # rows, then columns: the rounding makes the two orders differ
    low, high = _analyze(a, 1)
    ll, lh = _analyze(low, 0)
    hl, hh = _analyze(high, 0)
    return ll, hl, lh, hh


def _synthesize2d(ll: Band, hl: Band, lh: Band, hh: Band) -> np.ndarray:
    a, b = ll.shape
    c, d = hh.shape
    if hl.shape != (a, d) or lh.shape != (c, b) or not (0 <= a - c <= 1) or not (0 <= b - d <= 1):
        raise PyramidShapeError(
            f"inconsistent band shapes: LL{ll.shape} HL{hl.shape} LH{lh.shape} HH{hh.shape}"
        )
    return _synthesize(_synthesize(ll, lh, 0), _synthesize(hl, hh, 0), 1)


def split_dims(n: int) -> tuple[int, int]:
    """(low, high) sample counts of one lifting pass over length n."""
    return (n + 1) // 2, n // 2


def forward_53(samples, depth: int) -> CoefficientPyramid:
    """Decompose a 2-D integer grid ``depth`` times, recursing on LL.

    ``depth`` 0 returns the input unchanged as a single LL band. Input
    is expected DC-shifted (e.g. 8-bit value - 128) when coding images,
    but any integer grid is accepted, and so is a float grid of whole
    numbers; a non-integral value raises ``ValueError``, and so does a
    grid too large for exact lifting in int64. The bands come out in
    the working width: int32 when the grid's peak magnitude and
    ``depth`` keep every lifted value inside it (see the module
    docstring), else int64.
    """
    grid = _integral_grid(samples)
    if grid.size == 0:
        raise ValueError("empty grid")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    peak = max(-int(grid.min()), int(grid.max()))
    cur = grid.astype(_lifting_dtype(peak, depth), copy=False)
    collected = []
    for _ in range(depth):
        ll, hl, lh, hh = _analyze2d(cur)
        collected.append((hl, lh, hh))
        cur = ll
    return CoefficientPyramid(ll=cur, details=tuple(reversed(collected)))


def inverse_53(pyramid: CoefficientPyramid) -> np.ndarray:
    """Synthesize a pyramid; the exact inverse of forward_53.

    A pyramid cut to its first ``r - 1`` detail levels synthesizes the
    image at resolution level ``r``: the deepest LL band alone is level
    1, and each detail level merged doubles (odd dims: ceil-doubles)
    the grid.
    """
    cur = _as_coeffs(pyramid.ll)
    for hl, lh, hh in pyramid.details:
        cur = _synthesize2d(cur, _as_coeffs(hl), _as_coeffs(lh), _as_coeffs(hh))
    return cur
