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
transform is exactly invertible on integer input.

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
    """floor((d[k-1] + d[k] + 2) / 4) for k in 0..ns-1, d mirrored at both ends."""
    edged = np.concatenate([d[..., :1], d, d[..., -1:]], axis=-1)
    return (edged[..., :ns] + edged[..., 1 : ns + 1] + 2) >> 2


def _predict_term(even: np.ndarray, nd: int) -> np.ndarray:
    """floor((even[k] + even[k+1]) / 2) for k in 0..nd-1, even mirrored at the end."""
    following = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    return (even[..., :nd] + following[..., :nd]) >> 1


def _analyze_last(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lifting pass along the last axis: returns (low, high)."""
    even = np.ascontiguousarray(a[..., 0::2])
    odd = np.ascontiguousarray(a[..., 1::2])
    ns, nd = even.shape[-1], odd.shape[-1]
    if nd == 0:
        return even, odd
    d = odd - _predict_term(even, nd)
    return even + _update_term(d, ns), d


def _synthesize_last(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Invert _analyze_last: interleave (low, high) back into samples."""
    ns, nd = s.shape[-1], d.shape[-1]
    if nd == 0:
        return s.copy()
    even = s - _update_term(d, ns)
    out = np.empty(s.shape[:-1] + (ns + nd,), dtype=s.dtype)
    out[..., 0::2] = even
    out[..., 1::2] = d + _predict_term(even, nd)
    return out


def _analyze2d(a: np.ndarray) -> tuple[Band, Band, Band, Band]:
    low, high = _analyze_last(a)
    ll_t, lh_t = _analyze_last(low.T)
    hl_t, hh_t = _analyze_last(high.T)
    return ll_t.T.copy(), hl_t.T.copy(), lh_t.T.copy(), hh_t.T.copy()


def _synthesize2d(ll: Band, hl: Band, lh: Band, hh: Band) -> np.ndarray:
    a, b = ll.shape
    c, d = hh.shape
    if hl.shape != (a, d) or lh.shape != (c, b) or not (0 <= a - c <= 1) or not (0 <= b - d <= 1):
        raise PyramidShapeError(
            f"inconsistent band shapes: LL{ll.shape} HL{hl.shape} LH{lh.shape} HH{hh.shape}"
        )
    low = _synthesize_last(ll.T, lh.T).T
    high = _synthesize_last(hl.T, hh.T).T
    return _synthesize_last(low, high)


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
    """Full synthesis; exact inverse of forward_53."""
    return reconstruct_at(pyramid, pyramid.levels)


def reconstruct_at(pyramid: CoefficientPyramid, resolution: int) -> np.ndarray:
    """Synthesize the LL image at a resolution level in 1..levels.

    Level 1 is the deepest LL band itself; level ``levels`` is the full
    reconstruction. Each step up doubles (odd dims: ceil-doubles) the
    grid.
    """
    if not 1 <= resolution <= pyramid.levels:
        raise ValueError(
            f"resolution {resolution} out of range 1..{pyramid.levels}"
        )
    cur = _as_coeffs(pyramid.ll)
    for hl, lh, hh in pyramid.details[: resolution - 1]:
        cur = _synthesize2d(cur, _as_coeffs(hl), _as_coeffs(lh), _as_coeffs(hh))
    return cur
