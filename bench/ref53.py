"""Plain-Python reference reader for one tile of an ``.ssc`` stream.

It shares no code with ``tilecast``. It reads the wire format as the
``codestream`` module docstring documents it (big-endian header and
table, base-128 varint tokens, zigzag literals, zero runs) and undoes
the LeGall 5/3 lifting steps one sample at a time:

    x[2n]   = s[n] - floor((d[n-1] + d[n] + 2) / 4)
    x[2n+1] = d[n] + floor((x[2n] + x[2n+2]) / 2)

with whole-sample symmetric extension (d[-1] = d[0], a missing
d[n] or x[2n+2] repeats its last neighbour). The forward transform runs
rows then columns, so synthesis runs columns then rows.
"""

from __future__ import annotations

import struct

HEADER = struct.Struct(">4sIIHHBBBI")


def read_segments(blob: bytes):
    """Header fields and {(tile, component, resolution): segment bytes}."""
    magic, width, height, tile_w, tile_h, levels, comps, max_res, count = (
        HEADER.unpack_from(blob)
    )
    if magic != b"SSC1":
        raise ValueError("bad magic")
    row_words = 1 + comps * max_res
    pos = HEADER.size
    rows = []
    for _ in range(count):
        rows.append(struct.unpack_from(f">{row_words}I", blob, pos))
        pos += 4 * row_words
    segments = {}
    for row in rows:
        for c in range(comps):
            for r in range(1, max_res + 1):
                length = row[1 + c * max_res + r - 1]
                segments[(row[0], c, r)] = blob[pos : pos + length]
                pos += length
    if pos != len(blob):
        raise ValueError("payload length differs from the table")
    header = dict(
        width=width, height=height, tile_w=tile_w, tile_h=tile_h,
        levels=levels, components=comps, max_resolution=max_res, tile_count=count,
    )
    return header, segments


def varints(buf: bytes) -> list[int]:
    out, value, shift = [], 0, 0
    for byte in buf:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            out.append(value)
            value, shift = 0, 0
    if shift:
        raise ValueError("truncated varint")
    return out


def coefficients(buf: bytes) -> list[int]:
    """Expand one segment's tokens: zigzag literals and zero runs."""
    tokens = varints(buf)
    out = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t == 0:
            out.extend([0] * tokens[i + 1])
            i += 2
        else:
            out.append(t // 2 if t % 2 == 0 else -(t + 1) // 2)
            i += 1
    return out


def split(n: int) -> tuple[int, int]:
    return (n + 1) // 2, n // 2


def inverse_1d(s: list[int], d: list[int]) -> list[int]:
    ns, nd = len(s), len(d)
    if nd == 0:
        return list(s)
    even = [s[k] - (d[max(k - 1, 0)] + d[min(k, nd - 1)] + 2) // 4 for k in range(ns)]
    out = []
    for k in range(ns):
        out.append(even[k])
        if k < nd:
            out.append(d[k] + (even[k] + even[min(k + 1, ns - 1)]) // 2)
    return out


def _columns(m: list[list[int]], width: int) -> list[list[int]]:
    return [[row[c] for row in m] for c in range(width)]


def synthesize(ll, hl, lh, hh, h: int, w: int) -> list[list[int]]:
    """One synthesis level back to an h x w grid (row-major lists)."""
    lw, hw = split(w)
    low_cols = [inverse_1d(a, b) for a, b in zip(_columns(ll, lw), _columns(lh, lw))]
    high_cols = [inverse_1d(a, b) for a, b in zip(_columns(hl, hw), _columns(hh, hw))]
    low = [[col[y] for col in low_cols] for y in range(h)]
    high = [[col[y] for col in high_cols] for y in range(h)]
    return [inverse_1d(low[y], high[y]) for y in range(h)]


def _rows(flat: list[int], h: int, w: int) -> list[list[int]]:
    return [flat[y * w : (y + 1) * w] for y in range(h)]


def decode_tile(blob: bytes, index: int, component: int, resolution: int) -> list[list[int]]:
    """8-bit samples of one tile component at a resolution level."""
    header, segments = read_segments(blob)
    cols = -(-header["width"] // header["tile_w"])
    row, col = divmod(index, cols)
    tw = min(header["tile_w"], header["width"] - col * header["tile_w"])
    th = min(header["tile_h"], header["height"] - row * header["tile_h"])
    # dims[j] is the grid size before the j-th analysis split
    dims = [(th, tw)]
    for _ in range(header["levels"] - 1):
        h, w = dims[-1]
        dims.append((split(h)[0], split(w)[0]))
    h, w = dims[-1]
    cur = _rows(coefficients(segments[(index, component, 1)]), h, w)
    for r in range(2, resolution + 1):
        h, w = dims[header["levels"] - r]
        (lh_, hh_), (lw, hw) = split(h), split(w)
        flat = coefficients(segments[(index, component, r)])
        sizes = [lh_ * hw, hh_ * lw, hh_ * hw]
        if len(flat) != sum(sizes):
            raise ValueError("segment holds the wrong number of coefficients")
        hl = _rows(flat[: sizes[0]], lh_, hw)
        lh = _rows(flat[sizes[0] : sizes[0] + sizes[1]], hh_, lw)
        hh = _rows(flat[sizes[0] + sizes[1] :], hh_, hw)
        cur = synthesize(cur, hl, lh, hh, h, w)
    return [[min(max(v + 128, 0), 255) for v in row] for row in cur]
