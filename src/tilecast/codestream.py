"""Scalable tile codestream: container, entropy coding, extraction.

Layout of the ``.ssc`` wire format (all integers big-endian):

    header   magic "SSC1" | width u32 | height u32 | tile_w u16 |
             tile_h u16 | levels u8 | components u8 |
             max_resolution u8 | tile_count u32
    table    per included tile: tile_index u32, then one
             segment_length u32 per (component, resolution 1..max_resolution)
    payload  the segments, concatenated in table order

A segment holds the subbands owned by one resolution level of one
tile/component: resolution 1 is the deepest LL band; resolution r >= 2
is HL, LH, HH at decomposition depth levels - r + 1, each band coded
as its own token stream. Tokens are base-128 varints (7 bits per byte,
little-endian groups, high bit = continuation): a zero token starts a
zero run and is followed by the run length (>= 1); any other token is
the zigzag code of one nonzero coefficient (2c for c >= 0, -2c-1 for
c < 0, always >= 1 for nonzero c). A tile-component's segments
1..r are adjacent in the payload, and that run is the unit of reading:
``Codestream.segments`` returns it, the encoder codes it in one pass,
and the decoder checks it in one pass, against the band sizes the
header implies and before it expands any run. Every run must end
inside its band, and every segment end, the last one included, obeys
one rule: it falls where a token ends, not after a zero-run
introducer, and closes exactly on its last band's coefficient count.

Because tiles, components and resolutions are byte-separable,
``extract`` builds sub-codestreams by copying each tile-component's
run of segments 1..r verbatim.
``measure`` gives the header and table ``encode`` would write (a
``CodestreamTable``) by counting token bytes instead of writing them.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import wavelet
from .raster import MAX_PIXELS, Image, TileGrid, tile_bounds

MAGIC = b"SSC1"
MAX_LEVELS = 8
_HEADER = struct.Struct(">4sIIHHBBBI")
_MAX_COEFF_TOKEN = 1 << 32  # zigzag codes beyond this are corrupt input


class CodestreamError(ValueError):
    """Invalid, inconsistent, or corrupt codestream data."""


# --- token primitives ---------------------------------------------------


def _varint_plane(values: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Varint bytes of ``values`` (all <= ``top``) as an (n, k) plane and a keep mask.

    Row i holds token i's base-128 groups, continuation bits set; its
    kept bytes, in row-major order, are the varint. The arithmetic runs
    in uint32 when ``top`` fits, else in uint64.
    """
    dtype = np.uint32 if top < 1 << 32 else np.uint64
    values = values.astype(dtype, copy=False)
    k = max(1, -(-top.bit_length() // 7))
    plane = np.empty((values.size, k), dtype=np.uint8)
    keep = np.empty((values.size, k), dtype=bool)
    keep[:, 0] = True
    for j in range(k):
        plane[:, j] = values >> dtype(7 * j)  # the cast keeps the low byte
        if j:
            keep[:, j] = values >= dtype(1 << 7 * j)
    plane &= 0x7F
    plane[:, :-1] |= keep[:, 1:].view(np.uint8) << 7
    return plane, keep


def encode_varints(values: np.ndarray) -> bytes:
    """Encode a uint64 array as concatenated base-128 varints."""
    values = np.asarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    plane, keep = _varint_plane(values, int(values.max()))
    return plane[keep].tobytes()


def _read_varints(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every varint in a uint8 array, and the offset each one starts at.

    The values are uint32 when no varint is longer than 4 bytes, else
    uint64. The caller has checked that the buffer ends on a token.
    """
    if data.size == 0:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.intp)
    cont = data >= 0x80
    # follows[k - 1][p]: the k bytes before p all continue one varint, so
    # p is byte k of a token that starts at p - k
    follows = []
    run = np.concatenate(([False], cont[:-1]))
    while run.any():
        if len(follows) == 4:
            raise CodestreamError("overlong varint (more than 5 bytes)")
        follows.append(run)
        run = np.concatenate(([False], run[:-1] & cont[:-1]))
    dtype = np.uint64 if len(follows) == 4 else np.uint32
    starts = np.flatnonzero(np.concatenate(([True], ~cont[:-1])))
    low = (data & 0x7F).astype(dtype)
    values = low[starts]
    for k, inside in enumerate(follows, start=1):
        # an index past the end clips to the last byte, which is not inside a token that short
        values |= np.take(low * inside, starts + k, mode="clip") << dtype(7 * k)
    return values, starts


def decode_varints(buf) -> np.ndarray:
    """Decode every varint in ``buf``; the buffer must end on a token."""
    data = np.frombuffer(buf, dtype=np.uint8)
    if data.size and data[-1] >= 0x80:
        raise CodestreamError("truncated varint at end of segment")
    return _read_varints(data)[0]


def encode_bands(bands) -> tuple[bytes, list[int]]:
    """Token streams of consecutive bands, written in one pass, and each one's length.

    The bytes are those of ``encode_band`` on each band in turn: a zero
    run stops at the end of its band.
    """
    sizes = [band.size for band in bands]
    if not sum(sizes):
        return b"", sizes
    flat = np.concatenate([np.ravel(band) for band in bands]).astype(np.int64, copy=False)
    zero = flat == 0
    # a coefficient heads a token group unless it is a zero after a zero of its band
    tail = np.zeros(flat.size, dtype=bool)
    tail[1:] = zero[1:] & zero[:-1]
    band_ends = np.cumsum(sizes)
    tail[band_ends[band_ends < flat.size]] = False
    heads = np.flatnonzero(~tail)
    runs = zero[heads]
    # a literal is one token, its zigzag code; a run is a zero then its length
    last = np.cumsum(runs + 1) - 1
    lit = flat[heads]
    spans = np.empty_like(heads)  # coefficients from each head to the next
    np.subtract(heads[1:], heads[:-1], out=spans[:-1])
    spans[-1] = flat.size - heads[-1]
    vals = np.where(runs, spans, (lit << 1) ^ (lit >> 63))
    top = int(vals.max())
    tokens = np.zeros(int(last[-1]) + 1, dtype=np.uint32 if top < 1 << 32 else np.uint64)
    tokens[last] = vals
    plane, keep = _varint_plane(tokens, top)
    # each band's tokens start at the token of its first head
    cuts = np.append(0, last + 1)[np.searchsorted(heads, np.append(0, band_ends))]
    lengths = [int(np.count_nonzero(keep[a:b])) for a, b in zip(cuts, cuts[1:])]
    return plane[keep].tobytes(), lengths


def encode_band(band: np.ndarray) -> bytes:
    """Token stream for one subband: zigzag literals and zero runs."""
    return encode_bands([np.asarray(band)])[0]


def _varint_extra(values: np.ndarray, first: int) -> int:
    """Continuation bytes over ``values``: one per threshold first * 128**k reached."""
    top = int(values.max(initial=0))
    extra = 0
    while first <= top:
        extra += int(np.count_nonzero(values >= first))
        first <<= 7
    return extra


def band_size(band: np.ndarray) -> int:
    """Bytes ``encode_band(band)`` writes, counted without writing them.

    A nonzero coefficient costs the varint length of its zigzag code; a
    zero run costs its zero token plus the varint length of the run.
    The arithmetic runs in the band's own width when that is signed.
    """
    flat = np.ravel(band)
    if flat.dtype.kind != "i":  # the sign shift below needs a signed width
        flat = flat.astype(np.int64)
    if flat.size == 0:
        return 0
    # zigzag(c) >> 1, so zigzag(c) >= 128**k exactly when this is >= 64 * 128**(k-1)
    half = flat >> 8 * flat.itemsize - 1
    half ^= flat
    zeros = np.flatnonzero(flat == 0)
    size = flat.size - zeros.size + _varint_extra(half, 64)
    # zeros[i] opens a run unless it directly follows zeros[i - 1]; the
    # extra True at the end closes the last run
    opens = np.ones(zeros.size + 1, dtype=bool)
    np.not_equal(zeros[1:], zeros[:-1] + 1, out=opens[1:-1])
    firsts = np.flatnonzero(opens)
    runs = firsts[1:] - firsts[:-1]
    return size + 2 * runs.size + _varint_extra(runs, 128)


def decode_bands(buf, counts: list[int], segments=None) -> list[np.ndarray]:
    """Decode back-to-back band token streams with known coefficient counts.

    ``segments`` lists the (byte length, band count) of each segment
    ``buf`` holds, in order; without it ``buf`` is one segment. The
    table must cover ``buf`` and ``counts`` exactly. Every segment end,
    the last one included, obeys one rule, so each segment decodes on
    its own: its bytes end on a token that is not a zero-run
    introducer, and its tokens expand to exactly its bands'
    coefficients. Every run is checked against the band sizes before
    any is expanded.
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    if segments is None:
        segments = [(data.size, len(counts))]
    # byte and band position of every segment end, after a leading 0
    at_byte, at_band = np.cumsum([(0, 0), *segments], axis=0).T
    covered = (at_byte[-1], at_band[-1]) == (data.size, len(counts))
    if not covered or min(map(min, segments), default=0) < 0:
        raise CodestreamError("segment table does not cover the buffer and band counts")
    if np.any(data[at_byte[at_byte > 0] - 1] >= 0x80):
        raise CodestreamError("truncated varint at end of segment")
    tokens, starts = _read_varints(data)
    at_token = np.searchsorted(starts, at_byte)
    is_zero = tokens == 0
    # every zero token starts a run, and the token after it is the run length
    is_runlen = np.zeros_like(is_zero)
    is_runlen[1:] = is_zero[:-1]
    if np.any(is_zero & is_runlen):
        raise CodestreamError("zero-length zero run")
    if np.any(is_zero[at_token[at_token > 0] - 1]):
        raise CodestreamError("dangling zero-run introducer")
    literal = ~(is_zero | is_runlen)
    if np.any(literal & (tokens >= _MAX_COEFF_TOKEN)):
        raise CodestreamError("coefficient token out of range")
    codes = tokens.astype(np.int64)
    # coefficients each token expands to: a literal 1, a run's zero its
    # length, the length itself none; ends[t] counts those of the first t
    ends = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(np.where(is_zero, np.append(codes[1:], 0), literal), out=ends[1:])
    bounds = np.cumsum([0, *counts])
    inner = bounds[bounds > 0]
    # each band must end where a literal or a run ends; the -1 stands past the last
    if np.any(np.append(ends, -1)[np.searchsorted(ends, inner)] != inner):
        raise CodestreamError("zero run crosses a band boundary or segment is short")
    got, want = ends[at_token], bounds[at_band]
    if np.any(got < want):
        raise CodestreamError("zero run crosses a band boundary or segment is short")
    if np.any(got > want):
        raise CodestreamError("trailing tokens after final band")
    values = (codes >> 1) ^ -(codes & 1)  # undo the zigzag; a zero stays zero
    coeffs = np.repeat(values, np.diff(ends))
    return [coeffs[a:b] for a, b in zip(bounds, bounds[1:])]


# --- container ----------------------------------------------------------


@dataclass(frozen=True)
class TileEntry:
    """Table row: a tile's segment lengths as [component][resolution-1]."""

    index: int
    seg_lengths: tuple[tuple[int, ...], ...]

    def total(self, max_resolution: int) -> int:
        return sum(sum(comp[:max_resolution]) for comp in self.seg_lengths)


@dataclass(frozen=True)
class CodestreamTable:
    """The header and table of a codestream: every segment's length, no bytes.

    ``measure`` builds one for an image without coding it; sizes, plans
    and tile lookups need nothing more.
    """

    width: int
    height: int
    tile_w: int
    tile_h: int
    levels: int
    components: int
    max_resolution: int
    entries: tuple[TileEntry, ...]

    @property
    def tile_count(self) -> int:
        return len(self.entries)

    @property
    def grid(self) -> TileGrid:
        return TileGrid.for_image(self.width, self.height, self.tile_w, self.tile_h)

    def entry_for(self, index: int) -> TileEntry:
        e = self._index_map.get(index)
        if e is None:
            raise CodestreamError(f"tile {index} not present in codestream")
        return e

    @cached_property
    def _index_map(self) -> dict[int, TileEntry]:
        return {e.index: e for e in self.entries}


@dataclass(frozen=True)
class Codestream(CodestreamTable):
    """A table plus its payload: the segments, concatenated in table order."""

    payload: bytes

    def segments(self, index: int, component: int, resolution: int) -> memoryview:
        """Segments 1..resolution of a tile-component: one run of the payload."""
        comps = self.entry_for(index).seg_lengths
        pos = self._tile_starts[index] + sum(map(sum, comps[:component]))
        return memoryview(self.payload)[pos : pos + sum(comps[component][:resolution])]

    @cached_property
    def _tile_starts(self) -> dict[int, int]:
        sizes = (e.total(self.max_resolution) for e in self.entries)
        return {e.index: pos for e, pos in zip(self.entries, accumulate(sizes, initial=0))}


def _low_sizes(n: int, levels: int) -> list[int]:
    """Low-pass length of an axis of ``n`` samples after 0..levels-1 splits."""
    sizes = [n]
    for _ in range(levels - 1):
        sizes.append(wavelet.split_dims(sizes[-1])[0])
    return sizes


def _band_shapes(tile_w: int, tile_h: int, levels: int):
    """Band shapes of one tile's segments: segs[r-1] -> list of (h, w)."""
    hs, ws = _low_sizes(tile_h, levels), _low_sizes(tile_w, levels)
    segs = [[(hs[-1], ws[-1])]]
    for d in range(levels - 2, -1, -1):  # the split of depth d + 1 is resolution levels - d
        lh, hh = wavelet.split_dims(hs[d])
        lw, hw = wavelet.split_dims(ws[d])
        segs.append([(lh, hw), (hh, lw), (hh, hw)])
    return segs


def resolution_size(cs: CodestreamTable, resolution: int) -> tuple[int, int]:
    """Width and height of ``assemble(cs, resolution)``.

    Every tile is halved on its own, so the image is the sum of the
    reduced tile sizes along one tile row and one tile column.
    """
    _check_resolution(cs, resolution)
    grid, depth = cs.grid, cs.levels - resolution
    widths = (tile_bounds(grid, col, cs.width, cs.height)[2] for col in range(grid.tiles_x))
    heights = (
        tile_bounds(grid, row * grid.tiles_x, cs.width, cs.height)[3]
        for row in range(grid.tiles_y)
    )
    return (
        sum(_low_sizes(w, cs.levels)[depth] for w in widths),
        sum(_low_sizes(h, cs.levels)[depth] for h in heights),
    )


def _tile_bands(img: Image, grid: TileGrid, levels: int):
    """Yield (tile index, bands[component][resolution - 1]) in wire order.

    This walk fixes the table order for both ``encode`` and ``measure``:
    tiles in raster order, then components, then resolutions, each
    resolution's bands in the order its segment holds them.
    """
    _check_header(**_header(img, grid, levels))
    if grid != TileGrid.for_image(img.width, img.height, grid.tile_w, grid.tile_h):
        raise ValueError("tile grid does not match image dimensions")

    for index in range(grid.tile_count):
        x, y, tw, th = tile_bounds(grid, index, img.width, img.height)
        comps = []
        for c in range(img.components):
            samples = np.subtract(img.pixels[y : y + th, x : x + tw, c], 128, dtype=np.int32)
            pyr = wavelet.forward_53(samples, levels - 1)
            # deepest details first == resolution 2 first
            comps.append([(pyr.ll,), *pyr.details])
        yield index, comps


def _check_header(
    width: int,
    height: int,
    tile_w: int,
    tile_h: int,
    levels: int,
    components: int,
    max_resolution: int,
) -> None:
    """The header rules every codestream obeys, whether coded or parsed."""
    if width < 1 or height < 1 or tile_w < 1 or tile_h < 1:
        raise CodestreamError("degenerate dimensions in header")
    if width * height > MAX_PIXELS:
        raise CodestreamError(f"image of {width}x{height} exceeds {MAX_PIXELS} pixels")
    if tile_w >= 1 << 16 or tile_h >= 1 << 16:
        raise CodestreamError("tile dimensions exceed u16")
    if not 1 <= levels <= MAX_LEVELS:
        raise CodestreamError(f"levels {levels} outside 1..{MAX_LEVELS}")
    if components not in (1, 3):
        raise CodestreamError(f"unsupported component count {components}")
    if not 1 <= max_resolution <= levels:
        raise CodestreamError(f"max_resolution {max_resolution} outside 1..{levels}")


def _header(img: Image, grid: TileGrid, levels: int) -> dict:
    return dict(
        width=img.width,
        height=img.height,
        tile_w=grid.tile_w,
        tile_h=grid.tile_h,
        levels=levels,
        components=img.components,
        max_resolution=levels,
    )


def encode(img: Image, grid: TileGrid, levels: int) -> Codestream:
    """Encode every tile of an image into a full codestream."""
    entries = []
    chunks = []
    for index, comps in _tile_bands(img, grid, levels):
        comp_lengths = []
        for segs in comps:
            # a component's segments are adjacent on the wire: code them in one pass
            coded, band_lengths = encode_bands([band for bands in segs for band in bands])
            cuts = np.cumsum([0, *(len(bands) for bands in segs)])
            comp_lengths.append(tuple(sum(band_lengths[a:b]) for a, b in zip(cuts, cuts[1:])))
            chunks.append(coded)
        entries.append(TileEntry(index=index, seg_lengths=tuple(comp_lengths)))
    return Codestream(
        **_header(img, grid, levels), entries=tuple(entries), payload=b"".join(chunks)
    )


def measure(img: Image, grid: TileGrid, levels: int) -> CodestreamTable:
    """The table ``encode`` would write, sized by ``band_size``, with no payload."""
    entries = [
        TileEntry(
            index=index,
            seg_lengths=tuple(
                tuple(sum(band_size(band) for band in bands) for bands in segs)
                for segs in comps
            ),
        )
        for index, comps in _tile_bands(img, grid, levels)
    ]
    return CodestreamTable(**_header(img, grid, levels), entries=tuple(entries))


def _check_indices(cs: CodestreamTable, indices) -> list[int]:
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise CodestreamError("duplicate tile indices")
    for i in indices:
        cs.entry_for(i)
    return indices


def _check_resolution(cs: CodestreamTable, resolution: int) -> None:
    if not 1 <= resolution <= cs.max_resolution:
        raise CodestreamError(
            f"resolution {resolution} not available (stream holds 1..{cs.max_resolution})"
        )


def decode(
    cs: Codestream, indices, resolution: int
) -> list[tuple[int, Image]]:
    """Decode tiles at a resolution level into 8-bit image tiles.

    Each tile is ``inverse_53`` of its pyramid cut to that level,
    DC-unshifted and clamped to [0, 255]; its dimensions follow the
    dyadic rule applied to the tile's clipped bounds.
    """
    indices = _check_indices(cs, indices)
    _check_resolution(cs, resolution)
    out = []
    for index in indices:
        _, _, tw, th = tile_bounds(cs.grid, index, cs.width, cs.height)
        shapes = _band_shapes(tw, th, cs.levels)[:resolution]
        flat_shapes = [shape for shp in shapes for shape in shp]
        counts = [h * w for h, w in flat_shapes]
        entry = cs.entry_for(index)
        planes = []
        for c in range(cs.components):
            bands = decode_bands(
                cs.segments(index, c, resolution),
                counts,
                segments=[(n, len(shp)) for n, shp in zip(entry.seg_lengths[c], shapes)],
            )
            ll, *details = [b.reshape(shape) for b, shape in zip(bands, flat_shapes)]
            details = tuple(tuple(details[i : i + 3]) for i in range(0, len(details), 3))
            rec = wavelet.inverse_53(wavelet.CoefficientPyramid(ll=ll, details=details))
            planes.append(np.clip(rec + 128, 0, 255).astype(np.uint8))
        out.append((index, Image(np.stack(planes, axis=-1))))
    return out


def extract(cs: Codestream, indices, resolution: int) -> Codestream:
    """Sub-codestream restricted to given tiles and resolution.

    Each tile-component's segments 1..resolution are copied verbatim as
    one slice; decoding the result equals decoding the same tiles from
    the source.
    """
    indices = _check_indices(cs, indices)
    if not indices:
        raise CodestreamError("extract requires at least one tile index")
    _check_resolution(cs, resolution)
    entries = []
    chunks = []
    for index in sorted(indices):
        comps = cs.entry_for(index).seg_lengths
        entries.append(TileEntry(index, tuple(comp[:resolution] for comp in comps)))
        chunks += (cs.segments(index, c, resolution) for c in range(cs.components))
    return dataclasses.replace(
        cs, max_resolution=resolution, entries=tuple(entries), payload=b"".join(chunks)
    )


def size_of(cs: CodestreamTable, indices, resolution: int) -> int:
    """Payload bytes of the selected tiles up to a resolution level.

    Counts segment bytes only; container header and table are excluded.
    """
    indices = _check_indices(cs, indices)
    _check_resolution(cs, resolution)
    return sum(cs.entry_for(i).total(resolution) for i in indices)


# --- serialization ------------------------------------------------------


def write_codestream(cs: Codestream, path=None) -> bytes:
    """Serialize to the .ssc wire format; optionally write to a file."""
    parts = [
        _HEADER.pack(
            MAGIC,
            cs.width,
            cs.height,
            cs.tile_w,
            cs.tile_h,
            cs.levels,
            cs.components,
            cs.max_resolution,
            cs.tile_count,
        )
    ]
    for e in cs.entries:
        row = [e.index]
        for comp in e.seg_lengths:
            row.extend(comp)
        parts.append(struct.pack(f">{len(row)}I", *row))
    parts.append(cs.payload)
    blob = b"".join(parts)
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(blob)
    return blob


def parse_codestream(src) -> Codestream:
    """Parse .ssc bytes (or a file path) with full table validation."""
    if isinstance(src, (bytes, bytearray, memoryview)):
        data = bytes(src)
    else:
        with open(src, "rb") as fh:
            data = fh.read()
    if len(data) >= 4 and data[:4] != MAGIC:
        raise CodestreamError("bad magic (not an SSC1 stream)")
    if len(data) < _HEADER.size:
        raise CodestreamError("truncated header")
    _, width, height, tile_w, tile_h, levels, components, max_res, tile_count = (
        _HEADER.unpack_from(data)
    )
    _check_header(width, height, tile_w, tile_h, levels, components, max_res)
    grid = TileGrid.for_image(width, height, tile_w, tile_h)
    if tile_count < 1 or tile_count > grid.tile_count:
        raise CodestreamError(
            f"tile_count {tile_count} outside 1..{grid.tile_count}"
        )

    row_words = 1 + components * max_res
    table_bytes = tile_count * row_words * 4
    pos = _HEADER.size
    if len(data) < pos + table_bytes:
        raise CodestreamError("truncated table")
    entries = []
    prev_index = -1
    payload_len = 0
    for _ in range(tile_count):
        row = struct.unpack_from(f">{row_words}I", data, pos)
        pos += row_words * 4
        index = row[0]
        if index >= grid.tile_count:
            raise CodestreamError(f"tile index {index} out of range")
        if index <= prev_index:
            raise CodestreamError("tile indices not strictly increasing")
        prev_index = index
        lengths = row[1:]
        comp_lengths = tuple(
            tuple(lengths[c * max_res : (c + 1) * max_res]) for c in range(components)
        )
        payload_len += sum(lengths)
        entries.append(TileEntry(index=index, seg_lengths=comp_lengths))
    remaining = len(data) - pos
    if remaining < payload_len:
        raise CodestreamError(
            f"payload shorter than declared ({remaining} < {payload_len})"
        )
    if remaining > payload_len:
        raise CodestreamError("trailing data after payload")
    return Codestream(
        width=width,
        height=height,
        tile_w=tile_w,
        tile_h=tile_h,
        levels=levels,
        components=components,
        max_resolution=max_res,
        entries=tuple(entries),
        payload=data[pos:],
    )


def assemble(cs: Codestream, resolution: int) -> Image:
    """Decode all tiles at a resolution and mosaic them into one image.

    Tiles are placed at the cumulative extents of the per-row/column
    tile dimensions at that resolution; at full resolution this
    reproduces the source image exactly.
    """
    grid = cs.grid
    indices = [e.index for e in cs.entries]
    if len(indices) != grid.tile_count:
        raise CodestreamError("assemble requires a codestream holding every tile")
    tiles = dict(decode(cs, indices, resolution))
    col_w = [tiles[col].width for col in range(grid.tiles_x)]
    row_h = [tiles[row * grid.tiles_x].height for row in range(grid.tiles_y)]
    x_off = np.concatenate([[0], np.cumsum(col_w)])
    y_off = np.concatenate([[0], np.cumsum(row_h)])
    canvas = np.zeros((int(y_off[-1]), int(x_off[-1]), cs.components), dtype=np.uint8)
    for index, tile in tiles.items():
        row, col = divmod(index, grid.tiles_x)
        canvas[
            y_off[row] : y_off[row] + tile.height,
            x_off[col] : x_off[col] + tile.width,
            :,
        ] = tile.pixels
    return Image(canvas)
