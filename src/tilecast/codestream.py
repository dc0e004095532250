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
c < 0, always >= 1 for nonzero c).

Because tiles, components and resolutions are byte-separable,
``extract`` builds sub-codestreams by copying segment bytes verbatim.
``measure`` gives the header and table ``encode`` would write (a
``CodestreamTable``) by counting token bytes instead of writing them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import wavelet
from .raster import Image, TileGrid, tile_bounds

MAGIC = b"SSC1"
MAX_LEVELS = 8
MAX_PIXELS = 1 << 26  # largest width * height coded or parsed (8192^2)
_HEADER = struct.Struct(">4sIIHHBBBI")
_MAX_COEFF_TOKEN = 1 << 32  # zigzag codes beyond this are corrupt input


class CodestreamError(ValueError):
    """Invalid, inconsistent, or corrupt codestream data."""


# --- token primitives ---------------------------------------------------


def zigzag(c: int) -> int:
    return 2 * c if c >= 0 else -2 * c - 1


def unzigzag(u: int) -> int:
    if u < 0:
        raise ValueError("zigzag codes are nonnegative")
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def encode_varints(values: np.ndarray) -> bytes:
    """Encode a uint64 array as concatenated base-128 varints."""
    values = np.asarray(values, dtype=np.uint64)
    n = values.size
    if n == 0:
        return b""
    nbytes = np.ones(n, dtype=np.int64)
    rest = values >> np.uint64(7)
    while rest.any():
        nbytes += (rest > 0).astype(np.int64)
        rest >>= np.uint64(7)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    max_len = int(nbytes.max())
    for k in range(max_len):
        sel = nbytes > k
        chunk = ((values[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[sel] - 1) > k
        chunk[cont] |= 0x80
        out[starts[sel] + k] = chunk
    return out.tobytes()


def decode_varints(buf) -> np.ndarray:
    """Decode every varint in ``buf``; the buffer must end on a token."""
    data = np.frombuffer(buf, dtype=np.uint8)
    if data.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (data & 0x80) == 0
    if not is_end[-1]:
        raise CodestreamError("truncated varint at end of segment")
    ends = np.flatnonzero(is_end)
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > 5:
        raise CodestreamError("overlong varint (more than 5 bytes)")
    values = np.zeros(ends.size, dtype=np.uint64)
    for k in range(max_len):
        sel = lengths > k
        values[sel] |= (data[starts[sel] + k] & np.uint64(0x7F)).astype(
            np.uint64
        ) << np.uint64(7 * k)
    return values


def encode_band(band: np.ndarray) -> bytes:
    """Token stream for one subband: zigzag literals and zero runs."""
    flat = np.ascontiguousarray(band, dtype=np.int64).ravel()
    if flat.size == 0:
        return b""
    zero = flat == 0
    padded = np.concatenate([[False], zero, [False]])
    run_starts = np.flatnonzero(padded[1:-1] & ~padded[:-2])
    run_ends = np.flatnonzero(padded[1:-1] & ~padded[2:])
    run_lengths = run_ends - run_starts + 1
    nz_pos = np.flatnonzero(~zero)

    positions = np.concatenate([nz_pos, run_starts])
    first_tok = np.concatenate(
        [
            np.where(flat[nz_pos] >= 0, 2 * flat[nz_pos], -2 * flat[nz_pos] - 1).astype(
                np.uint64
            ),
            np.zeros(run_starts.size, dtype=np.uint64),
        ]
    )
    is_run = np.concatenate(
        [np.zeros(nz_pos.size, dtype=bool), np.ones(run_starts.size, dtype=bool)]
    )
    order = np.argsort(positions, kind="stable")
    first_tok = first_tok[order]
    is_run = is_run[order]
    counts = np.where(is_run, 2, 1)
    offsets = np.cumsum(counts) - counts
    tokens = np.zeros(int(offsets[-1] + counts[-1]), dtype=np.uint64)
    tokens[offsets] = first_tok
    tokens[offsets[is_run] + 1] = run_lengths[np.argsort(run_starts, kind="stable")].astype(
        np.uint64
    )
    return encode_varints(tokens)


def _varint_extra(values: np.ndarray, first: int) -> int:
    """Continuation bytes over ``values``: one per threshold first * 128**k reached."""
    extra = 0
    while first < 1 << 63:
        count = int(np.count_nonzero(values >= first))
        if not count:
            break
        extra += count
        first <<= 7
    return extra


def band_size(band: np.ndarray) -> int:
    """Bytes ``encode_band(band)`` writes, counted without writing them.

    A nonzero coefficient costs the varint length of its zigzag code; a
    zero run costs its zero token plus the varint length of the run.
    """
    flat = np.ascontiguousarray(band, dtype=np.int64).ravel()
    if flat.size == 0:
        return 0
    zero = flat == 0
    # zigzag(c) >> 1, so zigzag(c) >= 128**k exactly when this is >= 64 * 128**(k-1)
    half = flat ^ (flat >> 63)
    size = flat.size - int(np.count_nonzero(zero)) + _varint_extra(half, 64)
    edges = np.flatnonzero(np.diff(zero, prepend=False, append=False))
    runs = edges[1::2] - edges[::2]
    return size + 2 * runs.size + _varint_extra(runs, 128)


def decode_bands(buf, counts: list[int]) -> list[np.ndarray]:
    """Decode back-to-back band token streams with known coefficient counts."""
    tokens = decode_varints(buf)
    n = tokens.size
    is_zero = tokens == 0
    preceded_by_zero = np.concatenate([[False], is_zero[:-1]])
    is_intro = is_zero & ~preceded_by_zero
    is_runlen = np.concatenate([[False], is_intro[:-1]])
    if np.any(is_zero & is_runlen):
        raise CodestreamError("zero-length zero run")
    if np.any(is_zero & ~is_intro):
        # a zero token right after a completed run's length
        raise CodestreamError("zero-length zero run")
    if n and is_intro[-1]:
        raise CodestreamError("dangling zero-run introducer")
    out_counts = np.where(is_runlen, 0, np.where(is_intro, 0, 1)).astype(np.int64)
    if is_intro.any():
        out_counts[is_intro] = tokens[np.flatnonzero(is_intro) + 1].astype(np.int64)
    literal = ~is_intro & ~is_runlen
    if np.any(tokens[literal] >= _MAX_COEFF_TOKEN):
        raise CodestreamError("coefficient token out of range")
    signed = tokens.astype(np.int64)
    values = np.where(signed % 2 == 0, signed // 2, -(signed + 1) // 2)
    values[~literal] = 0

    cumulative = np.cumsum(out_counts) if n else np.empty(0, dtype=np.int64)
    bands = []
    tok_pos = 0
    produced = 0
    for count in counts:
        if count == 0:
            bands.append(np.empty(0, dtype=np.int64))
            continue
        target = produced + count
        cut = int(np.searchsorted(cumulative, target, side="left"))
        if cut >= n or cumulative[cut] != target:
            raise CodestreamError("zero run crosses a band boundary or segment is short")
        if is_intro[cut]:
            cut += 1  # run length token belongs to this band
        piece_tokens = slice(tok_pos, cut + 1)
        coeffs = np.repeat(values[piece_tokens], out_counts[piece_tokens])
        bands.append(coeffs)
        tok_pos = cut + 1
        produced = target
    if tok_pos != n:
        raise CodestreamError("trailing tokens after final band")
    return bands


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
        e = self._index_map().get(index)
        if e is None:
            raise CodestreamError(f"tile {index} not present in codestream")
        return e

    def _index_map(self):
        m = getattr(self, "_cached_index_map", None)
        if m is None:
            m = {e.index: e for e in self.entries}
            object.__setattr__(self, "_cached_index_map", m)
        return m


@dataclass(frozen=True)
class Codestream(CodestreamTable):
    """A table plus its payload: the segments, concatenated in table order."""

    payload: bytes

    def _offset_map(self):
        m = getattr(self, "_cached_offsets", None)
        if m is None:
            m = {}
            pos = 0
            for e in self.entries:
                for c, comp in enumerate(e.seg_lengths):
                    for r, length in enumerate(comp, start=1):
                        m[(e.index, c, r)] = (pos, length)
                        pos += length
            object.__setattr__(self, "_cached_offsets", m)
        return m

    def segment(self, index: int, component: int, resolution: int) -> bytes:
        pos, length = self._offset_map()[(index, component, resolution)]
        return self.payload[pos : pos + length]


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
    if not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in 1..{MAX_LEVELS}, got {levels}")
    if img.components not in (1, 3):
        raise ValueError(f"unsupported component count {img.components}")
    if grid != TileGrid.for_image(img.width, img.height, grid.tile_w, grid.tile_h):
        raise ValueError("tile grid does not match image dimensions")
    if img.width * img.height > MAX_PIXELS:
        raise ValueError(f"image of {img.width}x{img.height} exceeds {MAX_PIXELS} pixels")
    if grid.tile_w >= 1 << 16 or grid.tile_h >= 1 << 16:
        raise ValueError("tile dimensions exceed u16")

    for index in range(grid.tile_count):
        x, y, tw, th = tile_bounds(grid, index, img.width, img.height)
        comps = []
        for c in range(img.components):
            samples = img.pixels[y : y + th, x : x + tw, c].astype(np.int64) - 128
            pyr = wavelet.forward_53(samples, levels - 1)
            # deepest details first == resolution 2 first
            comps.append([(pyr.ll,), *pyr.details])
        yield index, comps


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
            coded = [b"".join(encode_band(band) for band in bands) for bands in segs]
            comp_lengths.append(tuple(len(seg) for seg in coded))
            chunks.extend(coded)
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

    Each tile is the wavelet reconstruction at that level, DC-unshifted
    and clamped to [0, 255]; its dimensions follow the dyadic rule
    applied to the tile's clipped bounds.
    """
    indices = _check_indices(cs, indices)
    _check_resolution(cs, resolution)
    out = []
    for index in indices:
        _, _, tw, th = tile_bounds(cs.grid, index, cs.width, cs.height)
        shapes = _band_shapes(tw, th, cs.levels)
        planes = []
        for c in range(cs.components):
            ll = decode_bands(cs.segment(index, c, 1), [shapes[0][0][0] * shapes[0][0][1]])[
                0
            ].reshape(shapes[0][0])
            details = []
            for r in range(2, resolution + 1):
                shp = shapes[r - 1]
                bands = decode_bands(
                    cs.segment(index, c, r), [h * w for h, w in shp]
                )
                details.append(tuple(b.reshape(s) for b, s in zip(bands, shp)))
            pyr = wavelet.CoefficientPyramid(ll=ll, details=tuple(details))
            rec = wavelet.inverse_53(pyr)
            planes.append(np.clip(rec + 128, 0, 255).astype(np.uint8))
        out.append((index, Image(np.stack(planes, axis=-1))))
    return out


def extract(cs: Codestream, indices, resolution: int) -> Codestream:
    """Sub-codestream restricted to given tiles and resolution.

    Segment bytes are copied verbatim; decoding the result equals
    decoding the same tiles from the source.
    """
    indices = _check_indices(cs, indices)
    if not indices:
        raise CodestreamError("extract requires at least one tile index")
    _check_resolution(cs, resolution)
    entries = []
    chunks = []
    for index in sorted(indices):
        src = cs.entry_for(index)
        comp_lengths = []
        for c in range(cs.components):
            comp_lengths.append(tuple(src.seg_lengths[c][:resolution]))
            for r in range(1, resolution + 1):
                chunks.append(cs.segment(index, c, r))
        entries.append(TileEntry(index=index, seg_lengths=tuple(comp_lengths)))
    return Codestream(
        width=cs.width,
        height=cs.height,
        tile_w=cs.tile_w,
        tile_h=cs.tile_h,
        levels=cs.levels,
        components=cs.components,
        max_resolution=resolution,
        entries=tuple(entries),
        payload=b"".join(chunks),
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
    if width < 1 or height < 1 or tile_w < 1 or tile_h < 1:
        raise CodestreamError("degenerate dimensions in header")
    if width * height > MAX_PIXELS:
        raise CodestreamError(f"image of {width}x{height} exceeds {MAX_PIXELS} pixels")
    if not 1 <= levels <= MAX_LEVELS:
        raise CodestreamError(f"levels {levels} outside 1..{MAX_LEVELS}")
    if components not in (1, 3):
        raise CodestreamError(f"unsupported component count {components}")
    if not 1 <= max_res <= levels:
        raise CodestreamError(f"max_resolution {max_res} outside 1..{levels}")
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
