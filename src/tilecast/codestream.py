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
c < 0, always >= 1 for nonzero c). Every token is below 2**32 and both
sides work in uint32: the writer takes only integer bands within int32
(lifting keeps the codec's own below 129 * 4**7, about 2**21, at depth
7), and a run cannot outgrow its band; the reader refuses a larger token
where it reads it. A tile-component's segments 1..r are adjacent in the
payload, and that run is the unit of reading: ``_runs`` alone turns
segment lengths into runs, in one walk of the table in wire order, and
``extract`` builds sub-codestreams by copying each tile-component's run
verbatim, since tiles, components and resolutions are byte-separable.

Every header and table, however made, passes the checks of
``CodestreamTable``'s constructor: the header rules, at least one tile,
tile indices strictly increasing inside the grid, and one length in
0..2**32-1 per component and resolution. ``parse_codestream`` checks the
payload's length against the table, and reads header, table and
payload once each, in order, each only once the source holds it, so a
file's payload is held once.

The unit of a token pass is a batch: consecutive tile-components in
wire order, closed once it holds 2^16 coefficients (one 256x256
tile-component, which is always coded alone). Bands are coded
independently and runs stop at band ends, so a batch writes exactly the
bytes its tile-components would write one at a time, and small tiles
share the fixed cost of a pass. The bound keeps a pass's arrays to at
most 2^16 coefficients plus one tile-component, however many tiles an
image has. The unit of lifting is one tile shape within a batch: the
batch's tile-components of each size are lifted as one stack, each
exactly as it would be alone, so a 256x256 tile-component is lifted as a
stack of one and no stack outgrows its batch. The encoder codes a batch
in one ``encode_bands`` pass. ``measure`` gives the header and table
``encode`` would write (a ``CodestreamTable``) by walking the same
batches and counting their token bytes with one ``band_sizes`` pass
each. Both coders follow one run rule, found by ``_token_runs``, and
``encode_bands`` takes its lengths from ``band_sizes``' counting body,
so ``measure`` counts what ``encode`` writes.
The decoder walks the requested tiles' components in batches of
the same bound, counted at the decoded resolution. It joins a batch's
runs and checks them in one ``decode_bands`` pass, against the band
sizes the header implies and before it expands any run, and synthesizes
the batch one stack per tile size. Decoding stays in 32 bits from token
to pixel where the coefficients allow: ``decode_bands`` gives int32
bands, and ``inverse_53`` lifts each level in int32 unless the level's
measured peak could carry a value out of int32, which only literals far
beyond what lifting 8-bit samples makes can do. ``decode`` and ``assemble`` share
that walk and write each synthesized plane once, into its tile or
straight into the canvas, so decoding holds the output plus one batch.
Every run must end inside its band, and every segment end, the last one
included, obeys one rule: it falls where a token ends, not after a
zero-run introducer, and closes exactly on its last band's coefficient
count. A fault anywhere in a batch is therefore refused before anything
is allocated for it.
"""

from __future__ import annotations

import dataclasses
import io
import struct
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from . import wavelet
from .raster import MAX_PIXELS, Image, TileGrid, tile_bounds

MAGIC = b"SSC1"
MAX_LEVELS = 8
_HEADER = struct.Struct(">4sIIHHBBBI")
_BATCH_COEFFS = 1 << 16  # one 256x256 tile-component: a token pass closes here


class CodestreamError(ValueError):
    """Invalid, inconsistent, or corrupt codestream data."""


# --- token primitives ---------------------------------------------------


def _varint_bytes(values: np.ndarray) -> bytes:
    """uint32 ``values`` as concatenated base-128 varints.

    Row i of an (n, k) byte plane holds value i's groups, continuation
    bits set; its kept bytes, in row-major order, are the varint.
    """
    k = max(1, -(-int(values.max(initial=0)).bit_length() // 7))
    plane = np.empty((values.size, k), dtype=np.uint8)
    keep = np.empty((values.size, k), dtype=bool)
    keep[:, 0] = True
    for j in range(k):
        plane[:, j] = values >> np.uint32(7 * j)  # the cast keeps the low byte
        if j:
            keep[:, j] = values >= np.uint32(1 << 7 * j)
    plane &= 0x7F
    plane[:, :-1] |= keep[:, 1:].view(np.uint8) << 7
    return np.compress(keep.ravel(), plane.ravel()).tobytes()


def _read_varints(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every varint in a uint8 array, as uint32, and the offset each one starts at.

    A token longer than 5 bytes or of 2**32 or more is refused where it
    is read. The caller has checked that the buffer ends on a token.
    """
    if data.size == 0:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.intp)
    # a token starts at the first byte and after every byte without the continuation bit
    first = np.empty(data.size, dtype=bool)
    first[0] = True
    np.less(data[:-1], 0x80, out=first[1:])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=data.size)
    longest = int(lengths.max())
    if longest > 5:
        raise CodestreamError("overlong varint (more than 5 bytes)")
    values = np.bitwise_and(data[starts], 0x7F, dtype=np.uint32)
    for k in range(1, longest):
        # byte k of every token, zeroed where the token is shorter; an index past the end clips
        group = np.take(data[k:], starts, mode="clip")
        group &= 0x7F
        group *= lengths > k
        # a fifth byte holds bits 28 and up, so above 0x0F its token is 2**32 or more
        if k == 4 and np.any(group > 0x0F):
            raise CodestreamError("varint token of 2**32 or more")
        values |= np.left_shift(group, 7 * k, dtype=np.uint32)
    return values, starts


def _token_runs(bands):
    """The zero runs of consecutive bands, found once for both token coders.

    Returns the bands as one flat int32 array (a narrower integer band is
    widened; a band that is not integer, or leaves int32, is refused), the
    band cuts, the zeros' positions, and for each run the index in
    ``zeros`` of its first zero and its length. A run stops at the end of
    its band, so a band's first coefficient, if zero, opens one.
    """
    flats = [np.ravel(band) for band in bands]
    for f in flats:
        if f.dtype != np.int32 and (f.dtype.kind not in "iu" or f.size and not (
                -(1 << 31) <= f.min() and f.max() < 1 << 31)):
            raise CodestreamError(f"a band of {f.dtype} is not all integers within int32")
    cuts = np.cumsum([0, *(f.size for f in flats)])
    flat = np.concatenate(flats, dtype=np.int32) if flats else np.empty(0, dtype=np.int32)
    zeros = np.flatnonzero(flat == 0)
    # zeros[i] opens a run unless it directly follows zeros[i - 1] in its
    # band. The first zero at or after a band's start opens one either
    # way: it is the band's first coefficient or follows a nonzero. The
    # extra True at the end closes the last run.
    opens = np.ones(zeros.size + 1, dtype=bool)
    np.not_equal(zeros[1:], zeros[:-1] + 1, out=opens[1:-1])
    opens[np.searchsorted(zeros, cuts[:-1])] = True
    firsts = np.flatnonzero(opens)
    return flat, cuts, zeros, firsts[:-1], np.diff(firsts)


def encode_bands(bands) -> tuple[bytes, list[int]]:
    """Token streams of consecutive bands, written in one pass, and each one's length.

    The bytes are those of ``encode_band`` on each band in turn, written
    in uint32 from the runs ``_token_runs`` finds; the lengths are ``band_sizes``'.
    """
    flat, cuts, zeros, firsts, runs = _token_runs(bands)
    # the heads: every nonzero, and each run's first zero, whose zigzag code is the zero token
    inside = np.ones(zeros.size, dtype=bool)
    inside[firsts] = False
    heads = np.delete(flat, zeros[inside])
    # the zigzag code in int32's wrapping arithmetic, in place, read as uint32
    np.bitwise_xor(heads << 1, heads >> 31, out=heads)
    # run k's length goes after its zero token, which follows the nonzeros and k zero tokens before it
    after = zeros[firsts] - firsts + np.arange(1, firsts.size + 1)
    tokens = np.insert(heads.view(np.uint32), after, runs)
    return _varint_bytes(tokens), _token_sizes(flat, cuts, zeros, firsts, runs).tolist()


def encode_band(band: np.ndarray) -> bytes:
    """Token stream for one subband: zigzag literals and zero runs."""
    return encode_bands([np.asarray(band)])[0]


def _token_sizes(flat, cuts, zeros, firsts, runs) -> np.ndarray:
    """Each band's token bytes, counted in int32 from ``_token_runs``' output."""

    def per_band(positions: np.ndarray) -> np.ndarray:
        return np.diff(np.searchsorted(positions, cuts))

    sizes = np.diff(cuts) - per_band(zeros)
    # zigzag(c) >> 1, so zigzag(c) >= 128**k exactly when this is >= 64 * 128**(k-1)
    half = flat >> 31
    half ^= flat
    floor, top = 64, int(half.max(initial=0))
    spans = list(pairwise(cuts.tolist()))
    while floor <= top:
        # many literals pass the first threshold: count them in place, not by position
        over = half >= floor
        sizes += [np.count_nonzero(over[a:b]) for a, b in spans]
        floor <<= 7
    starts = zeros[firsts]
    sizes += 2 * per_band(starts)
    floor, top = 128, int(runs.max(initial=0))
    while floor <= top:
        sizes += per_band(starts[runs >= floor])
        floor <<= 7
    return sizes


def band_sizes(bands) -> list[int]:
    """Bytes ``encode_bands(bands)`` writes for each band, counted without writing them.

    A nonzero coefficient costs the varint length of its zigzag code; a
    zero run costs its zero token plus the varint length of the run.
    Each kind of byte is counted in one pass over all the bands and
    split at the band cuts: zeros and runs by the positions where they
    fall, literals' continuation bytes by slice, all in int32, as
    ``_token_runs`` gives the bands; it refuses the bands it refuses.
    """
    return _token_sizes(*_token_runs(bands)).tolist()


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

    The bands come back in int32, each a view of one array: tokens are
    read and un-zigzagged in uint32, so every literal is in int32's
    range; only the run lengths and their running sums, which a hostile
    stream can push past 2**32, are int64.
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
    if np.any(is_zero[1:] & is_zero[:-1]):
        raise CodestreamError("zero-length zero run")
    if np.any(is_zero[at_token[at_token > 0] - 1]):
        raise CodestreamError("dangling zero-run introducer")
    # coefficients each token expands to: a literal 1, a run's zero its
    # length, the length itself none; ends[t] counts those of the first t.
    # A run may be 2**32 - 1 long, so the counts and sums are int64.
    zeros = np.flatnonzero(is_zero)
    expand = np.ones(tokens.size, dtype=np.int64)
    expand[zeros] = tokens[zeros + 1]
    expand[zeros + 1] = 0
    ends = np.zeros(tokens.size + 1, dtype=np.int64)
    np.cumsum(expand, out=ends[1:])
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
    # undo the zigzag in uint32 and read the result as int32; a zero stays zero
    values = tokens >> 1
    values ^= -(tokens & 1)
    coeffs = np.repeat(values.view(np.int32), expand)
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

    def __post_init__(self):
        _check_header(self.width, self.height, self.tile_w, self.tile_h, self.levels,
                      self.components, self.max_resolution)
        if not self.entries:
            raise CodestreamError("a codestream holds at least one tile")
        # indices that rise and stay below the grid's count also bound the table's length
        count, prev, shape = self.grid.tile_count, -1, [self.max_resolution] * self.components
        for e in self.entries:
            if not (isinstance(e.index, int) and 0 <= e.index < count):
                raise CodestreamError(f"tile index {e.index!r} out of range 0..{count - 1}")
            if e.index <= prev:
                raise CodestreamError("tile indices not strictly increasing")
            prev = e.index
            if [len(comp) for comp in e.seg_lengths] != shape or not all(
                isinstance(n, int) and 0 <= n < 1 << 32 for comp in e.seg_lengths for n in comp
            ):
                raise CodestreamError(f"tile {e.index}: segment lengths are not {self.components}x"
                                      f"{self.max_resolution} non-negative ints below 2**32")

    @property
    def tile_count(self) -> int:
        return len(self.entries)

    @property
    def grid(self) -> TileGrid:
        return TileGrid.for_image(self.width, self.height, self.tile_w, self.tile_h)


@dataclass(frozen=True)
class Codestream(CodestreamTable):
    """A table plus its payload: the segments, concatenated in table order."""

    payload: bytes


def _low(n: int, splits: int) -> int:
    """Low-pass length of an axis of ``n`` samples after ``splits`` splits, ceil(n / 2**splits)."""
    return -(-n >> splits)


def _band_shapes(tile_w: int, tile_h: int, levels: int):
    """Band shapes of one tile's segments: segs[r-1] -> list of (h, w)."""
    segs = [[(_low(tile_h, levels - 1), _low(tile_w, levels - 1))]]
    for d in range(levels - 1, 0, -1):  # the split of depth d is resolution levels - d + 1
        lh, lw = _low(tile_h, d), _low(tile_w, d)
        hh, hw = _low(tile_h, d - 1) - lh, _low(tile_w, d - 1) - lw
        segs.append([(lh, hw), (hh, lw), (hh, hw)])
    return segs


def resolution_size(cs: CodestreamTable, resolution: int) -> tuple[int, int]:
    """Width and height of ``assemble(cs, resolution)``.

    Every tile is halved on its own. All but the last in a row or column
    are whole, so a tile's offset is its column (row) times the whole
    tile's reduced width (height); the image ends with the last tile.
    """
    _check_resolution(cs, resolution)
    grid = cs.grid
    _, _, w, h = tile_bounds(grid, grid.tile_count - 1)
    splits = cs.levels - resolution
    tw, th, last_w, last_h = (_low(n, splits) for n in (cs.tile_w, cs.tile_h, w, h))
    return (grid.tiles_x - 1) * tw + last_w, (grid.tiles_y - 1) * th + last_h


def _tile_components(img: Image, grid: TileGrid, levels: int):
    """Yield (tile index, component, tile bounds) in wire order.

    This walk fixes the table order for both ``encode`` and ``measure``:
    tiles in raster order, then components. Each tile-component's
    segments then follow in resolution order, each resolution's bands
    in the order its segment holds them.
    """
    _check_header(**_header(img, grid, levels))
    if (grid.width, grid.height) != (img.width, img.height):
        raise ValueError(f"tile grid for {grid.width}x{grid.height} does not match "
                         f"image dimensions {img.width}x{img.height}")
    for index in range(grid.tile_count):
        bounds = tile_bounds(grid, index)
        for c in range(img.components):
            yield index, c, bounds


def _shape_groups(sizes):
    """Positions of equal tile sizes, grouped by size in first-seen order.

    Each group of a batch is lifted as one stack.
    """
    groups: dict = {}
    for pos, size in enumerate(sizes):
        groups.setdefault(size, []).append(pos)
    return groups.items()


def _stack(arrays: list) -> np.ndarray:
    """``np.stack(arrays)``, but one array is viewed as a stack of one, not copied.

    Every 256x256 tile-component is alone in its batch, and copying its
    decoded bands took ~0.28 ms, about 7% of assembling the example scene.
    """
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)


def _lift_batch(img: Image, batch, levels: int) -> list:
    """bands[resolution - 1] of each tile-component of a batch, in batch order.

    The tile-components of one size are DC-shifted and lifted as one
    stack; member ``k`` of each band is that band of the ``k``-th of them.
    """
    segs = [None] * len(batch)
    for (tw, th), group in _shape_groups(bounds[2:] for _, _, bounds in batch):
        members = [batch[pos] for pos in group]
        stack = _stack([img.pixels[y : y + th, x : x + tw, c] for _, c, (x, y, _, _) in members])
        pyr = wavelet.forward_53(np.subtract(stack, 128, dtype=np.int32), levels - 1)
        for k, pos in enumerate(group):
            # deepest details first == resolution 2 first
            segs[pos] = [(pyr.ll[k],), *((hl[k], lh[k], hh[k]) for hl, lh, hh in pyr.details)]
    return segs


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


def _segment_sums(segs, band_lengths) -> tuple[int, ...]:
    """A tile-component's segment lengths from its bands' lengths, in wire order.

    ``band_lengths`` may be an iterator shared by consecutive
    tile-components: each takes as many lengths as it has bands.
    """
    lengths = iter(band_lengths)
    return tuple(sum(islice(lengths, len(bands))) for bands in segs)


def _batches(units, coefficients):
    """Split tile-components, in order, into the batches that share one token pass.

    A batch closes once it holds ``_BATCH_COEFFS``, and a
    tile-component that fills one by itself gets a batch of its own, so
    no pass covers more than ``_BATCH_COEFFS`` plus one
    tile-component's coefficients.
    """
    batch, held = [], 0
    for unit in units:
        n = coefficients(unit)
        if batch and n >= _BATCH_COEFFS:
            yield batch
            batch, held = [], 0
        batch.append(unit)
        held += n
        if held >= _BATCH_COEFFS:
            yield batch
            batch, held = [], 0
    if batch:
        yield batch


def _coded_entries(img: Image, grid: TileGrid, levels: int, coder) -> tuple[TileEntry, ...]:
    """The table of ``img``, its tile-components lifted and coded in batches.

    Each batch's tile-components are lifted one stack per tile size.
    ``coder(bands)`` codes the batch's bands, in wire order, in one pass
    and returns each band's length in bytes; the lengths are split back
    into each tile-component's segments.
    """
    seg_lengths: dict[int, list] = {}
    units = _tile_components(img, grid, levels)
    for batch in _batches(units, lambda unit: unit[2][2] * unit[2][3]):
        segs_of = _lift_batch(img, batch, levels)
        lengths = iter(coder([band for segs in segs_of for bands in segs for band in bands]))
        for (index, _, _), segs in zip(batch, segs_of):
            seg_lengths.setdefault(index, []).append(_segment_sums(segs, lengths))
    return tuple(TileEntry(index, tuple(comps)) for index, comps in seg_lengths.items())


def encode(img: Image, grid: TileGrid, levels: int) -> Codestream:
    """Encode every tile of an image into a full codestream.

    Consecutive tile-components are adjacent on the wire, so each batch
    of them is lifted with one ``forward_53`` call per tile size and
    written by one ``encode_bands`` pass into one buffer; ``getvalue``
    hands it over uncopied, so the payload is held once.
    """
    payload = io.BytesIO()

    def coder(bands):
        coded, band_lengths = encode_bands(bands)
        payload.write(coded)
        return band_lengths

    entries = _coded_entries(img, grid, levels, coder)
    return Codestream(**_header(img, grid, levels), entries=entries, payload=payload.getvalue())


def measure(img: Image, grid: TileGrid, levels: int) -> CodestreamTable:
    """The table ``encode`` would write, with no payload.

    It walks and lifts the tile-components in the same batches and
    stacks as ``encode`` and sizes each batch with one ``band_sizes``
    call, the counting twin of the ``encode_bands`` call that ``encode``
    makes.
    """
    entries = _coded_entries(img, grid, levels, band_sizes)
    return CodestreamTable(**_header(img, grid, levels), entries=entries)


def _check_indices(cs: CodestreamTable, indices) -> list[int]:
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise CodestreamError("duplicate tile indices")
    present = {e.index for e in cs.entries}
    for i in indices:
        if i not in present:
            raise CodestreamError(f"tile {i} not present in codestream")
    return indices


def _check_resolution(cs: CodestreamTable, resolution: int) -> None:
    if not 1 <= resolution <= cs.max_resolution:
        raise CodestreamError(
            f"resolution {resolution} not available (stream holds 1..{cs.max_resolution})"
        )


def _runs(cs: Codestream, indices, resolution: int):
    """Yield (tile index, component, segment lengths 1..resolution, run) of the given tiles.

    The one walk from segment lengths to payload positions: the table in
    wire order, with a running offset; a run is a ``memoryview`` slice.
    """
    wanted = set(indices)
    payload, pos = memoryview(cs.payload), 0
    for e in cs.entries:
        for c, comp in enumerate(e.seg_lengths):
            if e.index in wanted:
                lengths = comp[:resolution]
                yield e.index, c, lengths, payload[pos : pos + sum(lengths)]
            pos += sum(comp)


def _planes(cs: Codestream, indices, resolution: int):
    """Yield (tile index, component, 8-bit plane) of checked tiles at a resolution level.

    The given tiles' components are read in wire order, in batches that
    ``_batches`` closes on their coefficient count at that level: the
    batches ``encode`` uses only when every tile is read at full
    resolution. Each batch's runs of segments are decoded by one
    ``decode_bands`` call, which checks the whole batch before it
    expands any run. A tile-component is then ``inverse_53`` of its
    pyramid cut to that level, clamped to [-128, 127] and DC-unshifted, as
    one stack per tile size in a batch. A plane is a view of its stack,
    and a tile's planes come in component order.
    """
    grid = cs.grid
    units = []  # (tile index, component, tile size, segment lengths, run)
    shapes = {}  # tile size -> band shapes per segment
    for index, c, lengths, run in _runs(cs, indices, resolution):
        size = tile_bounds(grid, index)[2:]
        if size not in shapes:
            shapes[size] = _band_shapes(*size, cs.levels)[:resolution]
        units.append((index, c, size, lengths, run))
    band_counts = {size: [h * w for shp in segs for h, w in shp] for size, segs in shapes.items()}
    nbands = 3 * resolution - 2  # per tile-component
    for batch in _batches(units, lambda unit: sum(band_counts[unit[2]])):
        counts, segments = [], []
        for _, _, size, lengths, _ in batch:
            counts += band_counts[size]
            segments += ((n, len(shp)) for n, shp in zip(lengths, shapes[size]))
        bands = decode_bands(b"".join(unit[4] for unit in batch), counts, segments)
        for size, group in _shape_groups(unit[2] for unit in batch):
            ll, *details = [
                _stack([bands[pos * nbands + j] for pos in group]).reshape(len(group), *shape)
                for j, shape in enumerate(shape for shp in shapes[size] for shape in shp)
            ]
            details = tuple(tuple(details[i : i + 3]) for i in range(0, len(details), 3))
            rec = wavelet.inverse_53(wavelet.CoefficientPyramid(ll=ll, details=details))
            # clamp before the shift, which would wrap an int32 LL literal of 2**31 - 1
            rec = (np.clip(rec, -128, 127) + 128).astype(np.uint8)
            for k, pos in enumerate(group):
                yield *batch[pos][:2], rec[k]


def decode(cs: Codestream, indices, resolution: int) -> list[tuple[int, Image]]:
    """Decode tiles at a resolution level into 8-bit image tiles.

    Each plane ``_planes`` synthesizes is written once, into its tile's
    array, so the peak is the tiles plus one batch. A tile's size is the
    dyadic rule applied to its clipped bounds; tiles come back in the
    order of ``indices``.
    """
    indices = _check_indices(cs, indices)
    _check_resolution(cs, resolution)
    tiles = {}
    for index, c, plane in _planes(cs, indices, resolution):
        if c == 0:
            tiles[index] = np.empty((*plane.shape, cs.components), dtype=np.uint8)
        tiles[index][:, :, c] = plane
    return [(index, Image(tiles[index])) for index in indices]


def extract(cs: Codestream, indices, resolution: int) -> Codestream:
    """Sub-codestream restricted to given tiles and resolution.

    Each tile-component's segments 1..resolution are copied verbatim as
    one slice; decoding the result equals decoding the same tiles from
    the source.
    """
    indices = _check_indices(cs, indices)
    _check_resolution(cs, resolution)
    comps, chunks = {}, []
    for index, _, lengths, run in _runs(cs, indices, resolution):
        comps.setdefault(index, []).append(lengths)
        chunks.append(run)
    entries = tuple(TileEntry(index, tuple(lengths)) for index, lengths in comps.items())
    return dataclasses.replace(
        cs, max_resolution=resolution, entries=entries, payload=b"".join(chunks)
    )


def size_of(cs: CodestreamTable, indices, resolution: int) -> int:
    """Payload bytes of the selected tiles up to a resolution level.

    Counts segment bytes only; container header and table are excluded.
    """
    wanted = set(_check_indices(cs, indices))
    _check_resolution(cs, resolution)
    return sum(e.total(resolution) for e in cs.entries if e.index in wanted)


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
    """Parse .ssc bytes (or a file path) in one sequential read.

    The payload is one ``read`` of its declared length, not a read to
    the end, which a buffered file would join onto the table bytes it
    already holds: a second copy. A bytes-like source is read through a
    ``memoryview``, which copies only what it returns. A source that
    cannot report its size, such as a pipe, is read whole first.
    """
    if not isinstance(src, (bytes, bytearray, memoryview)):
        with open(src, "rb") as fh:
            if fh.seekable():
                size = fh.seek(0, io.SEEK_END)
                fh.seek(0)
                return _parse(fh.read, size)
            src = fh.read()
    view = memoryview(src).cast("B")

    def read(n):
        nonlocal view
        chunk, view = view[:n], view[n:]
        return bytes(chunk)

    return _parse(read, len(view))


def _parse(read, left) -> Codestream:
    """The codestream of ``left`` bytes that successive ``read(n)`` calls return."""
    head = read(_HEADER.size)
    if len(head) >= 4 and head[:4] != MAGIC:
        raise CodestreamError("bad magic (not an SSC1 stream)")
    if len(head) < _HEADER.size:
        raise CodestreamError("truncated header")
    _, *fields, components, max_res, tile_count = _HEADER.unpack(head)
    _check_header(*fields, components, max_res)
    row_words = 1 + components * max_res
    table_words = tile_count * row_words
    left -= _HEADER.size + 4 * table_words
    if left < 0:
        raise CodestreamError("truncated table")
    words = struct.unpack(f">{table_words}I", read(4 * table_words))
    entries = tuple(
        TileEntry(words[i], tuple(words[i + 1 + c * max_res : i + 1 + (c + 1) * max_res]
                                  for c in range(components)))
        for i in range(0, len(words), row_words)
    )
    payload_len = sum(e.total(max_res) for e in entries)
    if left < payload_len:
        raise CodestreamError(f"payload shorter than declared ({left} < {payload_len})")
    if left > payload_len:
        raise CodestreamError("trailing data after payload")
    return Codestream(*fields, components, max_res, entries, read(payload_len))


def assemble(cs: Codestream, resolution: int) -> Image:
    """Decode all tiles at a resolution and mosaic them into one image.

    Each plane ``_planes`` synthesizes is written once, straight into
    the canvas at the offset ``resolution_size`` states, so the peak is
    the canvas plus one batch. The tiles cover the canvas exactly, so it
    starts empty. At full resolution this reproduces the source image.
    """
    grid = cs.grid
    if len(cs.entries) != grid.tile_count:
        raise CodestreamError("assemble requires a codestream holding every tile")
    width, height = resolution_size(cs, resolution)
    splits = cs.levels - resolution
    tw, th = _low(cs.tile_w, splits), _low(cs.tile_h, splits)
    canvas = np.empty((height, width, cs.components), dtype=np.uint8)
    for index, c, plane in _planes(cs, range(grid.tile_count), resolution):
        row, col = divmod(index, grid.tiles_x)
        h, w = plane.shape
        canvas[row * th : row * th + h, col * tw : col * tw + w, c] = plane
    return Image(canvas)
