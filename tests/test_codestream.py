import collections
import dataclasses
import hashlib
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_wavelet as ref
from reference_tokens import (
    reference_decode_bands,
    reference_decode_segments,
    reference_encode_band,
    reference_varint_bytes,
    reference_varints,
)
from tilecast import codestream as cs
from tilecast import config, scenario
from tilecast.codestream import (
    Codestream,
    CodestreamError,
    CodestreamTable,
    band_sizes,
    decode,
    decode_bands,
    encode,
    encode_band,
    encode_bands,
    extract,
    measure,
    parse_codestream,
    size_of,
    tile_sizes,
    write_codestream,
)
from tilecast.raster import Image, TileGrid, generate_scene

EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "scenario.example.cfg")

# (length, SHA-256) of the .ssc bytes of the example scene and of the three
# acceptance inputs, pinned: a faster coder must write the same streams
EXAMPLE_SSC = (20_961_238, "c5cfee84e5be1b1a509c12abf51e3d2fb11fab0f33038a72bdd2782ac2f0b6b0")
ACCEPTANCE_SSC = (
    (535, "fb5c0b6516707760a0a358fa86daa22c29636ac72196fc511f0d9e01e677b7be"),
    (4_523_647, "710a608b8ff6c4782da3abf7c144937a5b2968b92601df31e341d805585c29fe"),
    (334_113, "97e74a91a3877c73b2f0ba3ea6b06289dc093f06ad5438393f0270e383821c30"),
)


def random_image(rng, max_side=120, comps=None):
    h = int(rng.integers(1, max_side))
    w = int(rng.integers(1, max_side))
    c = comps if comps is not None else int(rng.choice([1, 3]))
    return Image(rng.integers(0, 256, size=(h, w, c)).astype(np.uint8))


def test_band_wire_fixture():
    # literals are zigzag codes: -1 -> 1, 1 -> 2, -2 -> 3
    assert encode_band(np.array([-1, 1, -2])) == b"\x01\x02\x03"


def test_varint_hand_values():
    # the zigzag codes 300, 127 and 128, and a zero run of length 1
    assert encode_band(np.array([150])) == bytes([0xAC, 0x02])
    assert encode_band(np.array([-64])) == b"\x7f"
    assert encode_band(np.array([64])) == bytes([0x80, 0x01])
    assert encode_band(np.array([0])) == b"\x00\x01"
    assert reference_varint_bytes([300, 0, 127, 128]) == bytes([0xAC, 0x02, 0, 0x7F, 0x80, 0x01])


def _read_tokens(buf):
    return cs._read_varints(np.frombuffer(buf, dtype=np.uint8))[0].tolist()


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=50))
@example([0, 2**28 - 1, 2**28, 2**32 - 1])
@settings(max_examples=200)
def test_varint_round_trip(values):
    buf = cs._varint_bytes(np.array(values, dtype=np.uint32))
    assert buf == reference_varint_bytes(values)
    assert _read_tokens(buf) == values


@pytest.mark.parametrize("token", [2**32, 2**34, 2**35 - 1])
def test_read_varints_refuses_a_token_of_2_pow_32_or_more(token):
    # a 5-byte token whose last byte is above 0x0F, next to tokens that are fine
    with pytest.raises(CodestreamError, match=r"varint token of 2\*\*32 or more"):
        _read_tokens(reference_varint_bytes([1, token, 2**32 - 1]))


def test_varint_truncation_and_overlong():
    with pytest.raises(CodestreamError, match="truncated varint"):
        decode_bands(b"\x80", [1])
    with pytest.raises(CodestreamError, match="overlong"):
        decode_bands(b"\x80\x80\x80\x80\x80\x01", [1])


@given(st.one_of(
    st.binary(max_size=40),
    st.lists(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF]), max_size=40).map(bytes),
))
@settings(max_examples=500)
def test_decode_varints_agrees_with_reference(buf):
    try:
        want = reference_varints(buf)
    except CodestreamError:
        # decode_bands checks the segment end, then reads the tokens
        with pytest.raises(CodestreamError, match=r"truncated varint|overlong|2\*\*32 or more"):
            decode_bands(buf, [0])
        return
    assert _read_tokens(buf) == want.tolist()


def test_band_coding_round_trip_and_runs():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(0, 400))
        density = rng.random()
        band = rng.integers(-500, 500, size=n) * (rng.random(n) < density)
        enc = encode_band(band.astype(np.int64))
        out = decode_bands(enc, [n])[0]
        assert np.array_equal(out, band)


def test_band_decode_rejects_garbage():
    good = encode_band(np.array([1, 0, 0, 0, 5], dtype=np.int64))
    with pytest.raises(CodestreamError):
        decode_bands(good, [4])  # wrong coefficient count
    with pytest.raises(CodestreamError, match="zero-length zero run"):
        decode_bands(reference_varint_bytes([0, 0]), [1])
    with pytest.raises(CodestreamError, match="dangling"):
        decode_bands(reference_varint_bytes([2, 0]), [2])
    with pytest.raises(CodestreamError, match="trailing tokens"):
        decode_bands(reference_varint_bytes([2, 2]), [1])


def test_band_decode_checks_runs_before_expanding(monkeypatch):
    def no_expansion(*args, **kwargs):
        raise AssertionError("a zero run was expanded")

    monkeypatch.setattr(np, "repeat", no_expansion)
    # a run of 2**34 zeros is refused where its length is read
    with pytest.raises(CodestreamError, match=r"varint token of 2\*\*32 or more"):
        decode_bands(reference_varint_bytes([0, 2**34]), [4])
    bomb = reference_varint_bytes([0, 2**32 - 1])
    with pytest.raises(CodestreamError, match="crosses a band boundary or segment is short"):
        decode_bands(bomb, [4])
    straddle = reference_varint_bytes([0, 3])
    with pytest.raises(CodestreamError, match="crosses a band boundary"):
        decode_bands(straddle, [2, 1])


# zero runs at the varint length steps, and literals whose zigzag codes need 1-5 bytes
_RUN_LENGTHS = st.one_of(
    st.sampled_from([1, 2, 127, 128, 129, 16383, 16384, 16385]),
    st.integers(min_value=1, max_value=300),
)
_LITERALS = st.one_of(
    st.sampled_from([1, -1, 63, 64, -64, -65, 8191, 8192, -8192, -8193,
                     2**31 - 1, 2**31, -(2**31)]),
    st.integers(min_value=-(2**31), max_value=2**31).filter(bool),
)


def _within_int32(band):
    return not band.size or -(2**31) <= band.min() and band.max() < 2**31


def _assert_both_coders_refuse(band_list):
    with pytest.raises(CodestreamError, match="not all integers within int32"):
        band_sizes(band_list)
    with pytest.raises(CodestreamError, match="not all integers within int32"):
        encode_bands(band_list)
    with pytest.raises(CodestreamError, match="not all integers within int32"):
        encode_band(next(band for band in band_list if not _within_int32(band)))


@st.composite
def bands(draw, literals=_LITERALS):
    pieces = draw(st.lists(st.one_of(
        _RUN_LENGTHS.map(lambda n: np.zeros(n, dtype=np.int64)),
        st.lists(literals, min_size=1, max_size=8).map(
            lambda v: np.array(v, dtype=np.int64)),
    ), max_size=6))
    return np.concatenate([np.empty(0, dtype=np.int64), *pieces])


@given(bands())
@settings(max_examples=300)
def test_band_size_equals_encoded_length(band):
    if not _within_int32(band):
        _assert_both_coders_refuse([band])
        return
    assert band_sizes([band])[0] == len(encode_band(band))
    assert band_sizes([band.astype(np.int32)])[0] == band_sizes([band])[0]


@given(st.lists(bands(_LITERALS.filter(lambda c: c < 2**31)), max_size=4))
@settings(max_examples=200)
def test_band_round_trip_over_several_bands(band_list):
    buf = b"".join(encode_band(band) for band in band_list)
    got = decode_bands(buf, [band.size for band in band_list])
    assert len(got) == len(band_list)
    for out, band in zip(got, band_list):
        assert out.dtype == np.int32 and np.array_equal(out, band)


# literals either side of the 1-, 2- and 3-byte zigzag steps, in each band width
_STEP_LITERALS = st.sampled_from([1, -1, 63, -63, 64, -64, -65, 8191, -8191, 8192, -8192, -8193])
_TYPED_LITERALS = {
    np.int64: st.one_of(_STEP_LITERALS, _LITERALS),
    np.int32: st.one_of(_STEP_LITERALS, st.integers(-(2**31), 2**31 - 1).filter(bool)),
    np.uint8: st.one_of(st.sampled_from([1, 63, 64, 127, 128, 255]), st.integers(1, 255)),
}


@st.composite
def typed_bands(draw):
    """A band of int64, int32 or uint8 coefficients: zero runs and literals at the varint steps."""
    dtype = draw(st.sampled_from(list(_TYPED_LITERALS)))
    return draw(bands(_TYPED_LITERALS[dtype])).astype(dtype)


@given(st.lists(typed_bands(), max_size=6))
@example([np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int32)])
@example([np.array([5, 0], dtype=np.uint8), np.empty(0, dtype=np.int32),
          np.zeros(128, dtype=np.int64)])
@example([np.zeros(16384, dtype=np.int32), np.zeros(127, dtype=np.int32),
          np.array([0, 64, -8192])])
@settings(max_examples=150)
def test_band_sizes_equal_encode_bands_lengths(band_list):
    if not all(map(_within_int32, band_list)):
        _assert_both_coders_refuse(band_list)
        return
    # a zero run stops at each band's end, so bands that end and start
    # with zeros are where one count over all the bands can go wrong
    coded = encode_bands(band_list)
    assert band_sizes(band_list) == coded[1]
    # the lengths are band_sizes' own count: hold them to the bytes each band writes
    alone = [encode_band(band) for band in band_list]
    assert coded == (b"".join(alone), [len(b) for b in alone])
    # a coder that split one run into two would still round-trip
    assert alone == [reference_encode_band(band) for band in band_list]


# literals either side of int32's ends and beyond, up to +-2**40
_WIDE_LITERALS = st.one_of(
    st.sampled_from([2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**32, -(2**32), 2**40, -(2**40)]),
    st.integers(-(2**40), 2**40).filter(bool),
)


@st.composite
def any_bands(draw):
    """An int64 band with literals up to +-2**40, or a float band."""
    if draw(st.booleans()):
        return draw(bands(_WIDE_LITERALS))
    floats = st.one_of(st.sampled_from([0.0, 1.5, -2.7, 3.0]), st.floats(-(2.0**40), 2.0**40))
    return np.array(draw(st.lists(floats, max_size=8)), dtype=np.float64)


@given(st.lists(any_bands(), min_size=1, max_size=3))
@example([np.array([2**31])])
@example([np.array([2**40])])
@example([np.array([1.5, -2.7])])
@settings(max_examples=200)
def test_both_coders_refuse_a_band_or_it_decodes_exactly(band_list):
    # the writer's domain is the reader's: whatever either coder takes decodes as it was
    try:
        coded, lengths = encode_bands(band_list)
    except CodestreamError:
        with pytest.raises(CodestreamError):
            band_sizes(band_list)
        return
    assert band_sizes(band_list) == lengths
    got = decode_bands(coded, [band.size for band in band_list])
    for out, band in zip(got, band_list):
        assert np.array_equal(out, band)


# short token streams: zeros (run starts or zero-length runs), small
# literals or run lengths, and tokens at and beyond the 2**32 token ceiling
_TOKENS = st.lists(
    st.sampled_from([0, 0, 0, 1, 1, 2, 3, 6, 2**32 - 1, 2**32, 2**34]), max_size=8
)


@st.composite
def token_streams(draw):
    """Tokens and band counts, the counts mostly cutting what the tokens expand to."""
    tokens = draw(_TOKENS)
    total, i = 0, 0  # coefficients, reading a zero as a run start and anything else as a literal
    while i < len(tokens):
        if tokens[i] == 0 and i + 1 < len(tokens):
            total, i = total + tokens[i + 1], i + 2
        else:
            total, i = total + 1, i + 1
    if total > 64 or draw(st.booleans()) and draw(st.booleans()):
        return tokens, draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5]), max_size=5))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=4)))
    return tokens, np.diff([0, *cuts, total]).tolist()


@given(token_streams())
@settings(max_examples=500)
def test_decode_bands_agrees_with_reference(stream):
    tokens, counts = stream
    buf = reference_varint_bytes(tokens)
    try:
        want = reference_decode_bands(buf, counts)
    except CodestreamError:
        with pytest.raises(CodestreamError):
            decode_bands(buf, counts)
        return
    got = decode_bands(buf, counts)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.int32 and np.array_equal(a, b)


def _coded_segments(rng):
    """A buffer of 1-5 segments from ``encode_band``, its band counts and segment table.

    Segments hold 0-3 bands and bands 0-40 coefficients, so both can be empty.
    """
    chunks, counts, segments = [], [], []
    for _ in range(int(rng.integers(1, 6))):
        band_count = int(rng.integers(0, 4))
        seg = b""
        for _ in range(band_count):
            n = int(rng.integers(0, 41)) if rng.random() < 0.8 else 0
            band = rng.integers(-300, 300, size=n) * (rng.random(n) < rng.random())
            counts.append(n)
            seg += encode_band(band)
        chunks.append(seg)
        segments.append([len(seg), band_count])
    return bytearray(b"".join(chunks)), counts, segments


def test_segmented_decode_agrees_with_reference():
    # segment tables with bytes moved across a boundary, and flipped bytes
    rng = np.random.default_rng(14)
    outcomes = collections.Counter()
    for _ in range(3000):
        buf, counts, segments = _coded_segments(rng)
        if len(segments) > 1 and rng.random() < 0.6:
            i = int(rng.integers(0, len(segments) - 1))
            shift = int(rng.choice([-2, -1, 1, 2]))
            shift = min(max(shift, -segments[i][0]), segments[i + 1][0])
            segments[i][0] += shift
            segments[i + 1][0] -= shift
        if buf and rng.random() < 0.3:
            for _ in range(int(rng.integers(1, 3))):
                buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
        try:
            want = reference_decode_segments(bytes(buf), counts, segments)
        except CodestreamError:
            with pytest.raises(CodestreamError):
                decode_bands(bytes(buf), counts, segments)
            outcomes["refused"] += 1
            continue
        got = decode_bands(bytes(buf), counts, segments)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.int32 and np.array_equal(a, b)
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_decode_bands_refuses_a_segment_table_that_does_not_cover_the_buffer():
    head = encode_band(np.array([3, 0, 0, -1]))
    buf = head + encode_band(np.array([5]))
    n, m = len(head), len(buf) - len(head)
    bands = decode_bands(buf, [4, 1], [(n, 1), (m, 1)])
    assert [b.tolist() for b in bands] == [[3, 0, 0, -1], [5]]
    for counts, table in (
        ([4, 1], [(n, 1)]),  # the last segment left out
        ([4], [(n, 1)]),  # the bytes of a band the counts leave out
        ([4, 1, 0], [(n, 1), (m, 1)]),  # a band no segment holds
        ([4, 1], [(n, 1), (m + 1, 2), (-1, -1)]),  # adds up only through a negative entry
    ):
        with pytest.raises(CodestreamError, match="segment table does not cover"):
            decode_bands(buf, counts, table)


def test_decode_bands_applies_one_rule_to_every_segment_end():
    head = encode_band(np.array([3, 0, 0, -1]))
    n = len(head)
    faults = ((b"\x80", "truncated varint"), (b"\x00", "dangling"), (b"\x02", "trailing tokens"))
    for fault, message in faults:
        # the same fault at the end of the first segment and at the end of the last
        with pytest.raises(CodestreamError, match=message):
            decode_bands(head + fault + head, [4, 4], [(n + 1, 1), (n, 1)])
        with pytest.raises(CodestreamError, match=message):
            decode_bands(head + head + fault, [4, 4], [(n, 1), (n + 1, 1)])


def test_decode_refuses_a_byte_moved_between_segments():
    rng = np.random.default_rng(15)
    img = Image(rng.integers(0, 256, size=(40, 40, 1)).astype(np.uint8))
    stream = encode(img, TileGrid.for_image(40, 40, 40, 40), 3)
    (entry,) = stream.entries
    lengths = list(entry.seg_lengths[0])
    for r in range(len(lengths) - 1):
        for moved in (-1, 1):
            seg = list(lengths)
            seg[r] -= moved
            seg[r + 1] += moved
            shifted = dataclasses.replace(
                stream, entries=(dataclasses.replace(entry, seg_lengths=(tuple(seg),)),))
            # the table still adds up, so the stream parses
            back = parse_codestream(write_codestream(shifted))
            with pytest.raises(CodestreamError):
                decode(back, [0], 3)


def test_edge_literals_decode_like_the_reference_synthesis():
    # a parseable stream may carry literals up to +-2**31 (every token is below 2**32),
    # so synthesis must run wider than int32 however the encoder lifts
    rng = np.random.default_rng(16)
    w, h, levels = 11, 9, 3
    stream = encode(Image(np.zeros((h, w, 1), dtype=np.uint8)), TileGrid.for_image(w, h, w, h), levels)
    values = [-(2**31), -(2**31) + 1, 2**31 - 2, 2**31 - 1, -1, 0, 1]
    segs = [[rng.choice(values, size=shape) for shape in seg] for seg in cs._band_shapes(w, h, levels)]
    coded = [b"".join(encode_band(band) for band in seg) for seg in segs]
    (entry,) = stream.entries
    edged = dataclasses.replace(
        stream,
        entries=(dataclasses.replace(entry, seg_lengths=(tuple(map(len, coded)),)),),
        payload=b"".join(coded),
    )
    back = parse_codestream(write_codestream(edged))
    (want,), *details = [[band.tolist() for band in seg] for seg in segs]
    for resolution in range(1, levels + 1):
        if resolution > 1:
            want = ref.synthesize_2d(want, *details[resolution - 2])
        ((_, tile),) = decode(back, [0], resolution)
        assert tile.pixels[..., 0].tolist() == np.clip(np.array(want) + 128, 0, 255).tolist()
    assert max(abs(v) for row in want for v in row) > 2**32


def test_ll_literals_at_int32_ends_decode_at_resolution_1():
    # resolution 1 is the LL band itself, decoded in int32 and never
    # synthesized: it is clamped before the DC shift, which would wrap at 2**31 - 1
    w, h, levels = 6, 5, 3
    stream = encode(Image(np.zeros((h, w, 1), dtype=np.uint8)), TileGrid.for_image(w, h, w, h), levels)
    ((lh, lw),) = cs._band_shapes(w, h, levels)[0]
    ll = np.resize([2**31 - 1, -(2**31 - 1), 127, -128, 128, -129], lh * lw)
    coded = encode_band(ll)
    (entry,) = stream.entries
    lengths = (len(coded), *entry.seg_lengths[0][1:])
    edged = dataclasses.replace(
        stream,
        entries=(dataclasses.replace(entry, seg_lengths=(lengths,)),),
        payload=coded + stream.payload[entry.seg_lengths[0][0]:],
    )
    want = np.clip(ll + 128, 0, 255).tolist()
    ((_, tile),) = decode(parse_codestream(write_codestream(edged)), [0], 1)
    assert tile.pixels[..., 0].ravel().tolist() == want
    assert cs.assemble(edged, 1).pixels[..., 0].ravel().tolist() == want


def test_band_size_edge_cases():
    for band in (
        np.empty(0, dtype=np.int64),
        np.empty((0, 5), dtype=np.int64),
        np.zeros((128, 128), dtype=np.int64),
        np.zeros(16384, dtype=np.int64),
        np.array([7]),
        np.array([-(2**31)]),
        np.arange(-300, 300).reshape(20, 30),
        np.array([-(2**31), 2**31 - 1, 0, 0, -64, 63, 64, -65, 0], dtype=np.int32),
        np.array([0, 200, 255, 0, 0, 7], dtype=np.uint8),
        # runs longer than the band's own type can hold
        np.array([-128, *[0] * 300, 127, 0], dtype=np.int8),
        np.array([5, *[0] * 70_000, -(2**15)], dtype=np.int16),
    ):
        assert band_sizes([band])[0] == len(encode_band(band))
        assert encode_band(band) == reference_encode_band(band)
    # one past int32's range: its zigzag code would be 2**32, which no reader takes
    _assert_both_coders_refuse([np.array([2**31])])


def _assert_measure_matches_encode(img, grid, levels):
    """Check ``measure`` against ``encode`` and return the .ssc bytes."""
    table, stream = measure(img, grid, levels), encode(img, grid, levels)
    assert type(table) is CodestreamTable
    for field in ("width", "height", "tile_w", "tile_h", "levels", "components",
                  "max_resolution", "entries"):
        assert getattr(table, field) == getattr(stream, field), field
    return write_codestream(stream)


def test_measure_matches_encode_on_example_scene():
    cfg = config.parse_config(EXAMPLE_CFG)
    img, _ = scenario.load_scene(cfg)
    grid = TileGrid.for_image(img.width, img.height, cfg.tile_w, cfg.tile_h)
    blob = _assert_measure_matches_encode(img, grid, cfg.levels)
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == EXAMPLE_SSC


def test_measure_matches_encode_on_dense_scene():
    img, _ = generate_scene(11, 1024, 1024, 120)
    _assert_measure_matches_encode(img, TileGrid.for_image(1024, 1024, 256, 256), 5)


def test_measure_matches_encode_on_odd_tilings():
    rng = np.random.default_rng(12)
    digest = hashlib.sha256()
    for _ in range(80):
        img = random_image(rng)
        if rng.random() < 0.3:  # flat areas give long zero runs
            img = Image(img.pixels // 64 * 64)
        tw = int(rng.integers(1, img.width + 20))
        th = int(rng.integers(1, img.height + 20))
        grid = TileGrid.for_image(img.width, img.height, tw, th)
        digest.update(_assert_measure_matches_encode(img, grid, int(rng.integers(1, 6))))
    assert digest.hexdigest() == (
        "c32aa6f07a5d034b6048ebdae0e0041996324c5b453af21335e6fdc936529e61"
    )


def test_measure_matches_encode_at_deep_levels():
    # levels 6-8 split small odd tiles down to one sample and leave empty
    # bands; on the flat image every detail band is a single zero run, so
    # runs meet every band boundary
    rng = np.random.default_rng(13)
    for levels in (6, 7, 8):
        for comps in (1, 3):
            h, w = int(rng.integers(20, 45)), int(rng.integers(20, 45))
            noisy = Image(rng.integers(0, 256, size=(h, w, comps)).astype(np.uint8))
            flat = Image(np.full((h, w, comps), 77, dtype=np.uint8))
            for img in (noisy, flat):
                for tw, th in ((5, 7), (13, 3), (w, h)):
                    _assert_measure_matches_encode(img, TileGrid.for_image(w, h, tw, th), levels)


def _criterion_1_fixed_cases():
    """Criterion 1's two stated sizes, drawn as its test draws them.

    That test draws its 998 random case shapes first, then one image per
    case in order, so the fixed cases get the first two images.
    """
    rng = np.random.default_rng(1001)
    for _ in range(998):
        h = 13 + int((1024 - 13) * float(rng.random()) ** 8)
        w = 13 + int((1024 - 13) * float(rng.random()) ** 8)
        rng.choice([1, 3])
        rng.integers(1, 6)
        rng.integers(9, w + 17)
        rng.integers(9, h + 17)
    for h, w, c, levels, tw, th in ((13, 17, 1, 5, 5, 7), (1024, 1024, 3, 5, 256, 256)):
        img = Image(rng.integers(0, 256, size=(h, w, c)).astype(np.uint8))
        yield img, TileGrid.for_image(w, h, tw, th), levels


def _criterion_2_input():
    rng = np.random.default_rng(1002)
    img = Image(rng.integers(0, 256, size=(240, 320, 3)).astype(np.uint8))
    return img, TileGrid.for_image(320, 240, 48, 48), 5


@pytest.mark.parametrize("case, size, sha256", [(k, *pin) for k, pin in enumerate(ACCEPTANCE_SSC)])
def test_acceptance_inputs_encode_to_pinned_bytes(case, size, sha256):
    # criteria 1 and 2 check round trips, which a coder that changed its
    # bytes consistently on both sides would pass; these pins do not move
    img, grid, levels = [*_criterion_1_fixed_cases(), _criterion_2_input()][case]
    blob = write_codestream(encode(img, grid, levels))
    assert len(blob) == size
    assert hashlib.sha256(blob).hexdigest() == sha256


def test_measure_validates_like_encode():
    img = Image(np.zeros((8, 8), dtype=np.uint8))
    grid = TileGrid.for_image(8, 8, 4, 4)
    for bad in (0, cs.MAX_LEVELS + 1):
        with pytest.raises(ValueError, match="levels"):
            measure(img, grid, bad)
    with pytest.raises(ValueError, match="grid"):
        measure(img, TileGrid.for_image(16, 8, 4, 4), 2)


def test_encode_structure():
    img = Image(np.zeros((1024, 1024), dtype=np.uint8))
    grid = TileGrid.for_image(1024, 1024, 512, 512)
    stream = encode(img, grid, 5)
    assert stream.tile_count == 4
    assert stream.max_resolution == 5
    for e in stream.entries:
        assert len(e.seg_lengths) == 1
        assert len(e.seg_lengths[0]) == 5


def test_encode_is_deterministic():
    rng = np.random.default_rng(4)
    img = random_image(rng)
    grid = TileGrid.for_image(img.width, img.height, 48, 32)
    a = write_codestream(encode(img, grid, 3))
    b = write_codestream(encode(img, grid, 3))
    assert a == b


def test_constant_image_detail_segments_are_runs():
    img = Image(np.full((512, 512), 90, dtype=np.uint8))
    grid = TileGrid.for_image(512, 512, 512, 512)
    stream = encode(img, grid, 2)
    # three detail bands of 256x256 zeros: varint(0) + varint(65536) each
    assert size_of(stream, [0], 2) - size_of(stream, [0], 1) == 3 * 4


def test_lossless_round_trip_including_edge_tiles():
    rng = np.random.default_rng(5)
    for _ in range(40):
        img = random_image(rng)
        tw = int(rng.integers(1, img.width + 20))
        th = int(rng.integers(1, img.height + 20))
        levels = int(rng.integers(1, 6))
        grid = TileGrid.for_image(img.width, img.height, tw, th)
        stream = encode(img, grid, levels)
        assert cs.assemble(stream, levels) == img
        # at every resolution the mosaic is the decoded tiles, row by row
        for r in range(1, levels + 1):
            tiles = [tile.pixels for _, tile in decode(stream, range(grid.tile_count), r)]
            n = grid.tiles_x
            rows = [np.concatenate(tiles[i : i + n], axis=1) for i in range(0, len(tiles), n)]
            mosaic = cs.assemble(stream, r)
            assert (mosaic.width, mosaic.height) == cs.resolution_size(stream, r)
            assert mosaic == Image(np.concatenate(rows))


def _traced_excess(run, output_bytes):
    """``tracemalloc`` peak of ``run()`` less ``output_bytes`` of what it returns."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - output_bytes(out)


def test_writing_a_256_square_tile_component_peaks_below_2_5_mb():
    # the example scene's top-left 256^2 tile-component at depth 4, 256 KiB
    # in int32: widening it to int64 and building full-length token
    # arrays around it peaks near 5 MB
    cfg = config.parse_config(EXAMPLE_CFG)
    img, _ = scenario.load_scene(cfg)
    (bands,) = cs._lift_batch(img, [(0, 0, (0, 0, 256, 256))], cfg.levels)
    assert bands[0].dtype == np.int32 and sum(band.size for band in bands) == 256 * 256
    assert _traced_peak(lambda: encode_bands(bands)) <= 2.5e6


def test_decoding_a_256_square_tile_component_peaks_below_the_int64_decoder():
    # the writer test's tile-component, 110,812 bytes of tokens: the
    # decoder that widened every token and coefficient to int64 peaked at
    # 3,641,740 B here (2,526,398 B in int32)
    cfg = config.parse_config(EXAMPLE_CFG)
    img, _ = scenario.load_scene(cfg)
    (bands,) = cs._lift_batch(img, [(0, 0, (0, 0, 256, 256))], cfg.levels)
    buf, _ = encode_bands(bands)
    counts = [band.size for band in bands]
    assert len(buf) == 110_812
    assert _traced_peak(lambda: decode_bands(buf, counts)) < 3_641_740
    for got, band in zip(decode_bands(buf, counts), bands, strict=True):
        assert got.dtype == np.int32 and np.array_equal(got, band.ravel())


def test_decoding_holds_the_output_plus_one_batch():
    # below ~1.5 Mpx RGB one batch's working set (~4.4 MB) outweighs the
    # output, so only a large image shows whether the output is held twice;
    # encode's output is its payload, held once
    img, _ = generate_scene(3, 2048, 2048, 40)
    stream = encode(img, TileGrid.for_image(2048, 2048, 256, 256), 5)
    assembled = _traced_excess(lambda: cs.assemble(stream, 5), lambda out: out.pixels.nbytes)
    decoded = _traced_excess(
        lambda: decode(stream, range(stream.tile_count), 5),
        lambda out: sum(tile.pixels.nbytes for _, tile in out),
    )
    encoded = _traced_excess(
        lambda: encode(img, TileGrid.for_image(2048, 2048, 256, 256), 5),
        lambda out: len(out.payload),
    )
    assert assembled <= 8_000_000
    assert decoded <= 8_000_000
    assert encoded <= 8_000_000


def test_decode_dimensions_follow_dyadic_rule():
    img = Image(np.zeros((512, 512), dtype=np.uint8))
    grid = TileGrid.for_image(512, 512, 512, 512)
    stream = encode(img, grid, 5)
    (_, tile), = decode(stream, [0], 1)
    assert (tile.width, tile.height) == (32, 32)


def test_decode_missing_tile_and_bad_resolution():
    img = Image(np.zeros((64, 64), dtype=np.uint8))
    grid = TileGrid.for_image(64, 64, 32, 32)
    stream = encode(img, grid, 3)
    with pytest.raises(CodestreamError, match="tile 9"):
        decode(stream, [9], 1)
    with pytest.raises(CodestreamError, match="resolution 4"):
        decode(stream, [0], 4)
    sub = extract(stream, [1, 2], 2)
    with pytest.raises(CodestreamError, match="tile 0"):
        decode(sub, [0], 1)


def test_extract_identity_and_transparency():
    rng = np.random.default_rng(6)
    img = random_image(rng, comps=3)
    grid = TileGrid.for_image(img.width, img.height, 40, 40)
    stream = encode(img, grid, 4)
    all_idx = list(range(grid.tile_count))
    assert extract(stream, all_idx, 4).payload == stream.payload
    for _ in range(40):
        k = int(rng.integers(1, grid.tile_count + 1))
        subset = sorted(rng.choice(all_idx, size=k, replace=False).tolist())
        r = int(rng.integers(1, 5))
        sub = extract(stream, subset, r)
        assert parse_codestream(write_codestream(sub)) == sub
        got = decode(sub, subset, r)
        want = decode(stream, subset, r)
        assert [(i, t) for i, t in got] == [(i, t) for i, t in want]


def test_extract_from_an_extracted_stream():
    # a sub-stream holds max_resolution < levels segments per tile-component,
    # and reading it again must still find each tile-component's run
    rng = np.random.default_rng(17)
    img = Image(rng.integers(0, 256, size=(70, 90, 3)).astype(np.uint8))
    stream = encode(img, TileGrid.for_image(90, 70, 32, 32), 4)
    subset = [1, 2, 4, 7]
    sub = extract(stream, subset, 3)
    assert sub.max_resolution == 3 < sub.levels
    for picked in (subset, [2, 7]):
        for r in range(1, 4):
            again = extract(sub, picked, r)
            assert parse_codestream(write_codestream(again)) == again
            want = decode(stream, picked, r)
            assert decode(sub, picked, r) == want
            assert decode(again, picked, r) == want


def test_extract_validation():
    img = Image(np.zeros((64, 64), dtype=np.uint8))
    grid = TileGrid.for_image(64, 64, 32, 32)
    stream = encode(img, grid, 3)
    with pytest.raises(CodestreamError, match="at least one"):
        extract(stream, [], 2)
    with pytest.raises(CodestreamError, match="duplicate"):
        extract(stream, [1, 1], 2)
    with pytest.raises(CodestreamError, match="not present"):
        extract(stream, [7], 2)
    sub = extract(stream, [0], 2)
    with pytest.raises(CodestreamError, match="resolution 3"):
        extract(sub, [0], 3)


def test_size_monotone_and_total():
    rng = np.random.default_rng(9)
    img = random_image(rng)
    grid = TileGrid.for_image(img.width, img.height, 16, 24)
    stream = encode(img, grid, 5)
    all_idx = list(range(grid.tile_count))
    assert size_of(stream, all_idx, 5) == len(stream.payload)
    for t in all_idx:
        sizes = [size_of(stream, [t], r) for r in range(1, 6)]
        assert sizes == sorted(sizes)


def _odd_tilings():
    """The images, tile grids and depths of ``test_measure_matches_encode_on_odd_tilings``."""
    rng = np.random.default_rng(12)
    for _ in range(80):
        img = random_image(rng)
        if rng.random() < 0.3:
            img = Image(img.pixels // 64 * 64)
        tw = int(rng.integers(1, img.width + 20))
        th = int(rng.integers(1, img.height + 20))
        yield img, TileGrid.for_image(img.width, img.height, tw, th), int(rng.integers(1, 6))


def _assert_tile_sizes_hold(stream):
    """Each row of ``tile_sizes`` is ``size_of`` of its tile, rising, and the payload sums."""
    sizes = tile_sizes(stream)
    assert len(sizes) == stream.tile_count
    for e, row in zip(stream.entries, sizes):
        assert row == [size_of(stream, [e.index], r) for r in range(1, stream.max_resolution + 1)]
        assert row == sorted(row)
    assert sum(row[-1] for row in sizes) == len(stream.payload)


def test_tile_sizes_agree_with_size_of_on_odd_tilings():
    for img, grid, levels in _odd_tilings():
        _assert_tile_sizes_hold(encode(img, grid, levels))


def test_tile_sizes_agree_with_size_of_on_an_extracted_stream():
    rng = np.random.default_rng(14)
    img = random_image(rng, comps=3)
    stream = encode(img, TileGrid.for_image(img.width, img.height, 17, 23), 4)
    picked = sorted(rng.choice(stream.tile_count, size=(stream.tile_count + 1) // 2,
                               replace=False).tolist())
    sub = extract(stream, picked, 3)
    _assert_tile_sizes_hold(sub)
    # rows come in the order the tiles are asked for, each cut at the sub-stream's depth
    assert tile_sizes(sub, picked[::-1]) == [row[:3] for row in tile_sizes(stream, picked[::-1])]
    with pytest.raises(CodestreamError, match="duplicate tile indices"):
        tile_sizes(sub, [picked[0], picked[0]])


def test_wire_round_trip_bit_exact():
    rng = np.random.default_rng(10)
    img = random_image(rng)
    grid = TileGrid.for_image(img.width, img.height, 33, 57)
    stream = encode(img, grid, 4)
    blob = write_codestream(stream)
    back = parse_codestream(blob)
    assert back == stream
    assert write_codestream(back) == blob


def test_parse_diagnostics():
    img = Image(np.zeros((64, 64), dtype=np.uint8))
    grid = TileGrid.for_image(64, 64, 32, 32)
    blob = write_codestream(encode(img, grid, 2))
    with pytest.raises(CodestreamError, match="bad magic"):
        parse_codestream(b"JUNK" + blob[4:])
    with pytest.raises(CodestreamError, match="truncated header"):
        parse_codestream(blob[:10])
    with pytest.raises(CodestreamError, match="truncated table"):
        parse_codestream(blob[:30])
    with pytest.raises(CodestreamError, match="shorter than declared"):
        parse_codestream(blob[:-1])
    with pytest.raises(CodestreamError, match="trailing data"):
        parse_codestream(blob + b"\x00")


def test_write_refuses_a_payload_four_bytes_longer_than_its_table():
    stream = _small_stream()
    n = len(stream.payload)
    with pytest.raises(CodestreamError, match=f"payload of {n + 4} bytes, the table declares {n}$"):
        write_codestream(dataclasses.replace(stream, payload=stream.payload + b"junk"))


def test_write_refuses_a_payload_one_byte_shorter_than_its_table(tmp_path):
    stream = _small_stream()
    n = len(stream.payload)
    path = tmp_path / "short.ssc"
    with pytest.raises(CodestreamError, match=f"payload of {n - 1} bytes, the table declares {n}$"):
        write_codestream(dataclasses.replace(stream, payload=stream.payload[:-1]), path)
    assert not path.exists()


def test_parse_rejects_non_increasing_indices():
    img = Image(np.zeros((64, 64), dtype=np.uint8))
    grid = TileGrid.for_image(64, 64, 32, 32)
    blob = bytearray(write_codestream(encode(img, grid, 1)))
    # no Codestream holds such a table, so swap the first two serialized rows
    row, at = 4 * 2, cs._HEADER.size  # a tile index and one segment length
    blob[at : at + 2 * row] = blob[at + row : at + 2 * row] + blob[at : at + row]
    with pytest.raises(CodestreamError, match="strictly increasing"):
        parse_codestream(bytes(blob))


def _parsed(src):
    """``parse_codestream(src)``, or the message of the ``CodestreamError`` it raises."""
    try:
        return parse_codestream(src)
    except CodestreamError as err:
        return str(err)


def test_parser_totality_fuzz(tmp_path):
    # random mutations of a valid stream either parse+decode or raise
    # CodestreamError; nothing else escapes, and bytes and a file agree
    rng = np.random.default_rng(123)
    img = Image(rng.integers(0, 256, size=(50, 70, 1)).astype(np.uint8))
    grid = TileGrid.for_image(70, 50, 32, 32)
    blob = bytearray(write_codestream(encode(img, grid, 3)))
    path = tmp_path / "mutated.ssc"
    for trial in range(400):
        mutated = bytearray(blob)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(0, len(mutated)))
            mutated[pos] = int(rng.integers(0, 256))
        if rng.random() < 0.3:
            mutated = mutated[: int(rng.integers(0, len(mutated)))]
        path.write_bytes(mutated)
        stream = _parsed(bytes(mutated))
        assert _parsed(path) == stream
        if isinstance(stream, Codestream):
            try:
                decode(stream, [e.index for e in stream.entries], stream.max_resolution)
            except CodestreamError:
                pass


def test_parse_reads_a_pipe_whole(tmp_path):
    # a pipe cannot report its size, so it is read whole before parsing
    rng = np.random.default_rng(22)
    img = Image(rng.integers(0, 256, size=(30, 40, 3)).astype(np.uint8))
    blob = write_codestream(encode(img, TileGrid.for_image(40, 30, 16, 16), 3))
    fifo = tmp_path / "stream.ssc"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
    writer.start()
    try:
        assert parse_codestream(fifo) == parse_codestream(blob)
    finally:
        writer.join(timeout=10)


# --- one checked way into a codestream --------------------------------------


def _small_stream():
    """A 64x64 one-component stream of four 32x32 tiles at 2 levels."""
    rng = np.random.default_rng(23)
    img = Image(rng.integers(0, 256, size=(64, 64, 1)).astype(np.uint8))
    return encode(img, TileGrid.for_image(64, 64, 32, 32), 2)


def _bad_tables(stream):
    """(entries, message) of tables that no codestream with ``stream``'s header may hold."""
    e0, e1, *rest = stream.entries
    (low, high), = e0.seg_lengths
    return [
        ((e0, e1, *rest[:-1], dataclasses.replace(rest[-1], index=99)), "tile index 99 out of range"),
        ((dataclasses.replace(e0, index=-1), e1, *rest), "tile index -1 out of range"),
        ((e0, dataclasses.replace(e1, index=e0.index), *rest), "strictly increasing"),
        ((e1, e0, *rest), "strictly increasing"),
        ((dataclasses.replace(e0, seg_lengths=((low,),)), e1, *rest), "not 1x2 non-negative"),
        ((dataclasses.replace(e0, seg_lengths=((low, high), (low, high))), e1, *rest), "not 1x2"),
        ((dataclasses.replace(e0, seg_lengths=((low, -1),)), e1, *rest), "not 1x2 non-negative"),
        ((dataclasses.replace(e0, seg_lengths=((low, 1.5),)), e1, *rest), "not 1x2 non-negative"),
        ((), "at least one tile"),
    ]


def test_direct_construction_refuses_a_bad_table():
    stream = _small_stream()
    header = {f.name: getattr(stream, f.name) for f in dataclasses.fields(CodestreamTable)}
    del header["entries"]
    for entries, message in _bad_tables(stream):
        with pytest.raises(CodestreamError, match=message):
            CodestreamTable(**header, entries=entries)
        with pytest.raises(CodestreamError, match=message):
            Codestream(**header, entries=entries, payload=stream.payload)
    with pytest.raises(CodestreamError, match="levels 9"):
        CodestreamTable(**{**header, "levels": 9}, entries=stream.entries)
    # a length no u32 holds: unchecked, write_codestream raised struct.error on it
    e0, *rest = stream.entries
    wide = (dataclasses.replace(e0, seg_lengths=((e0.seg_lengths[0][0], 1 << 32),)), *rest)
    with pytest.raises(CodestreamError, match=r"not 1x2 non-negative ints below 2\*\*32"):
        CodestreamTable(**header, entries=wide)
    CodestreamTable(**header, entries=(dataclasses.replace(e0, seg_lengths=((0, 2**32 - 1),)), *rest))


def test_replace_refuses_a_bad_table():
    stream = _small_stream()
    for entries, message in _bad_tables(stream):
        with pytest.raises(CodestreamError, match=message):
            dataclasses.replace(stream, entries=entries)
    # a header the table no longer fits
    with pytest.raises(CodestreamError, match="not 1x1"):
        dataclasses.replace(stream, max_resolution=1)
    with pytest.raises(CodestreamError, match="tile index 2 out of range"):
        dataclasses.replace(stream, height=32)


def test_an_unchecked_table_reaches_no_reader_or_writer():
    stream = _small_stream()
    *head, last = stream.entries
    far = (*head, dataclasses.replace(last, index=99))
    e0, *rest = stream.entries
    short = (dataclasses.replace(e0, seg_lengths=((e0.seg_lengths[0][0],),)), *rest)
    # unchecked, decode raised IndexError from tile_bounds and size_of summed the table
    with pytest.raises(CodestreamError, match="out of range"):
        decode(dataclasses.replace(stream, entries=far), [99], 2)
    with pytest.raises(CodestreamError, match="out of range"):
        size_of(dataclasses.replace(stream, entries=far), [99], 2)
    # unchecked, write_codestream wrote a table that parsed as "tile index 512 out of range"
    with pytest.raises(CodestreamError, match="not 1x2"):
        write_codestream(dataclasses.replace(stream, entries=short))


def test_extract_refuses_a_bad_table():
    stream = _small_stream()
    # what extract is given has passed the checks, and so does what it builds
    for entries, message in _bad_tables(stream):
        with pytest.raises(CodestreamError, match=message):
            extract(dataclasses.replace(stream, entries=entries), [0, 1], 1)
    with pytest.raises(CodestreamError, match="a codestream holds at least one tile"):
        extract(stream, [], 1)
    # indices given in any order are sorted into the table
    assert extract(stream, [3, 0], 1) == extract(stream, [0, 3], 1)


def _table_blob(stream, rows, tile_count=None):
    """``stream``'s header over hand-written table rows and its payload."""
    head = cs._HEADER.pack(
        cs.MAGIC, stream.width, stream.height, stream.tile_w, stream.tile_h, stream.levels,
        stream.components, stream.max_resolution,
        len(rows) if tile_count is None else tile_count)
    return head + b"".join(struct.pack(f">{len(row)}I", *row) for row in rows) + stream.payload


def test_parse_refuses_a_bad_table():
    stream = _small_stream()
    rows = [(e.index, *e.seg_lengths[0]) for e in stream.entries]
    assert parse_codestream(_table_blob(stream, rows)) == stream
    (i0, *l0), (_, *l1), *rest = rows
    bad = {
        "tile index 99 out of range": [*rows[:-1], (99, *rows[-1][1:])],
        "strictly increasing": [(i0, *l0), (i0, *l1), *rest],
        # rows one length short: the header fixes a row's size, so the
        # parser reads on into the payload for the rows' missing words
        "shorter than declared": [(i, *lengths[:1]) for i, *lengths in rows],
    }
    for message, table in bad.items():
        with pytest.raises(CodestreamError, match=message):
            parse_codestream(_table_blob(stream, table, len(rows)))
    with pytest.raises(CodestreamError, match="a codestream holds at least one tile"):
        parse_codestream(_table_blob(stream, [])[: -len(stream.payload)])


def test_parse_refuses_a_header_of_zero_width():
    blob = write_codestream(_small_stream())
    assert parse_codestream(blob) == _small_stream()
    with pytest.raises(CodestreamError, match="degenerate dimensions in header"):
        parse_codestream(blob[:4] + struct.pack(">I", 0) + blob[8:])


def test_assemble_refuses_a_codestream_missing_a_tile():
    sub = extract(_small_stream(), [0, 3], 2)
    with pytest.raises(CodestreamError, match="assemble requires a codestream holding every tile"):
        cs.assemble(sub, 2)


def _traced_peak(run) -> int:
    """``tracemalloc`` peak of ``run()``."""
    return _traced_excess(run, lambda out: 0)


def test_parsing_a_file_holds_one_copy_of_the_payload(tmp_path):
    img, _ = generate_scene(3, 768, 704, 40)
    path = tmp_path / "scene.ssc"
    write_codestream(encode(img, TileGrid.for_image(768, 704, 256, 256), 5), path)
    excess = _traced_excess(lambda: parse_codestream(path), lambda out: len(out.payload))
    assert excess <= 1 << 20
    # 32 MiB of trailing zeros (a sparse extension) are refused unread
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) + (32 << 20))

    def refused():
        with pytest.raises(CodestreamError, match="trailing data"):
            parse_codestream(path)

    assert _traced_peak(refused) < 1 << 20


def test_parsing_a_bytes_like_source_copies_only_the_payload():
    # io.BytesIO would copy a bytearray or memoryview whole before reading it
    img, _ = generate_scene(3, 768, 704, 40)
    blob = write_codestream(encode(img, TileGrid.for_image(768, 704, 256, 256), 5))
    for src in (blob, bytearray(blob), memoryview(blob)):
        excess = _traced_excess(lambda: parse_codestream(src), lambda out: len(out.payload))
        assert excess <= 64 << 10, type(src)
        assert parse_codestream(src) == parse_codestream(blob)


def test_a_table_or_payload_larger_than_the_file_is_refused_unread(tmp_path):
    # each file holds 32 MiB after its header, and declares 64 MiB
    rows = 1 << 23  # 2x1 tiles of a 4096x4096 image, one index and one length a row
    table = cs._HEADER.pack(cs.MAGIC, 4096, 4096, 2, 1, 1, 1, 1, rows)
    assert rows * 8 == 64 << 20
    payload = cs._HEADER.pack(cs.MAGIC, 64, 64, 64, 64, 1, 1, 1, 1) + struct.pack(">II", 0, 64 << 20)
    for head, message in ((table, "truncated table"), (payload, "shorter than declared")):
        path = tmp_path / "declared.ssc"
        path.write_bytes(head)
        with open(path, "r+b") as fh:
            fh.truncate(len(head) + (32 << 20))

        def refused():
            with pytest.raises(CodestreamError, match=message):
                parse_codestream(path)

        assert _traced_peak(refused) < 1 << 20


def test_parse_refuses_a_decompression_bomb(monkeypatch):
    # one 65535x65535 tile whose only token is a zero run over the whole
    # band: 37 bytes that would decode to 4,294,836,225 coefficients
    run = reference_varint_bytes([65535 * 65535])
    payload = b"\x00" + run
    blob = (
        cs._HEADER.pack(cs.MAGIC, 65535, 65535, 65535, 65535, 1, 1, 1, 1)
        + struct.pack(">II", 0, len(payload))
        + payload
    )
    assert len(blob) == 37

    def no_expansion(*args, **kwargs):
        raise AssertionError("a zero run was expanded")

    monkeypatch.setattr(np, "repeat", no_expansion)
    with pytest.raises(CodestreamError, match="exceeds"):
        parse_codestream(blob)


def test_pixel_ceiling_is_shared_by_encode_measure_and_parse(monkeypatch):
    monkeypatch.setattr(cs, "MAX_PIXELS", 100)
    at = Image(np.zeros((10, 10, 1), dtype=np.uint8))
    over = Image(np.zeros((10, 11, 1), dtype=np.uint8))
    over_grid = TileGrid.for_image(11, 10, 8, 8)
    blob = write_codestream(encode(at, TileGrid.for_image(10, 10, 8, 8), 2))
    assert parse_codestream(blob).width == 10
    for coder in (encode, measure):
        with pytest.raises(ValueError, match="exceeds 100 pixels"):
            coder(over, over_grid, 2)
    monkeypatch.setattr(cs, "MAX_PIXELS", 110)
    blob = write_codestream(encode(over, over_grid, 2))
    monkeypatch.setattr(cs, "MAX_PIXELS", 100)
    with pytest.raises(CodestreamError, match="exceeds 100 pixels"):
        parse_codestream(blob)


def test_encode_input_validation():
    img = Image(np.zeros((16, 16), dtype=np.uint8))
    grid = TileGrid.for_image(16, 16, 8, 8)
    with pytest.raises(ValueError, match="levels"):
        encode(img, grid, 9)
    with pytest.raises(ValueError, match="levels"):
        encode(img, grid, 0)
    bad_grid = TileGrid(width=8, height=16, tile_w=8, tile_h=8)
    with pytest.raises(ValueError, match="does not match"):
        encode(img, bad_grid, 2)
    two = Image(np.zeros((8, 8, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="component"):
        encode(two, TileGrid.for_image(8, 8, 8, 8), 2)


# --- batches of tile-components --------------------------------------------


def _per_tile_component_encode(img, grid, levels):
    """The payload and table of one 2-D lift and one ``encode_bands`` call per tile-component."""
    chunks, entries = [], []
    for index in range(grid.tile_count):
        x, y, tw, th = cs.tile_bounds(grid, index)
        seg_lengths = []
        for c in range(img.components):
            samples = img.pixels[y : y + th, x : x + tw, c].astype(np.int64) - 128
            pyr = cs.wavelet.forward_53(samples, levels - 1)
            segs = [(pyr.ll,), *pyr.details]
            coded, band_lengths = encode_bands([band for bands in segs for band in bands])
            chunks.append(coded)
            lengths = iter(band_lengths)
            seg_lengths.append(tuple(sum(next(lengths) for _ in bands) for bands in segs))
        entries.append(cs.TileEntry(index, tuple(seg_lengths)))
    return b"".join(chunks), tuple(entries)


def _check_batched_coding(img, grid, levels):
    payload, entries = _per_tile_component_encode(img, grid, levels)
    stream = encode(img, grid, levels)
    assert stream.payload == payload
    assert stream.entries == entries
    _assert_measure_matches_encode(img, grid, levels)
    # unsorted and non-contiguous, with the last (clipped) tile in it
    subset = list(range(grid.tile_count - 1, -1, -2))
    for resolution in range(1, levels + 1):
        want = [decode(stream, [index], resolution)[0] for index in subset]
        assert decode(stream, subset, resolution) == want
    assert cs.assemble(stream, levels) == img


def _noisy_image(rng, h, w, c):
    pixels = rng.integers(0, 256, size=(h, w, c)).astype(np.uint8)
    pixels[: h // 3, : w // 2] = 77  # flat: zero runs that meet band ends
    return Image(pixels)


@pytest.mark.parametrize("side", [200, 255, 256, 257])
def test_batches_write_what_one_pass_per_tile_component_writes(side):
    # 200^2 is 40,000 coefficients, so a batch of 3-component tiles closes
    # inside a tile; 256^2 fills a batch alone and 255^2 just misses it
    rng = np.random.default_rng(side)
    img = _noisy_image(rng, side + 5, side + 37, 3)
    _check_batched_coding(img, TileGrid.for_image(img.width, img.height, side, side), 5)


def test_batches_of_many_small_tiles(monkeypatch):
    rng = np.random.default_rng(18)
    # at the real bound: about 67,000 coefficients of 3-9 px tiles, so one batch closes
    img = _noisy_image(rng, 259, 261, 1)
    for (tw, th), levels in (((3, 9), 1), ((9, 7), 5)):
        grid = TileGrid.for_image(img.width, img.height, tw, th)
        payload, entries = _per_tile_component_encode(img, grid, levels)
        stream = encode(img, grid, levels)
        assert (stream.payload, stream.entries) == (payload, entries)
        assert measure(img, grid, levels).entries == entries
        assert cs.assemble(stream, levels) == img
    # with the bound lowered, batches close at every kind of place in a small image
    small = _noisy_image(rng, 31, 40, 1)
    for bound in (1, 97, 600):
        monkeypatch.setattr(cs, "_BATCH_COEFFS", bound)
        for levels in range(1, 6):
            tw, th = int(rng.integers(3, 10)), int(rng.integers(3, 10))
            _check_batched_coding(small, TileGrid.for_image(40, 31, tw, th), levels)


_LIFTS = ("forward_53", "inverse_53")


def _calls(run):
    """(name, what it covered) of each token pass and lift ``run`` makes, in order.

    A pass (``encode_bands``, ``band_sizes``, ``decode_bands``) covers
    its coefficient count. A lift covers a stack shape: the samples a
    ``forward_53`` call lifts, or the grids an ``inverse_53`` call gives back.
    """
    calls = []

    def spy(owner, name, covered):
        fn = getattr(owner, name)

        def spied(*args):
            out = fn(*args)
            calls.append((name, covered(out, *args)))
            return out

        return spied

    with pytest.MonkeyPatch.context() as m:
        for name in ("encode_bands", "band_sizes"):
            m.setattr(cs, name, spy(cs, name, lambda _, bands: sum(band.size for band in bands)))
        m.setattr(cs, "decode_bands", spy(cs, "decode_bands", lambda _, buf, counts, segs: sum(counts)))
        m.setattr(cs.wavelet, "forward_53",
                  spy(cs.wavelet, "forward_53", lambda _, samples, depth: samples.shape))
        m.setattr(cs.wavelet, "inverse_53", spy(cs.wavelet, "inverse_53", lambda out, _: out.shape))
        run()
    return calls


def _coefficients_per_call(run):
    """Coefficients each ``encode_bands``, ``band_sizes`` or ``decode_bands`` call covers."""
    return [(name, n) for name, n in _calls(run) if name not in _LIFTS]


def test_no_pass_covers_more_than_the_bound_plus_one_tile_component():
    rng = np.random.default_rng(19)
    img = _noisy_image(rng, 430, 520, 3)  # 200^2 tiles, clipped to 120 and 30 at the edges
    grid = TileGrid.for_image(520, 430, 200, 200)
    stream = encode(img, grid, 4)

    def run():
        encode(img, grid, 4)
        measure(img, grid, 4)
        cs.assemble(stream, 4)
        for resolution in range(1, 5):
            decode(stream, [7, 0, 4, 2], resolution)

    calls = _coefficients_per_call(run)
    assert {name for name, _ in calls} == {"encode_bands", "band_sizes", "decode_bands"}
    assert max(n for _, n in calls) <= cs._BATCH_COEFFS + 200 * 200
    # tile-components share passes: 27 of them are coded in far fewer calls
    assert sum(name == "encode_bands" for name, _ in calls) < 27 / 2


def test_two_256_square_tile_components_share_a_pass():
    # in wire order a 44 px wide edge tile comes between tile 0 and tile 2,
    # both 256^2; a pass closes once it holds the bound, two of them
    pair = cs._BATCH_COEFFS // (256 * 256)
    assert pair == 2
    rng = np.random.default_rng(20)
    for components in (1, 3):
        img = _noisy_image(rng, 600, 300, components)
        grid = TileGrid.for_image(300, 600, 256, 256)
        stream = encode(img, grid, 5)

        def run():
            encode(img, grid, 5)
            measure(img, grid, 5)
            cs.assemble(stream, 5)
            decode(stream, [2, 1, 0], 5)

        calls = _calls(run)
        # tiles 0 and 2 are 256^2: coded, sized, assembled and decoded two to a lift
        full = [shape[0] for name, shape in calls if name in _LIFTS and shape[1:] == (256, 256)]
        assert full == [pair] * 4 * components
        passes = [(name, n) for name, n in calls if name not in _LIFTS]
        # with three components, tile 0's first two fill a pass by themselves, as do tile 2's last two
        together = collections.Counter(name for name, n in passes if n == pair * 256 * 256)
        assert together == ({} if components == 1 else {
            "encode_bands": 2, "band_sizes": 2, "decode_bands": 4})
        assert max(n for _, n in passes) <= cs._BATCH_COEFFS + 256 * 256


def _stacks_per_batch(calls, lifts_follow_their_pass):
    """[(batch coefficients, [stack shapes])], one per pass, from ``_calls``.

    ``encode`` and ``measure`` lift a batch and then code it; ``decode``
    decodes a batch and then lifts it.
    """
    batches, pending = [], []
    for name, value in calls:
        if name in _LIFTS:
            (batches[-1][1] if lifts_follow_their_pass else pending).append(value)
        else:
            batches.append((value, [] if lifts_follow_their_pass else pending))
            pending = []
    assert not pending
    return batches


def _check_call_shape(batches, tile_components, tile_shapes_distinct=True):
    """One lift per tile shape in each batch, and every tile-component lifted once.

    The stacks of a batch together hold exactly its coefficients, so no
    stack holds more than its batch.
    """
    for coefficients, stacks in batches:
        tile_shapes = [shape[1:] for shape in stacks]
        if tile_shapes_distinct:
            assert len(set(tile_shapes)) == len(tile_shapes), tile_shapes
        assert sum(np.prod(shape) for shape in stacks) == coefficients
    assert sum(shape[0] for _, stacks in batches for shape in stacks) == tile_components


def test_a_batch_lifts_one_stack_per_tile_shape():
    rng = np.random.default_rng(22)
    cases = [  # 3-9 px tiles, clipped at both edges, and 256^2 RGB tiles
        (_noisy_image(rng, 259, 261, 1), 7, 9, 5),
        (_noisy_image(rng, 259, 261, 1), 3, 4, 3),
        (_noisy_image(rng, 600, 300, 3), 256, 256, 5),
    ]
    for img, tw, th, levels in cases:
        grid = TileGrid.for_image(img.width, img.height, tw, th)
        stream = encode(img, grid, levels)
        everything = grid.tile_count * img.components
        lifts = []
        for run in (lambda: encode(img, grid, levels), lambda: measure(img, grid, levels)):
            batches = _stacks_per_batch(_calls(run), lifts_follow_their_pass=False)
            _check_call_shape(batches, everything)
            lifts += [shape for _, stacks in batches for shape in stacks]
        subset = list(range(grid.tile_count - 1, -1, -3))
        for resolution in range(1, levels + 1):
            for indices in (subset, range(grid.tile_count)):
                calls = _calls(lambda: decode(stream, indices, resolution))
                batches = _stacks_per_batch(calls, lifts_follow_their_pass=True)
                # below full resolution two tile sizes can halve to one shape
                _check_call_shape(batches, len(indices) * img.components, resolution == levels)
                lifts += [shape for _, stacks in batches for shape in stacks]
        # two 256^2 tile-components fill a batch, so a stack holds at most
        # two: tiles 0 and 2 are 256^2, lifted by encode, measure and the
        # two full-resolution decodes (the subset holds tile 2, whose last
        # component shares its batch with tile 5)
        full = [shape[0] for shape in lifts if shape[1:] == (256, 256)]
        assert full == ([2] * 3 + [2] * 3 + [2, 1] + [2] * 3 if tw == 256 else [])
        assert max(full, default=0) <= cs._BATCH_COEFFS // (256 * 256)
        assert sum(full) == (6 + 6 + 3 + 6 if tw == 256 else 0)
        if tw < 10:
            assert len(lifts) < everything / 10


def _segments_of(stream):
    """Each tile-component's segments as bytes, keyed by (tile index, component).

    The payload is walked here with its own running offset, so a
    reference built on this shares no offset code with the reader.
    """
    segments, pos = {}, 0
    for e in stream.entries:
        for c, lengths in enumerate(e.seg_lengths):
            segments[e.index, c] = []
            for n in lengths:
                segments[e.index, c].append(stream.payload[pos : pos + n])
                pos += n
    return segments


def _with_segments(stream, replace):
    """``stream`` with some tile-components' segments replaced, parsed back from bytes.

    ``replace`` maps (tile index, component) to the new segments' bytes.
    """
    entries, chunks = [], []
    segments = _segments_of(stream)
    for e in stream.entries:
        comps = []
        for c in range(stream.components):
            segs = replace.get((e.index, c), segments[e.index, c])
            comps.append(tuple(map(len, segs)))
            chunks += segs
        entries.append(cs.TileEntry(e.index, tuple(comps)))
    changed = dataclasses.replace(stream, entries=tuple(entries), payload=b"".join(chunks))
    return parse_codestream(write_codestream(changed))


def _fault_stream():
    rng = np.random.default_rng(21)
    img = _noisy_image(rng, 14, 13, 3)
    return encode(img, TileGrid.for_image(13, 14, 5, 4), 3)


FAULT_STREAM = _fault_stream()


def test_a_fault_anywhere_in_a_batch_is_refused():
    stream = FAULT_STREAM
    last = stream.tile_count - 1
    assert stream.width * stream.height * stream.components < cs._BATCH_COEFFS  # one batch
    for index, c in ((0, 0), (last // 2, 1), (last, 2)):  # first, a middle, the last
        _, _, tw, th = cs.tile_bounds(stream.grid, index)
        top = [np.ones(h * w, dtype=np.int64) for h, w in cs._band_shapes(tw, th, 3)[-1]]
        coded = b"".join(map(encode_band, top))
        crossing = reference_varint_bytes([0, top[0].size + 1]) + (
            b"\x02" * (top[1].size - 1) + encode_band(top[2]))
        faults = {
            "truncated varint": coded[:-1] + b"\x82",
            "crosses a band": crossing,
            "short": coded[:-1],
        }
        low, mid, _ = _segments_of(stream)[index, c]
        for message, top_segment in faults.items():
            bad = _with_segments(stream, {(index, c): [low, mid, top_segment]})
            with pytest.raises(CodestreamError, match=message):
                cs.assemble(bad, 3)
            with pytest.raises(CodestreamError, match=message):
                decode(bad, [index, *(i for i in (last, last // 2, 0) if i != index)], 3)
            # below the top resolution the fault is never read
            assert decode(bad, [index], 2) == decode(stream, [index], 2)


def _reference_assemble(stream):
    """Full-resolution mosaic, one ``reference_decode_segments`` call per tile-component."""
    canvas = np.zeros((stream.height, stream.width, stream.components), dtype=np.uint8)
    segments = _segments_of(stream)
    for e in stream.entries:
        x, y, tw, th = cs.tile_bounds(stream.grid, e.index)
        shapes = cs._band_shapes(tw, th, stream.levels)
        flat = [shape for seg in shapes for shape in seg]
        for c, lengths in enumerate(e.seg_lengths):
            bands = reference_decode_segments(
                b"".join(segments[e.index, c]), [h * w for h, w in flat],
                [(n, len(seg)) for n, seg in zip(lengths, shapes)])
            ll, *details = [band.reshape(shape) for band, shape in zip(bands, flat)]
            pyramid = cs.wavelet.CoefficientPyramid(
                ll=ll, details=tuple(tuple(details[i : i + 3]) for i in range(0, len(details), 3)))
            canvas[y : y + th, x : x + tw, c] = np.clip(cs.wavelet.inverse_53(pyramid) + 128, 0, 255)
    return Image(canvas)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_assemble_agrees_with_a_per_tile_component_reference(data):
    payload = bytearray(FAULT_STREAM.payload)
    pos = data.draw(st.integers(0, len(payload) - 1))
    payload[pos] = data.draw(st.integers(0, 255))
    stream = dataclasses.replace(FAULT_STREAM, payload=bytes(payload))
    try:
        want = _reference_assemble(stream)
    except CodestreamError:
        with pytest.raises(CodestreamError):
            cs.assemble(stream, stream.levels)
        return
    assert cs.assemble(stream, stream.levels) == want
