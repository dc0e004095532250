import collections
import dataclasses
import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_wavelet as ref
from reference_tokens import (
    reference_decode_bands,
    reference_decode_segments,
    reference_varints,
)
from tilecast import codestream as cs
from tilecast import config, scenario
from tilecast.codestream import (
    Codestream,
    CodestreamError,
    CodestreamTable,
    band_size,
    decode,
    decode_bands,
    decode_varints,
    encode,
    encode_band,
    encode_varints,
    extract,
    measure,
    parse_codestream,
    size_of,
    write_codestream,
)
from tilecast.raster import Image, TileGrid, generate_scene

EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "scenario.example.cfg")


def random_image(rng, max_side=120, comps=None):
    h = int(rng.integers(1, max_side))
    w = int(rng.integers(1, max_side))
    c = comps if comps is not None else int(rng.choice([1, 3]))
    return Image(rng.integers(0, 256, size=(h, w, c)).astype(np.uint8))


def test_band_wire_fixture():
    # literals are zigzag codes: -1 -> 1, 1 -> 2, -2 -> 3
    assert encode_band(np.array([-1, 1, -2])) == b"\x01\x02\x03"


def test_varint_hand_values():
    assert encode_varints(np.array([300], dtype=np.uint64)) == bytes([0xAC, 0x02])
    assert encode_varints(np.array([0], dtype=np.uint64)) == b"\x00"
    assert encode_varints(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert encode_varints(np.array([128], dtype=np.uint64)) == bytes([0x80, 0x01])


@given(st.lists(st.integers(min_value=0, max_value=2**34), max_size=50))
@settings(max_examples=200)
def test_varint_round_trip(values):
    arr = np.array(values, dtype=np.uint64)
    assert decode_varints(encode_varints(arr)).tolist() == values


def test_varint_truncation_and_overlong():
    with pytest.raises(CodestreamError, match="truncated varint"):
        decode_varints(b"\x80")
    with pytest.raises(CodestreamError, match="overlong"):
        decode_varints(b"\x80\x80\x80\x80\x80\x01")


@given(st.one_of(
    st.binary(max_size=40),
    st.lists(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF]), max_size=40).map(bytes),
))
@settings(max_examples=500)
def test_decode_varints_agrees_with_reference(buf):
    try:
        want = reference_varints(buf)
    except CodestreamError:
        with pytest.raises(CodestreamError):
            decode_varints(buf)
        return
    assert decode_varints(buf).tolist() == want.tolist()


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
        decode_bands(encode_varints(np.array([0, 0], dtype=np.uint64)), [1])
    with pytest.raises(CodestreamError, match="dangling"):
        decode_bands(encode_varints(np.array([2, 0], dtype=np.uint64)), [2])
    with pytest.raises(CodestreamError, match="trailing tokens"):
        decode_bands(encode_varints(np.array([2, 2], dtype=np.uint64)), [1])


def test_band_decode_checks_runs_before_expanding(monkeypatch):
    def no_expansion(*args, **kwargs):
        raise AssertionError("a zero run was expanded")

    monkeypatch.setattr(np, "repeat", no_expansion)
    bomb = encode_varints(np.array([0, 2**34], dtype=np.uint64))
    with pytest.raises(CodestreamError, match="crosses a band boundary or segment is short"):
        decode_bands(bomb, [4])
    straddle = encode_varints(np.array([0, 3], dtype=np.uint64))
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
    assert band_size(band) == len(encode_band(band))
    if band.size and -(2**31) <= band.min() and band.max() < 2**31:
        assert band_size(band.astype(np.int32)) == band_size(band)


@given(st.lists(bands(_LITERALS.filter(lambda c: c < 2**31)), max_size=4))
@settings(max_examples=200)
def test_band_round_trip_over_several_bands(band_list):
    buf = b"".join(encode_band(band) for band in band_list)
    got = decode_bands(buf, [band.size for band in band_list])
    assert len(got) == len(band_list)
    for out, band in zip(got, band_list):
        assert out.dtype == np.int64 and np.array_equal(out, band)


# short token streams: zeros (run starts or zero-length runs), small
# literals or run lengths, and tokens at and beyond the 2**32 literal ceiling
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
    buf = encode_varints(np.array(tokens, dtype=np.uint64))
    try:
        want = reference_decode_bands(buf, counts)
    except CodestreamError:
        with pytest.raises(CodestreamError):
            decode_bands(buf, counts)
        return
    got = decode_bands(buf, counts)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
            assert a.dtype == b.dtype and np.array_equal(a, b)
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
    # a parseable stream may carry literals up to +-2**31 (_MAX_COEFF_TOKEN),
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


def test_band_size_edge_cases():
    for band in (
        np.empty(0, dtype=np.int64),
        np.empty((0, 5), dtype=np.int64),
        np.zeros((128, 128), dtype=np.int64),
        np.zeros(16384, dtype=np.int64),
        np.array([7]),
        np.array([-(2**31)]),
        np.array([2**31]),
        np.arange(-300, 300).reshape(20, 30),
        np.array([-(2**31), 2**31 - 1, 0, 0, -64, 63, 64, -65, 0], dtype=np.int32),
        np.array([0, 200, 255, 0, 0, 7], dtype=np.uint8),
    ):
        assert band_size(band) == len(encode_band(band))


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
    # the .ssc bytes are pinned: a faster coder must write the same stream
    assert len(blob) == 20_961_238
    assert hashlib.sha256(blob).hexdigest() == (
        "c5cfee84e5be1b1a509c12abf51e3d2fb11fab0f33038a72bdd2782ac2f0b6b0"
    )


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


@pytest.mark.parametrize("case, size, sha256", [
    (0, 535, "fb5c0b6516707760a0a358fa86daa22c29636ac72196fc511f0d9e01e677b7be"),
    (1, 4_523_647, "710a608b8ff6c4782da3abf7c144937a5b2968b92601df31e341d805585c29fe"),
    (2, 334_113, "97e74a91a3877c73b2f0ba3ea6b06289dc093f06ad5438393f0270e383821c30"),
])
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


def test_parse_rejects_non_increasing_indices():
    img = Image(np.zeros((64, 64), dtype=np.uint8))
    grid = TileGrid.for_image(64, 64, 32, 32)
    stream = encode(img, grid, 1)
    swapped = Codestream(
        width=stream.width,
        height=stream.height,
        tile_w=stream.tile_w,
        tile_h=stream.tile_h,
        levels=stream.levels,
        components=stream.components,
        max_resolution=stream.max_resolution,
        entries=tuple(reversed(stream.entries)),
        payload=stream.payload,
    )
    with pytest.raises(CodestreamError, match="strictly increasing"):
        parse_codestream(write_codestream(swapped))


def test_parser_totality_fuzz():
    # random mutations of a valid stream either parse+decode or raise
    # CodestreamError; nothing else escapes
    rng = np.random.default_rng(123)
    img = Image(rng.integers(0, 256, size=(50, 70, 1)).astype(np.uint8))
    grid = TileGrid.for_image(70, 50, 32, 32)
    blob = bytearray(write_codestream(encode(img, grid, 3)))
    for trial in range(400):
        mutated = bytearray(blob)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(0, len(mutated)))
            mutated[pos] = int(rng.integers(0, 256))
        if rng.random() < 0.3:
            mutated = mutated[: int(rng.integers(0, len(mutated)))]
        try:
            stream = parse_codestream(bytes(mutated))
            indices = [e.index for e in stream.entries]
            decode(stream, indices, stream.max_resolution)
        except CodestreamError:
            pass


def test_parse_refuses_a_decompression_bomb(monkeypatch):
    # one 65535x65535 tile whose only token is a zero run over the whole
    # band: 37 bytes that would decode to 4,294,836,225 coefficients
    run = encode_varints(np.array([65535 * 65535], dtype=np.uint64))
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
    bad_grid = TileGrid(tile_w=8, tile_h=8, tiles_x=1, tiles_y=2)
    with pytest.raises(ValueError, match="does not match"):
        encode(img, bad_grid, 2)
    two = Image(np.zeros((8, 8, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="component"):
        encode(two, TileGrid.for_image(8, 8, 8, 8), 2)
