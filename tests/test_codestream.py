import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    unzigzag,
    write_codestream,
    zigzag,
)
from tilecast.raster import Image, TileGrid, generate_scene

EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "scenario.example.cfg")


def random_image(rng, max_side=120, comps=None):
    h = int(rng.integers(1, max_side))
    w = int(rng.integers(1, max_side))
    c = comps if comps is not None else int(rng.choice([1, 3]))
    return Image(rng.integers(0, 256, size=(h, w, c)).astype(np.uint8))


def test_zigzag_fixture():
    assert [zigzag(c) for c in (0, -1, 1, -2)] == [0, 1, 2, 3]


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_zigzag_bijective(c):
    assert unzigzag(zigzag(c)) == c
    if c != 0:
        assert zigzag(c) >= 1


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
def bands(draw):
    pieces = draw(st.lists(st.one_of(
        _RUN_LENGTHS.map(lambda n: np.zeros(n, dtype=np.int64)),
        st.lists(_LITERALS, min_size=1, max_size=8).map(
            lambda v: np.array(v, dtype=np.int64)),
    ), max_size=6))
    return np.concatenate([np.empty(0, dtype=np.int64), *pieces])


@given(bands())
@settings(max_examples=300)
def test_band_size_equals_encoded_length(band):
    assert band_size(band) == len(encode_band(band))


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
    ):
        assert band_size(band) == len(encode_band(band))


def _assert_measure_matches_encode(img, grid, levels):
    table, stream = measure(img, grid, levels), encode(img, grid, levels)
    assert type(table) is CodestreamTable
    for field in ("width", "height", "tile_w", "tile_h", "levels", "components",
                  "max_resolution", "entries"):
        assert getattr(table, field) == getattr(stream, field), field


def test_measure_matches_encode_on_example_scene():
    cfg = config.parse_config(EXAMPLE_CFG)
    img, _ = scenario.load_scene(cfg)
    grid = TileGrid.for_image(img.width, img.height, cfg.tile_w, cfg.tile_h)
    _assert_measure_matches_encode(img, grid, cfg.levels)


def test_measure_matches_encode_on_dense_scene():
    img, _ = generate_scene(11, 1024, 1024, 120)
    _assert_measure_matches_encode(img, TileGrid.for_image(1024, 1024, 256, 256), 5)


def test_measure_matches_encode_on_odd_tilings():
    rng = np.random.default_rng(12)
    for _ in range(80):
        img = random_image(rng)
        if rng.random() < 0.3:  # flat areas give long zero runs
            img = Image(img.pixels // 64 * 64)
        tw = int(rng.integers(1, img.width + 20))
        th = int(rng.integers(1, img.height + 20))
        grid = TileGrid.for_image(img.width, img.height, tw, th)
        _assert_measure_matches_encode(img, grid, int(rng.integers(1, 6)))


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
