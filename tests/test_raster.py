import dataclasses
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilecast import raster, rng
from tilecast.raster import (
    MAX_PIXELS,
    GroundTruthBox,
    Image,
    ImageIOError,
    TileGrid,
    generate_scene,
    load_ground_truth,
    load_image,
    save_ground_truth,
    save_image,
    tile_bounds,
)


def test_load_p5_direct_byte_mapping(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7]))
    img = load_image(p)
    assert (img.width, img.height, img.components) == (2, 2, 1)
    assert img.samples == bytes([0, 255, 128, 7])


def test_load_pnm_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    pixels = bytes([0, 255, 128, 7])
    p.write_bytes(b"P5\n# made by gimp\n2 2\n255\n" + pixels)
    assert load_image(p).samples == pixels
    p.write_bytes(b"P5 3 # width, then\r\n#\n 2\n# maxval next\n255\n" + bytes(6))
    img = load_image(p)
    assert (img.width, img.height) == (3, 2)


def test_load_p6_single_pixel(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
    img = load_image(p)
    assert (img.width, img.height, img.components) == (1, 1, 3)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128]))
    with pytest.raises(ImageIOError, match="truncated payload"):
        load_image(p)


def test_bad_magic_and_header(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
    with pytest.raises(ImageIOError, match="not a binary"):
        load_image(p)
    p.write_bytes(b"P5\n2 two\n255\n")
    with pytest.raises(ImageIOError, match="malformed"):
        load_image(p)
    for header in (b"P5\n# c\n2 two\n255\n", b"P5\n2 2\n# unterminated", b"P5\n2 2",
                   b"P5\n" + b"9" * 5000 + b" 2\n255\n"):
        p.write_bytes(header)
        with pytest.raises(ImageIOError, match="malformed"):
            load_image(p)


def test_maxval_rejected(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ImageIOError, match="maxval"):
        load_image(p)


def _traced_peak(run) -> int:
    """``tracemalloc`` peak of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sparse(path, header, size):
    """A file of ``size`` bytes: ``header``, then zeros that take no disk."""
    path.write_bytes(header)
    with open(path, "r+b") as fh:
        fh.truncate(size)


def test_a_header_is_checked_before_the_raster_is_read(tmp_path):
    p = tmp_path / "big.pgm"

    def refused(message):
        with pytest.raises(ImageIOError, match=re.escape(f"{p}: {message}")):
            load_image(p)

    # one row over the pixel ceiling, with every raster byte present
    header = b"P5\n8193 8192\n255\n"
    _sparse(p, header, len(header) + 8193 * 8192)
    assert _traced_peak(lambda: refused(f"image of 8193x8192 exceeds {MAX_PIXELS} pixels")) < 1 << 20
    # a 1x1 image followed by 64 MB it does not declare
    _sparse(p, b"P5 1 1 255\n", 64 << 20)
    assert _traced_peak(lambda: refused("trailing data after pixel payload")) < 1 << 20
    _sparse(p, b"P6 4096 4096 255\n", 1 << 20)
    assert _traced_peak(lambda: refused(
        f"truncated payload: expected {3 << 24} bytes, found {(1 << 20) - 17}")) < 1 << 20


def test_a_header_longer_than_64_kib_is_malformed(tmp_path):
    p = tmp_path / "c.pgm"
    for comment, loads in ((b"#" * ((1 << 16) - 20), True), (b"#" * (1 << 16), False)):
        p.write_bytes(b"P5\n" + comment + b"\n1 1\n255\n\x07")
        if loads:
            assert load_image(p).samples == b"\x07"
        else:
            with pytest.raises(ImageIOError, match=re.escape(f"{p}: malformed PNM header")):
                load_image(p)


def test_loading_reads_the_raster_once(tmp_path):
    img = Image(np.random.default_rng(2).integers(0, 256, size=(512, 768, 3), dtype=np.uint8))
    p = tmp_path / "a.ppm"
    save_image(img, p)
    loaded = []
    peak = _traced_peak(lambda: loaded.append(load_image(p)))
    assert loaded == [img]
    # the raster is 1.125 MiB; reading the file whole, then slicing it, held two
    assert peak - img.pixels.nbytes < 1 << 17


def test_a_pipe_is_read_whole(tmp_path):
    img = Image(np.arange(60, dtype=np.uint8).reshape(4, 5, 3))
    p = tmp_path / "a.ppm"
    save_image(img, p)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(p.read_bytes()), daemon=True)
    writer.start()
    assert load_image(fifo) == img
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_an_image_takes_uint8_samples_only():
    for dtype in (np.int64, np.uint16, np.float64, np.bool_):
        with pytest.raises(ValueError, match=f"pixel samples must be uint8, got {np.dtype(dtype)}"):
            Image(np.zeros((2, 2), dtype))
    img = Image(np.zeros((2, 3), np.uint8))
    assert img.pixels.shape == (2, 3, 1)
    with pytest.raises(TypeError, match="unhashable"):
        hash(img)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for comps in (1, 3):
        img = Image(rng.integers(0, 256, size=(13, 17, comps)).astype(np.uint8))
        p = tmp_path / f"rt{comps}.pnm"
        save_image(img, p)
        assert load_image(p) == img


def test_save_two_components_rejected(tmp_path):
    img = Image(np.zeros((4, 4, 2), dtype=np.uint8))
    with pytest.raises(ImageIOError, match="component count 2"):
        save_image(img, tmp_path / "no.pgm")


def test_save_missing_directory_is_io_error(tmp_path):
    img = Image(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(OSError):
        save_image(img, tmp_path / "absent" / "x.pgm")


def test_tile_bounds_examples():
    grid = TileGrid.for_image(1024, 1024, 512, 512)
    assert tile_bounds(grid, 0) == (0, 0, 512, 512)
    grid = TileGrid.for_image(1000, 700, 512, 512)
    assert tile_bounds(grid, 1) == (512, 0, 488, 512)
    with pytest.raises(IndexError):
        tile_bounds(grid, grid.tile_count)


def test_a_tile_grid_names_its_image():
    grid = TileGrid(1000, 700, 512, 512)
    assert grid == TileGrid.for_image(1000, 700, 512, 512)
    assert (grid.tiles_x, grid.tiles_y, grid.tile_count) == (2, 2, 4)
    # the same 2x2 tiles of 512x512 on another image are another grid
    assert grid != TileGrid(1024, 1024, 512, 512)
    assert dataclasses.replace(grid, width=1025).tile_count == 6
    for sizes in ((0, 700, 512, 512), (1000, 700, 512, 0)):
        with pytest.raises(ValueError, match="must be >= 1"):
            TileGrid(*sizes)


def test_tiles_partition_image_exactly():
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = int(rng.integers(1, 80))
        h = int(rng.integers(1, 80))
        tw = int(rng.integers(1, 40))
        th = int(rng.integers(1, 40))
        grid = TileGrid.for_image(w, h, tw, th)
        cover = np.zeros((h, w), dtype=np.int32)
        for i in range(grid.tile_count):
            x, y, bw, bh = tile_bounds(grid, i)
            assert bw >= 1 and bh >= 1
            cover[y : y + bh, x : x + bw] += 1
        assert (cover == 1).all()


def test_scene_determinism_and_counts():
    img1, gt1 = generate_scene(7, 256, 256, 5)
    img2, gt2 = generate_scene(7, 256, 256, 5)
    assert img1 == img2 and gt1 == gt2
    assert len(gt1) == 5
    for b in gt1:
        assert 0 <= b.x and b.x + b.w <= 256
        assert 0 <= b.y and b.y + b.h <= 256
        assert b.w >= 1 and b.h >= 1
    img3, _ = generate_scene(8, 256, 256, 5)
    assert img1 != img3


def test_scene_background_is_the_whole_scene_hash():
    # more pixels than one hashing block, and a partial last block
    w, h = 300, 260
    img, _ = generate_scene(3, w, h, 0)
    base = np.uint64(rng.mix64(rng.stream_key(3, rng.DOMAIN_PIXEL)))
    noise = rng.mix64_array(np.arange(w * h, dtype=np.uint64) ^ base)
    bits = (noise[:, None] >> np.arange(3, dtype=np.uint64)) & np.uint64(1)
    assert np.array_equal(img.pixels.reshape(-1, 3), bits.astype(np.uint8) * 255)


def test_scene_empty_and_invalid():
    img, gt = generate_scene(1, 64, 64, 0, (8, 16))
    assert gt == []
    assert img.components == 3
    with pytest.raises(ValueError, match="exceeds image"):
        generate_scene(1, 32, 32, 1, (8, 64))


def test_scene_pixel_ceiling_is_checked_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("pixels allocated before the ceiling check")

    monkeypatch.setattr(raster, "MAX_PIXELS", 100)
    assert generate_scene(1, 10, 10, 0, (2, 4))[0].width == 10
    for name in ("arange", "empty", "zeros"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(ValueError, match="scene of 11x10 exceeds 100 pixels"):
        generate_scene(1, 11, 10, 0, (2, 4))


def test_scene_objects_distinct_from_background():
    img, gt = generate_scene(21, 128, 128, 3, (16, 24))
    for b in gt:
        block = img.pixels[b.y : b.y + b.h, b.x : b.x + b.w]
        assert set(np.unique(block).tolist()) <= {24, 231}


def test_ground_truth_csv_round_trip(tmp_path):
    boxes = [GroundTruthBox(0, 1, 2, 3, 4, 5), GroundTruthBox(1, 0, 9, 9, 1, 1)]
    p = tmp_path / "gt.csv"
    save_ground_truth(p, boxes)
    assert load_ground_truth(p) == boxes
    p.write_text("object_id,class_id,x,y,w,h\n0,1,2,3,bad,5\n")
    with pytest.raises(ImageIOError, match="line 2"):
        load_ground_truth(p)
    p.write_text("wrong,header\n")
    with pytest.raises(ImageIOError, match="header"):
        load_ground_truth(p)


def test_ground_truth_names_path_and_line_of_unreadable_rows(tmp_path):
    p = tmp_path / "gt.csv"
    header = b"object_id,class_id,x,y,w,h\n"
    # a field past the csv module's 131,072-character limit
    p.write_bytes(header + b"0,1,2,3,4," + b"5" * 200_000 + b"\n")
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line 2: field larger than")):
        load_ground_truth(p)
    p.write_bytes(header + b"0,1,2,3,4,5\n1,1,2,3,\xff,5\n")
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line 3: not UTF-8")):
        load_ground_truth(p)


def test_a_degenerate_ground_truth_box_names_path_and_line(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_text("object_id,class_id,x,y,w,h\n0,1,2,3,4,5\n1,1,2,3,0,5\n")
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line 3: degenerate ground-truth box 0x5")):
        load_ground_truth(p)


def test_a_ground_truth_box_outside_the_frame_is_refused_by_name():
    # centred left of the image, this box's home column was negative and
    # wrapped to the row above: tile 3 of a 4x4 grid of 64 px tiles
    with pytest.raises(ValueError, match=re.escape("object 0 at (-30, 70) size 20x20 lies outside")):
        GroundTruthBox(0, 0, -30, 70, 20, 20)
    for x, y, w, h in [(math.nan, 0, 4, 4), (0, 0, 4, math.nan), (math.inf, 0, 4, 4),
                       (0, 0, math.inf, 4), (2**70, 0, 4, 4), (0, 2**70, 4, 4), (0, 0, 4, 2**70),
                       (MAX_PIXELS - 3, 0, 4, 4)]:
        with pytest.raises(ValueError, match=re.escape(f"lies outside 0..{MAX_PIXELS}")):
            GroundTruthBox(7, 0, x, y, w, h)
    assert GroundTruthBox(7, 0, MAX_PIXELS - 4, 0, 4, MAX_PIXELS).x == MAX_PIXELS - 4


def test_a_ground_truth_box_holds_integers():
    for args, field, value in (((0, 1, 10.5, 3, 4, 4), "x", 10.5),
                               ((0, 1.5, 10, 3, 4, 4), "class_id", 1.5),
                               ((3.0, 1, 10, 3, 4, 4), "object_id", 3.0),
                               ((0, 1, 10, 3, 4.0, 4), "w", 4.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"ground-truth object {args[0]} has {field} {value}, not an integer")):
            GroundTruthBox(*args)
    box = GroundTruthBox(np.int64(3), np.int32(1), np.uint16(10), 3, 4, 4)
    assert (box.object_id, box.class_id, box.x) == (3, 1, 10)


def test_ground_truth_outside_the_frame_names_path_and_line(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_text("object_id,class_id,x,y,w,h\n0,1,-1,3,4,5\n")
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line 2: ground-truth object 0 at (-1, 3)")):
        load_ground_truth(p)



def test_a_ground_truth_class_id_outside_int64_names_path_and_line(tmp_path):
    assert GroundTruthBox(0, 2**63 - 1, 0, 0, 4, 4).class_id == 2**63 - 1
    p = tmp_path / "gt.csv"
    for big in (10**30, 2**63, -(2**63) - 1):
        p.write_text(f"object_id,class_id,x,y,w,h\n0,1,2,3,4,5\n9,{big},2,3,4,5\n")
        with pytest.raises(ImageIOError, match=re.escape(
                f"{p}: line 3: ground-truth object 9 has class id {big}, outside int64")):
            load_ground_truth(p)

def test_a_ground_truth_csv_with_a_bad_header_is_refused_unread(tmp_path):
    # a 60 MB file whose first line is not the header: only that line is read
    p = tmp_path / "gt.csv"
    _sparse(p, b"object_id,class,x,y,w,h\n", 60 << 20)

    def refused():
        with pytest.raises(ImageIOError, match=re.escape(
                f"{p}: bad ground-truth header ['object_id', 'class', 'x', 'y', 'w', 'h']")):
            load_ground_truth(p)

    assert _traced_peak(refused) < 1 << 20


def test_a_ground_truth_csv_whose_first_line_never_ends_is_refused_unread(tmp_path):
    # a 60 MB file with no line end: only its first 64 KiB are read
    p = tmp_path / "gt.csv"
    _sparse(p, b"object_id,class", 60 << 20)
    longer = re.escape(f"{p}: line 1: ground-truth header longer than 65536 bytes")

    def refused():
        with pytest.raises(ImageIOError, match=longer):
            load_ground_truth(p)

    assert _traced_peak(refused) < 1 << 20
    # a header line that ends on the 64 KiB limit, or a file that does, is read
    prefix = b"object_id,class_id,x,y,w,"
    line = prefix + b"h" * ((1 << 16) - len(prefix) - 1) + b"\n"
    bad = re.escape(f"{p}: bad ground-truth header ['object_id', 'class_id', 'x', 'y', 'w', 'hhh")
    for data in (line + b"0,1,2,3,4,5\n", line[:-1] + b"h"):
        p.write_bytes(data)
        with pytest.raises(ImageIOError, match=bad):
            load_ground_truth(p)
    # one byte more, with or without a line end after it, is refused
    for data in (line[:-1] + b"h\n0,1,2,3,4,5\n", line[:-1] + b"hh"):
        p.write_bytes(data)
        with pytest.raises(ImageIOError, match=longer):
            load_ground_truth(p)


def _csv_with_bad_bytes(rows, at, cut=0):
    """The ground-truth header, 7 blank lines and ``rows`` rows with a euro sign, spoiled.

    Bytes ``at`` become 0xFF and the last ``cut`` bytes are dropped. The
    blank lines put the euro sign of row 4095 on bytes 65534..65536, so
    it straddles the first 64 KiB. Returns the bytes and the line of the
    first byte that is not UTF-8.
    """
    data = bytearray(b"object_id,class_id,x,y,w,h\n" + b"\n" * 7
                     + "0,1,2,3,4,5 \u20ac\n".encode() * rows)
    assert data[(1 << 16) - 2 : (1 << 16) + 1] == "\u20ac".encode()
    for pos in at:
        data[pos] = 0xFF
    data = bytes(data[: len(data) - cut])
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data, data.count(b"\n", 0, exc.start) + 1
    raise AssertionError("the bytes are UTF-8")


def _read_rows(path):
    """The rows of a ground-truth CSV file, unparsed."""
    return raster.read_csv_records(path, ["object_id", "class_id", "x", "y", "w", "h"],
                                   "ground-truth", lambda row: row, ImageIOError)


@pytest.mark.parametrize("at, cut", [
    # in the first 64 KiB; the straddling euro sign's second byte, which
    # ends the first 64 KiB, and its third, which starts the next; the
    # newline after it; far past the reader's buffer; two spoiled bytes;
    # and a file that ends inside its last character
    ([30], 0), ([(1 << 16) - 1], 0), ([1 << 16], 0), ([(1 << 16) + 1], 0),
    ([500_000], 0), ([70_000, 600_000], 0), ([], 2),
])
def test_the_first_byte_that_is_not_utf8_names_its_line(tmp_path, at, cut):
    data, line = _csv_with_bad_bytes(40_000, at, cut)
    p = tmp_path / "gt.csv"
    p.write_bytes(data)
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line {line}: not UTF-8 text")):
        _read_rows(p)


def test_a_csv_pipe_is_read_whole(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    good = b"object_id,class_id,x,y,w,h\n0,1,2,3,4,5\n"
    bad, line = _csv_with_bad_bytes(10_000, [100_000])
    for data in (good, bad):
        writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
        writer.start()
        if data is good:
            assert load_ground_truth(fifo) == [GroundTruthBox(0, 1, 2, 3, 4, 5)]
        else:
            with pytest.raises(ImageIOError, match=re.escape(f"{fifo}: line {line}: not UTF-8")):
                _read_rows(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_a_ground_truth_row_with_no_line_end_is_refused_at_its_line(tmp_path):
    # a sparse 8 MB file: a good header, a row that starts and never ends
    p = tmp_path / "gt.csv"
    _sparse(p, b"object_id,class_id,x,y,w,h\n0,1", 8 << 20)

    def refused():
        with pytest.raises(ImageIOError, match=re.escape(
                f"{p}: line 2: longer than {1 << 20} characters")):
            load_ground_truth(p)

    assert _traced_peak(refused) < 4 << 20


def test_a_csv_error_is_reported_in_line_order(tmp_path):
    # a bad value on line 2 comes before a byte that is not UTF-8 on line 3
    p = tmp_path / "gt.csv"
    p.write_bytes(b"object_id,class_id,x,y,w,h\n0,1,2,3,bad,5\n1,1,2,3,\xff,5\n")
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line 2: invalid literal")):
        load_ground_truth(p)


def test_a_csv_with_bare_carriage_returns_loads(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_bytes(b"object_id,class_id,x,y,w,h\r0,1,2,3,4,5\r\r1,0,9,9,1,1\r")
    assert load_ground_truth(p) == [GroundTruthBox(0, 1, 2, 3, 4, 5),
                                    GroundTruthBox(1, 0, 9, 9, 1, 1)]
    p.write_bytes(b"object_id,class_id,x,y,w,h\r0,1,2,3,4,5\r1,0,9,9,0,1\r")
    with pytest.raises(ImageIOError, match=re.escape(f"{p}: line 3: degenerate")):
        load_ground_truth(p)


def test_text_lines_holds_a_line_of_at_most_line_max_characters(tmp_path):
    # the bound counts characters, line end included; a CRLF is one line end
    limit = raster._LINE_MAX
    p = tmp_path / "lines.txt"
    for lines in (["x" * (limit - 1) + "\n", "next\n"], ["€" * (limit - 2) + "\r\n", "next"],
                  ["first\r", "x" * limit]):
        p.write_bytes("".join(lines).encode())
        with open(p, "rb") as fh:
            assert list(raster.text_lines(fh, p)) == lines
    for text in ("x" * limit + "\n", "x" * (limit - 1) + "\r\n", "x" * (limit + 1)):
        p.write_bytes(f"first\n{text}".encode())
        with open(p, "rb") as fh, pytest.raises(raster._LineError, match=re.escape(
                f"{p}: line 2: longer than {limit} characters")):
            list(raster.text_lines(fh, p))


_WIDE = st.integers(-(2**70), 2**70)
_WIDE_COORD = st.one_of(st.integers(-40, 300), _WIDE)
_WIDE_SIZE = st.one_of(st.integers(1, 120), st.integers(1, 2**70))


@given(object_id=_WIDE, x=_WIDE_COORD, y=_WIDE_COORD, w=_WIDE_SIZE, h=_WIDE_SIZE)
@settings(max_examples=300, deadline=None)
def test_a_ground_truth_box_is_in_the_frame_or_refused_by_name(object_id, x, y, w, h):
    in_frame = 0 <= x and 0 <= y and x + w <= MAX_PIXELS and y + h <= MAX_PIXELS
    try:
        box = GroundTruthBox(object_id, 0, x, y, w, h)
    except ValueError as exc:
        assert not in_frame
        assert str(exc) == (f"ground-truth object {object_id} at ({x}, {y}) size {w}x{h} "
                            f"lies outside 0..{MAX_PIXELS}")
    else:
        assert in_frame and (box.x, box.y, box.w, box.h) == (x, y, w, h)


_PNM_FILES = st.one_of(
    st.binary(),
    st.tuples(st.sampled_from([b"P5", b"P6", b"P7"]), st.integers(0, 9), st.integers(0, 9),
              st.sampled_from([0, 1, 255, 256, 10**30]), st.binary(max_size=300)).map(
        lambda t: b"%s %d %d %d\n" % t[:4] + t[4]),
)
_GT_FILES = st.one_of(
    st.binary(),
    st.text().map(lambda t: ("object_id,class_id,x,y,w,h\n" + t).encode("utf-8", "surrogatepass")),
    st.lists(st.lists(st.sampled_from(["0", "1", "-3", "x", "", "1e3", "9" * 5000]),
                      max_size=7), max_size=4).map(
        lambda rows: "\n".join(["object_id,class_id,x,y,w,h", *map(",".join, rows)]).encode()),
)


@pytest.mark.parametrize(
    "reader, files",
    [(load_image, _PNM_FILES), (load_ground_truth, _GT_FILES)],
    ids=["image", "ground_truth"],
)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_file_loads_or_raises_image_io_error(tmp_path, reader, files, data):
    p = tmp_path / "fuzz.bin"
    p.write_bytes(data.draw(files))
    try:
        reader(p)
    except ImageIOError as exc:
        assert type(exc) is ImageIOError and str(p) in str(exc)
