"""Images, tile geometry, PGM/PPM I/O, and synthetic scene generation.

Pixel data lives in a numpy uint8 array of shape (height, width,
components) — row-major, component-interleaved. Only binary portable
graymap/pixmap files (P5/P6, maxval 255) are read and written.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
from dataclasses import dataclass, field

import numpy as np

from . import rng

MAX_PIXELS = 1 << 26  # largest width * height generated, coded or parsed (8192^2)
_NOISE_BLOCK = 1 << 16  # pixels hashed per pass in generate_scene


class ImageIOError(ValueError):
    """A portable image or ground-truth file failed to parse or serialize."""


class Image:
    """An 8-bit raster with 1 or 3 interleaved components.

    Accepts a 2-D (grayscale) or 3-D (h, w, c) uint8 array; grayscale
    input is normalized to shape (h, w, 1). Equal by value, unhashable.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.dtype != np.uint8:
            raise ValueError(f"pixel samples must be uint8, got {arr.dtype}")
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ValueError(f"expected 2-D or 3-D pixel array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError(f"degenerate image shape {arr.shape}")
        self.pixels = np.ascontiguousarray(arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def components(self) -> int:
        return self.pixels.shape[2]

    @property
    def samples(self) -> bytes:
        """Raw interleaved sample bytes."""
        return self.pixels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height}x{self.components})"


@dataclass(frozen=True)
class TileGrid:
    """Fixed-size tiling of a ``width`` x ``height`` image; edge tiles are clipped.

    The tile counts follow from the four fields; they are worked out
    once, when the grid is built.
    """

    width: int
    height: int
    tile_w: int
    tile_h: int
    tiles_x: int = field(init=False, compare=False, repr=False)
    tiles_y: int = field(init=False, compare=False, repr=False)
    tile_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.tile_w < 1 or self.tile_h < 1:
            raise ValueError("tile dimensions must be >= 1")
        tiles_x, tiles_y = -(-self.width // self.tile_w), -(-self.height // self.tile_h)
        object.__setattr__(self, "tiles_x", tiles_x)
        object.__setattr__(self, "tiles_y", tiles_y)
        object.__setattr__(self, "tile_count", tiles_x * tiles_y)

    @classmethod
    def for_image(cls, width: int, height: int, tile_w: int, tile_h: int) -> "TileGrid":
        return cls(width, height, tile_w, tile_h)


@dataclass(frozen=True)
class GroundTruthBox:
    """One true object in full-resolution pixel coordinates.

    The box lies in the frame ``0..MAX_PIXELS`` on both axes, which holds
    every image side, so each coordinate is exact in int64 and in
    float64. ``class_id`` lies in int64, the annotators' class column;
    ``object_id`` is only an RNG key and any int.
    """

    object_id: int
    class_id: int
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"degenerate ground-truth box {self.w}x{self.h}")
        # written as one negated test so that a NaN fails it too
        if not (0 <= self.x and 0 <= self.y and self.x + self.w <= MAX_PIXELS
                and self.y + self.h <= MAX_PIXELS):
            raise ValueError(
                f"ground-truth object {self.object_id} at ({self.x}, {self.y}) size "
                f"{self.w}x{self.h} lies outside 0..{MAX_PIXELS}"
            )
        if not -(2**63) <= self.class_id < 2**63:
            raise ValueError(f"ground-truth object {self.object_id} has class id "
                             f"{self.class_id}, outside int64")


def tile_bounds(grid: TileGrid, index: int) -> tuple[int, int, int, int]:
    """(x, y, w, h) of a tile, clipped to the grid's image.

    Tile indices are row-major in [0, tile_count).
    """
    if not 0 <= index < grid.tile_count:
        raise IndexError(f"tile index {index} out of range 0..{grid.tile_count - 1}")
    row, col = divmod(index, grid.tiles_x)
    x = col * grid.tile_w
    y = row * grid.tile_h
    return x, y, min(grid.tile_w, grid.width - x), min(grid.tile_h, grid.height - y)


# Header tokens are separated by whitespace and by comments, which run
# from '#' through the end of the line (netpbm); one whitespace byte
# after maxval starts the raster.
_PNM_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PNM_HEADER = re.compile(
    rb"^(P[56])" + _PNM_SEP + rb"(\d+)" + _PNM_SEP + rb"(\d+)" + _PNM_SEP + rb"(\d+)\s"
)
_HEADER_MAX = 1 << 16  # bytes a PNM header (comments included) or a CSV header line may take


def load_image(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255.

    The header must end within the first 64 KiB. It is checked, pixel
    count and the file's size included, before the raster is read, once.
    A source that cannot report its size, such as a pipe, is read whole.
    """
    with open(path, "rb") as fh:
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        head = src.read(_HEADER_MAX)
        size = src.seek(0, io.SEEK_END)
        m = _PNM_HEADER.match(head)
        if m is None:
            if head[:2] in (b"P5", b"P6"):
                raise ImageIOError(f"{path}: malformed PNM header")
            raise ImageIOError(f"{path}: not a binary PGM/PPM (P5/P6) file")
        try:
            width, height, maxval = (int(v) for v in m.group(2, 3, 4))
        except ValueError:  # more digits than int() converts
            raise ImageIOError(f"{path}: malformed PNM header") from None
        if maxval != 255:
            raise ImageIOError(f"{path}: unsupported maxval {maxval} (must be 255)")
        if width < 1 or height < 1:
            raise ImageIOError(f"{path}: degenerate dimensions {width}x{height}")
        if width * height > MAX_PIXELS:
            raise ImageIOError(f"{path}: image of {width}x{height} exceeds {MAX_PIXELS} pixels")
        components = 1 if m.group(1) == b"P5" else 3
        expected = width * height * components
        found = size - m.end()
        if found == expected:
            src.seek(m.end())
            payload = src.read(expected)
            found = len(payload)  # fewer if the file shrank since its size was taken
    if found < expected:
        raise ImageIOError(f"{path}: truncated payload: expected {expected} bytes, found {found}")
    if found > expected:
        raise ImageIOError(f"{path}: trailing data after pixel payload")
    return Image(np.frombuffer(payload, dtype=np.uint8).reshape(height, width, components))


def save_image(img: Image, path) -> None:
    """Write as binary PGM/PPM; load_image(save_image(img)) == img."""
    if img.components == 1:
        magic = b"P5"
    elif img.components == 3:
        magic = b"P6"
    else:
        raise ImageIOError(
            f"unsupported component count {img.components} (PGM/PPM need 1 or 3)"
        )
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.samples)


_GT_HEADER = ["object_id", "class_id", "x", "y", "w", "h"]


def save_ground_truth(path, boxes: list[GroundTruthBox]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_GT_HEADER)
        for b in boxes:
            writer.writerow([b.object_id, b.class_id, b.x, b.y, b.w, b.h])


def read_csv_records(path, header: list[str], kind: str, parse, error: type[ValueError]) -> list:
    """``parse(row)`` of each non-blank record of a UTF-8 CSV file after ``header``.

    A missing or different header raises ``error`` naming the path and
    the ``kind`` of file. Bytes that are not UTF-8, rows the csv module
    refuses (an oversized field, say) and a ValueError or TypeError from
    ``parse`` raise ``error`` naming the path and the line. The file is
    read as a stream: the header is checked before any row is read, and
    each row is parsed as it is read, so no copy of the file is held. The
    header line, its line end included, or else the file, must end
    within the first 64 KiB; a longer header line raises ``error`` with
    nothing past them read. A source that cannot seek, such as a pipe,
    is read whole first.
    """
    with open(path, "rb") as fh:
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        head = src.read(_HEADER_MAX + 1)  # one byte past: a file may end at the limit
        if len(head) > _HEADER_MAX and not re.search(rb"[\r\n]", head[:_HEADER_MAX]):
            raise error(f"{path}: line 1: {kind} header longer than {_HEADER_MAX} bytes")
        src.seek(0)
        reader = csv.reader(io.TextIOWrapper(src, encoding="utf-8", newline=""))
        try:
            found = next(reader, None)
            if found == header:
                return [parse(row) for row in reader if row]
        except UnicodeDecodeError:
            raise error(f"{path}: line {_first_non_utf8_line(src)}: not UTF-8 text") from None
        except (csv.Error, ValueError, TypeError) as exc:
            raise error(f"{path}: line {reader.line_num}: {exc}") from None
    if found is None:
        raise error(f"{path}: empty {kind} file")
    raise error(f"{path}: bad {kind} header {found!r}")


def _first_non_utf8_line(src) -> int:
    """The line, counted from 1, of the first byte of binary ``src`` that is not UTF-8.

    ``src`` is read from its start in 64 KiB chunks, decoded and the text dropped.
    A character cut by a chunk's end is held by the decoder and holds no
    newline, so the newlines of the chunks already read count the lines
    before the failing chunk.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines = 1
    src.seek(0)
    for chunk in iter(lambda: src.read(1 << 16), b""):
        try:
            decoder.decode(chunk)
        except UnicodeDecodeError as exc:
            return lines + exc.object.count(b"\n", 0, exc.start)
        lines += chunk.count(b"\n")
    return lines  # the file ends inside a character


def load_ground_truth(path) -> list[GroundTruthBox]:
    return read_csv_records(
        path, _GT_HEADER, "ground-truth", lambda row: GroundTruthBox(*map(int, row)), ImageIOError
    )


def generate_scene(
    seed: int,
    width: int,
    height: int,
    object_count: int,
    size_range: tuple[int, int] = (24, 64),
) -> tuple[Image, list[GroundTruthBox]]:
    """Deterministic synthetic three-channel scene with ground truth.

    The background is per-pixel high-contrast noise (each channel flips
    between 0 and 255 independently), which keeps the encoded payload
    from collapsing and exercises every resolution level. Objects are
    solid axis-aligned rectangles whose channel values (24 / 231) never
    occur in the background. Output depends only on the arguments: the
    same bytes on every run and platform.
    """
    if width < 1 or height < 1:
        raise ValueError("scene dimensions must be >= 1")
    if width * height > MAX_PIXELS:
        raise ValueError(f"scene of {width}x{height} exceeds {MAX_PIXELS} pixels")
    if object_count < 0:
        raise ValueError("object_count must be >= 0")
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad size range {size_range}")
    if hi > width or hi > height:
        raise ValueError(
            f"object size {hi} exceeds image dimensions {width}x{height}"
        )

    base = np.uint64(rng.mix64(rng.stream_key(seed, rng.DOMAIN_PIXEL)))
    pix = np.empty((height * width, 3), dtype=np.uint8)
    # hash a block of pixels at a time: the uint64 temporaries stay at
    # 512 KiB each instead of 8 bytes per pixel of the whole scene
    for a in range(0, height * width, _NOISE_BLOCK):
        idx = np.arange(a, min(a + _NOISE_BLOCK, height * width), dtype=np.uint64)
        noise = rng.mix64_array(idx ^ base)
        for c in range(3):  # channel c uses bit c of the per-pixel hash
            np.multiply((noise >> np.uint64(c)) & np.uint64(1), 255,
                        out=pix[a : a + idx.size, c], casting="unsafe")
    pix = pix.reshape(height, width, 3)

    boxes = []
    for k in range(object_count):
        st = rng.Stream(seed, rng.DOMAIN_OBJECT, k)
        bw = lo + st.below(hi - lo + 1)
        bh = lo + st.below(hi - lo + 1)
        x = st.below(width - bw + 1)
        y = st.below(height - bh + 1)
        class_id = st.below(3)
        color = [231 if st.below(2) else 24 for _ in range(3)]
        pix[y : y + bh, x : x + bw] = color
        boxes.append(GroundTruthBox(object_id=k, class_id=class_id, x=x, y=y, w=bw, h=bh))
    return Image(pix), boxes
