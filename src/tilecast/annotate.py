"""Detection data model and the two annotators.

The automated side is a seeded oracle: it knows the ground truth and
emits each box with a resolution-dependent probability, plus jitter,
confidence noise, and occasional false positives. It stands in for a
real detector (whose outputs can be replayed through the same pipeline
with a ``FileDetector``) while keeping every run bit-reproducible. Both
detectors name their tile ``grid``, which names the image it tiles, and
answer ``detect(gt, resolution, seed)`` for the whole image. The oracle
also names its model's depth, ``levels``; a replay names none. The
human side is a perfect annotator; only its time is modeled, elsewhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .raster import GroundTruthBox, TileGrid, read_csv_records, tile_bounds

SOURCE_DL = "DL"
SOURCE_HUM = "HUM"

_FP_SIZE_MIN = 8
_FP_SIZE_MAX = 32
_NUM_CLASSES = 3


@dataclass(frozen=True)
class DetectionBox:
    """One detection in full-resolution pixel coordinates."""

    tile_index: int
    class_id: int
    x: float
    y: float
    w: float
    h: float
    confidence: float
    source: str

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        isfinite = math.isfinite
        if not (
            isfinite(self.x) and isfinite(self.y) and isfinite(self.w) and isfinite(self.h)
        ):
            raise ValueError(
                f"non-finite detection box ({self.x}, {self.y}, {self.w}, {self.h})"
            )
        if self.w < 1 or self.h < 1:
            raise ValueError(f"degenerate detection box {self.w}x{self.h}")
        if self.source not in (SOURCE_DL, SOURCE_HUM):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == SOURCE_HUM and self.confidence != 1.0:
            raise ValueError("human annotations must have confidence 1.0")


_COLUMNS = ("tile", "class_id", "x", "y", "w", "h", "confidence", "human")
_INT64_MIN, _INT64_END = -(2**63), 2**63


def _id_column(field: str, values) -> np.ndarray:
    """``values`` as int64; the first that is not a whole number within int64 raises.

    Whole floats pass. A column numpy cannot cast to int64 as it stands
    (floats; Python ints past int64, which arrive as uint64 or objects)
    is checked value by value as Python numbers, which compare exactly.
    """
    column = np.asarray(values)
    if not np.can_cast(column.dtype, np.int64):
        for v in column.tolist():
            if not (v % 1 == 0 and _INT64_MIN <= v < _INT64_END):
                problem = "outside int64" if v % 1 == 0 else "is not a whole number"
                raise ValueError(f"{field} {v} {problem}")
    return column.astype(np.int64)


class AnnotationSet:
    """Detections as columns: one read-only array per field, in box order.

    ``tile`` and ``class_id`` are int64; ``x``, ``y``, ``w``, ``h`` and
    ``confidence`` are float64; ``human`` is bool, True for a human
    (``HUM``) box and False for a detector (``DL``) one. Human boxes
    always carry confidence 1.0.

    ``AnnotationSet(boxes)`` takes ``DetectionBox``es and builds their
    columns with ``from_columns``, as the annotators do, which checks
    them once. ``boxes`` is a per-box view, built from the columns on
    each access. Sets compare by their columns and are unhashable.
    """

    __slots__ = _COLUMNS
    __hash__ = None

    def __init__(self, boxes: Iterable[DetectionBox] = ()):
        boxes = tuple(boxes)
        fields = ("tile_index", "class_id", "x", "y", "w", "h", "confidence")
        built = self.from_columns(*([getattr(b, f) for b in boxes] for f in fields),
                                  [b.source == SOURCE_HUM for b in boxes])
        for name in _COLUMNS:
            setattr(self, name, getattr(built, name))

    def _put(self, name, column):
        column.flags.writeable = False
        setattr(self, name, column)

    @classmethod
    def _of(cls, *columns) -> "AnnotationSet":
        """A set of columns known to be good, in ``_COLUMNS`` order."""
        anns = cls.__new__(cls)
        for name, column in zip(_COLUMNS, columns):
            anns._put(name, column)
        return anns

    @classmethod
    def from_columns(cls, tile, class_id, x, y, w, h, confidence, human) -> "AnnotationSet":
        """A set from its columns, checked once with array operations.

        The tile and class columns must hold whole numbers within int64.
        The other checks are ``DetectionBox``'s: the first box that fails
        one raises the message building that box alone would.
        """
        ints = [_id_column(f, c) for f, c in (("tile_index", tile), ("class_id", class_id))]
        floats = [np.array(c, dtype=np.float64) for c in (x, y, w, h, confidence)]
        human = np.array(human, dtype=bool)
        x, y, w, h, confidence = floats
        if len({len(c) for c in (*ints, *floats, human)}) != 1:
            raise ValueError("columns of different lengths")
        good = (
            (0.0 <= confidence) & (confidence <= 1.0)
            & np.isfinite(x) & np.isfinite(y) & (1 <= w) & (w < math.inf) & (1 <= h) & (h < math.inf)
            & ((confidence == 1.0) | ~human)
        )
        if not good.all():
            i = int(good.argmin())
            row = [c[i].item() for c in (*ints, *floats)]
            DetectionBox(*row, SOURCE_HUM if human[i] else SOURCE_DL)  # raises its message
        return cls._of(*ints, *floats, human)

    @property
    def boxes(self) -> tuple[DetectionBox, ...]:
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return tuple(DetectionBox(*row[:-1], SOURCE_HUM if row[-1] else SOURCE_DL)
                     for row in rows)

    def __len__(self) -> int:
        return len(self.tile)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotationSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _COLUMNS)

    def __repr__(self) -> str:
        return f"AnnotationSet(boxes={self.boxes!r})"

    def merged_with(self, other: "AnnotationSet") -> "AnnotationSet":
        return AnnotationSet._of(
            *(np.concatenate((getattr(self, n), getattr(other, n))) for n in _COLUMNS))


@dataclass(frozen=True)
class DetectorModel:
    """Resolution-dependent fidelity profile of the simulated detector.

    ``detect_p[r-1]`` is the per-object detection probability at
    resolution level r, nondecreasing in r; ``conf_mean`` the matching
    mean confidence. Localization jitter has standard deviation
    ``jitter * 2**(levels - r)`` pixels, and each tile sprouts false
    positives at Poisson rate ``fp_rate``.
    """

    detect_p: tuple[float, ...]
    conf_mean: tuple[float, ...]
    conf_sigma: float = 0.08
    jitter: float = 0.5
    fp_rate: float = 0.05

    def __post_init__(self):
        if len(self.detect_p) != len(self.conf_mean) or not self.detect_p:
            raise ValueError("detect_p and conf_mean must cover the same levels")
        for t in (self.detect_p, self.conf_mean):
            if any(not 0 <= v <= 1 for v in t):
                raise ValueError("probability tables must lie in [0, 1]")
        if any(b < a for a, b in zip(self.detect_p, self.detect_p[1:])):
            raise ValueError("detect_p must be nondecreasing in resolution")
        for name in ("conf_sigma", "jitter", "fp_rate"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")

    @property
    def levels(self) -> int:
        return len(self.detect_p)

    @classmethod
    def default(cls, levels: int) -> "DetectorModel":
        """Default profile; at five levels: p = 0.3/0.5/0.7/0.85/0.95."""
        anchor_p = [0.3, 0.5, 0.7, 0.85, 0.95]
        anchor_c = [0.40, 0.50, 0.60, 0.72, 0.85]
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if levels == 1:
            return cls(detect_p=(anchor_p[-1],), conf_mean=(anchor_c[-1],))

        def interp(anchor, r):
            pos = (r - 1) * (len(anchor) - 1) / (levels - 1)
            lo = int(pos)
            hi = min(lo + 1, len(anchor) - 1)
            frac = pos - lo
            return round(anchor[lo] + (anchor[hi] - anchor[lo]) * frac, 6)

        return cls(
            detect_p=tuple(interp(anchor_p, r) for r in range(1, levels + 1)),
            conf_mean=tuple(interp(anchor_c, r) for r in range(1, levels + 1)),
        )


def _max(a, b):
    """Builtin ``max(a, b)`` elementwise: ``b`` only where ``b > a``.

    Unlike ``np.maximum`` it keeps ``a`` against a NaN ``b`` and keeps a
    -0.0 ``a`` against 0.0, as the builtin does.
    """
    return np.where(b > a, b, a)


def _min(a, b):
    """Builtin ``min(a, b)`` elementwise: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def oracle_detect(
    gt: Sequence[GroundTruthBox],
    resolution: int,
    model: DetectorModel,
    seed: int,
    grid: TileGrid,
) -> AnnotationSet:
    """Simulate DL detection on every tile of ``grid`` at one resolution level.

    Each ground-truth box is emitted with probability
    detect_p(resolution), on its home tile: the tile holding its center,
    with a center past the last column or row counted in that column or
    row. Draws come from a stream keyed on (seed, object_id,
    resolution), so output is identical for identical arguments no
    matter the call context.

    All boxes are worked at once. Their seven draws (the emit test and
    three normal pairs) come from ``rng.stream_draws``; the emit test,
    the jitter, the clamps and the confidence are float64 array
    operations in the order the per-object rule used, and the normals
    come from ``rng.normal_pairs``, whose log, sqrt, cos and sin are
    ``math``'s, so the boxes are the per-object rule's bit for bit. A
    tile sprouts false positives only when its first uniform exceeds
    exp(-fp_rate); only such tiles run their Poisson count and boxes on
    a ``rng.Stream``. The set's columns hold the hits in ground-truth
    order, then the false positives tile by tile.
    """
    if not 1 <= resolution <= model.levels:
        raise ValueError(f"resolution {resolution} outside 1..{model.levels}")
    scale = 2 ** (model.levels - resolution)
    jitter_std = model.jitter * scale
    p = model.detect_p[resolution - 1]
    c_mean = model.conf_mean[resolution - 1]

    # a ground-truth box lies in 0..MAX_PIXELS, so float64 holds it exactly
    xywh = np.array([(g.x, g.y, g.w, g.h) for g in gt], dtype=np.float64).reshape(-1, 4)
    cols = np.minimum((xywh[:, 0] + xywh[:, 2] / 2) // grid.tile_w, grid.tiles_x - 1)
    rows = np.minimum((xywh[:, 1] + xywh[:, 3] / 2) // grid.tile_h, grid.tiles_y - 1)
    homes = (rows * grid.tiles_x + cols).astype(np.int64)

    draws = rng.stream_draws(
        (seed, rng.DOMAIN_DETECT), [g.object_id for g in gt], (resolution,), 7
    )
    hits = np.flatnonzero(rng.uniforms(draws[:, 0]) < p)
    # draws 1-2, 3-4 and 5-6 are the pairs (gx, gy), (gw, gh) and (gc, unused)
    cosines, sines = rng.normal_pairs(draws[hits, 1::2], draws[hits, 2::2])
    gx, gw, gc = cosines.T
    gy, gh, _ = sines.T
    x, y, w, h = xywh[hits].T + np.array([gx, gy, gw, gh]) * jitter_std
    w = _max(1.0, _min(w, float(grid.width)))
    h = _max(1.0, _min(h, float(grid.height)))
    x = _min(_max(x, 0.0), grid.width - w)
    y = _min(_max(y, 0.0), grid.height - h)
    conf = _min(_max(c_mean + model.conf_sigma * gc, 0.0), 1.0)
    class_ids = np.array([g.class_id for g in gt], dtype=np.int64)
    columns = [homes[hits], class_ids[hits], x, y, w, h, conf]

    false_positives = []
    if model.fp_rate > 0:
        tiles = range(grid.tile_count)
        firsts = rng.stream_draws((seed, rng.DOMAIN_FALSE_POSITIVE), tiles, (resolution,), 1)
        # Knuth's count is 0 exactly when its first uniform is <= exp(-rate)
        sprouts = rng.uniforms(firsts[:, 0]) > math.exp(-model.fp_rate)
        for t in compress(tiles, sprouts.tolist()):
            st = rng.Stream(seed, rng.DOMAIN_FALSE_POSITIVE, t, resolution)
            tx, ty, tw, th = tile_bounds(grid, t)
            for _ in range(st.poisson(model.fp_rate)):
                w = float(_FP_SIZE_MIN + st.below(_FP_SIZE_MAX - _FP_SIZE_MIN + 1))
                h = float(_FP_SIZE_MIN + st.below(_FP_SIZE_MAX - _FP_SIZE_MIN + 1))
                w = min(w, float(tw))
                h = min(h, float(th))
                x = tx + st.below(max(int(tw - w), 0) + 1)
                y = ty + st.below(max(int(th - h), 0) + 1)
                gc, _ = st.normal_pair()
                conf = min(max(c_mean / 2 + model.conf_sigma * gc, 0.0), 1.0)
                class_id = st.below(_NUM_CLASSES)
                false_positives.append((t, class_id, float(x), float(y), w, h, conf))
    if false_positives:
        columns = [np.concatenate((c, f)) for c, f in zip(columns, zip(*false_positives))]
    return AnnotationSet.from_columns(*columns, np.zeros(len(columns[0]), dtype=bool))


def human_annotate(
    tiles: Sequence[int], gt: Sequence[GroundTruthBox], grid: TileGrid
) -> AnnotationSet:
    """Perfect expert annotation of the chosen tiles.

    Emits every ground-truth box intersecting a chosen tile, once, with
    exact coordinates and confidence 1.0; its tile is the first chosen
    tile it meets. A tile off ``grid`` raises ``ValueError``. Time
    accounting is the pipeline's job.
    """
    chosen = list(dict.fromkeys(tiles))
    off = [t for t in chosen if not 0 <= t < grid.tile_count]
    if off:
        raise ValueError(f"annotation of tile {off[0]}, off the grid of {grid.tile_count} tiles")
    if not chosen or not gt:
        return AnnotationSet()
    tiles = np.array(chosen, dtype=np.int64)
    rows, cols = np.divmod(tiles, grid.tiles_x)
    left, top = cols * grid.tile_w, rows * grid.tile_h
    # a ground-truth box lies in 0..MAX_PIXELS, so int64 and float64 hold it exactly
    cxywh = np.array([(g.class_id, g.x, g.y, g.w, g.h) for g in gt], dtype=np.int64)
    x, y, w, h = cxywh[:, 1:].T[:, :, None]
    meets = (x < left + grid.tile_w) & (x + w > left) & (y < top + grid.tile_h) & (y + h > top)
    hits = np.flatnonzero(meets.any(axis=1))
    return AnnotationSet.from_columns(
        tiles[meets[hits].argmax(axis=1)], cxywh[hits, 0], *cxywh[hits, 1:].T.astype(np.float64),
        np.ones(len(hits)), np.ones(len(hits), dtype=bool))


_DETECTIONS_HEADER = ["tile_index", "class_id", "x", "y", "w", "h", "confidence", "source"]


def file_detect(path, grid: TileGrid) -> AnnotationSet:
    """Load replayed detector output from a detections CSV."""

    def parse(row):
        if len(row) != len(_DETECTIONS_HEADER):
            raise ValueError(f"expected 8 fields, got {len(row)}")
        try:
            tile_index, class_id = int(row[0]), int(row[1])
            x, y, w, h, conf = (float(v) for v in row[2:7])
        except ValueError:
            raise ValueError("malformed value") from None
        if not _INT64_MIN <= class_id < _INT64_END:  # the class column is int64
            raise ValueError("malformed value")
        if not 0 <= tile_index < grid.tile_count:
            raise ValueError(f"tile index {tile_index} out of range")
        return DetectionBox(tile_index, class_id, x, y, w, h, conf, row[7].strip())

    boxes = read_csv_records(path, _DETECTIONS_HEADER, "detections", parse, ValueError)
    return AnnotationSet(tuple(boxes))


def save_detections(path, anns: AnnotationSet) -> None:
    """Write an AnnotationSet in the detections CSV format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_DETECTIONS_HEADER)
        # Python floats, whose repr is the shortest round trip ('1.0', not 'np.float64(1.0)')
        columns = (getattr(anns, name).tolist() for name in _COLUMNS)
        for tile, class_id, *xywhc, human in zip(*columns):
            writer.writerow([tile, class_id, *map(repr, xywhc), SOURCE_HUM if human else SOURCE_DL])


class OracleDetector:
    """Detector backed by the seeded oracle model; it annotates every tile of its grid.

    The image size must be the grid's; it is checked here and kept only
    on the grid.
    """

    def __init__(self, model: DetectorModel, grid: TileGrid, image_w: int, image_h: int):
        if (image_w, image_h) != (grid.width, grid.height):
            raise ValueError(f"image of {image_w}x{image_h} does not match its tile grid's "
                             f"{grid.width}x{grid.height}")
        self.model = model
        self.grid = grid

    @property
    def levels(self) -> int:
        return self.model.levels

    def detect(self, gt, resolution, seed) -> AnnotationSet:
        return oracle_detect(gt, resolution, self.model, seed, self.grid)


class FileDetector:
    """Detector replaying a fixed annotation set on the tile grid it names.

    A box whose tile is not on ``grid`` is refused here, once; ``detect``
    then returns the whole set, whatever the resolution and seed. It
    replays what it holds, so it names no depth: its ``levels`` is None.
    """

    levels = None

    def __init__(self, annotations: AnnotationSet, grid: TileGrid):
        off = annotations.tile[(annotations.tile < 0) | (annotations.tile >= grid.tile_count)]
        if off.size:
            raise ValueError(f"detection on tile {off[0]}, off the grid of {grid.tile_count} tiles")
        self.annotations = annotations
        self.grid = grid

    def detect(self, gt, resolution, seed) -> AnnotationSet:
        return self.annotations
