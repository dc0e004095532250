"""Detection data model and the two annotators.

The automated side is a seeded oracle: it knows the ground truth and
emits each box with a resolution-dependent probability, plus jitter,
confidence noise, and occasional false positives. It stands in for a
real detector (whose outputs can be replayed through the same pipeline
via ``file_detect``) while keeping every run bit-reproducible. The
human side is a perfect annotator; only its time is modeled, elsewhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

from . import rng
from .raster import GroundTruthBox, TileGrid, _csv_rows, tile_bounds

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
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError(
                f"non-finite detection box ({self.x}, {self.y}, {self.w}, {self.h})"
            )
        if self.w < 1 or self.h < 1:
            raise ValueError(f"degenerate detection box {self.w}x{self.h}")
        if self.source not in (SOURCE_DL, SOURCE_HUM):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == SOURCE_HUM and self.confidence != 1.0:
            raise ValueError("human annotations must have confidence 1.0")


@dataclass(frozen=True)
class AnnotationSet:
    """Detections; human boxes always carry confidence 1.0."""

    boxes: tuple[DetectionBox, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))

    def __len__(self) -> int:
        return len(self.boxes)

    def merged_with(self, other: "AnnotationSet") -> "AnnotationSet":
        return AnnotationSet(self.boxes + other.boxes)


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
        if self.conf_sigma < 0 or self.jitter < 0 or self.fp_rate < 0:
            raise ValueError("spread parameters must be nonnegative")

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


def _center_tile(box: GroundTruthBox, grid: TileGrid) -> int:
    col = min(int((box.x + box.w / 2) // grid.tile_w), grid.tiles_x - 1)
    row = min(int((box.y + box.h / 2) // grid.tile_h), grid.tiles_y - 1)
    return row * grid.tiles_x + col


def _clamp_box(x, y, w, h, image_w, image_h):
    w = max(1.0, min(w, float(image_w)))
    h = max(1.0, min(h, float(image_h)))
    x = min(max(x, 0.0), image_w - w)
    y = min(max(y, 0.0), image_h - h)
    return x, y, w, h


def oracle_detect(
    tiles: Sequence[int],
    gt: Sequence[GroundTruthBox],
    resolution: int,
    model: DetectorModel,
    seed: int,
    grid: TileGrid,
    image_w: int,
    image_h: int,
) -> AnnotationSet:
    """Simulate DL detection on the listed tiles at one resolution level.

    Each ground-truth box whose center falls in a listed tile is
    emitted with probability detect_p(resolution); draws come from a
    stream keyed on (seed, object_id, resolution), so output is
    identical for identical arguments no matter the call context.
    """
    if not 1 <= resolution <= model.levels:
        raise ValueError(f"resolution {resolution} outside 1..{model.levels}")
    tile_set = set(tiles)
    scale = 2 ** (model.levels - resolution)
    jitter_std = model.jitter * scale
    p = model.detect_p[resolution - 1]
    c_mean = model.conf_mean[resolution - 1]

    boxes = []
    for g in gt:
        home = _center_tile(g, grid)
        if home not in tile_set:
            continue
        st = rng.Stream(seed, rng.DOMAIN_DETECT, g.object_id, resolution)
        if st.uniform() >= p:
            continue
        gx, gy = st.normal_pair()
        gw, gh = st.normal_pair()
        gc, _ = st.normal_pair()
        x, y, w, h = _clamp_box(
            g.x + gx * jitter_std,
            g.y + gy * jitter_std,
            g.w + gw * jitter_std,
            g.h + gh * jitter_std,
            image_w,
            image_h,
        )
        conf = min(max(c_mean + model.conf_sigma * gc, 0.0), 1.0)
        boxes.append(
            DetectionBox(
                tile_index=home,
                class_id=g.class_id,
                x=x,
                y=y,
                w=w,
                h=h,
                confidence=conf,
                source=SOURCE_DL,
            )
        )

    if model.fp_rate > 0:
        for t in sorted(tile_set):
            st = rng.Stream(seed, rng.DOMAIN_FALSE_POSITIVE, t, resolution)
            for _ in range(st.poisson(model.fp_rate)):
                tx, ty, tw, th = tile_bounds(grid, t, image_w, image_h)
                w = float(_FP_SIZE_MIN + st.below(_FP_SIZE_MAX - _FP_SIZE_MIN + 1))
                h = float(_FP_SIZE_MIN + st.below(_FP_SIZE_MAX - _FP_SIZE_MIN + 1))
                w = min(w, float(tw))
                h = min(h, float(th))
                x = tx + st.below(max(int(tw - w), 0) + 1)
                y = ty + st.below(max(int(th - h), 0) + 1)
                gc, _ = st.normal_pair()
                conf = min(max(c_mean / 2 + model.conf_sigma * gc, 0.0), 1.0)
                boxes.append(
                    DetectionBox(
                        tile_index=t,
                        class_id=st.below(_NUM_CLASSES),
                        x=float(x),
                        y=float(y),
                        w=w,
                        h=h,
                        confidence=conf,
                        source=SOURCE_DL,
                    )
                )
    return AnnotationSet(tuple(boxes))


def human_annotate(
    tiles: Sequence[int], gt: Sequence[GroundTruthBox], grid: TileGrid
) -> AnnotationSet:
    """Perfect expert annotation of the chosen tiles.

    Emits every ground-truth box intersecting a chosen tile, once, with
    exact coordinates and confidence 1.0. Time accounting is the
    pipeline's job.
    """
    chosen = list(dict.fromkeys(tiles))
    boxes = []
    for g in gt:
        for t in chosen:
            row, col = divmod(t, grid.tiles_x)
            tx, ty = col * grid.tile_w, row * grid.tile_h
            if (
                g.x < tx + grid.tile_w
                and g.x + g.w > tx
                and g.y < ty + grid.tile_h
                and g.y + g.h > ty
            ):
                boxes.append(
                    DetectionBox(
                        tile_index=t,
                        class_id=g.class_id,
                        x=float(g.x),
                        y=float(g.y),
                        w=float(g.w),
                        h=float(g.h),
                        confidence=1.0,
                        source=SOURCE_HUM,
                    )
                )
                break
    return AnnotationSet(tuple(boxes))


_DETECTIONS_HEADER = ["tile_index", "class_id", "x", "y", "w", "h", "confidence", "source"]


def file_detect(path, grid: TileGrid) -> AnnotationSet:
    """Load replayed detector output from a detections CSV."""
    rows = _csv_rows(path, ValueError)
    _, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty detections file")
    if header != _DETECTIONS_HEADER:
        raise ValueError(f"{path}: bad detections header {header!r}")
    boxes = []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(_DETECTIONS_HEADER):
            raise ValueError(f"{path}: line {lineno}: expected 8 fields, got {len(row)}")
        try:
            tile_index = int(row[0])
            class_id = int(row[1])
            x, y, w, h, conf = (float(v) for v in row[2:7])
            source = row[7].strip()
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed value") from None
        if not 0 <= tile_index < grid.tile_count:
            raise ValueError(f"{path}: line {lineno}: tile index {tile_index} out of range")
        try:
            boxes.append(
                DetectionBox(
                    tile_index=tile_index,
                    class_id=class_id,
                    x=x,
                    y=y,
                    w=w,
                    h=h,
                    confidence=conf,
                    source=source,
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return AnnotationSet(tuple(boxes))


def save_detections(path, anns: AnnotationSet) -> None:
    """Write an AnnotationSet in the detections CSV format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_DETECTIONS_HEADER)
        for b in anns.boxes:
            writer.writerow(
                [b.tile_index, b.class_id, repr(b.x), repr(b.y), repr(b.w), repr(b.h), repr(b.confidence), b.source]
            )


class OracleDetector:
    """Detector interface backed by the seeded oracle model."""

    def __init__(self, model: DetectorModel, grid: TileGrid, image_w: int, image_h: int):
        self.model = model
        self.grid = grid
        self.image_w = image_w
        self.image_h = image_h

    def detect(self, tiles, gt, resolution, seed) -> AnnotationSet:
        return oracle_detect(
            tiles, gt, resolution, self.model, seed, self.grid, self.image_w, self.image_h
        )


class FileDetector:
    """Detector interface replaying a fixed annotation set.

    Detection is independent of resolution; boxes are filtered to the
    requested tiles so the pipeline sees only what it asked about.
    """

    def __init__(self, annotations: AnnotationSet):
        self.annotations = annotations

    def detect(self, tiles, gt, resolution, seed) -> AnnotationSet:
        tile_set = set(tiles)
        kept = tuple(b for b in self.annotations.boxes if b.tile_index in tile_set)
        return AnnotationSet(kept)
