"""Per-object oracle detection and human annotation: the references.

These are the bodies ``tilecast.annotate.oracle_detect`` and
``tilecast.annotate.human_annotate`` had before they worked on all
ground-truth boxes of a call at once: one ``rng.Stream`` and one
``normal_pair`` per object, and one scan of the chosen tiles per box.
The oracle covers every tile of its grid. On any input the array
versions return an equal ``AnnotationSet`` or raise the same exception
type.
"""

from tilecast import rng
from tilecast.annotate import (
    _FP_SIZE_MAX,
    _FP_SIZE_MIN,
    _NUM_CLASSES,
    SOURCE_DL,
    SOURCE_HUM,
    AnnotationSet,
    DetectionBox,
)
from tilecast.raster import tile_bounds


def _center_tile(box, grid):
    col = min(int((box.x + box.w / 2) // grid.tile_w), grid.tiles_x - 1)
    row = min(int((box.y + box.h / 2) // grid.tile_h), grid.tiles_y - 1)
    return row * grid.tiles_x + col


def _clamp_box(x, y, w, h, image_w, image_h):
    w = max(1.0, min(w, float(image_w)))
    h = max(1.0, min(h, float(image_h)))
    x = min(max(x, 0.0), image_w - w)
    y = min(max(y, 0.0), image_h - h)
    return x, y, w, h


def reference_oracle_detect(gt, resolution, model, seed, grid):
    if not 1 <= resolution <= model.levels:
        raise ValueError(f"resolution {resolution} outside 1..{model.levels}")
    scale = 2 ** (model.levels - resolution)
    jitter_std = model.jitter * scale
    p = model.detect_p[resolution - 1]
    c_mean = model.conf_mean[resolution - 1]

    boxes = []
    for g in gt:
        home = _center_tile(g, grid)
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
            grid.width,
            grid.height,
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
        for t in range(grid.tile_count):
            st = rng.Stream(seed, rng.DOMAIN_FALSE_POSITIVE, t, resolution)
            for _ in range(st.poisson(model.fp_rate)):
                tx, ty, tw, th = tile_bounds(grid, t)
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


def reference_human_annotate(tiles, gt, grid):
    chosen = list(dict.fromkeys(tiles))
    for t in chosen:
        if not 0 <= t < grid.tile_count:
            raise ValueError(f"annotation of tile {t}, off the grid of {grid.tile_count} tiles")
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
