import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilecast.annotate import (
    AnnotationSet,
    DetectionBox,
    DetectorModel,
    FileDetector,
    OracleDetector,
    file_detect,
    human_annotate,
    oracle_detect,
    save_detections,
)
from tilecast.raster import MAX_PIXELS, GroundTruthBox, TileGrid, generate_scene

from reference_annotate import reference_human_annotate, reference_oracle_detect


def perfect_model(levels=5):
    return DetectorModel(
        detect_p=(1.0,) * levels,
        conf_mean=(0.8,) * levels,
        conf_sigma=0.0,
        jitter=0.0,
        fp_rate=0.0,
    )


def scatter_gt(n, width, height, rng, size=10):
    boxes = []
    for i in range(n):
        x = int(rng.integers(0, width - size))
        y = int(rng.integers(0, height - size))
        boxes.append(GroundTruthBox(i, int(rng.integers(0, 3)), x, y, size, size))
    return boxes


def test_perfect_model_detects_everything_exactly():
    grid = TileGrid.for_image(256, 256, 64, 64)
    gt = [GroundTruthBox(0, 1, 10, 10, 20, 20), GroundTruthBox(1, 2, 200, 130, 30, 12)]
    anns = oracle_detect(gt, 5, perfect_model(), 0, grid)
    assert len(anns) == 2
    for b, g in zip(sorted(anns.boxes, key=lambda b: b.class_id), gt):
        assert (b.x, b.y, b.w, b.h) == (g.x, g.y, g.w, g.h)
        assert b.confidence == 0.8
        assert b.source == "DL"


def test_zero_probability_detects_nothing():
    grid = TileGrid.for_image(128, 128, 64, 64)
    gt = [GroundTruthBox(0, 0, 10, 10, 20, 20)]
    model = DetectorModel(detect_p=(0.0,), conf_mean=(0.5,), fp_rate=0.0)
    assert len(oracle_detect(gt, 1, model, 0, grid)) == 0


def test_detection_fraction_tracks_probability():
    rng = np.random.default_rng(0)
    grid = TileGrid.for_image(1024, 1024, 128, 128)
    gt = scatter_gt(1000, 1024, 1024, rng)
    model = DetectorModel(detect_p=(0.7,), conf_mean=(0.6,), fp_rate=0.0)
    for seed in range(5):
        anns = oracle_detect(gt, 1, model, seed, grid)
        assert 0.65 <= len(anns) / 1000 <= 0.75


def test_oracle_is_deterministic():
    rng = np.random.default_rng(1)
    grid = TileGrid.for_image(512, 512, 128, 128)
    gt = scatter_gt(50, 512, 512, rng)
    model = DetectorModel.default(5)
    a = oracle_detect(gt, 3, model, 42, grid)
    b = oracle_detect(gt, 3, model, 42, grid)
    assert a == b
    c = oracle_detect(gt, 3, model, 43, grid)
    assert a != c


def test_boxes_stay_inside_image_bounds():
    grid = TileGrid.for_image(300, 200, 64, 64)
    rng = np.random.default_rng(2)
    gt = scatter_gt(40, 300, 200, rng, size=14)
    model = DetectorModel(
        detect_p=(1.0,) * 5, conf_mean=(0.5,) * 5, conf_sigma=0.3, jitter=3.0, fp_rate=0.3
    )
    for res in (1, 3, 5):
        anns = oracle_detect(gt, res, model, 7, grid)
        for b in anns.boxes:
            assert 0 <= b.x and b.x + b.w <= 300
            assert 0 <= b.y and b.y + b.h <= 200
            assert 0.0 <= b.confidence <= 1.0


def test_monotone_fidelity_across_resolutions():
    # expected detected fraction is nondecreasing in resolution level
    grid = TileGrid.for_image(512, 512, 128, 128)
    rng = np.random.default_rng(3)
    gt = scatter_gt(20, 512, 512, rng)
    model = DetectorModel.default(5)
    means = []
    for res in range(1, 6):
        hits = [
            len(oracle_detect(gt, res, model, seed, grid))
            for seed in range(500)
        ]
        means.append(sum(hits) / (500 * len(gt)))
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.02


def test_false_positive_rate():
    grid = TileGrid.for_image(1024, 1024, 64, 64)  # 256 tiles
    model = DetectorModel(detect_p=(1.0,), conf_mean=(0.6,), fp_rate=0.5)
    total = 0
    for seed in range(10):
        anns = oracle_detect([], 1, model, seed, grid)
        total += len(anns)
    mean_per_tile = total / (10 * grid.tile_count)
    assert 0.4 < mean_per_tile < 0.6


def test_human_annotate_cases():
    grid = TileGrid.for_image(256, 256, 64, 64)
    gt = [
        GroundTruthBox(0, 0, 10, 10, 20, 20),     # tile 0
        GroundTruthBox(1, 1, 20, 30, 10, 10),     # tile 0
        GroundTruthBox(2, 2, 60, 10, 20, 20),     # straddles tiles 0 and 1
        GroundTruthBox(3, 0, 200, 200, 20, 20),   # tile 15
    ]
    assert len(human_annotate([], gt, grid)) == 0
    anns = human_annotate([0], gt, grid)
    assert len(anns) == 3
    assert all(b.confidence == 1.0 and b.source == "HUM" for b in anns.boxes)
    both = human_annotate([0, 1], gt, grid)
    assert len(both) == 3  # straddling box deduplicated
    assert {(b.x, b.y) for b in both.boxes} == {(10.0, 10.0), (20.0, 30.0), (60.0, 10.0)}


def test_human_annotate_refuses_a_tile_off_its_grid():
    grid = TileGrid.for_image(256, 256, 128, 128)
    gt = [GroundTruthBox(0, 0, 10, 10, 20, 20), GroundTruthBox(1, 0, 300, 300, 20, 20)]
    for tiles, off in (([20], 20), ([-1], -1), ([0, 4, 1], 4), ([3, 3, 12, -2], 12)):
        for truth in (gt, []):
            with pytest.raises(ValueError, match=re.escape(f"tile {off}, off the grid of 4 tiles")):
                human_annotate(tiles, truth, grid)


def test_human_annotate_recall_on_chosen_tiles_is_total():
    rng = np.random.default_rng(4)
    grid = TileGrid.for_image(512, 512, 64, 64)
    gt = scatter_gt(60, 512, 512, rng)
    chosen = [3, 17, 42]
    anns = human_annotate(chosen, gt, grid)
    got_ids = {(b.x, b.y) for b in anns.boxes}
    for g in gt:
        for t in chosen:
            row, col = divmod(t, grid.tiles_x)
            tx, ty = col * 64, row * 64
            if g.x < tx + 64 and g.x + g.w > tx and g.y < ty + 64 and g.y + g.h > ty:
                assert (float(g.x), float(g.y)) in got_ids
                break


def test_annotation_set_validates_human_confidence():
    with pytest.raises(ValueError, match="confidence 1.0"):
        AnnotationSet((DetectionBox(0, 0, 1, 1, 2, 2, 0.5, "HUM"),))


_COORD = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6),
                   st.integers(0, 2**20).map(float))
_SIDE = st.one_of(st.just(1.0), st.floats(1, 1e6))
_BOX = st.one_of(
    st.builds(DetectionBox, st.integers(0, 2**63 - 1), st.integers(-(2**63), 2**63 - 1), _COORD,
              _COORD, _SIDE, _SIDE, st.one_of(st.just(1.0), st.just(-0.0), st.floats(0, 1)),
              st.just("DL")),
    st.builds(DetectionBox, st.integers(0, 99), st.integers(0, 2), _COORD, _COORD, _SIDE, _SIDE,
              st.just(1.0), st.just("HUM")),
)


@given(a=st.lists(_BOX, max_size=6), b=st.lists(_BOX, max_size=6))
@settings(max_examples=200, deadline=None)
def test_annotation_set_columns_round_trip_the_boxes(a, b):
    one, other = AnnotationSet(a), AnnotationSet(tuple(b))
    assert one.boxes == tuple(a) and len(one) == len(a)
    assert repr(one) == f"AnnotationSet(boxes={tuple(a)!r})"  # -0.0 keeps its sign
    merged = one.merged_with(other)
    assert merged == AnnotationSet(one.boxes + other.boxes)
    assert repr(merged) == repr(AnnotationSet(tuple(a) + tuple(b)))
    columns = [getattr(merged, n) for n in ("tile", "class_id", "x", "y", "w", "h", "confidence")]
    assert AnnotationSet.from_columns(*columns, merged.human) == merged
    assert [c.dtype for c in columns] == [np.int64] * 2 + [np.float64] * 5
    assert not any(c.flags.writeable for c in columns)


@pytest.mark.parametrize("bad", [
    {"x": math.nan}, {"y": math.inf}, {"w": 0.5}, {"h": -math.inf}, {"confidence": 1.5},
    {"confidence": math.nan}, {"human": True, "confidence": 0.5},
])
def test_column_check_raises_what_the_first_bad_box_would(bad):
    good = {"tile": 0, "class_id": 1, "x": 2.0, "y": 3.0, "w": 4.0, "h": 5.0, "confidence": 0.5,
            "human": False}
    rows = [good, {**good, **bad}, {**good, "w": 0.0}]  # the second box is the first bad one
    columns = {name: [r[name] for r in rows] for name in good}
    row = {**good, **bad}
    with pytest.raises(ValueError) as want:
        DetectionBox(*list(row.values())[:-1], "HUM" if row["human"] else "DL")
    with pytest.raises(ValueError) as got:
        AnnotationSet.from_columns(**columns)
    assert type(got.value) is ValueError and str(got.value) == str(want.value)


def test_annotation_set_refuses_ids_outside_int64():
    for field, box in (("tile_index", DetectionBox(2**63, 0, 1, 1, 2, 2, 0.5, "DL")),
                       ("class_id", DetectionBox(0, -(2**63) - 1, 1, 1, 2, 2, 0.5, "DL"))):
        with pytest.raises(ValueError, match=f"{field} .* outside int64"):
            AnnotationSet((box,))


def test_file_detect_refuses_a_class_id_outside_int64(tmp_path):
    path = tmp_path / "d.csv"
    header = "tile_index,class_id,x,y,w,h,confidence,source\n"
    path.write_text(header + "0,9223372036854775807,1,1,4,2,0.5,DL\n")
    assert file_detect(path, TileGrid.for_image(256, 256, 64, 64)).class_id.tolist() == [2**63 - 1]
    for big in (10**30, 2**63, -(2**63) - 1):
        path.write_text(header + f"0,0,1,1,4,2,0.5,DL\n0,{big},1,1,4,2,0.5,DL\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: malformed value")):
            file_detect(path, TileGrid.for_image(256, 256, 64, 64))


def test_file_detect_round_trip_and_errors(tmp_path):
    grid = TileGrid.for_image(256, 256, 64, 64)
    path = tmp_path / "d.csv"
    path.write_text("tile_index,class_id,x,y,w,h,confidence,source\n")
    assert len(file_detect(path, grid)) == 0

    path.write_text(
        "tile_index,class_id,x,y,w,h,confidence,source\n3,0,100,100,40,20,0.85,DL\n"
    )
    anns = file_detect(path, grid)
    assert len(anns) == 1
    b = anns.boxes[0]
    assert (b.tile_index, b.class_id, b.x, b.w, b.confidence, b.source) == (3, 0, 100.0, 40.0, 0.85, "DL")

    path.write_text(
        "tile_index,class_id,x,y,w,h,confidence,source\n3,0,1,1,4,2,1.2,DL\n"
    )
    with pytest.raises(ValueError, match="line 2.*confidence"):
        file_detect(path, grid)
    path.write_text(
        "tile_index,class_id,x,y,w,h,confidence,source\n99,0,1,1,4,2,0.5,DL\n"
    )
    with pytest.raises(ValueError, match="line 2.*tile index"):
        file_detect(path, grid)


def test_file_detect_names_path_and_line_of_unreadable_rows(tmp_path):
    grid = TileGrid.for_image(256, 256, 64, 64)
    path = tmp_path / "d.csv"
    header = b"tile_index,class_id,x,y,w,h,confidence,source\n"
    good = b"3,0,100,100,40,20,0.85,DL\n"
    for row, message in (
        (b"3,0,1,1,4,2,0.5,HUM\n", "human annotations must have confidence 1.0"),
        (b"3,0,1,1,4,2," + b"5" * 200_000 + b",DL\n", "field larger than field limit"),
        (b"3,0,1,1,4,2,0.5,D\xc3L\n", "not UTF-8"),
    ):
        path.write_bytes(header + good + row)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {message}")) as info:
            file_detect(path, grid)
        assert type(info.value) is ValueError


def test_file_detect_names_an_unknown_source(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("tile_index,class_id,x,y,w,h,confidence,source\n3,0,1,1,4,2,0.5,XYZ\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: unknown source 'XYZ'")):
        file_detect(path, TileGrid.for_image(256, 256, 64, 64))


_DETECTION_FIELDS = ["0", "3", "99", "-1", "0.5", "1.0", "1.5", "nan", "inf", "DL", "HUM", "", "x"]


@given(st.one_of(
    st.binary(),
    st.text().map(lambda t: ("tile_index,class_id,x,y,w,h,confidence,source\n" + t).encode(
        "utf-8", "surrogatepass")),
    st.lists(st.lists(st.sampled_from(_DETECTION_FIELDS), min_size=7, max_size=9),
             max_size=4).map(lambda rows: "\n".join(
                 ["tile_index,class_id,x,y,w,h,confidence,source", *map(",".join, rows)]).encode()),
))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_file_detects_or_raises_value_error(tmp_path, content):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(content)
    try:
        file_detect(path, TileGrid.for_image(256, 256, 64, 64))
    except ValueError as exc:
        assert type(exc) is ValueError and str(path) in str(exc)


def test_detection_box_rejects_non_finite_coordinates(tmp_path):
    grid = TileGrid.for_image(256, 256, 64, 64)
    path = tmp_path / "d.csv"
    header = "tile_index,class_id,x,y,w,h,confidence,source\n"
    path.write_text(header + "0,0,nan,1,inf,nan,0.5,DL\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        file_detect(path, grid)
    good = ["5", "6", "4", "4"]
    for field in range(4):
        for bad in ("nan", "inf", "-inf"):
            row = good.copy()
            row[field] = bad
            path.write_text(header + "0,0," + ",".join(row) + ",0.5,DL\n")
            with pytest.raises(ValueError, match="line 2: non-finite"):
                file_detect(path, grid)
            coords = [float(v) for v in row]
            with pytest.raises(ValueError, match="non-finite"):
                DetectionBox(0, 0, *coords, 0.5, "DL")


def test_save_detections_round_trip(tmp_path):
    grid = TileGrid.for_image(256, 256, 64, 64)
    gt = [GroundTruthBox(0, 1, 10, 10, 20, 20)]
    anns = oracle_detect(gt, 5, perfect_model(), 0, grid)
    path = tmp_path / "out.csv"
    save_detections(path, anns)
    back = file_detect(path, grid)
    assert back.boxes == anns.boxes


def test_detector_interfaces_agree():
    grid = TileGrid.for_image(256, 256, 64, 64)
    rng = np.random.default_rng(5)
    gt = scatter_gt(10, 256, 256, rng)
    model = DetectorModel.default(5)
    oracle = OracleDetector(model, grid, 256, 256)
    direct = oracle_detect(gt, 2, model, 9, grid)
    assert oracle.detect(gt, 2, 9) == direct
    assert FileDetector(direct, grid).detect(gt, 5, 1) == direct


def test_file_detector_refuses_a_box_off_its_grid():
    grid = TileGrid.for_image(256, 256, 128, 128)
    for tile in (-1, 4):
        anns = AnnotationSet((DetectionBox(0, 0, 1, 1, 4, 4, 0.5, "DL"),
                              DetectionBox(tile, 0, 1, 1, 4, 4, 0.5, "DL")))
        with pytest.raises(ValueError, match=f"tile {tile}, off the grid of 4 tiles"):
            FileDetector(anns, grid)


def test_model_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        DetectorModel(detect_p=(0.9, 0.5), conf_mean=(0.5, 0.5))
    with pytest.raises(ValueError, match="same levels"):
        DetectorModel(detect_p=(0.5,), conf_mean=(0.5, 0.6))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        DetectorModel(detect_p=(0.5, 1.5), conf_mean=(0.5, 0.6))
    m = DetectorModel.default(5)
    assert m.detect_p == (0.3, 0.5, 0.7, 0.85, 0.95)
    assert DetectorModel.default(1).detect_p == (0.95,)


@pytest.mark.parametrize("name", ["conf_sigma", "jitter", "fp_rate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_model_refuses_a_non_finite_or_negative_spread(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        DetectorModel((0.5,), (0.5,), **{name: bad})


def _outcome(fn, *args):
    """An annotator's result as text, or what it raised."""
    try:
        return repr(fn(*args))
    except (ValueError, IndexError, OverflowError) as exc:
        return type(exc), str(exc)


_FAR = st.integers(-(2**70), 2**70)


@st.composite
def _in_frame(draw):
    """An edge and a length on one axis of the ground-truth frame: mostly near a small image."""
    x = draw(st.one_of(st.integers(0, 300), st.integers(0, MAX_PIXELS - 1)))
    w = draw(st.one_of(st.integers(1, 120), st.integers(1, MAX_PIXELS)))
    return x, min(w, MAX_PIXELS - x)


@st.composite
def _annotation_case(draw):
    """A grid, ground truth with wild ids anywhere in the frame, and a tile list."""
    width, height = draw(st.integers(1, 260)), draw(st.integers(1, 260))
    grid = TileGrid.for_image(width, height, draw(st.integers(8, 128)), draw(st.integers(8, 128)))
    gt = []
    for _ in range(draw(st.integers(0, 12))):
        (x, w), (y, h) = draw(_in_frame()), draw(_in_frame())
        gt.append(GroundTruthBox(draw(_FAR), draw(st.integers(0, 2)), x, y, w, h))
    in_range = st.integers(0, grid.tile_count - 1)
    tile = st.one_of(in_range, in_range, st.integers(-3, grid.tile_count + 2))
    tiles = draw(st.one_of(
        st.lists(in_range, max_size=2 * grid.tile_count),
        st.permutations(range(grid.tile_count)),
        st.lists(tile, max_size=2 * grid.tile_count),
    ))
    return width, height, grid, gt, list(tiles)


@given(
    case=_annotation_case(),
    levels=st.integers(1, 6),
    data=st.data(),
    seed=st.one_of(st.integers(0, 50), _FAR),
    fp_rate=st.sampled_from([0.0, 0.05, 2.0, 3.5]),
    spread=st.sampled_from([(0.08, 0.5), (0.0, 0.0), (0.3, 3.0)]),
    signed_zero=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_oracle_detect_equals_the_per_object_reference(
    case, levels, data, seed, fp_rate, spread, signed_zero
):
    _, _, grid, gt, _ = case
    base = DetectorModel.default(levels)
    conf_mean = (-0.0,) * levels if signed_zero else base.conf_mean
    model = DetectorModel(base.detect_p, conf_mean, *spread, fp_rate=fp_rate)
    resolution = data.draw(st.integers(1, levels))
    args = (gt, resolution, model, seed, grid)
    assert _outcome(oracle_detect, *args) == _outcome(reference_oracle_detect, *args)


@given(case=_annotation_case())
@settings(max_examples=400, deadline=None)
def test_human_annotate_equals_the_per_box_reference(case):
    _, _, grid, gt, tiles = case
    assert _outcome(human_annotate, tiles, gt, grid) == _outcome(
        reference_human_annotate, tiles, gt, grid)


def test_annotators_equal_the_references_on_a_dense_scene():
    _, gt = generate_scene(5, 1024, 1024, 120)
    grid = TileGrid.for_image(1024, 1024, 256, 256)
    model = DetectorModel.default(5)
    for resolution in range(1, 6):
        for seed in range(3):
            args = (gt, resolution, model, seed, grid)
            assert _outcome(oracle_detect, *args) == _outcome(reference_oracle_detect, *args)
    for tiles in (range(grid.tile_count), [15, 3, 3, 9, 0]):
        assert _outcome(human_annotate, tiles, gt, grid) == _outcome(
            reference_human_annotate, tiles, gt, grid)
