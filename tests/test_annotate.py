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
from tilecast.raster import GroundTruthBox, TileGrid


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
    anns = oracle_detect(range(grid.tile_count), gt, 5, perfect_model(), 0, grid, 256, 256)
    assert len(anns) == 2
    for b, g in zip(sorted(anns.boxes, key=lambda b: b.class_id), gt):
        assert (b.x, b.y, b.w, b.h) == (g.x, g.y, g.w, g.h)
        assert b.confidence == 0.8
        assert b.source == "DL"


def test_zero_probability_detects_nothing():
    grid = TileGrid.for_image(128, 128, 64, 64)
    gt = [GroundTruthBox(0, 0, 10, 10, 20, 20)]
    model = DetectorModel(detect_p=(0.0,), conf_mean=(0.5,), fp_rate=0.0)
    assert len(oracle_detect([0, 1, 2, 3], gt, 1, model, 0, grid, 128, 128)) == 0


def test_detection_fraction_tracks_probability():
    rng = np.random.default_rng(0)
    grid = TileGrid.for_image(1024, 1024, 128, 128)
    gt = scatter_gt(1000, 1024, 1024, rng)
    model = DetectorModel(detect_p=(0.7,), conf_mean=(0.6,), fp_rate=0.0)
    for seed in range(5):
        anns = oracle_detect(range(grid.tile_count), gt, 1, model, seed, grid, 1024, 1024)
        assert 0.65 <= len(anns) / 1000 <= 0.75


def test_oracle_is_deterministic():
    rng = np.random.default_rng(1)
    grid = TileGrid.for_image(512, 512, 128, 128)
    gt = scatter_gt(50, 512, 512, rng)
    model = DetectorModel.default(5)
    a = oracle_detect(range(grid.tile_count), gt, 3, model, 42, grid, 512, 512)
    b = oracle_detect(range(grid.tile_count), gt, 3, model, 42, grid, 512, 512)
    assert a == b
    c = oracle_detect(range(grid.tile_count), gt, 3, model, 43, grid, 512, 512)
    assert a != c


def test_only_listed_tiles_are_annotated():
    grid = TileGrid.for_image(256, 256, 64, 64)  # 4x4 tiles
    gt = [GroundTruthBox(0, 0, 10, 10, 20, 20), GroundTruthBox(1, 0, 200, 200, 20, 20)]
    anns = oracle_detect([0], gt, 5, perfect_model(), 0, grid, 256, 256)
    assert len(anns) == 1
    assert anns.boxes[0].tile_index == 0


def test_boxes_stay_inside_image_bounds():
    grid = TileGrid.for_image(300, 200, 64, 64)
    rng = np.random.default_rng(2)
    gt = scatter_gt(40, 300, 200, rng, size=14)
    model = DetectorModel(
        detect_p=(1.0,) * 5, conf_mean=(0.5,) * 5, conf_sigma=0.3, jitter=3.0, fp_rate=0.3
    )
    for res in (1, 3, 5):
        anns = oracle_detect(range(grid.tile_count), gt, res, model, 7, grid, 300, 200)
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
    tiles = range(grid.tile_count)
    means = []
    for res in range(1, 6):
        hits = [
            len(oracle_detect(tiles, gt, res, model, seed, grid, 512, 512))
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
        anns = oracle_detect(range(grid.tile_count), [], 1, model, seed, grid, 1024, 1024)
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
    anns = oracle_detect(range(grid.tile_count), gt, 5, perfect_model(), 0, grid, 256, 256)
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
    direct = oracle_detect(range(grid.tile_count), gt, 2, model, 9, grid, 256, 256)
    assert oracle.detect(range(grid.tile_count), gt, 2, 9) == direct
    replay = FileDetector(direct)
    filtered = replay.detect([direct.boxes[0].tile_index] if direct.boxes else [0], gt, 5, 1)
    assert all(b.tile_index == direct.boxes[0].tile_index for b in filtered.boxes)


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
