import math
import os
import random

import numpy as np
import pytest

from reference_recall import reference_recall
from tilecast import codestream as cs_mod
from tilecast import config as cfg_mod
from tilecast import pipeline as pipeline_mod
from tilecast import scenario
from tilecast.annotate import (
    AnnotationSet,
    DetectionBox,
    DetectorModel,
    FileDetector,
    OracleDetector,
    human_annotate,
)
from tilecast.channel import INDEX_BYTES, ChannelSpec, bandwidth_budget
from tilecast.codestream import encode, size_of
from tilecast.pipeline import (
    BudgetPlan,
    _human_timeline,
    compute_budget,
    plan_budget,
    run_baseline,
    run_streamlined,
    select_tiles_for_human,
)
from tilecast.raster import GroundTruthBox, TileGrid, generate_scene


def brute_force_plan(sizes, tile_sizes, bw, mu, cap, tile_count, estimate="max"):
    feasible = [r for r in range(1, len(sizes) + 1) if sizes[r - 1] <= bw]
    if not feasible:
        return (None, 0)
    lr = max(feasible)
    slack = bw - sizes[lr - 1]
    if estimate == "max":
        per = max(tile_sizes)
        n = slack // per if per else tile_count
    else:
        total = sum(tile_sizes)
        n = slack * len(tile_sizes) // total if total else tile_count
    n = min(n, tile_count)
    if mu > 0:
        n = min(n, int(cap / mu))
    return (lr, int(n))


def brute_force_indexer(boxes, budget):
    order = sorted(range(len(boxes)), key=lambda i: (boxes[i].confidence, boxes[i].tile_index, i))
    out = []
    for i in order:
        t = boxes[i].tile_index
        if t not in out:
            out.append(t)
        if len(out) == budget:
            break
    return out[:budget]


def dl(tile, conf, ordinal=0):
    return DetectionBox(tile, 0, 10.0 * tile + ordinal, 5.0, 4.0, 4.0, conf, "DL")


def make_scene(seed=3, size=256, objects=8, tile=64, levels=3):
    img, gt = generate_scene(seed, size, size, objects, (16, 24))
    grid = TileGrid.for_image(size, size, tile, tile)
    return img, gt, grid, encode(img, grid, levels), levels


def test_budget_hand_example():
    sizes = [100_000, 400_000, 1_600_000, 6_400_000, 25_600_000]
    plan = plan_budget(sizes, [100_000] * 64, 2_000_000, 30.0, 300.0)
    assert plan.lr == 3
    assert plan.human_budget == 4


def test_budget_unconstrained_and_infeasible():
    sizes = [100, 200, 400]
    plan = plan_budget(sizes, [40, 50], 1_000_000, 30.0, 300.0)
    assert plan.lr == 3
    assert plan.human_budget == 2  # capped by the tile count
    plan = plan_budget(sizes, [40, 50], 50, 30.0, 300.0)
    assert plan.lr is None
    assert plan.human_budget == 0


def test_budget_against_brute_force():
    r = random.Random(11)
    for _ in range(10_000):
        levels = r.randrange(1, 7)
        sizes = sorted(r.randrange(1, 10_000) for _ in range(levels))
        tiles = r.randrange(1, 30)
        tile_sizes = [r.randrange(1, 800) for _ in range(tiles)]
        bw = r.randrange(0, 12_000)
        mu = r.choice([0.0, 1.0, 7.5, 30.0])
        cap = r.choice([0.0, 45.0, 300.0])
        estimate = r.choice(["max", "mean"])
        plan = plan_budget(sizes, tile_sizes, bw, mu, cap, estimate)
        lr, n = brute_force_plan(sizes, tile_sizes, bw, mu, cap, tiles, estimate)
        assert (plan.lr, plan.human_budget) == (lr, n)


def test_compute_budget_from_codestream():
    img, gt, grid, stream, levels = make_scene()
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=100)
    plan = compute_budget(stream, ch, 30.0, 300.0)
    bw = bandwidth_budget(ch)
    all_idx = list(range(grid.tile_count))
    if plan.lr is not None:
        assert size_of(stream, all_idx, plan.lr) <= bw
        if plan.lr < levels:
            assert size_of(stream, all_idx, plan.lr + 1) > bw
    sub = cs_mod.extract(stream, [0], levels - 1)
    with pytest.raises(ValueError, match="full codestream"):
        compute_budget(sub, ch, 30.0, 300.0)


def test_compute_budget_equals_plan_from_size_of():
    img, gt, grid, stream, levels = make_scene(seed=4, size=320, tile=48, levels=4)
    table = cs_mod.measure(img, grid, levels)
    all_idx = list(range(grid.tile_count))
    sizes = [size_of(stream, all_idx, r) for r in range(1, levels + 1)]
    tile_sizes = [size_of(stream, [i], levels) for i in all_idx]
    for rate in (500, 4_000, 16_000, 64_000, 1e9):
        ch = ChannelSpec(data_rate=rate, t_tr_limit=60)
        for estimate in ("max", "mean"):
            want = plan_budget(sizes, tile_sizes, bandwidth_budget(ch), 20.0, 200.0, estimate)
            assert compute_budget(stream, ch, 20.0, 200.0, estimate) == want
            assert compute_budget(table, ch, 20.0, 200.0, estimate) == want


def test_indexer_hand_example():
    boxes = (dl(0, 0.9), dl(1, 0.2), dl(2, 0.5), dl(3, 0.2))
    anns = AnnotationSet(boxes)
    assert select_tiles_for_human(anns, 2) == [1, 3]
    assert select_tiles_for_human(anns, 0) == []
    assert select_tiles_for_human(anns, 99) == [1, 3, 2, 0]


def test_indexer_against_brute_force():
    r = random.Random(13)
    grid = TileGrid.for_image(640, 640, 64, 64)
    for _ in range(10_000):
        n = r.randrange(0, 25)
        boxes = tuple(
            dl(r.randrange(0, grid.tile_count), round(r.random(), 2), i) for i, n2 in enumerate(range(n))
        )
        anns = AnnotationSet(boxes)
        budget = r.randrange(0, 12)
        assert select_tiles_for_human(anns, budget) == brute_force_indexer(boxes, budget)


def perfect_detector(grid, size, levels):
    model = DetectorModel(
        detect_p=(1.0,) * levels, conf_mean=(0.8,) * levels,
        conf_sigma=0.0, jitter=0.0, fp_rate=0.0,
    )
    return OracleDetector(model, grid, size, size)


def test_baseline_timing_structure():
    img, gt, grid, stream, levels = make_scene()
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=100)
    det = perfect_detector(grid, 256, levels)
    res = run_baseline(img, grid, levels, ch, 30.0, 0, det, gt, 1, codestream=stream)
    # zero human budget: t_rs == t_tr and recall equals the DL recall
    payload = size_of(stream, list(range(grid.tile_count)), levels)
    assert res.timeline.t_tr == payload * 8 / 16_000
    assert res.timeline.t_hum == 0.0
    assert res.timeline.t_rs == res.timeline.t_tr
    assert res.timeline.final_recall == 1.0  # perfect detector
    assert res.feasible
    assert res.plan.lr == levels

    res10 = run_baseline(img, grid, levels, ch, 30.0, 3, det, gt, 1, codestream=stream)
    assert res10.timeline.t_hum == 30.0 * len(
        [e for e in res10.timeline.events if e.phase.startswith("HUM")]
    )
    assert res10.timeline.t_rs == res10.timeline.t_tr + res10.timeline.t_hum


def test_baseline_with_empty_detector_output():
    img, gt, grid, stream, levels = make_scene()
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=100)
    model = DetectorModel(detect_p=(0.0,) * levels, conf_mean=(0.5,) * levels, fp_rate=0.0)
    det = OracleDetector(model, grid, 256, 256)
    res = run_baseline(img, grid, levels, ch, 30.0, 10, det, gt, 1, codestream=stream)
    assert res.timeline.t_hum == 0.0
    assert res.timeline.final_recall == 0.0
    assert len(res.annotations) == 0


def test_streamlined_infeasible_when_budget_too_small():
    img, gt, grid, stream, levels = make_scene()
    ch = ChannelSpec(data_rate=8, t_tr_limit=1)  # 1-byte budget
    det = perfect_detector(grid, 256, levels)
    res = run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, gt, 1, codestream=stream)
    assert not res.feasible
    assert res.plan.lr is None
    assert len(res.annotations) == 0
    assert res.timeline.t_rs == 0.0
    assert res.timeline.final_recall == 0.0
    assert res.timeline.events == ()


def test_streamlined_timing_composition():
    img, gt, grid, stream, levels = make_scene(size=512, objects=12, tile=64)
    all_idx = list(range(grid.tile_count))
    full = size_of(stream, all_idx, levels)
    rate = full * 8 / 120  # LR fit lands strictly below the top level
    ch = ChannelSpec(data_rate=rate, t_tr_limit=30)
    det = perfect_detector(grid, 512, levels)
    res = run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, gt, 1, codestream=stream)
    assert res.feasible
    lr = res.plan.lr
    assert lr < levels
    n_hum = len([e for e in res.timeline.events if e.phase.startswith("HUM")])
    lr_bytes = size_of(stream, all_idx, lr)
    if n_hum:
        selected_bytes = res.timeline.t_tr * rate / 8 - lr_bytes
        assert selected_bytes > 0
    else:
        assert res.timeline.t_tr == lr_bytes * 8 / rate
    assert res.timeline.t_hum == 30.0 * n_hum
    # budget safety: the whole transfer fits in the time limit
    assert res.timeline.t_tr <= ch.t_tr_limit


def test_budget_safety_randomized():
    img, gt, grid, stream, levels = make_scene(size=512, objects=20, tile=64, levels=4)
    det = perfect_detector(grid, 512, levels)
    r = random.Random(17)
    for _ in range(25):
        ch = ChannelSpec(data_rate=r.uniform(500, 200_000), t_tr_limit=r.uniform(5, 400))
        res = run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, gt, 1, codestream=stream)
        if res.feasible:
            assert res.timeline.t_tr <= ch.t_tr_limit + 1e-9


def test_framework_equivalence_at_infinite_bandwidth():
    img, gt, grid, stream, levels = make_scene(size=256, objects=10, tile=64)
    det = perfect_detector(grid, 256, levels)
    ch = ChannelSpec(data_rate=1e9, t_tr_limit=1e6)
    prop = run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, gt, 5, codestream=stream)
    assert prop.plan.lr == levels
    base = run_baseline(
        img, grid, levels, ch, 30.0, prop.plan.human_budget, det, gt, 5, codestream=stream
    )
    assert base.annotations == prop.annotations
    assert base.timeline.t_hum == prop.timeline.t_hum
    assert base.timeline.t_tr == prop.timeline.t_tr  # index transfer is free
    assert base.timeline.final_recall == prop.timeline.final_recall


def test_monotone_human_benefit():
    img, gt, grid, stream, levels = make_scene(size=512, objects=25, tile=64)
    model = DetectorModel.default(levels)
    det = OracleDetector(model, grid, 512, 512)
    ch = ChannelSpec(data_rate=50_000, t_tr_limit=60)
    for seed in range(5):
        res = run_streamlined(img, grid, levels, ch, 30.0, 600.0, det, gt, seed, codestream=stream)
        if not res.feasible:
            continue
        recalls = [e.recall for e in res.timeline.events]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_compute_delay_is_charged():
    img, gt, grid, stream, levels = make_scene()
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=100)
    det = perfect_detector(grid, 256, levels)
    plain = run_baseline(img, grid, levels, ch, 30.0, 0, det, gt, 1, codestream=stream)
    delayed = run_baseline(
        img, grid, levels, ch, 30.0, 0, det, gt, 1, codestream=stream, compute_delay=5.0
    )
    assert delayed.timeline.t_tr == plain.timeline.t_tr + 5.0
    assert delayed.timeline.t_rs == delayed.timeline.t_tr + delayed.timeline.t_hum


def test_index_charging_in_both_pipelines():
    img, gt, grid, stream, levels = make_scene(size=512, objects=12, tile=64)
    det = perfect_detector(grid, 512, levels)
    all_idx = list(range(grid.tile_count))

    def runs(rate, limit):
        free, charged = (
            ChannelSpec(data_rate=rate, t_tr_limit=limit, charge_index_bytes=c)
            for c in (False, True)
        )
        return [
            run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, gt, 1, codestream=stream)
            for ch in (free, charged)
        ]

    # below full resolution: LR-all, then the k indices, then the k tiles at full resolution
    rate = size_of(stream, all_idx, levels) * 8 / 100
    free, charged = runs(rate, 30)
    assert free.plan == charged.plan and free.plan.lr < levels
    selected = select_tiles_for_human(
        det.detect(gt, free.plan.lr, 1), free.plan.human_budget
    )
    k = len(selected)
    assert k > 0
    assert k == sum(e.phase.startswith("HUM") for e in charged.timeline.events)
    lr_s = size_of(stream, all_idx, free.plan.lr) * 8 / rate
    hr_s = size_of(stream, selected, levels) * 8 / rate
    index_s = INDEX_BYTES * k * 8 / rate
    assert free.timeline.t_tr == lr_s + 0.0 + hr_s
    assert charged.timeline.t_tr == lr_s + index_s + hr_s
    assert charged.annotations == free.annotations

    # full resolution: the baseline plus the index exchange, nothing else
    free, charged = runs(1e9, 1e6)
    assert charged.plan.lr == levels
    k = sum(e.phase.startswith("HUM") for e in charged.timeline.events)
    assert k > 0
    for prop in (free, charged):
        base = run_baseline(
            img, grid, levels, ChannelSpec(data_rate=1e9, t_tr_limit=1e6, charge_index_bytes=True),
            30.0, prop.plan.human_budget, det, gt, 1, codestream=stream,
        )
        assert base.annotations == prop.annotations
        assert base.timeline.t_hum == prop.timeline.t_hum
    assert free.timeline.t_tr == base.timeline.t_tr
    assert charged.timeline.t_tr == base.timeline.t_tr + INDEX_BYTES * k * 8 / 1e9


def test_budget_plan_validation():
    with pytest.raises(ValueError):
        BudgetPlan(lr=0, human_budget=0)
    with pytest.raises(ValueError):
        BudgetPlan(lr=1, human_budget=-1)
    assert BudgetPlan(lr=None, human_budget=0).lr is None


def test_both_frameworks_plan_from_the_table_not_the_arguments():
    img, gt = generate_scene(3, 512, 512, 12, (16, 24))
    grid = TileGrid.for_image(512, 512, 128, 128)
    table = cs_mod.measure(img, grid, 5)
    wrong_grid = TileGrid.for_image(512, 512, 256, 256)
    det = OracleDetector(DetectorModel.default(5), grid, 512, 512)
    ch = ChannelSpec(data_rate=88_000, t_tr_limit=600)
    base = run_baseline(img, wrong_grid, 3, ch, 30.0, 0, det, gt, 1, codestream=table)
    prop = run_streamlined(img, wrong_grid, 3, ch, 30.0, 300.0, det, gt, 1, codestream=table)
    assert base.plan.lr == prop.plan.lr == 5
    full = size_of(table, range(grid.tile_count), 5)
    assert base.timeline.t_tr == full * 8 / 88_000


@pytest.mark.parametrize("mu", [0.0, -1.0])
@pytest.mark.parametrize("streamlined", [False, True])
def test_a_run_refuses_a_non_positive_human_time(monkeypatch, mu, streamlined):
    def no_transfer(*args, **kwargs):
        raise AssertionError("a transfer before the human time was checked")

    img, gt, grid, stream, levels = make_scene()
    det = perfect_detector(grid, 256, levels)
    ch = ChannelSpec(data_rate=1e9, t_tr_limit=100)
    monkeypatch.setattr(pipeline_mod, "transmit", no_transfer)
    with pytest.raises(ValueError, match="mu_t_hum"):
        if streamlined:
            run_streamlined(img, grid, levels, ch, mu, 300.0, det, gt, 1, codestream=stream)
        else:
            run_baseline(img, grid, levels, ch, mu, 3, det, gt, 1, codestream=stream)


@pytest.mark.parametrize("streamlined", [False, True])
def test_a_run_refuses_ground_truth_outside_the_image(monkeypatch, streamlined):
    img, gt, grid, stream, levels = make_scene()
    det = perfect_detector(grid, 256, levels)
    ch = ChannelSpec(data_rate=1e9, t_tr_limit=100)

    def run(truth):
        if streamlined:
            return run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, truth, 1,
                                   codestream=stream)
        return run_baseline(img, grid, levels, ch, 30.0, 16, det, truth, 1, codestream=stream)

    # a box that ends on the image's last row and column is inside it
    corner = GroundTruthBox(98, 0, 236, 236, 20, 20)
    assert run([*gt, corner]).timeline.final_recall == 1.0

    def no_transfer(*args, **kwargs):
        raise AssertionError("a transfer before the ground truth was checked")

    monkeypatch.setattr(pipeline_mod, "transmit", no_transfer)
    outside = GroundTruthBox(99, 0, 300, 10, 20, 20)
    with pytest.raises(ValueError, match=r"^ground-truth object 99 at \(300, 10\) size 20x20 "
                                         r"lies outside the 256x256 image$"):
        run([*gt, outside])


def test_a_run_refuses_a_detector_on_another_tile_grid(monkeypatch):
    img, gt = generate_scene(3, 512, 512, 12)
    grid = TileGrid.for_image(512, 512, 128, 128)
    table = cs_mod.measure(img, grid, 5)
    model = DetectorModel.default(5)
    ch = ChannelSpec(data_rate=88_000, t_tr_limit=600)
    same = OracleDetector(model, grid, 512, 512)
    assert run_baseline(img, grid, 5, ch, 30.0, 0, same, gt, 3, codestream=table) \
        .timeline.final_recall == 0.75
    replay = FileDetector(same.detect(gt, 5, 3), grid)
    assert run_baseline(img, grid, 5, ch, 30.0, 0, replay, gt, 3, codestream=table) \
        .timeline.final_recall == 0.75

    def no_transfer(*args, **kwargs):
        raise AssertionError("a transfer before the detector's grid was checked")

    monkeypatch.setattr(pipeline_mod, "transmit", no_transfer)
    finer = OracleDetector(model, TileGrid.for_image(512, 512, 64, 64), 512, 512)
    finer_replay = FileDetector(finer.detect(gt, 5, 3), finer.grid)
    named = r"64 tiles of 64x64.*16 tiles of 128x128"
    for det in (finer, finer_replay):
        with pytest.raises(ValueError, match=named):
            run_baseline(img, grid, 5, ch, 30.0, 0, det, gt, 3, codestream=table)
        with pytest.raises(ValueError, match=named):
            run_streamlined(img, grid, 5, ch, 30.0, 300.0, det, gt, 3, codestream=table)
    # the same boxes named as the table's tiles: those past tile 15 are off its grid
    with pytest.raises(ValueError, match="off the grid of 16 tiles"):
        FileDetector(finer_replay.annotations, grid)
    # a grid names its image: an oracle given another image size is refused when it is built
    with pytest.raises(ValueError, match=r"100x100 does not match .* 512x512"):
        OracleDetector(model, TileGrid.for_image(512, 512, 64, 64), 100, 100)
    # the table's 4x4 tiles of 128x128 on another image (a 400x400 oracle, a replay made on a
    # 500x500 grid), or the table's grid with a model of 8 levels on a table of 3
    on_500 = TileGrid.for_image(500, 500, 128, 128)
    shallow = cs_mod.measure(img, grid, 3)
    on_512 = r"is not the codestream's \(16 tiles of 128x128 on 512x512\)"
    for det, stream, named in (
        (OracleDetector(model, TileGrid.for_image(400, 400, 128, 128), 400, 400), table,
         r"\(16 tiles of 128x128 on 400x400\) " + on_512),
        (FileDetector(OracleDetector(model, on_500, 500, 500).detect(gt, 5, 3), on_500), table,
         r"\(16 tiles of 128x128 on 500x500\) " + on_512),
        (OracleDetector(DetectorModel.default(8), grid, 512, 512), shallow,
         r"depth \(8 levels\) is not the codestream's \(3 levels\)"),
    ):
        assert (det.grid.tile_count, det.grid.tile_w, det.grid.tile_h) == (16, 128, 128)
        with pytest.raises(ValueError, match=named):
            run_baseline(img, grid, 5, ch, 30.0, 0, det, gt, 3, codestream=stream)
        with pytest.raises(ValueError, match=named):
            run_streamlined(img, grid, 5, ch, 30.0, 300.0, det, gt, 3, codestream=stream)


@pytest.mark.parametrize("mu, cap, name", [
    (math.nan, 300.0, "mu_t_hum"),
    (-1.0, 300.0, "mu_t_hum"),
    (30.0, math.nan, "t_hum_cap"),
    (30.0, math.inf, "t_hum_cap"),
    (30.0, -1.0, "t_hum_cap"),
    (0.0, math.inf, "t_hum_cap"),
])
def test_plan_budget_refuses_a_bad_human_time(mu, cap, name):
    with pytest.raises(ValueError, match=name):
        plan_budget([10, 100], [50, 50], 1000, mu, cap)


def test_plan_budget_time_cap_bounds():
    # mu_t_hum 0 is no time cap; 300 s over 1e-310 s is more tiles than a float holds
    assert plan_budget([10, 100], [50, 50], 1000, 0.0, 0.0) == BudgetPlan(2, 2)
    assert plan_budget([10, 100], [50, 50], 1000, 1e-310, 300.0) == BudgetPlan(2, 2)


@pytest.mark.parametrize("estimate", ["max", "mean"])
def test_plan_budget_refuses_an_empty_tile_list(estimate):
    with pytest.raises(ValueError, match="at least one tile size"):
        plan_budget([10], [], 100, 1.0, 10.0, estimate)


def _random_timeline_case(r, grid):
    """Ground truth and detections on a 64x64 image of 16 px tiles.

    Boxes often span tile edges; some ground-truth boxes repeat, some
    detections copy a ground-truth box at confidence 1.0 (tied with the
    human boxes), and one detection sits at exactly IoU 0.1.
    """
    gt = []
    for i in range(r.randrange(0, 9)):
        if gt and r.random() < 0.2:
            g = r.choice(gt)
            gt.append(GroundTruthBox(i, 0, g.x, g.y, g.w, g.h))
        else:
            gt.append(GroundTruthBox(
                i, 0, r.randrange(0, 56), r.randrange(0, 56), r.randrange(1, 12), r.randrange(1, 12)))
    boxes = []
    for _ in range(r.randrange(0, 10)):
        conf = r.choice([1.0, 0.5, round(r.random(), 2)])
        if gt and r.random() < 0.5:
            g = r.choice(gt)
            x, y, w, h = g.x + r.choice([0, 0, 1, -1]), g.y + r.choice([0, 1]), g.w, g.h
        else:
            x, y, w, h = r.randrange(0, 56), r.randrange(0, 56), r.randrange(1, 12), r.randrange(1, 12)
        tile = (min(y, 63) // grid.tile_h) * grid.tiles_x + min(max(x, 0), 63) // grid.tile_w
        boxes.append(DetectionBox(tile, 0, float(x), float(y), float(w), float(h), conf, "DL"))
    if gt and r.random() < 0.5:
        g = gt[0]  # a 1 x h box inside a w x h ground truth of w == 10: IoU exactly 0.1
        gt[0] = GroundTruthBox(g.object_id, 0, g.x, g.y, 10, g.h)
        boxes.append(DetectionBox(0, 0, float(g.x), float(g.y), 1.0, float(g.h), 0.9, "DL"))
    selected = r.sample(range(grid.tile_count), r.randrange(0, grid.tile_count + 1))
    return gt, AnnotationSet(tuple(boxes)), selected


def test_human_timeline_recalls_equal_reference():
    """Every event equals recall(dl + human_annotate(selected[:k]), gt) by the reference."""
    grid = TileGrid.for_image(64, 64, 16, 16)
    r = random.Random(23)
    cases = [_random_timeline_case(r, grid) for _ in range(400)]
    gt, dl_anns, _ = cases[0]
    cases += [([], dl_anns, [0, 5, 6]), (gt, dl_anns, []), ([], AnnotationSet(), [])]
    # a detection tied between two ground-truth boxes across a tile edge (IoU 1/3 each)
    tie_gt = [GroundTruthBox(0, 0, 6, 0, 10, 10), GroundTruthBox(1, 0, 16, 0, 10, 10)]
    tie_dl = AnnotationSet((DetectionBox(0, 0, 11.0, 0.0, 10.0, 10.0, 1.0, "DL"),
                            DetectionBox(0, 0, 6.0, 0.0, 10.0, 10.0, 0.5, "DL")))
    cases += [(tie_gt, tie_dl, sel) for sel in ([], [1], [0], [1, 0])]
    for gt, dl_anns, selected in cases:
        for thr in (0.1, 0.5):
            events, merged = _human_timeline(dl_anns, selected, gt, grid, 1.0, 2.0, 3.0, thr)
            assert [e.phase for e in events] == ["DL"] + [
                f"HUM-tile-{k}" for k in range(1, len(selected) + 1)]
            for k, e in enumerate(events):
                want = dl_anns.merged_with(human_annotate(selected[:k], gt, grid))
                assert e.recall == reference_recall(want, gt, thr), (k, gt, dl_anns, selected)
            assert merged == dl_anns.merged_with(human_annotate(selected, gt, grid))


def test_pipelines_never_decode(monkeypatch, tmp_path):
    def no_decode(*args, **kwargs):
        raise AssertionError("the simulator decoded a tile")

    monkeypatch.setattr(cs_mod, "decode", no_decode)
    img, gt, grid, stream, levels = make_scene()
    det = OracleDetector(DetectorModel.default(levels), grid, 256, 256)
    for rate in (2_000, 16_000, 1e9):
        ch = ChannelSpec(data_rate=rate, t_tr_limit=100)
        assert run_baseline(img, grid, levels, ch, 30.0, 3, det, gt, 1).feasible
        run_streamlined(img, grid, levels, ch, 30.0, 300.0, det, gt, 1)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "synthetic = 9, 256, 256, 8\nobject_size = 12, 24\ntile_w = 64\ntile_h = 64\n"
        "levels = 4\ndata_rates = 4, 16, 1000\nt_TRlimits = 30, 120\nmu_t_hum = 10\n"
        "t_hum_cap = 40\nseed = 5\n"
    )
    report = scenario.run_grid(cfg_mod.parse_config(str(cfg)), str(tmp_path / "out"))
    assert len(report.rows) == 6
    assert any(c.prop.plan.lr < 4 and c.prop.timeline.t_hum > 0 for c in report.cells)


def test_run_grid_never_writes_codestream_bytes(monkeypatch, tmp_path):
    def no_coding(*args, **kwargs):
        raise AssertionError("the simulator wrote codestream bytes")

    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(
        "synthetic = 9, 256, 192, 8\nobject_size = 12, 24\ntile_w = 64\ntile_h = 48\n"
        "levels = 4\ndata_rates = 4, 16, 1000\nt_TRlimits = 30, 120\nmu_t_hum = 10\n"
        "t_hum_cap = 40\nseed = 5\n"
    )
    cfg = cfg_mod.parse_config(str(cfg_path))
    with monkeypatch.context() as m:
        m.setattr(cs_mod, "encode_bands", no_coding)
        m.setattr(cs_mod, "encode_band", no_coding)
        m.setattr(cs_mod, "_varint_bytes", no_coding)
        report = scenario.run_grid(cfg, str(tmp_path / "table"))
    assert any(c.prop.plan.lr < 4 and c.prop.timeline.t_hum > 0 for c in report.cells)
    # the same grid planned from a real encoded stream
    monkeypatch.setattr(cs_mod, "measure", cs_mod.encode)
    scenario.run_grid(cfg, str(tmp_path / "stream"))
    for name in os.listdir(tmp_path / "stream"):
        assert (tmp_path / "table" / name).read_bytes() == (
            tmp_path / "stream" / name).read_bytes(), name
