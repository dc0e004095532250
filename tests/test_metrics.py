from dataclasses import dataclass

import numpy as np
import pytest

from reference_recall import reference_recall
from tilecast import metrics
from tilecast.annotate import AnnotationSet, DetectionBox
from tilecast.metrics import (
    InfeasibleComparisonError,
    TimelineEvent,
    TimelineReport,
    human_time,
    iou,
    iou_matrix,
    recall,
    recall_by_step,
    recall_difference,
    response_ratio,
)
from tilecast.raster import GroundTruthBox


@dataclass(frozen=True)
class Box:
    x: float
    y: float
    w: float
    h: float


def pixel_iou(a, b):
    """Pixel-set oracle for integer boxes."""
    sa = {(x, y) for x in range(a.x, a.x + a.w) for y in range(a.y, a.y + a.h)}
    sb = {(x, y) for x in range(b.x, b.x + b.w) for y in range(b.y, b.y + b.h)}
    if not sa | sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def dl(tile, x, y, w, h, conf, cls=0):
    return DetectionBox(tile, cls, x, y, w, h, conf, "DL")


def hum(tile, x, y, w, h, cls=0):
    return DetectionBox(tile, cls, x, y, w, h, 1.0, "HUM")


def test_iou_fixtures():
    a = Box(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(a, Box(10, 10, 2, 2)) == 0.0
    assert iou(a, Box(1, 1, 2, 2)) == pytest.approx(1 / 7)
    assert iou(a, Box(2, 0, 2, 2)) == 0.0  # touching edges do not overlap


def test_iou_symmetry_random():
    import random

    r = random.Random(5)
    for _ in range(300):
        a = Box(r.uniform(0, 50), r.uniform(0, 50), r.uniform(1, 20), r.uniform(1, 20))
        b = Box(r.uniform(0, 50), r.uniform(0, 50), r.uniform(1, 20), r.uniform(1, 20))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_matches_pixel_oracle():
    import random

    r = random.Random(6)
    for _ in range(1000):
        a = Box(r.randrange(0, 12), r.randrange(0, 12), r.randrange(1, 8), r.randrange(1, 8))
        b = Box(r.randrange(0, 12), r.randrange(0, 12), r.randrange(1, 8), r.randrange(1, 8))
        assert iou(a, b) == pytest.approx(pixel_iou(a, b), abs=1e-12)


def test_recall_basics():
    gt = [GroundTruthBox(0, 0, 0, 0, 10, 10), GroundTruthBox(1, 0, 50, 50, 10, 10)]
    exact = AnnotationSet((dl(0, 0, 0, 10, 10, 0.9), dl(0, 50, 50, 10, 10, 0.8)))
    assert recall(exact, gt) == 1.0
    assert recall(AnnotationSet(()), gt) == 0.0
    assert recall(AnnotationSet(()), []) == 1.0


def test_recall_two_of_three():
    gt = [
        GroundTruthBox(0, 0, 0, 0, 10, 10),
        GroundTruthBox(1, 0, 30, 30, 10, 10),
        GroundTruthBox(2, 0, 60, 60, 10, 10),
    ]
    anns = AnnotationSet(
        (dl(0, 2, 2, 10, 10, 0.9), dl(0, 31, 29, 10, 10, 0.7), dl(0, 200, 200, 5, 5, 0.99))
    )
    assert recall(anns, gt) == pytest.approx(2 / 3)


def test_recall_strict_threshold_boundary():
    # IoU exactly 0.1: (0,0,1,1) vs (0,0,1,10) -> 1/10; must NOT match
    gt = [GroundTruthBox(0, 0, 0, 0, 1, 10)]
    at_boundary = AnnotationSet((dl(0, 0, 0, 1, 1, 0.9),))
    assert recall(at_boundary, gt) == 0.0
    # nudge above the threshold
    gt2 = [GroundTruthBox(0, 0, 0, 0, 1, 9)]
    assert recall(AnnotationSet((dl(0, 0, 0, 1, 1, 0.9),)), gt2) == 1.0


def test_recall_one_to_one_matching():
    gt = [GroundTruthBox(0, 0, 0, 0, 10, 10)]
    dupes = AnnotationSet((dl(0, 0, 0, 10, 10, 0.9), dl(0, 1, 0, 10, 10, 0.8)))
    assert recall(dupes, gt) == 1.0  # second detection cannot double-count


def brute_force_best_matching(boxes, gt, thr):
    """Maximum one-to-one matching by exhaustive recursive assignment."""

    def rec(i, used):
        if i == len(boxes):
            return 0
        best = rec(i + 1, used)
        for j in range(len(gt)):
            if j not in used and iou(boxes[i], gt[j]) > thr:
                best = max(best, 1 + rec(i + 1, used | {j}))
        return best

    return rec(0, frozenset())


def test_greedy_matcher_validity_on_small_instances():
    # greedy is one-to-one and deterministic; never exceeds the optimum
    import random

    r = random.Random(9)
    for _ in range(200):
        gt = [
            GroundTruthBox(i, 0, r.randrange(0, 30), r.randrange(0, 30), r.randrange(2, 8), r.randrange(2, 8))
            for i in range(r.randrange(0, 4))
        ]
        boxes = tuple(
            dl(0, r.randrange(0, 30), r.randrange(0, 30), r.randrange(2, 8), r.randrange(2, 8), round(r.random(), 3))
            for _ in range(r.randrange(0, 5))
        )
        anns = AnnotationSet(boxes)
        got = recall(anns, gt)
        again = recall(anns, gt)
        assert got == again
        if gt:
            tp = round(got * len(gt))
            assert 0 <= tp <= len(gt)
            assert tp <= brute_force_best_matching(boxes, gt, 0.1)


def test_recall_monotone_and_invariant_to_noise_boxes():
    import random

    r = random.Random(31)
    for _ in range(100):
        gt = [
            GroundTruthBox(i, 0, 40 * i, 0, 10, 10) for i in range(r.randrange(1, 5))
        ]
        hits = tuple(
            dl(0, 40 * i + 1, 1, 10, 10, round(r.random(), 2))
            for i in range(len(gt))
            if r.random() < 0.6
        )
        base = recall(AnnotationSet(hits), gt)
        # adding an exact true positive never lowers recall
        extra_tp = hits + (dl(0, 40 * (len(gt) - 1), 0, 10, 10, round(r.random(), 2)),)
        assert recall(AnnotationSet(extra_tp), gt) >= base
        # boxes below the IoU threshold against every GT change nothing
        noise = hits + (dl(0, 1000, 1000, 5, 5, round(r.random(), 2)),)
        assert recall(AnnotationSet(noise), gt) == base


def test_iou_matrix_bit_identical_to_iou():
    import random

    r = random.Random(41)
    boxes = [dl(0, r.uniform(0, 50), r.uniform(0, 50), r.uniform(1, 20), r.uniform(1, 20), 0.5)
             for _ in range(40)]
    boxes += [dl(0, r.randrange(0, 50), r.randrange(0, 50), r.randrange(1, 20),
                 r.randrange(1, 20), 0.5) for _ in range(40)]
    gt = [GroundTruthBox(i, 0, r.randrange(0, 50), r.randrange(0, 50), r.randrange(1, 20),
                         r.randrange(1, 20)) for i in range(30)]
    m = iou_matrix(boxes, gt)
    assert m.shape == (80, 30)
    assert m.tolist() == [[iou(b, g) for g in gt] for b in boxes]
    assert iou_matrix([], gt).shape == (0, 30)
    assert iou_matrix(boxes, []).shape == (80, 0)


def test_recall_equals_reference_randomized():
    import random

    r = random.Random(43)
    for _ in range(500):
        gt = [GroundTruthBox(i, 0, r.randrange(0, 40), r.randrange(0, 40), r.randrange(1, 10),
                             r.randrange(1, 10)) for i in range(r.randrange(0, 8))]
        if len(gt) > 2:
            gt.append(gt[0])  # a duplicate ground-truth box
        boxes = []
        for _ in range(r.randrange(0, 10)):
            x, y = r.randrange(0, 40) + r.choice([0, 0.5]), r.randrange(0, 40)
            w, h = r.randrange(1, 10), r.randrange(1, 10)
            if r.random() < 0.3:
                boxes.append(hum(0, x, y, w, h))
            else:
                boxes.append(dl(0, x, y, w, h, r.choice([1.0, 0.4, round(r.random(), 1)])))
        anns = AnnotationSet(tuple(boxes))
        thr = r.choice([0.1, 0.3, 1.0])
        assert recall(anns, gt, thr) == reference_recall(anns, gt, thr)


def test_recall_tie_takes_first_ground_truth():
    # the first detection overlaps both ground-truth boxes equally (IoU 1/3);
    # it takes the first, so the second, which meets only that one, misses
    gt = [GroundTruthBox(0, 0, 0, 0, 10, 10), GroundTruthBox(1, 0, 10, 0, 10, 10)]
    anns = AnnotationSet((dl(0, 5, 0, 10, 10, 0.9), dl(0, 0, 0, 10, 10, 0.8)))
    assert recall(anns, gt) == reference_recall(anns, gt) == 0.5
    assert recall(AnnotationSet(anns.boxes), gt[::-1]) == 1.0


def test_recall_by_step():
    gt = [GroundTruthBox(0, 0, 0, 0, 10, 10), GroundTruthBox(1, 0, 50, 50, 10, 10)]
    anns = AnnotationSet(
        (dl(0, 0, 0, 10, 10, 0.9), hum(1, 0, 0, 10, 10), hum(1, 50, 50, 10, 10)))
    assert recall_by_step(anns, [0, 2, 1], 3, gt) == [0.5, 1.0, 1.0, 1.0]
    assert recall_by_step(anns, [0, 2, 1], 1, []) == [1.0, 1.0]
    with pytest.raises(ValueError, match="one step per box"):
        recall_by_step(anns, [0], 1, gt)
    with pytest.raises(ValueError, match="iou_threshold"):
        recall_by_step(anns, [0, 0, 0], 0, gt, 0.0)


def test_recall_refuses_too_many_pairs_before_allocating(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_IOU_PAIRS", 6, raising=False)
    anns = AnnotationSet(tuple(dl(0, 10 * i, 0, 10, 10, 0.5) for i in range(3)))
    gt = [GroundTruthBox(i, 0, 10 * i, 0, 10, 10) for i in range(3)]
    assert recall_by_step(anns, [0, 0, 0], 0, gt[:2]) == [1.0]

    def no_matrix(*args, **kwargs):
        raise AssertionError("an IoU matrix was allocated")

    monkeypatch.setattr(np, "array", no_matrix)
    with pytest.raises(ValueError, match="3 detections against 3 ground-truth boxes make 9 IoU pairs"):
        recall_by_step(anns, [0, 0, 0], 0, gt)


def test_human_boxes_match_first():
    gt = [GroundTruthBox(0, 0, 0, 0, 10, 10)]
    anns = AnnotationSet((dl(0, 0, 0, 10, 10, 1.0), hum(0, 0, 0, 10, 10)))
    assert recall(anns, gt) == 1.0


def test_human_time():
    assert human_time(10, 30.0) == 300.0
    assert human_time(0, 30.0) == 0.0
    assert human_time(4, 30.0) == 120.0
    with pytest.raises(ValueError):
        human_time(-1, 30.0)


def test_timeline_invariants():
    tl = TimelineReport(
        events=(TimelineEvent(10.0, 0.5, "DL"), TimelineEvent(40.0, 0.7, "HUM-tile-1")),
        t_tr=10.0,
        t_hum=30.0,
    )
    assert tl.t_rs == 40.0
    assert tl.final_recall == 0.7
    with pytest.raises(ValueError, match="strictly increasing"):
        TimelineReport(
            events=(TimelineEvent(10.0, 0.5, "DL"), TimelineEvent(10.0, 0.7, "HUM-tile-1")),
            t_tr=10.0,
            t_hum=0.0,
        )
    with pytest.raises(ValueError, match="last event"):
        TimelineReport(events=(TimelineEvent(5.0, 0.5, "DL"),), t_tr=10.0, t_hum=0.0)


def test_timeline_rejects_non_finite_times():
    # a link slow enough for a transfer to take longer than any float
    inf = float("inf")
    with pytest.raises(ValueError, match="finite"):
        TimelineReport(events=(TimelineEvent(inf, 0.5, "DL"),), t_tr=inf, t_hum=0.0)
    with pytest.raises(ValueError, match="finite"):
        TimelineReport(
            events=(TimelineEvent(1e308, 0.5, "DL"), TimelineEvent(inf, 0.7, "HUM-tile-1")),
            t_tr=1e308,
            t_hum=inf,
        )


def test_response_ratio_and_recall_diff():
    base = TimelineReport(events=(TimelineEvent(13_100.0, 0.9, "DL"),), t_tr=13_100.0, t_hum=0.0)
    prop = TimelineReport(events=(TimelineEvent(1_110.0, 0.65, "DL"),), t_tr=1_110.0, t_hum=0.0)
    assert response_ratio(base, prop) == pytest.approx(13_100 / 1_110, rel=1e-12)
    assert response_ratio(base, base) == 1.0
    infeasible = TimelineReport(events=(), t_tr=0.0, t_hum=0.0)
    with pytest.raises(InfeasibleComparisonError):
        response_ratio(base, infeasible)
    assert recall_difference(0.9, 0.65) == pytest.approx(0.25)
    assert recall_difference(0.5, 0.5) == 0.0
