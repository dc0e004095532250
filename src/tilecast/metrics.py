"""Evaluation arithmetic: IoU, recall, timing aggregates, comparisons.

Recall counts a detection as a true positive when its IoU with an
unmatched ground-truth box strictly exceeds the threshold (default
0.1, chosen low so tiny low-resolution objects still register).
Matching is greedy by descending confidence with human boxes first;
each ground-truth box is matched at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

# Largest boxes x ground-truth product scored at once. iou_matrix holds
# about five float64 matrices of that shape at its peak, 40 bytes per
# pair: 640 MiB at this bound.
MAX_IOU_PAIRS = 1 << 24


class InfeasibleComparisonError(ValueError):
    """A ratio was requested against an infeasible (empty) run."""


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def iou_matrix(boxes: Sequence, gt: Sequence) -> np.ndarray:
    """``iou`` of every box (rows) against every ground-truth box (columns).

    The float64 operations are ``iou``'s, in the same order, so each
    entry equals ``iou(boxes[i], gt[j])`` bit for bit for finite
    coordinates. Boxes that do not overlap get 0.0 from ``0 / union``.
    More than ``MAX_IOU_PAIRS`` pairs raise ``ValueError`` before any
    matrix is allocated.
    """
    pairs = len(boxes) * len(gt)
    if pairs > MAX_IOU_PAIRS:
        raise ValueError(
            f"{len(boxes)} detections against {len(gt)} ground-truth boxes make "
            f"{pairs} IoU pairs, more than the {MAX_IOU_PAIRS} scored at once"
        )
    a = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)
    g = np.array([(b.x, b.y, b.w, b.h) for b in gt], dtype=np.float64).reshape(-1, 4)
    ax, ay, aw, ah = (a[:, k, None] for k in range(4))
    gx, gy, gw, gh = g.T
    ix = np.minimum(ax + aw, gx + gw) - np.maximum(ax, gx)
    iy = np.minimum(ay + ah, gy + gh) - np.maximum(ay, gy)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    return inter / ((aw * ah + gw * gh) - inter)


def recall_by_step(
    anns, first_step: Sequence[int], steps: int, gt: Sequence, iou_threshold: float = 0.1
) -> list[float]:
    """Recall after each step 0..steps of a set whose boxes arrive over time.

    Box ``i`` counts from step ``first_step[i]`` on. Step k scores the
    boxes present by then exactly as ``recall`` scores them on their
    own: one IoU matrix serves every step, and each step replays the
    greedy matching over the rows present. A row claims the unmatched
    ground-truth box of highest IoU strictly above the threshold, the
    lowest column on ties (a masked argmax).
    """
    if not 0 < iou_threshold <= 1:
        raise ValueError("iou_threshold must be in (0, 1]")
    if len(first_step) != len(anns.boxes):
        raise ValueError("first_step needs one step per box")
    if not gt:
        return [1.0] * (steps + 1)
    ious = iou_matrix(anns.boxes, gt)
    rows, cols = np.nonzero(ious > iou_threshold)
    ranked = np.lexsort((cols, -ious[rows, cols], rows))  # by row, best IoU, lowest column
    candidates: dict[int, list[int]] = {}
    for i, j in zip(rows[ranked].tolist(), cols[ranked].tolist()):
        candidates.setdefault(i, []).append(j)
    # rows by descending confidence, human boxes first on ties, then index;
    # a row without a candidate never matches, so it is left out
    boxes = anns.boxes
    order = sorted(
        candidates,
        key=lambda i: (-boxes[i].confidence, 0 if boxes[i].source == "HUM" else 1, i),
    )
    out = []
    for k in range(steps + 1):
        matched = set()
        for i in order:
            if first_step[i] > k:
                continue
            for j in candidates[i]:
                if j not in matched:
                    matched.add(j)
                    break
        out.append(len(matched) / len(gt))
    return out


def recall(anns, gt: Sequence, iou_threshold: float = 0.1) -> float:
    """Fraction of ground-truth boxes matched one-to-one by detections.

    Empty ground truth counts as recall 1.0 (nothing was missed).
    """
    return recall_by_step(anns, [0] * len(anns.boxes), 0, gt, iou_threshold)[0]


def human_time(n_tiles: int, mu_t_hum: float) -> float:
    """Total expert annotation time for n tiles at mu seconds per tile."""
    if n_tiles < 0 or not mu_t_hum >= 0:
        raise ValueError("human_time arguments must be nonnegative")
    return n_tiles * mu_t_hum


class TimelineEvent(NamedTuple):
    time_s: float
    recall: float
    phase: str  # "DL" or "HUM-tile-<k>"


@dataclass(frozen=True)
class TimelineReport:
    """Event-ordered (time, recall) samples of one framework run.

    The response time is structural: t_rs == t_tr + t_hum always, and
    the last event, when present, lands exactly on it.
    """

    events: tuple[TimelineEvent, ...]
    t_tr: float
    t_hum: float

    def __post_init__(self):
        times = [e.time_s for e in self.events]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("timeline event times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("timeline event times must be strictly increasing")
        if times and times[-1] != self.t_rs:
            raise ValueError(
                f"last event at {times[-1]} but t_rs is {self.t_rs}"
            )

    @property
    def t_rs(self) -> float:
        return self.t_tr + self.t_hum

    @property
    def final_recall(self) -> float:
        return self.events[-1].recall if self.events else 0.0


def response_ratio(base: TimelineReport, prop: TimelineReport) -> float:
    """t_rs(baseline) / t_rs(proposed); undefined against infeasible runs."""
    if not base.events or not prop.events or prop.t_rs <= 0:
        raise InfeasibleComparisonError("response ratio undefined for infeasible runs")
    return base.t_rs / prop.t_rs


def recall_difference(base_recall: float, prop_recall: float) -> float:
    """Signed recall gap; positive means the baseline detected more."""
    for v in (base_recall, prop_recall):
        if not 0 <= v <= 1:
            raise ValueError("recall values must be in [0, 1]")
    return base_recall - prop_recall


@dataclass(frozen=True)
class ComparisonRow:
    """One scenario cell of the baseline-vs-proposed report."""

    scenario_id: str
    feasible_base: bool
    feasible_prop: bool
    t_rs_base: float
    t_rs_prop: float
    t_rs_ratio: Optional[float]  # None when either side is infeasible
    recall_base: float
    recall_prop: float
    recall_diff: float
