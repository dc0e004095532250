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

# Largest boxes x ground-truth product scored at once, checked before
# anything is allocated. Recall holds only the pairs in each box's x
# window (iou_pairs), so its memory follows the overlapping pairs: under
# tracemalloc, 4,096 scattered boxes against 4,096 ground-truth boxes, at
# this bound, peak at 1.2 MB. The worst case is every pair overlapping,
# about 56 bytes per pair (235 MB for 2,048 x 2,048 boxes): about 0.94 GB
# at this bound.
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


def iou_pairs(anns, gt: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``iou`` of every (box, ground-truth) pair that may overlap: rows, columns, IoUs.

    ``anns`` gives the boxes' ``x``, ``y``, ``w`` and ``h`` columns. The
    pairs are found by one window per box over the ground truth sorted
    by x: the ground-truth boxes that start before the box ends, and
    whose start plus the widest ground-truth width passes the box's
    start. Float rounding is monotone, so the window holds every pair
    that overlaps in x, and so every pair of positive IoU; a pair left
    out has IoU 0. The pairs come box by box. The float64 operations
    are ``iou``'s, in the same order, so each IoU equals
    ``iou(anns.boxes[i], gt[j])`` bit for bit for finite coordinates;
    a pair that does not overlap gets 0.0 from ``0 / union``.
    """
    if not len(anns) or not len(gt):
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0)
    gx, gy, gw, gh = np.array(
        [[b.x for b in gt], [b.y for b in gt], [b.w for b in gt], [b.h for b in gt]], dtype=np.float64)
    order = np.argsort(gx, kind="stable")
    starts = gx[order]
    x, y, w, h = anns.x, anns.y, anns.w, anns.h
    x_end = x + w
    lo = np.searchsorted(starts + gw.max(), x, side="right")
    hi = np.searchsorted(starts, x_end, side="left")
    counts = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(len(anns)), counts)
    ends = np.cumsum(counts)
    cols = order[np.arange(ends[-1]) + np.repeat(lo - ends + counts, counts)]
    ix = np.minimum(x_end[rows], (gx + gw)[cols])
    ix -= np.maximum(x[rows], gx[cols])
    iy = np.minimum((y + h)[rows], (gy + gh)[cols])
    iy -= np.maximum(y[rows], gy[cols])
    inter = np.maximum(ix, 0.0, out=ix)
    inter *= np.maximum(iy, 0.0, out=iy)
    union = (w * h)[rows] + (gw * gh)[cols]
    union -= inter
    return rows, cols, np.divide(inter, union, out=union)


def _candidates(anns, gt: Sequence, iou_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The (box, ground-truth) pairs of IoU above the threshold, in matching order.

    Boxes go by descending confidence, human boxes first on ties, then
    by index; each box's pairs by best IoU, then lowest column.
    """
    rows, cols, ious = iou_pairs(anns, gt)
    above = ious > iou_threshold
    rows, cols, ious = rows[above], cols[above], ious[above]
    ranked = np.lexsort((cols, -ious, rows, ~anns.human[rows], -anns.confidence[rows]))
    return rows[ranked], cols[ranked]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in ``a``."""
    starts = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Root of each of ``n`` nodes in the graph with edges ``a[k]``-``b[k]``.

    Each round hooks every root that an edge joins to a lower root onto
    the lowest such root, then points every node at its root, so a
    round leaves at least one root fewer. A component's root is its
    lowest node.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def recall_by_step(
    anns, first_step: Sequence[int], steps: int, gt: Sequence, iou_threshold: float = 0.1
) -> list[float]:
    """Recall after each step 0..steps of a set whose boxes arrive over time.

    Box ``i`` counts from step ``first_step[i]`` on. Step k scores the
    boxes present by then exactly as ``recall`` scores them on their
    own: a box, in descending confidence with human boxes first on ties,
    then by index, claims the unmatched ground-truth box of highest IoU
    strictly above the threshold, the lowest column on ties.

    It reads the set's columns. ``iou_pairs`` scores only the pairs in
    each box's x window, and the pairs above the threshold, the
    candidates, stay arrays until the replay. Greedy matching never
    crosses a connected component of the box / ground-truth candidate
    graph, so a component's match count changes only at a step where
    one of its boxes arrives. A component of one ground-truth box
    matches it from the first such step on. A wider component is
    replayed at each such step, each box scanning its candidates for the
    first free column, and ``recall[k]`` carries ``recall[k - 1]`` plus
    the changes at step k.
    """
    if not 0 < iou_threshold <= 1:
        raise ValueError("iou_threshold must be in (0, 1]")
    if len(first_step) != len(anns):
        raise ValueError("first_step needs one step per box")
    if not gt:
        return [1.0] * (steps + 1)
    pairs = len(anns) * len(gt)
    if pairs > MAX_IOU_PAIRS:
        raise ValueError(
            f"{len(anns)} detections against {len(gt)} ground-truth boxes make "
            f"{pairs} IoU pairs, more than the {MAX_IOU_PAIRS} scored at once"
        )
    rows, cols = _candidates(anns, gt, iou_threshold)
    # a row is one box with a candidate; its candidates sit together
    heads = _run_starts(rows)
    arrive = np.clip(np.asarray(first_step, dtype=np.int64)[rows[heads]], 0, steps + 1)
    del rows  # one int64 per candidate, not needed past here
    bounds = np.append(heads, len(cols))
    spans = bounds[1:] - bounds[:-1]
    component = _components(np.repeat(cols[heads], spans), cols, len(gt))[cols[heads]]

    # gained[k] counts the matches gained at step k; slot steps + 1 takes the
    # rows that never arrive. A component of one column matches it once, from
    # the step its first row arrives.
    wide = np.zeros(len(gt), dtype=bool)
    wide[component[spans > 1]] = True
    narrow = ~wide[component]
    first = np.full(len(gt), steps + 1)
    np.minimum.at(first, component[narrow], arrive[narrow])
    gained = np.bincount(first, minlength=steps + 2).tolist()

    # A wider component is replayed at each step where one of its rows
    # arrives, and adds the change in its match count.
    members = np.flatnonzero(~narrow)
    members = members[np.argsort(component[members], kind="stable")]
    groups = _run_starts(component[members]).tolist()
    members = members.tolist()
    cands = cols.tolist()
    bounds = bounds.tolist()
    arrive = arrive.tolist()
    for lo, hi in zip(groups, groups[1:] + [len(members)]):
        rows_of = members[lo:hi]
        count = 0
        for k in sorted({arrive[r] for r in rows_of if arrive[r] <= steps}):
            taken = set()
            for r in rows_of:
                if arrive[r] <= k:
                    for j in cands[bounds[r]:bounds[r + 1]]:
                        if j not in taken:
                            taken.add(j)
                            break
            gained[k] += len(taken) - count
            count = len(taken)
    return (np.cumsum(gained[:-1]) / len(gt)).tolist()


def recall(anns, gt: Sequence, iou_threshold: float = 0.1) -> float:
    """Fraction of ground-truth boxes matched one-to-one by detections.

    Empty ground truth counts as recall 1.0 (nothing was missed).
    """
    return recall_by_step(anns, [0] * len(anns), 0, gt, iou_threshold)[0]


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
