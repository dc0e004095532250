"""End-to-end orchestration of the two annotation frameworks.

Both frameworks run one flow on a ``BudgetPlan``: send every tile at
``plan.lr``, annotate with the detector, and send the lowest-confidence
tiles to the human. A plan is two numbers, ``lr`` and the human budget;
the codestream's table gives the rest, its tiles and its depth.
``run_baseline`` fixes the plan at the table's full resolution with a
given human budget. ``run_streamlined`` fits the plan to the bandwidth
budget (``compute_budget``), then exchanges the picked tiles' indices
and pulls those tiles back up to full resolution. At full resolution
with free indices the two therefore agree bit for bit.

Transfers are charged by their byte counts, read from the codestream's
table. Without a ``codestream=`` argument the table comes from
``codestream.measure``, which sizes every segment without writing it;
nothing is encoded or decoded here, since the detectors take ground
truth, not pixels. Writing and reading bytes is the codec's business
(``tilecast encode`` / ``tilecast decode``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import channel as ch_mod
from . import codestream as cs_mod
from .annotate import AnnotationSet, human_annotate
from .channel import ChannelSpec, transmit
from .metrics import TimelineEvent, TimelineReport, human_time, recall_by_step
from .metrics import recall  # noqa: F401  bench/spans.py traces pipeline.recall by name
from .raster import GroundTruthBox, Image, TileGrid

ESTIMATE_MAX = "max"
ESTIMATE_MEAN = "mean"


@dataclass(frozen=True)
class BudgetPlan:
    """Output of the budget calculator.

    ``lr`` is None when even resolution level 1 exceeds the bandwidth
    budget — the run is infeasible and constraints must be relaxed.
    """

    lr: Optional[int]
    human_budget: int

    def __post_init__(self):
        if self.lr is not None and self.lr < 1:
            raise ValueError(f"lr {self.lr} must be >= 1")
        if self.human_budget < 0:
            raise ValueError("human budget must be >= 0")


@dataclass(frozen=True)
class RunResult:
    """One framework run: merged annotations, plan, and timings."""

    annotations: AnnotationSet
    plan: BudgetPlan
    timeline: TimelineReport

    @property
    def feasible(self) -> bool:
        return self.plan.lr is not None


def plan_budget(
    sizes_by_resolution: Sequence[int],
    tile_hr_sizes: Sequence[int],
    bw_bytes: int,
    mu_t_hum: float,
    t_hum_cap: float,
    estimate: str = ESTIMATE_MAX,
) -> BudgetPlan:
    """Pick the highest transmittable resolution and the human budget.

    Scans resolution levels from the top down; the first whose
    whole-image payload fits the budget becomes ``lr``, and the leftover
    bytes fund full-resolution tiles for the human at the per-tile cost
    given by ``estimate`` ("max" never overshoots the budget; "mean"
    reads the per-tile size as a constant average instead). The budget
    is further capped by the annotator time cap (none when ``mu_t_hum``
    is 0) and by the tile count, ``len(tile_hr_sizes)``, which must be
    at least 1. A NaN or negative ``mu_t_hum``, and a NaN, infinite or
    negative ``t_hum_cap``, raise ``ValueError``.
    """
    if not mu_t_hum >= 0:
        raise ValueError(f"mu_t_hum must be >= 0, got {mu_t_hum!r}")
    if not 0 <= t_hum_cap < math.inf:
        raise ValueError(f"t_hum_cap must be finite and >= 0, got {t_hum_cap!r}")
    hr = len(sizes_by_resolution)
    if hr < 1:
        raise ValueError("need at least one resolution level")
    if not tile_hr_sizes:
        raise ValueError("need at least one tile size")
    if estimate not in (ESTIMATE_MAX, ESTIMATE_MEAN):
        raise ValueError(f"unknown tile size estimate {estimate!r}")
    lr = None
    for r in range(hr, 0, -1):
        if sizes_by_resolution[r - 1] <= bw_bytes:
            lr = r
            break
    if lr is None:
        return BudgetPlan(lr=None, human_budget=0)
    slack = bw_bytes - sizes_by_resolution[lr - 1]
    tile_count = len(tile_hr_sizes)
    if estimate == ESTIMATE_MAX:
        per_tile = max(tile_hr_sizes)
        by_bandwidth = slack // per_tile if per_tile > 0 else tile_count
    else:
        total = sum(tile_hr_sizes)
        by_bandwidth = slack * tile_count // total if total > 0 else tile_count
    budget = min(by_bandwidth, tile_count)
    # compared before int(), which refuses the inf a tiny mu_t_hum gives
    if mu_t_hum > 0 and t_hum_cap / mu_t_hum < budget:
        budget = int(t_hum_cap / mu_t_hum)
    return BudgetPlan(lr=lr, human_budget=int(budget))


def compute_budget(
    cs: cs_mod.CodestreamTable,
    ch: ChannelSpec,
    mu_t_hum: float,
    t_hum_cap: float,
    estimate: str = ESTIMATE_MAX,
) -> BudgetPlan:
    """Budget plan for a full codestream (or its table) over a channel.

    Sizes are counted by ``TileEntry.total``, as ``size_of`` counts
    them: each resolution's bytes over all tiles, and each tile's
    full-resolution size.
    """
    if cs.tile_count != cs.grid.tile_count or cs.max_resolution != cs.levels:
        raise ValueError("compute_budget requires a full codestream")
    return plan_budget(
        [sum(e.total(r) for e in cs.entries) for r in range(1, cs.levels + 1)],
        [e.total(cs.levels) for e in cs.entries],
        ch_mod.bandwidth_budget(ch),
        mu_t_hum,
        t_hum_cap,
        estimate,
    )


def select_tiles_for_human(anns: AnnotationSet, budget: int) -> list[int]:
    """Tiles owning the lowest-confidence detections, up to ``budget``.

    Boxes are ranked by ascending confidence (ties: lower tile index,
    then earlier box), one stable ``lexsort`` of the set's confidence
    and tile columns; each tile takes the place of its first box in that
    ranking, and the first ``budget`` tiles are chosen. Tiles with no
    detections are never selected.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    ranked = anns.tile[np.lexsort((anns.tile, anns.confidence))]
    return list(dict.fromkeys(ranked.tolist()))[:budget]


def _human_timeline(
    dl_anns: AnnotationSet,
    selected: Sequence[int],
    gt: Sequence[GroundTruthBox],
    grid: TileGrid,
    dl_time: float,
    t_tr: float,
    mu_t_hum: float,
    iou_threshold: float,
):
    """DL event plus one recall sample per human-annotated tile.

    The DL sample lands when the detector's input has arrived
    (``dl_time``); human samples step from the end of all transfers.
    Sample k scores ``dl_anns`` merged with
    ``human_annotate(selected[:k], gt, grid)``. That set is the boxes of
    ``human_annotate(selected, ...)`` whose tile, the first selected
    tile the box meets, is among the first k, so one annotation and one
    ``recall_by_step`` serve every sample: a human box arrives at the
    step of its tile, read from the tile column.
    """
    human = human_annotate(selected, gt, grid)
    tiles, first = np.unique(np.array(selected, dtype=np.int64), return_index=True)
    first_step = np.concatenate((np.zeros(len(dl_anns), dtype=np.int64),
                                 first[np.searchsorted(tiles, human.tile)] + 1))
    merged = dl_anns.merged_with(human)
    recalls = recall_by_step(merged, first_step, len(selected), gt, iou_threshold)
    events = [TimelineEvent(dl_time, recalls[0], "DL")]
    for k in range(1, len(selected) + 1):
        events.append(TimelineEvent(t_tr + human_time(k, mu_t_hum), recalls[k], f"HUM-tile-{k}"))
    return events, merged


def _run_plan(
    cs: cs_mod.CodestreamTable, ch: ChannelSpec, plan: BudgetPlan, exchange: bool,
    mu_t_hum: float, detector, gt: Sequence[GroundTruthBox], seed: int,
    compute_delay: float, iou_threshold: float,
) -> RunResult:
    """The flow both frameworks run on their plan.

    The table alone gives the run's tiles and its full resolution,
    ``cs.levels``. With ``exchange`` the picked tiles' indices go up and
    those tiles come back at ``cs.levels``: a zero-byte transfer when
    ``plan.lr`` is already full resolution. An infeasible plan sends
    nothing. A human time per tile that is not positive is refused
    before any transfer, and so is a ground-truth box that leaves the
    table's image, which no tile could hold, a detector on another tile
    grid than the table's (the grid names its image size, so this covers
    the image too), whose tile indices would name other tiles, or an
    oracle of another depth than the table's; a replay names no depth.
    """
    if not mu_t_hum > 0:
        raise ValueError(f"mu_t_hum must be > 0, got {mu_t_hum!r}")
    for b in gt:
        if b.x + b.w > cs.width or b.y + b.h > cs.height:
            raise ValueError(f"ground-truth object {b.object_id} at ({b.x}, {b.y}) size "
                             f"{b.w}x{b.h} lies outside the {cs.width}x{cs.height} image")
    grid = cs.grid
    if detector.grid != grid:
        ours, theirs = (f"{g.tile_count} tiles of {g.tile_w}x{g.tile_h} on {g.width}x{g.height}"
                        for g in (detector.grid, grid))
        raise ValueError(f"detector tile grid ({ours}) is not the codestream's ({theirs})")
    if detector.levels not in (None, cs.levels):
        raise ValueError(f"detector depth ({detector.levels} levels) is not the codestream's "
                         f"({cs.levels} levels)")
    if plan.lr is None:
        timeline = TimelineReport(events=(), t_tr=0.0, t_hum=0.0)
        return RunResult(annotations=AnnotationSet(), plan=plan, timeline=timeline)
    all_tiles = list(range(grid.tile_count))
    label = ch_mod.LABEL_LR_ALL if exchange else ch_mod.LABEL_HR_ALL
    tr_all = transmit(cs_mod.size_of(cs, all_tiles, plan.lr), ch, label)
    dl_anns = detector.detect(gt, plan.lr, seed)
    selected = select_tiles_for_human(dl_anns, plan.human_budget)
    dl_time = compute_delay + tr_all.seconds
    t_tr = dl_time
    if exchange:
        t_tr += transmit(ch_mod.INDEX_BYTES * len(selected), ch, ch_mod.LABEL_INDICES).seconds
        hr_bytes = cs_mod.size_of(cs, selected, cs.levels) if selected and plan.lr < cs.levels else 0
        t_tr += transmit(hr_bytes, ch, ch_mod.LABEL_HR_SELECTED).seconds
    events, merged = _human_timeline(
        dl_anns, selected, gt, grid, dl_time, t_tr, mu_t_hum, iou_threshold
    )
    timeline = TimelineReport(tuple(events), t_tr, human_time(len(selected), mu_t_hum))
    return RunResult(annotations=merged, plan=plan, timeline=timeline)


def run_baseline(
    img: Image,
    grid: TileGrid,
    levels: int,
    ch: ChannelSpec,
    mu_t_hum: float,
    human_budget: int,
    detector,
    gt: Sequence[GroundTruthBox],
    seed: int,
    *,
    codestream: cs_mod.CodestreamTable | None = None,
    compute_delay: float = 0.0,
    iou_threshold: float = 0.1,
) -> RunResult:
    """Conventional flow: send everything at full resolution, then refine.

    The flow runs on a fixed plan, ``lr`` at the table's full depth
    (``cs.levels``) with the given human budget, and without the index
    exchange: the human's tiles are already on the ground. The framework
    does not adapt to the channel, which is exactly its weakness.
    ``codestream`` may be a ``Codestream`` or just its
    ``CodestreamTable``; ``img``, ``grid`` and ``levels`` are read only
    to measure a table when it is not given.
    """
    cs = codestream if codestream is not None else cs_mod.measure(img, grid, levels)
    plan = BudgetPlan(cs.levels, human_budget)
    return _run_plan(
        cs, ch, plan, False, mu_t_hum, detector, gt, seed, compute_delay, iou_threshold
    )


def run_streamlined(
    img: Image,
    grid: TileGrid,
    levels: int,
    ch: ChannelSpec,
    mu_t_hum: float,
    t_hum_cap: float,
    detector,
    gt: Sequence[GroundTruthBox],
    seed: int,
    *,
    codestream: cs_mod.CodestreamTable | None = None,
    compute_delay: float = 0.0,
    iou_threshold: float = 0.1,
    tile_size_estimate: str = ESTIMATE_MAX,
) -> RunResult:
    """Bandwidth-adaptive flow: low resolution first, detail on demand.

    ``compute_budget`` fits the plan to the channel, and the flow runs
    it with the index exchange. When the budget cannot carry even the
    lowest resolution the run is infeasible: no transmissions, empty
    annotations, recall 0. When the chosen level is already full
    resolution the re-transfer is empty, so the flow is the baseline's
    plus the index exchange, which takes no time unless
    ``ch.charge_index_bytes`` is set. Without index charging, and with a
    human budget equal to the baseline's ``human_budget``, the result
    then equals ``run_baseline``'s for the same remaining arguments: the
    same timeline, bit for bit, and the same annotations. ``codestream``
    may be a ``Codestream`` or just its ``CodestreamTable``; ``img``,
    ``grid`` and ``levels`` are read only to measure a table when it is
    not given.
    """
    cs = codestream if codestream is not None else cs_mod.measure(img, grid, levels)
    plan = compute_budget(cs, ch, mu_t_hum, t_hum_cap, estimate=tile_size_estimate)
    return _run_plan(
        cs, ch, plan, True, mu_t_hum, detector, gt, seed, compute_delay, iou_threshold
    )
