"""Output checks computed apart from the program.

Every check raises ``CheckFailed`` on a wrong output. The checks use
properties of the method (byte budgets, the dyadic codestream layout,
the timeline arithmetic) and the benchmark's own recomputations
(greedy-IoU recall, the plain-Python 5/3 decoder in ``ref53``); none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import ref53
from tilecast import codestream as cs_mod


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's recomputation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- codec -----------------------------------------------------------------


def check_codec(case, out) -> None:
    """One codec-mix operation: round trip, extraction, wire format, 5/3.

    ``case`` holds the source image, tiling, levels, the extracted tile
    subset and resolution and the sampled (tile, component); ``out``
    holds what the program returned (see ``workloads.CodecMix.run``).
    """
    src = case.image.pixels
    got = out.assembled.pixels
    expect(got.shape == src.shape, f"assembled shape {got.shape} != source {src.shape}")
    expect(np.array_equal(got, src), "full-resolution decode differs from the source pixels")

    cs, parsed = out.stream, out.parsed
    for field in ("width", "height", "tile_w", "tile_h", "levels", "components",
                  "max_resolution", "entries", "payload"):
        expect(getattr(parsed, field) == getattr(cs, field),
               f"parse(write(cs)) changed {field}")
    table_sum = sum(sum(comp) for e in parsed.entries for comp in e.seg_lengths)
    expect(len(parsed.payload) == table_sum, "payload length differs from the table's sum")
    rows = len(cs.entries) * (1 + cs.components * cs.max_resolution)
    expect(len(out.blob) == ref53.HEADER.size + 4 * rows + len(cs.payload),
           "serialized size differs from header + table + payload")

    indices = [i for i, _ in out.sub_tiles]
    expect(indices == list(case.subset), "decoded tiles differ from the requested subset")
    want = dict(cs_mod.decode(cs, case.subset, case.resolution))
    for index, tile in out.sub_tiles:
        expect(tile == want[index],
               f"sub-stream tile {index} differs from the full stream's at r={case.resolution}")

    tile = dict(out.sub_tiles)[case.sample_tile].pixels[:, :, case.sample_component]
    ref = ref53.decode_tile(out.blob, case.sample_tile, case.sample_component, case.resolution)
    expect(tile.shape == (len(ref), len(ref[0])),
           f"tile {case.sample_tile} has shape {tile.shape}, the reference decoder gives "
           f"{(len(ref), len(ref[0]))}")
    expect(tile.tolist() == ref,
           f"tile {case.sample_tile} component {case.sample_component} differs from the "
           f"plain-Python 5/3 synthesis at r={case.resolution}")


# --- recall ----------------------------------------------------------------


def reference_recall(boxes, gt, iou_threshold: float) -> float:
    """Greedy one-to-one matching as the method defines it.

    Detections in order of descending confidence, human boxes first on
    ties, then list order; each takes the unmatched ground-truth box of
    highest IoU strictly above the threshold (first on ties).
    """
    if not gt:
        return 1.0
    order = sorted(range(len(boxes)),
                   key=lambda i: (-boxes[i].confidence, boxes[i].source != "HUM", i))
    d = np.array([[b.x, b.y, b.w, b.h] for b in boxes], dtype=float).reshape(-1, 4)[order]
    g = np.array([[b.x, b.y, b.w, b.h] for b in gt], dtype=float)
    ix = np.minimum(d[:, None, 0] + d[:, None, 2], g[None, :, 0] + g[None, :, 2]) - np.maximum(
        d[:, None, 0], g[None, :, 0])
    iy = np.minimum(d[:, None, 1] + d[:, None, 3], g[None, :, 1] + g[None, :, 3]) - np.maximum(
        d[:, None, 1], g[None, :, 1])
    inter = ix * iy
    union = d[:, None, 2] * d[:, None, 3] + g[None, :, 2] * g[None, :, 3] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where((ix > 0) & (iy > 0), inter / union, 0.0)
    free = np.ones(len(gt), dtype=bool)
    tp = 0
    for row in iou:
        cand = np.where(free & (row > iou_threshold), row, -1.0)
        j = int(np.argmax(cand))
        if cand[j] > iou_threshold:
            free[j] = False
            tp += 1
    return tp / len(gt)


# --- link cells ------------------------------------------------------------


def _budget(rate_kbps: float, limit_s: float) -> int:
    """Whole bytes a link carries within the limit: floor(rate * limit / 8)."""
    return int(Fraction(rate_kbps * 1000.0) * Fraction(limit_s) / 8)


def _hum_events(run) -> list[str]:
    return [e.phase for e in run.timeline.events if e.phase.startswith("HUM")]


def check_run_timeline(run, gt, mu: float, budget: int, iou_threshold: float, tag: str) -> None:
    events = run.timeline.events
    hum = _hum_events(run)
    expect(hum == [f"HUM-tile-{k}" for k in range(1, len(hum) + 1)],
           f"{tag}: HUM events are not HUM-tile-1..k in order")
    expect(len(hum) <= budget, f"{tag}: {len(hum)} human tiles exceed the budget {budget}")
    expect(run.timeline.t_hum == mu * len(hum), f"{tag}: t_hum is not mu per HUM event")
    if events:
        expect(events[-1].time_s == run.timeline.t_rs, f"{tag}: timeline does not end at t_rs")
        dl = [b for b in run.annotations.boxes if b.source == "DL"]
        expect(events[0].phase == "DL" and
               events[0].recall == reference_recall(dl, gt, iou_threshold),
               f"{tag}: DL recall differs from the greedy-IoU recomputation")
    want = reference_recall(run.annotations.boxes, gt, iou_threshold) if events else 0.0
    expect(run.timeline.final_recall == want,
           f"{tag}: final recall {run.timeline.final_recall} != recomputed {want}")


def check_cell(rate_kbps, limit_s, base, prop, row, gt, *, mu, baseline_budget,
               levels, iou_threshold, full_payload=None) -> int:
    """Check one link cell; returns the baseline's whole-byte payload P.

    The ratio rules come first, then the plan against the byte budget,
    then each timeline and its recalls, then the streamlined transfer
    time against the limit.
    """
    tag = f"{rate_kbps:g} kbps / {limit_s:g} s"
    rate = rate_kbps * 1000.0
    budget = _budget(rate_kbps, limit_s)
    lr = prop.plan.lr
    n_base, n_prop = len(_hum_events(base)), len(_hum_events(prop))

    expect(row.t_rs_base == base.timeline.t_rs and row.t_rs_prop == prop.timeline.t_rs,
           f"{tag}: row response times differ from the timelines")
    expect(row.recall_diff == row.recall_base - row.recall_prop,
           f"{tag}: recall_diff is not recall_base - recall_prop")
    expect(prop.feasible == (lr is not None), f"{tag}: feasibility disagrees with the plan")
    if not prop.feasible:
        expect(row.t_rs_ratio is None, f"{tag}: ratio reported for an infeasible cell")
    else:
        expect(row.t_rs_ratio == base.timeline.t_rs / prop.timeline.t_rs,
               f"{tag}: t_rs_ratio is not t_rs_base / t_rs_prop")
        if lr == levels and prop.plan.human_budget == baseline_budget:
            expect(row.t_rs_ratio == 1.0 and row.recall_diff == 0.0,
                   f"{tag}: full-resolution plan with equal human budgets gave ratio "
                   f"{row.t_rs_ratio}, recall_diff {row.recall_diff}")
        if lr < levels and n_base >= n_prop:
            # the full payload P exceeds floor(rate * limit / 8) >= the bytes sent
            expect(row.t_rs_ratio > 1.0,
                   f"{tag}: ratio {row.t_rs_ratio} <= 1 in a below-full-resolution cell")

    payload = round(base.timeline.t_tr * rate / 8)
    expect(payload * 8 / rate == base.timeline.t_tr,
           f"{tag}: baseline transfer {base.timeline.t_tr} s is not a whole-byte payload")
    if full_payload is not None:
        expect(payload == full_payload,
               f"{tag}: baseline sends {payload} B, the full stream is {full_payload} B")
    expect((lr == levels) == (payload <= budget),
           f"{tag}: plan lr={lr} but the {payload} B payload "
           f"{'fits' if payload <= budget else 'exceeds'} the {budget} B budget")

    check_run_timeline(base, gt, mu, baseline_budget, iou_threshold, tag + " baseline")
    check_run_timeline(prop, gt, mu, prop.plan.human_budget, iou_threshold,
                       tag + " streamlined")
    t_tr_prop = prop.timeline.t_rs - mu * n_prop
    expect(t_tr_prop <= limit_s * (1 + 1e-12),
           f"{tag}: streamlined transfer {t_tr_prop} s exceeds the limit")
    return payload


def check_plan(stream, plan, rate_kbps, limit_s, mu, hum_cap) -> None:
    """The plan recomputed from the stream's table: highest fitting level, then budget."""
    budget = _budget(rate_kbps, limit_s)
    sizes = [sum(sum(comp[:r]) for e in stream.entries for comp in e.seg_lengths)
             for r in range(1, stream.levels + 1)]
    fitting = [r for r, size in enumerate(sizes, start=1) if size <= budget]
    lr = max(fitting) if fitting else None
    expect(plan.lr == lr, f"{rate_kbps:g} kbps / {limit_s:g} s: plan lr={plan.lr}, "
                          f"the table gives {lr}")
    if lr is None:
        return
    per_tile = max(sum(sum(comp) for comp in e.seg_lengths) for e in stream.entries)
    humans = min((budget - sizes[lr - 1]) // per_tile, len(stream.entries), int(hum_cap / mu))
    expect(plan.human_budget == humans,
           f"{rate_kbps:g} kbps / {limit_s:g} s: human budget {plan.human_budget}, "
           f"the table gives {humans}")


def check_grid(cells, payloads, levels) -> None:
    """Across a grid: one payload everywhere, lr non-decreasing in rate and limit.

    ``cells`` maps (rate_kbps, limit_s) to the streamlined plan's lr.
    """
    expect(len(set(payloads)) == 1, f"baseline payload differs between cells: {set(payloads)}")
    rates = sorted({r for r, _ in cells})
    limits = sorted({t for _, t in cells})
    level = {k: 0 if lr is None else lr for k, lr in cells.items()}
    for r in rates:
        seq = [level[(r, t)] for t in limits]
        expect(seq == sorted(seq), f"lr_level decreases with the limit at {r:g} kbps: {seq}")
    for t in limits:
        seq = [level[(r, t)] for r in rates]
        expect(seq == sorted(seq), f"lr_level decreases with the rate at {t:g} s: {seq}")
    expect(all(0 <= v <= levels for v in level.values()), "lr_level outside 0..levels")
