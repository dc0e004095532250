"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the trend table. Everything here is seeded and deterministic,
so outcomes are stable across runs and machines.
"""

import random
import time
from typing import NamedTuple, Optional

import numpy as np

import tilecast as tc
from tilecast import codestream as cs_mod
from tilecast.annotate import AnnotationSet, DetectionBox, DetectorModel, OracleDetector
from tilecast.channel import ChannelSpec, bandwidth_budget, transmit
from tilecast.cli import main as cli_main
from tilecast.metrics import TimelineEvent, TimelineReport
from tilecast.pipeline import plan_budget, select_tiles_for_human
from tilecast.raster import GroundTruthBox, Image, TileGrid


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE] criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)
    assert ok, line


# --- 1: codec soundness ---------------------------------------------------


def test_criterion_1_codec_soundness():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    cases = []
    cases.append((13, 17, 1, 5, 5, 7))        # smallest stated size
    cases.append((1024, 1024, 3, 5, 256, 256))  # largest stated size
    while len(cases) < 1000:
        h = 13 + int((1024 - 13) * float(rng.random()) ** 8)
        w = 13 + int((1024 - 13) * float(rng.random()) ** 8)
        c = int(rng.choice([1, 3]))
        levels = int(rng.integers(1, 6))
        tw = int(rng.integers(9, w + 17))
        th = int(rng.integers(9, h + 17))
        cases.append((h, w, c, levels, tw, th))
    bad = 0
    for h, w, c, levels, tw, th in cases:
        img = Image(rng.integers(0, 256, size=(h, w, c)).astype(np.uint8))
        grid = TileGrid.for_image(w, h, tw, th)
        stream = cs_mod.encode(img, grid, levels)
        if cs_mod.assemble(stream, levels) != img:
            bad += 1
    elapsed = time.time() - t0
    report(
        1,
        "codec soundness",
        bad == 0,
        f"{len(cases)} images bit-exact in {elapsed:.1f}s (target < 60s)",
    )


# --- 2: extraction transparency -------------------------------------------


def test_criterion_2_extraction_transparency():
    rng = np.random.default_rng(1002)
    img = Image(rng.integers(0, 256, size=(240, 320, 3)).astype(np.uint8))
    grid = TileGrid.for_image(320, 240, 48, 48)
    stream = cs_mod.encode(img, grid, 5)
    all_idx = list(range(grid.tile_count))
    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(1, grid.tile_count + 1))
        subset = sorted(rng.choice(all_idx, size=k, replace=False).tolist())
        r = int(rng.integers(1, 6))
        sub = cs_mod.extract(stream, subset, r)
        got = cs_mod.decode(sub, subset, r)
        want = cs_mod.decode(stream, subset, r)
        for (gi, gtile), (wi, wtile) in zip(got, want):
            if gi != wi or gtile.samples != wtile.samples:
                mismatches += 1
    monotone = all(
        cs_mod.size_of(stream, [t], r) <= cs_mod.size_of(stream, [t], r + 1)
        for t in all_idx
        for r in range(1, 5)
    )
    report(
        2,
        "extraction transparency",
        mismatches == 0 and monotone,
        f"200 subset/resolution pairs byte-identical; sizes monotone: {monotone}",
    )


# --- 3: budget calculator oracle -------------------------------------------


def _brute_force_plan(sizes, tile_sizes, bw, mu, cap, tiles, estimate):
    feas = [r for r in range(1, len(sizes) + 1) if sizes[r - 1] <= bw]
    if not feas:
        return (None, 0)
    lr = max(feas)
    slack = bw - sizes[lr - 1]
    if estimate == "max":
        n = slack // max(tile_sizes)
    else:
        n = slack * len(tile_sizes) // sum(tile_sizes)
    n = min(n, tiles)
    if mu > 0:
        n = min(n, int(cap / mu))
    return (lr, int(n))


def test_criterion_3_budget_oracle(tmp_path):
    r = random.Random(1003)
    wrong = 0
    saw_infeasible = 0
    for _ in range(10_000):
        levels = r.randrange(1, 7)
        sizes = sorted(r.randrange(1, 50_000) for _ in range(levels))
        tiles = r.randrange(1, 40)
        tile_sizes = [r.randrange(1, 3000) for _ in range(tiles)]
        bw = r.randrange(0, 60_000)
        mu = r.choice([0.5, 7.0, 30.0])
        cap = r.choice([0.0, 60.0, 300.0])
        estimate = r.choice(["max", "mean"])
        plan = plan_budget(sizes, tile_sizes, bw, mu, cap, estimate)
        expect = _brute_force_plan(sizes, tile_sizes, bw, mu, cap, tiles, estimate)
        if (plan.lr, plan.human_budget) != expect:
            wrong += 1
        if plan.lr is None:
            saw_infeasible += 1

    # the infeasible branch must surface as feasible=false / recall 0 in cmd_run
    cfg = tmp_path / "starved.cfg"
    cfg.write_text(
        "synthetic = 3, 192, 192, 6\ntile_w = 64\ntile_h = 64\nlevels = 3\n"
        "data_rates = 0.05\nt_TRlimits = 10\nmu_t_hum = 10\nt_hum_cap = 40\n"
    )
    out = tmp_path / "out"
    code = cli_main(["--quiet", "--out-dir", str(out), "run", str(cfg)])
    row = (out / "grid.csv").read_text().splitlines()[1].split(",")
    cmd_ok = (
        code == 0
        and row[3] == "false"
        and float(row[8]) == 0.0
        and row[6] == ""
        and row[10] == ""
    )
    report(
        3,
        "budget calculator oracle",
        wrong == 0 and saw_infeasible > 0 and cmd_ok,
        f"10000 instances exact ({saw_infeasible} infeasible); starved cmd_run cell ok={cmd_ok}",
    )


# --- 4: indexer oracle ------------------------------------------------------


def test_criterion_4_indexer_oracle():
    r = random.Random(1004)
    grid = TileGrid.for_image(640, 640, 64, 64)
    wrong = 0
    for _ in range(10_000):
        n = r.randrange(0, 30)
        boxes = tuple(
            DetectionBox(
                r.randrange(0, grid.tile_count), 0,
                float(r.randrange(0, 600)), float(r.randrange(0, 600)),
                4.0, 4.0, round(r.random(), 2), "DL",
            )
            for _ in range(n)
        )
        anns = AnnotationSet(boxes)
        budget = r.randrange(0, 14)
        order = sorted(
            range(len(boxes)), key=lambda i: (boxes[i].confidence, boxes[i].tile_index, i)
        )
        expect = []
        for i in order:
            t = boxes[i].tile_index
            if t not in expect:
                expect.append(t)
            if len(expect) == budget:
                break
        if select_tiles_for_human(anns, budget) != expect[:budget]:
            wrong += 1
    report(4, "indexer oracle", wrong == 0, "10000 annotation sets exact incl. tie-breaks")


# --- 5: timing arithmetic ----------------------------------------------------


def test_criterion_5_timing_arithmetic():
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=1e9)
    t_base_tr = transmit(25_600_000, ch, "HR-all").seconds
    base = TimelineReport(
        events=(TimelineEvent(t_base_tr, 0.9, "DL"), TimelineEvent(t_base_tr + tc.human_time(10, 30.0), 0.95, "HUM-tile-10")),
        t_tr=t_base_tr,
        t_hum=tc.human_time(10, 30.0),
    )
    t_prop_tr = (
        transmit(1_600_000, ch, "LR-all").seconds
        + transmit(0, ch, "indices").seconds
        + transmit(380_000, ch, "HR-selected").seconds
    )
    prop = TimelineReport(
        events=(TimelineEvent(t_prop_tr, 0.6, "DL"), TimelineEvent(t_prop_tr + tc.human_time(4, 30.0), 0.7, "HUM-tile-4")),
        t_tr=t_prop_tr,
        t_hum=tc.human_time(4, 30.0),
    )
    ratio = tc.response_ratio(base, prop)
    ok = (
        abs(base.t_rs - 13_100.0) <= 13_100.0 * 1e-9
        and abs(prop.t_rs - 1_110.0) <= 1_110.0 * 1e-9
        and abs(ratio - 13_100.0 / 1_110.0) <= (13_100.0 / 1_110.0) * 1e-9
        and round(ratio, 2) == 11.8
    )
    report(
        5,
        "timing arithmetic",
        ok,
        f"t_rs_base={base.t_rs}, t_rs_prop={prop.t_rs}, ratio={ratio:.4f}",
    )


# --- 6: trend reproduction ----------------------------------------------------


RATES = (176.0, 88.0, 22.0)     # high -> low
LIMITS = (180.0, 600.0, 1800.0)  # short -> long
SEEDS = 20
LEVELS = 5
BASE_BUDGET = 10  # baseline human tiles: t_hum_cap / mu_t_hum = 300 / 30


class _SeedRun(NamedTuple):
    """One seed's streamlined plan in one cell, and how it compared.

    ``full_fits`` is the link's own verdict, from a byte count that does
    not go through the planner: the full-resolution payload fits the
    bandwidth budget. ``ratio`` and ``recall_diff`` are None unless
    both frameworks were feasible.
    """

    lr: Optional[int]
    human_budget: int
    full_fits: bool
    ratio: Optional[float]
    recall_diff: Optional[float]


def _trend_sweep():
    mu, cap = 30.0, 300.0
    runs = {(r, t): [] for r in RATES for t in LIMITS}
    t0 = time.time()
    for seed in range(SEEDS):
        img, gt = tc.generate_scene(seed, 2048, 2048, 40)
        grid = TileGrid.for_image(2048, 2048, 256, 256)
        stream = cs_mod.measure(img, grid, LEVELS)
        full_size = cs_mod.size_of(stream, range(grid.tile_count), LEVELS)
        det = OracleDetector(DetectorModel.default(LEVELS), grid, 2048, 2048)
        for rate in RATES:
            for limit in LIMITS:
                ch = ChannelSpec(rate * 1000.0, limit)
                base = tc.run_baseline(
                    img, grid, LEVELS, ch, mu, BASE_BUDGET, det, gt, seed, codestream=stream
                )
                prop = tc.run_streamlined(
                    img, grid, LEVELS, ch, mu, cap, det, gt, seed, codestream=stream
                )
                ratio = diff = None
                if base.feasible and prop.feasible:
                    ratio = tc.response_ratio(base.timeline, prop.timeline)
                    diff = tc.recall_difference(
                        base.timeline.final_recall, prop.timeline.final_recall
                    )
                runs[(rate, limit)].append(
                    _SeedRun(
                        prop.plan.lr,
                        prop.plan.human_budget,
                        full_size <= bandwidth_budget(ch),
                        ratio,
                        diff,
                    )
                )
        print(f"[trend] seed {seed + 1}/{SEEDS} done ({time.time() - t0:.0f}s)", flush=True)
    means = {}
    for key, seeds in runs.items():
        if all(s.ratio is not None for s in seeds):
            means[key] = (
                sum(s.ratio for s in seeds) / SEEDS,
                sum(s.recall_diff for s in seeds) / SEEDS,
            )
        else:
            means[key] = None
    return means, runs, time.time() - t0


def _span(values):
    """'a' when every value is a, 'a-b' for a range, '-' when there are none."""
    values = [v for v in values if v is not None]
    if not values:
        return "-"
    lo, hi = min(values), max(values)
    return f"{lo}" if lo == hi else f"{lo}-{hi}"


def test_criterion_6_trend_reproduction():
    means, runs, elapsed = _trend_sweep()
    full_res = {key for key, seeds in runs.items() if all(s.full_fits for s in seeds)}
    print(f"[trend] mean over {SEEDS} seeds, {elapsed:.0f}s (target < 300s)")
    print("[trend] rate_kbps t_limit_s   lr  human  mean_ratio  mean_recall_diff")
    for rate in RATES:
        for limit in LIMITS:
            seeds = runs[(rate, limit)]
            plan = f"{_span(s.lr for s in seeds):>4} {_span(s.human_budget for s in seeds):>6}"
            cell = means[(rate, limit)]
            if cell is None:
                print(f"[trend] {rate:9g} {limit:9g} {plan}  (infeasible)")
            else:
                mark = "  full resolution" if (rate, limit) in full_res else ""
                print(f"[trend] {rate:9g} {limit:9g} {plan}  {cell[0]:10.3f}  {cell[1]:16.4f}{mark}")

    failures = []

    # (a) The planner streams below full resolution exactly when the link
    # cannot carry the full-resolution payload. There the streamlined
    # framework must be faster (mean ratio > 1). Where the link carries
    # it, the streamlined run degenerates to the baseline, so with equal
    # human budgets every seed must match it exactly.
    for key, seeds in runs.items():
        where = f"{key[0]:g}kbps/{key[1]:g}s"
        for seed, s in enumerate(seeds):
            if (s.lr == LEVELS) != s.full_fits:
                failures.append(
                    f"(a) seed {seed} planned lr={s.lr} but full payload fits={s.full_fits} at {where}"
                )
        cell = means[key]
        if cell is None:
            continue
        if key not in full_res:
            if not cell[0] > 1.0:
                failures.append(f"(a) ratio {cell[0]:.4f} <= 1 at {where}")
            continue
        for seed, s in enumerate(seeds):
            if s.human_budget != BASE_BUDGET:
                failures.append(
                    f"(a) seed {seed} human budget {s.human_budget} != baseline's "
                    f"{BASE_BUDGET} at full-resolution {where}"
                )
            elif s.ratio != 1.0 or s.recall_diff != 0.0:
                failures.append(
                    f"(a) seed {seed} differs from the baseline at full-resolution {where}: "
                    f"ratio {s.ratio!r}, recall_diff {s.recall_diff!r}"
                )

    # (b) ratio strictly increases as rate decreases (fixed limit) and as
    # limit decreases (fixed rate)
    for limit in LIMITS:
        chain = [means[(rate, limit)] for rate in RATES]
        vals = [c[0] for c in chain if c is not None]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            failures.append(f"(b) ratio not increasing as rate drops at limit {limit:g}s: {vals}")
    for rate in RATES:
        chain = [means[(rate, limit)] for limit in reversed(LIMITS)]  # long -> short
        vals = [c[0] for c in chain if c is not None]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            failures.append(f"(b) ratio not increasing as limit drops at rate {rate:g}kbps: {vals}")

    # (c) recall_diff >= 0 in every mutually feasible cell
    for key, cell in means.items():
        if cell is not None and cell[1] < 0:
            failures.append(f"(c) recall_diff {cell[1]:.4f} < 0 at {key[0]:g}kbps/{key[1]:g}s")

    # (d) recall_diff decreases as the limit grows at fixed rate (0.01 slack)
    for rate in RATES:
        chain = [means[(rate, limit)] for limit in LIMITS]
        vals = [c[1] for c in chain if c is not None]
        if any(b > a + 0.01 for a, b in zip(vals, vals[1:])):
            failures.append(f"(d) recall_diff not decreasing with limit at {rate:g}kbps: {vals}")

    exact = ", ".join(f"{r:g}kbps/{t:g}s" for r, t in sorted(full_res)) or "none"
    report(
        6,
        "trend reproduction",
        not failures,
        ("; ".join(failures) if failures else f"all trend assertions hold ({elapsed:.0f}s)")
        + f"; full-resolution cells held to exact equality: {exact}",
    )


# --- 7: metric fixtures ---------------------------------------------------------


def test_criterion_7_metric_fixtures():
    r = random.Random(1007)

    def pixel_iou(a, b):
        sa = {(x, y) for x in range(a[0], a[0] + a[2]) for y in range(a[1], a[1] + a[3])}
        sb = {(x, y) for x in range(b[0], b[0] + b[2]) for y in range(b[1], b[1] + b[3])}
        return len(sa & sb) / len(sa | sb)

    class B:
        def __init__(self, x, y, w, h):
            self.x, self.y, self.w, self.h = x, y, w, h

    wrong = 0
    for _ in range(1000):
        a = (r.randrange(0, 14), r.randrange(0, 14), r.randrange(1, 9), r.randrange(1, 9))
        b = (r.randrange(0, 14), r.randrange(0, 14), r.randrange(1, 9), r.randrange(1, 9))
        if abs(tc.iou(B(*a), B(*b)) - pixel_iou(a, b)) > 1e-12:
            wrong += 1

    # recall fixtures including the strict > 0.1 boundary
    gt = [GroundTruthBox(0, 0, 0, 0, 1, 10)]
    boundary = AnnotationSet(
        (DetectionBox(0, 0, 0.0, 0.0, 1.0, 1.0, 0.9, "DL"),)
    )  # IoU exactly 0.1
    above = AnnotationSet((DetectionBox(0, 0, 0.0, 0.0, 1.0, 2.0, 0.9, "DL"),))
    boundary_ok = tc.recall(boundary, gt) == 0.0 and tc.recall(above, gt) == 1.0
    report(
        7,
        "metric fixtures",
        wrong == 0 and boundary_ok,
        f"1000 IoU pairs match pixel-set oracle; boundary IoU==0.1 rejected: {boundary_ok}",
    )


# --- 8: detector statistics -------------------------------------------------------


def test_criterion_8_detector_statistics():
    rng = np.random.default_rng(1008)
    grid = TileGrid.for_image(1024, 1024, 128, 128)
    gt = []
    for i in range(1000):
        x = int(rng.integers(0, 1024 - 10))
        y = int(rng.integers(0, 1024 - 10))
        gt.append(GroundTruthBox(i, 0, x, y, 10, 10))
    model = DetectorModel(detect_p=(0.7,), conf_mean=(0.6,), fp_rate=0.0)
    fractions = []
    deterministic = True
    for seed in range(10):
        anns = tc.oracle_detect(gt, 1, model, seed, grid)
        again = tc.oracle_detect(gt, 1, model, seed, grid)
        deterministic &= anns == again
        fractions.append(len(anns) / len(gt))
    in_band = all(0.65 <= f <= 0.75 for f in fractions)
    report(
        8,
        "detector statistics",
        in_band and deterministic,
        f"fractions {min(fractions):.3f}..{max(fractions):.3f} in [0.65, 0.75]; deterministic={deterministic}",
    )


# --- 9: end-to-end determinism ------------------------------------------------------


def test_criterion_9_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "synthetic = 9, 256, 256, 8\nobject_size = 12, 24\ntile_w = 64\ntile_h = 64\n"
        "levels = 4\ndata_rates = 16, 64\nt_TRlimits = 30, 120\nmu_t_hum = 10\n"
        "t_hum_cap = 40\nseed = 5\n"
    )
    blobs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        code = cli_main(["--quiet", "--out-dir", str(out), "run", str(cfg), "--threads", threads])
        assert code == 0
        grid_bytes = (out / "grid.csv").read_bytes()
        timeline_bytes = b"".join(
            sorted((p.read_bytes() for p in out.glob("timeline_*.csv")))
        )
        blobs.append((grid_bytes, timeline_bytes))
    identical = blobs[0] == blobs[1] == blobs[2]
    report(
        9,
        "end-to-end determinism",
        identical,
        "grid.csv and timelines byte-identical across reruns and thread counts",
    )
