"""Scenario-grid execution and report emission.

Runs both frameworks for every (data rate, time limit) cell of a
scenario on the same inputs and seed, then writes ``grid.csv``, one
timeline CSV per cell, and one recall-vs-time SVG per rate. Output
bytes depend only on the configuration and seed; cells may be computed
on several threads without changing a single byte.

The scene is sized once with ``codestream.measure``: the cells read
segment lengths from its table, so no codestream bytes are written.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import codestream as cs_mod
from .annotate import FileDetector, OracleDetector, file_detect, save_detections
from .channel import ChannelSpec
from .config import ScenarioConfig
from .metrics import ComparisonRow, InfeasibleComparisonError, response_ratio, recall_difference
from .pipeline import RunResult, run_baseline, run_streamlined
from .raster import ImageIOError, TileGrid, generate_scene, load_ground_truth, load_image
from .svg import Panel, render_recall_svg

GRID_CSV_HEADER = (
    "data_rate_kbps,t_trlimit_s,framework_feasible_base,framework_feasible_prop,"
    "t_rs_base_s,t_rs_prop_s,t_rs_ratio,recall_base,recall_prop,recall_diff,"
    "lr_level,human_tiles"
)
TIMELINE_CSV_HEADER = "time_s,recall,phase,framework"


@dataclass(frozen=True)
class GridCell:
    rate_kbps: float
    limit_s: float
    base: RunResult
    prop: RunResult


@dataclass
class GridReport:
    rows: list[ComparisonRow]
    cells: list[GridCell]
    files: list[str]


def _num(v: float) -> str:
    """Compact deterministic number formatting for CSV cells."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _human_tiles(run: RunResult) -> int:
    return sum(1 for e in run.timeline.events if e.phase.startswith("HUM"))


def make_row(rate_kbps: float, limit_s: float, base: RunResult, prop: RunResult) -> ComparisonRow:
    try:
        ratio = response_ratio(base.timeline, prop.timeline)
    except InfeasibleComparisonError:
        ratio = None
    return ComparisonRow(
        scenario_id=f"{rate_kbps:g}kbps_{limit_s:g}s",
        feasible_base=base.feasible,
        feasible_prop=prop.feasible,
        t_rs_base=base.timeline.t_rs,
        t_rs_prop=prop.timeline.t_rs,
        t_rs_ratio=ratio,
        recall_base=base.timeline.final_recall,
        recall_prop=prop.timeline.final_recall,
        recall_diff=recall_difference(
            base.timeline.final_recall, prop.timeline.final_recall
        ),
    )


def load_scene(cfg: ScenarioConfig):
    """Materialize the configured image and ground truth.

    Every ground-truth box must lie wholly inside the image.
    """
    if cfg.synthetic is not None:
        s = cfg.synthetic
        return generate_scene(s.seed, s.width, s.height, s.objects, cfg.object_size)
    img, gt = load_image(cfg.image_path), load_ground_truth(cfg.ground_truth)
    for b in gt:
        if b.x + b.w > img.width or b.y + b.h > img.height:
            raise ImageIOError(
                f"{cfg.ground_truth}: object {b.object_id} at ({b.x}, {b.y}) size "
                f"{b.w}x{b.h} lies outside the {img.width}x{img.height} image"
            )
    return img, gt


def run_grid(
    cfg: ScenarioConfig,
    out_dir: str = ".",
    threads: int = 1,
    save_cell_detections: bool = False,
) -> GridReport:
    """Execute the full scenario grid and emit all report files.

    ``threads`` cells run at once; it must be at least 1.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    img, gt = load_scene(cfg)
    grid = TileGrid.for_image(img.width, img.height, cfg.tile_w, cfg.tile_h)
    table = cs_mod.measure(img, grid, cfg.levels)
    if cfg.detections_path is not None:
        detector = FileDetector(file_detect(cfg.detections_path, grid), grid)
    else:
        detector = OracleDetector(cfg.detector, grid, img.width, img.height)

    cells_spec = [(rate, limit) for rate in cfg.data_rates_kbps for limit in cfg.t_tr_limits_s]

    def run_cell(spec):
        rate, limit = spec
        chan = ChannelSpec(
            data_rate=rate * 1000.0,
            t_tr_limit=limit,
            charge_index_bytes=cfg.charge_index_bytes,
        )
        base = run_baseline(
            img, grid, cfg.levels, chan, cfg.mu_t_hum, cfg.baseline_human_budget,
            detector, gt, cfg.seed,
            codestream=table, compute_delay=cfg.compute_delay,
            iou_threshold=cfg.iou_threshold,
        )
        prop = run_streamlined(
            img, grid, cfg.levels, chan, cfg.mu_t_hum, cfg.t_hum_cap,
            detector, gt, cfg.seed,
            codestream=table, compute_delay=cfg.compute_delay,
            iou_threshold=cfg.iou_threshold, tile_size_estimate=cfg.tile_size_estimate,
        )
        return GridCell(rate_kbps=rate, limit_s=limit, base=base, prop=prop)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(run_cell, cells_spec))
    else:
        cells = [run_cell(spec) for spec in cells_spec]

    rows = [make_row(c.rate_kbps, c.limit_s, c.base, c.prop) for c in cells]

    os.makedirs(out_dir, exist_ok=True)
    files = []

    grid_path = os.path.join(out_dir, "grid.csv")
    with open(grid_path, "w", newline="") as fh:
        fh.write(GRID_CSV_HEADER + "\n")
        for cell, row in zip(cells, rows):
            lr = cell.prop.plan.lr
            fh.write(
                ",".join(
                    [
                        _num(cell.rate_kbps),
                        _num(cell.limit_s),
                        "true" if row.feasible_base else "false",
                        "true" if row.feasible_prop else "false",
                        _num(row.t_rs_base),
                        _num(row.t_rs_prop),
                        "" if row.t_rs_ratio is None else repr(row.t_rs_ratio),
                        repr(row.recall_base),
                        repr(row.recall_prop),
                        repr(row.recall_diff),
                        "" if lr is None else str(lr),
                        str(_human_tiles(cell.prop)),
                    ]
                )
                + "\n"
            )
    files.append(grid_path)

    for cell in cells:
        name = f"timeline_{cell.rate_kbps:g}_{cell.limit_s:g}.csv"
        tpath = os.path.join(out_dir, name)
        with open(tpath, "w", newline="") as fh:
            fh.write(TIMELINE_CSV_HEADER + "\n")
            for framework, run in (("baseline", cell.base), ("proposed", cell.prop)):
                for ev in run.timeline.events:
                    fh.write(f"{repr(ev.time_s)},{repr(ev.recall)},{ev.phase},{framework}\n")
        files.append(tpath)
        if save_cell_detections:
            for tag, run in (("base", cell.base), ("prop", cell.prop)):
                dpath = os.path.join(
                    out_dir, f"detections_{cell.rate_kbps:g}_{cell.limit_s:g}_{tag}.csv"
                )
                save_detections(dpath, run.annotations)
                files.append(dpath)

    for rate in cfg.data_rates_kbps:
        panels = [
            Panel(f"t_TRlimit {cell.limit_s:g} s", cell.base.timeline, cell.prop.timeline)
            for cell in cells
            if cell.rate_kbps == rate
        ]
        spath = os.path.join(out_dir, f"recall_vs_time_{rate:g}.svg")
        render_recall_svg(spath, rate, panels)
        files.append(spath)
    return GridReport(rows=rows, cells=cells, files=files)
