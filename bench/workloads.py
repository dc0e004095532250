"""The benchmark's workloads: seeded inputs, one operation, its checks.

A workload object is built from the workload seed (that is the set-up
the benchmark times). ``run(k)`` performs operation ``k`` and returns
what the program produced; ``check(k, out)`` checks it outside the
timed part and raises ``checks.CheckFailed`` on a wrong output.
Operations come in rounds of ``ops_per_round``; a run does whole rounds.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

import checks
from tilecast import codestream, config, pipeline, scenario
from tilecast.annotate import DetectorModel, OracleDetector
from tilecast.channel import ChannelSpec
from tilecast.raster import Image, TileGrid, generate_scene


def _derive(seed: int, k: int) -> int:
    """Per-operation seed: distinct for every (workload seed, operation)."""
    return (seed << 20) + k


class GridSweep:
    """``run_grid`` on scenario.example.cfg with a new scene seed per operation."""

    ops_per_round = 1

    def __init__(self, seed: int, root: str, out_dir: str, threads: int = 1):
        self.cfg = config.parse_config(os.path.join(root, "scenario.example.cfg"))
        self.seed = seed
        self.out_dir = out_dir
        self.threads = threads

    def config_for(self, k: int):
        s = _derive(self.seed, k)
        return dataclasses.replace(
            self.cfg, synthetic=dataclasses.replace(self.cfg.synthetic, seed=s), seed=s)

    def run(self, k: int):
        return scenario.run_grid(self.config_for(k), self.out_dir, threads=self.threads)

    def check(self, k: int, report) -> None:
        cfg = self.config_for(k)
        spec = cfg.synthetic
        _, gt = generate_scene(spec.seed, spec.width, spec.height, spec.objects, cfg.object_size)
        cells = {(c.rate_kbps, c.limit_s): c for c in report.cells}
        want = [(r, t) for r in cfg.data_rates_kbps for t in cfg.t_tr_limits_s]
        checks.expect(sorted(cells) == sorted(want) and len(report.rows) == len(want),
                      "grid cells differ from the configured rates x limits")
        payloads = [
            checks.check_cell(
                c.rate_kbps, c.limit_s, c.base, c.prop, row, gt,
                mu=cfg.mu_t_hum, baseline_budget=cfg.baseline_human_budget,
                levels=cfg.levels, iou_threshold=cfg.iou_threshold)
            for c, row in zip(report.cells, report.rows)
        ]
        checks.check_grid({key: c.prop.plan.lr for key, c in cells.items()}, payloads, cfg.levels)


class DenseCells:
    """Single link cells on one dense 1024^2 scene, every planned level covered.

    Budgets grow by 4x per cell along ``rate * limit``: the 1024^2 scene's
    payload grows by about 4x per resolution level (15 kB, 58 kB, 250 kB,
    1.1 MB, 4.5 MB), so the nine cells go from infeasible through levels
    1-4 to full resolution with part of and with all of the human budget.
    """

    SIZE, TILE, OBJECTS, LEVELS = 1024, 256, 120, 5
    MU, CAP = 15.0, 240.0  # human budget cap: 16 tiles, every tile of the scene
    RATES_KBPS = (1.0, 16.0, 256.0)
    LIMITS_S = (56.0, 224.0, 896.0)
    ops_per_round = len(RATES_KBPS) * len(LIMITS_S)

    def __init__(self, seed: int, root: str, out_dir: str):
        self.seed = seed
        self.img, self.gt = generate_scene(seed, self.SIZE, self.SIZE, self.OBJECTS)
        self.grid = TileGrid.for_image(self.SIZE, self.SIZE, self.TILE, self.TILE)
        self.stream = codestream.encode(self.img, self.grid, self.LEVELS)
        self.detector = OracleDetector(
            DetectorModel.default(self.LEVELS), self.grid, self.SIZE, self.SIZE)
        self.baseline_budget = int(self.CAP / self.MU)
        self.cells = [(r, t) for r in self.RATES_KBPS for t in self.LIMITS_S]
        self._round: dict = {}

    def run(self, k: int):
        rate, limit = self.cells[k % self.ops_per_round]
        chan = ChannelSpec(data_rate=rate * 1000.0, t_tr_limit=limit)
        common = (self.detector, self.gt, self.seed)
        base = pipeline.run_baseline(
            self.img, self.grid, self.LEVELS, chan, self.MU, self.baseline_budget, *common,
            codestream=self.stream)
        prop = pipeline.run_streamlined(
            self.img, self.grid, self.LEVELS, chan, self.MU, self.CAP, *common,
            codestream=self.stream)
        return base, prop, scenario.make_row(rate, limit, base, prop)

    def check(self, k: int, out) -> None:
        j = k % self.ops_per_round
        if j == 0:
            self._round = {}
        rate, limit = self.cells[j]
        base, prop, row = out
        payload = checks.check_cell(
            rate, limit, base, prop, row, self.gt, mu=self.MU,
            baseline_budget=self.baseline_budget, levels=self.LEVELS, iou_threshold=0.1,
            full_payload=len(self.stream.payload))
        checks.check_plan(self.stream, prop.plan, rate, limit, self.MU, self.CAP)
        self._round[(rate, limit)] = (prop.plan.lr, payload)
        if len(self._round) == self.ops_per_round:
            checks.check_grid({key: v[0] for key, v in self._round.items()},
                              [v[1] for v in self._round.values()], self.LEVELS)


@dataclasses.dataclass(frozen=True)
class CodecCase:
    image: Image
    grid: TileGrid
    levels: int
    subset: tuple[int, ...]
    resolution: int
    sample_tile: int
    sample_component: int


@dataclasses.dataclass(frozen=True)
class CodecResult:
    stream: codestream.Codestream
    blob: bytes
    parsed: codestream.Codestream
    sub_tiles: list
    assembled: Image


def codec_op(case: CodecCase) -> CodecResult:
    """encode -> write -> parse -> extract -> decode the sub-stream -> assemble."""
    stream = codestream.encode(case.image, case.grid, case.levels)
    blob = codestream.write_codestream(stream)
    parsed = codestream.parse_codestream(blob)
    sub = codestream.extract(parsed, case.subset, case.resolution)
    tiles = codestream.decode(sub, case.subset, case.resolution)
    full = codestream.assemble(parsed, case.levels)
    return CodecResult(stream, blob, parsed, tiles, full)


def _small_image(rng, h: int, w: int, c: int, noise: float) -> np.ndarray:
    """Gradient plus noise with a flat block: literals and zero runs both occur."""
    yy, xx = np.mgrid[0:h, 0:w]
    out = np.empty((h, w, c))
    for ch in range(c):
        gx, gy = rng.uniform(-2.0, 2.0, size=2)
        out[:, :, ch] = 128 + gx * (xx - w / 2) + gy * (yy - h / 2)
        out[:, :, ch] += rng.normal(0.0, noise, size=(h, w))
    y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
    out[y0 : y0 + h // 3, x0 : x0 + w // 3] = rng.integers(0, 256)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _strata(rng, n: int) -> np.ndarray:
    """n numbers in [0, 1), one from each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _pick(u: float, lo: int, hi: int) -> int:
    return lo + int(u * (hi - lo + 1))


class CodecMix:
    """Encode, serialize, parse, extract, decode and assemble a seeded image mix.

    A round holds 28 small images and 4 large RGB synthetic scenes
    (768 x 704, 256 px tiles, 5 levels). What sets an operation's cost is
    a fixed schedule, the same for every seed, drawn once from every
    stratum of each range: for the small images the tile counts (1..8 per
    axis), tile shapes (3..48 px a side, with clipped edge tiles), levels
    (1..5), component counts (1 or 3) and noise level (0..20); for every
    image the share of tiles extracted and the resolution. The seed draws
    the pixels, which tiles are extracted, the sampled tile and component,
    and the order of the round.
    """

    SMALL, LARGE = 28, 4
    ops_per_round = SMALL + LARGE

    def __init__(self, seed: int, root: str, out_dir: str):
        rng = np.random.default_rng(seed)
        fixed = np.random.default_rng(0)
        n, total = self.SMALL, self.SMALL + self.LARGE
        small = zip(*(_strata(fixed, n) for _ in range(7)), fixed.permutation(n) % 2)
        share, res = _strata(fixed, total), _strata(fixed, total)
        cases = []
        for i, (ux, uy, uw, uh, ul, ex, ey, rgb) in enumerate(small):
            tw, th = _pick(uw, 3, 48), _pick(uh, 3, 48)
            w = _pick(ux, 0, 7) * tw + _pick(ex, 1, tw)
            h = _pick(uy, 0, 7) * th + _pick(ey, 1, th)
            img = Image(_small_image(rng, h, w, 3 if rgb else 1, 20.0 * i / n))
            cases.append(self._case(rng, img, TileGrid.for_image(w, h, tw, th),
                                    _pick(ul, 1, 5), share[i], res[i]))
        for k in range(self.LARGE):
            img, _ = generate_scene(_derive(seed, k), 768, 704, 30)
            cases.append(self._case(rng, img, TileGrid.for_image(768, 704, 256, 256), 5,
                                    share[n + k], res[n + k]))
        # large images spread evenly through the round
        order = rng.permutation(n).tolist()
        for k in range(self.LARGE):
            order.insert(k * (n // self.LARGE + 1), n + k)
        self.cases = [cases[i] for i in order]

    @staticmethod
    def _case(rng, img: Image, grid: TileGrid, levels: int, share: float,
              res: float) -> CodecCase:
        count = _pick(share, 1, grid.tile_count)
        subset = tuple(int(i) for i in rng.choice(grid.tile_count, size=count, replace=False))
        return CodecCase(
            image=img, grid=grid, levels=levels, subset=subset,
            resolution=_pick(res, 1, levels), sample_tile=int(rng.choice(subset)),
            sample_component=int(rng.integers(0, img.components)))

    def run(self, k: int) -> CodecResult:
        return codec_op(self.cases[k % self.ops_per_round])

    def check(self, k: int, out: CodecResult) -> None:
        checks.check_codec(self.cases[k % self.ops_per_round], out)


WORKLOADS = {"grid-sweep": GridSweep, "codec-mix": CodecMix, "dense-cells": DenseCells}
