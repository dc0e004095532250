"""Tests of the benchmark's checks: each passes the program's real output
and rejects a hand-made wrong one.

    python3 -m pytest -q bench
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import ref53  # noqa: E402
import workloads  # noqa: E402
from tilecast import codestream, pipeline, scenario  # noqa: E402
from tilecast.annotate import (AnnotationSet, DetectionBox, DetectorModel,  # noqa: E402
                               OracleDetector)
from tilecast.channel import ChannelSpec  # noqa: E402
from tilecast.metrics import TimelineEvent, recall  # noqa: E402
from tilecast.raster import GroundTruthBox, Image, TileGrid, generate_scene  # noqa: E402

LEVELS, MU, CAP, RATE_KBPS = 5, 15.0, 240.0, 0.8  # 0.8 kbit/s carries 100 B per second


@pytest.fixture(scope="module")
def scene():
    img, gt = generate_scene(5, 256, 256, 30)
    grid = TileGrid.for_image(256, 256, 64, 64)
    stream = codestream.encode(img, grid, LEVELS)
    detector = OracleDetector(DetectorModel.default(LEVELS), grid, 256, 256)
    all_tiles = list(range(grid.tile_count))
    sizes = [codestream.size_of(stream, all_tiles, r) for r in range(1, LEVELS + 1)]
    per_tile = max(codestream.size_of(stream, [i], LEVELS) for i in all_tiles)
    # budgets in hundreds of bytes: infeasible, level 2, level 4, full with every tile
    # for the human
    limits = [sizes[0] // 200, sizes[1] * 2 // 100, sizes[3] * 2 // 100,
              (sizes[-1] + 16 * per_tile) // 100 + 1]
    cells = {}
    for limit in limits:
        chan = ChannelSpec(data_rate=RATE_KBPS * 1000, t_tr_limit=float(limit))
        base = pipeline.run_baseline(img, grid, LEVELS, chan, MU, 16, detector, gt, 3,
                                     codestream=stream)
        prop = pipeline.run_streamlined(img, grid, LEVELS, chan, MU, CAP, detector, gt, 3,
                                        codestream=stream)
        cells[float(limit)] = (base, prop, scenario.make_row(RATE_KBPS, limit, base, prop))
    return stream, gt, cells


def _check(scene, limit, base, prop, row):
    stream, gt, _ = scene
    return checks.check_cell(RATE_KBPS, limit, base, prop, row, gt, mu=MU, baseline_budget=16,
                             levels=LEVELS, iou_threshold=0.1,
                             full_payload=len(stream.payload))


def _cell_at(scene, level):
    for limit, (base, prop, row) in scene[2].items():
        if prop.plan.lr == level:
            return limit, base, prop, row
    raise LookupError(level)


def test_scene_covers_every_kind_of_cell(scene):
    lrs = [prop.plan.lr for _, prop, _ in scene[2].values()]
    assert lrs == [None, 2, 4, LEVELS]
    assert _cell_at(scene, LEVELS)[2].plan.human_budget == 16


def test_program_output_passes(scene):
    stream, gt, cells = scene
    payloads = []
    for limit, (base, prop, row) in cells.items():
        payloads.append(_check(scene, limit, base, prop, row))
        checks.check_plan(stream, prop.plan, RATE_KBPS, limit, MU, CAP)
    checks.check_grid({(RATE_KBPS, t): c[1].plan.lr for t, c in cells.items()}, payloads, LEVELS)


@pytest.mark.parametrize("delta", [-1, 1])
def test_off_by_one_lr_level_is_rejected(scene, delta):
    limit, _, prop, _ = _cell_at(scene, 4)
    wrong = dataclasses.replace(prop.plan, lr=prop.plan.lr + delta)
    with pytest.raises(checks.CheckFailed, match="plan lr="):
        checks.check_plan(scene[0], wrong, RATE_KBPS, limit, MU, CAP)


def test_lr_level_falling_with_the_limit_is_rejected(scene):
    cells = {(RATE_KBPS, t): c[1].plan.lr for t, c in scene[2].items()}
    cells[(RATE_KBPS, max(scene[2]))] = 3  # below the level-4 cell at a shorter limit
    with pytest.raises(checks.CheckFailed, match="decreases with the limit"):
        checks.check_grid(cells, [1] * len(cells), LEVELS)


@pytest.mark.parametrize("level", [2, 4])
def test_changed_recall_is_rejected(scene, level):
    limit, base, prop, _ = _cell_at(scene, level)
    events = list(prop.timeline.events)
    last = events[-1]
    step = 1 / len(scene[1])
    events[-1] = TimelineEvent(last.time_s, last.recall - step if last.recall else step,
                               last.phase)
    wrong = dataclasses.replace(prop, timeline=dataclasses.replace(
        prop.timeline, events=tuple(events)))
    row = scenario.make_row(RATE_KBPS, limit, base, wrong)
    with pytest.raises(checks.CheckFailed, match="recomput"):
        _check(scene, limit, base, wrong, row)


def test_ratio_of_one_below_full_resolution_is_rejected(scene):
    limit, base, prop, _ = _cell_at(scene, 4)
    wrong = dataclasses.replace(prop, timeline=base.timeline)
    row = scenario.make_row(RATE_KBPS, limit, base, wrong)
    assert row.t_rs_ratio == 1.0
    with pytest.raises(checks.CheckFailed, match="below-full-resolution"):
        _check(scene, limit, base, wrong, row)


def test_full_resolution_cell_must_equal_the_baseline(scene):
    limit, base, prop, row = _cell_at(scene, LEVELS)
    assert row.t_rs_ratio == 1.0
    events = base.timeline.events[:-1]  # one human tile fewer than the baseline
    short = dataclasses.replace(base.timeline, events=events, t_hum=base.timeline.t_hum - MU)
    wrong = dataclasses.replace(prop, timeline=short)
    with pytest.raises(checks.CheckFailed, match="equal human budgets"):
        _check(scene, limit, base, wrong, scenario.make_row(RATE_KBPS, limit, base, wrong))


def test_reference_recall_matches_the_method():
    rng = np.random.default_rng(7)
    gt = [GroundTruthBox(i, 0, int(x), int(y), int(w), int(h)) for i, (x, y, w, h) in
          enumerate(rng.integers(1, 60, size=(40, 4)))]
    for trial in range(20):
        boxes = [DetectionBox(0, 0, float(x), float(y), float(w), float(h),
                              1.0 if hum else float(rng.choice([0.2, 0.5, 0.9])),
                              "HUM" if hum else "DL")
                 for x, y, w, h, hum in zip(*rng.uniform(1, 60, size=(4, 50)),
                                            rng.random(50) < 0.2)]
        anns = AnnotationSet(tuple(boxes))
        assert checks.reference_recall(boxes, gt, 0.1) == recall(anns, gt, 0.1)
    assert checks.reference_recall([], gt, 0.1) == 0.0


# --- codec -----------------------------------------------------------------


@pytest.fixture(scope="module")
def codec_case():
    rng = np.random.default_rng(11)
    img = Image(rng.integers(0, 256, size=(45, 70, 3)).astype(np.uint8))
    grid = TileGrid.for_image(70, 45, 19, 13)
    subset = (7, 2, 11, 0)
    case = workloads.CodecCase(image=img, grid=grid, levels=4, subset=subset, resolution=3,
                               sample_tile=2, sample_component=1)
    return case, workloads.codec_op(case)


def test_codec_output_passes(codec_case):
    checks.check_codec(*codec_case)


def _flip(img: Image, y=0, x=0, c=0) -> Image:
    pix = img.pixels.copy()
    pix[y, x, c] ^= 1
    return Image(pix)


def test_flipped_pixel_in_the_full_decode_is_rejected(codec_case):
    case, out = codec_case
    wrong = dataclasses.replace(out, assembled=_flip(out.assembled, 5, 9, 2))
    with pytest.raises(checks.CheckFailed, match="source pixels"):
        checks.check_codec(case, wrong)


def test_flipped_pixel_in_a_sub_stream_tile_is_rejected(codec_case):
    case, out = codec_case
    tiles = [(i, _flip(t) if i == 11 else t) for i, t in out.sub_tiles]
    with pytest.raises(checks.CheckFailed, match="sub-stream tile 11"):
        checks.check_codec(case, dataclasses.replace(out, sub_tiles=tiles))


def test_decoder_wrong_everywhere_is_caught_by_the_reference(codec_case, monkeypatch):
    case, out = codec_case
    real = codestream.decode
    flip = case.sample_component
    monkeypatch.setattr(codestream, "decode", lambda cs, idx, r: [
        (i, _flip(t, c=flip)) for i, t in real(cs, idx, r)])
    tiles = [(i, _flip(t, c=flip)) for i, t in out.sub_tiles]
    with pytest.raises(checks.CheckFailed, match="plain-Python 5/3"):
        checks.check_codec(case, dataclasses.replace(out, sub_tiles=tiles))


def test_changed_table_after_parse_is_rejected(codec_case):
    case, out = codec_case
    entries = list(out.parsed.entries)
    e = entries[3]
    entries[3] = dataclasses.replace(e, seg_lengths=((e.seg_lengths[0][0] + 1,)
                                                     + e.seg_lengths[0][1:],)
                                     + e.seg_lengths[1:])
    wrong = dataclasses.replace(out, parsed=dataclasses.replace(out.parsed,
                                                                 entries=tuple(entries)))
    with pytest.raises(checks.CheckFailed, match="changed entries"):
        checks.check_codec(case, wrong)


@pytest.mark.parametrize("shape,tile,levels", [((45, 70, 3), (19, 13), 4), ((9, 1, 1), (1, 4), 3),
                                               ((33, 17, 1), (33, 17), 5)])
def test_reference_decoder_matches_the_codec(shape, tile, levels):
    rng = np.random.default_rng(sum(shape))
    img = Image(rng.integers(0, 256, size=shape).astype(np.uint8))
    grid = TileGrid.for_image(shape[1], shape[0], *tile)
    stream = codestream.encode(img, grid, levels)
    blob = codestream.write_codestream(stream)
    for index in range(grid.tile_count):
        for r in range(1, levels + 1):
            [(_, want)] = codestream.decode(stream, [index], r)
            for c in range(shape[2]):
                assert ref53.decode_tile(blob, index, c, r) == want.pixels[:, :, c].tolist()
