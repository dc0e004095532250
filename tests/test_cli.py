import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tilecast import codestream as cs_mod
from tilecast import metrics
from tilecast import raster, scenario
from tilecast.cli import main
from tilecast.config import parse_config
from tilecast.scenario import GRID_CSV_HEADER
from test_codestream import ACCEPTANCE_SSC, EXAMPLE_SSC


@pytest.fixture
def scene(tmp_path):
    img, gt = raster.generate_scene(5, 96, 80, 4, (12, 20))
    ipath = tmp_path / "scene.ppm"
    gpath = tmp_path / "gt.csv"
    raster.save_image(img, ipath)
    raster.save_ground_truth(gpath, gt)
    return img, gt, str(ipath), str(gpath)


def run(*argv):
    return main(["--quiet", *map(str, argv)])


def test_encode_decode_round_trip(tmp_path, scene):
    img, _, ipath, _ = scene
    ssc = tmp_path / "a.ssc"
    out = tmp_path / "back.ppm"
    assert run("encode", ipath, "-o", ssc, "--tile-w", 32, "--tile-h", 32, "--levels", 3) == 0
    assert run("decode", ssc, "-o", out) == 0
    assert raster.load_image(out) == img


def test_decode_single_tiles(tmp_path, scene):
    _, _, ipath, _ = scene
    ssc = tmp_path / "a.ssc"
    run("encode", ipath, "-o", ssc, "--tile-w", 32, "--tile-h", 32, "--levels", 3)
    assert run("decode", ssc, "-o", tmp_path / "t.ppm", "--res", 1, "--tiles", "0,5") == 0
    t0 = raster.load_image(tmp_path / "t_t0.ppm")
    assert (t0.width, t0.height) == (8, 8)  # 32 px / 2^2
    assert os.path.exists(tmp_path / "t_t5.ppm")


def test_extract_then_decode_matches_direct(tmp_path, scene):
    _, _, ipath, _ = scene
    ssc = tmp_path / "a.ssc"
    sub = tmp_path / "sub.ssc"
    run("encode", ipath, "-o", ssc, "--tile-w", 32, "--tile-h", 32, "--levels", 3)
    assert run("extract", ssc, "-o", sub, "--res", 2, "--tiles", "1,2") == 0
    stream = cs_mod.parse_codestream(str(sub))
    assert stream.max_resolution == 2
    assert [e.index for e in stream.entries] == [1, 2]
    direct = cs_mod.decode(cs_mod.parse_codestream(str(ssc)), [1, 2], 2)
    via_sub = cs_mod.decode(stream, [1, 2], 2)
    assert direct == via_sub
    # decoding a partial stream without --tiles emits its present tiles
    assert run("decode", sub, "-o", tmp_path / "part.ppm", "--res", 2) == 0
    assert (tmp_path / "part_t1.ppm").exists()
    assert (tmp_path / "part_t2.ppm").exists()


@pytest.mark.parametrize("components, ext", [(3, ".ppm"), (1, ".pgm")])
def test_tile_files_without_extension_get_the_image_type(tmp_path, components, ext):
    rng = np.random.default_rng(3)
    img = raster.Image(rng.integers(0, 256, size=(80, 100, components)).astype(np.uint8))
    ipath, ssc, sub = tmp_path / "in.pnm", tmp_path / "a.ssc", tmp_path / "sub.ssc"
    raster.save_image(img, ipath)
    run("encode", ipath, "-o", ssc, "--tile-w", 32, "--tile-h", 32, "--levels", 3)
    run("extract", ssc, "-o", sub, "--res", 3, "--tiles", "1,4")
    assert run("decode", sub, "-o", tmp_path / "out") == 0
    assert sorted(p for p in os.listdir(tmp_path) if p.startswith("out")) == [
        f"out_t1{ext}", f"out_t4{ext}"]
    tile = raster.load_image(tmp_path / f"out_t1{ext}")
    assert tile == raster.Image(img.pixels[:32, 32:64])


def test_python_dash_m_runs_the_cli(tmp_path, scene):
    # a checkout with src/ on the path and no install runs the README's commands
    _, _, ipath, _ = scene
    ssc = tmp_path / "a.ssc"
    run("encode", ipath, "-o", ssc, "--tile-w", 32, "--tile-h", 32, "--levels", 2)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def tilecast(*argv):
        return subprocess.run([sys.executable, "-m", "tilecast", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)

    helped = tilecast("--help")
    assert helped.returncode == 0, helped.stderr
    assert "extract" in helped.stdout and "gen-scene" in helped.stdout
    info = tilecast("info", ssc)
    assert info.returncode == 0, info.stderr
    assert [line.split(":")[0] for line in info.stdout.splitlines() if line.startswith("R=")] == [
        "R=1", "R=2"]
    missing = tilecast("info", tmp_path / "missing.ssc")
    assert missing.returncode == 1 and missing.stderr.startswith("error:")


def test_info_lists_each_resolution(tmp_path, scene, capsys):
    _, _, ipath, _ = scene
    ssc = tmp_path / "a.ssc"
    run("encode", ipath, "-o", ssc, "--levels", 4, "--tile-w", 32, "--tile-h", 32)
    assert main(["info", str(ssc)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("R=")]
    assert len(lines) == 4
    sizes = [int(l.split("bytes")[0].split(":")[1].strip()) for l in lines]
    assert sizes == sorted(sizes)
    img = raster.load_image(ipath)
    raw = img.width * img.height * img.components
    payload = len(cs_mod.parse_codestream(str(ssc)).payload)
    assert payload == sizes[-1]
    assert f"payload {payload} bytes = {payload / raw:.3f}x the {raw} raw sample bytes" in out

    # each tile is halved on its own: 5x5 tiles of a 13x13 image give 5x5 at R=1, not 4x4
    odd, _ = raster.generate_scene(2, 13, 13, 0, (1, 1))
    raster.save_image(odd, tmp_path / "odd.ppm")
    run("encode", tmp_path / "odd.ppm", "-o", ssc, "--levels", 3, "--tile-w", 5, "--tile-h", 5)
    assert main(["info", str(ssc)]) == 0
    dims = [l.split(", ")[1] for l in capsys.readouterr().out.splitlines() if l.startswith("R=")]
    assert dims == ["5x5 px", "8x8 px", "13x13 px"]
    stream = cs_mod.parse_codestream(str(ssc))
    for r, d in enumerate(dims, start=1):
        img = cs_mod.assemble(stream, r)
        assert d == f"{img.width}x{img.height} px"


def test_encode_level_validation(tmp_path, scene, capsys):
    _, _, ipath, _ = scene
    assert run("encode", ipath, "-o", tmp_path / "x.ssc", "--levels", 9) == 1
    assert "levels" in capsys.readouterr().err


def test_gen_scene_cli_deterministic(tmp_path):
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    run("--seed", 3, "gen-scene", "-o", a, "--gt", tmp_path / "a.csv", "--width", 64, "--height", 64, "--objects", 3, "--size-range", 8, 16)
    run("--seed", 3, "gen-scene", "-o", b, "--gt", tmp_path / "b.csv", "--width", 64, "--height", 64, "--objects", 3, "--size-range", 8, 16)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    boxes = raster.load_ground_truth(tmp_path / "a.csv")
    assert len(boxes) == 3


RUN_CFG = """
synthetic  = 3, 192, 192, 6
object_size = 12, 24
tile_w     = 64
tile_h     = 64
levels     = 3
data_rates = 8, 64
t_TRlimits = 20, 120
mu_t_hum   = 10
t_hum_cap  = 40
seed       = 2
"""


def write_cfg(tmp_path, text=RUN_CFG, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_emits_reports(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--quiet", "--out-dir", str(out), "run", cfg]) == 0
    grid_csv = (out / "grid.csv").read_text().splitlines()
    assert grid_csv[0] == GRID_CSV_HEADER
    assert len(grid_csv) == 1 + 4  # 2 rates x 2 limits
    for rate in ("8", "64"):
        for limit in ("20", "120"):
            assert (out / f"timeline_{rate}_{limit}.csv").exists()
        svg = out / f"recall_vs_time_{rate}.svg"
        root = ET.parse(svg).getroot()  # well-formed XML
        panels = [g for g in root.iter() if g.tag.endswith("g") and g.get("class") == "panel"]
        assert len(panels) == 2
        for panel in panels:
            polys = [p for p in panel.iter() if p.tag.endswith("polyline")]
            assert len(polys) == 2


def test_run_prints_one_line_per_cell_then_the_file_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "run", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [row.split(",") for row in (out / "grid.csv").read_text().splitlines()[1:]]
    assert len(lines) == len(rows) + 1 == 5
    for line, row in zip(lines, rows):
        ratio = "---" if row[6] == "" else f"{float(row[6]):.2f}"
        suffix = "" if row[3] == "true" else " (proposed infeasible)"
        assert line == f"{row[0]}kbps_{row[1]}s: ratio={ratio} recall_diff={float(row[9]):+.3f}{suffix}"
    assert lines[-1] == f"wrote {len(os.listdir(out))} files to {out}"
    # the library itself prints nothing
    scenario.run_grid(parse_config(cfg), str(tmp_path / "lib"))
    assert capsys.readouterr().out == ""


def test_gen_scene_over_the_pixel_ceiling_is_one_error_line(tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("pixels allocated before the ceiling check")

    for name in ("arange", "empty", "zeros"):
        monkeypatch.setattr(np, name, no_allocation)
    out = tmp_path / "big.ppm"
    argv = ["gen-scene", "-o", out, "--width", 100_000, "--height", 100_000, "--objects", 1]
    assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: scene of 100000x100000 exceeds {raster.MAX_PIXELS} pixels"]
    assert not out.exists()


def test_run_deterministic_across_runs_and_threads(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name, threads in (("o1", 1), ("o2", 1), ("o4", 4)):
        out = tmp_path / name
        assert main(["--quiet", "--out-dir", str(out), "run", cfg, "--threads", str(threads)]) == 0
        outs.append((out / "grid.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("threads", [0, -3])
def test_run_refuses_fewer_than_one_thread(tmp_path, capsys, monkeypatch, threads):
    # refused before the scene is made, so nothing runs
    def no_scene(cfg):
        raise AssertionError("the scene was loaded")

    monkeypatch.setattr(scenario, "load_scene", no_scene)
    out = tmp_path / "out"
    argv = ["--quiet", "--out-dir", str(out), "run", write_cfg(tmp_path), "--threads", str(threads)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: threads must be >= 1, got {threads}"]
    assert not out.exists()


def test_run_grid_matches_timeline_files(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    main(["--quiet", "--out-dir", str(out), "run", cfg])
    rows = (out / "grid.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        rate, limit = cells[0], cells[1]
        t_rs_base, t_rs_prop = float(cells[4]), float(cells[5])
        mu = 10.0
        lines = (out / f"timeline_{rate}_{limit}.csv").read_text().splitlines()[1:]
        for framework, t_rs in (("baseline", t_rs_base), ("proposed", t_rs_prop)):
            events = [l.split(",") for l in lines if l.endswith(framework)]
            if not events:
                assert t_rs == 0.0
                continue
            last_time = float(events[-1][0])
            n_hum = sum(1 for e in events if e[2].startswith("HUM"))
            t_tr = last_time - mu * n_hum
            assert t_tr + mu * n_hum == t_rs


def test_run_infeasible_cell_reported(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
synthetic  = 3, 192, 192, 6
tile_w     = 64
tile_h     = 64
levels     = 3
data_rates = 0.05
t_TRlimits = 10
mu_t_hum   = 10
t_hum_cap  = 40
""",
        name="tiny.cfg",
    )
    out = tmp_path / "out"
    assert main(["--quiet", "--out-dir", str(out), "run", cfg]) == 0  # still exit 0
    row = (out / "grid.csv").read_text().splitlines()[1].split(",")
    feasible_prop, ratio, recall_prop, lr = row[3], row[6], row[8], row[10]
    assert feasible_prop == "false"
    assert ratio == ""
    assert float(recall_prop) == 0.0
    assert lr == ""


def test_run_with_replayed_detections(tmp_path, scene):
    img, gt, ipath, gpath = scene
    det = tmp_path / "det.csv"
    det.write_text(
        "tile_index,class_id,x,y,w,h,confidence,source\n"
        f"0,0,{gt[0].x},{gt[0].y},{gt[0].w},{gt[0].h},0.4,DL\n"
    )
    cfg = write_cfg(
        tmp_path,
        f"""
image        = {ipath}
ground_truth = {gpath}
tile_w       = 32
tile_h       = 32
levels       = 3
data_rates   = 64
t_TRlimits   = 60
detections   = {det}
""",
        name="replay.cfg",
    )
    out = tmp_path / "rout"
    assert main(["--quiet", "--out-dir", str(out), "run", cfg]) == 0
    assert (out / "grid.csv").exists()


@pytest.mark.parametrize(
    "csv_name, row, message",
    [
        ("gt.csv", b"0,1,2,3,4," + b"5" * 200_000, "line 2: field larger than field limit"),
        ("gt.csv", b"0,1,2,3,4,\xff", "line 2: not UTF-8"),
        ("det.csv", b"0,0,1,1,4,2,0.5,HUM", "line 2: human annotations must have confidence 1.0"),
    ],
    ids=["oversized-field", "not-utf8", "human-confidence"],
)
def test_run_reports_an_unreadable_csv_in_one_line(tmp_path, capsys, scene, csv_name, row, message):
    _, _, ipath, gpath = scene
    det = tmp_path / "det.csv"
    det.write_text("tile_index,class_id,x,y,w,h,confidence,source\n")
    bad = tmp_path / csv_name
    bad.write_bytes(bad.read_bytes().splitlines(keepends=True)[0] + row + b"\n")
    cfg = write_cfg(
        tmp_path,
        f"""
image        = {ipath}
ground_truth = {gpath}
tile_w       = 32
tile_h       = 32
levels       = 3
data_rates   = 64
t_TRlimits   = 60
detections   = {det}
""",
        name="replay.cfg",
    )
    assert main(["--quiet", "--out-dir", str(tmp_path / "out"), "run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")


def test_run_reports_ground_truth_outside_the_image_in_one_line(tmp_path, capsys, scene):
    _, _, ipath, gpath = scene
    with open(gpath, "a") as fh:
        fh.write("99,0,5000,5000,10,10\n")
    cfg = write_cfg(
        tmp_path,
        f"""
image        = {ipath}
ground_truth = {gpath}
tile_w       = 32
tile_h       = 32
levels       = 3
data_rates   = 64
t_TRlimits   = 60
""",
        name="outside.cfg",
    )
    assert main(["--quiet", "--out-dir", str(tmp_path / "out"), "run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {gpath}: object 99 ") and "outside the 96x80 image" in err[0]


def test_run_reports_too_many_iou_pairs_in_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(metrics, "MAX_IOU_PAIRS", 5, raising=False)
    cfg = write_cfg(tmp_path)
    assert main(["--quiet", "--out-dir", str(tmp_path / "out"), "run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "more than the 5 scored at once" in err[0]


def test_global_flags_accepted_after_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    before = tmp_path / "before"
    after = tmp_path / "after"
    assert main(["--quiet", "--out-dir", str(before), "run", cfg]) == 0
    assert main(["run", cfg, "--out-dir", str(after), "--quiet"]) == 0
    assert (before / "grid.csv").read_bytes() == (after / "grid.csv").read_bytes()


def test_run_seed_overrides_the_config_before_or_after_the_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    grids = {}
    for name, argv in (("default", ["run", cfg]), ("before", ["--seed", "9", "run", cfg]),
                       ("after", ["run", cfg, "--seed", "9"])):
        out = tmp_path / name
        assert main(["--quiet", "--out-dir", str(out), *argv]) == 0
        grids[name] = (out / "grid.csv").read_bytes()
    assert grids["before"] == grids["after"] != grids["default"]


def test_a_relative_output_lands_under_out_dir(tmp_path, scene, monkeypatch):
    _, _, ipath, _ = scene
    out, cwd = tmp_path / "out", tmp_path / "cwd"
    out.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run("--out-dir", out, "gen-scene", "-o", "s.ppm", "--gt", "s.csv", "--width", 64,
               "--height", 48, "--objects", 2, "--size-range", 8, 16) == 0
    assert run("--out-dir", out, "encode", ipath, "-o", "a.ssc", "--tile-w", 32, "--tile-h", 32,
               "--levels", 3) == 0
    assert run("--out-dir", out, "extract", out / "a.ssc", "-o", "sub.ssc", "--res", 2,
               "--tiles", "1,2") == 0
    assert run("--out-dir", out, "decode", out / "a.ssc", "-o", "back.ppm") == 0
    assert run("--out-dir", out, "decode", out / "sub.ssc", "-o", "t.ppm") == 0
    assert sorted(os.listdir(out)) == [
        "a.ssc", "back.ppm", "s.csv", "s.ppm", "sub.ssc", "t_t1.ppm", "t_t2.ppm"]
    assert os.listdir(cwd) == []
    assert raster.load_image(out / "back.ppm") == raster.load_image(ipath)


def test_each_file_command_prints_one_summary_line(tmp_path, capsys):
    scene_path, ssc, sub, back = (tmp_path / n for n in ("s.ppm", "a.ssc", "sub.ssc", "b.ppm"))

    def lines(*argv):
        assert main(list(map(str, argv))) == 0
        return capsys.readouterr().out.splitlines()

    assert lines("gen-scene", "-o", scene_path, "--width", 64, "--height", 48, "--objects", 2,
                 "--size-range", 8, 16) == [f"{scene_path}: 64x48, 2 objects"]
    printed = lines("encode", scene_path, "-o", ssc, "--tile-w", 32, "--tile-h", 32,
                    "--levels", 3)
    payload = len(cs_mod.parse_codestream(str(ssc)).payload)
    assert printed == [f"{ssc}: 4 tiles, 3 levels, {payload} payload bytes"]
    printed = lines("extract", ssc, "-o", sub, "--res", 2, "--tiles", "1,2")
    payload = len(cs_mod.parse_codestream(str(sub)).payload)
    assert printed == [f"{sub}: 2 tiles at R<=2, {payload} payload bytes"]
    assert lines("decode", ssc, "-o", back, "--res", 2) == [f"{back}: 32x24x3 at R=2"]


def test_cli_error_paths(tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.ssc")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    assert main(["--quiet", "run", str(bad)]) == 1
    assert "key = value" in capsys.readouterr().err


def test_summary_lines_name_the_path_written_under_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()

    def lines(*argv):
        assert main(["--out-dir", "out", *map(str, argv)]) == 0
        return capsys.readouterr().out.splitlines()

    scene, ssc, sub, back = (os.path.join("out", n) for n in ("s.ppm", "a.ssc", "sub.ssc", "b.ppm"))
    assert lines("gen-scene", "-o", "s.ppm", "--width", 64, "--height", 48, "--objects", 1,
                 "--size-range", 8, 16) == [f"{scene}: 64x48, 1 objects"]
    [printed] = lines("encode", scene, "-o", "a.ssc", "--tile-w", 32, "--tile-h", 32,
                      "--levels", 3)
    assert printed.startswith(f"{ssc}: 4 tiles, 3 levels, ")
    [printed] = lines("extract", ssc, "-o", "sub.ssc", "--res", 2, "--tiles", "1,2")
    assert printed.startswith(f"{sub}: 2 tiles at R<=2, ")
    assert lines("decode", ssc, "-o", "b.ppm", "--res", 2) == [f"{back}: 32x24x3 at R=2"]
    assert sorted(os.listdir("out")) == ["a.ssc", "b.ppm", "s.ppm", "sub.ssc"]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"t_hum_cap": "inf"}, "line 10: bad time value 'inf'"),
        ({"data_rates": "1e400"}, "line 7: bad number '1e400'"),
        ({"t_TRlimits": "nan"}, "line 8: bad time value 'nan'"),
        # finite, but the full-resolution transfer takes longer than any float
        ({"data_rates": "5e-324", "mu_t_hum": "1e6"}, "timeline event times must be finite"),
        # both would write timeline_16_20.csv
        ({"data_rates": "16, 16.0000001"}, "line 7: data_rates repeats 16 "),
    ],
)
def test_run_reports_unusable_numbers_in_one_line(tmp_path, capsys, overrides, message):
    lines = RUN_CFG.splitlines()
    for i, line in enumerate(lines):
        key = line.split(" ")[0]
        if key in overrides:
            lines[i] = f"{key} = {overrides[key]}"
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main(["--quiet", "--out-dir", str(tmp_path / "out"), "run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "scenario.example.cfg")

# SHA-256 of every file `tilecast run scenario.example.cfg` writes, pinned
# so that changes to the pipeline keep the reported numbers byte for byte.
EXAMPLE_GOLDEN = {
    "grid.csv": "c60434086c41b736745ccbbbb3b7902b7812839180849b2779b4b31441dcde71",
    "recall_vs_time_176.svg": "fe39a5e63ab49211f50d6795951b67f508e8cc32150cde9dfaf97f4850cf5de0",
    "recall_vs_time_22.svg": "9775c5433c66fd3c16337a94c99f4d08fd385520b550cc88980d58a0644148e6",
    "recall_vs_time_88.svg": "8ffae87b266d2ef0d87bca1aa72f54cc6f2c74cb3e77c4bdf3711f17318aa792",
    "timeline_176_180.csv": "55e782fef1073636e32f1e912e1153d1cd047e7f138ef74610c7bfebf8b6da20",
    "timeline_176_1800.csv": "9e97b5e9fc998931d74a832ce198487d2d40ec0ff7dd47fb8f7626c4006d8bdf",
    "timeline_176_600.csv": "b1b0cb34ff38f148f833780d9007edf58ad9c5c353c7518291ab4cf809f2830c",
    "timeline_22_180.csv": "2869edb64dc0ae3855eb8813294484514f8514776f7e7c4d5aff5497a0c3167c",
    "timeline_22_1800.csv": "b295ff9cb8295ff7d7d3e0970af99f062b511886e68f454d218a8c1e2cb7c32b",
    "timeline_22_600.csv": "1c45ea80eee1a35f229dc76fa33002724bdaaf45d42dcacb3ceddb020c420f4c",
    "timeline_88_180.csv": "b3c695983dd09cd348207ecb4ae96fb9c566249e410fd648a185e668f111db77",
    "timeline_88_1800.csv": "665fb88fb57bf85480f7656544b63f18979fcd58b012a517126e3d098ad2c3ff",
    "timeline_88_600.csv": "ee23b9b36baccbf961f2f17b5a3d1369aef998bc6ae0b86c2944160947331547",
}


def test_example_scenario_golden_outputs(tmp_path):
    assert run("--out-dir", tmp_path, "run", EXAMPLE_CFG) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == EXAMPLE_GOLDEN


# SHA-256 of the detections files `tilecast run scenario.example.cfg
# --save-detections` writes besides EXAMPLE_GOLDEN's: the detector's
# boxes for each cell and framework, byte for byte
EXAMPLE_DETECTIONS_GOLDEN = {
    "detections_176_1800_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_176_1800_prop.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_176_180_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_176_180_prop.csv": "ccf1f876ac61b096a1c8accc03d735d8fd01188c02be6813fc2941f739f7bbc9",
    "detections_176_600_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_176_600_prop.csv": "adc341d9beb5ba845b93fcca9c8e1f57f0eafc3ad2927f8da4218dc1dd44f184",
    "detections_22_1800_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_22_1800_prop.csv": "8c619627437ce9c92f3ca233d7e0a4f7b1bebbb3408d533aa4a262bfbe5cb256",
    "detections_22_180_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_22_180_prop.csv": "ee3d8370026a875ff6fb5f7babaa10be5519ce83e2f9eb2810d80d59f90ab0ec",
    "detections_22_600_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_22_600_prop.csv": "dd90cc00e94dd7b796272baffecd9652033061b5587df3f589a9cc9e8c834e8a",
    "detections_88_1800_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_88_1800_prop.csv": "adc341d9beb5ba845b93fcca9c8e1f57f0eafc3ad2927f8da4218dc1dd44f184",
    "detections_88_180_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_88_180_prop.csv": "c7acc97ab6479cfa5dc13f48edb513022812ef4a738b2eb76669d01f0097e422",
    "detections_88_600_base.csv": "a24e7b804a17f2e759b7bf691b02d1968aedbb1409dc9d2c869c0fc70d2a9e3a",
    "detections_88_600_prop.csv": "d97565c9a97f98441c4de54fc6c0a93847efe86c2985401eb1ddddf85cff166a",
}


def test_example_scenario_golden_detections(tmp_path):
    assert run("--out-dir", tmp_path, "run", EXAMPLE_CFG, "--save-detections") == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == {**EXAMPLE_GOLDEN, **EXAMPLE_DETECTIONS_GOLDEN}


# Run in the child: refuse to run if numpy still dispatches any SIMD
# target, run the command as ``python -m tilecast`` would, then print the
# (length, SHA-256) of the .ssc bytes of the run's scene and of the
# acceptance inputs.
_UNDISPATCHED_CLI = """
import hashlib, json, runpy, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
still = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
if still:
    sys.exit(f"numpy still dispatches {still}")
sys.argv[0] = "tilecast"
try:
    runpy.run_module("tilecast", run_name="__main__")
except SystemExit as done:
    if done.code:
        raise
from tilecast import codestream, config, raster, scenario
from test_codestream import _criterion_1_fixed_cases, _criterion_2_input
cfg = config.parse_config(sys.argv[sys.argv.index("run") + 1])
img, _ = scenario.load_scene(cfg)
grid = raster.TileGrid.for_image(img.width, img.height, cfg.tile_w, cfg.tile_h)
pins = []
for case in [(img, grid, cfg.levels), *_criterion_1_fixed_cases(), _criterion_2_input()]:
    blob = codestream.write_codestream(codestream.encode(*case))
    pins.append([len(blob), hashlib.sha256(blob).hexdigest()])
print(json.dumps(pins))
"""


def test_example_pins_hold_with_every_simd_target_disabled(tmp_path):
    # numpy picks its SIMD kernels at run time (int16 and int32 lifting,
    # float reductions, ...); the pinned outputs may not depend on which
    umath = pytest.importorskip("numpy._core._multiarray_umath",
                                reason="numpy before 2.0 lists its SIMD targets elsewhere")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    if not targets:
        pytest.skip("numpy dispatches no SIMD target on this CPU, so there is none to disable")
    here = os.path.dirname(__file__)
    paths = (os.path.join(here, os.pardir, "src"), here, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    argv = ["--quiet", "--out-dir", tmp_path, "run", EXAMPLE_CFG, "--save-detections"]
    done = subprocess.run([sys.executable, "-c", _UNDISPATCHED_CLI, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == {**EXAMPLE_GOLDEN, **EXAMPLE_DETECTIONS_GOLDEN}
    pins = json.loads(done.stdout.splitlines()[-1])
    assert [tuple(pin) for pin in pins] == [EXAMPLE_SSC, *ACCEPTANCE_SSC]
