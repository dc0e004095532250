"""Command-line interface.

Subcommands:
    encode      image (PGM/PPM) -> .ssc codestream
    decode      .ssc -> image(s) at a chosen resolution level
    extract     .ssc -> sub-codestream (tile subset, lower resolution)
    info        per-resolution sizes, dimensions and size against raw samples
    gen-scene   deterministic synthetic scene + ground-truth CSV
    run         execute a scenario grid and emit CSV/SVG reports
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import codestream as cs_mod
from . import raster
from .config import parse_config
from .scenario import run_grid


def _out_path(args, path):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(args.out_dir, path)


def _parse_tiles(spec: str) -> list[int]:
    try:
        tiles = [int(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"error: bad tile list {spec!r}")
    if not tiles:
        raise SystemExit("error: empty tile list")
    return tiles


def cmd_encode(args) -> int:
    img = raster.load_image(args.input)
    grid = raster.TileGrid.for_image(img.width, img.height, args.tile_w, args.tile_h)
    stream = cs_mod.encode(img, grid, args.levels)
    path = _out_path(args, args.output)
    cs_mod.write_codestream(stream, path)
    if not args.quiet:
        print(
            f"{path}: {grid.tile_count} tiles, {stream.levels} levels, "
            f"{len(stream.payload)} payload bytes"
        )
    return 0


def cmd_decode(args) -> int:
    stream = cs_mod.parse_codestream(args.input)
    resolution = args.res if args.res is not None else stream.max_resolution
    if args.tiles is None and stream.tile_count == stream.grid.tile_count:
        img = cs_mod.assemble(stream, resolution)
        path = _out_path(args, args.output)
        raster.save_image(img, path)
        if not args.quiet:
            print(f"{path}: {img.width}x{img.height}x{img.components} at R={resolution}")
    else:
        # a partial codestream has no mosaic: write each decoded tile to its own file
        if args.tiles is None:
            tiles = [e.index for e in stream.entries]
        else:
            tiles = _parse_tiles(args.tiles)
        stem, ext = os.path.splitext(args.output)
        ext = ext or (".ppm" if stream.components == 3 else ".pgm")
        for index, tile in cs_mod.decode(stream, tiles, resolution):
            path = _out_path(args, f"{stem}_t{index}{ext}")
            raster.save_image(tile, path)
            if not args.quiet:
                print(f"{path}: tile {index} {tile.width}x{tile.height} at R={resolution}")
    return 0


def cmd_extract(args) -> int:
    stream = cs_mod.parse_codestream(args.input)
    sub = cs_mod.extract(stream, _parse_tiles(args.tiles), args.res)
    path = _out_path(args, args.output)
    cs_mod.write_codestream(sub, path)
    if not args.quiet:
        print(
            f"{path}: {sub.tile_count} tiles at R<={sub.max_resolution}, "
            f"{len(sub.payload)} payload bytes"
        )
    return 0


def cmd_info(args) -> int:
    stream = cs_mod.parse_codestream(args.input)
    indices = [e.index for e in stream.entries]
    print(
        f"{args.input}: {stream.width}x{stream.height}x{stream.components}, "
        f"tiles {stream.tile_w}x{stream.tile_h} ({stream.tile_count} present), "
        f"levels {stream.levels}, max resolution {stream.max_resolution}"
    )
    for r in range(1, stream.max_resolution + 1):
        w, h = cs_mod.resolution_size(stream, r)
        print(f"R={r}: {cs_mod.size_of(stream, indices, r)} bytes, {w}x{h} px")
    raw = stream.width * stream.height * stream.components
    print(
        f"payload {len(stream.payload)} bytes = {len(stream.payload) / raw:.3f}x "
        f"the {raw} raw sample bytes"
    )
    return 0


def cmd_gen_scene(args) -> int:
    img, boxes = raster.generate_scene(
        args.seed, args.width, args.height, args.objects, tuple(args.size_range)
    )
    path = _out_path(args, args.output)
    raster.save_image(img, path)
    if args.gt:
        raster.save_ground_truth(_out_path(args, args.gt), boxes)
    if not args.quiet:
        print(f"{path}: {img.width}x{img.height}, {len(boxes)} objects")
    return 0


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_grid(
        cfg,
        out_dir=args.out_dir,
        threads=args.threads,
        save_cell_detections=args.save_detections,
    )
    if not args.quiet:
        for row in report.rows:
            ratio = "---" if row.t_rs_ratio is None else f"{row.t_rs_ratio:.2f}"
            print(
                f"{row.scenario_id}: ratio={ratio} recall_diff={row.recall_diff:+.3f}"
                + ("" if row.feasible_prop else " (proposed infeasible)")
            )
        print(f"wrote {len(report.files)} files to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset position from clobbering the other
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="override the scenario seed"
    )
    common.add_argument(
        "--out-dir", default=argparse.SUPPRESS, help="directory for output files"
    )
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress progress output",
    )
    parser = argparse.ArgumentParser(
        prog="tilecast",
        description="Scalable tile codestream tools and annotation-framework simulator",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("encode", help="encode an image into a codestream")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tile-w", type=int, default=256)
    p.add_argument("--tile-h", type=int, default=256)
    p.add_argument("--levels", type=int, default=5)
    p.set_defaults(func=cmd_encode)

    p = add_parser("decode", help="decode a codestream to an image")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--res", type=int, default=None, help="resolution level (default max)")
    p.add_argument("--tiles", default=None, help="comma-separated tile indices")
    p.set_defaults(func=cmd_decode)

    p = add_parser("extract", help="extract a sub-codestream")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--tiles", required=True, help="comma-separated tile indices")
    p.set_defaults(func=cmd_extract)

    p = add_parser("info", help="show per-resolution sizes of a codestream")
    p.add_argument("input")
    p.set_defaults(func=cmd_info)

    p = add_parser("gen-scene", help="generate a synthetic scene")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--gt", default=None, help="also write ground truth CSV here")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--size-range", type=int, nargs=2, default=(24, 64), metavar=("MIN", "MAX"))
    p.set_defaults(func=cmd_gen_scene)

    p = add_parser("run", help="run a scenario grid from a config file")
    p.add_argument("config")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--save-detections", action="store_true",
                   help="also export per-cell annotation CSVs")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # global flags may appear before or after the subcommand; unset ones
    # are absent from the namespace (SUPPRESS), so fill the defaults here
    args.seed = getattr(args, "seed", None)
    args.out_dir = getattr(args, "out_dir", ".")
    args.quiet = getattr(args, "quiet", False)
    if args.command == "gen-scene" and args.seed is None:
        args.seed = 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the module errors all subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
