"""Time the codec's layers on fixed inputs, and check what they return.

    python3 perf/layers.py            # this checkout, JSON on stdout
    python3 perf/layers.py --small    # the tier-1 smoke test's inputs
    python3 perf/layers.py --against ../parent --e2e grid-sweep --seeds 1-10 > BENCH_31.json

Ten layers, each called on one fixed input built with library calls:

- ``forward_53``: the example scene's top-left 256x256 tile-component
  (component 0), DC-shifted into the width its first level lifts in, as
  ``codestream`` does, and lifted to the scene's depth as a stack of
  one; Mpx/s.
- ``band_sizes``: the token bytes of those bands, counted without
  writing them; token MB/s counted. With ``forward_53`` this is what
  ``measure`` does per tile-component.
- ``measure``: the whole example scene's table, lifted and sized in
  the codec's batches; tiles/s. Batching shows here and in no other
  layer.
- ``encode_bands``: the bands of ``forward_53`` written in one pass;
  token MB/s written.
- ``decode_bands``: those tokens read back into bands; token MB/s read.
- ``inverse_53``: the decoded bands as a stack of one, synthesized;
  Mpx/s.
- ``assemble``: the whole example scene, encoded once, mosaicked at full
  resolution; tiles/s.
- ``write_codestream``: that encoded stream serialized to ``.ssc`` bytes;
  MB/s written.
- ``parse_codestream``: those bytes parsed back, and hashed as written
  again; MB/s read.
- ``compute_budget``: that stream's plan over a fixed link, one that
  carries half its payload within the time limit, at 10 s of human time
  per tile and a 300 s cap; tiles/s.

``--small`` takes the same layers from a 256x256 scene of 64 px tiles
instead (the smoke test's inputs). Every call's result is hashed and
compared with the SHA-256 pinned below for its input set, integers as
int64 little-endian whatever width the layer returns, so a layer that
stops doing its work fails instead of getting faster.

Everything is timed in this process, with glibc's mmap threshold fixed
at 1 MiB by ``bench/run.py``'s own ``_fix_mmap_threshold``, so arrays
come from the allocator as they do in the benchmark. A layer's time is
``time.perf_counter`` around one call, after one untimed call; it
reports the median and quartiles of ``REPEATS`` calls.

``--against DIR`` loads the ``tilecast`` under ``DIR``/src a second
time, as the package ``tilecast_parent``, beside this checkout's. Each
side builds its own inputs with its own package, and the two sides'
calls alternate call by call, the side that goes first swapping each
pair, so load and heap drift fall on both alike. The result gives each
layer's speedup (the parent's median over this checkout's) and the pairs
this checkout won, and the same for ``DIR`` timed against a second copy
of itself, which states the resolution of the run: a layer's speedup
means something only where it lies outside that row's. Timing each
side in its own subprocess instead could not resolve a difference under
about 10%. ``--e2e WORKLOAD`` adds alternating ``bench/run.py`` pairs of
the two checkouts, each running its own copy, on ``--seeds`` for
``SECONDS`` each.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 21  # timed calls per layer and side
SECONDS = 30  # length of one bench/run.py run, as BENCHMARK.json runs it

# SHA-256 of each layer's output on each input set
DIGESTS = {
    "full": {
        "forward_53": "1762d3de80238dd816711e6009571f09df564aa764109bef02851cf31c655271",
        "band_sizes": "2ff74a251c915b479ea3703d351d9bbe79fda6c8d2c0fd384614a25910db3e14",
        "measure": "a3417959f6e6d4d64c4fd997e879792cad175641ae409052897570858b417afc",
        "encode_bands": "ba400414ec362fa35b3cb83ea02a010093345726e6526d152db980a063ab03a8",
        "decode_bands": "d29bd3920d105efce1e0e58fae0721833679745322ea629276b07140ac27a6ec",
        "inverse_53": "2f96ecd8b45b60b5bc7f4bfcafb1c3f1e85a7d398f23c7a8ff61ec23761bdf6b",
        "assemble": "7e381ce36279d32b4f17d6ca032efa1dbeecabd34d937d5aadbf285cc6bf80f5",
        "write_codestream": "c5cfee84e5be1b1a509c12abf51e3d2fb11fab0f33038a72bdd2782ac2f0b6b0",
        "parse_codestream": "c5cfee84e5be1b1a509c12abf51e3d2fb11fab0f33038a72bdd2782ac2f0b6b0",
        "compute_budget": "9a010008d53c4abb61157c179ea328d89ce03aec9ec236d6825c4087a7f93698",
    },
    "small": {
        "forward_53": "d41c4d338905bc99d8488b3fbc39db30163ae02d87c28529dfebc388a5ba7ad8",
        "band_sizes": "6830e9e260414cc8cb1a4312a334a2fea6f86237d92e7924eba80e942757732d",
        "measure": "6d2c328e304e07c205e66410729ef48d617848d26b752f0e860686846a676531",
        "encode_bands": "d782faed044595669923dfcfb1c398d5118b91a29d5955e658458a11c23b26d2",
        "decode_bands": "418c481cf1c92b934024ae173cc6cf45fa5d89336e246e8b341c3fb840305131",
        "inverse_53": "caeb3a91b146136c81b5e7549ad249ab745a81b0c7c1485eecae4a197c69678d",
        "assemble": "0da740d1241bd02ab095fe95a17b889ebc5ece8a23607b6cf7d7c3fb4f690470",
        "write_codestream": "362c2c47bfbc7a21ce2abef4acf8d60ef1f579464f0a0d4614b0936ed84d3be0",
        "parse_codestream": "362c2c47bfbc7a21ce2abef4acf8d60ef1f579464f0a0d4614b0936ed84d3be0",
        "compute_budget": "d24bfcaa0126147808c7b8915a9d34657c49cf182d7aea1936db487250cd1caa",
    },
}


def _digest(*arrays_or_bytes) -> str:
    """SHA-256 of bytes and arrays in order; an integer array is hashed as int64 with its shape."""
    import numpy as np

    h = hashlib.sha256()
    for part in arrays_or_bytes:
        if isinstance(part, bytes):
            h.update(part)
        else:
            a = np.asarray(part)
            h.update(str(a.shape).encode())
            h.update(a.astype("<i8" if a.dtype.kind in "iub" else a.dtype).tobytes())
    return h.hexdigest()


def build(small: bool, package: str = "tilecast"):
    """The layers' inputs: {layer: (call, digest of its result, units of work, unit)}.

    Every input is built, and every call made, with ``package``'s own modules.
    """
    import numpy as np

    channel, codestream, config, pipeline, raster, scenario, wavelet = (
        importlib.import_module(f"{package}.{name}")
        for name in ("channel", "codestream", "config", "pipeline", "raster", "scenario",
                     "wavelet"))
    if small:
        img, _ = raster.generate_scene(1, 256, 256, 4, (8, 24))
        grid, levels = raster.TileGrid.for_image(256, 256, 64, 64), 4
    else:
        cfg = config.parse_config(os.path.join(ROOT, "scenario.example.cfg"))
        img, _ = scenario.load_scene(cfg)
        grid = raster.TileGrid.for_image(img.width, img.height, cfg.tile_w, cfg.tile_h)
        levels = cfg.levels
    # codestream DC-shifts into the width the first level of 8-bit samples lifts in
    shift = np.subtract(img.pixels[:256, :256, 0], 128, dtype=wavelet._level_dtype(128))
    stack = shift[np.newaxis]
    pyr = wavelet.forward_53(shift, levels - 1)
    bands = [pyr.ll, *(band for level in pyr.details for band in level)]
    coded, _ = codestream.encode_bands(bands)
    counts = [band.size for band in bands]
    decoded = codestream.decode_bands(coded, counts)
    shaped = [d.reshape(1, *b.shape) for d, b in zip(decoded, bands)]
    pyramid = wavelet.CoefficientPyramid(
        shaped[0], tuple(tuple(shaped[i : i + 3]) for i in range(1, len(shaped), 3)))
    stream = codestream.encode(img, grid, levels)
    blob = codestream.write_codestream(stream)
    link = channel.ChannelSpec(data_rate=len(stream.payload) * 4 / 600, t_tr_limit=600.0)
    mb = len(coded) / 1e6
    return {
        "forward_53": (lambda: wavelet.forward_53(stack, levels - 1),
                       lambda out: _digest(out.ll, *(b for level in out.details for b in level)),
                       256 * 256 / 1e6, "Mpx/s"),
        "band_sizes": (lambda: codestream.band_sizes(bands),
                       lambda out: _digest(np.array(out)), mb, "MB/s"),
        "measure": (lambda: codestream.measure(img, grid, levels),
                    lambda out: _digest(np.array([e.index for e in out.entries]),
                                        np.array([e.seg_lengths for e in out.entries])),
                    grid.tile_count, "tiles/s"),
        "encode_bands": (lambda: codestream.encode_bands(bands),
                         lambda out: _digest(out[0], np.array(out[1])), mb, "MB/s"),
        "decode_bands": (lambda: codestream.decode_bands(coded, counts),
                         lambda out: _digest(*out), mb, "MB/s"),
        "inverse_53": (lambda: wavelet.inverse_53(pyramid),
                       lambda out: _digest(out), 256 * 256 / 1e6, "Mpx/s"),
        "assemble": (lambda: codestream.assemble(stream, levels),
                     lambda out: _digest(out.pixels), stream.tile_count, "tiles/s"),
        "write_codestream": (lambda: codestream.write_codestream(stream),
                             lambda out: _digest(out), len(blob) / 1e6, "MB/s"),
        "parse_codestream": (lambda: codestream.parse_codestream(blob),
                             lambda out: _digest(codestream.write_codestream(out)),
                             len(blob) / 1e6, "MB/s"),
        "compute_budget": (lambda: pipeline.compute_budget(stream, link, 10.0, 300.0),
                           lambda out: _digest(np.array([out.lr, out.human_budget])),
                           stream.tile_count, "tiles/s"),
    }


def _time(sides: dict, small: bool, repeats: int) -> dict:
    """{side: {layer: timings}} for sides given as {side: package}; refuses a wrong result.

    Each layer's calls alternate between the sides, the side that goes
    first swapping with each round.
    """
    pinned = DIGESTS["small" if small else "full"]
    built = {side: build(small, package) for side, package in sides.items()}
    order = list(sides)
    timed = {side: {} for side in sides}
    for name in pinned:
        for side in order:
            call, digest, work, unit = built[side][name]
            got = digest(call())
            if got != pinned[name]:
                raise SystemExit(f"{name}: output digest {got} != pinned {pinned[name]}")
            timed[side][name] = {"times_s": [], "work": work, "unit": unit, "digest": got}
        for r in range(repeats):
            for side in order if r % 2 == 0 else reversed(order):
                call = built[side][name][0]
                t0 = time.perf_counter()
                call()
                timed[side][name]["times_s"].append(time.perf_counter() - t0)
    return timed


def measure(small: bool, repeats: int) -> dict:
    """Each layer's timings and rate on this interpreter's ``tilecast``; refuses a wrong result."""
    return _time({"change": "tilecast"}, small, repeats)["change"]


def summarize(layers: dict) -> dict:
    out = {}
    for name, layer in layers.items():
        times = layer["times_s"]
        med = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (med, med, med)
        out[name] = {"n": len(times), "median_s": med, "q1_s": q1, "q3_s": q3,
                     "rate": layer["work"] / med, "unit": layer["unit"], "digest": layer["digest"]}
    return out


def _versus(timed: dict, parent: str, change: str) -> dict:
    """Per layer, the parent's median time over the change's, and the rounds the change won."""
    rows = {}
    for name, layer in timed[change].items():
        ours, theirs = layer["times_s"], timed[parent][name]["times_s"]
        wins = sum(a < b for a, b in zip(ours, theirs))
        rows[name] = {"speedup": statistics.median(theirs) / statistics.median(ours),
                      "wins": f"{wins}/{len(ours)}"}
    return rows


def _load(checkout: str, package: str) -> str:
    """Import ``checkout``/src/tilecast as the package ``package``, beside any other copy."""
    path = os.path.join(checkout, "src", "tilecast")
    spec = importlib.util.spec_from_file_location(
        package, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return package


def _fix_mmap_threshold() -> None:
    """Set the allocator up as ``bench/run.py`` does, by loading it (it fixes the threshold on import)."""
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _git_head(checkout: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _run(cmd: list[str], **kwargs) -> str:
    """``cmd``'s stdout; if it fails, its stderr is printed and this process exits nonzero."""
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit status {proc.returncode}")
    return proc.stdout


def _e2e(checkouts: dict, workload: str, seeds: list[int]) -> dict:
    """Alternating ``bench/run.py`` pairs: the side that runs first swaps every seed."""
    runs = {side: [] for side in checkouts}
    for i, seed in enumerate(seeds):
        order = list(checkouts) if i % 2 == 0 else list(reversed(checkouts))
        for side in order:
            cmd = [sys.executable, os.path.join(checkouts[side], "bench", "run.py"),
                   "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
            result = json.loads(_run(cmd, cwd=checkouts[side]).strip().splitlines()[-1])
            runs[side].append({"seed": seed, "correct": result["correct"],
                               "attempted": result["attempted"], "failed": result["failed"],
                               **{k: m["value"] for k, m in result["metrics"].items()}})
    summary = {}
    for side, results in runs.items():
        summary[side] = {}
        for metric in ("ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s"):
            values = [r[metric] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            summary[side][metric] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    change, parent = runs["change"], runs["parent"]
    wins = sum(c["ops_per_s"] > p["ops_per_s"] for c, p in zip(change, parent))
    return {"workload": workload, "seconds": SECONDS, "seeds": seeds, "runs": runs,
            "summary": summary, "ops_per_s_wins": f"{wins}/{len(seeds)}"}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--small", action="store_true", help="the smoke test's small inputs")
    p.add_argument("--against", help="a parent checkout to time call by call against this one")
    p.add_argument("--e2e", nargs="*", default=[], help="bench/run.py workloads to pair")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = p.parse_args(argv)
    _fix_mmap_threshold()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "repeats": REPEATS, "small": args.small}
    if not args.against:
        result = {"git_head": _git_head(ROOT), **env,
                  "layers": summarize(measure(args.small, REPEATS))}
    else:
        parent = os.path.abspath(args.against)
        # first: a child's ru_maxrss starts at this process's peak, which
        # the layers below raise past bench/run.py's own peak_rss_mb
        end_to_end = [_e2e({"parent": parent, "change": ROOT}, wl, args.seeds) for wl in args.e2e]
        sides = {"parent": _load(parent, "tilecast_parent"), "change": "tilecast"}
        timed = _time(sides, args.small, REPEATS)
        result = dict(env)
        for side, checkout in (("parent", parent), ("change", ROOT)):
            result[side] = {"git_head": _git_head(checkout), "layers": summarize(timed[side])}
        result["versus"] = _versus(timed, "parent", "change")
        again = _time({"parent": "tilecast_parent", "again": _load(parent, "tilecast_again")},
                      args.small, REPEATS)
        result["parent_vs_parent"] = _versus(again, "parent", "again")
        result["end_to_end"] = end_to_end
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
