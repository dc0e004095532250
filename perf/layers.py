"""Time the codec's decode and write layers on fixed inputs, and check what they return.

    python3 perf/layers.py            # this checkout, JSON on stdout
    python3 perf/layers.py --small    # the tier-1 smoke test's inputs
    python3 perf/layers.py --against ../parent --e2e codec-mix --seeds 201-210 > BENCH_28.json

Six layers, each called on one fixed input built with library calls:

- ``forward_53``: the example scene's top-left 256x256 tile-component
  (component 0), DC-shifted, lifted to the scene's depth as a stack of
  one; Mpx/s.
- ``band_sizes``: the token bytes of those bands, counted without
  writing them; token MB/s counted. With ``forward_53`` this is what
  ``measure`` does per tile-component.
- ``encode_bands``: the same bands written in one pass; token MB/s
  written.
- ``decode_bands``: those tokens read back into bands; token MB/s read.
- ``inverse_53``: the decoded bands as a stack of one, synthesized;
  Mpx/s.
- ``assemble``: the whole example scene, encoded once, mosaicked at full
  resolution; tiles/s.

``--small`` takes the same layers from a 256x256 scene of 64 px tiles
instead (the smoke test's inputs). Every call's result is hashed and
compared with the SHA-256 pinned below for its input set, integers as
int64 little-endian whatever width the layer returns, so a layer that
stops doing its work fails instead of getting faster.

Each side is timed in a subprocess whose glibc mmap threshold is fixed
at 1 MiB by ``bench/run.py``'s own ``_fix_mmap_threshold``, so arrays
come from the allocator as they do in the benchmark. A layer's time is
``time.perf_counter`` around one call, after one untimed call; it
reports the median and quartiles of ``REPEATS`` calls. ``--against DIR``
also times the checkout at ``DIR`` (its ``src/``), in ``ROUNDS``
alternating subprocess pairs, and writes both sides. ``--e2e WORKLOAD``
adds alternating ``bench/run.py`` pairs of the two checkouts, each
running its own copy, on ``--seeds`` for ``SECONDS`` each.
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
REPEATS = 15  # timed calls per layer in one subprocess
ROUNDS = 5  # alternating subprocess pairs with --against
SECONDS = 30  # length of one bench/run.py run, as BENCHMARK.json runs it

# SHA-256 of each layer's output on each input set
DIGESTS = {
    "full": {
        "forward_53": "1762d3de80238dd816711e6009571f09df564aa764109bef02851cf31c655271",
        "band_sizes": "2ff74a251c915b479ea3703d351d9bbe79fda6c8d2c0fd384614a25910db3e14",
        "encode_bands": "ba400414ec362fa35b3cb83ea02a010093345726e6526d152db980a063ab03a8",
        "decode_bands": "d29bd3920d105efce1e0e58fae0721833679745322ea629276b07140ac27a6ec",
        "inverse_53": "2f96ecd8b45b60b5bc7f4bfcafb1c3f1e85a7d398f23c7a8ff61ec23761bdf6b",
        "assemble": "7e381ce36279d32b4f17d6ca032efa1dbeecabd34d937d5aadbf285cc6bf80f5",
    },
    "small": {
        "forward_53": "d41c4d338905bc99d8488b3fbc39db30163ae02d87c28529dfebc388a5ba7ad8",
        "band_sizes": "6830e9e260414cc8cb1a4312a334a2fea6f86237d92e7924eba80e942757732d",
        "encode_bands": "d782faed044595669923dfcfb1c398d5118b91a29d5955e658458a11c23b26d2",
        "decode_bands": "418c481cf1c92b934024ae173cc6cf45fa5d89336e246e8b341c3fb840305131",
        "inverse_53": "caeb3a91b146136c81b5e7549ad249ab745a81b0c7c1485eecae4a197c69678d",
        "assemble": "0da740d1241bd02ab095fe95a17b889ebc5ece8a23607b6cf7d7c3fb4f690470",
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


def build(small: bool):
    """The layers' inputs: {layer: (call, digest of its result, units of work, unit)}."""
    import numpy as np

    from tilecast import codestream, config, scenario, wavelet
    from tilecast.raster import TileGrid, generate_scene

    if small:
        img, _ = generate_scene(1, 256, 256, 4, (8, 24))
        grid, levels = TileGrid.for_image(256, 256, 64, 64), 4
    else:
        cfg = config.parse_config(os.path.join(ROOT, "scenario.example.cfg"))
        img, _ = scenario.load_scene(cfg)
        grid, levels = TileGrid.for_image(img.width, img.height, cfg.tile_w, cfg.tile_h), cfg.levels
    samples = np.subtract(img.pixels[:256, :256, 0], 128, dtype=np.int32)
    stack = samples[np.newaxis]
    pyr = wavelet.forward_53(samples, levels - 1)
    bands = [pyr.ll, *(band for level in pyr.details for band in level)]
    coded, _ = codestream.encode_bands(bands)
    counts = [band.size for band in bands]
    decoded = codestream.decode_bands(coded, counts)
    shaped = [d.reshape(1, *b.shape) for d, b in zip(decoded, bands)]
    pyramid = wavelet.CoefficientPyramid(
        shaped[0], tuple(tuple(shaped[i : i + 3]) for i in range(1, len(shaped), 3)))
    stream = codestream.encode(img, grid, levels)
    mb = len(coded) / 1e6
    return {
        "forward_53": (lambda: wavelet.forward_53(stack, levels - 1),
                       lambda out: _digest(out.ll, *(b for level in out.details for b in level)),
                       256 * 256 / 1e6, "Mpx/s"),
        "band_sizes": (lambda: codestream.band_sizes(bands),
                       lambda out: _digest(np.array(out)), mb, "MB/s"),
        "encode_bands": (lambda: codestream.encode_bands(bands),
                         lambda out: _digest(out[0], np.array(out[1])), mb, "MB/s"),
        "decode_bands": (lambda: codestream.decode_bands(coded, counts),
                         lambda out: _digest(*out), mb, "MB/s"),
        "inverse_53": (lambda: wavelet.inverse_53(pyramid),
                       lambda out: _digest(out), 256 * 256 / 1e6, "Mpx/s"),
        "assemble": (lambda: codestream.assemble(stream, levels),
                     lambda out: _digest(out.pixels), stream.tile_count, "tiles/s"),
    }


def measure(small: bool, repeats: int) -> dict:
    """Each layer's timings and rate on this interpreter's ``tilecast``; refuses a wrong result."""
    pinned = DIGESTS["small" if small else "full"]
    layers = {}
    for name, (call, digest, work, unit) in build(small).items():
        got = digest(call())
        if got != pinned[name]:
            raise SystemExit(f"{name}: output digest {got} != pinned {pinned[name]}")
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        layers[name] = {"times_s": times, "work": work, "unit": unit, "digest": got}
    return layers


def summarize(layers: dict) -> dict:
    out = {}
    for name, layer in layers.items():
        times = layer["times_s"]
        med = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (med, med, med)
        out[name] = {"n": len(times), "median_s": med, "q1_s": q1, "q3_s": q3,
                     "rate": layer["work"] / med, "unit": layer["unit"], "digest": layer["digest"]}
    return out


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


def _side(checkout: str, small: bool) -> dict:
    """One subprocess timing the layers of the ``tilecast`` under ``checkout``/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--raw"]
    return json.loads(_run(cmd + (["--small"] if small else []), env=env))


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
    p.add_argument("--against", help="a parent checkout to time in alternating rounds")
    p.add_argument("--e2e", nargs="*", default=[], help="bench/run.py workloads to pair")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.raw:
        _fix_mmap_threshold()
        json.dump(measure(args.small, REPEATS), sys.stdout)
        return 0

    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "repeats": REPEATS, "small": args.small}
    if not args.against:
        result = {"git_head": _git_head(ROOT), **env,
                  "layers": summarize(_side(ROOT, args.small))}
    else:
        checkouts = {"parent": os.path.abspath(args.against), "change": ROOT}
        timed = {side: {} for side in checkouts}
        for r in range(ROUNDS):
            order = list(checkouts) if r % 2 == 0 else list(reversed(checkouts))
            for side in order:
                for name, layer in _side(checkouts[side], args.small).items():
                    timed[side].setdefault(name, {**layer, "times_s": []})
                    timed[side][name]["times_s"] += layer["times_s"]
        result = {**env, "rounds": ROUNDS}
        for side, checkout in checkouts.items():
            result[side] = {"git_head": _git_head(checkout), "layers": summarize(timed[side])}
        result["speedup"] = {name: result["parent"]["layers"][name]["median_s"]
                             / result["change"]["layers"][name]["median_s"]
                             for name in timed["change"]}
        result["end_to_end"] = [_e2e(checkouts, wl, args.seeds) for wl in args.e2e]
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
