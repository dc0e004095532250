"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Workloads: grid-sweep, codec-mix, dense-cells (see README.md). The run
is a closed loop in this one process and thread: it sets the workload
up from the seed, then does whole rounds of operations until
``--seconds`` have passed, checking every output outside the timed part.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
every operation runs twice on the same inputs, untraced and then
traced, and it reports the per-layer metrics plus the tracing overhead
and writes the spans to ``.bench_out/``. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _fix_mmap_threshold() -> None:
    """Serve blocks of 1 MiB and more by mmap; keep up to 64 MiB of free heap top.

    glibc starts with a 128 KiB mmap threshold and raises it (up to
    32 MiB) each time such a block is freed. Where those frees fall
    differs with the inputs, so image-sized blocks sometimes came from
    the heap and the peak RSS of the same work moved by 15-30 MB between
    runs. With the threshold fixed at 1 MiB, every image-sized block goes
    back to the system when freed, per-tile arrays (at most 512 KiB)
    stay on the heap, and the peak repeats.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: leave the allocator as it is
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_fix_mmap_threshold()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["grid-sweep", "codec-mix", "dense-cells"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="run_grid worker threads (grid-sweep only; default 1)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tilecast", "__init__.py")) or \
            not os.path.isfile(os.path.join(ROOT, "scenario.example.cfg")):
        print(f"bench: no tilecast sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.threads != 1 and args.workload != "grid-sweep":
        print("bench: --threads applies to grid-sweep only", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        return _measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _measure(args, out_dir: str) -> int:
    import checks
    import spans
    import workloads

    import_s = time.perf_counter() - _T0
    cls = workloads.WORKLOADS[args.workload]
    extra = {"threads": args.threads} if args.workload == "grid-sweep" else {}
    synth = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = cls(args.seed, ROOT, out_dir, **extra)
        synth.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(synth)

    tracer = spans.Tracer() if args.trace else None
    op_times = []
    attempted = failed = 0
    correct = True
    k = 0
    start = time.perf_counter()

    def attempt(fn):
        nonlocal attempted, failed, correct
        attempted += 1
        t = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        dt = time.perf_counter() - t
        try:
            wl.check(k, out)
        except checks.CheckFailed as exc:
            correct = False
            print(f"bench: check failed on operation {k}: {exc}", file=sys.stderr)
        return dt

    while time.perf_counter() - start < args.seconds:
        for _ in range(wl.ops_per_round):
            dt = attempt(lambda: wl.run(k))
            if dt is not None:
                op_times.append(dt)
            if tracer is not None:
                traced = attempt(lambda: tracer.run_op(k, lambda: wl.run(k)))
                if dt is not None and traced is not None:
                    tracer.overhead.append(traced - dt)
            k += 1

    if tracer is None:
        total = sum(op_times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(op_times) / total if total else 0.0, "op/s"),
            "op_p50_ms": (statistics.median(op_times) * 1000 if op_times else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
        }
    else:
        units = spans.LAYER_METRICS
        metrics = {name: (v, units[name][0]) for name, v in tracer.metrics().items()}
        trace_path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "span": ["op", "name", "start", "end", "parent"]})

    print(f"{args.workload} seed={args.seed}: {attempted} operations, {failed} failed, "
          f"checks {'passed' if correct else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
