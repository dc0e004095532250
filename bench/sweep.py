"""Repeat bench/run.py over seeds and summarize each metric.

    python3 bench/sweep.py --workloads grid-sweep codec-mix --seeds 1-10 --seconds 30

Runs one process at a time and prints, per workload and metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, plus the share of failed operations.
``--json FILE`` also writes every run's result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", help="write every run's result to this file")
    args = p.parse_args()

    results = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, RUN, "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.threads != 1:
                cmd += ["--threads", str(args.threads)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        results[wl] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} {first['unit']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
