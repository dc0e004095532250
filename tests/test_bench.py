"""Each benchmark workload runs against this tree and passes its checks.

``bench/`` calls library signatures directly (``run_grid(threads=)``,
positional ``run_baseline``, the span wrap points), so a change that
breaks one of them fails here. The traced grid-sweep run installs every
wrap point; the other two workloads run untraced to save time.
"""

import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "run.py")


@pytest.mark.parametrize(
    "workload, trace", [("grid-sweep", 1), ("codec-mix", 0), ("dense-cells", 0)]
)
def test_bench_workload_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 failed, checks passed" in proc.stdout, proc.stdout + proc.stderr
