"""The benchmark's self-test, run as part of the suite: a change that drops a
public name the benchmark tracer wraps, or breaks a workload check, fails
here and not only when the benchmark is next run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest():
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
