"""The benchmark's self-test, run as part of the suite: a change that drops a
public name the benchmark tracer wraps, or breaks a workload check, fails
here and not only when the benchmark is next run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELFTEST_TIMEOUT_S = 120  # the self-test takes a few seconds


def test_benchmark_selftest():
    try:
        result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                                capture_output=True, text=True, timeout=SELFTEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"bench/selftest.py did not finish in {SELFTEST_TIMEOUT_S} s")
    assert result.returncode == 0, result.stdout + result.stderr
