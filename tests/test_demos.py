"""The demos run end to end against the current library API.

echo_contrast.py is left out: it takes about half a minute and writes
echo_contrast.csv beside itself.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_TIMEOUT_S = 120  # each demo takes about a second


@pytest.mark.parametrize("name", ["braiding_fringes.py", "error_budgets.py",
                                  "memory_roundtrip.py"])
def test_demo_runs(name):
    try:
        result = subprocess.run([sys.executable, str(DEMOS / name)],
                                capture_output=True, text=True, timeout=DEMO_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{name} did not finish in {DEMO_TIMEOUT_S} s")
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
