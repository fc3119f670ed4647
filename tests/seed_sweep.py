"""Seed sweep of the statistical checks on the Monte Carlo noise and its
contrast curves.

Runs each check's body at K seeds and prints, per check, how often it failed
beside how often a correct program fails it (its nominal rate, from the
Gaussian tail of its k-sigma rule):

- ``fast_noise_checks``, the body of test_fast_noise_against_master_equation
  (seeds 0..K-1);
- ``coarse_noise_law_checks``, the body of test_coarse_noise_law (seeds
  0..K-1);
- ``noise_law_checks``, the body of test_noise_mean_and_autocorrelation
  (seeds 0..K-1, seed s reading the streams 200 s .. 200 s + 199);
- ``echo_filter_checks``, the body of test_echo_filter_oracle_matches_mc
  (seeds 0..K-1; its tolerance adds 0.2 |log predicted| to the 3 standard
  errors, so 3 sigma bounds its nominal rate from above);
- the ``mc_fast`` benchmark repetition and its rule
  ``bench/workloads.check_master_equation`` (repetitions 0..K-1 of seed 1);
- the ``mc_echo`` benchmark repetition and its rule
  ``bench/workloads.check_echo_order`` (repetitions 0..K-1 of seed 1; each
  ordering is one-sided and the curves are ordered with a margin, so the
  one-sided 4-sigma tail bounds its nominal rate from above).

Not collected by pytest.  Run from the repository root:

    python tests/seed_sweep.py [K]      (K = 30 by default)
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import test_diffusion as td  # noqa: E402
import workloads as wl  # noqa: E402
from anyonsim import lattice as lat  # noqa: E402


def two_sided(k: float) -> float:
    """P(|Z| >= k) for a standard normal Z."""
    return math.erfc(k / math.sqrt(2.0))


class _Watch:
    """The benchmark's stopwatch, reduced to the pause a repetition asks for."""

    paused = staticmethod(contextlib.nullcontext)


def bench_checks(workload):
    """The body of repetition ``rep`` of the benchmark workload class
    ``workload`` at seed 1: the outcomes of the checks it makes."""
    def body(rep: int) -> np.ndarray:
        run = workload()
        run.setup(1)
        return np.array(run.rep(rep, _Watch()))
    return body


# (name, body of one seed, nominal failure rate of one check, rule)
CHECKS = [
    ("test_fast_noise_against_master_equation",
     lambda seed: td.fast_noise_checks(lat.torus(4), seed)[0], two_sided(4.0),
     "|mean - master| < max(4 stderr, 0.02) per delay"),
    ("test_coarse_noise_law", lambda seed: td.coarse_noise_law_checks(lat.torus(4), seed)[0],
     two_sided(3.0), "3 standard errors per lag and for the mean"),
    ("test_noise_mean_and_autocorrelation",
     lambda seed: td.noise_law_checks(lat.torus(4), seed)[0], two_sided(3.0),
     "3 standard errors per lag and for the mean"),
    ("test_echo_filter_oracle_matches_mc",
     lambda seed: td.echo_filter_checks(lat.torus(4), seed)[0], two_sided(3.0),
     "0.2 |log predicted| + 3 stderr / mean, per n"),
    ("mc_fast check_master_equation", bench_checks(wl.McFast), two_sided(4.0),
     "max(4 sigma, 0.02), sigma floored, per delay"),
    ("mc_echo check_echo_order", bench_checks(wl.McEcho), two_sided(4.0) / 2,
     "one-sided max(4 sigma, 0.02), sigma floored, per pair and delay"),
]


def main(argv: list[str]) -> int:
    k = int(argv[1]) if len(argv) > 1 else 30
    print(f"{'check':40s} {'seeds':>5s} {'checks':>6s} {'failed':>6s} {'runs failed':>11s} "
          f"{'observed':>9s} {'nominal <=':>10s}  rule")
    for name, body, nominal, rule in CHECKS:
        start = time.perf_counter()
        outcomes = np.array([body(seed) for seed in range(k)])
        failed = int((~outcomes).sum())
        print(f"{name:40s} {k:5d} {outcomes.size:6d} {failed:6d} "
              f"{int((~outcomes).any(axis=1).sum()):11d} {failed / outcomes.size:9.2e} "
              f"{nominal:10.1e}  {rule} ({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
