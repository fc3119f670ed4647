"""Benchmark harness for anyonsim.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc_fast --seed 1 --seconds 15 --trace 0

Set-up is timed in rounds, before the timed section and before each of its
repetitions, and the median is reported as ``setup_s``; the timed section
is repeated until ``--seconds`` have passed (at least once) and the median
repetition is reported.  Every repetition checks its output against
a repository oracle, outside the timed section.  With ``--trace 0`` the
last line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced pass (see bench/LAYERS.md).  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Run metadata is printed on the line before it.  Both, and the spans of a
traced run, are also written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import COUNTER_NAMES, HEALTH, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_MIN_REPEATS = 3
SETUP_ROUND_S = 0.02
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One thread of work: BLAS pools left at their default spin on the second
# core of a 2-core box, which doubles CPU time and makes wall time unsteady.
SINGLE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {".calls": "count", ".samples": "count", ".stabilizers": "count",
         ".amps_touched": "count", ".bytes_touched": "B", "_s": "s"}
WORKLOAD_NAMES = ("mc_fast", "mc_echo", "braid_torus32", "memory_torus3")


class Watch:
    """Wall and CPU (user + sys) time of a section, minus paused parts.
    Pausing also stops the tracer, so checks leave no spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0

    def start(self) -> None:
        if self.tracer:
            self.tracer.recording = True
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def stop(self) -> None:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += time.process_time() - self._cpu0
        if self.tracer:
            self.tracer.recording = False

    @contextlib.contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()


def import_library():
    """Put the checkout's src/ first on sys.path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "anyonsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no anyonsim sources under {src}")
    sys.path.insert(0, str(src))
    import anyonsim
    if Path(anyonsim.__file__).resolve().parent != (src / "anyonsim").resolve():
        raise SystemExit(f"error: imported anyonsim from {anyonsim.__file__}")


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def run_metadata(args) -> dict:
    import numpy as np

    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    loadavg = None
    with contextlib.suppress(OSError):
        loadavg = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    blas = None
    with contextlib.suppress(TypeError, KeyError):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "loadavg_start": loadavg,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup_round(make, seed: int):
    """Set up repeatedly for SETUP_ROUND_S (at least once); return the last
    workload and every set-up time."""
    times = []
    while not times or sum(times) < SETUP_ROUND_S:
        workload = make()
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return workload, times


def measure_setup(make, seed: int):
    """Set-up rounds until at least SETUP_MIN_REPEATS set-ups are timed."""
    times = []
    while len(times) < SETUP_MIN_REPEATS:
        workload, more = setup_round(make, seed)
        times += more
    return workload, times


def run_rep(workload, k: int, tracer=None) -> tuple[float, float, list[bool]]:
    """One repetition of the timed section: (wall s, cpu s, check outcomes)."""
    watch = Watch(tracer)
    watch.start()
    checks = workload.rep(k, watch)
    watch.stop()
    return watch.wall, watch.cpu, checks


def run_reps(workload, seconds: float, make, seed: int, setup_times: list[float]):
    """Repetitions of the timed section for ``seconds`` (at least one).

    A set-up round precedes each repetition and adds to ``setup_times``, so
    that set-up is sampled across the run, as the timed section is; the
    machine's speed drifts by up to 1.8x within a minute."""
    walls, cpus, checks = [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        setup_times += setup_round(make, seed)[1]
        wall, cpu, outcome = run_rep(workload, len(walls))
        walls.append(wall)
        cpus.append(cpu)
        checks += outcome
    return walls, cpus, checks


def traced_pass(make, workload, seed: int, seconds: float):
    """One traced set-up, then untraced and traced repetitions alternating
    for ``seconds`` (at least one pair), so both see the same machine load.

    Returns per-layer values (traced set-up plus the mean traced
    repetition), check outcomes, raw spans and the untraced wall times."""
    setup_tracer, rep_tracer = Tracer(), Tracer()
    setup_tracer.install()
    try:
        watch = Watch(setup_tracer)
        watch.start()
        make().setup(seed)
        watch.stop()
    finally:
        setup_tracer.uninstall()
    plain, traced, checks = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        wall, _, outcome = run_rep(workload, 2 * len(traced))
        plain.append(wall)
        checks += outcome
        rep_tracer.install()
        try:
            wall, _, outcome = run_rep(workload, 2 * len(traced) + 1, rep_tracer)
        finally:
            rep_tracer.uninstall()
        traced.append(wall)
        checks += outcome
    n = len(traced)
    setup_layers = setup_tracer.layer_totals()
    layers = {k: setup_layers[k] + v / n for k, v in rep_tracer.layer_totals().items()}
    layers.update({k: rep_tracer.health.get(k, 0.0) for k in HEALTH})
    unattributed = (watch.wall - setup_tracer.top_level_seconds()
                    + (sum(traced) - rep_tracer.top_level_seconds()) / n)
    layers.update({
        "trace.setup_s": watch.wall,
        "trace.wall_s": statistics.median(traced),
        "trace.unattributed_s": unattributed,
        "trace_overhead_frac": statistics.median(t / p for t, p in zip(traced, plain)) - 1,
        "checks.failed_frac": checks.count(False) / len(checks),
    })
    spans = {"setup": setup_tracer.spans, "reps": rep_tracer.spans}
    return layers, checks, spans, plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    defaulted = [k for k in SINGLE_THREAD_VARS if k not in os.environ]
    for key in defaulted:
        os.environ[key] = "1"  # before numpy is imported
    import_library()
    from workloads import WORKLOADS

    meta = run_metadata(args)
    meta["thread_env_set_by_benchmark"] = defaulted
    make = WORKLOADS[args.workload]
    workload, setup_times = measure_setup(make, args.seed)
    meta["setup_s_all"] = setup_times
    if args.trace:
        layers, checks, spans, plain = traced_pass(make, workload, args.seed,
                                                   args.seconds)
        meta["wall_s_all"] = plain
        meta["computed_metrics"] = COUNTER_NAMES + list(HEALTH)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        walls, cpus, checks = run_reps(workload, args.seconds, make, args.seed,
                                       setup_times)
        meta.update({"wall_s_all": walls, "cpu_s_all": cpus})
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }
    failed = checks.count(False)
    meta["failed_frac"] = failed / len(checks)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result},
                                                     indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if metric.endswith(suffix)), "1")


if __name__ == "__main__":
    sys.exit(main())
