"""Self-test of the benchmark's output checks and metric names.

    python3 bench/selftest.py

On small instances of each workload, every check must pass against the
repository oracle and fail against a deliberately wrong reference.  A tiny
traced pass must emit exactly the per-layer metrics BENCHMARK.json lists.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

run.import_library()
import workloads as wl  # noqa: E402  (needs the checkout's src/ on sys.path)

SEED = 5


def _setup(cls, **sizes):
    workload = cls()
    for key, value in sizes.items():
        setattr(workload, key, value)
    workload.setup(SEED)
    return workload


def cases():
    """(name, checks against the oracle, checks against a wrong reference)."""
    fast = _setup(wl.McFast, trials=4)
    est, = wl.df.contrast_curve(fast.lattice, fast.model, [("none", 0)], fast.taus,
                                fast.trials, 1, SEED, estimator="probability",
                                dt=fast.dt)
    ref = fast.reference()
    yield "mc_fast master equation", wl.check_master_equation(est, ref), \
        wl.check_master_equation(est, 1.0 - ref)

    echo = _setup(wl.McEcho, trials=6)
    ests = wl.df.contrast_curve(echo.lattice, echo.model, echo.family, echo.taus,
                                echo.trials, 2, SEED)
    yield "mc_echo ordering", wl.check_echo_order(ests, echo.order), \
        wl.check_echo_order(ests, echo.order[::-1])

    braid = _setup(wl.BraidTorus32, size=4)
    alpha = wl.pr.run_interferometry(braid.program, braid.ground).alpha
    yield "braid alpha vs dense oracle", wl.check_alpha(alpha, braid.reference()), \
        wl.check_alpha(alpha, braid.reference(tangled=False))

    memory = _setup(wl.MemoryTorus3)
    t = wl.tb.prepare_ground_state(memory.lattice, 0, n_ancillas=1)
    wl.pr.swap_in(memory.lattice, t, probe_state=("Y", -1))
    wl.pr.swap_out(memory.lattice, t)
    got = wl.pr.probe_bloch(t, memory.lattice.n_edges)["Y"]
    yield "memory round trip", wl.check_roundtrip(got, -1), wl.check_roundtrip(got, 1)
    out, _ = wl.pr.teleport_rotation(memory.lattice, memory.memory.clone(), "Z", 0.7)
    yield "memory teleport fidelity", \
        wl.check_teleport(out, memory.reference("Z", 0.7)), \
        wl.check_teleport(out, memory.reference("Z", 0.7 + 1e-3))


def per_layer_names() -> list[str]:
    class Tiny(wl.McFast):
        trials = 1

    layers, _, _, _ = run.traced_pass(Tiny, _setup(Tiny), SEED, 1e-3)
    return sorted(layers)


def main() -> int:
    ok = True
    for name, right, wrong in cases():
        passed = all(right) and not all(wrong)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: oracle {sum(right)}/{len(right)}"
              f" pass, wrong reference {len(wrong) - sum(wrong)}/{len(wrong)} fail")
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    same = sorted(m["name"] for m in listed) == per_layer_names()
    ok &= same
    print(f"{'PASS' if same else 'FAIL'} per-layer metric names match BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
