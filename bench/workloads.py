"""The four benchmark workloads and their output checks.

Each workload builds its inputs from the seed in ``setup`` (the work a CLI
run pays before the timed section), then runs repetitions of the timed
section with ``rep``.  A repetition returns the outcome of every output
check it made; checks run inside ``watch.paused()`` so they stay outside
the timed section.  The check functions are module-level and take their
reference as an argument, so the self-test can feed them a wrong one.

The library is called through module attributes (``tb.syndrome``) so the
tracer's rebinding reaches every call.
"""

from __future__ import annotations

import math

import numpy as np

from anyonsim import diffusion as df
from anyonsim import lattice as lat
from anyonsim import pauli
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb

BRAID_DELAYS = (0.2, 0.5, 0.1)
FIDELITY_FLOOR = 1.0 - 1e-10
ALPHA_TOL = 1e-12
SIGMA_FLOOR = 0.75


def rep_seed(seed: int, k: int) -> int:
    """Seed of repetition k: one fresh stream per (seed, k)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def mc_sigma(est: df.ContrastEstimate, mean) -> np.ndarray:
    """Standard error of ``est``, but never below 3/4 of the largest one a
    sample of values in [0, 1] with this mean can have (variance <=
    mean (1 - mean)).  The per-trial contrast is strongly skewed, so a
    few-trial sample that misses the tail reports a stderr several times
    too small, and with the bare stderr the 4-sigma rule fails 1.5-7 % of
    runs of a correct program (see bench/LAYERS.md)."""
    mean = np.clip(mean, 0.0, 1.0)
    return np.maximum(est.stderr, SIGMA_FLOOR * np.sqrt(mean * (1.0 - mean) / est.n_trials))


def mc_tolerance(*sigmas) -> np.ndarray:
    """max(4 sigma, 0.02): the rule of test_fast_noise_against_master_equation."""
    return np.maximum(4.0 * np.hypot.reduce(np.array(sigmas), axis=0), 0.02)


# -- checks ------------------------------------------------------------------

def check_master_equation(est: df.ContrastEstimate, reference) -> list[bool]:
    """Each delay agrees with the fast-noise master equation."""
    tol = mc_tolerance(mc_sigma(est, reference))
    return [bool(x) for x in np.abs(est.mean - reference) < tol]


def check_echo_order(ests: list[df.ContrastEstimate], order) -> list[bool]:
    """Criterion-7a shape: along ``order`` (fewest pulses first) no curve
    sits below the previous one at any delay, and the first curve is the
    lowest at the longest delay, each within the MC tolerance."""
    by_label = {e.schedule: e for e in ests}
    curves = [by_label[label] for label in order]
    sigma = {c.schedule: mc_sigma(c, c.mean) for c in curves}
    out = []
    for low, high in zip(curves, curves[1:]):
        tol = mc_tolerance(sigma[low.schedule], sigma[high.schedule])
        out.extend(high.mean >= low.mean - tol)
    first = curves[0]
    for other in curves[1:]:
        tol = mc_tolerance(sigma[first.schedule][-1], sigma[other.schedule][-1])
        out.append(first.mean[-1] <= other.mean[-1] + tol)
    return [bool(x) for x in out]


def check_alpha(alpha: complex, reference: complex) -> list[bool]:
    return [abs(alpha - reference) <= ALPHA_TOL]


def check_roundtrip(got: int, want: int) -> list[bool]:
    return [got == want]


def check_teleport(out: sv.StateVector, reference: sv.StateVector) -> list[bool]:
    return [abs(sv.inner_product(out, reference)) >= FIDELITY_FLOOR]


# -- workloads ---------------------------------------------------------------

class McFast:
    """Criterion-6 shape: fast noise, one particle, probability estimator."""

    trials = 8

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.lattice = lat.build_lattice(lat.LatticeSpec("torus", 4))
        self.model = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=1.0)
        gamma = self.model.diffusion_rate()
        self.taus = np.linspace(0.0, 1.0, 9)[1:] / gamma
        self.dt = self.model.tau_c / 4

    def reference(self):
        return df.master_equation_survival(4, self.model.diffusion_rate(), self.taus)

    def rep(self, k: int, watch) -> list[bool]:
        est, = df.contrast_curve(self.lattice, self.model, [("none", 0)], self.taus,
                                 self.trials, 1, rep_seed(self.seed, k),
                                 estimator="probability", dt=self.dt)
        with watch.paused():
            return check_master_equation(est, self.reference())


class McEcho:
    """Fig-5 shape: slow noise, two particles, the z_pairs echo family."""

    trials = 14
    family = [("none", 0), ("z_pairs", 1), ("z_pairs", 4), ("z_pairs", 10)]
    order = ["none", "z_pairs(1)", "z_pairs(4)", "z_pairs(10)"]

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.lattice = lat.build_lattice(lat.LatticeSpec("torus", 4))
        self.taus = [1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 12.0]
        self.model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05,
                                   duration=max(self.taus))

    def rep(self, k: int, watch) -> list[bool]:
        ests = df.contrast_curve(self.lattice, self.model, self.family, self.taus,
                                 self.trials, 2, rep_seed(self.seed, k))
        with watch.paused():
            return check_echo_order(ests, self.order)


def _braid_ground(lattice, seed: int):
    """Logical-sector-0 ground state, as the braid CLI prepares it.  The seed
    drives the vertex-measurement outcomes, hence which strings pair them
    up.  (In other sectors the dense oracle's basis-state scan is long.)"""
    return tb.prepare_ground_state(lattice, 0, rng=np.random.default_rng(seed))


class BraidTorus32:
    """Tangled braid with three delays on the 32 x 32 torus (2048 qubits)."""

    size = 32

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.lattice = lat.build_lattice(lat.LatticeSpec("torus", self.size))
        self.program, _ = pr.braiding_programs(self.lattice, BRAID_DELAYS)
        self.ground = _braid_ground(self.lattice, seed)
        self.alpha_ref = None  # computed on first use, outside the timed section

    def reference(self, tangled: bool = True) -> complex:
        """Dense-oracle alpha of the same braid on torus:3."""
        small = lat.build_lattice(lat.LatticeSpec("torus", 3))
        programs = pr.braiding_programs(small, BRAID_DELAYS)
        program = programs[0] if tangled else programs[1]
        return pr.run_interferometry_dense(program, _braid_ground(small, self.seed)).alpha

    def rep(self, k: int, watch) -> list[bool]:
        alpha = pr.run_interferometry(self.program, self.ground).alpha
        with watch.paused():
            if self.alpha_ref is None:
                self.alpha_ref = self.reference()
            return check_alpha(alpha, self.alpha_ref)


class MemoryTorus3:
    """The ``memory`` subcommand body on torus:3: SWAP round trips through
    the tableau and teleported rotations on the 19-qubit dense engine."""

    pairs = 50

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.lattice = lat.build_lattice(lat.LatticeSpec("torus", 3))
        lz, lx = [pauli.from_string_path(p) for p in lat.logical_operators(self.lattice)[0]]
        self.logicals = {"X": lx, "Z": lz}
        ground = sv.from_tableau(tb.prepare_ground_state(self.lattice, 0))
        self.memory = ground.clone()
        sv.apply_pauli_exponential(self.memory, lx, 0.3)

    def reference(self, axis: str, theta: float) -> sv.StateVector:
        ref = self.memory.clone()
        sv.apply_pauli_exponential(ref, self.logicals[axis], theta)
        return ref

    def rep(self, k: int, watch) -> list[bool]:
        rng = np.random.default_rng(rep_seed(self.seed, k))
        states = list(pr.PROBE_STATES)
        probe = self.lattice.n_edges
        results = []
        for i in range(self.pairs):
            want = states[int(rng.integers(len(states)))]
            t = tb.prepare_ground_state(self.lattice, 0, n_ancillas=1)
            pr.swap_in(self.lattice, t, probe_state=want)
            pr.swap_out(self.lattice, t)
            got = pr.probe_bloch(t, probe)[want[0]]
            theta = float(rng.uniform(-math.pi, math.pi))
            axis = "X" if i % 2 == 0 else "Z"
            out, _ = pr.teleport_rotation(self.lattice, self.memory.clone(), axis,
                                          theta, rng=rng)
            with watch.paused():
                results += check_roundtrip(got, want[1])
                results += check_teleport(out, self.reference(axis, theta))
        return results


WORKLOADS = {"mc_fast": McFast, "mc_echo": McEcho,
             "braid_torus32": BraidTorus32, "memory_torus3": MemoryTorus3}
