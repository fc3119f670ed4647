"""Cross-validation suites: stabilizer engine vs dense statevector, closed
formulas vs enumeration / Monte Carlo, and the reference braiding signs.

Each suite returns SuiteCheck rows so the command-line front-end and the
acceptance tests share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics, statevector as sv, tableau as tb
from .diffusion import build_echo_schedule
from .errors import UsageError
from .lattice import Lattice, shortest_string, torus, planar
from .pauli import PauliString, from_string_path, multiply
from .protocols import BraidProgram, StringStep, braiding_programs, run_interferometry
from .weyl import WeylString, weyl_braiding_phase


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str = ""


# -- random Clifford equivalence ---------------------------------------------

GATES_1Q = ("H", "S", "X", "Y", "Z")
GATES_2Q = ("CX", "CZ")


def random_clifford_circuit(n: int, n_gates: int, rng) -> list[tuple[str, tuple[int, ...]]]:
    ops = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((GATES_2Q[int(rng.integers(2))], (int(a), int(b))))
        else:
            ops.append((GATES_1Q[int(rng.integers(5))], (int(rng.integers(n)),)))
    return ops


def run_circuit(n: int, ops) -> tuple[tb.Tableau, sv.StateVector]:
    """Run one op list on both engines, each starting from |0...0>."""
    t = tb.Tableau(n)
    s = sv.StateVector.computational(n)
    for gate, qs in ops:
        tb.apply_gate(t, gate, qs)
        sv.apply_gate(s, gate, qs)
    return t, s


def random_hermitian_pauli(n: int, rng) -> PauliString:
    support = {}
    for q in range(n):
        x, z = int(rng.integers(2)), int(rng.integers(2))
        if x or z:
            support[q] = (x, z)
    p = PauliString(2 * int(rng.integers(2)), support)
    if not p.is_hermitian():
        p = PauliString(p.phase + 1, p.support)
    return p


def clifford_equivalence_suite(n_circuits: int = 200, max_qubits: int = 12,
                               seed: int = 0, paulis_per_circuit: int = 4,
                               sampled_circuits: int = 25, n_samples: int = 400
                               ) -> list[SuiteCheck]:
    """Random circuits: exact expectation agreement and 3-sigma sampling."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact_ok = True
    z_worst = 0.0
    sampling_ok = True
    for k in range(n_circuits):
        n = int(rng.integers(2, max_qubits + 1))
        ops = random_clifford_circuit(n, int(rng.integers(10, 40)), rng)
        t, s = run_circuit(n, ops)
        for _ in range(paulis_per_circuit):
            p = random_hermitian_pauli(n, rng)
            e_tab = tb.expectation_pauli(t, p)
            e_vec = float(np.real(np.vdot(s.amps, sv._pauli_action(s, p))))
            worst = max(worst, abs(e_tab - e_vec))
            if abs(e_tab - e_vec) > 1e-9:
                exact_ok = False
        if k < sampled_circuits:
            p = random_hermitian_pauli(n, rng)
            e_vec = float(np.real(np.vdot(s.amps, sv._pauli_action(s, p))))
            prob_plus = (1.0 + e_vec) / 2.0
            hits = sum(tb.measure_pauli(t.clone(), p, rng)[0] == 1
                       for _ in range(n_samples))
            sigma = math.sqrt(max(prob_plus * (1 - prob_plus), 1e-12) / n_samples)
            z = abs(hits / n_samples - prob_plus) / sigma
            z_worst = max(z_worst, z)
            if z > 3.0:
                sampling_ok = False
    return [
        SuiteCheck("clifford_expectations_exact", exact_ok,
                   f"{n_circuits} circuits <= {max_qubits} qubits, "
                   f"max deviation {worst:.2e}"),
        SuiteCheck("clifford_sampling_3sigma", sampling_ok,
                   f"{sampled_circuits} circuits x {n_samples} shots, "
                   f"worst z = {z_worst:.2f}"),
    ]


# -- formulas vs enumeration ---------------------------------------------------

def quenched_formula_suite(sizes=(2, 3, 4)) -> list[SuiteCheck]:
    ok = True
    for n in sizes:
        for m in range(n * n + 1):
            region = frozenset(range(m))
            if not math.isclose(analytics.quenched_enumeration_oracle(n, region),
                                analytics.quenched_phase_prob(n, m),
                                rel_tol=0, abs_tol=1e-12):
                ok = False
    return [SuiteCheck("quenched_enumeration_matches_formula", ok,
                       f"all m, N in {tuple(sizes)}")]


def braiding_sign_suite() -> list[SuiteCheck]:
    ok = True
    detail = []
    for lattice in (torus(4), planar(3)):
        ground = tb.prepare_ground_state(lattice, 0)
        tangled, untangled = braiding_programs(lattice)
        a_t = run_interferometry(tangled, ground).alpha
        a_u = run_interferometry(untangled, ground).alpha
        detail.append(f"{lattice.spec.topology}: {a_t:.0f}/{a_u:.0f}")
        ok = ok and a_t == -1 and a_u == 1
    return [SuiteCheck("braiding_statistics_signs", ok, "; ".join(detail))]


def weyl_braiding_suite(d_range=range(2, 8)) -> list[SuiteCheck]:
    ok = True
    for d in d_range:
        for a in range(d):
            for b in range(d):
                zs = WeylString.z_power(d, [0, 1], a)
                xs = WeylString.x_power(d, [1, 2], b)
                if weyl_braiding_phase(zs, xs) != (a * b) % d:
                    ok = False
    return [SuiteCheck("weyl_braiding_phase_table", ok,
                       f"d in {list(d_range)}")]


def budget_minimization_suite(n_draws: int = 50, seed: int = 0,
                              rel_tol: float = 1e-9) -> list[SuiteCheck]:
    """Numeric minimization of the loss over the detuning confirms the
    closed-form optimum.

    Golden-section search alone resolves the minimizer only to about
    sqrt(eps) relative (quadratic flatness), so it is refined by bisecting
    the first-order optimality condition of the loss expression.
    """
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(n_draws):
        params = analytics.CavityParams(
            g=float(rng.uniform(1.0, 5.0)),
            kappa=float(rng.uniform(1e-4, 1e-2)),
            gamma=float(rng.uniform(1e-4, 1e-2)))
        n_spins = int(rng.integers(1, 64))
        d_star = analytics.optimal_detuning(params, n_spins)
        bracket = _golden_min(
            lambda d: analytics.photon_loss_at(params, n_spins, d),
            d_star / 10.0, d_star * 10.0)
        slope = lambda d: (params.kappa * math.pi / params.g ** 2
                           - n_spins * params.gamma * math.pi / d ** 2)
        d_num = _bisect_root(slope, bracket / 4.0, bracket * 4.0)
        loss_closed = analytics.min_photon_loss(n_spins, params.purcell)
        loss_num = analytics.photon_loss_at(params, n_spins, d_num)
        dev = max(abs(d_num - d_star) / d_star,
                  abs(loss_num - loss_closed) / loss_closed)
        worst = max(worst, dev)
        if dev > rel_tol:
            ok = False
    return [SuiteCheck("photon_loss_minimization", ok,
                       f"{n_draws} draws, worst relative dev {worst:.2e}")]


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bisect_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo = f(lo)
    if flo > 0 or f(hi) < 0:
        raise UsageError("root not bracketed")
    while (hi - lo) > tol * (abs(lo) + abs(hi)):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_all(seed: int = 0, n_circuits: int = 200) -> list[SuiteCheck]:
    checks = []
    checks += clifford_equivalence_suite(n_circuits=n_circuits, seed=seed)
    checks += quenched_formula_suite()
    checks += braiding_sign_suite()
    checks += weyl_braiding_suite()
    checks += budget_minimization_suite(seed=seed)
    return checks


# -- Monte Carlo studies -------------------------------------------------------

@dataclass(frozen=True)
class QuenchedMC:
    mean: float           # E[alpha / alpha_clean]
    stderr: float
    predicted: float      # 1 - p (q_m + q_m')
    m: int
    m_prime: int
    n_trials: int


def _block_loop_program(lattice: Lattice) -> tuple[BraidProgram, int, int]:
    """Braid whose z-loop encloses a 2x2 face block and whose x-loop encloses
    a 2-vertex block (torus only); loops split into fixed halves."""
    if not lattice.is_torus or lattice.size < 4:
        raise UsageError("block-loop program needs a torus of size >= 4")
    zedges: frozenset[int] = frozenset()
    faces = [lattice.size * r + c for r in (1, 2) for c in (1, 2)]
    for f in faces:
        zedges ^= frozenset(lattice.boundary(f))
    verts = [lattice.size * 1 + 2, lattice.size * 2 + 2]
    xedges: frozenset[int] = frozenset()
    for v in verts:
        xedges ^= frozenset(lattice.star(v))
    zs = sorted(zedges)
    xs = sorted(xedges)
    half_z = len(zs) // 2
    half_x = len(xs) // 2

    def pathify(kind, edges):
        from .lattice import StringPath
        return StringPath(kind, tuple(edges), (None, None), False)

    steps = (StringStep(pathify("z", zs[:half_z])),
             StringStep(pathify("x", xs[:half_x])),
             StringStep(pathify("z", zs[half_z:])),
             StringStep(pathify("x", xs[half_x:])))
    return BraidProgram(lattice, steps), len(faces), len(verts)


def quenched_contrast_mc(lattice: Lattice, p: float, n_trials: int, seed: int
                         ) -> QuenchedMC:
    """Interferometry with planted anyon pairs.

    With probability p one pair is planted, x-type or z-type with equal
    odds, placed uniformly among the cell pairs; the braid's coherence picks
    up -1 whenever a loop encloses exactly one planted anyon, so the mean
    contrast is 1 - p (q_m + q_m').
    """
    rng = np.random.default_rng(seed)
    program, m, m_prime = _block_loop_program(lattice)
    ground = tb.prepare_ground_state(lattice, 0)
    clean = run_interferometry(program, ground).alpha
    samples = np.empty(n_trials)
    for k in range(n_trials):
        state = ground.clone()
        if rng.random() < p:
            if rng.random() < 0.5:
                f1, f2 = rng.choice(lattice.n_faces, size=2, replace=False)
                path = shortest_string(lattice, "x", int(f1), int(f2))
            else:
                v1, v2 = rng.choice(lattice.n_vertices, size=2, replace=False)
                path = shortest_string(lattice, "z", int(v1), int(v2))
            tb.apply_pauli_string(state, from_string_path(path))
        alpha = run_interferometry(program, state).alpha
        samples[k] = (alpha / clean).real
    q = analytics.quenched_phase_prob
    predicted = 1.0 - p * (q(lattice.size, m) + q(lattice.size, m_prime))
    return QuenchedMC(float(samples.mean()),
                      float(samples.std(ddof=1) / math.sqrt(n_trials)),
                      predicted, m, m_prime, n_trials)


@dataclass(frozen=True)
class PerimeterMC:
    perimeters: np.ndarray
    mean_contrast: np.ndarray
    stderr: np.ndarray
    slope: float          # fitted d ln(contrast) / d perimeter
    predicted_slope: float  # ln(1 - eps)


def perimeter_law_mc(lattice: Lattice, eps: float, n_trials: int, seed: int,
                     sides=(1, 2, 3)) -> PerimeterMC:
    """Depolarizing errors on string edges versus the length law.

    Each braid uses a z-loop around an s x s face block plus an x-loop
    around one vertex; every string edge independently suffers a uniform
    Pauli error with probability eps inside the conditional branch, so any
    error excites anyons and kills that trial's coherence.  The mean
    contrast then decays as (1 - eps)^perimeter.
    """
    if not lattice.is_torus:
        raise UsageError("perimeter study uses a torus")
    rng = np.random.default_rng(seed)
    ground = tb.prepare_ground_state(lattice, 0)
    perims = []
    means = []
    errs = []
    for s in sides:
        zedges: frozenset[int] = frozenset()
        for r in range(1, 1 + s):
            for c in range(1, 1 + s):
                zedges ^= frozenset(lattice.boundary(lattice.size * r + c))
        xedges = frozenset(lattice.star(0))
        zs, xs = sorted(zedges), sorted(xedges)
        strings = [PauliString.z_on(zs[:len(zs) // 2]),
                   PauliString.x_on(xs[:len(xs) // 2]),
                   PauliString.z_on(zs[len(zs) // 2:]),
                   PauliString.x_on(xs[len(xs) // 2:])]
        perimeter = len(zs) + len(xs)
        vals = np.empty(n_trials)
        for k in range(n_trials):
            op1 = PauliString.identity()
            for string in strings:
                op1 = multiply(string, op1)
                for edge in sorted(string.support):
                    if rng.random() < eps:
                        letter = "XYZ"[int(rng.integers(3))]
                        op1 = multiply(PauliString.from_ops({edge: letter}), op1)
            vals[k] = tb.expectation_phase(ground, op1).real
        clean = tb.expectation_phase(
            ground, _product(strings)).real
        perims.append(perimeter)
        means.append(float(np.mean(vals)) * clean)  # normalize sign
        errs.append(float(np.std(vals, ddof=1) / math.sqrt(n_trials)))
    perims = np.array(perims, dtype=float)
    means = np.array(means)
    slope = float(np.polyfit(perims, np.log(np.maximum(means, 1e-12)), 1)[0])
    return PerimeterMC(perims, means, np.array(errs), slope, math.log1p(-eps))


def _product(strings) -> PauliString:
    out = PauliString.identity()
    for s in strings:
        out = multiply(s, out)
    return out


# -- echo filter oracle --------------------------------------------------------

def echo_filter_variance(tau: float, n_pairs: int, xi_h: float, tau_c: float,
                         n_grid: int = 1200) -> float:
    """Exact second-order filter integral for the equally spaced echo train:
    Var = int int s(t) s(t') f(t - t') dt dt' with 2n sign flips in [0, tau].

    This is the independent oracle for the echo-suppressed decay: the
    per-particle log-contrast is -(z/2) Var to leading order.
    """
    grid = (np.arange(n_grid) + 0.5) * (tau / n_grid)
    sched = build_echo_schedule("z_pairs", tau, n_pairs)
    signs = np.ones(n_grid)
    for pulse in sched.pulses:
        signs[grid > pulse.time] *= -1.0
    diff = grid[:, None] - grid[None, :]
    cov = xi_h ** 2 * np.exp(-(diff / tau_c) ** 2)
    w = signs * (tau / n_grid)
    return float(w @ cov @ w)
