"""Cross-validation suites: stabilizer engine vs dense statevector, closed
formulas vs enumeration / Monte Carlo, the reference braiding signs, and
the slow exact references of fast paths (ground state, dense import,
syndrome, sampler, probe circuits), and the explicit matrices of Weyl and
Pauli strings.

Each suite returns SuiteCheck rows so the command-line front-end and the
acceptance tests share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

from . import analytics, statevector as sv, tableau as tb
from .diffusion import NoiseModel, _circulant_sqrt_spectrum, build_echo_schedule
from .errors import ConfigurationError, ContractError, UsageError
from .lattice import (ECHO_KINDS, Lattice, StringPath, deform_string, index_maps,
                      planar, shortest_string, string_to_boundary, torus)
from .pauli import PauliString, from_string_path, multiply
from .protocols import (BraidProgram, Coherence, DelayStep, EchoStep, StringStep,
                        _dense_memory, _echo, _teleport_axis, braiding_programs,
                        run_interferometry)
from .weyl import WeylString, weyl_braiding_phase


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str = ""


# the fixed sizes and tolerances of the suites
CLIFFORD_MAX_QUBITS = 12
CLIFFORD_PAULIS = 4    # exact expectation checks per circuit
CLIFFORD_SAMPLED = 25  # the first circuits, each also sampled
CLIFFORD_SHOTS = 400   # measurements per sampled circuit
QUENCHED_SIZES = (2, 3, 4)  # torus sizes N enumerated
WEYL_DIMENSIONS = range(2, 8)
BUDGET_REL_TOL = 1e-9  # on both the optimal detuning and the minimal loss
PERIMETER_SIDES = (1, 2, 3)  # face-block sides of the z-loops


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


def clifford_equivalence_suite(n_circuits: int = 200, seed: int = 0) -> list[SuiteCheck]:
    """Random circuits: exact expectation agreement and 3-sigma sampling."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact_ok = True
    z_worst = 0.0
    sampling_ok = True
    for k in range(n_circuits):
        n = int(rng.integers(2, CLIFFORD_MAX_QUBITS + 1))
        ops = random_clifford_circuit(n, int(rng.integers(10, 40)), rng)
        t, s = run_circuit(n, ops)
        for _ in range(CLIFFORD_PAULIS):
            p = random_hermitian_pauli(n, rng)
            e_tab = tb.expectation_pauli(t, p)
            e_vec = float(np.real(np.vdot(s.amps, sv._pauli_action(s, p))))
            worst = max(worst, abs(e_tab - e_vec))
            if abs(e_tab - e_vec) > 1e-9:
                exact_ok = False
        if k < CLIFFORD_SAMPLED:
            p = random_hermitian_pauli(n, rng)
            e_vec = float(np.real(np.vdot(s.amps, sv._pauli_action(s, p))))
            prob_plus = (1.0 + e_vec) / 2.0
            hits = sum(tb.measure_pauli(t.clone(), p, rng)[0] == 1
                       for _ in range(CLIFFORD_SHOTS))
            sigma = math.sqrt(max(prob_plus * (1 - prob_plus), 1e-12) / CLIFFORD_SHOTS)
            z = abs(hits / CLIFFORD_SHOTS - prob_plus) / sigma
            z_worst = max(z_worst, z)
            if z > 3.0:
                sampling_ok = False
    return [
        SuiteCheck("clifford_expectations_exact", exact_ok,
                   f"{n_circuits} circuits <= {CLIFFORD_MAX_QUBITS} qubits, "
                   f"max deviation {worst:.2e}"),
        SuiteCheck("clifford_sampling_3sigma", sampling_ok,
                   f"{CLIFFORD_SAMPLED} circuits x {CLIFFORD_SHOTS} shots, "
                   f"worst z = {z_worst:.2f}"),
    ]


# -- random braid programs ----------------------------------------------------

def random_braid_program(lattice: Lattice, rng) -> BraidProgram:
    """Random string / echo / delay program with random H_surf couplings.

    Each step is, with odds 40/15/15/30: a string between two random cells
    (deformed by a random stabilizer 30 % of the time); a string out to the
    boundary (planar lattices; a delay on a torus); an echo pulse of any
    kind the lattice allows (z and x on a torus, all six on a planar code);
    or a delay drawn from [0, 2).  The number of steps is drawn from 4..9.
    """
    n_steps = int(rng.integers(4, 10))
    echo_kinds = ("z", "x") if lattice.is_torus else ECHO_KINDS
    steps = []
    for _ in range(n_steps):
        roll = rng.random()
        kind = "z" if rng.random() < 0.5 else "x"
        n_nodes = lattice.n_vertices if kind == "z" else lattice.n_faces
        if roll < 0.4:
            a, b = [int(v) for v in rng.integers(n_nodes, size=2)]
            path = shortest_string(lattice, kind, a, b)
            if rng.random() < 0.3:
                # z-strings deform by face boundaries, x-strings by stars
                if kind == "z":
                    support = lattice.boundary(int(rng.integers(lattice.n_faces)))
                else:
                    support = lattice.star(int(rng.integers(lattice.n_vertices)))
                path = deform_string(path, support)
            steps.append(StringStep(path))
        elif roll < 0.55 and not lattice.is_torus:
            steps.append(StringStep(
                string_to_boundary(lattice, kind, int(rng.integers(n_nodes)))))
        elif 0.55 <= roll < 0.7:
            steps.append(EchoStep(echo_kinds[int(rng.integers(len(echo_kinds)))]))
        else:
            steps.append(DelayStep(float(rng.uniform(0.0, 2.0))))
    ledger = tb.EnergyLedger(float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(0.5, 2.0)))
    return BraidProgram(lattice, tuple(steps), ledger)


# -- syndrome reference -------------------------------------------------------

def syndrome_by_expectation(t: tb.Tableau, lattice: Lattice) -> frozenset:
    """Reference for tableau.syndrome: one full-tableau expectation per
    stabilizer."""
    anyons = set()
    for kind, supports, stabilizer in (("vertex", lattice.stars, PauliString.x_on),
                                       ("face", lattice.boundaries, PauliString.z_on)):
        for i, support in enumerate(supports):
            e = tb.expectation_pauli(t, stabilizer(support))
            if e == 0:
                raise ContractError(f"{kind} stabilizer {i} has no definite value")
            if e == -1:
                anyons.add((kind, i))
    return frozenset(anyons)


# -- ground-state references ---------------------------------------------------

def ground_state_by_projection(lattice: Lattice, logical_sector=0,
                               n_ancillas: int = 0) -> tb.Tableau:
    """Reference for tableau.prepare_ground_state: each star projected onto
    +1 in turn, one measurement update each."""
    flips = tb._sector_flips(lattice, logical_sector)
    t = tb.Tableau(lattice.n_edges + n_ancillas)
    for star in tb._projected_stars(lattice):
        tb._project(t, PauliString.x_on(star), want=1)
    for flip in flips:
        tb.apply_pauli_string(t, flip)
    return t


def from_tableau_by_projection(t: tb.Tableau) -> sv.StateVector:
    """Reference for statevector.from_tableau: |b> projected by every
    generator in turn, (I + g)/2 on the full state, then normalised.  b is
    measured on a clone, Z_q from the highest qubit down, each undetermined
    one projected onto +1; bit q of b is 1 where Z_q reads -1."""
    probe, b = t.clone(), 0
    for q in range(t.n - 1, -1, -1):
        z_q = PauliString.z_on((q,))
        value = tb.expectation_pauli(probe, z_q) or tb._project(probe, z_q, want=1)
        b |= (value < 0) << q
    s = sv.StateVector.computational(t.n, b)
    for g in t.stabilizer_generators():
        s.amps += sv._pauli_action(s, g)
        s.amps *= 0.5
    s.amps /= np.linalg.norm(s.amps)
    return s


# -- explicit operator matrices ------------------------------------------------

def dense_operator(p: WeylString, n_sites: int | None = None) -> np.ndarray:
    """Explicit matrix of a Weyl string, a Pauli string at d = 2 (Z_d
    clock/shift matrices, for any d).

    Site 0 is the least significant digit of the basis index.
    """
    d = p.d
    sites = (max(p.support) + 1) if p.support else 1
    if n_sites is not None:
        sites = max(sites, n_sites)
    if d ** sites > 4096:
        raise ConfigurationError("dense operator capped at 4096 dimensions")
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    mat = np.array([[np.exp(1j * np.pi * p.phase / d)]], dtype=complex)
    for q in range(sites - 1, -1, -1):
        a, b = p.support.get(q, (0, 0))
        site_op = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        mat = np.kron(mat, site_op)
    return mat


# -- formulas vs enumeration ---------------------------------------------------

def quenched_formula_suite() -> list[SuiteCheck]:
    ok = True
    for n in QUENCHED_SIZES:
        for m in range(n * n + 1):
            region = frozenset(range(m))
            if not math.isclose(analytics.quenched_enumeration_oracle(n, region),
                                analytics.quenched_phase_prob(n, m),
                                rel_tol=0, abs_tol=1e-12):
                ok = False
    return [SuiteCheck("quenched_enumeration_matches_formula", ok,
                       f"all m, N in {QUENCHED_SIZES}")]


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


def weyl_braiding_suite() -> list[SuiteCheck]:
    ok = True
    for d in WEYL_DIMENSIONS:
        for a in range(d):
            for b in range(d):
                zs = WeylString.z_power(d, [0, 1], a)
                xs = WeylString.x_power(d, [1, 2], b)
                if weyl_braiding_phase(zs, xs) != (a * b) % d:
                    ok = False
    return [SuiteCheck("weyl_braiding_phase_table", ok,
                       f"d in {list(WEYL_DIMENSIONS)}")]


def budget_minimization_suite(n_draws: int = 50, seed: int = 0) -> list[SuiteCheck]:
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
        if dev > BUDGET_REL_TOL:
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


def _loop_halves(lattice: Lattice, faces, vertices) -> tuple[StringPath, ...]:
    """The z-loop around ``faces`` and the x-loop around ``vertices``, each
    split into the halves of its sorted edges, in braid order: z, x, z, x."""
    zs = sorted(reduce(xor, (frozenset(lattice.boundary(f)) for f in faces)))
    xs = sorted(reduce(xor, (frozenset(lattice.star(v)) for v in vertices)))
    hz, hx = len(zs) // 2, len(xs) // 2
    return (StringPath("z", tuple(zs[:hz])), StringPath("x", tuple(xs[:hx])),
            StringPath("z", tuple(zs[hz:])), StringPath("x", tuple(xs[hx:])))


def _block_loop_program(lattice: Lattice) -> tuple[BraidProgram, int, int]:
    """Braid whose z-loop encloses a 2x2 face block and whose x-loop encloses
    a 2-vertex block (torus only); loops split into fixed halves."""
    if not lattice.is_torus or lattice.size < 4:
        raise UsageError("block-loop program needs a torus of size >= 4")
    _, _, vertex, face = index_maps(lattice.spec)
    faces = [face(r, c) for r in (1, 2) for c in (1, 2)]
    verts = [vertex(1, 2), vertex(2, 2)]
    steps = tuple(StringStep(path) for path in _loop_halves(lattice, faces, verts))
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


def perimeter_law_mc(lattice: Lattice, eps: float, n_trials: int, seed: int
                     ) -> PerimeterMC:
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
    _, _, _, face = index_maps(lattice.spec)
    perims = []
    means = []
    errs = []
    for s in PERIMETER_SIDES:
        block = [face(r, c) for r in range(1, 1 + s) for c in range(1, 1 + s)]
        paths = _loop_halves(lattice, block, [0])
        strings = [from_string_path(path) for path in paths]
        perimeter = sum(len(path) for path in paths)
        ops = []
        for _ in range(n_trials):
            op1 = PauliString.identity()
            for string in strings:
                op1 = multiply(string, op1)
                for edge in sorted(string.support):
                    if rng.random() < eps:
                        letter = "XYZ"[int(rng.integers(3))]
                        op1 = multiply(PauliString.from_ops({edge: letter}), op1)
            ops.append(op1)
        clean_op = PauliString.identity()
        for string in strings:
            clean_op = multiply(string, clean_op)
        values = tb.expectations(ground, [*ops, clean_op]).real
        vals, clean = values[:-1], values[-1]
        perims.append(perimeter)
        means.append(float(np.mean(vals)) * clean)  # normalize sign
        errs.append(float(np.std(vals, ddof=1) / math.sqrt(n_trials)))
    perims = np.array(perims, dtype=float)
    means = np.array(means)
    slope = float(np.polyfit(perims, np.log(np.maximum(means, 1e-12)), 1)[0])
    return PerimeterMC(perims, means, np.array(errs), slope, math.log1p(-eps))


# -- echo filter oracle --------------------------------------------------------

ECHO_FILTER_GRID = 1200  # midpoint-rule points on [0, tau]


def echo_filter_variance(tau: float, n_pairs: int, xi_h: float, tau_c: float) -> float:
    """Exact second-order filter integral for the equally spaced echo train:
    Var = int int s(t) s(t') f(t - t') dt dt' with 2n sign flips in [0, tau].

    This is the independent oracle for the echo-suppressed decay: the
    per-particle log-contrast is -(z/2) Var to leading order.
    """
    grid = (np.arange(ECHO_FILTER_GRID) + 0.5) * (tau / ECHO_FILTER_GRID)
    sched = build_echo_schedule("z_pairs", tau, n_pairs)
    signs = np.ones(ECHO_FILTER_GRID)
    for pulse in sched.pulses:
        signs[grid > pulse.time] *= -1.0
    diff = grid[:, None] - grid[None, :]
    cov = xi_h ** 2 * np.exp(-(diff / tau_c) ** 2)
    w = signs * (tau / ECHO_FILTER_GRID)
    return float(w @ cov @ w)


# -- slow references of fast paths ---------------------------------------------

def circulant_noise_reference(model: NoiseModel, lattice: Lattice, seed) -> np.ndarray:
    """The circulant-embedding noise of ``diffusion.sample_noise`` from one
    length-L complex FFT per edge: the first n_steps samples of
    Re FFT(sqrt_lam * (a + i b)) / sqrt(L), with a and b the edge's two
    length-L draws from ``default_rng([*seed, e])``.  Shape (n_edges, n_steps).
    """
    n_steps = model.n_steps
    sqrt_lam = _circulant_sqrt_spectrum(model, n_steps)
    length = sqrt_lam.size
    seed_list = [int(s) for s in np.atleast_1d(np.asarray(seed, dtype=np.int64))]
    values = np.empty((lattice.n_edges, n_steps))
    for e in range(lattice.n_edges):
        rng = np.random.default_rng(seed_list + [e])
        zeta = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        values[e] = (np.fft.fft(sqrt_lam * zeta).real * math.sqrt(1.0 / length))[:n_steps]
    return values


def _plus_probe(memory: sv.StateVector) -> sv.StateVector:
    """The memory with a probe qubit n in |+>: the amplitudes doubled, /sqrt 2."""
    amps = np.concatenate([memory.amps, memory.amps])
    amps /= math.sqrt(2)
    return sv.StateVector(memory.n + 1, amps)


def interferometry_probe_reference(program: BraidProgram, initial: tb.Tableau
                                   ) -> Coherence:
    """``protocols.run_interferometry`` with a |+> probe qubit that controls
    the strings; alpha is twice the overlap of the probe's |0> and |1> blocks."""
    lattice = program.lattice
    u, j = program.ledger.coupling_u, program.ledger.coupling_j
    state = _plus_probe(_dense_memory(program, initial))
    probe = state.n - 1
    for step in program.steps:
        if isinstance(step, StringStep):
            sv.apply_controlled_pauli(state, probe, from_string_path(step.path))
        elif isinstance(step, EchoStep):
            sv.apply_pauli_string(state, _echo(lattice, step.kind)[0])
        else:
            sv.evolve_hsurf(state, lattice, u, j, step.t)
    half = 1 << probe
    return Coherence(2.0 * complex(np.vdot(state.amps[:half], state.amps[half:])))


def teleport_circuit_reference(lattice: Lattice, memory: sv.StateVector, axis,
                               theta: float, outcome: int
                               ) -> tuple[sv.StateVector, float]:
    """The gate-teleportation circuits of ``protocols.teleport_rotation``
    with an explicit probe qubit, for a given outcome (+-1).

    The memory is doubled to n + 1 dense qubits with the probe (qubit n)
    in |+> (for "Z", the |0> probe after its first H gate), the controlled
    string, the probe H gates and the probe rotation exp(i theta X_p) or
    exp(i theta Z_p) applied, the probe measured and the -1 branch
    corrected by the string.  Returns the corrected memory state and the -1
    probability, the squared norm of the probe-|1> half.
    """
    string, circuit = _teleport_axis(lattice, axis)
    probe = memory.n
    state = _plus_probe(memory)
    sv.apply_controlled_pauli(state, probe, string)
    if circuit == "plus":
        sv.apply_pauli_exponential(state, PauliString.from_ops({probe: "X"}), theta)
    else:
        # H_A Lambda_A[Z~] H_A on the |0> probe is a logical-controlled NOT
        sv.apply_gate(state, "H", probe)
        sv.apply_pauli_exponential(state, PauliString.from_ops({probe: "Z"}), theta)
        sv.apply_gate(state, "H", probe)

    half = 1 << probe
    block = state.amps[half:] if outcome == -1 else state.amps[:half]
    nrm = np.linalg.norm(block)
    if nrm < 1e-12:
        raise ContractError("measurement branch has zero probability")
    out = sv.StateVector(memory.n, block / nrm)
    if outcome == -1:
        sv.apply_pauli_string(out, string)
    return out, float(np.linalg.norm(state.amps[half:]) ** 2)
