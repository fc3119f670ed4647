"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.

Criteria 6 and the echo-scaling clause of criterion 7 are implemented
faithfully at their stated tolerances and are expected to fail: the
published closed forms they encode disagree with the exact dynamics (by a
factor 2 in the fast-noise rate plus neglected return contributions, and by
an n^2-vs-n^3 echo scaling).  They are marked xfail(strict=True) so the
defect stays visible without masking regressions, and the same Monte Carlo
is validated against independent exact oracles in test_diffusion.py, which
hold the derivations: test_fast_noise_against_master_equation (criterion 6)
and test_echo_filter_oracle_matches_mc (criterion 7c).  The README paragraph
on the expected failures summarizes both.
"""

import math
import time

import numpy as np
import pytest

from anyonsim import analytics as an
from anyonsim import diffusion as df
from anyonsim import lattice as lat
from anyonsim import oracle
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.pauli import from_string_path


def _report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_braiding_statistics():
    start = time.perf_counter()
    signs = {}
    for lattice in (lat.torus(4), lat.planar(3)):
        ground = tb.prepare_ground_state(lattice, 0)
        tangled, untangled = pr.braiding_programs(lattice)
        signs[lattice.spec.topology] = (
            pr.run_interferometry(tangled, ground).alpha,
            pr.run_interferometry(untangled, ground).alpha)

    # 50 random topology-preserving deformations on torus(4)
    torus = lat.torus(4)
    ground = tb.prepare_ground_state(torus, 0)
    tangled, _ = pr.braiding_programs(torus)
    occupied_vertices = {9, 6}   # z-pair sites while the x-loop runs
    occupied_faces = {5, 2}      # x-pair sites while z strings run
    rng = np.random.default_rng(2024)
    deformed_ok = 0
    attempts = 0
    while deformed_ok < 50 and attempts < 500:
        attempts += 1
        steps = list(tangled.steps)
        i = int(rng.integers(len(steps)))
        step = steps[i]
        if not isinstance(step, pr.StringStep):
            continue
        if step.path.kind == "z":
            cell = int(rng.integers(torus.n_faces))
            if cell in occupied_faces:
                continue
            newp = lat.deform_string(step.path, torus.boundary(cell))
        else:
            cell = int(rng.integers(torus.n_vertices))
            if cell in occupied_vertices:
                continue
            newp = lat.deform_string(step.path, torus.star(cell))
        steps[i] = pr.StringStep(newp)
        alpha = pr.run_interferometry(
            pr.BraidProgram(torus, tuple(steps)), ground).alpha
        assert alpha == -1, f"deformation changed alpha to {alpha}"
        deformed_ok += 1
    elapsed = time.perf_counter() - start

    ok = all(s == (-1, 1) for s in signs.values()) and deformed_ok == 50 \
        and elapsed < 1.0
    _report(1, ok, f"tangled/untangled alpha {signs}, 50 deformations "
                   f"invariant, {elapsed:.2f}s")
    assert signs["torus"] == (-1, 1)
    assert signs["planar"] == (-1, 1)
    assert deformed_ok == 50
    assert elapsed < 1.0


def test_criterion_2_dynamical_phase():
    start = time.perf_counter()
    lattice = lat.planar(2)
    ground = tb.prepare_ground_state(lattice, 0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        program = oracle.random_braid_program(lattice, rng)
        a_ledger = pr.run_interferometry(program, ground).alpha
        a_dense = pr.run_interferometry_dense(program, ground).alpha
        a_probe = oracle.interferometry_probe_reference(program, ground).alpha
        worst = max(worst, abs(a_ledger - a_dense), abs(a_ledger - a_probe))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(2, ok, f"100 random delay/echo programs, worst |d alpha| = {worst:.2e} "
                   f"(two-branch and explicit-probe oracles), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_fringe_contract():
    rng = np.random.default_rng(5)
    phis = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    resolution = 2.0 * np.pi / phis.size
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        curve = pr.fringe(pr.Coherence(alpha), phis)
        # the sampled maximum sits within half a grid step of arg(alpha)
        assert curve.values.max() == pytest.approx(
            abs(alpha), abs=abs(alpha) * resolution ** 2 / 8 + 1e-12)
        target = math.atan2(alpha.imag, alpha.real) % (2 * np.pi)
        dev = abs((curve.argmax_phi - target + np.pi) % (2 * np.pi) - np.pi)
        worst = max(worst, dev)
        assert dev <= resolution + 1e-12
    # perfect contrast with the braiding shift: alpha = -1 -> maximum at pi
    torus = lat.torus(4)
    tangled, _ = pr.braiding_programs(torus)
    coherence = pr.run_interferometry(tangled, tb.prepare_ground_state(torus, 0))
    curve = pr.fringe(coherence, phis)
    assert curve.contrast == pytest.approx(1.0, abs=1e-12)
    assert curve.argmax_phi == pytest.approx(np.pi, abs=resolution + 1e-12)
    _report(3, True, f"max at arg(alpha) within grid step for 50 random "
                     f"coherences (worst {worst:.2e} rad); braid shift = pi "
                     f"with perfect contrast")


def test_criterion_4_memory_roundtrip():
    start = time.perf_counter()
    lattice = lat.planar(2)
    rng = np.random.default_rng(11)
    states = list(pr.PROBE_STATES)
    for _ in range(20):
        state = states[int(rng.integers(len(states)))]
        t = tb.prepare_ground_state(lattice, 0, n_ancillas=1)
        pr.swap_in(lattice, t, probe_state=state)
        pr.swap_out(lattice, t)
        assert pr.probe_bloch(t, lattice.n_edges)[state[0]] == state[1]

    (cz, cx), = lat.logical_operators(lattice)
    lz, lx = from_string_path(cz), from_string_path(cx)
    memory = sv.from_tableau(tb.prepare_ground_state(lattice, 0))
    sv.apply_pauli_exponential(memory, lx, 0.4)
    worst = 1.0
    for k in range(20):
        theta = float(rng.uniform(-np.pi, np.pi))
        axis, string = (("X", lx) if k % 2 == 0 else ("Z", lz))
        for outcome in (1, -1):
            out, _ = pr.teleport_rotation(lattice, memory.clone(), axis, theta,
                                          force_outcome=outcome)
            ref = memory.clone()
            sv.apply_pauli_exponential(ref, string, theta)
            worst = min(worst, abs(sv.inner_product(out, ref)))
    elapsed = time.perf_counter() - start
    ok = worst >= 1 - 1e-10 and elapsed < 10.0
    _report(4, ok, f"20 roundtrips exact; 20 teleported angles, both branches, "
                   f"worst fidelity {worst:.12f}; {elapsed:.1f}s")
    assert worst >= 1 - 1e-10
    assert elapsed < 10.0


def test_criterion_5_geometric_gate():
    spec = pr.GeometricGateSpec(math.sqrt(math.pi / 4), math.sqrt(math.pi / 4))
    report = pr.verify_geometric_gate(spec)
    assert report.controlled_string_pass
    assert report.required_product == pytest.approx(math.pi / 4, abs=1e-12)
    doubled = pr.verify_geometric_gate(
        pr.GeometricGateSpec(math.sqrt(math.pi / 2), math.sqrt(math.pi / 2)))
    assert not doubled.controlled_string_pass

    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 10))
        ds = rng.normal(size=k) + 1j * rng.normal(size=k)
        ds = np.append(ds, -ds.sum())
        phase, endpoint = pr.compose_displacements(ds)
        assert abs(endpoint) < 1e-9
        zs = np.cumsum(np.concatenate([[0], ds]))
        area = 0.5 * np.sum((np.conj(zs[:-1]) * zs[1:]).imag)
        worst = max(worst, abs(phase - np.exp(2j * area)))
        assert abs(phase - np.exp(2j * area)) <= 1e-12

    # the published |alpha|^2 = |beta|^2 = pi/2 working point (open question):
    # its branch ratio is +1, i.e. a trivial controlled gate
    methods_ratio = doubled.branch_phases[(1, 1)] / doubled.branch_phases[(1, -1)]
    assert methods_ratio == pytest.approx(1.0, abs=1e-12)
    _report(5, True, f"Lambda[S] realized at |alpha*beta| = pi/4 "
                     f"(frame rotation {report.probe_frame_rotation:+.6f}); "
                     f"shoelace worst dev {worst:.2e}; published pi/2 choice "
                     f"gives trivial branch ratio {methods_ratio:.6f}")


FAST_NOISE_REASON = (
    "published fast-noise law exp(-2 z Gamma tau) disagrees with the exact "
    "dynamics: second-order perturbation theory and the golden rule give "
    "escape rate z*Gamma (not 2*z*Gamma), and |<phi0|phi_tau>|^2 includes "
    "return contributions that dominate beyond Gamma*tau ~ 0.3; the Monte "
    "Carlo instead matches the classical master-equation return probability "
    "(test_diffusion.py::test_fast_noise_against_master_equation); see the "
    "README paragraph on the expected failures")


@pytest.mark.xfail(strict=True, reason=FAST_NOISE_REASON)
def test_criterion_6_fast_noise_published_law():
    start = time.perf_counter()
    torus = lat.torus(4)
    model = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=1.0)
    gamma = model.diffusion_rate()
    taus = np.linspace(0.0, 1.0, 9)[1:] / gamma
    est, = df.contrast_curve(torus, model, [("none", 0)], taus, n_trials=400,
                             n_particles=1, seed=606, estimator="probability",
                             dt=model.tau_c / 4)
    published = np.exp(-2 * df.COORDINATION * gamma * taus)
    master = df.master_equation_survival(4, gamma, taus)
    dev_published = float(np.max(np.abs(est.mean - published)))
    dev_master = float(np.max(np.abs(est.mean - master)))
    elapsed = time.perf_counter() - start
    _report(6, dev_published <= 0.05,
            f"400 trials over Gamma*tau in [0, 1]: max |MC - exp(-2 z G t)| = "
            f"{dev_published:.3f} (criterion tolerance 0.05); max |MC - "
            f"master equation| = {dev_master:.3f}; {elapsed:.0f}s")
    assert elapsed < 300.0
    assert dev_published <= 0.05, (
        f"max deviation from the published law is {dev_published:.3f}")


FIG5_SET = dict(xi_h=1.0, tau_c=10.0, dt=0.05)


def test_criterion_7_fig5_ordering_and_refocusing():
    start = time.perf_counter()
    torus = lat.torus(4)
    model = df.NoiseModel(duration=13.0, **FIG5_SET)
    taus = [1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 12.0]
    family = [("none", 0), ("z_pairs", 1), ("z_pairs", 4), ("z_pairs", 10)]
    ests = df.contrast_curve(torus, model, family, taus, n_trials=150,
                             n_particles=2, seed=77)
    # pointwise ordering within 2 sigma: more pulses never decay faster
    for low, high in zip(ests, ests[1:]):
        margin = 2.0 * np.hypot(low.stderr, high.stderr)
        assert np.all(high.mean >= low.mean - margin), (low.schedule,
                                                        high.schedule)
    # the no-echo curve decays fastest at the longest delay
    assert ests[0].mean[-1] < min(e.mean[-1] for e in ests[1:])

    # exact static refocusing
    rng = np.random.default_rng(3)
    static = df.NoiseRealization(rng.normal(size=torus.n_edges)[:, None], 1.0)
    worst = 0.0
    for n in (1, 4, 10):
        sched = df.build_echo_schedule("z_pairs", 8.0, n)
        s = df.evolve_anyon(torus, static, sched, 5, "x", dt=0.05)[5]
        worst = max(worst, abs(abs(s) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 600.0
    _report("7a+7b", ok,
            f"curves pointwise ordered (none <= 1 <= 4 <= 10 pairs, 2 sigma); "
            f"static refocusing residual {worst:.1e}; {elapsed:.0f}s")
    assert worst <= 1e-8
    assert elapsed < 600.0


ECHO_SCALING_REASON = (
    "the published echo law exp[-(tau/T2)^4 / n^3] does not hold for the "
    "equally spaced pulse train it describes: the second-order filter "
    "integral gives a 1/n^2 suppression (log-contrast ratio (10/4)^2 = 6.25 "
    "between n = 4 and n = 10), which the Monte Carlo and the exact filter "
    "oracle both confirm (test_diffusion.py::test_echo_filter_oracle_"
    "matches_mc); see the README paragraph on the expected failures")


@pytest.mark.xfail(strict=True, reason=ECHO_SCALING_REASON)
def test_criterion_7_echo_scaling_law():
    torus = lat.torus(4)
    model = df.NoiseModel(duration=8.0, **FIG5_SET)
    # single-point T2 calibration from n = 1, then the matched-tau ratio
    cal, = df.contrast_curve(torus, model, [("z_pairs", 1)], [3.2],
                             n_trials=300, n_particles=2, seed=88)
    t2 = 3.2 / (-math.log(cal.mean[0])) ** 0.25  # exp[-(tau/T2)^4] at n = 1
    tau_star = 2.2 * t2
    ests = df.contrast_curve(torus, model, [("z_pairs", 4), ("z_pairs", 10)],
                             [tau_star], n_trials=400, n_particles=2, seed=89)
    c4, c10 = ests[0].mean[0], ests[1].mean[0]
    ratio = math.log(c4) / math.log(c10)
    predicted = (10 / 4) ** 3
    ok = abs(ratio - predicted) <= 0.25 * predicted
    _report("7c", ok,
            f"T2 calibrated to {t2:.2f} from n=1; at tau = {tau_star:.2f}: "
            f"C4 = {c4:.3f}, C10 = {c10:.3f}, log-contrast ratio = "
            f"{ratio:.2f} vs published (10/4)^3 = {predicted:.2f} "
            f"(the 1/n^2 filter value is (10/4)^2 = 6.25)")
    assert abs(ratio - predicted) <= 0.25 * predicted


def test_criterion_8_quenched_contrast():
    start = time.perf_counter()
    checks = oracle.quenched_formula_suite()
    assert all(c.passed for c in checks)
    torus = lat.torus(4)
    details = []
    for p in (0.1, 0.3):
        result = oracle.quenched_contrast_mc(torus, p, n_trials=3000,
                                             seed=int(1000 * p))
        dev = abs(result.mean - result.predicted)
        details.append(f"p={p}: {result.mean:.4f} vs {result.predicted:.4f} "
                       f"({dev / max(result.stderr, 1e-12):.1f} sigma)")
        assert dev <= 3.0 * result.stderr, details[-1]
    elapsed = time.perf_counter() - start
    _report(8, elapsed < 120.0,
            f"enumeration == q_m for N in (2,3,4); planted-pair MC "
            f"{'; '.join(details)}; {elapsed:.0f}s")
    assert elapsed < 120.0


def test_criterion_9_budgets():
    checks = oracle.budget_minimization_suite(n_draws=50, seed=9)
    assert all(c.passed for c in checks), checks
    budget = an.MemoryBudget(delta_h=0.1, coupling_j=1.0, n_length=5,
                             q=2e-3, purcell=5e5, epsilon=1e-4)
    t_star = an.crossover_time(budget, tol=1e-13)
    residual = abs(an.memory_error(budget, t_star) - budget.q * t_star)
    assert residual <= 1e-12 * max(1.0, budget.q * t_star)
    _report(9, True, f"{checks[0].detail}; crossover fixed-point residual "
                     f"{residual:.1e}")


def test_criterion_10_zd_statistics():
    start = time.perf_counter()
    checks = oracle.weyl_braiding_suite()
    assert all(c.passed for c in checks)
    # clock/shift matrix validation for d <= 5
    from anyonsim.weyl import WeylString, weyl_braiding_phase
    for d in (2, 3, 4, 5):
        omega = np.exp(2j * np.pi / d)
        for a in range(d):
            for b in range(d):
                zs = WeylString.z_power(d, [0, 1], a)
                xs = WeylString.x_power(d, [1, 2], b)
                mat = oracle.dense_operator(zs.inverse(), 3) \
                    @ oracle.dense_operator(xs.inverse(), 3) \
                    @ oracle.dense_operator(zs, 3) @ oracle.dense_operator(xs, 3)
                k = weyl_braiding_phase(zs, xs)
                assert np.allclose(mat, omega ** k * np.eye(d ** 3)), (d, a, b)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(10, ok, f"omega^(ab) for all (a,b), d in 2..7; matrices confirm "
                    f"d <= 5; {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_11_engine_equivalence():
    checks = oracle.clifford_equivalence_suite(n_circuits=200, seed=2718)
    for check in checks:
        assert check.passed, check
    _report(11, True, "; ".join(c.detail for c in checks))
