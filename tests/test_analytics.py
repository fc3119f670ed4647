import math
import warnings

import numpy as np
import pytest

from anyonsim import analytics as an
from anyonsim import diffusion as df
from anyonsim import oracle
from anyonsim import tableau as tb
from anyonsim.errors import ConfigurationError, UsageError


def test_optimal_detuning_and_min_loss():
    params = an.CavityParams(g=1.0, kappa=1e-3, gamma=1e-3)
    assert params.purcell == pytest.approx(1e6)
    assert an.optimal_detuning(params, 16) == pytest.approx(4.0)
    assert an.min_photon_loss(16, 1e6) == pytest.approx(2 * math.pi * 4e-3)
    with pytest.warns(UserWarning):
        # boundary of meaning: loss = 1 exactly
        assert an.min_photon_loss(1, 4 * math.pi ** 2) == pytest.approx(1.0)


def test_loss_depends_only_on_purcell():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = float(rng.uniform(0.5, 3.0))
        kappa = float(rng.uniform(1e-4, 1e-2))
        gamma = float(rng.uniform(1e-4, 1e-2))
        params = an.CavityParams(g, kappa, gamma)
        scale_c, scale_a = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        rescaled = an.CavityParams(scale_c * g, scale_c ** 2 * kappa * scale_a,
                                   gamma / scale_a)
        assert rescaled.purcell == pytest.approx(params.purcell)
        n = int(rng.integers(1, 40))
        assert an.photon_loss_at(rescaled, n, an.optimal_detuning(rescaled, n)) \
            == pytest.approx(an.photon_loss_at(params, n,
                                               an.optimal_detuning(params, n)))


def test_numeric_minimization_oracle():
    checks = oracle.budget_minimization_suite(n_draws=50, seed=1)
    assert all(c.passed for c in checks), checks


def test_scan_never_beats_closed_form():
    params = an.CavityParams(g=2.0, kappa=3e-3, gamma=8e-4)
    n = 9
    d_star = an.optimal_detuning(params, n)
    best = an.min_photon_loss(n, params.purcell)
    for detuning in np.geomspace(d_star / 10, d_star * 10, 2001):
        assert an.photon_loss_at(params, n, float(detuning)) >= best * (1 - 1e-9)


def test_geometric_gate_loss():
    assert an.geometric_gate_loss(16, 1e6, 0.0) == 0.0
    single = an.min_photon_loss(16, 1e6)
    for alpha_sq in (0.3, math.pi / 2, 2.0):
        assert an.geometric_gate_loss(16, 1e6, alpha_sq) == \
            pytest.approx(alpha_sq * single)
    assert an.geometric_gate_loss(16, 1e6, math.pi / 2) == \
        pytest.approx(math.pi ** 2 * 4e-3)
    with pytest.raises(UsageError):
        an.geometric_gate_loss(16, 1e6, -1.0)


def test_qnd_error():
    assert an.qnd_error(10, math.pi / 2, 0.0) == 0.0
    assert an.qnd_error(10, math.pi / 2, 0.01, 1) == pytest.approx(0.157, abs=1e-3)
    # exact operator-norm oracle: || e^{i(1+d)tZ} - e^{itZ} || = 2|sin(d t / 2)|
    for theta in (0.3, math.pi / 2, 1.1):
        for delta in (1e-3, 0.01, 0.05):
            u1 = np.diag([np.exp(1j * (1 + delta) * theta),
                          np.exp(-1j * (1 + delta) * theta)])
            u0 = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
            norm = np.linalg.norm(u1 - u0, ord=2)
            assert norm == pytest.approx(2 * abs(math.sin(delta * theta / 2)),
                                         abs=1e-12)
            assert norm == pytest.approx(theta * delta, rel=0.01)
    # order doubling squares the delta factor
    assert an.qnd_error(10, 1.0, 0.01, 2) == pytest.approx(
        an.qnd_error(10, 1.0, 0.01, 1) * 0.01)
    assert an.qnd_pulse_count(3) == 27
    with pytest.raises(UsageError):
        an.qnd_error(10, 1.0, 1.5)


def _budget(**kw):
    base = dict(delta_h=0.1, coupling_j=1.0, n_length=4, q=1e-3,
                purcell=1e6, epsilon=1e-4)
    base.update(kw)
    return an.MemoryBudget(**base)


def test_memory_error_and_crossover():
    budget = _budget()
    at_zero = an.memory_error(budget, 0.0)
    assert at_zero == pytest.approx(
        4 * budget.lam * math.sqrt(4 / 1e6) + 4 * 1e-4)
    # affine in t with slope protection * q
    t1, t2 = 3.0, 11.0
    slope = (an.memory_error(budget, t2) - an.memory_error(budget, t1)) / (t2 - t1)
    assert slope == pytest.approx(budget.protection * budget.q)
    # fixed point self-consistency
    t_star = an.crossover_time(budget)
    assert an.memory_error(budget, t_star) == pytest.approx(
        budget.q * t_star, abs=1e-12 * budget.q * t_star + 1e-15)
    # with perfect protection the crossover is the access cost over q
    perfect = _budget(delta_h=0.0)
    assert an.crossover_time(perfect) == pytest.approx(
        an.memory_error(perfect, 0.0) / perfect.q, rel=1e-10)
    with pytest.raises(UsageError):
        an.crossover_time(_budget(delta_h=2.0))
    with pytest.warns(UserWarning):
        an.memory_error(_budget(delta_h=2.0), 1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: tb.EnergyLedger(math.nan, 1.0), "coupling_u"),
    (lambda: tb.EnergyLedger(1.0, math.inf), "coupling_j"),
    (lambda: an.CavityParams(g=math.inf, kappa=1e-3, gamma=1e-3), "g"),
    (lambda: _budget(delta_h=math.nan), "delta_h"),
    (lambda: _budget(epsilon=-math.inf), "epsilon"),
    (lambda: _budget(epsilon=-5.0), "epsilon"),
    (lambda: an.memory_error(_budget(), -1.0), "t"),
    (lambda: df.DiffusionParams(xi_h=math.nan, tau_c=1.0), "xi_h"),
    (lambda: df.DiffusionParams(xi_h=1.0, tau_c=-math.inf), "tau_c"),
    (lambda: df.DiffusionParams(xi_h=-1.0, tau_c=10.0), "xi_h"),
    (lambda: df.DiffusionParams(xi_h=1.0, tau_c=0.0), "tau_c"),
    (lambda: df.DiffusionParams(xi_h=1.0, tau_c=-1.0), "tau_c"),
    (lambda: df.DiffusionParams(xi_h=1.0, tau_c=10.0, t2_scale=0.0), "t2_scale"),
    (lambda: df.DiffusionParams(xi_h=1.0, tau_c=10.0, z=0), "z"),
    (lambda: df.NoiseModel(xi_h=-1.0, tau_c=10.0, dt=0.05, duration=1.0), "xi_h"),
], ids=["ledger-u-nan", "ledger-j-inf", "cavity-g-inf", "budget-delta_h-nan",
        "budget-epsilon-inf", "budget-epsilon-negative", "memory_error-t-negative",
        "diffusion-xi_h-nan", "diffusion-tau_c-inf", "diffusion-xi_h-negative",
        "diffusion-tau_c-zero", "diffusion-tau_c-negative", "diffusion-t2_scale-zero",
        "diffusion-z-zero",
        "noise-xi_h-negative"])
def test_parameters_rejected_when_built(build, field):
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        build()


def test_quenched_phase_prob():
    assert an.quenched_phase_prob(4, 0) == 0.0
    assert an.quenched_phase_prob(4, 16) == 0.0
    assert an.quenched_phase_prob(2, 2) == pytest.approx(2 / 3)
    assert an.quenched_phase_prob(4, 5) == pytest.approx(110 / 240)
    for n in (2, 3, 4, 6):
        for m in range(n * n + 1):
            assert an.quenched_phase_prob(n, m) == \
                pytest.approx(an.quenched_phase_prob(n, n * n - m))
    # maximum approaches 1/2 at half filling
    assert an.quenched_phase_prob(8, 32) == pytest.approx(0.5, abs=0.01)
    with pytest.raises(UsageError):
        an.quenched_phase_prob(4, 17)


def test_enumeration_oracle_matches_formula():
    checks = oracle.quenched_formula_suite()
    assert all(c.passed for c in checks)
    assert an.quenched_enumeration_oracle(2, {0, 1}) == pytest.approx(2 / 3)
    assert an.quenched_enumeration_oracle(4, set(range(16))) == 0.0
    rng = np.random.default_rng(1)
    region = set(int(v) for v in rng.choice(16, size=5, replace=False))
    assert an.quenched_enumeration_oracle(4, region) == pytest.approx(110 / 240)
    with pytest.raises(ConfigurationError):
        an.quenched_enumeration_oracle(9, {0})


@pytest.mark.parametrize("n", [1, 0, -2])
def test_quenched_formulas_need_two_cells(n):
    # a pair needs two cells: N < 2 is a UsageError naming n, not a
    # division by zero
    for call in (lambda: an.quenched_phase_prob(n, 0),
                 lambda: an.QuenchedModel(n, 0, 0, 0.5),
                 lambda: an.quenched_enumeration_oracle(n, [])):
        with pytest.raises(UsageError, match=r"\bn\b"):
            call()


def test_quenched_contrast():
    model = an.QuenchedModel(n=4, m=4, m_prime=2, p=0.3)
    q4 = an.quenched_phase_prob(4, 4)
    q2 = an.quenched_phase_prob(4, 2)
    assert an.quenched_contrast(model) == pytest.approx(1 - 0.3 * (q4 + q2))
    assert an.quenched_contrast(model, diffusive=True) == pytest.approx(0.7)
    with pytest.raises(UsageError):
        an.QuenchedModel(n=4, m=20, m_prime=0, p=0.1)


def test_contrast_vs_loop():
    model = an.QuenchedModel(n=4, m=1, m_prime=1, p=0.0)
    report = an.contrast_vs_loop(12, 0.0, model)
    assert report.combined == 1.0
    # doubling the perimeter doubles the log-contrast at small eps
    eps = 1e-3
    r1 = an.contrast_vs_loop(10, eps, model)
    r2 = an.contrast_vs_loop(20, eps, model)
    assert math.log(r2.string_factor) == \
        pytest.approx(2 * math.log(r1.string_factor), rel=1e-9)
    with pytest.raises(UsageError):
        an.contrast_vs_loop(10, 1.0, model)


BAD_ANALYTICS_INPUTS = [
    *[("contrast_vs_loop", "perimeter", v) for v in (-1, 2.5)],
    *[("qnd_error", "theta", v) for v in (math.nan, math.inf)],
    ("qnd_error", "delta", math.nan),
    ("qnd_error", "k", 1.5),
    *[("qnd_pulse_count", "k", v) for v in (-1, 0, 1.5)],
    *[("photon_loss_at", "detuning", v) for v in (0.0, -1.0, math.nan, math.inf)],
    *[("min_photon_loss", "purcell", v) for v in (math.nan, math.inf)],
    *[("geometric_gate_loss", "alpha_sq", v) for v in (math.nan, math.inf)],
    ("quenched_enumeration_oracle", "region", [1.5]),
    ("quenched_phase_prob", "m", 1.5),
]


@pytest.mark.parametrize("entry, param, value", BAD_ANALYTICS_INPUTS,
                         ids=[f"{e}-{p}={v}" for e, p, v in BAD_ANALYTICS_INPUTS])
def test_bad_analytics_inputs_rejected(entry, param, value):
    # a UsageError naming the parameter, not a nan, a negative loss or a
    # bare ZeroDivisionError
    calls = {
        "contrast_vs_loop": dict(perimeter=4, eps_s=0.1,
                                 model=an.QuenchedModel(4, 1, 1, 0.1)),
        "qnd_error": dict(n_spins=4, theta=1.0, delta=0.1, k=1),
        "qnd_pulse_count": dict(k=2),
        "photon_loss_at": dict(params=an.CavityParams(1.0, 1.0, 1.0), n_spins=4,
                               detuning=1.0),
        "min_photon_loss": dict(n_spins=4, purcell=1e6),
        "geometric_gate_loss": dict(n_spins=4, purcell=1e6, alpha_sq=0.5),
        "quenched_enumeration_oracle": dict(n=2, region=[1]),
        "quenched_phase_prob": dict(n=4, m=2),
    }
    kwargs = calls[entry]
    getattr(an, entry)(**kwargs)
    kwargs[param] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=rf"\b{param}\b"):
            getattr(an, entry)(**kwargs)


def test_perimeter_law_monte_carlo(torus4):
    result = oracle.perimeter_law_mc(torus4, eps=0.05, n_trials=6000, seed=2)
    assert abs(result.slope - result.predicted_slope) < 0.1 * abs(result.predicted_slope)
