import math

import numpy as np
import pytest

from anyonsim import diffusion as df
from anyonsim import lattice as lat
from anyonsim import oracle
from anyonsim.errors import ConfigurationError, UsageError


def test_noise_mean_and_autocorrelation(torus4):
    model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=40.0)
    lags = {0: 1.0, 10: math.exp(-0.25), 20: math.exp(-1.0), 40: math.exp(-4.0)}
    acc = {k: [] for k in lags}
    means = []
    for seed in range(200):
        series = df.sample_noise(model, torus4, seed).values[3]
        means.append(series.mean())
        for k in lags:
            if k == 0:
                acc[k].append(np.mean(series * series))
            else:
                acc[k].append(np.mean(series[:-k] * series[k:]))
    for k, target in lags.items():
        est = np.mean(acc[k])
        se = np.std(acc[k], ddof=1) / math.sqrt(len(acc[k]))
        assert abs(est - target) < 3 * se, (k, est, target, se)
    se_mean = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(np.mean(means)) < 3 * se_mean


def test_noise_determinism_and_edge_streams(torus4):
    model = df.NoiseModel(xi_h=0.7, tau_c=0.5, dt=0.02, duration=5.0)
    r1 = df.sample_noise(model, torus4, 123)
    r2 = df.sample_noise(model, torus4, 123)
    assert np.array_equal(r1.values, r2.values)
    r3 = df.sample_noise(model, torus4, 124)
    assert not np.array_equal(r1.values, r3.values)
    # edges carry independent streams
    assert not np.array_equal(r1.values[0], r1.values[1])


def test_zero_amplitude_noise(torus4):
    model = df.NoiseModel(xi_h=0.0, tau_c=1.0, dt=0.05, duration=2.0)
    r = df.sample_noise(model, torus4, 0)
    assert np.all(r.values == 0)
    sched = df.build_echo_schedule("none", 2.0)
    state = df.evolve_anyon(torus4, r, sched, 5, "x", dt=r.dt)
    assert df.survival(state, 5) == pytest.approx(1.0)
    amps = np.abs(state.amplitudes)
    assert amps[5] == pytest.approx(1.0) and np.sum(amps) == pytest.approx(1.0)


def test_sampler_preconditions(torus4):
    with pytest.raises(ConfigurationError):
        df.sample_noise(df.NoiseModel(1.0, 1.0, 0.2, 2.0), torus4, 0)
    with pytest.raises(ConfigurationError):
        df.NoiseModel(1.0, -1.0, 0.01, 2.0)
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(4):
            fields = [1.0, 1.0, 0.01, 2.0]
            fields[k] = bad
            with pytest.raises(ConfigurationError):
                df.NoiseModel(*fields)


def test_static_refocusing_exact(torus4):
    rng = np.random.default_rng(3)
    static = df.StaticField(rng.normal(size=torus4.n_edges))
    for n in (1, 2, 5):
        sched = df.build_echo_schedule("z_pairs", 3.0, n)
        s = df.survival(df.evolve_anyon(torus4, static, sched, 5, "x", dt=0.05), 5)
        assert abs(abs(s) - 1.0) < 1e-8, (n, s)
    # without echo the same field disperses the particle
    none = df.build_echo_schedule("none", 3.0)
    s0 = df.survival(df.evolve_anyon(torus4, static, none, 5, "x", dt=0.05), 5)
    assert abs(s0) < 0.9


def test_short_time_quadratic_decay(torus4):
    rng = np.random.default_rng(4)
    static = df.StaticField(rng.normal(size=torus4.n_edges))
    tau = 0.15
    sched = df.build_echo_schedule("none", tau)
    s = df.survival(df.evolve_anyon(torus4, static, sched, 5, "x", dt=1e-3), 5)
    h2 = sum(static.edge_values[e] ** 2
             for e in range(torus4.n_edges) if 5 in torus4.edge_faces[e])
    expected = 1 - tau ** 2 / 2 * h2
    assert abs(s.real - expected) < (tau * math.sqrt(h2)) ** 3
    assert abs(s.imag) < (tau * math.sqrt(h2)) ** 3


def test_unitarity_norm_drift(torus4):
    model = df.NoiseModel(xi_h=1.0, tau_c=0.5, dt=0.02, duration=4.0)
    for seed in (0, 1):
        realization = df.sample_noise(model, torus4, seed)
        for kind, n in (("none", 0), ("z_pairs", 3), ("nested", 2)):
            sched = df.build_echo_schedule(kind, 4.0, max(n, 1)) \
                if kind != "none" else df.build_echo_schedule("none", 4.0)
            state = df.evolve_anyon(torus4, realization, sched, 2, "x",
                                    dt=realization.dt)
            assert abs(state.norm() - 1.0) < 1e-8


def test_integrator_convergence(torus4):
    smooth = df.CallableField(
        lambda t: 0.3 * np.sin(1.7 * t + np.arange(torus4.n_edges)))
    sched = df.build_echo_schedule("z_pairs", 2.0, 1)
    s1 = df.survival(df.evolve_anyon(torus4, smooth, sched, 3, "x", dt=1e-3), 3)
    s2 = df.survival(df.evolve_anyon(torus4, smooth, sched, 3, "x", dt=5e-4), 3)
    assert abs(s1 - s2) < 1e-6


def test_schedule_construction():
    z1 = df.build_echo_schedule("z_pairs", 2.0, 1)
    assert [p.time for p in z1.pulses] == [1.0, 2.0]
    assert all(p.kind == "z" for p in z1.pulses)
    n1 = df.build_echo_schedule("nested", 4.0, 1)
    assert [p.time for p in n1.pulses] == [1.0, 2.0, 3.0, 4.0]
    assert [p.kind for p in n1.pulses] == ["z", "x", "z", "x"]
    w = df.build_echo_schedule("boundary_w", 16.0, lattice=lat.planar(3))
    assert len(w.pulses) == 16
    kinds = [p.kind for p in w.pulses]
    assert kinds[:4] == ["z_e", "x_e", "z_e", "x_e"]
    assert kinds[4:8] == ["z_e", "x_o", "z_e", "x_o"]
    assert kinds[8:12] == ["z_o", "x_e", "z_o", "x_e"]
    assert kinds[12:] == ["z_o", "x_o", "z_o", "x_o"]
    assert [p.time for p in w.pulses[:4]] == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(UsageError):
        df.build_echo_schedule("boundary_w", 4.0, lattice=lat.torus(4))
    with pytest.raises(UsageError):
        df.build_echo_schedule("z_pairs", 4.0, 0)
    with pytest.raises(UsageError):
        df.EchoSchedule(1.0, (df.Pulse(0.7, "z"), df.Pulse(0.3, "z")))


def test_boundary_w_refocuses_on_planar():
    # static field, planar(3): the four-block W sequence refocuses both
    # sectors with boundary-safe pulses
    p3 = lat.planar(3)
    rng = np.random.default_rng(5)
    static = df.StaticField(rng.normal(size=p3.n_edges))
    sched = df.build_echo_schedule("boundary_w", 4.0, lattice=p3)
    for sector in ("x", "z"):
        s = df.survival(df.evolve_anyon(p3, static, sched, 1, sector, dt=0.01), 1)
        assert abs(abs(s) - 1.0) < 1e-8, (sector, s)


def test_masked_pulse_flip_structure():
    p3 = lat.planar(3)
    dyn = df._SectorDynamics(p3, "x")
    flips_all = dyn.pulse_flips(df.Pulse(1.0, "z"))
    assert flips_all.all()
    # the edges a boundary mask drops touch a single face, so they carry no
    # number-conserving hop: masked pulses still refocus every hop term
    flips_e = dyn.pulse_flips(df.Pulse(1.0, "z_e"))
    assert flips_e.all()
    # x-kind pulses do not touch the x-sector
    assert not dyn.pulse_flips(df.Pulse(1.0, "x_e")).any()
    # explicit edge masks restrict the flips
    some = frozenset(dyn.edge_ids[:3])
    partial = dyn.pulse_flips(df.Pulse(1.0, "z", edges=some))
    assert partial.sum() == 3


def test_hop_structure_boundary_exclusions():
    p3 = lat.planar(3)
    n_x, pairs_x, edges_x = df.hop_structure(p3, "x")
    n_z, pairs_z, edges_z = df.hop_structure(p3, "z")
    assert n_x == p3.n_faces and n_z == p3.n_vertices
    # edges with a single adjacent cell cannot hop (number conservation)
    assert len(edges_x) == 7 and len(edges_z) == 7
    with pytest.raises(UsageError):
        df.hop_structure(p3, "y")


def test_x_z_duality_on_torus(torus4):
    # relabeling faces <-> vertices and mapping edges h(r,c) -> v(r-1,c),
    # v(r,c) -> h(r,c-1) maps the x-sector onto the z-sector
    n = torus4.size
    h = lambda r, c: (r % n) * n + (c % n)
    v = lambda r, c: n * n + (r % n) * n + (c % n)
    perm = np.zeros(torus4.n_edges, dtype=int)
    for r in range(n):
        for c in range(n):
            perm[h(r, c)] = v(r - 1, c)
            perm[v(r, c)] = h(r, c - 1)
    rng = np.random.default_rng(6)
    field = rng.normal(size=torus4.n_edges)
    dual_field = np.zeros_like(field)
    dual_field[perm] = field
    sched = df.build_echo_schedule("none", 1.5)
    sx = df.evolve_anyon(torus4, df.StaticField(field), sched, 5, "x", dt=0.01)
    sz = df.evolve_anyon(torus4, df.StaticField(dual_field), sched, 5, "z", dt=0.01)
    assert np.allclose(sx.amplitudes, sz.amplitudes, atol=1e-9)


def test_contrast_curve_basics(torus4):
    model = df.NoiseModel(xi_h=0.0, tau_c=1.0, dt=0.05, duration=3.0)
    est, = df.contrast_curve(torus4, model, [("none", 0)], [0.0, 1.0, 3.0],
                             n_trials=3, n_particles=2, seed=0)
    assert np.allclose(est.mean, 1.0)
    assert est.schedule == "none" and est.n_trials == 3
    with pytest.raises(UsageError):
        df.contrast_curve(torus4, model, [("none", 0)], [1.0], 0, 1, 0)
    with pytest.raises(UsageError):
        df.contrast_curve(torus4, model, [("none", 0)], [1.0], 2, 1, 0,
                          estimator="median")


def test_contrast_curve_determinism(torus4):
    model = df.NoiseModel(xi_h=0.8, tau_c=0.5, dt=0.025, duration=2.0)
    kw = dict(n_trials=4, n_particles=2, seed=9)
    a, = df.contrast_curve(torus4, model, [("z_pairs", 1)], [1.0, 2.0], **kw)
    b, = df.contrast_curve(torus4, model, [("z_pairs", 1)], [1.0, 2.0], **kw)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)


def test_fast_noise_against_master_equation(torus4):
    # the true fast-noise law: classical hopping with rate Gamma per edge,
    # return contributions included (see the published-formula discussion
    # in the acceptance suite)
    model = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=1.0)
    gamma = model.diffusion_rate()
    taus = np.array([0.1, 0.25, 0.5, 0.75, 1.0]) / gamma
    est, = df.contrast_curve(torus4, model, [("none", 0)], taus, n_trials=60,
                             n_particles=1, seed=42, estimator="probability",
                             dt=model.tau_c / 4)
    reference = df.master_equation_survival(4, gamma, taus)
    dev = np.abs(est.mean - reference)
    assert np.all(dev < np.maximum(4 * est.stderr, 0.02)), (est.mean, reference)


def test_echo_filter_oracle_matches_mc(torus4):
    # quasi-static regime: the exact second-order filter integral predicts
    # the echoed log-contrast (and exhibits the 1/n^2 dependence of the
    # equally spaced pulse train)
    model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05, duration=7.0)
    tau = 6.0
    fam = [("z_pairs", 2), ("z_pairs", 4)]
    ests = df.contrast_curve(torus4, model, fam, [tau], n_trials=150,
                             n_particles=1, seed=3)
    for est, n in zip(ests, (2, 4)):
        var = oracle.echo_filter_variance(tau, n, 1.0, 10.0)
        predicted = math.exp(-0.5 * df.COORDINATION * var)
        assert abs(math.log(est.mean[0]) - math.log(predicted)) \
            < 0.2 * abs(math.log(predicted)) + 3 * est.stderr[0] / est.mean[0], \
            (n, est.mean[0], predicted)
    # the filter variance itself scales as 1/n^2 for equal spacing
    v2 = oracle.echo_filter_variance(tau, 2, 1.0, 10.0)
    v8 = oracle.echo_filter_variance(tau, 8, 1.0, 10.0)
    assert v2 / v8 == pytest.approx(16.0, rel=0.15)


def test_analytic_contrast_forms():
    params = df.DiffusionParams(xi_h=1.0, tau_c=10.0, t2_scale=1.3)
    assert df.analytic_contrast(0.0, params, "free") == 1.0
    assert df.analytic_contrast(params.t2_star, params, "free") == \
        pytest.approx(math.exp(-1))
    assert df.analytic_contrast(0.0, params, "echo", 3) == 1.0
    tau = 2.0
    c1 = df.analytic_contrast(tau, params, "echo", 1)
    c2 = df.analytic_contrast(tau, params, "echo", 2)
    assert c2 / c1 == pytest.approx(math.exp((1 - 1 / 8) * (tau / params.t2) ** 4))
    assert params.gamma == pytest.approx(2 * math.sqrt(math.pi) * 1.0 / 0.2)
    assert df.analytic_survival_probability(1.0, params) == \
        pytest.approx(math.exp(-2 * 4 * params.gamma))
    with pytest.raises(UsageError):
        df.analytic_contrast(1.0, params, "gaussian")


def test_spread_cells(torus4):
    cells = df.spread_cells(torus4, "x", 2)
    assert len(set(cells)) == 2
    r1, c1 = divmod(cells[0], 4)
    r2, c2 = divmod(cells[1], 4)
    dist = min(abs(r1 - r2), 4 - abs(r1 - r2)) + min(abs(c1 - c2), 4 - abs(c1 - c2))
    assert dist >= 3
    with pytest.raises(UsageError):
        df.spread_cells(torus4, "x", 99)
