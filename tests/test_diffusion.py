import math
import tracemalloc
import warnings

import numpy as np
import pytest

from anyonsim import diffusion as df
from anyonsim import lattice as lat
from anyonsim import oracle
from anyonsim.errors import ConfigurationError, UsageError


def noise_law_checks(lattice, seed):
    """The checks of test_noise_mean_and_autocorrelation at a seed: over the
    realizations of the 200 streams 200 seed .. 200 seed + 199, per lag k,
    whether the mean lag-k product of edge 3's series lies within 3
    standard errors of exp(-(k dt / tau_c)^2), then whether its mean lies
    within 3 of 0; and the estimates."""
    model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=40.0)
    lags = {0: 1.0, 10: math.exp(-0.25), 20: math.exp(-1.0), 40: math.exp(-4.0)}
    acc = {k: [] for k in lags}
    means = []
    for stream in range(200 * seed, 200 * seed + 200):
        series = df.sample_noise(model, lattice, stream).values[3]
        means.append(series.mean())
        for k in lags:
            if k == 0:
                acc[k].append(np.mean(series * series))
            else:
                acc[k].append(np.mean(series[:-k] * series[k:]))
    ok, detail = [], []
    for k, target in lags.items():
        est = np.mean(acc[k])
        se = np.std(acc[k], ddof=1) / math.sqrt(len(acc[k]))
        ok.append(abs(est - target) < 3 * se)
        detail.append((k, est, target, se))
    se_mean = np.std(means, ddof=1) / math.sqrt(len(means))
    ok.append(abs(np.mean(means)) < 3 * se_mean)
    detail.append(("mean", np.mean(means), se_mean))
    return np.array(ok), detail


def test_noise_mean_and_autocorrelation(torus4):
    ok, detail = noise_law_checks(torus4, seed=0)
    assert np.all(ok), detail


def test_noise_determinism_and_edge_streams(torus4):
    model = df.NoiseModel(xi_h=0.7, tau_c=0.5, dt=0.02, duration=5.0)
    r1 = df.sample_noise(model, torus4, 123)
    r2 = df.sample_noise(model, torus4, 123)
    assert np.array_equal(r1.values, r2.values)
    # the body contrast_curve calls writes the same series into one row of
    # its buffer in place and leaves the other rows untouched
    buf = np.full((2, *r1.values.shape), np.nan)
    row = buf[1]
    assert df._sample_noise(model, torus4, [123], out=row).values is row
    assert np.array_equal(row, r1.values) and np.isnan(buf[0]).all()
    r3 = df.sample_noise(model, torus4, 124)
    assert not np.array_equal(r1.values, r3.values)
    # edges carry independent streams
    assert not np.array_equal(r1.values[0], r1.values[1])


def test_zero_amplitude_noise(torus4):
    model = df.NoiseModel(xi_h=0.0, tau_c=1.0, dt=0.05, duration=2.0)
    r = df.sample_noise(model, torus4, 0)
    assert np.all(r.values == 0)
    # a stale buffer row is zero-filled
    assert np.all(df._sample_noise(model, torus4, [0], out=np.ones_like(r.values)).values == 0)
    sched = df.build_echo_schedule("none", 2.0)
    state = df.evolve_anyon(torus4, r, sched, 5, "x", dt=r.dt)
    assert state[5] == pytest.approx(1.0)
    amps = np.abs(state)
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


# the two benchmark noise shapes; the criterion-6 one shortened from 45 to 5
SAMPLER_SHAPES = {"mc_fast": df.NoiseModel(0.5, 0.05, 0.0025, 5.0),
                  "mc_echo": df.NoiseModel(1.0, 10.0, 0.05, 12.0)}


@pytest.mark.parametrize("shape", sorted(SAMPLER_SHAPES))
@pytest.mark.parametrize("seed", [7, [3, 11]], ids=["int", "list"])
@pytest.mark.parametrize("name", ["torus4", "planar3"])
def test_sampler_matches_complex_fft_reference(shape, seed, name, request):
    lattice = request.getfixturevalue(name)
    model = SAMPLER_SHAPES[shape]
    values = df.sample_noise(model, lattice, seed).values
    reference = oracle.circulant_noise_reference(model, lattice, seed)
    assert values.shape == reference.shape == (lattice.n_edges, model.n_steps)
    assert np.max(np.abs(values - reference)) <= 1e-13


def test_noise_rows_depend_only_on_seed_edge_and_model(torus4):
    model = df.NoiseModel(xi_h=0.7, tau_c=0.5, dt=0.02, duration=5.0)
    for seed in (5, [2, 9]):
        small = df.sample_noise(model, torus4, seed).values
        large = df.sample_noise(model, lat.torus(5), seed).values
        assert np.array_equal(large[:torus4.n_edges], small)


def test_spectrum_computed_once_and_checked_every_call(torus4, monkeypatch):
    model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=3.0)
    df._circulant_sqrt_spectrum.cache_clear()
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda x: -fft(x))  # a negative embedding
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="not nonnegative"):
            df.sample_noise(model, torus4, 0)
    monkeypatch.undo()
    first = df._circulant_sqrt_spectrum(model, model.n_steps)
    assert df._circulant_sqrt_spectrum(model, model.n_steps) is first
    assert not first.flags.writeable


def test_static_refocusing_exact(torus4):
    rng = np.random.default_rng(3)
    static = df.NoiseRealization(rng.normal(size=torus4.n_edges)[:, None], 1.0)
    for n in (1, 2, 5):
        sched = df.build_echo_schedule("z_pairs", 3.0, n)
        s = df.evolve_anyon(torus4, static, sched, 5, "x", dt=0.05)[5]
        assert abs(abs(s) - 1.0) < 1e-8, (n, s)
    # without echo the same field disperses the particle
    none = df.build_echo_schedule("none", 3.0)
    s0 = df.evolve_anyon(torus4, static, none, 5, "x", dt=0.05)[5]
    assert abs(s0) < 0.9


def test_short_time_quadratic_decay(torus4):
    rng = np.random.default_rng(4)
    static = df.NoiseRealization(rng.normal(size=torus4.n_edges)[:, None], 1.0)
    tau = 0.15
    sched = df.build_echo_schedule("none", tau)
    s = df.evolve_anyon(torus4, static, sched, 5, "x", dt=1e-3)[5]
    h2 = sum(static.values[e, 0] ** 2
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
            assert abs(np.linalg.norm(state) - 1.0) < 1e-8


@pytest.mark.parametrize("spec", ["torus:2", "torus:3", "planar:2", "planar:3"])
@pytest.mark.parametrize("sector", ["x", "z"])
def test_static_evolution_matches_exact_exponential(spec, sector):
    # oracle: exp(-i H T) of the hop matrix summed edge by edge; on torus(2)
    # each pair of adjacent cells is joined by two edges whose fields add
    topology, size = spec.split(":")
    lattice = lat.build_lattice(lat.LatticeSpec(topology, int(size)))
    rng = np.random.default_rng(8)
    field = rng.normal(size=lattice.n_edges)
    ends = lattice.edge_faces if sector == "x" else lattice.edge_vertices
    n_cells = lattice.n_faces if sector == "x" else lattice.n_vertices
    ham = np.zeros((n_cells, n_cells))
    for e, (a, b) in enumerate(ends):
        if a is not None and b is not None:
            ham[a, b] += field[e]
            ham[b, a] += field[e]
    evals, evecs = np.linalg.eigh(ham)
    exact = evecs @ (np.exp(-0.7j * evals) * evecs[0])
    sched = df.build_echo_schedule("none", 0.7)
    state = df.evolve_anyon(lattice, df.NoiseRealization(field[:, None], 1.0), sched, 0,
                             sector, dt=0.05)
    assert np.abs(state - exact).max() < 1e-12


def _exact_propagators(hmat, dt):
    evals, evecs = np.linalg.eigh(hmat)
    return (evecs * np.exp(-1j * evals * dt)[:, None, :]) @ np.transpose(evecs, (0, 2, 1))


def _torus2_hop_matrices(rng):
    # two edges join each pair of adjacent faces of torus(2): their fields add
    lattice = lat.torus(2)
    hmat = np.zeros((3, lattice.n_faces, lattice.n_faces))
    for k, scale in enumerate((0.1, 1.0, 10.0)):
        for a, b in lattice.edge_faces:
            value = scale * rng.normal()
            hmat[k, a, b] += value
            hmat[k, b, a] += value
    return hmat


@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.3, 0.99, 1.5, 7.0, 30.0, "torus:2"])
def test_propagators_match_exact_exponential(theta):
    # theta is the largest row-sum norm of H dt in the stack; above 1 the
    # kernel scales and squares (at 30 an unscaled series would lose about
    # e^30 ulp to cancellation)
    rng = np.random.default_rng(11)
    dt = 0.05
    if theta == "torus:2":
        hmat = _torus2_hop_matrices(rng)
    else:
        hmat = rng.normal(size=(40, 16, 16))
        hmat = hmat + np.transpose(hmat, (0, 2, 1))
        hmat *= theta / (dt * np.abs(hmat).sum(axis=-1).max())
    props = df._propagators(hmat * dt)
    assert np.abs(props - _exact_propagators(hmat, dt)).max() < 1e-13
    n = hmat.shape[-1]
    drift = props @ np.conj(np.transpose(props, (0, 2, 1))) - np.eye(n)
    assert np.abs(drift).max() <= 1e-13
    if theta == 0.0:
        assert np.array_equal(props, np.broadcast_to(np.eye(n), props.shape))


class CallableField:
    """A smooth deterministic field t -> per-edge vector, read through the
    integrator's ``at_many`` interface; its cell length ``dt`` only sets the
    step grid, each step reading the function at its midpoint, and it has
    no last sample (``n_steps`` is infinite)."""

    n_steps = math.inf

    def __init__(self, fn, dt):
        self.fn = fn
        self.dt = dt

    def at_many(self, times):
        return np.stack([self.fn(t) for t in times], axis=1)


def test_integrator_convergence(torus4):
    smooth = CallableField(lambda t: 0.3 * np.sin(1.7 * t + np.arange(torus4.n_edges)),
                           dt=5e-4)
    sched = df.build_echo_schedule("z_pairs", 2.0, 1)
    s1 = df.evolve_anyon(torus4, smooth, sched, 3, "x", dt=1e-3)[3]
    s2 = df.evolve_anyon(torus4, smooth, sched, 3, "x", dt=5e-4)[3]
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
    # n repeats the four-block set within the same duration
    w2 = df.build_echo_schedule("boundary_w", 16.0, 2, lattice=lat.planar(3))
    assert len(w2.pulses) == 32
    assert [p.kind for p in w2.pulses] == kinds * 2
    assert [p.time for p in w2.pulses[:4]] == [0.5, 1.0, 1.5, 2.0]
    assert w2.pulses[-1].time == 16.0
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
    static = df.NoiseRealization(rng.normal(size=p3.n_edges)[:, None], 1.0)
    for n in (1, 2):
        sched = df.build_echo_schedule("boundary_w", 4.0, n, lattice=p3)
        for sector in ("x", "z"):
            s = df.evolve_anyon(p3, static, sched, 1, sector, dt=0.01)[1]
            assert abs(abs(s) - 1.0) < 1e-8, (n, sector, s)


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


@pytest.mark.parametrize("kind", ["y", "zz", "Z"])
def test_unknown_pulse_kind_rejected(kind):
    # such a pulse used to flip no hop term: an echo train of them was no echo
    with pytest.raises(UsageError):
        df.Pulse(0.5, kind)
    with pytest.raises(UsageError):
        lat.echo_mask(lat.planar(3), kind)


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
    h, v, _, _ = lat.index_maps(torus4.spec)
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
    sx = df.evolve_anyon(torus4, df.NoiseRealization(field[:, None], 1.0), sched, 5, "x",
                         dt=0.01)
    sz = df.evolve_anyon(torus4, df.NoiseRealization(dual_field[:, None], 1.0), sched, 5,
                         "z", dt=0.01)
    assert np.allclose(sx, sz, atol=1e-9)


def test_contrast_curve_basics(torus4):
    model = df.NoiseModel(xi_h=0.0, tau_c=1.0, dt=0.05, duration=3.0)
    est, = df.contrast_curve(torus4, model, [("none", 0)], [0.0, 1.0, 3.0],
                             n_trials=3, n_particles=2, seed=0)
    assert np.allclose(est.mean, 1.0)
    assert est.schedule == "none" and est.n_trials == 3
    with pytest.raises(UsageError):
        df.contrast_curve(torus4, model, [("none", 0)], [1.0], 0, 1, 0)
    # the sampler's size check runs before any noise buffer is allocated
    with pytest.raises(ConfigurationError, match="too large"):
        df.contrast_curve(torus4, model, [("none", 0)], [1e9], 1, 1, 0)
    # so is the embedding length, which grows with tau_c / dt; and a field
    # whose phase over a step the propagator cannot resolve is rejected
    for bad, match in ((df.NoiseModel(1.0, 1e30, 0.05, 1.0), r"too large.*\btau_c\b"),
                       (df.NoiseModel(1e30, 1.0, 0.05, 1.0), r"^xi_h \* dt must be")):
        with pytest.raises(ConfigurationError, match=match):
            df.contrast_curve(torus4, bad, [("none", 0)], [1.0], 1, 1, 0)
    with pytest.raises(UsageError):
        df.contrast_curve(torus4, model, [("none", 0)], [1.0], 2, 1, 0,
                          estimator="median")


def test_extreme_step_ratios_rejected(torus4):
    # dt / model.dt = 1e310 is beyond the float range: a UsageError naming
    # dt, not an OverflowError, from contrast_curve and from evolve_anyon
    model = df.NoiseModel(xi_h=0.0, tau_c=1.0, dt=1e-300, duration=1.0)
    with pytest.raises(UsageError, match=r"\bdt\b"):
        df.contrast_curve(torus4, model, [("none", 0)], [1.0], 1, 1, 0, dt=1e10)
    field = df.NoiseRealization(np.zeros((torus4.n_edges, 1)), 1e-300)
    with pytest.raises(UsageError, match=r"\bdt\b"):
        df.evolve_anyon(torus4, field, df.build_echo_schedule("none", 1.0), 0, "x", dt=1e10)
    # a field's cell must be finite and > 0: the step grid divides by it
    for cell in (0.0, -0.05, math.nan):
        with pytest.raises(ConfigurationError, match=r"\bdt\b"):
            df.NoiseRealization(np.zeros((torus4.n_edges, 1)), cell)
    # a sample count duration / dt of 1e310 is too large for the size check
    with pytest.raises(ConfigurationError, match="too large"):
        df.sample_noise(df.NoiseModel(0.0, 1.0, 1e-300, 1e10), torus4, 0)
    with pytest.raises(ConfigurationError, match="too large"):
        df.contrast_curve(torus4, model, [("none", 0)], [1e10], 1, 1, 0, dt=1e-300)
    # at dt = 1 (1e300 cells of the model) the sampled grid holds two
    # cells, so the size check, which reads that grid, lets the run through
    est, = df.contrast_curve(torus4, model, [("none", 0)], [1.0], 1, 1, 0, dt=1.0)
    assert est.mean[0] == 1.0


def _diffusion_calls(lattice):
    """Each checked diffusion entry point with valid keyword arguments."""
    model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=1.0)
    field = df.NoiseRealization(np.zeros((lattice.n_edges, 1)), 1.0)
    return {
        "contrast_curve": (df.contrast_curve, dict(
            lattice=lattice, model=model, schedule_family=[("none", 0)], tau_grid=[1.0],
            n_trials=1, n_particles=1, seed=0, dt=0.05)),
        "evolve_anyon": (df.evolve_anyon, dict(
            lattice=lattice, field=field, schedule=df.build_echo_schedule("none", 1.0),
            start_cell=0, sector="x", dt=0.05)),
        "build_echo_schedule": (df.build_echo_schedule, dict(kind="z_pairs", duration=1.0, n=1)),
        "analytic_contrast": (df.analytic_contrast, dict(tau=1.0, model=model, kind="free")),
        "analytic_contrast(echo)": (df.analytic_contrast, dict(
            tau=1.0, model=model, kind="echo", n=1)),
        "analytic_survival_probability": (df.analytic_survival_probability, dict(
            tau=1.0, model=model)),
        "master_equation_survival": (df.master_equation_survival,
                                     dict(n=4, gamma=1.0, tau=[1.0])),
        "Pulse": (df.Pulse, dict(time=0.5, kind="z")),
        "spread_cells": (df.spread_cells, dict(lattice=lattice, sector="x", n_particles=1)),
    }


class _FilledField(df.NoiseRealization):
    """One value on every edge of torus(4), shown by that value in test ids."""

    def __str__(self):
        return f"full({self.values.flat[0]})"


# (entry point, parameter, bad value)
BAD_DIFFUSION_INPUTS = [
    *[("contrast_curve", "dt", v) for v in (-1.0, 0.0, math.nan, math.inf)],
    *[("contrast_curve", "n_particles", v) for v in (0, -1)],
    *[("contrast_curve", "n_trials", v) for v in (1.5, 2**62)],
    *[("contrast_curve", "seed", v) for v in (-1, 1.5)],
    *[("contrast_curve", "schedule_family", [v]) for v in (("none",), ("z_pairs", 1, 2))],
    ("contrast_curve", "schedule_family", []),
    ("contrast_curve", "tau_grid", ["1"]),
    ("evolve_anyon", "start_cell", 1.5),
    *[("evolve_anyon", "dt", v) for v in (-0.1, 0.0, math.nan, -math.inf)],
    *[("evolve_anyon", "field", _FilledField(np.full((32, 1), v), 0.05))
      for v in (1e30, math.nan)],
    *[("contrast_curve", "tau_grid", [v]) for v in (math.nan, math.inf, -math.inf)],
    *[("build_echo_schedule", "duration", v) for v in (math.nan, math.inf, -1.0)],
    *[("build_echo_schedule", "n", v) for v in (1.5, math.nan, "2")],
    *[(entry, "tau", v) for entry in ("analytic_contrast", "analytic_survival_probability")
      for v in (-1.0, math.nan, math.inf, "1")],
    *[("master_equation_survival", "gamma", v) for v in (-1.0, math.nan, math.inf, "1")],
    *[("analytic_contrast(echo)", "n", v) for v in (1.5, math.nan)],
    *[("master_equation_survival", "n", v) for v in (0, -2, 2.5, 2**62)],
    *[("master_equation_survival", "tau", [v]) for v in (-1.0, math.nan)],
    *[("Pulse", "time", v) for v in (math.nan, math.inf, -math.inf, "1")],
    ("spread_cells", "n_particles", 1.5),
]


@pytest.mark.parametrize("entry, param, value", BAD_DIFFUSION_INPUTS,
                         ids=[f"{e}-{p}={v}" for e, p, v in BAD_DIFFUSION_INPUTS])
def test_bad_diffusion_inputs_rejected(entry, param, value, torus4, monkeypatch):
    # a UsageError naming the parameter, before any noise is drawn and
    # without a numpy warning
    def no_noise(*args, **kwargs):
        raise AssertionError("noise sampled before the inputs were checked")

    monkeypatch.setattr(df, "_sample_noise", no_noise)
    fn, kwargs = _diffusion_calls(torus4)[entry]
    kwargs[param] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=rf"\b{param}\b"):
            fn(**kwargs)


def test_fields_of_the_wrong_shape_rejected(torus4):
    # a field holds one series per edge of the lattice, with a sample, and
    # evolve_anyon takes no trial axis: else it would index out of range or
    # return a per-trial array in place of the cell amplitudes
    for values in (np.zeros(torus4.n_edges), np.zeros((torus4.n_edges, 0)), np.zeros((0, 5))):
        with pytest.raises(ConfigurationError, match=r"\bvalues\b"):
            df.NoiseRealization(values, 0.05)
    model = df.NoiseModel(1.0, 1.0, 0.05, 1.0)
    sched = df.build_echo_schedule("none", 1.0)
    for field in (df.sample_noise(model, lat.torus(2), 0), df.sample_noise(model, lat.torus(5), 0),
                  df.NoiseRealization(np.zeros((3, torus4.n_edges, 1)), 0.05)):
        with pytest.raises(UsageError, match=r"\bfield\b"):
            df.evolve_anyon(torus4, field, sched, 5, "x", dt=0.05)


def test_contrast_curve_determinism(torus4):
    model = df.NoiseModel(xi_h=0.8, tau_c=0.5, dt=0.025, duration=2.0)
    kw = dict(n_trials=4, n_particles=2, seed=9)
    a, = df.contrast_curve(torus4, model, [("z_pairs", 1)], [1.0, 2.0], **kw)
    b, = df.contrast_curve(torus4, model, [("z_pairs", 1)], [1.0, 2.0], **kw)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)


def test_schedules_checked_before_noise(torus4, monkeypatch):
    # a bad family member fails before any trial, even when all delays are 0
    def no_noise(*args):
        raise AssertionError("noise sampled before the family was checked")

    monkeypatch.setattr(df, "_sample_noise", no_noise)
    model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=1.0)
    for family, taus in (([("none", 0), ("bogus", 1)], [1.0]),
                         ([("z_pairs", 0)], [1.0]), ([("nested", 0)], [0.0])):
        with pytest.raises(UsageError):
            df.contrast_curve(torus4, model, family, taus, 1, 1, 0)


# Noisy Monte Carlo values (the noiseless diffuse golden leaves this path
# unpinned); compared at rtol 1e-12, as FFT round-off differs across machines.
PINNED_TORUS = {
    "none": ([1.0, 0.06493530304545865, 0.06493530304545865, 0.09825740799739589],
             [0.0, 0.035576929692256135, 0.035576929692256135, 0.04867731828706555]),
    "z_pairs(1)": ([1.0, 0.9178224121607764, 0.9178224121607764, 0.2562971532950426],
                   [0.0, 0.013266801683626584, 0.013266801683626584,
                    0.10796748404438437]),
    "nested(1)": ([1.0, 0.9966653736271412, 0.9966653736271412, 0.6205978942632911],
                  [0.0, 0.00148218350926987, 0.00148218350926987,
                   0.06570386108521764]),
}
PINNED_PLANAR = {
    "boundary_w(1)": ([1.0, 0.8935079480268481], [0.0, 0.02330023287770585]),
    "none": ([1.0, 0.242523140764203], [0.0, 0.045920170057039675]),
}
PINNED_Z_PAIRS_2 = [
    0.13127887302190447, -0.35559424972698284j, -0.01771574310495172,
    0.18811303727265716j, 0.21000110953694123j, 0.5182826924168062,
    0.1988984986877777j, -0.06586790408194262, 0.06967314517328145,
    0.4345425113284227j, -0.11438563173082192, -0.01693896892299001j,
    0.06481017584097236j, 0.5026713345776558, 0.007997455866706124j,
    -0.002506861782494008]


def test_noisy_monte_carlo_pinned(torus4, planar3):
    model = df.NoiseModel(xi_h=1.0, tau_c=2.0, dt=0.05, duration=2.5)
    ests = df.contrast_curve(torus4, model, [("none", 0), ("z_pairs", 1), ("nested", 1)],
                             [0, 1, 1, 2.5], 3, 2, 5)
    model = df.NoiseModel(xi_h=0.8, tau_c=1.0, dt=0.05, duration=2.0)
    ests += df.contrast_curve(planar3, model, [("boundary_w", 1), ("none", 0)], [0, 2],
                              3, 1, 11, sector="z", estimator="probability")
    pinned = [*PINNED_TORUS.items(), *PINNED_PLANAR.items()]
    assert [est.schedule for est in ests] == [label for label, _ in pinned]
    for est, (label, (mean, stderr)) in zip(ests, pinned):
        np.testing.assert_allclose(est.mean, mean, rtol=1e-12, err_msg=label)
        np.testing.assert_allclose(est.stderr, stderr, rtol=1e-12, err_msg=label)
    realization = df.sample_noise(df.NoiseModel(1.0, 2.0, 0.05, 3.0), torus4, [4, 0])
    sched = df.build_echo_schedule("z_pairs", 3.0, 2)
    state = df.evolve_anyon(torus4, realization, sched, 5, "x", dt=0.05)
    np.testing.assert_allclose(state, PINNED_Z_PAIRS_2, rtol=1e-12)


def test_step_stack_pieces_match_whole_segments(torus4, monkeypatch):
    model = df.NoiseModel(xi_h=1.0, tau_c=2.0, dt=0.05, duration=2.5)
    family = [("none", 0), ("z_pairs", 2)]
    whole = df.contrast_curve(torus4, model, family, [0, 1, 2.5], 2, 2, 3)
    # seven steps of the 16-cell x-sector per piece, for both trials of the chunk
    monkeypatch.setattr(df, "_STACK_BYTES", 2 * 7 * 8 * 16 * 16)
    pieces = df.contrast_curve(torus4, model, family, [0, 1, 2.5], 2, 2, 3)
    for a, b in zip(whole, pieces):
        assert np.abs(a.mean - b.mean).max() < 1e-12, a.schedule


def test_step_stack_memory_bounded(monkeypatch):
    # 500 steps of the 64-cell torus(8) x-sector in one segment (a constant
    # field sampled on 500 cells of 0.01, one step each) would be ~16 MiB
    # per stack; pieces of 32 steps keep the peak near five stacks
    budget = 1 << 20
    monkeypatch.setattr(df, "_STACK_BYTES", budget)
    t8 = lat.torus(8)
    field = np.random.default_rng(2).normal(size=t8.n_edges)
    static = df.NoiseRealization(np.repeat(field[:, None], 500, axis=1), 0.01)
    sched = df.build_echo_schedule("z_pairs", 5.0, 1)
    tracemalloc.start()
    try:
        state = df.evolve_anyon(t8, static, sched, 3, "x", dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(abs(state[3]) - 1.0) < 1e-8
    assert peak < 8 * budget, peak


def test_trial_chunks_match_one_trial_chunks(torus4, planar3, monkeypatch):
    # every trial of a chunk goes through one step loop; with one trial per
    # chunk (and so longer step pieces) the curves agree to rounding, and the
    # noise is still sampled once per trial from the stream (seed, trial)
    model = df.NoiseModel(xi_h=1.0, tau_c=2.0, dt=0.05, duration=2.5)
    planar_model = df.NoiseModel(xi_h=0.8, tau_c=1.0, dt=0.05, duration=2.0)

    def curves():
        return (df.contrast_curve(torus4, model, [("none", 0), ("z_pairs", 1), ("nested", 2)],
                                  [0.5, 1, 2.5], 5, 2, 4)
                + df.contrast_curve(planar3, planar_model, [("boundary_w", 2), ("none", 0)],
                                    [1, 2], 5, 1, 6, sector="z", estimator="probability"))

    seeds = []
    sample_noise = df._sample_noise
    monkeypatch.setattr(df, "_sample_noise",
                        lambda model, lattice, seed, **kw: seeds.append(seed)
                        or sample_noise(model, lattice, seed, **kw))
    batched = curves()
    assert seeds == [[4, k] for k in range(5)] + [[6, k] for k in range(5)]
    monkeypatch.setattr(df, "_NOISE_BYTES", 1)
    single = curves()
    assert len(seeds) == 20
    for a, b in zip(batched, single):
        assert a.schedule == b.schedule
        assert np.abs(a.mean - b.mean).max() < 1e-13, a.schedule
        assert np.abs(a.stderr - b.stderr).max() < 1e-13, a.schedule


def test_trial_chunk_memory_bounded(torus4):
    # one cell per step: 16 trials of ~1 MiB of noise each, stacked whole
    # they would take 16 MiB, but the chunks of two trials share one buffer.
    # 200 cells per step: the noise is sampled on cells 200 times as long,
    # and all 16 trials fit in one chunk
    model = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=10.0)
    for cells, chunk in ((1, 2), (200, 16)):
        dt = cells * model.dt
        sampled = df.NoiseModel(model.xi_h, model.tau_c, dt, model.duration)
        per_trial = 8 * torus4.n_edges * sampled.n_steps
        assert min(16, df._NOISE_BYTES // per_trial) == chunk, cells
        tracemalloc.start()
        try:
            est, = df.contrast_curve(torus4, model, [("none", 0)], [10.0], 16, 1, 1,
                                     estimator="probability", dt=dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < est.mean[0] < 1.0, cells
        assert peak < 3 * df._NOISE_BYTES, (cells, peak)


def test_trial_chunk_step_stack_bounded(monkeypatch):
    # one step of 32 torus(8) trials is 1 MiB of real hop matrices, and the
    # integrator holds about five such stacks; a short delay keeps the noise
    # small, so only the step budget can keep the chunk at two trials
    monkeypatch.setattr(df, "_STACK_BYTES", 64 << 10)
    t8 = lat.torus(8)
    model = df.NoiseModel(xi_h=1.0, tau_c=2.0, dt=0.05, duration=0.5)
    tracemalloc.start()
    try:
        none, z_pairs = df.contrast_curve(t8, model, [("none", 0), ("z_pairs", 1)],
                                          [0.25, 0.5], 32, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all((0.0 < none.mean) & (none.mean < z_pairs.mean) & (z_pairs.mean < 1.0))
    assert peak < 3 << 20, peak


FIG5_FAMILY = [("none", 0), ("z_pairs", 1), ("z_pairs", 4), ("z_pairs", 10)]
FIG5_TAUS = [1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 12.0]


@pytest.fixture
def count_propagators(monkeypatch):
    """The (trials, steps) shape of every step stack whose propagators are
    computed, in call order."""
    shapes = []
    propagators = df._propagators
    monkeypatch.setattr(df, "_propagators", lambda hmat: shapes.append(hmat.shape[:-2])
                        or propagators(hmat))
    return shapes


def test_fig5_family_propagators_once_per_step(torus4, count_propagators):
    # the whole family shares one step grid: the 240 noise cells up to
    # tau = 12 and 10 cells that pulses split, one propagator each per trial
    # (z pulses reuse them as complex conjugates); one grid per run would
    # take 2472
    model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05, duration=12.0)
    df.contrast_curve(torus4, model, FIG5_FAMILY, FIG5_TAUS, 3, 2, 0)
    assert all(trials == 3 for trials, _ in count_propagators)
    assert sum(steps for _, steps in count_propagators) == 250


def test_sub_cell_dt_steps_whole_cells(torus4, count_propagators):
    # default_dt is half a noise cell here, but the field is constant on a
    # cell: one step per cell, so one propagator per trial for each of the
    # 240 cells up to tau = 12 and the 4 cells that z_pairs(4) pulses split
    # at tau = 1 (halving every cell would take 480), and the curves of a
    # run at dt = cell
    model = df.NoiseModel(xi_h=2.0, tau_c=10.0, dt=0.05, duration=12.0)
    assert df.default_dt(model) == model.dt / 2
    family = [("none", 0), ("z_pairs", 1), ("z_pairs", 4)]
    taus = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    fine = df.contrast_curve(torus4, model, family, taus, 8, 2, 0)
    assert sum(trials * steps for trials, steps in count_propagators) == 8 * 244
    whole = df.contrast_curve(torus4, model, family, taus, 8, 2, 0, dt=model.dt)
    for a, b in zip(fine, whole):
        assert np.abs(a.mean - b.mean).max() < 1e-12, a.schedule


def test_static_field_steps_end_at_its_last_sample(count_propagators):
    # past its last sample the field holds, so a one-sample field on 0.01
    # cells takes one step per segment between z_pairs(1) pulses over 5.0:
    # 2 propagators, where a cell grid to the end of the run takes 500
    t8 = lat.torus(8)
    v = np.random.default_rng(0).normal(size=t8.n_edges)
    df.evolve_anyon(t8, df.NoiseRealization(v[:, None], 0.01),
                    df.build_echo_schedule("z_pairs", 5.0, 1), 0, "x", 0.01)
    assert sum(shape[-1] for shape in count_propagators) == 2


def test_cell_grid_matches_fine_noise_reference(torus4, monkeypatch):
    # z_pairs(4) at tau = 9 puts its pulses 22.5 noise cells apart.  The
    # coarse field is the middle sample of each 11 of a field sampled 11
    # times finer, so both runs see the same noise.  Equal steps between
    # pulses straddle cell boundaries, read some cells twice and skip others,
    # which biases the coarse contrast by +1.2e-2 (on 0.3); on the cell grid
    # the two agree to about 1e-3
    fine_dt = 0.05 / 11
    fine_model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=fine_dt, duration=9.1)
    sample_noise = df._sample_noise
    fine = {}

    def from_fine(model, lattice, seed, *, out):
        if tuple(seed) not in fine:
            fine[tuple(seed)] = sample_noise(fine_model, lattice, seed).values
        values = fine[tuple(seed)] if model.dt == fine_dt else fine[tuple(seed)][:, 5::11]
        out[:] = values[:, :out.shape[-1]]
        return df.NoiseRealization(out, model.dt)

    monkeypatch.setattr(df, "_sample_noise", from_fine)
    kw = dict(n_trials=16, n_particles=2, seed=11)
    coarse_model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05, duration=9.0)
    coarse, = df.contrast_curve(torus4, coarse_model, [("z_pairs", 4)], [9.0], **kw)
    reference, = df.contrast_curve(torus4, fine_model, [("z_pairs", 4)], [9.0],
                                   dt=fine_dt, **kw)
    assert abs(coarse.mean[0] - reference.mean[0]) < 4e-3, (coarse.mean, reference.mean)


def test_runs_independent_of_their_family(torus4, planar3):
    # with steps of one noise cell, the steps that other runs' pulses split
    # read the cell they split: each member alone gives its family curve
    def curves(lattice, family, taus, **kw):
        model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=max(taus))
        together = df.contrast_curve(lattice, model, family, taus, 3, 1, 2, **kw)
        alone = [df.contrast_curve(lattice, model, [member], taus, 3, 1, 2, **kw)[0]
                 for member in family]
        for a, b in zip(together, alone):
            assert a.schedule == b.schedule
            assert np.abs(a.mean - b.mean).max() < 1e-12, a.schedule

    curves(torus4, [("none", 0), ("z_pairs", 1), ("nested", 1), ("z_pairs", 3)],
           [0.7, 1.3, 2.5])
    curves(planar3, [("boundary_w", 1), ("none", 0), ("boundary_w", 2)], [1.1, 2.0],
           sector="z")


def test_trial_chunk_frame_states_bounded(torus4):
    # 200 pulsed runs of 4 particles each hold a (trials, 16, 4) complex
    # frame state: 64 trials of them would be 13 MiB, so the noise budget,
    # which also counts the frame states, keeps the chunk at 9 trials
    model = df.NoiseModel(xi_h=1.0, tau_c=2.0, dt=0.05, duration=1.0)
    taus = np.linspace(0.01, 1.0, 100)
    tracemalloc.start()
    try:
        z1, z2 = df.contrast_curve(torus4, model, [("z_pairs", 1), ("z_pairs", 2)], taus,
                                   64, 4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for est in (z1, z2):
        assert np.all((0.0 < est.mean) & (est.mean < 1.0 + 1e-12)), est.schedule
    assert peak < 2 * df._NOISE_BYTES, peak


def fast_noise_checks(lattice, seed):
    """The checks of test_fast_noise_against_master_equation at a seed: per
    delay, whether the survival probability lies within max(4 stderr, 0.02)
    of the master equation; and (the means, the reference)."""
    model = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=1.0)
    gamma = model.diffusion_rate()
    taus = np.array([0.1, 0.25, 0.5, 0.75, 1.0]) / gamma
    est, = df.contrast_curve(lattice, model, [("none", 0)], taus, n_trials=60,
                             n_particles=1, seed=seed, estimator="probability",
                             dt=model.tau_c / 4)
    reference = df.master_equation_survival(4, gamma, taus)
    dev = np.abs(est.mean - reference)
    return dev < np.maximum(4 * est.stderr, 0.02), (est.mean, reference)


def test_fast_noise_against_master_equation(torus4):
    # the true fast-noise law: classical hopping with rate Gamma per edge,
    # return contributions included (see the published-formula discussion
    # in the acceptance suite)
    ok, detail = fast_noise_checks(torus4, seed=42)
    assert np.all(ok), detail


# the criterion-6 noise with its integrator step of tau_c / 4: 5 cells
COARSE_MODEL = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=2.01)
COARSE_DT = COARSE_MODEL.tau_c / 4


def _recorded_noise(call):
    """(the value of ``call()``, [(seed, series)] for each trial whose noise
    contrast_curve sampled during the call)."""
    sample, fields = df._sample_noise, []

    def record(model, lattice, seed, *, out):
        realization = sample(model, lattice, seed, out=out)
        fields.append((seed, out.copy()))
        return realization

    df._sample_noise = record
    try:
        return call(), fields
    finally:
        df._sample_noise = sample


def test_coarse_noise_matches_circulant_reference(torus4):
    # at 5 cells per step, contrast_curve samples trial t's noise on cells
    # of 5 model.dt: the circulant-embedding series of that coarse model
    # from the stream (seed, t), and each trial integrates that field as
    # evolve_anyon does on one-cell steps
    model, dt, tau, seed = COARSE_MODEL, COARSE_DT, COARSE_MODEL.duration, 13
    assert df._cells_per_step(model.dt, dt) == 5
    sched = df.build_echo_schedule("z_pairs", tau, 1)
    (est,), fields = _recorded_noise(lambda: df.contrast_curve(
        torus4, model, [("z_pairs", 1)], [tau], 2, 1, seed, dt=dt))
    coarse = df.NoiseModel(model.xi_h, model.tau_c, 5 * model.dt, tau)
    cell = df.spread_cells(torus4, "x", 1)[0]
    survival = []
    for t, (trial_seed, values) in enumerate(fields):
        assert trial_seed == [seed, t]
        reference = oracle.circulant_noise_reference(coarse, torus4, [seed, t])
        assert values.shape == reference.shape == (torus4.n_edges, coarse.n_steps)
        assert np.max(np.abs(values - reference)) <= 1e-12
        state = df.evolve_anyon(torus4, df.NoiseRealization(reference, coarse.dt), sched,
                                cell, "x", dt)
        survival.append(abs(state[cell]))
    assert len(fields) == 2
    assert abs(est.mean[0] - np.mean(survival)) <= 1e-12, (est.mean, survival)


COARSE_LAGS = (0, 1, 2, 4, 8)


def coarse_noise_law_checks(lattice, seed):
    """The checks of test_coarse_noise_law at a seed.  contrast_curve at 5
    cells per step samples the noise of 64 trials, each on every edge;
    per lag j in COARSE_LAGS, whether the mean lag-j product of those
    series lies within 3 standard errors of xi_h^2 exp(-(j 5 dt / tau_c)^2),
    then whether their mean lies within 3 of 0; and the estimates."""
    model = COARSE_MODEL
    _, fields = _recorded_noise(lambda: df.contrast_curve(
        lattice, model, [("none", 0)], [1.0], 64, 1, seed, dt=COARSE_DT))
    series = np.concatenate([values for _, values in fields])
    cell = 5 * model.dt
    ok, detail = [], []
    for j in COARSE_LAGS:
        products = np.mean(series[:, :series.shape[1] - j] * series[:, j:], axis=1)
        est, se = products.mean(), products.std(ddof=1) / math.sqrt(products.size)
        target = model.xi_h ** 2 * math.exp(-(j * cell / model.tau_c) ** 2)
        ok.append(abs(est - target) < 3 * se)
        detail.append((j, est, target, se))
    means = series.mean(axis=1)
    ok.append(abs(means.mean()) < 3 * means.std(ddof=1) / math.sqrt(means.size))
    detail.append(("mean", means.mean()))
    return np.array(ok), detail


def test_coarse_noise_law(torus4):
    ok, detail = coarse_noise_law_checks(torus4, seed=5)
    assert np.all(ok), detail


def echo_filter_checks(lattice, seed):
    """The checks of test_echo_filter_oracle_matches_mc at a seed: per echo
    count n in (2, 4), whether the Monte Carlo log-contrast at tau = 6
    lies within 0.2 |log predicted| + 3 stderr / mean of the second-order
    filter integral's; and (n, mean, predicted) per check."""
    model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05, duration=7.0)
    tau = 6.0
    fam = [("z_pairs", 2), ("z_pairs", 4)]
    ests = df.contrast_curve(lattice, model, fam, [tau], n_trials=150,
                             n_particles=1, seed=seed)
    ok, detail = [], []
    for est, n in zip(ests, (2, 4)):
        var = oracle.echo_filter_variance(tau, n, 1.0, 10.0)
        predicted = math.exp(-0.5 * df.COORDINATION * var)
        ok.append(abs(math.log(est.mean[0]) - math.log(predicted))
                  < 0.2 * abs(math.log(predicted)) + 3 * est.stderr[0] / est.mean[0])
        detail.append((n, est.mean[0], predicted))
    return np.array(ok), detail


def test_echo_filter_oracle_matches_mc(torus4):
    # quasi-static regime: the exact second-order filter integral predicts
    # the echoed log-contrast (and exhibits the 1/n^2 dependence of the
    # equally spaced pulse train)
    ok, detail = echo_filter_checks(torus4, seed=3)
    assert np.all(ok), detail
    # the filter variance itself scales as 1/n^2 for equal spacing
    tau = 6.0
    v2 = oracle.echo_filter_variance(tau, 2, 1.0, 10.0)
    v8 = oracle.echo_filter_variance(tau, 8, 1.0, 10.0)
    assert v2 / v8 == pytest.approx(16.0, rel=0.15)


def test_analytic_contrast_forms():
    model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05, duration=1.0)
    gamma = model.diffusion_rate()
    assert gamma == pytest.approx(2 * math.sqrt(math.pi) * 1.0 / 0.2)
    t2_star, t2 = 1 / (4 * gamma), math.sqrt(10.0)
    assert df.analytic_contrast(0.0, model, "free") == 1.0
    assert df.analytic_contrast(t2_star, model, "free") == pytest.approx(math.exp(-1))
    assert df.analytic_contrast(0.0, model, "echo", 3) == 1.0
    assert df.analytic_contrast(t2, model, "echo", 1) == pytest.approx(math.exp(-1))
    tau = 2.0
    c1 = df.analytic_contrast(tau, model, "echo", 1)
    c2 = df.analytic_contrast(tau, model, "echo", 2)
    assert c2 / c1 == pytest.approx(math.exp((1 - 1 / 8) * (tau / t2) ** 4))
    assert df.analytic_survival_probability(1.0, model) == \
        pytest.approx(math.exp(-2 * 4 * gamma))
    with pytest.raises(UsageError):
        df.analytic_contrast(1.0, model, "gaussian")


def test_analytic_laws_without_field():
    # xi_h = 0 is allowed: T2* and T2 are infinite, so both laws stay at 1
    model = df.NoiseModel(xi_h=0.0, tau_c=10.0, dt=0.05, duration=1.0)
    assert df.analytic_contrast(5.0, model, "free") == 1.0
    assert df.analytic_contrast(5.0, model, "echo", 2) == 1.0
    assert df.analytic_survival_probability(5.0, model) == 1.0


def test_spread_cells(torus4):
    cells = df.spread_cells(torus4, "x", 2)
    assert len(set(cells)) == 2
    r1, c1 = divmod(cells[0], 4)
    r2, c2 = divmod(cells[1], 4)
    dist = min(abs(r1 - r2), 4 - abs(r1 - r2)) + min(abs(c1 - c2), 4 - abs(c1 - c2))
    assert dist >= 3
    with pytest.raises(UsageError):
        df.spread_cells(torus4, "x", 99)
