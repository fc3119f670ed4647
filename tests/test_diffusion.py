import math
import tracemalloc
import warnings

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
    # out= receives the same series; a wrong buffer is refused
    buf = np.full((2, *r1.values.shape), np.nan)
    row = buf[1]
    assert df.sample_noise(model, torus4, 123, out=row).values is row
    assert np.array_equal(row, r1.values) and np.isnan(buf[0]).all()
    for bad in (buf[:, 0], buf[1].astype(np.float32)):
        with pytest.raises(UsageError, match="out must be"):
            df.sample_noise(model, torus4, 123, out=bad)
    r3 = df.sample_noise(model, torus4, 124)
    assert not np.array_equal(r1.values, r3.values)
    # edges carry independent streams
    assert not np.array_equal(r1.values[0], r1.values[1])


def test_zero_amplitude_noise(torus4):
    model = df.NoiseModel(xi_h=0.0, tau_c=1.0, dt=0.05, duration=2.0)
    r = df.sample_noise(model, torus4, 0)
    assert np.all(r.values == 0)
    assert np.all(df.sample_noise(model, torus4, 0, out=np.ones_like(r.values)).values == 0)
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
    props = df._propagators(hmat, dt)
    assert np.abs(props - _exact_propagators(hmat, dt)).max() < 1e-13
    n = hmat.shape[-1]
    drift = props @ np.conj(np.transpose(props, (0, 2, 1))) - np.eye(n)
    assert np.abs(drift).max() <= 1e-13
    if theta == 0.0:
        assert np.array_equal(props, np.broadcast_to(np.eye(n), props.shape))


class CallableField:
    """A smooth deterministic field t -> per-edge vector, read through the
    integrator's ``at_many`` interface."""

    def __init__(self, fn):
        self.fn = fn

    def at_many(self, times):
        return np.stack([self.fn(t) for t in times], axis=1)


def test_integrator_convergence(torus4):
    smooth = CallableField(lambda t: 0.3 * np.sin(1.7 * t + np.arange(torus4.n_edges)))
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
    with pytest.raises(UsageError):
        df.contrast_curve(torus4, model, [("none", 0)], [1.0], 2, 1, 0,
                          estimator="median")


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
        "analytic_contrast": (df.analytic_contrast, dict(
            tau=1.0, params=df.DiffusionParams(1.0, 10.0), kind="free")),
        "analytic_survival_probability": (df.analytic_survival_probability, dict(
            tau=1.0, params=df.DiffusionParams(1.0, 10.0))),
        "master_equation_survival": (df.master_equation_survival,
                                     dict(n=4, gamma=1.0, tau=[1.0])),
        "Pulse": (df.Pulse, dict(time=0.5, kind="z")),
        "spread_cells": (df.spread_cells, dict(lattice=lattice, sector="x", n_particles=1)),
    }


# (entry point, parameter, bad value)
BAD_DIFFUSION_INPUTS = [
    *[("contrast_curve", "dt", v) for v in (-1.0, 0.0, math.nan, math.inf)],
    *[("contrast_curve", "n_particles", v) for v in (0, -1)],
    *[("evolve_anyon", "dt", v) for v in (-0.1, 0.0, math.nan, -math.inf)],
    *[("contrast_curve", "tau_grid", [v]) for v in (math.nan, math.inf, -math.inf)],
    *[("build_echo_schedule", "duration", v) for v in (math.nan, math.inf, -1.0)],
    *[("build_echo_schedule", "n", v) for v in (1.5, math.nan)],
    *[(entry, "tau", v) for entry in ("analytic_contrast", "analytic_survival_probability")
      for v in (-1.0, math.nan, math.inf)],
    *[("master_equation_survival", "gamma", v) for v in (-1.0, math.nan, math.inf)],
    *[("master_equation_survival", "n", v) for v in (0, -2)],
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

    monkeypatch.setattr(df, "sample_noise", no_noise)
    fn, kwargs = _diffusion_calls(torus4)[entry]
    kwargs[param] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=rf"\b{param}\b"):
            fn(**kwargs)


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

    monkeypatch.setattr(df, "sample_noise", no_noise)
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
    "nested(1)": ([1.0, 0.9966653736271409, 0.9966653736271409, 0.6433702553150676],
                  [0.0, 0.0014821835092700669, 0.0014821835092700669,
                   0.06405050746659922]),
}
PINNED_PLANAR = {
    "boundary_w(1)": ([1.0, 0.8933612168583812], [0.0, 0.02331991718986201]),
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
    # 500 steps of the 64-cell torus(8) x-sector in one segment would be
    # ~16 MiB per stack; pieces of 32 steps keep the peak near five stacks
    budget = 1 << 20
    monkeypatch.setattr(df, "_STACK_BYTES", budget)
    t8 = lat.torus(8)
    field = np.random.default_rng(2).normal(size=t8.n_edges)
    static = df.NoiseRealization(field[:, None], 1.0)
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
    sample_noise = df.sample_noise
    monkeypatch.setattr(df, "sample_noise",
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
    # 16 trials of ~1 MiB of noise each: stacked whole they would take 16 MiB,
    # but the chunks of two trials share one buffer
    model = df.NoiseModel(xi_h=0.5, tau_c=0.05, dt=0.0025, duration=10.0)
    per_trial = 8 * torus4.n_edges * model.n_steps
    assert df._NOISE_BYTES // per_trial == 2
    tracemalloc.start()
    try:
        est, = df.contrast_curve(torus4, model, [("none", 0)], [10.0], 16, 1, 1,
                                 estimator="probability", dt=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < est.mean[0] < 1.0
    assert peak < 3 * df._NOISE_BYTES, peak


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


def test_analytic_laws_without_field():
    # xi_h = 0 is allowed: nothing decays, so both laws stay at 1
    params = df.DiffusionParams(xi_h=0.0, tau_c=10.0)
    assert params.t2 == params.t2_star == math.inf
    assert df.analytic_contrast(5.0, params, "free") == 1.0
    assert df.analytic_contrast(5.0, params, "echo", 2) == 1.0


def test_spread_cells(torus4):
    cells = df.spread_cells(torus4, "x", 2)
    assert len(set(cells)) == 2
    r1, c1 = divmod(cells[0], 4)
    r2, c2 = divmod(cells[1], 4)
    dist = min(abs(r1 - r2), 4 - abs(r1 - r2)) + min(abs(c1 - c2), 4 - abs(c1 - c2))
    assert dist >= 3
    with pytest.raises(UsageError):
        df.spread_cells(torus4, "x", 99)
