"""Anyon diffusion under stochastic local fields, with echo control.

Within the conserved one-particle sector the perturbation reduces to
nearest-neighbor hopping of an x-particle between faces (driven by the
sigma^x field on the shared edge) or of a z-particle between vertices
(sigma^z field).  Echo pulses anticommute with the relevant field terms, so
they enter the reduced model as sign flips of the masked hopping terms.

Noise: independent per-edge stationary Gaussian series with autocorrelation
f(t) = xi_h^2 exp(-t^2/tau_c^2), synthesized by circulant embedding on the
time grid (exact target covariance, O(T log T)).

Integrator: piecewise-constant midpoint propagator per step; the hopping
matrix is real symmetric, so each step is an exact small eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .lattice import Lattice, echo_mask

COORDINATION = 4  # square lattice


def _diffusion_rate(xi_h: float, tau_c: float) -> float:
    """Gamma = 2 sqrt(pi) xi_h^2 / omega_c with omega_c = 2 / tau_c."""
    return 2.0 * math.sqrt(math.pi) * xi_h ** 2 / (2.0 / tau_c)


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian-correlated field: amplitude xi_h, correlation time tau_c,
    sampling step dt, total duration.  Fields on different edges are always
    independent."""

    xi_h: float
    tau_c: float
    dt: float
    duration: float

    def __post_init__(self):
        for name in ("xi_h", "tau_c", "dt", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.tau_c <= 0 or self.dt <= 0 or self.duration <= 0:
            raise ConfigurationError("tau_c, dt and duration must be positive")

    def diffusion_rate(self) -> float:
        """Gamma = 2 sqrt(pi) xi_h^2 / omega_c (rate to one neighbor)."""
        return _diffusion_rate(self.xi_h, self.tau_c)


# Fields: ``at_many(times)`` returns the per-edge values at each time as an
# (n_edges, len(times)) array.

@dataclass
class NoiseRealization:
    """Sampled per-edge field series; sample k lives at t = (k + 1/2) dt."""

    values: np.ndarray  # (n_edges, n_steps)
    dt: float
    model: NoiseModel

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def at_many(self, times: np.ndarray) -> np.ndarray:
        idx = np.clip((times / self.dt).astype(int), 0, self.n_steps - 1)
        return self.values[:, idx]


@dataclass(frozen=True)
class StaticField:
    """Time-independent per-edge field (exact-refocusing tests)."""

    edge_values: np.ndarray

    def at_many(self, times: np.ndarray) -> np.ndarray:
        return np.repeat(self.edge_values[:, None], len(times), axis=1)


@dataclass(frozen=True)
class CallableField:
    """Smooth deterministic field t -> per-edge vector (integrator checks)."""

    fn: object

    def at_many(self, times: np.ndarray) -> np.ndarray:
        return np.stack([self.fn(t) for t in times], axis=1)


def _circulant_sqrt_spectrum(model: NoiseModel, n_steps: int) -> np.ndarray:
    pad = int(math.ceil(8.0 * model.tau_c / model.dt))
    length = 1 << max(1, (2 * n_steps + pad - 1)).bit_length()
    lags = np.arange(length)
    lags = np.minimum(lags, length - lags) * model.dt
    cov = model.xi_h ** 2 * np.exp(-(lags / model.tau_c) ** 2)
    lam = np.fft.fft(cov).real
    if lam.min() < -1e-8 * max(lam.max(), 1e-300):
        raise ConfigurationError("circulant embedding not nonnegative; "
                                 "increase duration or reduce dt")
    return np.sqrt(np.maximum(lam, 0.0))


def sample_noise(model: NoiseModel, lattice: Lattice, seed) -> NoiseRealization:
    """Independent per-edge stationary Gaussian series with the target
    autocorrelation.  Edge e uses the dedicated stream (seed, e), so a
    realization is reproducible per (seed, edge id)."""
    if model.dt > model.tau_c / 20 + 1e-15:
        raise ConfigurationError("sampler needs dt <= tau_c / 20")
    n_steps = int(math.ceil(model.duration / model.dt))
    if n_steps * lattice.n_edges > 200_000_000:
        raise ConfigurationError("noise realization too large")
    if model.xi_h == 0.0:
        return NoiseRealization(np.zeros((lattice.n_edges, n_steps)), model.dt, model)
    sqrt_lam = _circulant_sqrt_spectrum(model, n_steps)
    length = sqrt_lam.size
    seed_list = list(np.atleast_1d(np.asarray(seed, dtype=np.int64)))
    values = np.empty((lattice.n_edges, n_steps))
    for e in range(lattice.n_edges):
        rng = np.random.default_rng([int(s) for s in seed_list] + [e])
        zeta = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        series = np.fft.fft(sqrt_lam * zeta).real * math.sqrt(1.0 / length)
        values[e] = series[:n_steps]
    return NoiseRealization(values, model.dt, model)


# -- echo schedules ----------------------------------------------------------

@dataclass(frozen=True)
class Pulse:
    time: float
    kind: str  # one of z, x, z_e, z_o, x_e, x_o
    edges: frozenset[int] | None = None  # resolved lazily from the lattice


@dataclass(frozen=True)
class EchoSchedule:
    duration: float
    pulses: tuple[Pulse, ...]
    label: str = ""

    def __post_init__(self):
        times = [p.time for p in self.pulses]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise UsageError("pulse times must be strictly increasing")
        if times and (times[0] <= 0 or times[-1] > self.duration + 1e-12):
            raise UsageError("pulse times must lie within (0, duration]")


def build_echo_schedule(kind: str, duration: float, n: int = 1,
                        lattice: Lattice | None = None) -> EchoSchedule:
    """Pulse schedules from the reference sequences.

    kind "none"; "z_pairs" (2n equally spaced global z pulses, the n = 1
    case hits tau/2 and tau); "nested" (alternating z/x at quarter-period
    marks, 4n pulses); "boundary_w" (the four-block W sequence with
    boundary-masked operators, planar only).
    """
    if kind == "none":
        return EchoSchedule(duration, (), "none")
    if n < 1:
        raise UsageError("pulsed schedules need n >= 1")
    if kind == "z_pairs":
        step = duration / (2 * n)
        pulses = tuple(Pulse((k + 1) * step, "z") for k in range(2 * n))
        return EchoSchedule(duration, pulses, f"z_pairs({n})")
    if kind == "nested":
        step = duration / (4 * n)
        kinds = ("z", "x") * (2 * n)
        pulses = tuple(Pulse((k + 1) * step, kinds[k]) for k in range(4 * n))
        return EchoSchedule(duration, pulses, f"nested({n})")
    if kind == "boundary_w":
        if lattice is not None and lattice.is_torus:
            raise UsageError("boundary_w needs a planar lattice (no boundary classes)")
        pulses = []
        block = duration / 4.0
        for i, (za, xb) in enumerate((("z_e", "x_e"), ("z_e", "x_o"),
                                      ("z_o", "x_e"), ("z_o", "x_o"))):
            t0 = i * block
            quarter = block / 4.0
            for k, pk in enumerate((za, xb, za, xb)):
                pulses.append(Pulse(t0 + (k + 1) * quarter, pk))
        return EchoSchedule(duration, tuple(pulses), "boundary_w")
    raise UsageError(f"unknown schedule kind {kind!r}")


# -- one-particle dynamics ----------------------------------------------------

@dataclass
class HoppingState:
    """Complex amplitude per cell of the chosen sector (unit norm)."""

    sector: str
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def survival(state: HoppingState, start_cell: int) -> complex:
    """Amplitude remaining at the start cell."""
    return complex(state.amplitudes[start_cell])


def hop_structure(lattice: Lattice, sector: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n_cells, cell pair array (m, 2), edge id array (m,)) for the sector.

    Only edges interior to the sector's cell graph hop; edges touching a
    boundary would not conserve particle number and drop out.
    """
    if sector == "x":
        n_cells, pairs = lattice.n_faces, lattice.edge_faces
    elif sector == "z":
        n_cells, pairs = lattice.n_vertices, lattice.edge_vertices
    else:
        raise UsageError("sector must be 'x' or 'z'")
    cell_pairs = []
    edge_ids = []
    for e in range(lattice.n_edges):
        a, b = pairs[e]
        if a is not None and b is not None and a != b:
            cell_pairs.append((a, b))
            edge_ids.append(e)
    return n_cells, np.array(cell_pairs, dtype=int), np.array(edge_ids, dtype=int)


class _SectorDynamics:
    """Cached hop structure and pulse masks for one (lattice, sector)."""

    def __init__(self, lattice: Lattice, sector: str):
        self.lattice = lattice
        self.sector = sector
        self.n_cells, cell_pairs, self.edge_ids = hop_structure(lattice, sector)
        self.rows = cell_pairs[:, 0]
        self.cols = cell_pairs[:, 1]
        self._masks: dict[str, np.ndarray] = {}

    def pulse_flips(self, pulse: Pulse) -> np.ndarray:
        """Hop terms flipped by a pulse: z-kind pulses anticommute with the
        sigma^x field terms (x-particle hops), x-kind with sigma^z terms."""
        if pulse.kind.split("_")[0] != ("z" if self.sector == "x" else "x"):
            return np.zeros(self.edge_ids.size, dtype=bool)
        if pulse.edges is not None:
            support = np.fromiter(pulse.edges, dtype=int)
            return np.isin(self.edge_ids, support)
        if pulse.kind not in self._masks:
            support = np.fromiter(echo_mask(self.lattice, pulse.kind), dtype=int)
            self._masks[pulse.kind] = np.isin(self.edge_ids, support)
        return self._masks[pulse.kind]


def _evolve_columns(dyn: _SectorDynamics, field, schedule: EchoSchedule,
                    duration: float, columns: np.ndarray, dt: float,
                    checkpoints=None) -> list[np.ndarray]:
    """Propagate the given column vectors; optionally record at checkpoints.

    Midpoint piecewise-constant propagator per step, exact per-step
    exponential via eigendecomposition of the real symmetric hop matrix.
    Pulses flip the sign of their masked hop terms for all later times;
    pulse and checkpoint times are hit exactly (segment boundaries).
    """
    tol = 1e-9 * max(1.0, duration)
    pulse_at = {p.time: p for p in schedule.pulses if p.time <= duration + tol}
    cp = sorted(t for t in (checkpoints if checkpoints is not None else []))
    events = sorted(set(pulse_at) | set(cp) | {duration})
    signs = np.ones(dyn.edge_ids.size)
    psi = columns.astype(np.complex128, copy=True)
    recorded = []
    cp_idx = 0

    def record(t):
        nonlocal cp_idx
        while cp_idx < len(cp) and cp[cp_idx] <= t + tol:
            recorded.append(psi.copy())
            cp_idx += 1

    record(0.0)
    prev = 0.0
    for t in events:
        seg = t - prev
        if seg > tol:
            n_sub = max(1, int(math.ceil(seg / dt - 1e-9)))
            dt_sub = seg / n_sub
            mids = prev + (np.arange(n_sub) + 0.5) * dt_sub
            h_all = field.at_many(mids)[dyn.edge_ids] * signs[:, None]
            hmat = np.zeros((n_sub, dyn.n_cells, dyn.n_cells))
            ks = np.arange(n_sub)[:, None]
            hmat[ks, dyn.rows[None, :], dyn.cols[None, :]] = h_all.T
            hmat[ks, dyn.cols[None, :], dyn.rows[None, :]] = h_all.T
            evals, evecs = np.linalg.eigh(hmat)
            phases = np.exp(-1j * evals * dt_sub)
            # per-step propagator U = V diag(phase) V^T, then ordered product
            props = (evecs * phases[:, None, :]) @ np.transpose(evecs, (0, 2, 1))
            psi = _ordered_product(props) @ psi
        if t in pulse_at:
            signs[dyn.pulse_flips(pulse_at[t])] *= -1.0
        record(t)
        prev = t
    return recorded if checkpoints is not None else [psi]


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Time-ordered product mats[-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        half = m // 2
        paired = mats[1:2 * half:2] @ mats[0:2 * half:2]
        if m % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def default_dt(model: NoiseModel) -> float:
    return min(model.tau_c, 1.0 / model.xi_h if model.xi_h > 0 else model.tau_c) / 20.0


def evolve_anyon(lattice: Lattice, field, schedule: EchoSchedule, start_cell: int,
                 sector: str, dt: float) -> HoppingState:
    """Integrate one particle from a basis state under the field + echoes."""
    dyn = _SectorDynamics(lattice, sector)
    if not 0 <= start_cell < dyn.n_cells:
        raise UsageError("start cell outside the sector")
    col = np.zeros((dyn.n_cells, 1), dtype=np.complex128)
    col[start_cell, 0] = 1.0
    out = _evolve_columns(dyn, field, schedule, schedule.duration, col, dt)
    return HoppingState(sector, out[0][:, 0])


def spread_cells(lattice: Lattice, sector: str, n_particles: int) -> list[int]:
    """Deterministic far-separated start cells (row-major stride plus a
    half-lattice column shift on alternating picks)."""
    n_cells, _, _ = hop_structure(lattice, sector)
    if n_particles > n_cells:
        raise UsageError("more particles than cells")
    cells = []
    for k in range(n_particles):
        base = (k * n_cells) // n_particles
        shift = (k * (lattice.size // 2)) % max(1, lattice.size)
        cells.append((base + shift) % n_cells)
    return cells


@dataclass(frozen=True)
class ContrastEstimate:
    """Monte Carlo fringe-contrast curve for one schedule family member."""

    tau: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_trials: int
    schedule: str
    estimator: str = "amplitude"


def contrast_curve(lattice: Lattice, model: NoiseModel, schedule_family,
                   tau_grid, n_trials: int, n_particles: int, seed: int,
                   sector: str = "x", estimator: str = "amplitude",
                   start_cells=None, dt: float | None = None
                   ) -> list[ContrastEstimate]:
    """Monte Carlo contrast versus delay for each schedule in the family.

    schedule_family: list of (kind, n) pairs, e.g. [("none", 0),
    ("z_pairs", 1), ("z_pairs", 4)].  Per trial, all particles and all
    schedules share one noise realization; the contrast sample is the
    product over particles of |survival| ("amplitude" estimator) or
    |survival|^2 ("probability").  Deterministic per seed: trial k uses the
    noise stream (seed, k).
    """
    if n_trials < 1:
        raise UsageError("need at least one trial")
    if estimator not in ("amplitude", "probability"):
        raise UsageError("estimator must be 'amplitude' or 'probability'")
    taus = np.asarray(sorted(tau_grid), dtype=float)
    if taus.size == 0 or taus.min() < 0:
        raise UsageError("tau grid must be non-negative")
    t_max = float(taus.max())
    cells = list(start_cells) if start_cells is not None else \
        spread_cells(lattice, sector, n_particles)
    if dt is None:
        dt = default_dt(model)
    run_model = NoiseModel(model.xi_h, model.tau_c, model.dt,
                           max(t_max, model.dt) * (1 + 1e-12))
    dyn = _SectorDynamics(lattice, sector)
    columns = np.zeros((dyn.n_cells, len(cells)))
    for j, c in enumerate(cells):
        columns[c, j] = 1.0

    samples = {lab: np.zeros((n_trials, taus.size))
               for lab in [_family_label(k, n) for k, n in schedule_family]}
    for trial in range(n_trials):
        realization = sample_noise(run_model, lattice, [seed, trial])
        for kind, n in schedule_family:
            lab = _family_label(kind, n)
            row = samples[lab][trial]
            if kind == "none":
                blocks = _evolve_columns(dyn, realization,
                                         EchoSchedule(t_max, (), "none"),
                                         t_max, columns, dt, checkpoints=taus)
                for i, blk in enumerate(blocks):
                    row[i] = _contrast_sample(blk, cells, estimator)
            else:
                for i, tau in enumerate(taus):
                    if tau == 0.0:
                        row[i] = 1.0
                        continue
                    sched = build_echo_schedule(kind, float(tau), n, lattice)
                    blk = _evolve_columns(dyn, realization, sched,
                                          float(tau), columns, dt)[0]
                    row[i] = _contrast_sample(blk, cells, estimator)
    out = []
    for kind, n in schedule_family:
        lab = _family_label(kind, n)
        data = samples[lab]
        mean = data.mean(axis=0)
        stderr = data.std(axis=0, ddof=1) / math.sqrt(n_trials) if n_trials > 1 \
            else np.zeros(taus.size)
        out.append(ContrastEstimate(taus, mean, stderr, n_trials, lab, estimator))
    return out


def _family_label(kind: str, n: int) -> str:
    return "none" if kind == "none" else f"{kind}({n})"


def _contrast_sample(block: np.ndarray, cells, estimator: str) -> float:
    surv = np.abs(block[cells, range(len(cells))])
    if estimator == "probability":
        surv = surv ** 2
    return float(np.prod(surv))


# -- closed forms -------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionParams:
    """Inputs of the analytic contrast laws.  t2_scale calibrates
    T2 = t2_scale * sqrt(tau_c / xi_h) (the scaling is exact only up to a
    constant, fitted once from Monte Carlo at n = 1)."""

    xi_h: float
    tau_c: float
    z: int = COORDINATION
    t2_scale: float = 1.0

    @property
    def gamma(self) -> float:
        return _diffusion_rate(self.xi_h, self.tau_c)

    @property
    def t2_star(self) -> float:
        return 1.0 / (self.z * self.gamma)

    @property
    def t2(self) -> float:
        return self.t2_scale * math.sqrt(self.tau_c / self.xi_h)


def analytic_contrast(tau: float, params: DiffusionParams, kind: str = "free",
                      n: int = 1) -> float:
    """Reference decay laws: free running exp(-tau/T2*), n echo pairs
    exp(-(tau/T2)^4 / n^3)."""
    if kind == "free":
        return math.exp(-tau / params.t2_star)
    if kind == "echo":
        if n < 1:
            raise UsageError("echo law needs n >= 1")
        return math.exp(-((tau / params.t2) ** 4) / n ** 3)
    raise UsageError(f"unknown analytic kind {kind!r}")


def analytic_survival_probability(tau: float, params: DiffusionParams) -> float:
    """Published fast-noise survival probability exp(-2 z Gamma tau)."""
    return math.exp(-2.0 * params.z * params.gamma * tau)


def master_equation_survival(n: int, gamma: float, tau) -> np.ndarray:
    """Classical return probability on the N x N torus with hop rate gamma.

    Exact rate-matrix solution: P0(t) = mean over lattice momenta of
    exp(-gamma * lambda_jk * t) with lambda_jk = 4 - 2cos - 2cos.  This is
    the fast-noise limit of the averaged quantum survival probability,
    return contributions included.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    j = 2.0 * np.pi * np.arange(n) / n
    lam = 4.0 - 2.0 * np.cos(j)[:, None] - 2.0 * np.cos(j)[None, :]
    out = np.exp(-gamma * lam.reshape(-1)[:, None] * tau[None, :]).mean(axis=0)
    return out
