"""Anyon diffusion under stochastic local fields, with echo control.

Within the conserved one-particle sector the perturbation reduces to
nearest-neighbor hopping of an x-particle between faces (driven by the
sigma^x field on the shared edge) or of a z-particle between vertices
(sigma^z field).  Echo pulses anticommute with the relevant field terms, so
they enter the reduced model as sign flips of the masked hopping terms.

Noise: independent per-edge stationary Gaussian series with autocorrelation
f(t) = xi_h^2 exp(-t^2/tau_c^2), synthesized by circulant embedding on the
time grid (exact target covariance, O(T log T); Dietrich and Newsam 1997),
of which the real part is kept.  Stream layout: edge e draws 2L normals
from default_rng([*seed, e]), the first L the real parts and the next L the
imaginary parts, with L the power of two >= 2 n_steps + pad.  The real part
of that complex FFT is folded into one length-L real FFT per edge.

Integrator: piecewise-constant midpoint propagator per step; the hopping
matrix H is real symmetric, so each step's exp(-i H dt) = cos(H dt) -
i sin(H dt) is a Taylor series in (H dt)^2 truncated at rounding level,
with scaling and squaring when ||H dt|| > 1 (real matmuls only).  The one
field type, NoiseRealization, may carry a leading trial axis; every trial
then goes through the same step loop.  Long segments are evolved in pieces,
so the step stacks stay bounded.

Monte Carlo: contrast_curve builds and checks the whole schedule family
before the first trial.  It samples the noise of each trial from its own
stream straight into that trial's row of one buffer for a chunk of trials
(under _NOISE_BYTES, and one step of the chunk under _STACK_BYTES) and
evolves the chunk together.  Each run is one checkpointed integrator call: the no-pulse
schedule once over the delay grid, a pulsed train once per delay.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError, require_finite
from .lattice import ECHO_KINDS, Lattice, echo_mask

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
        require_finite(self, "xi_h")
        require_finite(self, "tau_c", "dt", "duration", positive=True)
        if self.xi_h < 0:  # the noise reads xi_h^2, but default_dt reads xi_h
            raise ConfigurationError(f"xi_h must be >= 0, got {self.xi_h!r}")

    @property
    def n_steps(self) -> int:
        """Samples per edge of a realization."""
        return int(math.ceil(self.duration / self.dt))

    def diffusion_rate(self) -> float:
        """Gamma = 2 sqrt(pi) xi_h^2 / omega_c (rate to one neighbor)."""
        return _diffusion_rate(self.xi_h, self.tau_c)


# Fields: ``at_many(times)`` returns the per-edge values at each time as an
# (..., n_edges, len(times)) array; a leading axis holds one field per trial.
# NoiseRealization is the one field type: a static field v is the one-sample
# NoiseRealization(v[:, None], dt), since the last sample holds.

@dataclass
class NoiseRealization:
    """Sampled per-edge field series; sample k lives at t = (k + 1/2) dt."""

    values: np.ndarray  # (n_edges, n_steps), or (trials, n_edges, n_steps)
    dt: float

    @property
    def n_steps(self) -> int:
        return self.values.shape[-1]

    def at_many(self, times: np.ndarray) -> np.ndarray:
        """Values at the times (all >= 0); the last sample holds beyond."""
        idx = np.minimum((times / self.dt).astype(int), self.n_steps - 1)
        return self.values[..., idx]


@functools.lru_cache(maxsize=8)
def _circulant_sqrt_spectrum(model: NoiseModel, n_steps: int) -> np.ndarray:
    """Square root of the circulant embedding's eigenvalues, length L (the
    power of two >= 2 n_steps + pad), read-only and computed once per
    (model, n_steps); a negative embedding raises on every call."""
    pad = int(math.ceil(8.0 * model.tau_c / model.dt))
    length = 1 << max(1, (2 * n_steps + pad - 1)).bit_length()
    lags = np.arange(length)
    lags = np.minimum(lags, length - lags) * model.dt
    cov = model.xi_h ** 2 * np.exp(-(lags / model.tau_c) ** 2)
    lam = np.fft.fft(cov).real
    if lam.min() < -1e-8 * max(lam.max(), 1e-300):
        raise ConfigurationError("circulant embedding not nonnegative; "
                                 "increase duration or reduce dt")
    sqrt_lam = np.sqrt(np.maximum(lam, 0.0))
    sqrt_lam.flags.writeable = False
    return sqrt_lam


def _check_noise(model: NoiseModel, lattice: Lattice) -> None:
    """The sampler's preconditions: the time step, and the realization size."""
    if model.dt > model.tau_c / 20 + 1e-15:
        raise ConfigurationError("sampler needs dt <= tau_c / 20")
    if model.n_steps * lattice.n_edges > 200_000_000:
        raise ConfigurationError("noise realization too large")


def sample_noise(model: NoiseModel, lattice: Lattice, seed, *,
                 out: np.ndarray | None = None) -> NoiseRealization:
    """Independent per-edge stationary Gaussian series with the target
    autocorrelation.

    Stream layout: edge e draws 2L standard normals from
    ``default_rng([*seed, e])``, the real parts a then the imaginary parts
    b of zeta, where L is the power of two >= 2 n_steps + pad; its series
    is the first n_steps samples of Re FFT(sqrt_lam * zeta) / sqrt(L).  So
    values[e] depends only on (seed, e, model).  With u = sqrt_lam a and
    v = sqrt_lam b, that real part is Re rfft(g) - Im rfft(g) for the real
    g = even(u) + odd(v), so each edge takes one length-L real FFT.

    out: a float64 array of shape (n_edges, n_steps) that receives the
    series and becomes the realization's values; a new one by default.
    """
    _check_noise(model, lattice)
    n_steps = model.n_steps
    shape = (lattice.n_edges, n_steps)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise UsageError(f"out must be a float64 array of shape {shape}")
    if model.xi_h == 0.0:
        out.fill(0.0)
        return NoiseRealization(out, model.dt)
    sqrt_lam = _circulant_sqrt_spectrum(model, n_steps)
    length = sqrt_lam.size
    seed_list = [int(s) for s in np.atleast_1d(np.asarray(seed, dtype=np.int64))]
    # buffers reused for every edge: the draws, scaled in place to (u, v);
    # 2 g (the 1/2 goes into the final scale); the half spectrum of g, of
    # which the first n_steps <= L / 2 samples are read
    draws = np.empty((2, length))
    u, v = draws
    g = np.empty(length)
    spec = np.empty(length // 2 + 1, dtype=np.complex128)
    for e in range(lattice.n_edges):
        np.random.default_rng(seed_list + [e]).standard_normal(out=draws)
        draws *= sqrt_lam
        g[0] = 2.0 * u[0]
        np.subtract(v[1:], v[:0:-1], out=g[1:])
        g[1:] += u[1:]
        g[1:] += u[:0:-1]
        np.fft.rfft(g, out=spec)
        np.subtract(spec.real[:n_steps], spec.imag[:n_steps], out=out[e])
    out *= 0.5 * math.sqrt(1.0 / length)
    return NoiseRealization(out, model.dt)


# -- echo schedules ----------------------------------------------------------

@dataclass(frozen=True)
class Pulse:
    time: float
    kind: str  # one of lattice.ECHO_KINDS

    def __post_init__(self):
        if not isinstance(self.time, numbers.Real):
            raise UsageError(f"time must be a number, got {self.time!r}")
        if not math.isfinite(self.time):  # UsageError, as in EchoSchedule
            raise UsageError(f"time must be finite, got {self.time!r}")
        if self.kind not in ECHO_KINDS:
            raise UsageError(f"unknown echo pulse kind {self.kind!r}")


@dataclass(frozen=True)
class EchoSchedule:
    duration: float
    pulses: tuple[Pulse, ...]

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise UsageError(f"duration must be finite and >= 0, got {self.duration!r}")
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
    boundary-masked operators, repeated n times, 16n pulses, planar only).
    """
    empty = EchoSchedule(duration, ())  # checks duration before pulses are placed
    if kind == "none":
        return empty
    if kind not in ("z_pairs", "nested", "boundary_w"):
        raise UsageError(f"unknown schedule kind {kind!r}")
    if n < 1:
        raise UsageError(f"schedule {kind} needs n >= 1, got {n}")
    if not isinstance(n, numbers.Integral):
        raise UsageError(f"schedule {kind} needs an integer n, got {n!r}")
    if kind == "z_pairs":
        step = duration / (2 * n)
        pulses = [Pulse((k + 1) * step, "z") for k in range(2 * n)]
    elif kind == "nested":
        step = duration / (4 * n)
        kinds = ("z", "x") * (2 * n)
        pulses = [Pulse((k + 1) * step, kinds[k]) for k in range(4 * n)]
    else:
        if lattice is not None and lattice.is_torus:
            raise UsageError("schedule boundary_w needs a planar lattice "
                             "(no boundary classes)")
        pulses = []
        block = duration / (4 * n)
        quarter = block / 4.0
        w_set = (("z_e", "x_e"), ("z_e", "x_o"), ("z_o", "x_e"), ("z_o", "x_o"))
        for i, (za, xb) in enumerate(w_set * n):
            t0 = i * block
            for k, pk in enumerate((za, xb, za, xb)):
                pulses.append(Pulse(t0 + (k + 1) * quarter, pk))
    # at duration 0 every pulse falls at t = 0, where each pulse kind occurs
    # an even number of times: the train is the identity
    return EchoSchedule(duration, tuple(pulses)) if duration else empty


# -- one-particle dynamics ----------------------------------------------------

def hop_structure(lattice: Lattice, sector: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n_cells, cell pair array (m, 2), edge id array (m,)) for the sector.

    Only edges interior to the sector's cell graph hop; edges touching a
    boundary would not conserve particle number and drop out.  Each hop edge
    is listed once, in edge order, as (lower cell, higher cell).
    """
    if sector not in ("x", "z"):
        raise UsageError("sector must be 'x' or 'z'")
    graph = lattice.cell_graph(sector)
    n_cells = len(graph) - 1
    hops = np.array(sorted((e, a, b) for a in range(n_cells) for e, b in graph[a]
                           if a < b < n_cells), dtype=int).reshape(-1, 3)
    return n_cells, hops[:, 1:], hops[:, 0]


class _SectorDynamics:
    """Cached hop structure and pulse masks for one (lattice, sector)."""

    def __init__(self, lattice: Lattice, sector: str):
        self.lattice = lattice
        self.sector = sector
        self.n_cells, cell_pairs, self.edge_ids = hop_structure(lattice, sector)
        # flat (row, col) index of each hop term in the hop matrix, both halves
        rows, cols = cell_pairs.T
        self.hop_bins = np.concatenate([rows * self.n_cells + cols,
                                        cols * self.n_cells + rows])
        self._masks: dict[str, np.ndarray] = {}

    def pulse_flips(self, pulse: Pulse) -> np.ndarray:
        """Hop terms flipped by a pulse: z-kind pulses anticommute with the
        sigma^x field terms (x-particle hops), x-kind with sigma^z terms."""
        if pulse.kind[0] != ("z" if self.sector == "x" else "x"):
            return np.zeros(self.edge_ids.size, dtype=bool)
        if pulse.kind not in self._masks:
            support = np.fromiter(echo_mask(self.lattice, pulse.kind), dtype=int)
            self._masks[pulse.kind] = np.isin(self.edge_ids, support)
        return self._masks[pulse.kind]


# Bytes of one real (trials, steps, n_cells, n_cells) step stack; longer
# segments are evolved in consecutive pieces of at least one step, so the
# integrator holds about five times this at most (five one-step stacks of
# one trial if such a step is larger), whatever the delay.
_STACK_BYTES = 128 << 10
# Bytes of the stacked noise series of one chunk of Monte Carlo trials;
# contrast_curve evolves a chunk together.  A chunk holds at least one
# trial, and no more trials than one step of them fits in _STACK_BYTES.
_NOISE_BYTES = 2 << 20


def _evolve_columns(dyn: _SectorDynamics, field, schedule: EchoSchedule,
                    columns: np.ndarray, dt: float, checkpoints) -> list[np.ndarray]:
    """Propagate the given column vectors, shape (..., n_cells, k), and
    record them at each of the sorted checkpoints; the last checkpoint ends
    the evolution.  A field with a leading trial axis evolves trial t of
    the columns under its own values: columns (trials, n_cells, k).

    Midpoint piecewise-constant propagator per step; the per-step
    exponentials of the real symmetric hop matrices come from
    ``_propagators`` for a whole segment at once, or in consecutive pieces
    of at most _STACK_BYTES per real step stack, accurate to rounding.
    Pulses flip the sign of their masked hop terms for all later times;
    pulse and checkpoint times are hit exactly (segment boundaries).
    """
    cp = sorted(checkpoints)
    tol = 1e-9 * max(1.0, cp[-1])
    pulse_at = {p.time: p for p in schedule.pulses}
    signs = np.ones(dyn.edge_ids.size)
    n = dyn.n_cells
    psi = columns.astype(np.complex128, copy=True)
    piece = max(1, _STACK_BYTES // (8 * n * n * math.prod(psi.shape[:-2])))  # steps
    recorded = []
    prev = 0.0
    for t in sorted({0.0, *pulse_at, *cp}):
        seg = t - prev
        if seg > tol:
            n_sub = max(1, int(math.ceil(seg / dt - 1e-9)))
            dt_sub = seg / n_sub
            for lo in range(0, n_sub, piece):
                mids = prev + (np.arange(lo, min(lo + piece, n_sub)) + 0.5) * dt_sub
                # (..., steps, hop terms): one bincount over every trial and step;
                # summed, not assigned: on torus(2) two edges join each cell pair
                h = np.swapaxes(field.at_many(mids)[..., dyn.edge_ids, :], -1, -2) * signs
                bins = np.arange(h[..., 0].size)[:, None] * (n * n) + dyn.hop_bins
                hmat = np.bincount(bins.ravel(), np.concatenate([h, h], axis=-1).ravel(),
                                   minlength=bins.shape[0] * n * n)
                psi = _ordered_product(_propagators(
                    hmat.reshape(*h.shape[:-1], n, n), dt_sub)) @ psi
        if t in pulse_at:
            signs[dyn.pulse_flips(pulse_at[t])] *= -1.0
        while len(recorded) < len(cp) and cp[len(recorded)] <= t + tol:
            recorded.append(psi.copy())
        prev = t
    return recorded


def _propagators(hmat: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) = cos A - i sin A, A = H dt, for a stack of real
    symmetric H, from the Taylor series of cos and sin truncated at degree
    m in B = A^2 and evaluated by Horner with real matmuls.

    theta, the largest row-sum norm of A over the whole stack (every
    trial and step), bounds both tails
    by theta^(2m+2) / (2m+2)! cosh(theta), and m is the least degree that
    puts this at or below 2^-53 (Moler and Van Loan 2003).  For theta > 1,
    A is halved s times first and the result squared s times.  At most
    five step-stack arrays are alive at once, counting hmat and the complex
    result as one and two; a zero H gives exactly the identity.
    """
    a = hmat * dt
    theta = float(np.abs(a).sum(axis=-1).max())
    squarings = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    if squarings:
        a *= 0.5 ** squarings
        theta *= 0.5 ** squarings
    m = 0
    while theta ** (2 * m + 2) / math.factorial(2 * m + 2) * math.cosh(theta) > 2.0 ** -53:
        m += 1
    b = a @ a
    p, q = _horner(b, [(-1) ** k / math.factorial(2 * k + 1) for k in range(m + 1)],
                   np.empty_like(a), np.empty_like(a))
    sin = np.matmul(a, p, out=q)
    cos, scratch = _horner(b, [(-1) ** k / math.factorial(2 * k) for k in range(m + 1)],
                           p, a)
    del a, b, p, q, scratch  # free B and the spare buffer before the result
    for _ in range(squarings):
        # cos 2A = cos^2 A - sin^2 A and sin 2A = 2 cos A sin A (they commute)
        cos, sin = cos @ cos - sin @ sin, 2.0 * (cos @ sin)
    props = np.empty(cos.shape, dtype=np.complex128)
    props.real = cos
    np.negative(sin, out=props.imag)
    return props


def _horner(b: np.ndarray, coefs: list[float], p: np.ndarray,
            q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k coefs[k] B^k over a stack of B, computed in the work buffers p
    and q; returns (the one holding the result, the other)."""
    n = b.shape[-1]
    if len(coefs) > 1:
        np.multiply(b, coefs[-1], out=p)
        coefs = coefs[:-1]
    else:
        p.fill(0.0)
    p.reshape(-1, n * n)[:, ::n + 1] += coefs[-1]
    for c in reversed(coefs[:-1]):
        np.matmul(b, p, out=q)
        q.reshape(-1, n * n)[:, ::n + 1] += c
        p, q = q, p
    return p, q


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Time-ordered product over the step axis of a (..., steps, n, n) stack,
    mats[..., -1, :, :] @ ... @ mats[..., 0, :, :], by pairwise reduction."""
    while mats.shape[-3] > 1:
        m = mats.shape[-3]
        half = m // 2
        paired = mats[..., 1:2 * half:2, :, :] @ mats[..., 0:2 * half:2, :, :]
        if m % 2:
            paired = np.concatenate([paired, mats[..., -1:, :, :]], axis=-3)
        mats = paired
    return mats[..., 0, :, :]


def default_dt(model: NoiseModel) -> float:
    return min(model.tau_c, 1.0 / model.xi_h if model.xi_h > 0 else model.tau_c) / 20.0


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"dt must be finite and > 0, got {dt!r}")


def evolve_anyon(lattice: Lattice, field, schedule: EchoSchedule, start_cell: int,
                 sector: str, dt: float) -> np.ndarray:
    """Integrate one particle from a basis state under the field + echoes;
    returns the complex amplitude per cell of the sector (unit norm)."""
    _check_dt(dt)
    dyn = _SectorDynamics(lattice, sector)
    if not 0 <= start_cell < dyn.n_cells:
        raise UsageError("start cell outside the sector")
    col = np.zeros((dyn.n_cells, 1), dtype=np.complex128)
    col[start_cell, 0] = 1.0
    return _evolve_columns(dyn, field, schedule, col, dt, [schedule.duration])[0][:, 0]


def spread_cells(lattice: Lattice, sector: str, n_particles: int) -> list[int]:
    """Deterministic far-separated start cells (row-major stride plus a
    half-lattice column shift on alternating picks)."""
    n_cells, _, _ = hop_structure(lattice, sector)
    if not (isinstance(n_particles, numbers.Integral) and 1 <= n_particles <= n_cells):
        raise UsageError(f"n_particles must be in 1..{n_cells}, got {n_particles!r}")
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
                   dt: float | None = None
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
    if taus.size == 0 or not np.isfinite(taus).all() or taus.min() < 0:
        raise UsageError(f"tau_grid must be finite and non-negative, got {list(tau_grid)!r}")
    t_max = float(taus.max())
    cells = spread_cells(lattice, sector, n_particles)
    if dt is None:
        dt = default_dt(model)
    _check_dt(dt)
    run_model = NoiseModel(model.xi_h, model.tau_c, model.dt,
                           max(t_max, model.dt) * (1 + 1e-12))
    dyn = _SectorDynamics(lattice, sector)
    columns = np.zeros((dyn.n_cells, len(cells)))
    for j, c in enumerate(cells):
        columns[c, j] = 1.0

    # each member is (label, runs); a run is (schedule, its checkpoint delays).
    # A pulsed train scales with its delay, so it takes one run per delay.
    family = []
    for kind, n in schedule_family:
        if kind == "none":
            family.append(("none", [(build_echo_schedule("none", t_max), taus)]))
        else:
            family.append((f"{kind}({n})", [(build_echo_schedule(kind, tau, n, lattice),
                                             [tau]) for tau in taus]))
    # the trials of a chunk are evolved together, each sampled straight into
    # its row of one buffer that every chunk reuses (allocated once the
    # sampler's checks have passed)
    _check_noise(run_model, lattice)
    chunk = min(n_trials, max(1, min(
        _NOISE_BYTES // (8 * lattice.n_edges * run_model.n_steps),
        _STACK_BYTES // (8 * dyn.n_cells * dyn.n_cells))))
    values = np.empty((chunk, lattice.n_edges, run_model.n_steps))
    samples = np.zeros((len(family), n_trials, taus.size))
    for lo in range(0, n_trials, chunk):
        trials = range(lo, min(lo + chunk, n_trials))
        for i, trial in enumerate(trials):
            sample_noise(run_model, lattice, [seed, trial], out=values[i])
        realization = NoiseRealization(values[:len(trials)], run_model.dt)
        psi = np.broadcast_to(columns, (len(trials), *columns.shape))
        for rows, (_, runs) in zip(samples[:, lo:trials.stop], family):
            rows[:] = np.stack([_contrast_sample(blk, cells, estimator)
                                for sched, delays in runs
                                for blk in _evolve_columns(dyn, realization, sched, psi,
                                                           dt, delays)], axis=-1)
    out = []
    for (label, _), data in zip(family, samples):
        mean = data.mean(axis=0)
        stderr = data.std(axis=0, ddof=1) / math.sqrt(n_trials) if n_trials > 1 \
            else np.zeros(taus.size)
        out.append(ContrastEstimate(taus, mean, stderr, n_trials, label, estimator))
    return out


def _contrast_sample(block: np.ndarray, cells, estimator: str) -> np.ndarray:
    """Per-trial contrast samples of a (trials, n_cells, particles) block."""
    surv = np.abs(block[:, cells, range(len(cells))])
    if estimator == "probability":
        surv = surv ** 2
    return np.prod(surv, axis=-1)


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

    def __post_init__(self):
        require_finite(self, "xi_h")
        require_finite(self, "tau_c", "z", "t2_scale", positive=True)
        if self.xi_h < 0:
            raise ConfigurationError(f"xi_h must be >= 0, got {self.xi_h!r}")

    @property
    def gamma(self) -> float:
        return _diffusion_rate(self.xi_h, self.tau_c)

    # without a field nothing decays: both times are infinite at xi_h = 0
    @property
    def t2_star(self) -> float:
        return 1.0 / (self.z * self.gamma) if self.xi_h > 0 else math.inf

    @property
    def t2(self) -> float:
        return self.t2_scale * math.sqrt(self.tau_c / self.xi_h) if self.xi_h > 0 \
            else math.inf


def analytic_contrast(tau: float, params: DiffusionParams, kind: str = "free",
                      n: int = 1) -> float:
    """Reference decay laws: free running exp(-tau/T2*), n echo pairs
    exp(-(tau/T2)^4 / n^3)."""
    if not 0 <= tau < math.inf:
        raise UsageError(f"tau must be finite and >= 0, got {tau!r}")
    if kind == "free":
        return math.exp(-tau / params.t2_star)
    if kind == "echo":
        if n < 1:
            raise UsageError("echo law needs n >= 1")
        return math.exp(-((tau / params.t2) ** 4) / n ** 3)
    raise UsageError(f"unknown analytic kind {kind!r}")


def analytic_survival_probability(tau: float, params: DiffusionParams) -> float:
    """Published fast-noise survival probability exp(-2 z Gamma tau)."""
    if not 0 <= tau < math.inf:
        raise UsageError(f"tau must be finite and >= 0, got {tau!r}")
    return math.exp(-2.0 * params.z * params.gamma * tau)


def master_equation_survival(n: int, gamma: float, tau) -> np.ndarray:
    """Classical return probability on the N x N torus with hop rate gamma.

    Exact rate-matrix solution: P0(t) = mean over lattice momenta of
    exp(-gamma * lambda_jk * t) with lambda_jk = 4 - 2cos - 2cos.  This is
    the fast-noise limit of the averaged quantum survival probability,
    return contributions included.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n!r}")
    if not 0 <= gamma < math.inf:
        raise UsageError(f"gamma must be finite and >= 0, got {gamma!r}")
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all((tau >= 0) & (tau < math.inf)):
        raise UsageError(f"tau must be finite and non-negative, got {tau.tolist()!r}")
    j = 2.0 * np.pi * np.arange(n) / n
    lam = 4.0 - 2.0 * np.cos(j)[:, None] - 2.0 * np.cos(j)[None, :]
    out = np.exp(-gamma * lam.reshape(-1)[:, None] * tau[None, :]).mean(axis=0)
    return out
