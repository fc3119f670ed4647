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
then goes through the same step loop.  All runs of a family share one step
grid: the noise-cell boundaries of the field plus every pulse time and
checkpoint of every run.  A step spans max(1, floor(dt / cell)) whole
cells, split where a pulse or checkpoint falls inside it, so a step never
straddles a pulse (the field is constant on a cell, so a shorter step would
only repeat a propagator).  Each step's propagator is computed once per
sign pattern of the hop terms, a pattern and its negation sharing it as
complex conjugates (on a torus a z pulse flips every hop).  Each pattern
keeps one running prefix product Q, and a run holds only its state phi
in that frame (psi = Q phi), changed with two small matmuls at each of its
pulses and read at its checkpoints.  The grid is evolved in pieces, so
the step stacks stay bounded.  The closed forms read a NoiseModel.

Monte Carlo: contrast_curve builds and checks the whole schedule family
before the first trial.  A step reads only the cell at its midpoint, so
the noise is sampled on cells of a step's length, k model.dt with k =
max(1, floor(dt / model.dt)): a stationary series sampled at spacing
k model.dt has the kernel's covariance at those lags, which the circulant
embedding reproduces exactly, and at k = 1 every stream is the one
sample_noise draws for the model.  The resolution check reads model.dt,
the size and non-negativity checks the sampled grid.  It samples the
noise of each trial from its own stream straight into that trial's row of one buffer for a chunk of trials
(its noise and run frame states under _NOISE_BYTES, and one step of the
chunk under _STACK_BYTES) and evolves the chunk together: one integrator
pass over the shared grid, one cell per step, carries the no-pulse
schedule over the whole delay grid and each pulsed train at each delay.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError, require
from .lattice import ECHO_KINDS, Lattice, echo_mask

COORDINATION = 4  # square lattice


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
        # the noise reads xi_h^2 (a finite float up to xi_h = 1e154), but
        # default_dt reads xi_h
        require(self.xi_h, "xi_h", ge=0, le=1e154, error=ConfigurationError)
        for name in ("tau_c", "dt", "duration"):
            require(getattr(self, name), name, gt=0, error=ConfigurationError)

    @property
    def n_steps(self) -> int:
        """Samples per edge of a realization."""
        return int(math.ceil(self.duration / self.dt))

    def diffusion_rate(self) -> float:
        """Gamma = 2 sqrt(pi) xi_h^2 / omega_c with omega_c = 2 / tau_c (rate
        to one neighbor)."""
        return 2.0 * math.sqrt(math.pi) * self.xi_h ** 2 / (2.0 / self.tau_c)


# Fields: ``at_many(times)`` returns the per-edge values at each time as an
# (..., n_edges, len(times)) array; a leading axis holds one field per trial.
# ``dt`` is the length of the cells the values are constant on, and the
# integrator's steps lie on that cell grid; past its first ``n_steps`` cells
# the field holds its last value.
# NoiseRealization is the one field type: a static field v is the one-sample
# NoiseRealization(v[:, None], dt), since the last sample holds.

@dataclass
class NoiseRealization:
    """Sampled per-edge field series; sample k lives at t = (k + 1/2) dt."""

    values: np.ndarray  # (n_edges, n_steps), or (trials, n_edges, n_steps)
    dt: float

    def __post_init__(self):
        require(self.dt, "dt", gt=0, error=ConfigurationError)
        if np.ndim(self.values) < 2 or np.size(self.values) == 0:
            raise ConfigurationError("values must have an edge axis and a sample axis "
                                     f"and hold a sample, got shape {np.shape(self.values)}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[-1]

    def at_many(self, times: np.ndarray) -> np.ndarray:
        """Values at the times (all >= 0); the last sample holds beyond."""
        idx = np.minimum((times / self.dt).astype(int), self.n_steps - 1)
        return self.values[..., idx]


# Samples of one circulant embedding: the sampler holds about 7 float64
# arrays of this length while it builds a spectrum and draws an edge.
_MAX_EMBEDDING = 1 << 24
# Float64s of the largest array allocated whole, 1.6 GB: a noise
# realization, the (schedules, trials, delays) samples of a contrast
# curve, or the momentum grid times the delays of the master equation.
_MAX_FLOATS = 200_000_000


@functools.lru_cache(maxsize=8)
def _circulant_sqrt_spectrum(model: NoiseModel, n_steps: int) -> np.ndarray:
    """Square root of the circulant embedding's eigenvalues, length L (the
    power of two >= 2 n_steps + pad), read-only and computed once per
    (model, n_steps); a negative embedding raises on every call."""
    length = 1 << max(1, (_embedded_span(model, n_steps) - 1)).bit_length()
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


def _embedded_span(model: NoiseModel, n_steps: int) -> int:
    """Samples the circulant embedding must hold: 2 n_steps + a pad of
    8 tau_c / dt."""
    return 2 * n_steps + int(math.ceil(8.0 * model.tau_c / model.dt))


def _check_noise(model: NoiseModel, lattice: Lattice, span: str = "duration",
                 sampled: NoiseModel | None = None) -> None:
    """The sampler's preconditions: the time step of ``model`` resolves
    tau_c, and the grid that is sampled, ``sampled`` (by default ``model``
    itself), fits: its realization size and embedding length (``span``
    names what set the duration)."""
    if model.dt > model.tau_c / 20 + 1e-15:
        raise ConfigurationError("sampler needs dt <= tau_c / 20")
    sampled = sampled or model
    n_steps = embedded = math.inf  # counts beyond the float range
    if math.isfinite(max(sampled.duration, 8.0 * sampled.tau_c) / sampled.dt):
        n_steps, embedded = sampled.n_steps, _embedded_span(sampled, sampled.n_steps)
    if n_steps * lattice.n_edges > _MAX_FLOATS or embedded > _MAX_EMBEDDING:
        raise ConfigurationError(
            f"noise realization too large: {span} {sampled.duration!r} and tau_c "
            f"{sampled.tau_c!r} on cells of {sampled.dt!r} need {n_steps} samples on each "
            f"of {lattice.n_edges} edges and an embedding of {embedded} (at most "
            f"{_MAX_FLOATS} in all and {_MAX_EMBEDDING})")


def sample_noise(model: NoiseModel, lattice: Lattice, seed) -> NoiseRealization:
    """Independent per-edge stationary Gaussian series with the target
    autocorrelation.

    Stream layout: edge e draws 2L standard normals from
    ``default_rng([*seed, e])``, the real parts a then the imaginary parts
    b of zeta, where L is the power of two >= 2 n_steps + pad; its series
    is the first n_steps samples of Re FFT(sqrt_lam * zeta) / sqrt(L).  So
    values[e] depends only on (seed, e, model).  With u = sqrt_lam a and
    v = sqrt_lam b, that real part is Re rfft(g) - Im rfft(g) for the real
    g = even(u) + odd(v), so each edge takes one length-L real FFT.
    contrast_curve draws through the same body on cells of k model.dt (see
    there), so at k = 1 its streams are this function's.

    seed: an integer >= 0 or a sequence of them.  The series go into a new
    (n_edges, n_steps) array.
    """
    _check_noise(model, lattice)
    seed_list = [int(require(s, "seed", integer=True, ge=0))
                 for s in np.asarray(seed, dtype=object).ravel()]
    return _sample_noise(model, lattice, seed_list)


def _sample_noise(model: NoiseModel, lattice: Lattice, seed: list, *,
                  out: np.ndarray | None = None) -> NoiseRealization:
    """The body of ``sample_noise`` without its checks: ``seed`` a list of
    integers >= 0, ``out`` None or a float64 array of shape (n_edges,
    n_steps).  The embedding's non-negativity is still checked on every
    call."""
    n_steps = model.n_steps
    if out is None:
        out = np.empty((lattice.n_edges, n_steps))
    if model.xi_h == 0.0:
        out.fill(0.0)
        return NoiseRealization(out, model.dt)
    sqrt_lam = _circulant_sqrt_spectrum(model, n_steps)
    length = sqrt_lam.size
    # buffers reused for every edge: the draws, scaled in place to (u, v);
    # 2 g (the 1/2 goes into the final scale); the half spectrum of g, of
    # which the first n_steps <= L / 2 samples are read
    draws = np.empty((2, length))
    u, v = draws
    g = np.empty(length)
    spec = np.empty(length // 2 + 1, dtype=np.complex128)
    for e in range(lattice.n_edges):
        np.random.default_rng([*seed, e]).standard_normal(out=draws)
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
        require(self.time, "time")  # UsageError, as in EchoSchedule
        if self.kind not in ECHO_KINDS:
            raise UsageError(f"unknown echo pulse kind {self.kind!r}")


@dataclass(frozen=True)
class EchoSchedule:
    duration: float
    pulses: tuple[Pulse, ...]

    def __post_init__(self):
        require(self.duration, "duration", ge=0)
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
    require(n, f"n of schedule {kind}", integer=True, ge=1)
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

def _cell_graph(lattice: Lattice, sector: str):
    """The lattice's cell graph of the sector, its last node the boundary."""
    if sector not in ("x", "z"):
        raise UsageError("sector must be 'x' or 'z'")
    return lattice.cell_graph(sector)


def hop_structure(lattice: Lattice, sector: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n_cells, cell pair array (m, 2), edge id array (m,)) for the sector.

    Only edges interior to the sector's cell graph hop; edges touching a
    boundary would not conserve particle number and drop out.  Each hop edge
    is listed once, in edge order, as (lower cell, higher cell).
    """
    graph = _cell_graph(lattice, sector)
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


# Bytes of the real (trials, steps, n_cells, n_cells) step stacks of one
# piece, summed over the family's sign patterns: the shared step grid is
# evolved in consecutive pieces of at least one step, so the integrator
# holds about five times this at most (five one-step stacks of one trial
# if such a step is larger), whatever the delay.  Besides the pieces it
# holds one (trials, n_cells, n_cells) prefix product per sign pattern of
# the family and one (trials, n_cells, particles) frame state per
# unfinished run.
_STACK_BYTES = 128 << 10
# Bytes of the per-trial state of one chunk of Monte Carlo trials: the
# stacked noise series and the complex frame states of the family's runs;
# contrast_curve evolves a chunk together.  A chunk holds at least one
# trial, and no more trials than one step of them fits in _STACK_BYTES.
_NOISE_BYTES = 2 << 20
# Largest xi_h times the step length that contrast_curve integrates: the
# field's phase over a step, whose propagator the doubling in _propagators
# reproduces to about its norm times 2^-53 (2^25 here, a 6-sigma field
# summed over 4 hops, so about 4e-9 rad per step).
_MAX_STEP_PHASE = 2.0 ** 20
# Largest row sum theta of A = H dt on any field: under the bound above a
# 4-hop row needs a 256-sigma sample to reach it, so contrast_curve's check
# fires first.  The doubling keeps about theta 2^-53 <= 1.2e-7 per step.
_MAX_ROW_SUM = 2.0 ** 30


def _cells_per_step(cell: float, dt: float) -> int:
    """Whole cells of the field in one step of length dt: max(1, floor(dt /
    cell)), the ratio rounded with a tolerance; a ratio beyond the float
    range is a UsageError naming dt."""
    ratio = dt / cell + 1e-9
    if not math.isfinite(ratio):
        raise UsageError(f"dt over the field's cell of {cell!r} must be a finite float, "
                         f"got dt {dt!r}")
    return max(1, math.floor(ratio))


def _step_grid(cell: float, dt: float, events: np.ndarray, tol: float,
               last: float) -> np.ndarray:
    """Sorted step boundaries from 0 to events[-1]: the event times plus a
    grid of steps of ``_cells_per_step`` whole cells of the field; grid
    points within tol of an event, or more than tol past ``last``, where the
    field's last sample starts to hold, are dropped."""
    width = cell * _cells_per_step(cell, dt)
    grid = width * np.arange(1, math.ceil(min(events[-1], last + tol) / width) + 1)
    grid = grid[(grid < events[-1] - tol) & (grid <= last + tol)]
    at = np.searchsorted(events, grid)  # events[at - 1] < grid <= events[at]
    clear = (grid - events[at - 1] > tol) & (events[at] - grid > tol)
    return np.sort(np.concatenate([events, grid[clear]]))


def _evolve_runs(dyn: _SectorDynamics, field, runs, columns: np.ndarray, dt: float,
                 read) -> list[list]:
    """Propagate the column vectors, shape (..., n_cells, k), under each run
    (schedule, checkpoints) of a family, and return for each run ``read``
    of its states at its sorted checkpoints; a run's last checkpoint ends
    it.  A field with a leading trial axis evolves trial t of the columns
    under its own values: columns (trials, n_cells, k).

    All runs share one step grid (``_step_grid`` over every pulse and
    checkpoint of the family), and each step reads the field at its
    midpoint.  A sign pattern of the hop terms and its negation share one
    running prefix product Q of step propagators (exp(+i H dt) is the
    conjugate of exp(-i H dt) for real H), advanced one segment between
    events at a time by the pairwise ``_ordered_product``; the step
    propagators come from ``_propagators`` for consecutive pieces of the
    grid of at most _STACK_BYTES of real step stacks.  A run holds only its
    state phi in the frame of its pattern, psi = Q phi (conj(Q) phi on the
    negated pattern), and changes frame at its own pulses.
    """
    want = (*columns.shape[:-2], dyn.lattice.n_edges)
    got = field.at_many(np.zeros(1)).shape[:-1]
    if got != want:
        raise UsageError(f"field must give {want} values at a time, one per edge of the "
                         f"lattice (and per trial where the columns have a trial axis), "
                         f"got {got}")
    ends = [max(cp) for _, cp in runs]
    tol = 1e-9 * max(1.0, max(ends))
    events = np.sort([0.0, *(t for _, cp in runs for t in cp),
                      *(p.time for (s, _), end in zip(runs, ends)
                        for p in s.pulses if p.time < end)])
    events = events[np.r_[True, np.diff(events) > tol]]  # one time per cluster

    def event(t):  # the event cluster holding time t
        return int(np.searchsorted(events, t + tol)) - 1

    def pattern(signs):  # (key shared with the negation: its signs' bytes, negated?)
        neg = bool(signs.size) and signs[0] < 0
        return (-signs if neg else signs).tobytes(), neg

    # per event: (run, None) records the run's state, (run, (key, negated))
    # moves it to that pattern's frame
    key0 = np.ones(dyn.edge_ids.size).tobytes()
    keys = {key0}
    stops = [event(end) for end in ends]
    plan = [[] for _ in events]
    for r, (schedule, checkpoints) in enumerate(runs):
        for t in sorted(checkpoints):
            plan[event(t)].append((r, None))
        signs = np.ones(dyn.edge_ids.size)
        for p in schedule.pulses:
            i, flips = event(p.time), dyn.pulse_flips(p)
            if i < stops[r] and flips.any():
                signs[flips] *= -1.0
                key, neg = pattern(signs)
                keys.add(key)
                plan[i].append((r, (key, neg)))

    bounds = _step_grid(field.dt, dt, events, tol, (field.n_steps - 1) * field.dt)
    at = np.searchsorted(bounds, events)  # first step of each event's segment
    lengths = np.diff(bounds)
    mids = bounds[:-1] + 0.5 * lengths
    n = dyn.n_cells
    batch = columns.shape[:-2]
    piece = max(1, _STACK_BYTES // (8 * n * n * math.prod(batch) * len(keys)))
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (*batch, n, n))
    frames = dict.fromkeys(keys, eye)  # key -> Q, the product of its steps so far
    phi = [columns.astype(np.complex128)] * len(runs)
    frame_of = [(key0, False)] * len(runs)
    recorded = [[] for _ in runs]
    props, lo, hi = {}, 0, 0
    for i in range(events.size):
        for r, move in plan[i]:
            q, neg = frames[frame_of[r][0]], frame_of[r][1]
            psi = np.conj(q @ np.conj(phi[r])) if neg else q @ phi[r]
            if move is None:
                recorded[r].append(read(psi))
                continue
            qt, neg = np.swapaxes(frames[move[0]], -1, -2), move[1]
            phi[r] = qt @ psi if neg else np.conj(qt @ np.conj(psi))
            frame_of[r] = move
        for r, _ in plan[i]:
            if stops[r] == i:
                phi[r] = None
        s, stop = (at[i], at[i + 1]) if i + 1 < events.size else (0, 0)
        while s < stop:
            if s >= hi:
                props = None  # free the last piece first
                lo, hi = s, min(s + piece, lengths.size)
                props = _piece_propagators(dyn, field, keys, mids[lo:hi], lengths[lo:hi])
            e = min(stop, hi)
            for key in frames:  # no name outlives the loop to hold a piece
                frames[key] = _ordered_product(props[key][..., s - lo:e - lo, :, :]) \
                    @ frames[key]
            s = e
    return recorded


def _piece_propagators(dyn, field, keys, mids, lengths) -> dict:
    """{key: propagator stack} of one piece of the step grid for each sign
    pattern key."""
    n = dyn.n_cells
    # (..., steps, hop terms) times each step's length: one bincount per
    # pattern over every trial and step gives A = H dt; summed, not
    # assigned: on torus(2) two edges join each cell pair
    h = np.swapaxes(field.at_many(mids)[..., dyn.edge_ids, :], -1, -2) * lengths[:, None]
    bins = (np.arange(h[..., 0].size)[:, None] * (n * n) + dyn.hop_bins).ravel()
    out = {}
    for key in keys:
        hk = h * np.frombuffer(key)
        hmat = np.bincount(bins, np.concatenate([hk, hk], axis=-1).ravel(),
                           minlength=h[..., 0].size * n * n)
        out[key] = _propagators(hmat.reshape(*h.shape[:-1], n, n))
    return out


def _propagators(hmat: np.ndarray) -> np.ndarray:
    """exp(-i A) = cos A - i sin A for a stack of real symmetric A = H dt
    (each step's length folded in), from the Taylor series of cos and sin
    truncated at degree m in B = A^2 and evaluated by Horner with real
    matmuls.

    theta, the largest row-sum norm of A over the whole stack (every
    trial and step), bounds both tails
    by theta^(2m+2) / (2m+2)! cosh(theta), and m is the least degree that
    puts this at or below 2^-53 (Moler and Van Loan 2003).  For theta > 1,
    A is halved s times first and the result squared s times.  At most
    five step-stack arrays are alive at once, counting hmat and the complex
    result as one and two; a zero A gives exactly the identity.
    """
    a = hmat.copy()
    theta = float(np.abs(a).sum(axis=-1).max())
    if not theta <= _MAX_ROW_SUM:  # NaN too
        raise UsageError(f"field must be finite with |field| dt row sums <= 2^30, got {theta!r}")
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


def evolve_anyon(lattice: Lattice, field, schedule: EchoSchedule, start_cell: int,
                 sector: str, dt: float) -> np.ndarray:
    """Integrate one particle from a basis state under the field + echoes;
    returns the complex amplitude per cell of the sector (unit norm)."""
    require(dt, "dt", gt=0)
    dyn = _SectorDynamics(lattice, sector)
    require(start_cell, "start_cell", integer=True, ge=0, le=dyn.n_cells - 1)
    col = np.zeros((dyn.n_cells, 1), dtype=np.complex128)
    col[start_cell, 0] = 1.0
    return _evolve_runs(dyn, field, [(schedule, [schedule.duration])], col, dt,
                        lambda psi: psi[:, 0])[0][0]


def spread_cells(lattice: Lattice, sector: str, n_particles: int) -> list[int]:
    """Deterministic far-separated start cells (row-major stride plus a
    half-lattice column shift on alternating picks)."""
    n_cells = len(_cell_graph(lattice, sector)) - 1
    require(n_particles, "n_particles", integer=True, ge=1, le=n_cells)
    cells = []
    for k in range(n_particles):
        base = (k * n_cells) // n_particles
        shift = (k * (lattice.size // 2)) % max(1, lattice.size)
        cells.append((base + shift) % n_cells)
    return cells


def _delays(values, name: str) -> np.ndarray:
    """A delay or a sequence of delays as a flat float array, each element
    checked as a finite real >= 0 named ``name``."""
    return np.array([require(t, name, ge=0)
                     for t in np.asarray(values, dtype=object).ravel()], dtype=float)


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
    |survival|^2 ("probability").  Deterministic per seed, an integer >= 0:
    trial t uses the noise stream (seed, t).

    dt (default ``default_dt(model)``) sets the step, k = max(1, floor(dt
    / model.dt)) cells of the model, split at every pulse and checkpoint;
    the noise is sampled on cells of k model.dt, so at k = 1 the stream
    (seed, t) is unchanged, the one ``sample_noise`` draws for the model.
    """
    require(n_trials, "n_trials", integer=True, ge=1)
    seed = int(require(seed, "seed", integer=True, ge=0))
    if estimator not in ("amplitude", "probability"):
        raise UsageError("estimator must be 'amplitude' or 'probability'")
    taus = np.sort(_delays(tau_grid, "tau_grid"))
    if taus.size == 0:
        raise UsageError("tau_grid must hold at least one delay, got none")
    t_max = float(taus.max())
    cells = spread_cells(lattice, sector, n_particles)
    if dt is None:
        dt = default_dt(model)
    require(dt, "dt", gt=0)
    step = max(dt, model.dt)  # the longest step of the grid
    if model.xi_h * step > _MAX_STEP_PHASE:
        raise ConfigurationError(f"xi_h * dt must be <= 2^20 (the field's phase over one "
                                 f"step), got xi_h {model.xi_h!r} and dt {step!r}")
    # the noise is sampled on the cells of the steps, k of the model's each
    cell = _cells_per_step(model.dt, dt) * model.dt
    run_model = NoiseModel(model.xi_h, model.tau_c, cell, max(t_max, cell) * (1 + 1e-12))
    dyn = _SectorDynamics(lattice, sector)
    columns = np.zeros((dyn.n_cells, len(cells)))
    for j, c in enumerate(cells):
        columns[c, j] = 1.0

    # each member is (label, runs); a run is (schedule, its checkpoint delays).
    # A pulsed train scales with its delay, so it takes one run per delay.
    family = []
    for member in schedule_family:
        try:
            kind, n = member
        except (TypeError, ValueError):
            raise UsageError("schedule_family items must be (kind, n) pairs, "
                             f"got {member!r}") from None
        if kind == "none":
            family.append(("none", [(build_echo_schedule("none", t_max), taus)]))
        else:
            family.append((f"{kind}({n})", [(build_echo_schedule(kind, tau, n, lattice),
                                             [tau]) for tau in taus]))
    if not family:
        raise UsageError("schedule_family must hold at least one schedule, got none")
    runs = [run for _, member in family for run in member]
    n_samples = len(family) * n_trials * taus.size
    if n_samples > _MAX_FLOATS:
        raise UsageError(f"n_trials too large: {n_trials} trials of {len(family)} schedules "
                         f"at {taus.size} delays need {n_samples} contrast samples (at most "
                         f"{_MAX_FLOATS})")
    # the trials of a chunk are evolved together, each sampled straight into
    # its row of one buffer that every chunk reuses (allocated once the
    # sampler's checks have passed)
    _check_noise(model, lattice, "tau_grid's longest delay tau", sampled=run_model)
    per_trial = 8 * lattice.n_edges * run_model.n_steps + 16 * columns.size * len(runs)
    chunk = min(n_trials, max(1, min(_NOISE_BYTES // per_trial,
                                     _STACK_BYTES // (8 * dyn.n_cells * dyn.n_cells))))
    values = np.empty((chunk, lattice.n_edges, run_model.n_steps))
    samples = np.zeros((len(family), n_trials, taus.size))
    for lo in range(0, n_trials, chunk):
        trials = range(lo, min(lo + chunk, n_trials))
        for i, trial in enumerate(trials):
            _sample_noise(run_model, lattice, [seed, trial], out=values[i])
        realization = NoiseRealization(values[:len(trials)], run_model.dt)
        psi = np.broadcast_to(columns, (len(trials), *columns.shape))
        reads = iter(_evolve_runs(dyn, realization, runs, psi, dt,
                                  functools.partial(_contrast_sample, cells=cells,
                                                    estimator=estimator)))
        for rows, (_, member) in zip(samples[:, lo:trials.stop], family):
            rows[:] = np.stack([sample for _ in member for sample in next(reads)], axis=-1)
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

def analytic_contrast(tau: float, model: NoiseModel, kind: str = "free",
                      n: int = 1) -> float:
    """Reference decay laws: free running exp(-tau/T2*) with
    T2* = 1/(z Gamma), n echo pairs exp(-(tau/T2)^4 / n^3) with
    T2 = sqrt(tau_c / xi_h); without a field (xi_h = 0) both times are
    infinite and nothing decays."""
    require(tau, "tau", ge=0)
    if kind == "free":
        return math.exp(-tau * COORDINATION * model.diffusion_rate())
    if kind == "echo":
        require(n, "n", integer=True, ge=1)
        phase = model.xi_h / model.tau_c * tau * tau  # (tau / T2)^2, inf past the range
        return math.exp(-phase * phase / n ** 3)
    raise UsageError(f"unknown analytic kind {kind!r}")


def analytic_survival_probability(tau: float, model: NoiseModel) -> float:
    """Published fast-noise survival probability exp(-2 z Gamma tau)."""
    require(tau, "tau", ge=0)
    return math.exp(-2.0 * COORDINATION * model.diffusion_rate() * tau)


def master_equation_survival(n: int, gamma: float, tau) -> np.ndarray:
    """Classical return probability on the N x N torus with hop rate gamma.

    Exact rate-matrix solution: P0(t) = mean over lattice momenta of
    exp(-gamma * lambda_jk * t) with lambda_jk = 4 - 2cos - 2cos.  This is
    the fast-noise limit of the averaged quantum survival probability,
    return contributions included.
    """
    require(n, "n", integer=True, ge=1)
    require(gamma, "gamma", ge=0)
    tau = _delays(tau, "tau")
    floats = n * n * max(1, tau.size)
    if floats > _MAX_FLOATS:
        raise UsageError(f"n too large: the n x n momentum grid of n = {n} at {tau.size} "
                         f"delays needs {floats} floats (at most {_MAX_FLOATS})")
    j = 2.0 * np.pi * np.arange(n) / n
    lam = 4.0 - 2.0 * np.cos(j)[:, None] - 2.0 * np.cos(j)[None, :]
    out = np.exp(-gamma * lam.reshape(-1)[:, None] * tau[None, :]).mean(axis=0)
    return out
