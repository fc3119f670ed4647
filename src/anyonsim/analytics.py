"""Closed-form error budgets and contrast laws, with enumeration oracles.

All rates are dimensionless ratios; no unit system is imposed.  The loss
prefactors carry typographic uncertainty in the source material, so they
are exposed as parameters with the published defaults (2*pi single photon,
|alpha|^2-scaled for the geometric gate, both reported).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

from .errors import ConfigurationError, UsageError, require


@dataclass(frozen=True)
class CavityParams:
    """Cavity QED working point: single-photon Rabi frequency g, cavity loss
    kappa, spontaneous decay gamma (angular frequencies)."""

    g: float
    kappa: float
    gamma: float

    def __post_init__(self):
        # g enters squared: g^2 stays a finite float up to g = 1e154
        require(self.g, "g", gt=0, le=1e154, error=ConfigurationError)
        for name in ("kappa", "gamma"):
            require(getattr(self, name), name, gt=0, error=ConfigurationError)
        if self.kappa * self.gamma == 0:  # underflow; the Purcell factor divides by it
            raise ConfigurationError(f"kappa * gamma must be > 0, got {self.kappa!r} * "
                                     f"{self.gamma!r}")

    @property
    def purcell(self) -> float:
        return self.g ** 2 / (self.kappa * self.gamma)


def optimal_detuning(params: CavityParams, n_spins: int) -> float:
    """Detuning minimizing the photon loss: Delta* = g sqrt(N gamma / kappa)."""
    _require_spins(n_spins)
    return params.g * math.sqrt(n_spins * params.gamma / params.kappa)


def photon_loss_at(params: CavityParams, n_spins: int, detuning: float) -> float:
    """kappa tau + N (g/Delta)^2 gamma tau at the QND time tau = pi Delta / g**2,
    as pi (kappa Delta / g^2 + N gamma / Delta): no (g/Delta)^2 to overflow."""
    _require_spins(n_spins)
    require(detuning, "detuning", gt=0)
    return math.pi * (params.kappa * detuning / params.g ** 2 + n_spins * params.gamma / detuning)


def min_photon_loss(n_spins: int, purcell: float, prefactor: float = 2.0 * math.pi
                    ) -> float:
    """Minimal single-photon loss probability, prefactor * sqrt(N/P)."""
    _require_spins(n_spins)
    require(purcell, "purcell", gt=0)
    require(prefactor, "prefactor", ge=0)
    loss = prefactor * math.sqrt(n_spins / purcell)
    if loss >= 1.0:
        warnings.warn("photon loss estimate >= 1: outside the validity regime",
                      stacklevel=2)
    return loss


def geometric_gate_loss(n_spins: int, purcell: float, alpha_sq: float) -> float:
    """Loss of the coherent-state gate: |alpha|^2 times the single-photon
    minimum (the published bold constant corresponds to alpha_sq = pi/2
    entering twice; both conventions are recoverable from this form)."""
    if require(alpha_sq, "alpha_sq", ge=0) == 0:
        return 0.0
    return alpha_sq * min_photon_loss(n_spins, purcell)


def qnd_error(n_spins: int, theta: float, delta: float, k: int = 1) -> float:
    """Residual error of the QND interaction with relative coupling deviation
    delta, suppressed to order k by composite pulses: N * theta * |delta|**k."""
    _require_spins(n_spins)
    require(theta, "theta")
    require(delta, "delta", gt=-1, lt=1)
    _require_order(k)
    return n_spins * theta * abs(delta) ** k


def qnd_pulse_count(k: int) -> float:
    """Composite-pulse budget k**3 (the published prefactor is 1)."""
    _require_order(k)
    return float(k ** 3)


def _require_spins(n_spins) -> None:
    """A spin count N is an integer >= 1."""
    require(n_spins, "n_spins", integer=True, ge=1)


def _require_order(k) -> None:
    """A composite-pulse order is an integer >= 1."""
    require(k, "k", integer=True, ge=1)


@dataclass(frozen=True)
class MemoryBudget:
    """Inputs of the protected-memory error budget.

    delta_h/J: noise perturbation over gap; N: minimal logical string
    length; q: unprotected decoherence rate; purcell: cavity figure of
    merit; lam: loss prefactor (2*pi single photon, pi^2-type geometric);
    epsilon: residual per-spin gate error.
    """

    delta_h: float
    coupling_j: float
    n_length: int
    q: float
    purcell: float
    lam: float = 2.0 * math.pi
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("delta_h", "lam", "epsilon"):
            require(getattr(self, name), name, ge=0, error=ConfigurationError)
        for name in ("coupling_j", "q", "purcell"):
            require(getattr(self, name), name, gt=0, error=ConfigurationError)
        require(self.n_length, "n_length", integer=True, ge=1, error=ConfigurationError)

    @property
    def protection(self) -> float:
        try:
            return (self.delta_h / self.coupling_j) ** self.n_length
        except OverflowError:  # a ratio > 1 whose power passes the float range
            return math.inf


def memory_error(budget: MemoryBudget, t: float) -> float:
    """p_topo(t) = (dh/J)^N q t + 4 lam sqrt(N/P) + N epsilon."""
    require(t, "t", ge=0, error=ConfigurationError)
    if budget.protection >= 1.0:
        warnings.warn("delta_h/J >= 1: outside the protection regime",
                      stacklevel=2)
    access = 4.0 * budget.lam * math.sqrt(budget.n_length / budget.purcell) \
        + budget.n_length * budget.epsilon
    return budget.protection * budget.q * t + access


def crossover_time(budget: MemoryBudget, tol: float = 1e-12) -> float:
    """Storage time beyond which the protected memory beats a bare spin:
    the fixed point p_topo(t*) = q t*, found by bisection."""
    require(tol, "tol", gt=0)
    if budget.protection >= 1.0:
        raise UsageError("no crossover: protection factor "
                         f"(delta_h / coupling_j)**n_length = {budget.protection:g} >= 1")
    gap = budget.q * (1.0 - budget.protection)
    base = memory_error(budget, 0.0)
    hi = 2.0 * base / gap + 1.0
    lo = 0.0
    f = lambda t: memory_error(budget, t) - budget.q * t
    while f(hi) > 0:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: tol is below the resolution
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- quenched anyons ----------------------------------------------------------

@dataclass(frozen=True)
class QuenchedModel:
    """Initialization-error model on an N x N torus: one anyon pair present
    with probability p; the braid loops enclose m faces and m_prime
    vertices."""

    n: int
    m: int
    m_prime: int
    p: float

    def __post_init__(self):
        _require_pair_room(self.n)
        for name in ("m", "m_prime"):
            require(getattr(self, name), name, integer=True, ge=0, le=self.n ** 2)
        require(self.p, "p", ge=0, le=1)


def _require_pair_room(n: int) -> None:
    """A pair sits on two distinct cells of the N x N torus, so N >= 2."""
    require(n, "n", integer=True, ge=2)


def quenched_phase_prob(n: int, m: int) -> float:
    """q_m = 2 m (N^2 - m) / (N^2 (N^2 - 1)): probability that a uniformly
    placed pair straddles a region of m cells."""
    _require_pair_room(n)
    cells = n * n
    require(m, "m", integer=True, ge=0, le=cells)
    return 2.0 * m * (cells - m) / (cells * (cells - 1))


def quenched_contrast(model: QuenchedModel, diffusive: bool = False) -> float:
    """1 - p (q_m + q_m'); with highly diffusive anyons the contrast drops
    to 1 - p regardless of loop shape."""
    if diffusive:
        return 1.0 - model.p
    return 1.0 - model.p * (quenched_phase_prob(model.n, model.m)
                            + quenched_phase_prob(model.n, model.m_prime))


def quenched_enumeration_oracle(n: int, region) -> float:
    """Exact fraction of the N^2-choose-2 pair placements with an odd number
    of anyons inside the region (equals q_m for |region| = m)."""
    _require_pair_room(n)
    if n > 8:
        raise ConfigurationError("enumeration oracle capped at N = 8")
    cells = n * n
    region = frozenset(require(c, "region cell", integer=True, ge=0, le=cells - 1)
                       for c in region)
    odd = sum(1 for a, b in combinations(range(cells), 2)
              if (a in region) != (b in region))
    return odd / math.comb(cells, 2)


@dataclass(frozen=True)
class LoopContrastReport:
    perimeter: int
    string_factor: float
    init_factor: float

    @property
    def combined(self) -> float:
        return self.string_factor * self.init_factor


def contrast_vs_loop(perimeter: int, eps_s: float, model: QuenchedModel
                     ) -> LoopContrastReport:
    """Contrast budget of one braid experiment: string errors cost
    (1 - eps_s)^perimeter (length law), quenched initialization anyons cost
    1 - p (q_m + q_m') (area law)."""
    require(perimeter, "perimeter", integer=True, ge=0)
    require(eps_s, "eps_s", ge=0, lt=1)
    return LoopContrastReport(perimeter, (1.0 - eps_s) ** perimeter,
                              quenched_contrast(model))
