"""Closed-form error budgets and contrast laws, with enumeration oracles.

All rates are dimensionless ratios; no unit system is imposed.  The loss
prefactors carry typographic uncertainty in the source material, so they
are exposed as parameters with the published defaults (2*pi single photon,
|alpha|^2-scaled for the geometric gate, both reported).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import combinations

from .errors import ConfigurationError, UsageError, require_finite


@dataclass(frozen=True)
class CavityParams:
    """Cavity QED working point: single-photon Rabi frequency g, cavity loss
    kappa, spontaneous decay gamma (angular frequencies)."""

    g: float
    kappa: float
    gamma: float

    def __post_init__(self):
        require_finite(self, "g", "kappa", "gamma", positive=True)

    @property
    def purcell(self) -> float:
        return self.g ** 2 / (self.kappa * self.gamma)


def optimal_detuning(params: CavityParams, n_spins: int) -> float:
    """Detuning minimizing the photon loss: Delta* = g sqrt(N gamma / kappa)."""
    _require_spins(n_spins)
    return params.g * math.sqrt(n_spins * params.gamma / params.kappa)


def photon_loss_at(params: CavityParams, n_spins: int, detuning: float) -> float:
    """kappa tau + N (g/Delta)^2 gamma tau at the QND time tau = pi Delta / g**2."""
    _require_spins(n_spins)
    if not (math.isfinite(detuning) and detuning > 0):
        raise UsageError(f"detuning must be finite and > 0, got {detuning!r}")
    tau = math.pi * detuning / params.g ** 2
    return params.kappa * tau + n_spins * (params.g / detuning) ** 2 * params.gamma * tau


def min_photon_loss(n_spins: int, purcell: float, prefactor: float = 2.0 * math.pi
                    ) -> float:
    """Minimal single-photon loss probability, prefactor * sqrt(N/P)."""
    _require_spins(n_spins)
    if purcell <= 0:
        raise UsageError(f"purcell must be > 0, got {purcell!r}")
    if not math.isfinite(purcell):
        raise UsageError(f"purcell must be finite, got {purcell!r}")
    loss = prefactor * math.sqrt(n_spins / purcell)
    if loss >= 1.0:
        warnings.warn("photon loss estimate >= 1: outside the validity regime",
                      stacklevel=2)
    return loss


def geometric_gate_loss(n_spins: int, purcell: float, alpha_sq: float) -> float:
    """Loss of the coherent-state gate: |alpha|^2 times the single-photon
    minimum (the published bold constant corresponds to alpha_sq = pi/2
    entering twice; both conventions are recoverable from this form)."""
    if alpha_sq < 0:
        raise UsageError("alpha_sq must be non-negative")
    if not math.isfinite(alpha_sq):
        raise UsageError(f"alpha_sq must be finite, got {alpha_sq!r}")
    if alpha_sq == 0:
        return 0.0
    return alpha_sq * min_photon_loss(n_spins, purcell)


def qnd_error(n_spins: int, theta: float, delta: float, k: int = 1) -> float:
    """Residual error of the QND interaction with relative coupling deviation
    delta, suppressed to order k by composite pulses: N * theta * |delta|**k."""
    _require_spins(n_spins)
    if abs(delta) >= 1:
        raise UsageError("|delta| must be < 1")
    if k < 1:
        raise UsageError("composite-pulse order k must be >= 1")
    _require_order(k)
    for name, value in (("theta", theta), ("delta", delta)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    return n_spins * theta * abs(delta) ** k


def qnd_pulse_count(k: int) -> float:
    """Composite-pulse budget k**3 (the published prefactor is 1)."""
    _require_order(k)
    return float(k ** 3)


def _require_spins(n_spins) -> None:
    """A spin count N is an integer >= 1."""
    if not (isinstance(n_spins, numbers.Integral) and n_spins >= 1):
        raise UsageError(f"n_spins must be an integer >= 1, got {n_spins!r}")


def _require_order(k) -> None:
    """A composite-pulse order is an integer >= 1."""
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise UsageError(f"composite-pulse order k must be an integer >= 1, got {k!r}")


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
        require_finite(self, "delta_h", "lam", "epsilon")
        require_finite(self, "coupling_j", "q", "purcell", positive=True)
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (isinstance(self.n_length, numbers.Integral) and self.n_length >= 1):
            raise ConfigurationError("n_length must be an integer >= 1, "
                                     f"got {self.n_length!r}")

    @property
    def protection(self) -> float:
        return (self.delta_h / self.coupling_j) ** self.n_length


def memory_error(budget: MemoryBudget, t: float) -> float:
    """p_topo(t) = (dh/J)^N q t + 4 lam sqrt(N/P) + N epsilon."""
    if not t >= 0:
        raise ConfigurationError(f"t must be >= 0, got {t!r}")
    if budget.protection >= 1.0:
        warnings.warn("delta_h/J >= 1: outside the protection regime",
                      stacklevel=2)
    access = 4.0 * budget.lam * math.sqrt(budget.n_length / budget.purcell) \
        + budget.n_length * budget.epsilon
    return budget.protection * budget.q * t + access


def crossover_time(budget: MemoryBudget, tol: float = 1e-12) -> float:
    """Storage time beyond which the protected memory beats a bare spin:
    the fixed point p_topo(t*) = q t*, found by bisection."""
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
        for name in ("n", "m", "m_prime"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        _require_pair_room(self.n)
        for name, value in (("m", self.m), ("m_prime", self.m_prime)):
            if not 0 <= value <= self.n ** 2:
                raise UsageError(f"{name} must lie in [0, N^2], got {value!r}")
        if not 0.0 <= self.p <= 1.0:
            raise UsageError("pair probability must lie in [0, 1]")


def _require_pair_room(n: int) -> None:
    """A pair sits on two distinct cells of the N x N torus, so N >= 2."""
    if not n >= 2:
        raise UsageError(f"n must be >= 2 to hold a pair, got {n!r}")


def quenched_phase_prob(n: int, m: int) -> float:
    """q_m = 2 m (N^2 - m) / (N^2 (N^2 - 1)): probability that a uniformly
    placed pair straddles a region of m cells."""
    _require_pair_room(n)
    cells = n * n
    if not 0 <= m <= cells:
        raise UsageError("m must lie in [0, N^2]")
    if not isinstance(m, numbers.Integral):
        raise UsageError(f"m must be an integer, got {m!r}")
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
    region = frozenset(region)
    if any(not 0 <= c < cells for c in region):
        raise UsageError("region cell outside the lattice")
    if not all(isinstance(c, numbers.Integral) for c in region):
        raise UsageError(f"region cells must be integers, got {sorted(region)!r}")
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
    if not 0.0 <= eps_s < 1.0:
        raise UsageError("per-edge error rate must lie in [0, 1)")
    if not (isinstance(perimeter, numbers.Integral) and perimeter >= 0):
        raise UsageError(f"perimeter must be an integer >= 0, got {perimeter!r}")
    return LoopContrastReport(perimeter, (1.0 - eps_s) ** perimeter,
                              quenched_contrast(model))
