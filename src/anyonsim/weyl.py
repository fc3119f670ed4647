"""Z_d clock/shift (Weyl) strings: the one Pauli-group algebra of the package.

Conventions: Z is the clock matrix diag(1, w, w^2, ...) and X the shift
|j> -> |j+1 mod d>, with w = exp(2*pi*i/d), so X Z = w^-1 Z X on one site.
A string is ``w**(phase/2) * prod_j X_j**a_j Z_j**b_j`` with the X factor
to the left of the Z factor on every site; phases are stored mod 2d in
half-units of w so products stay exact for even d.

This module owns normalisation, the product, the inverse and the
commutator exponent.  ``pauli.PauliString`` is this class with d fixed at 2
(w^(1/2) = i), so qubit strings follow the same three rules:

    product      (w^(s/2) X^a Z^b)(w^(t/2) X^a' Z^b')
                   = w^((s + t)/2 + b.a') X^(a + a') Z^(b + b')
    inverse      (w^(s/2) X^a Z^b)^-1 = w^(-s/2 + a.b) X^-a Z^-b
    commutator   p q = w^k q p,  k = sum_j (b_j a'_j - a_j b'_j) mod d
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError, require


@dataclass(frozen=True)
class WeylString:
    """Sparse Z_d Weyl operator; identity sites absent."""

    d: int
    phase: int = 0  # power of w^(1/2), mod 2d
    support: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        d = require(self.d, "d", integer=True, ge=2)
        object.__setattr__(self, "phase", require(self.phase, "phase", integer=True) % (2 * d))
        clean = {}
        for q, (a, b) in self.support.items():
            a %= d
            b %= d
            if a or b:
                clean[q] = (a, b)
        object.__setattr__(self, "support", clean)

    @classmethod
    def _of(cls, d: int, phase: int, support: dict) -> "WeylString":
        """A string of this class; every constructor and product builds here,
        so a subclass that fixes d keeps its type."""
        return cls(d, phase, support)

    @classmethod
    def identity(cls, d: int) -> "WeylString":
        return cls._of(d, 0, {})

    @classmethod
    def z_power(cls, d: int, sites, b: int) -> "WeylString":
        return cls._of(d, 0, {int(require(q, "site", integer=True)): (0, b) for q in sites})

    @classmethod
    def x_power(cls, d: int, sites, a: int) -> "WeylString":
        return cls._of(d, 0, {int(require(q, "site", integer=True)): (a, 0) for q in sites})

    def inverse(self) -> "WeylString":
        cross = sum(a * b for a, b in self.support.values())
        support = {q: (-a, -b) for q, (a, b) in self.support.items()}
        return self._of(self.d, -self.phase + 2 * cross, support)

    def __mul__(self, other: "WeylString") -> "WeylString":
        return weyl_multiply(self, other)


def weyl_multiply(p: WeylString, q: WeylString) -> WeylString:
    """Exact product p * q with w-phase bookkeeping (p applied after q); the
    result has the type of p."""
    if p.d != q.d:
        raise UsageError("Weyl strings have different d")
    phase = p.phase + q.phase
    support = dict(p.support)
    for site, (aq, bq) in q.support.items():
        ap, bp = support.get(site, (0, 0))
        phase += 2 * bp * aq  # Z^bp X^aq = w^(bp aq) X^aq Z^bp
        support[site] = (ap + aq, bp + bq)
    return p._of(p.d, phase, support)


def weyl_braiding_phase(zstr: WeylString, xstr: WeylString) -> int:
    """Exponent k of the scalar w**k = Z~^-1 X~^-1 Z~ X~, i.e. Z~ X~ = w^k X~ Z~,
    from the symplectic form of the two supports.

    For closed crossing strings carrying charge a and flux b the result is
    a*b*crossings mod d.
    """
    if zstr.d != xstr.d:
        raise UsageError("Weyl strings have different d")
    form = 0
    other = xstr.support
    for site, (ap, bp) in zstr.support.items():
        aq, bq = other.get(site, (0, 0))
        form += bp * aq - ap * bq
    return form % zstr.d


def weyl_gate_count(d: int) -> int:
    """Global gates needed to realize a charge-a string operator: d - 1."""
    return require(d, "d", integer=True, ge=2) - 1
