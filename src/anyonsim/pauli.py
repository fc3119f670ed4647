"""Sparse multi-qubit Pauli strings with exact global-phase tracking.

A string is stored as ``i**phase * prod_j X_j**x_j Z_j**z_j`` with the X
factor to the left of the Z factor on every site.  Under this convention

    X * Z = -i Y      (phase exponent 0, bits (1, 1))
    Y     = i X Z     (phase exponent 1, bits (1, 1))

and multiplication costs one phase unit of ``2 * (z_p . x_q)``:
``(i^a X^xp Z^zp)(i^b X^xq Z^zq) = i^(a+b+2 zp.xq) X^(xp^xq) Z^(zp^zq)``.

Text rendering uses the Hermitian letters, e.g. ``+i X3 Z7 Y12``: a phase
prefix in {+, +i, -, -i} followed by LETTERindex tokens in ascending site
order.  ``+ I`` renders the identity.  Rendering and parsing round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError
from .lattice import StringPath

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# letter carried by bits (x, z); Y sites contribute one extra i to the
# stored phase (Y = i X Z)
_BITS_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_STR_PHASE = {v: k for k, v in _PHASE_STR.items()}


@dataclass(frozen=True)
class PauliString:
    """Immutable sparse Pauli operator; identity sites are absent."""

    phase: int = 0
    support: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)
        clean = {q: (x & 1, z & 1) for q, (x, z) in self.support.items()
                 if (x & 1) or (z & 1)}
        object.__setattr__(self, "support", clean)

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls) -> "PauliString":
        return cls(0, {})

    @classmethod
    def from_ops(cls, ops: dict[int, str], phase: int = 0) -> "PauliString":
        """Build from {site: letter}; a Y site adds one i to the phase."""
        support = {}
        for q, letter in ops.items():
            x, z = _LETTER_BITS[letter.upper()]
            if x or z:
                support[q] = (x, z)
            if letter.upper() == "Y":
                phase += 1
        return cls(phase, support)

    @classmethod
    def z_on(cls, edges) -> "PauliString":
        return cls(0, {int(e): (0, 1) for e in edges})

    @classmethod
    def x_on(cls, edges) -> "PauliString":
        return cls(0, {int(e): (1, 0) for e in edges})

    # -- structure -----------------------------------------------------
    @property
    def weight(self) -> int:
        return len(self.support)

    def is_hermitian(self) -> bool:
        ys = sum(x & z for x, z in self.support.values())
        return (self.phase + ys) % 2 == 0

    def is_identity(self) -> bool:
        return not self.support and self.phase == 0

    # -- algebra ---------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __neg__(self) -> "PauliString":
        return PauliString(self.phase + 2, dict(self.support))

    def inverse(self) -> "PauliString":
        # (i^a X^x Z^z)^-1 = i^-a Z^z X^x = i^(-a + 2 x.z) X^x Z^z
        cross = sum(x & z for x, z in self.support.values())
        return PauliString(-self.phase + 2 * cross, dict(self.support))

    def adjoint(self) -> "PauliString":
        return self.inverse()

    # -- text form -------------------------------------------------------
    def __str__(self) -> str:
        if not self.support:
            return f"{_PHASE_STR[self.phase]} I"
        shown = self.phase
        toks = []
        for q in sorted(self.support):
            letter = _BITS_LETTER[self.support[q]]
            if letter == "Y":
                shown -= 1  # stored phase holds i per Y site
            toks.append(f"{letter}{q}")
        return f"{_PHASE_STR[shown % 4]} " + " ".join(toks)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        toks = text.split()
        if not toks:
            raise UsageError("empty Pauli string text")
        phase = 0
        if toks[0] in _STR_PHASE:
            phase = _STR_PHASE[toks[0]]
            toks = toks[1:]
        support = {}
        for tok in toks:
            if tok == "I":
                continue
            letter, idx = tok[0].upper(), tok[1:]
            if letter not in _BITS_LETTER.values() or not idx.isdigit():
                raise UsageError(f"bad Pauli token {tok!r}")
            q = int(idx)
            if q in support:
                raise UsageError(f"repeated site {q}")
            support[q] = _LETTER_BITS[letter]
            if letter == "Y":
                phase += 1
        return cls(phase, support)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product p * q (p applied after q)."""
    phase = p.phase + q.phase
    support = dict(p.support)
    for site, (xq, zq) in q.support.items():
        xp, zp = support.get(site, (0, 0))
        phase += 2 * (zp & xq)  # commute Z^zp past X^xq
        x, z = xp ^ xq, zp ^ zq
        if x or z:
            support[site] = (x, z)
        elif site in support:
            del support[site]
    return PauliString(phase, support)


def commutation_phase(p: PauliString, q: PauliString) -> int:
    """+1 if pq = qp, -1 if pq = -qp (symplectic form of the supports)."""
    form = 0
    small, large = (p, q) if len(p.support) <= len(q.support) else (q, p)
    for site, (xs, zs) in small.support.items():
        xl, zl = large.support.get(site, (0, 0))
        form ^= (xs & zl) ^ (zs & xl)
    return -1 if form else 1


def from_string_path(path: StringPath) -> PauliString:
    """z-only (or x-only) phase-0 string on the path's edges."""
    if path.kind == "z":
        return PauliString.z_on(path.edge_set)
    return PauliString.x_on(path.edge_set)


def basis_change_conjugate(p: PauliString, rotation: str, qubits) -> PauliString:
    """Conjugate by single-qubit rotations on a site set.

    rotation "hadamard": X <-> Z per site (XZ picks up a sign).
    rotation "phase-gate": S X S^dag = Y, so sites with an X bit flip their
    Z bit and gain one i.
    """
    qubits = set(int(q) for q in qubits)
    phase = p.phase
    support = dict(p.support)
    if rotation == "hadamard":
        for q in qubits:
            x, z = support.get(q, (0, 0))
            if x and z:
                phase += 2  # H (XZ) H = ZX = -XZ
            if x or z:
                support[q] = (z, x)
    elif rotation == "phase-gate":
        for q in qubits:
            x, z = support.get(q, (0, 0))
            if x:
                phase += 1  # S (X Z^z) S^dag = i X Z^(z+1)
                support[q] = (x, z ^ 1)
    else:
        raise UsageError(f"unknown rotation {rotation!r}")
    return PauliString(phase, support)
