"""Qubit Pauli strings: the d = 2 Weyl string, with exact global phase.

``PauliString`` is ``weyl.WeylString`` with d fixed at 2 (w^(1/2) = i), so
a string is ``i**phase * prod_j X_j**x_j Z_j**z_j`` with the X factor to
the left of the Z factor on every site, and normalisation, the product
(``multiply``), the inverse and the commutator form are weyl.py's.  Under
this convention

    X * Z = -i Y      (phase exponent 0, bits (1, 1))
    Y     = i X Z     (phase exponent 1, bits (1, 1))

and a product costs one phase unit of ``2 * (z_p . x_q)``.  This module
adds only the qubit parts: letter constructors, Hermiticity, the text form
and the logical strings of a lattice.

Text rendering uses the Hermitian letters, e.g. ``+i X3 Z7 Y12``: a phase
prefix in {+, +i, -, -i} followed by LETTERindex tokens in ascending site
order.  ``+ I`` renders the identity.  Rendering and parsing round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError, require
from .lattice import Lattice, StringPath, logical_operators
from .weyl import WeylString, weyl_braiding_phase, weyl_multiply

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# letter carried by bits (x, z); Y sites contribute one extra i to the
# stored phase (Y = i X Z)
_BITS_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_STR_PHASE = {v: k for k, v in _PHASE_STR.items()}


@dataclass(frozen=True)
class PauliString(WeylString):
    """Immutable sparse Pauli operator: the Weyl string with d = 2."""

    d: int = field(default=2, init=False, repr=False)

    @classmethod
    def _of(cls, d: int, phase: int, support: dict) -> "PauliString":
        if d != 2:
            raise UsageError(f"a Pauli string has d = 2, got d = {d}")
        return cls(phase, support)

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls) -> "PauliString":
        return cls(0, {})

    @classmethod
    def from_ops(cls, ops: dict[int, str], phase: int = 0) -> "PauliString":
        """Build from {site: letter}; a Y site adds one i to the phase."""
        support = {}
        for q, letter in ops.items():
            q = int(require(q, "site", integer=True))
            bits = _LETTER_BITS.get(str(letter).upper())
            if bits is None:
                raise UsageError(f"unknown Pauli letter {letter!r} at site {q}")
            if any(bits):
                support[q] = bits
            phase += bits[0] & bits[1]  # Y = i X Z
        return cls(phase, support)

    @classmethod
    def z_on(cls, edges) -> "PauliString":
        return cls(0, {int(require(e, "site", integer=True)): (0, 1) for e in edges})

    @classmethod
    def x_on(cls, edges) -> "PauliString":
        return cls(0, {int(require(e, "site", integer=True)): (1, 0) for e in edges})

    # -- structure -----------------------------------------------------
    @property
    def weight(self) -> int:
        return len(self.support)

    def is_hermitian(self) -> bool:
        ys = sum(x & z for x, z in self.support.values())
        return (self.phase + ys) % 2 == 0

    # -- algebra ---------------------------------------------------------
    def __neg__(self) -> "PauliString":
        return PauliString(self.phase + 2, self.support)

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


# The Pauli product p * q is the Weyl product (p applied after q).
multiply = weyl_multiply


def commutation_phase(p: PauliString, q: PauliString) -> int:
    """+1 if pq = qp, -1 if pq = -qp: (-1)**(the Weyl commutator exponent)."""
    return -1 if weyl_braiding_phase(p, q) else 1


def from_string_path(path: StringPath) -> PauliString:
    """z-only (or x-only) phase-0 string on the path's edges."""
    if path.kind == "z":
        return PauliString.z_on(path.edge_set)
    return PauliString.x_on(path.edge_set)


def logical_strings(lattice: Lattice) -> tuple[tuple[PauliString, PauliString], ...]:
    """The (Z~, X~) strings of each logical qubit (logical_operators' paths),
    built once per lattice; callers share them."""
    return lattice.memo("logical_strings", lambda: tuple(
        (from_string_path(cz), from_string_path(cx)) for cz, cx in logical_operators(lattice)))
