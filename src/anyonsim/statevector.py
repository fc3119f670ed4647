"""Dense complex-amplitude simulator for <= 22 qubits.

Serves as the brute-force oracle for the Clifford machinery and holds the
states of the non-Clifford operations: arbitrary-angle string rotations
(teleported ones included, which act on the memory alone, without a probe
qubit) and exact surface-Hamiltonian evolution.

Basis convention: little-endian.  Qubit q is bit q of the amplitude index,
so |q1 q0> = |1 0> sits at index 2.  Every Pauli action (strings, controlled
strings, exponentials and the X Y Z CX CZ gates) goes through one kernel on
the amplitudes viewed as an n-axis tensor of shape (2,)*n, axis n-1-q being
qubit q: a flip of the X axes and one multiply by a sign tensor of size 2 on
the Z axes only, with no index arrays and no full operator matrices
(oracle.dense_operator writes those out).  H and S work on the two halves
of one qubit axis.  Exponentials and teleports combine psi and S~ psi in
place in 256 KiB chunks (_combine), one pass over the state.

from_tableau takes the least basis index of the state's support and the
X rows spanning it from one GF(2) echelon of the generators
(tableau._support_basis, so the package's GF(2) elimination lives in
tableau.py alone), and writes only the state's 2**k nonzero amplitudes into
one zeroed state, its first nonzero amplitude real and > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tableau as tb
from .errors import ConfigurationError, UsageError, require
from .pauli import PauliString

MAX_QUBITS = 22
NORM_TOL = 1e-10  # from_amplitudes: |norm - 1| beyond this is not rounding

_SQ2 = 1.0 / math.sqrt(2.0)
_SIGN = np.array([1.0, -1.0])
_CHUNK = 1 << 14  # amplitudes per _combine step: 256 KiB, well inside a per-core L2


@dataclass
class StateVector:
    """Normalized pure state of n qubits (amplitude array of length 2**n)."""

    n: int
    amps: np.ndarray

    @classmethod
    def computational(cls, n: int, index: int = 0) -> "StateVector":
        require(n, "n", integer=True, ge=0)
        if n > MAX_QUBITS:
            raise ConfigurationError(f"{n} qubits exceeds dense cap {MAX_QUBITS}")
        require(index, "index", integer=True, ge=0, le=(1 << n) - 1)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        try:
            amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        except (TypeError, ValueError):
            raise UsageError(f"amps must be an array of numbers, got {amps!r}") from None
        n = max(int(amps.size).bit_length() - 1, 0)
        if 1 << n != amps.size:
            raise UsageError(f"amps length {amps.size} is not a power of two")
        if not np.isfinite(amps).all():
            raise UsageError("amps must be finite")
        with np.errstate(over="ignore"):  # an infinite norm is far from 1
            norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise UsageError(f"amps must have norm 1, got {norm!r}")
        return cls(n, amps.copy())

    def clone(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _axis_view(self, q: int) -> np.ndarray:
        return self.amps.reshape(1 << (self.n - q - 1), 2, 1 << q)

    def _tensor(self) -> np.ndarray:
        """The amplitudes as an n-axis view of shape (2,)*n; axis n-1-q is qubit q."""
        return self.amps.reshape((2,) * self.n)


def _check_qubits(s: StateVector, qubits) -> None:
    """The one range check of every dense entry point."""
    for q in qubits:
        require(q, "qubit index", integer=True)
        if not 0 <= q < s.n:
            raise UsageError(f"qubit index {q} out of range for n={s.n}")


def apply_gate(s: StateVector, gate: str, targets) -> StateVector:
    """Apply a named gate in place and return the state.

    Gates: H, S, X, Y, Z (one target), CX, CZ (control, target).  Rotations
    are apply_pauli_exponential on a one-qubit string.
    """
    targets = tb._gate_targets(gate, targets)
    _check_qubits(s, targets)
    gate = gate.upper()
    if gate in ("X", "Y", "Z"):
        (q,) = targets
        return apply_pauli_string(s, PauliString.from_ops({q: gate}))
    if gate in ("CX", "CZ"):
        c, t = targets
        return apply_controlled_pauli(s, c, PauliString.from_ops({t: gate[1]}))

    (q,) = targets
    view = s._axis_view(q)
    lo, hi = view[:, 0, :], view[:, 1, :]
    if gate == "H":
        u = lo.copy()
        lo += hi
        lo *= _SQ2
        np.subtract(u, hi, out=hi)
        hi *= _SQ2
    elif gate == "S":
        hi *= 1j
    else:
        raise UsageError(f"unknown gate {gate!r}")
    return s


def _apply_pauli(t: np.ndarray, p: PauliString) -> np.ndarray:
    """p applied to a qubit tensor t, whose axis ndim-1-q is qubit q (new array).

    (p t)[b] = i**phase (-1)**popcount(src & z) t[src] with src = b ^ x:
    flipping the X axes reads t at src as a view, and one multiply applies
    the sign tensor, of size 2 on the Z axes and 1 elsewhere.  The sign is
    read from the source bit, so it is flipped on axes carrying X and Z.
    """
    last = t.ndim - 1
    xaxes = tuple(last - q for q, (x, _) in p.support.items() if x)
    sign = np.ones((1,) * t.ndim)
    for q, (_, z) in p.support.items():
        if z:
            shape = [1] * t.ndim
            shape[last - q] = 2
            sign = sign * _SIGN.reshape(shape)
    return ((1j ** p.phase) * np.flip(sign, xaxes)) * np.flip(t, xaxes)


def _pauli_action(s: StateVector, p: PauliString) -> np.ndarray:
    """Amplitudes of p|s> (new array; s untouched)."""
    _check_qubits(s, p.support)
    return _apply_pauli(s._tensor(), p).reshape(-1)


def apply_pauli_string(s: StateVector, p: PauliString) -> StateVector:
    s.amps = _pauli_action(s, p)
    return s


def apply_controlled_pauli(s: StateVector, control: int, p: PauliString) -> StateVector:
    """|1><1|_control (x) p  +  |0><0|_control (x) I, applied in place."""
    _check_qubits(s, (control, *p.support))
    if control in p.support:
        raise UsageError("control qubit lies inside the string support")
    slab = s._tensor()[(slice(None),) * (s.n - 1 - control) + (slice(1, 2),)]
    slab[...] = _apply_pauli(slab, p)
    return s


def apply_pauli_exponential(s: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(i theta p) |s> via cos(theta) I + i sin(theta) p (needs p**2 = I)."""
    require(theta, "theta")
    if not p.is_hermitian():
        raise UsageError("exponential needs a Hermitian string")
    _combine(s.amps, math.cos(theta), _pauli_action(s, p), 1j * math.sin(theta))
    return s


def _combine(dst: np.ndarray, a, other: np.ndarray, b) -> None:
    """dst <- a dst + b other in place, _CHUNK amplitudes at a time, each chunk
    scaled and summed while in cache.  Every element sees the two multiplies
    and the one addition of dst *= a; dst += other * b: the same bits."""
    for lo in range(0, dst.size, _CHUNK):
        d = dst[lo:lo + _CHUNK]
        d *= a
        d += other[lo:lo + _CHUNK] * b


def evolve_hsurf(s: StateVector, lattice, coupling_u: float, coupling_j: float,
                 t: float) -> StateVector:
    """exp(-i H_surf t) with H_surf = -U sum_v H_v - J sum_f H_f.

    All terms commute, so the evolution factorizes exactly into
    prod_v exp(i U t H_v) prod_f exp(i J t H_f).
    """
    if lattice.n_edges > s.n:
        raise UsageError("state has fewer qubits than the lattice has edges")
    for name, value in (("coupling_u", coupling_u), ("coupling_j", coupling_j), ("t", t)):
        require(value, name)
    for star in lattice.stars:
        apply_pauli_exponential(s, PauliString.x_on(star), coupling_u * t)
    for bnd in lattice.boundaries:
        apply_pauli_exponential(s, PauliString.z_on(bnd), coupling_j * t)
    return s


def inner_product(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2> (exact Hermitian inner product)."""
    if s1.n != s2.n:
        raise UsageError("dimension mismatch")
    return complex(np.vdot(s1.amps, s2.amps))


def from_tableau(t) -> StateVector:
    """Dense amplitudes of a stabilizer state (n <= MAX_QUBITS).

    Only the state's support is written: its 2**k nonzero amplitudes, all
    of one magnitude, lie on b + span(X parts of the generators) (Dehaene
    and De Moor, PRA 68, 042318, 2003).  tableau._support_basis gives the
    least index b and k stabilizers g = i**r X**x Z**z with independent x.
    From |b>, each g in turn maps the support written so far onto the
    disjoint coset idx ^ x with amplitudes i**r (-1)**popcount(idx & z)
    amps[idx], as g fixes the state.  Every written value is an exact power
    of i, so whichever stabilizers span the support, these are the
    amplitudes of prod_g (I + g)/2 |b> up to a power of two, and the
    normalised state equals oracle.from_tableau_by_projection exactly; its
    first nonzero amplitude, at b, is real and > 0.
    """
    if t.n > MAX_QUBITS:
        raise ConfigurationError(f"{t.n} qubits exceeds dense cap {MAX_QUBITS}")
    index, x_rows = tb._support_basis(t)
    s = StateVector.computational(t.n, index)
    support = np.array([index])
    for x, z, r in x_rows:
        sign = _SIGN[np.bitwise_count(support & z) & 1]
        # + 0 turns -0 parts into +0, as the sum of the projection does
        s.amps[support ^ x] = ((1j ** r) * sign) * s.amps[support] + 0
        support = np.concatenate([support, support ^ x])
    s.amps[support] /= np.linalg.norm(s.amps[support])
    return s
