"""Dense complex-amplitude simulator for <= 22 qubits.

Serves as the brute-force oracle for the Clifford machinery and holds the
states of the non-Clifford operations: arbitrary-angle string rotations
(teleported ones included, which act on the memory alone, without a probe
qubit) and exact surface-Hamiltonian evolution.

Basis convention: little-endian.  Qubit q is bit q of the amplitude index,
so |q1 q0> = |1 0> sits at index 2.  Every Pauli action (strings, controlled
strings, exponentials, the X Y Z CX CZ gates and the projections of
from_tableau) goes through one kernel on the amplitudes viewed as an n-axis
tensor of shape (2,)*n, axis n-1-q being qubit q: a flip of the X axes and
one multiply by a sign tensor of size 2 on the Z axes only.  H and S work
on the two halves of one qubit axis.  No index arrays are built, and no
full operator matrices outside of dense_operator (test oracle only).

from_tableau reads the least basis state with a nonzero overlap from the
tableau's measurement update, so the package's GF(2) elimination lives in
tableau.py alone; the generators' projections, done in place, then give
the state with its first nonzero amplitude real and > 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tableau as tb
from .errors import ConfigurationError, UsageError
from .pauli import PauliString
from .weyl import WeylString

MAX_QUBITS = 22
NORM_TOL = 1e-10  # from_amplitudes: |norm - 1| beyond this is not rounding

_SQ2 = 1.0 / math.sqrt(2.0)
_SIGN = np.array([1.0, -1.0])


@dataclass
class StateVector:
    """Normalized pure state of n qubits (amplitude array of length 2**n)."""

    n: int
    amps: np.ndarray

    @classmethod
    def computational(cls, n: int, index: int = 0) -> "StateVector":
        if n < 0:
            raise UsageError(f"n must be >= 0, got {n!r}")
        if n > MAX_QUBITS:
            raise ConfigurationError(f"{n} qubits exceeds dense cap {MAX_QUBITS}")
        if not isinstance(n, numbers.Integral):
            raise UsageError(f"n must be an integer, got {n!r}")
        if not 0 <= index < 1 << n:
            raise UsageError(f"index must be in 0..{(1 << n) - 1}, got {index!r}")
        if not isinstance(index, numbers.Integral):
            raise UsageError(f"index must be an integer, got {index!r}")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        n = max(int(amps.size).bit_length() - 1, 0)
        if 1 << n != amps.size:
            raise UsageError("amplitude array length is not a power of two")
        if not np.isfinite(amps).all():
            raise UsageError("amps must be finite")
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
    if not math.isfinite(theta):
        raise UsageError(f"theta must be finite, got {theta!r}")
    if not p.is_hermitian():
        raise UsageError("exponential needs a Hermitian string")
    rotated = _pauli_action(s, p)
    rotated *= 1j * math.sin(theta)
    s.amps *= math.cos(theta)
    s.amps += rotated
    return s


def evolve_hsurf(s: StateVector, lattice, coupling_u: float, coupling_j: float,
                 t: float) -> StateVector:
    """exp(-i H_surf t) with H_surf = -U sum_v H_v - J sum_f H_f.

    All terms commute, so the evolution factorizes exactly into
    prod_v exp(i U t H_v) prod_f exp(i J t H_f).
    """
    if lattice.n_edges > s.n:
        raise UsageError("state has fewer qubits than the lattice has edges")
    for name, value in (("coupling_u", coupling_u), ("coupling_j", coupling_j), ("t", t)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
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


def dense_operator(p: WeylString, n_sites: int | None = None) -> np.ndarray:
    """Explicit matrix of a Weyl string, a Pauli string at d = 2 (test
    oracle only).

    Site 0 is the least significant digit of the basis index.
    """
    d = p.d
    sites = (max(p.support) + 1) if p.support else 1
    if n_sites is not None:
        sites = max(sites, n_sites)
    if d ** sites > 4096:
        raise ConfigurationError("dense operator capped at 4096 dimensions")
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    mat = np.array([[np.exp(1j * np.pi * p.phase / d)]], dtype=complex)
    for q in range(sites - 1, -1, -1):
        a, b = p.support.get(q, (0, 0))
        site_op = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        mat = np.kron(mat, site_op)
    return mat


def from_tableau(t) -> StateVector:
    """Dense amplitudes of a stabilizer state (oracle; n <= MAX_QUBITS).

    The least basis state b with a nonzero overlap is read from the
    tableau's own measurement update (Aaronson and Gottesman, PRA 70,
    052328, 2004): Z_q is measured on a clone from the highest qubit down,
    a determined value is bit q, and an undetermined one is projected onto
    +1, so bit q is 0.  Then psi = prod_g (I + g)/2 |b>, normalised, whose
    first nonzero amplitude, at b, is real and > 0.
    """
    if t.n > MAX_QUBITS:
        raise ConfigurationError(f"{t.n} qubits exceeds dense cap {MAX_QUBITS}")
    probe = t.clone()
    index = 0
    for q in range(t.n - 1, -1, -1):
        z = PauliString.z_on((q,))
        value = tb.expectation_pauli(probe, z)
        if value == 0:
            tb._project(probe, z, want=1)
        elif value < 0:
            index |= 1 << q
    s = StateVector.computational(t.n, index)
    for g in t.stabilizer_generators():
        # in place: one full-size temporary per generator
        s.amps += _pauli_action(s, g)
        s.amps *= 0.5
    s.amps /= np.linalg.norm(s.amps)
    return s
