"""Dense complex-amplitude simulator for <= 22 qubits.

Serves as the brute-force oracle for the Clifford machinery and as the
execution substrate for non-Clifford operations (arbitrary-angle string
rotations, exact surface-Hamiltonian evolution).

Basis convention: little-endian.  Qubit q is bit q of the amplitude index,
so |q1 q0> = |1 0> sits at index 2.  Gates update amplitudes in place
through strided views / index masks; no full operator matrices are built
outside of dense_operator (test oracle only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .pauli import PauliString
from .weyl import WeylString

MAX_QUBITS = 22

_SQ2 = 1.0 / math.sqrt(2.0)


@dataclass
class StateVector:
    """Normalized pure state of n qubits (amplitude array of length 2**n)."""

    n: int
    amps: np.ndarray

    @classmethod
    def computational(cls, n: int, index: int = 0) -> "StateVector":
        if n > MAX_QUBITS:
            raise ConfigurationError(f"{n} qubits exceeds dense cap {MAX_QUBITS}")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if 1 << n != amps.size:
            raise UsageError("amplitude array length is not a power of two")
        return cls(n, amps.copy())

    def clone(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _axis_view(self, q: int) -> np.ndarray:
        return self.amps.reshape(1 << (self.n - q - 1), 2, 1 << q)


def apply_gate(s: StateVector, gate: str, targets, theta: float | None = None) -> StateVector:
    """Apply a named gate in place and return the state.

    Gates: H, S, X, Y, Z (one target), CX, CZ (control, target),
    RZ(theta) = exp(-i theta Z / 2), RX(theta) = exp(-i theta X / 2).
    """
    if isinstance(targets, int):
        targets = (targets,)
    for q in targets:
        if not 0 <= q < s.n:
            raise UsageError(f"qubit index {q} out of range for n={s.n}")
    gate = gate.upper()
    if gate in ("X", "Y", "Z"):
        (q,) = targets
        return apply_pauli_string(s, PauliString.from_ops({q: gate}))
    if gate in ("CX", "CZ"):
        c, t = targets
        return apply_controlled_pauli(s, c, PauliString.from_ops({t: gate[1]}))

    (q,) = targets
    view = s._axis_view(q)
    u = view[:, 0, :].copy()
    v = view[:, 1, :].copy()
    if gate == "H":
        view[:, 0, :] = (u + v) * _SQ2
        view[:, 1, :] = (u - v) * _SQ2
    elif gate == "S":
        view[:, 1, :] = 1j * v
    elif gate == "RZ":
        if theta is None:
            raise UsageError("RZ needs theta")
        view[:, 0, :] = np.exp(-0.5j * theta) * u
        view[:, 1, :] = np.exp(0.5j * theta) * v
    elif gate == "RX":
        if theta is None:
            raise UsageError("RX needs theta")
        c, si = math.cos(theta / 2), math.sin(theta / 2)
        view[:, 0, :] = c * u - 1j * si * v
        view[:, 1, :] = c * v - 1j * si * u
    else:
        raise UsageError(f"unknown gate {gate!r}")
    return s


def _masks(p: PauliString) -> tuple[int, int]:
    xmask = 0
    zmask = 0
    for q, (x, z) in p.support.items():
        if x:
            xmask |= 1 << q
        if z:
            zmask |= 1 << q
    return xmask, zmask


def _pauli_action(s: StateVector, p: PauliString) -> np.ndarray:
    """Amplitudes of p|s> (new array; s untouched)."""
    xmask, zmask = _masks(p)
    idx = np.arange(s.amps.size, dtype=np.int64)
    src = idx ^ xmask
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zmask) & 1)
    return (1j ** p.phase) * signs * s.amps[src]


def apply_pauli_string(s: StateVector, p: PauliString) -> StateVector:
    if p.support and max(p.support) >= s.n:
        raise UsageError("Pauli support exceeds qubit count")
    s.amps = _pauli_action(s, p)
    return s


def apply_controlled_pauli(s: StateVector, control: int, p: PauliString) -> StateVector:
    """|1><1|_control (x) p  +  |0><0|_control (x) I, applied in place."""
    if control in p.support:
        raise UsageError("control qubit lies inside the string support")
    xmask, zmask = _masks(p)
    idx = np.arange(s.amps.size, dtype=np.int64)
    sel = ((idx >> control) & 1) == 1
    tgt = idx[sel]
    src = tgt ^ xmask
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zmask) & 1)
    s.amps[tgt] = (1j ** p.phase) * signs * s.amps[src]
    return s


def apply_pauli_exponential(s: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(i theta p) |s> via cos(theta) I + i sin(theta) p (needs p**2 = I)."""
    if not p.is_hermitian():
        raise UsageError("exponential needs a Hermitian string")
    rotated = _pauli_action(s, p)
    s.amps = math.cos(theta) * s.amps + 1j * math.sin(theta) * rotated
    return s


def evolve_hsurf(s: StateVector, lattice, coupling_u: float, coupling_j: float,
                 t: float) -> StateVector:
    """exp(-i H_surf t) with H_surf = -U sum_v H_v - J sum_f H_f.

    All terms commute, so the evolution factorizes exactly into
    prod_v exp(i U t H_v) prod_f exp(i J t H_f).
    """
    if lattice.n_edges > s.n:
        raise UsageError("state has fewer qubits than the lattice has edges")
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

    Projects a computational basis state onto the stabilizer group,
    psi = prod_g (I + g)/2 |b>, scanning b until the projection is nonzero.
    """
    if t.n > MAX_QUBITS:
        raise ConfigurationError(f"{t.n} qubits exceeds dense cap {MAX_QUBITS}")
    gens = t.stabilizer_generators()
    for b in range(1 << t.n):
        s = StateVector.computational(t.n, b)
        ok = True
        for g in gens:
            s.amps = 0.5 * (s.amps + _pauli_action(s, g))
            if np.linalg.norm(s.amps) < 1e-12:
                ok = False
                break
        if ok:
            s.amps /= np.linalg.norm(s.amps)
            return s
    raise ConfigurationError("failed to project stabilizer state")  # pragma: no cover
