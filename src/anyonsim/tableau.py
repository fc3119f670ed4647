"""Bit-packed stabilizer tableau with exact phase tracking.

Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers.  Each row stores a
Pauli operator in the package convention ``i**r * prod X**x Z**z`` (see
pauli.py), with x/z bits packed into 64-bit words so that torus(32) = 2048
qubits stays cheap.  Row phases are powers of i mod 4; destabilizer phases
are maintained but never read.

A Tableau is single-writer: gates and measurements mutate in place.  Clones
are cheap and independent, which is how parallel Monte Carlo shares states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UsageError
from .lattice import Lattice, logical_operators, shortest_string, string_to_boundary
from .pauli import PauliString, from_string_path

_ONE = np.uint64(1)


def _parity_words(words: np.ndarray) -> np.ndarray:
    """Parity of the popcount along the last axis."""
    return (np.bitwise_count(words).sum(axis=-1) & 1).astype(np.uint8)


class Tableau:
    """Stabilizer state of n qubits."""

    def __init__(self, n: int):
        if n < 1:
            raise UsageError("need at least one qubit")
        self.n = n
        self.words = (n + 63) // 64
        self.x = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.z = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        idx = np.arange(n)
        self.x[idx, idx >> 6] = _ONE << (idx & 63).astype(np.uint64)
        self.z[n + idx, idx >> 6] = _ONE << (idx & 63).astype(np.uint64)

    def clone(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.words = self.words
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t

    # -- packing -------------------------------------------------------
    def _pack(self, p: PauliString) -> tuple[np.ndarray, np.ndarray]:
        xw = np.zeros(self.words, dtype=np.uint64)
        zw = np.zeros(self.words, dtype=np.uint64)
        for q, (xb, zb) in p.support.items():
            if q >= self.n:
                raise UsageError(f"site {q} outside tableau of {self.n} qubits")
            w, b = q >> 6, np.uint64(q & 63)
            if xb:
                xw[w] |= _ONE << b
            if zb:
                zw[w] |= _ONE << b
        return xw, zw

    def _row_pauli(self, row: int) -> PauliString:
        support = {}
        for w in range(self.words):
            xbits = int(self.x[row, w])
            zbits = int(self.z[row, w])
            both = xbits | zbits
            while both:
                b = (both & -both).bit_length() - 1
                q = (w << 6) + b
                support[q] = ((xbits >> b) & 1, (zbits >> b) & 1)
                both &= both - 1
        return PauliString(int(self.r[row]), support)

    def stabilizer_generators(self) -> list[PauliString]:
        return [self._row_pauli(self.n + i) for i in range(self.n)]

    def dump(self) -> str:
        """Text snapshot of the stabilizer generator list (debugging aid)."""
        return "\n".join(str(g) for g in self.stabilizer_generators())

    # -- row algebra -----------------------------------------------------
    def _anticommute(self, xw: np.ndarray, zw: np.ndarray) -> np.ndarray:
        """Boolean per row: does the row anticommute with the packed Pauli."""
        acc = np.bitwise_count(self.x & zw[None, :]).sum(axis=1)
        acc += np.bitwise_count(self.z & xw[None, :]).sum(axis=1)
        return (acc & 1).astype(bool)

    def _rowmult_into(self, rows: np.ndarray, src: int) -> None:
        """row <- row * row_src for every row index in ``rows``."""
        cross = _parity_words(self.z[rows] & self.x[src][None, :])
        self.r[rows] = (self.r[rows] + self.r[src] + 2 * cross) & 3
        self.x[rows] ^= self.x[src]
        self.z[rows] ^= self.z[src]

    # -- Clifford gates ----------------------------------------------------
    def _bit(self, arr: np.ndarray, q: int) -> np.ndarray:
        return ((arr[:, q >> 6] >> np.uint64(q & 63)) & _ONE).astype(np.uint8)

    def h(self, q: int) -> "Tableau":
        xq, zq = self._bit(self.x, q), self._bit(self.z, q)
        self.r = (self.r + 2 * (xq & zq)) & 3
        diff = ((xq ^ zq).astype(np.uint64)) << np.uint64(q & 63)
        self.x[:, q >> 6] ^= diff
        self.z[:, q >> 6] ^= diff
        return self

    def s(self, q: int) -> "Tableau":
        xq = self._bit(self.x, q)
        self.r = (self.r + xq) & 3
        self.z[:, q >> 6] ^= xq.astype(np.uint64) << np.uint64(q & 63)
        return self

    def x_gate(self, q: int) -> "Tableau":
        self.r = (self.r + 2 * self._bit(self.z, q)) & 3
        return self

    def y_gate(self, q: int) -> "Tableau":
        self.r = (self.r + 2 * (self._bit(self.x, q) ^ self._bit(self.z, q))) & 3
        return self

    def z_gate(self, q: int) -> "Tableau":
        self.r = (self.r + 2 * self._bit(self.x, q)) & 3
        return self

    def cx(self, control: int, target: int) -> "Tableau":
        if control == target:
            raise UsageError("control equals target")
        xc = self._bit(self.x, control)
        zt = self._bit(self.z, target)
        self.x[:, target >> 6] ^= xc.astype(np.uint64) << np.uint64(target & 63)
        self.z[:, control >> 6] ^= zt.astype(np.uint64) << np.uint64(control & 63)
        return self

    def cz(self, control: int, target: int) -> "Tableau":
        if control == target:
            raise UsageError("control equals target")
        xc = self._bit(self.x, control)
        xt = self._bit(self.x, target)
        self.r = (self.r + 2 * (xc & xt)) & 3
        self.z[:, control >> 6] ^= xt.astype(np.uint64) << np.uint64(control & 63)
        self.z[:, target >> 6] ^= xc.astype(np.uint64) << np.uint64(target & 63)
        return self


# Gate name -> Tableau method name.  Methods are looked up on the instance at
# call time, so a wrapper installed on the class is seen by every caller.
_GATE_METHODS = {"H": "h", "S": "s", "X": "x_gate", "Y": "y_gate",
                 "Z": "z_gate", "CX": "cx", "CZ": "cz"}


def apply_gate(t: Tableau, gate: str, targets) -> Tableau:
    """Apply a named Clifford gate in place and return the tableau.

    Names and targets follow statevector.apply_gate: H, S, X, Y, Z (one
    target), CX, CZ (control, target), so one op list drives both engines.
    """
    method = _GATE_METHODS.get(gate.upper())
    if method is None:
        raise UsageError(f"unknown Clifford gate {gate!r}")
    if isinstance(targets, int):
        targets = (targets,)
    for q in targets:
        if not 0 <= q < t.n:
            raise UsageError(f"qubit index {q} out of range for n={t.n}")
    return getattr(t, method)(*targets)


# -- state operations -------------------------------------------------------

def apply_pauli_string(t: Tableau, p: PauliString) -> Tableau:
    """Multiply the state by p: only stabilizer signs change."""
    xw, zw = t._pack(p)
    flips = t._anticommute(xw, zw)
    t.r[flips] = (t.r[flips] + 2) & 3
    return t


def apply_controlled_string(t: Tableau, control: int, p: PauliString,
                            raw_photon_phase: bool = False) -> Tableau:
    """|1><1| (x) p + |0><0| (x) I, decomposed into CZ/CX (plus S for phase).

    With raw_photon_phase the photon-mediated form is reproduced instead,
    which differs by (-i)**weight(p) on the |1> branch; the factor lands on
    the control qubit as a frame rotation.
    """
    if control in p.support:
        raise UsageError("control qubit lies inside the string support")
    phase = p.phase % 4
    if raw_photon_phase:
        phase = (phase - p.weight) % 4
    for _ in range(phase):
        t.s(control)
    for q in sorted(p.support):
        xb, zb = p.support[q]
        if zb:
            t.cz(control, q)
        if xb:
            t.cx(control, q)
    return t


def measure_pauli(t: Tableau, p: PauliString, rng) -> tuple[int, Tableau]:
    """Projective measurement of a Hermitian Pauli; returns (+-1, tableau)."""
    if not p.is_hermitian():
        raise UsageError("measurement needs a Hermitian Pauli")
    xw, zw = t._pack(p)
    antic = t._anticommute(xw, zw)
    stab_rows = np.nonzero(antic[t.n:])[0]
    if stab_rows.size:
        pivot = t.n + int(stab_rows[0])
        others = np.nonzero(antic)[0]
        others = others[others != pivot]
        if others.size:
            t._rowmult_into(others, pivot)
        partner = pivot - t.n
        t.x[partner] = t.x[pivot]
        t.z[partner] = t.z[pivot]
        t.r[partner] = t.r[pivot]
        outcome = 1 if int(rng.integers(2)) == 0 else -1
        t.x[pivot] = xw
        t.z[pivot] = zw
        t.r[pivot] = (p.phase + (0 if outcome == 1 else 2)) & 3
        return outcome, t
    value = _deterministic_phase(t, p, xw, zw)
    if value == 1:
        return 1, t
    if value == -1:
        return -1, t
    raise ContractError("deterministic measurement with non-real phase")


def expectation_pauli(t: Tableau, p: PauliString) -> int:
    """Exact <p> for a Hermitian Pauli: 0 if undetermined, else +-1."""
    if not p.is_hermitian():
        raise UsageError("expectation needs a Hermitian Pauli")
    out = expectation_phase(t, p)
    return int(out.real)


def expectation_phase(t: Tableau, p: PauliString) -> complex:
    """<p> for any phase-tracked Pauli: 0, or a power of i."""
    xw, zw = t._pack(p)
    antic = t._anticommute(xw, zw)
    if antic[t.n:].any():
        return 0j
    return _deterministic_phase(t, p, xw, zw)


def _deterministic_phase(t, p, xw, zw) -> complex:
    """i**(k_p - k_prod) where prod over stabilizers matches p's bits."""
    members = np.nonzero(t._anticommute(xw, zw)[:t.n])[0]
    px = np.zeros(t.words, dtype=np.uint64)
    pz = np.zeros(t.words, dtype=np.uint64)
    phase = 0
    for j in members:
        row = t.n + int(j)
        phase = (phase + int(t.r[row]) + 2 * int(_parity_words(pz & t.x[row]))) & 3
        px ^= t.x[row]
        pz ^= t.z[row]
    if not (np.array_equal(px, xw) and np.array_equal(pz, zw)):
        raise ContractError("operator commutes with the group but is not in it")
    return 1j ** ((p.phase - phase) % 4)


@dataclass(frozen=True)
class Syndrome:
    """Stabilizers found at eigenvalue -1 (anyon positions)."""

    flipped_vertices: frozenset[int]
    flipped_faces: frozenset[int]

    @property
    def empty(self) -> bool:
        return not self.flipped_vertices and not self.flipped_faces


@dataclass(frozen=True)
class EnergyLedger:
    """Couplings of H_surf = -U sum_v H_v - J sum_f H_f."""

    coupling_u: float = 1.0
    coupling_j: float = 1.0


def syndrome(t: Tableau, lattice: Lattice) -> Syndrome:
    """Anyon positions: stabilizers at -1.  The state must be an eigenstate
    of every stabilizer (guaranteed after Pauli strings on eigenstates)."""
    flipped_v = set()
    flipped_f = set()
    for v in range(lattice.n_vertices):
        e = expectation_pauli(t, PauliString.x_on(lattice.star(v)))
        if e == 0:
            raise ContractError(f"vertex stabilizer {v} has no definite value")
        if e == -1:
            flipped_v.add(v)
    for f in range(lattice.n_faces):
        e = expectation_pauli(t, PauliString.z_on(lattice.boundary(f)))
        if e == 0:
            raise ContractError(f"face stabilizer {f} has no definite value")
        if e == -1:
            flipped_f.add(f)
    return Syndrome(frozenset(flipped_v), frozenset(flipped_f))


def relative_energy(s: Syndrome, ledger: EnergyLedger) -> float:
    """Energy above the ground state: each flipped stabilizer costs twice
    its coupling."""
    return (2.0 * ledger.coupling_u * len(s.flipped_vertices)
            + 2.0 * ledger.coupling_j * len(s.flipped_faces))


def prepare_ground_state(lattice: Lattice, logical_sector=0, n_ancillas: int = 0,
                         rng=None) -> Tableau:
    """Ground state of H_surf in a chosen logical sector.

    Starts from |0...0> (all H_f = +1), measures every H_v, pairs up the -1
    outcomes with z-strings (to each other on a torus, to the rough boundary
    on a planar code), then measures the logical Z operators and corrects
    with logical X strings.  The resulting state is unique, so the outcome
    does not depend on the rng; ancilla qubits (appended after the edge
    qubits) stay in |0>.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    t = Tableau(lattice.n_edges + n_ancillas)

    minus = []
    for v in range(lattice.n_vertices):
        outcome, _ = measure_pauli(t, PauliString.x_on(lattice.star(v)), rng)
        if outcome == -1:
            minus.append(v)
    if lattice.is_torus:
        if len(minus) % 2:
            raise ContractError("odd number of flipped vertices on a torus")
        for a, b in zip(minus[::2], minus[1::2]):
            path = shortest_string(lattice, "z", a, b)
            apply_pauli_string(t, from_string_path(path))
    else:
        for v in minus:
            path = string_to_boundary(lattice, "z", v)
            apply_pauli_string(t, from_string_path(path))

    pairs = logical_operators(lattice)
    if isinstance(logical_sector, int):
        bits = [logical_sector] if len(pairs) == 1 else [
            (logical_sector >> k) & 1 for k in range(len(pairs))]
    else:
        bits = list(logical_sector)
    if len(bits) != len(pairs):
        raise UsageError(f"need {len(pairs)} logical sector bits")
    for bit, (cz_path, cx_path) in zip(bits, pairs):
        want = 1 if bit == 0 else -1
        outcome, _ = measure_pauli(t, from_string_path(cz_path), rng)
        if outcome != want:
            apply_pauli_string(t, from_string_path(cx_path))
    return t
