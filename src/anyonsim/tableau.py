"""Bit-packed stabilizer tableau with exact phase tracking.

Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers (the destabilizer
form of Aaronson and Gottesman, PRA 70, 052328, 2004).  Each row stores a
Pauli operator in the package convention ``i**r * prod X**x Z**z`` (see
pauli.py).  Row phases are powers of i mod 4; destabilizer phases are
maintained but never read.

The x and z bits are stored per qubit column and packed along the rows:
bit b of ``x[w, q]`` is the x bit of qubit q in row 64w + b.  A qubit's
column ``x[:, q]`` is therefore a bitset over all 2n rows, and each 64-row
block ``x[w]`` is contiguous.  Every read starts from the row bitset of the
rows that anticommute with a Pauli, the XOR of its few support columns;
gates are XORs and swaps of columns, so torus(32) = 2048 qubits stays cheap.

A Tableau is single-writer: gates and measurements mutate in place.  Clones
are cheap and independent, which is how parallel Monte Carlo shares states.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UsageError, require_finite
from .lattice import Lattice, logical_operators
from .pauli import PauliString, from_string_path

_ONE = np.uint64(1)


def _row_bits(words: np.ndarray) -> np.ndarray:
    """One uint8 per row of a row bitset (row words on the last axis)."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")


class Tableau:
    """Stabilizer state of n qubits.  ``x`` and ``z`` have shape
    (ceil(2n/64), n): one column of row bits per qubit."""

    def __init__(self, n: int):
        if n < 1:
            raise UsageError("need at least one qubit")
        self.n = n
        self.x = np.zeros(((2 * n + 63) // 64, n), dtype=np.uint64)
        self.z = np.zeros_like(self.x)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        q = np.arange(n)
        self.x[q >> 6, q] = _ONE << (q & 63).astype(np.uint64)
        self.z[(n + q) >> 6, q] = _ONE << ((n + q) & 63).astype(np.uint64)

    def clone(self) -> "Tableau":
        return copy.deepcopy(self)

    # -- rows ------------------------------------------------------------
    def _row(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """The x and z bits of one row, one bool per qubit."""
        bit = _ONE << np.uint64(row & 63)
        return (self.x[row >> 6] & bit).astype(bool), (self.z[row >> 6] & bit).astype(bool)

    def _set_row(self, row: int, xs, zs, phase: int) -> None:
        """Overwrite one row with x bits on the qubits xs, z bits on zs."""
        bit = _ONE << np.uint64(row & 63)
        for arr, cols in ((self.x, xs), (self.z, zs)):
            arr[row >> 6] &= ~bit
            arr[row >> 6, cols] |= bit
        self.r[row] = phase

    def _row_pauli(self, row: int) -> PauliString:
        xb, zb = self._row(row)
        support = {int(q): (int(xb[q]), int(zb[q])) for q in np.flatnonzero(xb | zb)}
        return PauliString(int(self.r[row]), support)

    def stabilizer_generators(self) -> list[PauliString]:
        return [self._row_pauli(self.n + i) for i in range(self.n)]

    def dump(self) -> str:
        """Text snapshot of the stabilizer generator list (debugging aid)."""
        return "\n".join(str(g) for g in self.stabilizer_generators())

    # -- row algebra -----------------------------------------------------
    def _columns(self, p: PauliString) -> tuple[list[int], list[int]]:
        """The qubits where p has an x bit, and those where it has a z bit."""
        for q in p.support:
            if not 0 <= q < self.n:
                raise UsageError(f"site {q} outside tableau of {self.n} qubits")
        return ([q for q, (xb, _) in p.support.items() if xb],
                [q for q, (_, zb) in p.support.items() if zb])

    def _anticommute(self, xs, zs) -> np.ndarray:
        """Row bitset of the rows anticommuting with the Pauli that has x
        bits on the qubits xs and z bits on zs: a row's z bits meet the x
        bits and its x bits the z bits."""
        rows = np.zeros(self.x.shape[0], dtype=np.uint64)
        for bits, cols in ((self.z, xs), (self.x, zs)):
            if len(cols):  # an empty reduce costs as much as a short one
                rows ^= np.bitwise_xor.reduce(bits[:, cols], axis=1)
        return rows

    def _add_phase(self, k: int, rows: np.ndarray) -> None:
        """r <- r + k on every row of the bitset ``rows``."""
        self.r = (self.r + k * _row_bits(rows)[:2 * self.n]) & 3

    def _rowmult_into(self, rows: np.ndarray, src: int) -> None:
        """row <- row * row_src for every row of the bitset ``rows``
        (which must not hold src)."""
        sx, sz = (np.flatnonzero(bits) for bits in self._row(src))
        # Z**z_row X**x_src = (-1)**(z_row . x_src) X**x_src Z**z_row
        cross = np.bitwise_xor.reduce(self.z[:, sx], axis=1) & rows
        self._add_phase(int(self.r[src]), rows)
        self._add_phase(2, cross)
        self.x[:, sx] ^= rows[:, None]
        self.z[:, sz] ^= rows[:, None]

    # -- Clifford gates ----------------------------------------------------
    def _col(self, arr: np.ndarray, q: int) -> np.ndarray:
        """Column q of ``arr`` (a view); every gate reads its qubits through
        here before writing, so this is where an index outside 0..n-1 is
        rejected."""
        if not 0 <= q < self.n:
            raise UsageError(f"qubit index {q} out of range for n={self.n}")
        return arr[:, q]

    def h(self, q: int) -> "Tableau":
        xq, zq = self._col(self.x, q).copy(), self._col(self.z, q).copy()
        self._add_phase(2, xq & zq)
        self.x[:, q], self.z[:, q] = zq, xq
        return self

    def s(self, q: int) -> "Tableau":
        xq = self._col(self.x, q)
        self._add_phase(1, xq)
        self.z[:, q] ^= xq
        return self

    def x_gate(self, q: int) -> "Tableau":
        self._add_phase(2, self._col(self.z, q))
        return self

    def y_gate(self, q: int) -> "Tableau":
        self._add_phase(2, self._col(self.x, q) ^ self._col(self.z, q))
        return self

    def z_gate(self, q: int) -> "Tableau":
        self._add_phase(2, self._col(self.x, q))
        return self

    def cx(self, control: int, target: int) -> "Tableau":
        if control == target:
            raise UsageError("control equals target")
        xc, zt = self._col(self.x, control), self._col(self.z, target)
        self.x[:, target] ^= xc
        self.z[:, control] ^= zt
        return self

    def cz(self, control: int, target: int) -> "Tableau":
        if control == target:
            raise UsageError("control equals target")
        xc, xt = self._col(self.x, control), self._col(self.x, target)
        self._add_phase(2, xc & xt)
        self.z[:, control] ^= xt
        self.z[:, target] ^= xc
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
    return getattr(t, method)(*targets)


# -- state operations -------------------------------------------------------

def apply_pauli_string(t: Tableau, p: PauliString) -> Tableau:
    """Multiply the state by p: only stabilizer signs change."""
    t._add_phase(2, t._anticommute(*t._columns(p)))
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
    return _project(t, p, rng=rng), t


def _project(t: Tableau, p: PauliString, rng=None, want: int | None = None) -> int:
    """Project t onto an eigenspace of the Hermitian Pauli p; returns its
    eigenvalue +-1.  If the value is random it is ``want`` when given, else
    drawn from rng; a determined value other than ``want`` has zero
    probability and raises ContractError."""
    if not p.is_hermitian():
        raise UsageError("measurement needs a Hermitian Pauli")
    xs, zs = t._columns(p)
    antic = t._anticommute(xs, zs)
    rows = np.flatnonzero(_row_bits(antic))
    if rows.size and rows[-1] >= t.n:
        pivot = int(rows[rows >= t.n][0])
        antic[pivot >> 6] ^= _ONE << np.uint64(pivot & 63)
        t._rowmult_into(antic, pivot)
        t._set_row(pivot - t.n, *(np.flatnonzero(b) for b in t._row(pivot)), t.r[pivot])
        if want is None:
            want = 1 if int(rng.integers(2)) == 0 else -1
        t._set_row(pivot, xs, zs, (p.phase + (0 if want == 1 else 2)) & 3)
        return want
    value = _deterministic_phase(t, p.phase, xs, zs, rows)
    if value not in (1, -1):
        raise ContractError("deterministic measurement with non-real phase")
    if want is not None and value != want:
        raise ContractError(f"outcome {want} has zero probability")
    return int(value.real)


def expectation_pauli(t: Tableau, p: PauliString) -> int:
    """Exact <p> for a Hermitian Pauli: 0 if undetermined, else +-1."""
    if not p.is_hermitian():
        raise UsageError("expectation needs a Hermitian Pauli")
    out = expectation_phase(t, p)
    return int(out.real)


def expectation_phase(t: Tableau, p: PauliString) -> complex:
    """<p> for any phase-tracked Pauli: 0, or a power of i."""
    xs, zs = t._columns(p)
    rows = np.flatnonzero(_row_bits(t._anticommute(xs, zs)))
    if rows.size and rows[-1] >= t.n:
        return 0j
    return _deterministic_phase(t, p.phase, xs, zs, rows)


def _deterministic_phase(t, p_phase, xs, zs, members) -> complex:
    """<p> = i**(k_p - k_prod) for a p in the stabilizer group, with x bits
    on the qubits xs and z bits on zs.  prod is the product of the
    stabilizer rows n+j for the destabilizers j in ``members`` (those
    anticommuting with p), each read from its 64-row block; it must
    reproduce p's bits."""
    px = np.zeros(t.n, dtype=bool)
    pz = np.zeros(t.n, dtype=bool)
    phase = 0
    for j in members:
        row = t.n + int(j)
        xb, zb = t._row(row)
        phase += int(t.r[row]) + 2 * int(np.count_nonzero(pz & xb))
        px ^= xb
        pz ^= zb
    px[xs] ^= True
    pz[zs] ^= True
    if np.count_nonzero(px) or np.count_nonzero(pz):
        raise ContractError("operator commutes with the group but is not in it")
    return 1j ** ((p_phase - phase) % 4)


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

    def __post_init__(self):
        require_finite(self, "coupling_u", "coupling_j")


_SYNDROME_BLOCK = 64  # stabilizers per block; bounds the unpacked row bits


def syndrome(t: Tableau, lattice: Lattice) -> Syndrome:
    """Anyon positions: stabilizers at -1.  The state must be an eigenstate
    of every stabilizer (guaranteed after Pauli strings on eigenstates).

    Stabilizers have weight <= 4, so the rows anticommuting with each one
    are the XOR of its few support columns, read 64 stabilizers at a time,
    instead of a full-tableau expectation (oracle.syndrome_by_expectation
    keeps that slow path as the reference).
    """
    if lattice.n_edges > t.n:
        raise UsageError(f"lattice of {lattice.n_edges} edges outside tableau "
                         f"of {t.n} qubits")
    # X-type vertex stabilizers have x bits only, Z-type faces z bits only
    stabilizers = ([("vertex", v, list(s), []) for v, s in enumerate(lattice.stars)]
                   + [("face", f, [], list(b)) for f, b in enumerate(lattice.boundaries)])
    flipped = {"vertex": set(), "face": set()}
    for first in range(0, len(stabilizers), _SYNDROME_BLOCK):
        block = stabilizers[first:first + _SYNDROME_BLOCK]
        rows = _row_bits(np.stack([t._anticommute(xs, zs) for _, _, xs, zs in block]))
        for (kind, i, xs, zs), antic in zip(block, rows):
            value = 0
            if not antic[t.n:].any():
                value = _deterministic_phase(t, 0, xs, zs, np.flatnonzero(antic[:t.n]))
            if value == -1:
                flipped[kind].add(i)
            elif value != 1:
                raise ContractError(f"{kind} stabilizer {i} has no definite value")
    return Syndrome(frozenset(flipped["vertex"]), frozenset(flipped["face"]))


def syndrome_after(s: Syndrome, lattice: Lattice, p: PauliString) -> Syndrome:
    """Syndrome of p|psi>, given the syndrome ``s`` of |psi>.

    p flips exactly the stabilizers it anticommutes with: a z bit on an edge
    flips the vertex stabilizers at its ends, an x bit the face stabilizers
    beside it.  Boundary ends (None) and sites beyond the lattice edges
    (ancillas) flip nothing.  Exact for any Pauli acting on a stabilizer
    eigenstate, at a cost of O(|support of p|).
    """
    vertices = set(s.flipped_vertices)
    faces = set(s.flipped_faces)
    for q, (xb, zb) in p.support.items():
        if q >= lattice.n_edges:
            continue
        if zb:
            vertices ^= {v for v in lattice.edge_vertices[q] if v is not None}
        if xb:
            faces ^= {f for f in lattice.edge_faces[q] if f is not None}
    return Syndrome(frozenset(vertices), frozenset(faces))


def relative_energy(s: Syndrome, ledger: EnergyLedger) -> float:
    """Energy above the ground state: each flipped stabilizer costs twice
    its coupling."""
    return (2.0 * ledger.coupling_u * len(s.flipped_vertices)
            + 2.0 * ledger.coupling_j * len(s.flipped_faces))


def prepare_ground_state(lattice: Lattice, logical_sector=0, n_ancillas: int = 0,
                         rng=None) -> Tableau:
    """Ground state of H_surf in a chosen logical sector.

    Starts from |0...0>, where every H_f and logical Z reads +1, projects
    every H_v onto +1 and flips each logical Z off its sector with the
    logical X string.  Measuring H_v and pairing the -1 outcomes with
    z-strings, as the paper's protocol does, gives the same state: the
    strings flip only the stars at their ends and commute with every H_f
    and logical Z, whose joint eigenstate is unique.  On a torus the last
    star is already +1, the product of the others.  Ancilla qubits
    (appended after the edge qubits) stay in |0>.  ``rng`` is not read.
    """
    t = Tableau(lattice.n_edges + n_ancillas)
    for star in lattice.stars:
        _project(t, PauliString.x_on(star), want=1)

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
        if expectation_pauli(t, from_string_path(cz_path)) != want:
            apply_pauli_string(t, from_string_path(cx_path))
    return t
