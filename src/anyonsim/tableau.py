"""Bit-packed stabilizer tableau with exact phase tracking.

Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers (the destabilizer
form of Aaronson and Gottesman, PRA 70, 052328, 2004).  Each row stores a
Pauli operator in the package convention ``i**r * prod X**x Z**z`` (see
pauli.py).  Row phases are powers of i mod 4; destabilizer phases are
maintained but never read.

The x and z bits are stored per qubit column and packed along the rows:
bit b of ``x[w, q]`` is the x bit of qubit q in row 64w + b.  A qubit's
column ``x[:, q]`` is therefore a bitset over all 2n rows.  Both halves
live in one array ``xz`` of shape (ceil(2n/64), 2, n), so each 64-row
block ``xz[w]`` holds the x then the z words of all qubits contiguously,
and ``x``, ``z`` are its two views.  Gates are XORs and swaps of columns,
so torus(32) = 2048 qubits stays cheap.  A tableau's bits may take at most
1 GiB (_MAX_TABLEAU_BYTES, n <= 46 336); a larger n is refused before
anything is allocated.

Every read and Pauli update starts from the row bitsets of the rows that
anticommute with a batch of Paulis: _targets lists, for each bit of the
batch, the tableau column it meets (in the (W, 2n) view of ``xz``), and
packs each Pauli's bits along the qubits next to its phase; _antic XORs
each Pauli's few columns, one gather and one reduceat for the batch.
_group_phases reads the batch: 0 for a Pauli that a stabilizer row
anticommutes with, else <p> = i**(k_p - k_prod), where prod is the
product of the stabilizer rows whose destabilizers anticommute with p.
One pass over the set bits of the row bitsets finds both.  Only the
member rows are read, packed along the qubits: byte b of a word holds 8
rows of its column, so _row_planes transposes just the byte planes (8
rows by 2n columns) that hold them.  A segmented prefix XOR with a
popcount gives every product's phase (the deterministic read of Aaronson
and Gottesman, batched as in Gidney's Stim, Quantum 5, 497, 2021).
syndrome reads every stabilizer in one batch, expectations any list of
Paulis; expectation_phase and measurement read a batch of one.

prepare_ground_state projects the stars with one row-greedy GF(2)
Gauss-Jordan pass over the packed rows of the star incidence, kept in the
layout of the tableau's z columns, and writes the result once
(_star_tableau); oracle.ground_state_by_projection, one measurement update
per star, is its reference.

A Tableau is single-writer: gates and measurements mutate in place.  Clones
are cheap and independent, which is how parallel Monte Carlo shares states.
"""

from __future__ import annotations

import copy
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, UsageError, require
from .lattice import Lattice, logical_operators
from .pauli import PauliString, from_string_path

_ONE = np.uint64(1)
_BITS = _ONE << np.arange(64, dtype=np.uint64)
# the packed x and z bits of a Tableau, 2 * ceil(2n/64) * n words, may take
# at most 1 GiB: n <= 46 336
_MAX_TABLEAU_BYTES = 1 << 30


def _bit(idx: np.ndarray) -> np.ndarray:
    """The word bit of each row or qubit index: 1 << (idx mod 64)."""
    return _BITS[idx & 63]


def _row_bits(words: np.ndarray) -> np.ndarray:
    """One uint8 per row of a row bitset (row words on the last axis)."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")


class Tableau:
    """Stabilizer state of n qubits.  ``xz`` has shape (ceil(2n/64), 2, n):
    for each 64-row block, one column of row bits per qubit for x, then for
    z; ``x`` and ``z`` are its two (ceil(2n/64), n) views."""

    def __init__(self, n: int):
        require(n, "n", integer=True, ge=1)
        size = 16 * ((2 * int(n) + 63) // 64) * int(n)
        if size > _MAX_TABLEAU_BYTES:
            raise ConfigurationError(f"n={n} qubits need {size} bytes of tableau bits, "
                                     f"above the budget of {_MAX_TABLEAU_BYTES} bytes")
        self.n = n
        self.xz = np.zeros(((2 * n + 63) // 64, 2, n), dtype=np.uint64)
        self.x, self.z = self.xz[:, 0], self.xz[:, 1]
        self.r = np.zeros(2 * n, dtype=np.uint8)
        q = np.arange(n)
        self.x[q >> 6, q] = _bit(q)
        self.z[(n + q) >> 6, q] = _bit(n + q)

    def clone(self) -> "Tableau":
        other = copy.copy(self)
        other.__setstate__({"xz": self.xz.copy(), "r": self.r.copy()})
        return other

    # copies and pickles carry n, xz and r; x and z are made again as views
    def __getstate__(self) -> dict:
        return {"n": self.n, "xz": self.xz, "r": self.r}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.x, self.z = self.xz[:, 0], self.xz[:, 1]

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
    def _add_phase(self, k: int, rows: np.ndarray) -> None:
        """r <- r + k on every row of the bitset ``rows``."""
        self.r = (self.r + k * _row_bits(rows)[:2 * self.n]) & 3

    def _rowmult_into(self, rows: np.ndarray, src: int) -> None:
        """row <- row * row_src for every row of the bitset ``rows``
        (which must not hold src)."""
        sx, sz = (np.flatnonzero(bits) for bits in self._row(src))
        # Z**z_row X**x_src = (-1)**(z_row . x_src) X**x_src Z**z_row; one
        # direct reduce, as _antic's target set-up would slow each measurement
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
        require(q, "qubit index", integer=True)
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


def _gate_targets(gate: str, targets) -> tuple:
    """The targets of a named gate as a tuple, checked for its arity: one
    qubit (or a bare int), or (control, target) for CX and CZ.  Both
    engines' apply_gate read their targets through here."""
    try:
        targets = tuple(targets)
    except TypeError:  # one bare qubit
        targets = (targets,)
    arity = 2 if gate.upper() in ("CX", "CZ") else 1
    if len(targets) != arity:
        raise UsageError(f"gate {gate!r} takes {arity} qubit(s), got targets={targets!r}")
    return targets


def apply_gate(t: Tableau, gate: str, targets) -> Tableau:
    """Apply a named Clifford gate in place and return the tableau.

    Names and targets follow statevector.apply_gate: H, S, X, Y, Z (one
    target), CX, CZ (control, target), so one op list drives both engines.
    """
    method = _GATE_METHODS.get(gate.upper())
    if method is None:
        raise UsageError(f"unknown Clifford gate {gate!r}")
    return getattr(t, method)(*_gate_targets(gate, targets))


# -- state operations -------------------------------------------------------

def apply_pauli_string(t: Tableau, p: PauliString) -> Tableau:
    """Multiply the state by p: only stabilizer signs change."""
    t._add_phase(2, _antic(t, _targets(t, [p]), 1)[0])
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
    targets = _targets(t, [p])
    antic = _antic(t, targets, 1)
    rows = np.flatnonzero(_row_bits(antic[0]))
    if rows.size and rows[-1] >= t.n:
        pivot = int(rows[rows >= t.n][0])
        antic[0, pivot >> 6] ^= _ONE << np.uint64(pivot & 63)
        t._rowmult_into(antic[0], pivot)
        t._set_row(pivot - t.n, *(np.flatnonzero(b) for b in t._row(pivot)), t.r[pivot])
        if want is None:
            want = 1 if int(rng.integers(2)) == 0 else -1
        xs, zs = ([q for q, bits in p.support.items() if bits[side]] for side in (0, 1))
        t._set_row(pivot, xs, zs, (p.phase + (0 if want == 1 else 2)) & 3)
        return want
    value = complex(_group_phases(t, antic, targets)[0])
    if value not in (1, -1):
        raise ContractError("deterministic measurement with non-real phase")
    if want is not None and value != want:
        raise ContractError(f"outcome {want} has zero probability")
    return int(value.real)


def expectation_pauli(t: Tableau, p: PauliString) -> int:
    """Exact <p> for a Hermitian Pauli: 0 if undetermined, else +-1."""
    if not p.is_hermitian():
        raise UsageError("expectation needs a Hermitian Pauli")
    return int(expectation_phase(t, p).real)


def expectation_phase(t: Tableau, p: PauliString) -> complex:
    """<p> for any phase-tracked Pauli: 0, or a power of i."""
    return complex(expectations(t, [p])[0])


def expectations(t: Tableau, paulis) -> np.ndarray:
    """<p> for each phase-tracked Pauli of ``paulis``, in one _group_phases
    batch: 0 for those without a definite value, else a power of i."""
    targets = _targets(t, paulis)
    return _group_phases(t, _antic(t, targets, len(paulis)), targets)


def _targets(t: Tableau, paulis) -> tuple:
    """The bits of a batch of k Paulis as _antic and _group_phases read
    them: ``cols``, the tableau column each bit meets in the (W, 2n) view
    of ``xz`` (z column n + q for an x bit on q, x column q for a z bit),
    Pauli after Pauli; ``starts``, the index in ``cols`` of the first bit
    of each Pauli that has bits, and ``holders``, those Paulis; the bits
    themselves, packed along the qubits into (k, 2, ceil(n/64)) words; and
    each Pauli's phase exponent."""
    n = t.n
    n_bytes = 8 * -(-n // 64)
    cols, starts, holders, packed, phases = [], [], [], [], []
    for i, p in enumerate(paulis):
        phases.append(p.phase)
        x_word = z_word = 0
        start = len(cols)
        for q, (xb, zb) in p.support.items():
            q = int(q)  # a numpy integer site packs as a Python int
            if not 0 <= q < n:
                raise UsageError(f"site {q} outside tableau of {n} qubits")
            if xb:
                cols.append(n + q)
                x_word |= 1 << q
            if zb:
                cols.append(q)
                z_word |= 1 << q
        if len(cols) > start:
            starts.append(start)
            holders.append(i)
        packed += (x_word.to_bytes(n_bytes, "little"), z_word.to_bytes(n_bytes, "little"))
    flat = np.array(cols + starts + holders + phases, dtype=np.int64)
    m, h = len(cols), len(holders)
    bits = np.frombuffer(b"".join(packed), dtype="<u8").reshape(len(paulis), 2, n_bytes // 8)
    return flat[:m], flat[m:m + h], flat[m + h:m + 2 * h], bits, flat[m + 2 * h:]


def _antic(t: Tableau, targets, k: int) -> np.ndarray:
    """The (k, W) bitsets of the rows anticommuting with each of the k Paulis
    of ``targets`` (_targets): the XOR of the tableau columns their bits
    meet, one gather and one reduceat at the starts."""
    cols, starts, holders = targets[:3]
    columns = np.take(t.xz.reshape(len(t.xz), -1), cols, axis=1)
    rows = np.bitwise_xor.reduceat(columns, starts, axis=1).T
    if len(holders) == k:  # every Pauli has bits: no scatter
        return rows
    antic = np.zeros((k, len(t.xz)), dtype=np.uint64)
    antic[holders] = rows
    return antic


def _indefinite(t: Tableau, antic: np.ndarray) -> np.ndarray:
    """Whether each row bitset of ``antic`` (k, W) holds a stabilizer row:
    the Pauli it belongs to has no definite value."""
    low = np.uint64((1 << (t.n & 63)) - 1)
    return ((antic[:, t.n >> 6] & ~low).astype(bool)
            | antic[:, (t.n >> 6) + 1:].any(axis=1))


# i**k for k = 0..3, the values a phase-tracked expectation can take
_I_POWERS = np.array([1j ** k for k in range(4)])
_PASS_WORDS = 1 << 15  # words per member-row array in one kernel pass (256 KiB)
_BYTE_BITS = np.uint8(1) << np.arange(8, dtype=np.uint8)
_PLANE_GROUP = 1 << 18  # bytes of unpacked plane bits handled at once (256 KiB)


def _row_planes(t: Tableau, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte planes holding ``rows``, transposed.  Byte b of a word
    ``xz[w, s, q]`` holds rows 64w + 8b .. 64w + 8b + 7 of column (s, q),
    so the 8 rows 8p .. 8p + 7 share the byte plane p of 2n bytes.
    ``table[s, i]`` holds the x and z bits (2, ceil(n/64)) of row i of the
    plane in slot s, packed along the qubits, and ``slots`` gives each
    row's slot.  Only the planes that hold ``rows`` are read, each once,
    and a bounded group of them is unpacked at a time: each of a plane's
    8 rows keeps its bit of every byte, and the bytes are packed again
    along the qubits."""
    plane_of = rows >> 3
    used = np.zeros(8 * len(t.xz), dtype=bool)
    used[plane_of] = True
    planes = used.nonzero()[0]
    xz8 = np.asarray(t.xz, dtype="<u8").view(np.uint8).reshape(*t.xz.shape, 8)
    table = np.zeros((len(planes), 8, 2, 8 * -(-t.n // 64)), dtype=np.uint8)
    step = max(1, _PLANE_GROUP // (16 * t.n))
    for lo in range(0, len(planes), step):
        w, b = np.divmod(planes[lo:lo + step], 8)
        bits = xz8[w, None, :, :, b] & _BYTE_BITS[:, None, None]  # (g, 8, 2, n)
        table[lo:lo + step, ..., :-(-t.n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return table.view("<u8"), planes.searchsorted(plane_of)


def _group_phases(t: Tableau, antic, targets) -> np.ndarray:
    """<p> for k Paulis p: 0 if undetermined, else i**(k_p - k_prod).

    ``antic`` (k, W) holds each p's row bitset (_antic); ``targets``
    (_targets) holds p's bits, packed along the qubits (k, 2, ceil(n/64)),
    and its phase exponent k_p.  One pass over the set bits of the bitsets
    finds both kinds of row.  A p whose bitset holds a stabilizer row reads
    0, with no members and no product check (the one place a read is found
    undetermined).  For every other p, prod is the ordered product of the
    stabilizer rows n+j over p's members, the destabilizers j that
    anticommute with p, and it must reproduce p's bits.  Since
    Z**z_i X**x_j = (-1)**(z_i . x_j) X**x_j Z**z_i,
    k_prod = sum r + 2 sum_{i<j} z_i . x_j (mod 4): each member's x row
    meets the segmented exclusive prefix XOR of the z rows before it.

    Only the member rows are read, from the transposed byte planes that
    hold them (_row_planes).  Paulis are taken in passes of a bounded
    number of member rows; a batch that fits in one pass is read in one.
    """
    n, k = t.n, len(antic)
    want, expo = targets[3], targets[4].copy()
    owner, word = antic.nonzero()  # the words holding set bits, in order
    hit, bit = _row_bits(antic[owner, word, None]).nonzero()
    owner, rows = owner[hit], 64 * word[hit] + bit
    indefinite = None
    if rows.max(initial=0) >= n:  # no members and no bits to check
        indefinite = np.zeros(k, dtype=bool)
        indefinite[owner[rows >= n]] = True
        if indefinite.all():
            return np.zeros(k, dtype=complex)
        keep = ~indefinite[owner]
        owner, rows = owner[keep], rows[keep]
        want = want * ~indefinite[:, None, None]
    rows += n
    n_words = want.shape[2]
    counts = np.bincount(owner, minlength=k)
    budget = _PASS_WORDS // (2 * n_words)
    cuts = (0, k) if k else ()
    if len(rows) > budget:
        cuts = sorted({0, k, *counts.cumsum().searchsorted(range(budget, len(rows), budget),
                                                          side="right").tolist()})
    table, slots = _row_planes(t, rows)
    m0 = 0
    for lo, hi in zip(cuts, cuts[1:]):
        end = counts[lo:hi].cumsum()
        start = end - counts[lo:hi]
        m1 = m0 + end[-1]
        r = rows[m0:m1]
        xz = table[slots[m0:m1], r & 7]
        acc = np.zeros((len(r) + 1, 2, n_words), dtype=np.uint64)
        np.bitwise_xor.accumulate(xz, axis=0, out=acc[1:])
        first = acc[start]
        if np.count_nonzero(acc[end] ^ first ^ want[lo:hi]):
            raise ContractError("operator commutes with the group but is not in it")
        seg = owner[m0:m1] - lo
        z_before = acc[:-1, 1] ^ first[seg, 1]
        terms = 2 * np.bitwise_count(z_before & xz[:, 0]).sum(axis=1) + t.r[r]
        expo[lo:hi] -= np.bincount(seg, weights=terms, minlength=hi - lo).astype(np.int64)
        m0 = m1
    values = _I_POWERS[expo & 3]
    if indefinite is not None:
        values[indefinite] = 0
    return values


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
        for name in ("coupling_u", "coupling_j"):
            require(getattr(self, name), name, error=ConfigurationError)


def syndrome(t: Tableau, lattice: Lattice) -> Syndrome:
    """Anyon positions: stabilizers at -1.  The state must be an eigenstate
    of every stabilizer (guaranteed after Pauli strings on eigenstates).

    Every stabilizer is read in one _group_phases batch, its targets built
    from the lattice's stars and boundaries (_stabilizer_targets;
    oracle.syndrome_by_expectation, one expectation per stabilizer, is the
    reference).
    """
    if lattice.n_edges > t.n:
        raise UsageError(f"lattice of {lattice.n_edges} edges outside tableau "
                         f"of {t.n} qubits")
    n_v = lattice.n_vertices
    k = n_v + lattice.n_faces
    targets = _stabilizer_targets(lattice, t.n)
    values = _group_phases(t, _antic(t, targets, k), targets)
    bad = np.flatnonzero((values != 1) & (values != -1))
    if bad.size:
        kind, i = ("vertex", bad[0]) if bad[0] < n_v else ("face", bad[0] - n_v)
        raise ContractError(f"{kind} stabilizer {i} has no definite value")
    flipped = np.flatnonzero(values == -1)
    return Syndrome(frozenset(flipped[flipped < n_v].tolist()),
                    frozenset((flipped[flipped >= n_v] - n_v).tolist()))


def _stabilizer_targets(lattice: Lattice, n: int) -> tuple:
    """The _targets of the vertex then face stabilizers of ``lattice`` on n
    qubits, built from its stars and boundaries: X-type stars have x bits
    only, meeting z columns, and Z-type faces z bits only, meeting x
    columns."""
    groups = lattice.stars + lattice.boundaries
    sizes = np.fromiter(map(len, groups), np.int64, len(groups))
    qubits = np.fromiter(itertools.chain.from_iterable(groups), np.int64, sizes.sum())
    owner = np.repeat(np.arange(len(groups)), sizes)
    side = (owner >= lattice.n_vertices).astype(np.int64)
    bits = np.zeros((len(groups), 2, -(-n // 64)), dtype=np.uint64)
    np.bitwise_or.at(bits, (owner, side, qubits >> 6), _bit(qubits))
    return (np.where(side, qubits, n + qubits), sizes.cumsum() - sizes, np.arange(len(groups)),
            bits, np.zeros(len(groups), dtype=np.int64))


def created_syndrome(lattice: Lattice, p: PauliString) -> Syndrome:
    """The syndrome p creates on a state without anyons, the stabilizers it
    anticommutes with, in O(|support of p|): a z bit on an edge meets the
    vertex stabilizers at its ends, an x bit the faces beside it; boundary
    ends (None) and sites past the lattice edges (ancillas) meet none."""
    vertices, faces = set(), set()
    for q, (xb, zb) in p.support.items():
        if q < 0:
            raise UsageError(f"Pauli site {q} is negative")
        if q >= lattice.n_edges:
            continue
        if zb:
            vertices ^= {v for v in lattice.edge_vertices[q] if v is not None}
        if xb:
            faces ^= {f for f in lattice.edge_faces[q] if f is not None}
    return Syndrome(frozenset(vertices), frozenset(faces))


def prepare_ground_state(lattice: Lattice, logical_sector=0, n_ancillas: int = 0,
                         rng=None) -> Tableau:
    """Ground state of H_surf in a chosen logical sector.

    Starts from |0...0>, where every H_f and logical Z reads +1, projects
    every H_v onto +1 and flips each logical Z off its sector with the
    logical X string.  Measuring H_v and pairing the -1 outcomes with
    z-strings, as the paper's protocol does, gives the same state: the
    strings flip only the stars at their ends and commute with every H_f
    and logical Z, whose joint eigenstate is unique.  On a torus the last
    star is already +1, the product of the others, and is not projected.
    The projections are one elimination (_star_tableau), which writes the
    tableau that projecting the stars one at a time would leave
    (oracle.ground_state_by_projection).  Ancilla qubits (appended after
    the edge qubits) stay in |0>.  ``rng`` is not read.
    """
    require(n_ancillas, "n_ancillas", integer=True, ge=0)
    flips = _sector_flips(lattice, logical_sector)
    t = _star_tableau(lattice.n_edges + int(n_ancillas), _projected_stars(lattice))
    for flip in flips:
        apply_pauli_string(t, flip)
    return t


def _projected_stars(lattice: Lattice) -> tuple[tuple[int, ...], ...]:
    """The stars a ground-state preparation projects: on a torus the last
    star is the product of the others and is left out."""
    return lattice.stars[:-1] if lattice.is_torus else lattice.stars


def _sector_flips(lattice: Lattice, logical_sector) -> list[PauliString]:
    """The logical X strings that take the all-+1 logical Z sector to
    ``logical_sector``: an integer whose bit k is logical qubit k, or one
    0/1 per logical qubit."""
    pairs = logical_operators(lattice)
    if isinstance(logical_sector, numbers.Integral):
        require(logical_sector, "logical_sector", integer=True, ge=0,
                le=2 ** len(pairs) - 1)
        bits = [(int(logical_sector) >> k) & 1 for k in range(len(pairs))]
    else:
        try:
            bits = list(logical_sector)
        except TypeError:
            raise UsageError("logical_sector must be an integer or a sequence of "
                             f"bits, got {logical_sector!r}") from None
    if len(bits) != len(pairs):
        raise UsageError(f"logical_sector needs {len(pairs)} bits, got {logical_sector!r}")
    if any(bit not in (0, 1) for bit in bits):
        raise UsageError(f"logical_sector bits must be 0 or 1, got {logical_sector!r}")
    # every logical Z commutes with the stars, so it reads +1 until flipped
    return [from_string_path(cx_path) for bit, (_, cx_path) in zip(bits, pairs) if bit]


def _star_tableau(n: int, stars) -> Tableau:
    """The tableau of |0...0> on n qubits projected onto +1 of each star's
    X, in order, as _project leaves it one star at a time, from one
    row-greedy Gauss-Jordan pass over the packed rows of [S | I].

    S is the star-qubit incidence.  Star j's pivot p_j is the lowest qubit
    of its row once reduced by the stars before it, which is the qubit
    whose Z stabilizer row _project would replace.  With P the pivot
    qubits, every row stays Z- or X-type with phase 0, and:
    - destabilizer p_j is Z on S_P^-1 e_j;
    - stabilizer n + p_j is star j;
    - stabilizer n + q of a free qubit q is Z_q times Z on S_P^-1 S_q;
    - destabilizer q of a free qubit stays X_q, and its stabilizer Z_q.
    So the z column of p_j, a bitset over the 2n rows, is row j of the
    reduced I part read through i -> p_i, then row j of the reduced S part
    without its pivot bit, shifted by n.  Each star's row is kept in that
    layout from the start (its I bit is placed at p_j once p_j is known;
    no other row holds it before), so the reduced rows are the z columns.
    A star that reduces to zero is a product of the stars before it and
    raises ContractError.
    """
    m, n_words = len(stars), -(-2 * n // 64)
    sizes = [len(s) for s in stars]
    owner, qubits = np.repeat(np.arange(m), sizes), np.concatenate(stars)
    # bits 0..n-1 of a row: its I part by pivot qubit; bits n + q: its S part
    mat = np.zeros((m, n_words), dtype=np.uint64)
    np.bitwise_or.at(mat, (owner, (n + qubits) >> 6), _bit(n + qubits))
    pivots = np.empty(m, dtype=np.int64)
    for row in range(m):
        s_part = int.from_bytes(mat[row, n >> 6:].tobytes(), "little") >> (n & 63)
        if not s_part:
            raise ContractError(f"star {row} is a product of the stars before it")
        p = (s_part & -s_part).bit_length() - 1
        pivots[row] = p
        mat[row, p >> 6] |= np.uint64(1 << (p & 63))
        hit = (mat[:, (n + p) >> 6] & np.uint64(1 << ((n + p) & 63))).nonzero()[0]
        hit = hit[hit != row]
        mat[hit] ^= mat[row]
    mat[np.arange(m), (n + pivots) >> 6] ^= _bit(n + pivots)
    # allocated after the elimination: allocated before it, the tableau left
    # the malloc heap with about 4 MiB it could not return, and the peak RSS
    # of a torus:32 braid benchmark run rose by about 3 MiB in most runs
    t = Tableau(n)
    t.z[:, pivots] = mat.T
    del mat
    # X on star j in stabilizer row n + p_j; no X left in destabilizer p_j
    t.x[pivots >> 6, pivots] = 0
    stab = n + pivots[owner]
    np.bitwise_or.at(t.x, (stab >> 6, qubits), _bit(stab))
    return t
