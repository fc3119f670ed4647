"""Bit-packed stabilizer tableau with exact phase tracking.

Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers (the destabilizer
form of Aaronson and Gottesman, PRA 70, 052328, 2004).  Each row stores a
Pauli operator in the package convention ``i**r * prod X**x Z**z`` (see
pauli.py).  Row phases are powers of i mod 4; destabilizer phases are
maintained but never read.

The x and z bits are stored per qubit column and packed along the rows:
bit b of ``x[w, q]`` is the x bit of qubit q in row 64w + b.  A qubit's
column ``x[:, q]`` is therefore a bitset over all 2n rows, and each 64-row
block ``x[w]`` is contiguous.  Gates are XORs and swaps of columns, so
torus(32) = 2048 qubits stays cheap.

Every read and Pauli update starts from the row bitsets of the rows that
anticommute with a batch of Paulis: _targets lists the batch's x and z
bits and _antic XORs each Pauli's few support columns, one reduceat per
side.  _group_phases reads the batch: 0 for a Pauli that a stabilizer row
anticommutes with, else <p> = i**(k_p - k_prod), where prod is the product
of the stabilizer rows whose destabilizers anticommute with p.  It
transposes only the 64-row blocks holding those rows into packed qubit
words, and a segmented prefix XOR with a popcount gives every product's
phase (the deterministic read of Aaronson and Gottesman, batched as in
Gidney's Stim, Quantum 5, 497, 2021).  syndrome reads every stabilizer in
one batch, expectations any list of Paulis; expectation_phase and
measurement read a batch of one.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, UsageError, require
from .lattice import Lattice, logical_operators
from .pauli import PauliString, from_string_path

_ONE = np.uint64(1)


def _bit(idx: np.ndarray) -> np.ndarray:
    """The word bit of each row or qubit index: 1 << (idx mod 64)."""
    return _ONE << (idx & 63).astype(np.uint64)


def _row_bits(words: np.ndarray) -> np.ndarray:
    """One uint8 per row of a row bitset (row words on the last axis)."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")


class Tableau:
    """Stabilizer state of n qubits.  ``x`` and ``z`` have shape
    (ceil(2n/64), n): one column of row bits per qubit."""

    def __init__(self, n: int):
        require(n, "n", integer=True, ge=1)
        self.n = n
        self.x = np.zeros(((2 * n + 63) // 64, n), dtype=np.uint64)
        self.z = np.zeros_like(self.x)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        q = np.arange(n)
        self.x[q >> 6, q] = _bit(q)
        self.z[(n + q) >> 6, q] = _bit(n + q)

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
        (_, xs, _), (_, zs, _) = targets
        t._set_row(pivot, xs, zs, (p.phase + (0 if want == 1 else 2)) & 3)
        return want
    value = complex(_group_phases(t, antic, targets, [p.phase])[0])
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
    return _group_phases(t, _antic(t, targets, len(paulis)), targets,
                         [p.phase for p in paulis])


def _targets(t: Tableau, paulis) -> tuple:
    """The bits of a batch of Paulis as _antic and _group_phases read them:
    an x side and a z side, each an (owner, qubit, starts) triple of arrays
    holding each bit's Pauli (sorted) and qubit, and the index of the first
    bit of each Pauli that has bits on that side."""
    sides = ([], [], []), ([], [], [])
    for i, p in enumerate(paulis):
        for q in p.support:
            if not 0 <= q < t.n:
                raise UsageError(f"site {q} outside tableau of {t.n} qubits")
        for side, (owner, qubit, starts) in enumerate(sides):
            cols = [q for q, bits in p.support.items() if bits[side]]
            if cols:
                starts.append(len(qubit))
                owner += [i] * len(cols)
                qubit += cols
    return tuple(tuple(np.array(a, dtype=np.int64) for a in side) for side in sides)


def _antic(t: Tableau, targets, k: int) -> np.ndarray:
    """The (k, W) bitsets of the rows anticommuting with each of the k Paulis
    of ``targets`` (_targets): an x bit meets the rows' z columns and a z
    bit their x columns, one gather and one reduceat at the starts per side."""
    parts = [(owner[starts], np.bitwise_xor.reduceat(cols[:, qubit], starts, axis=1))
             for cols, (owner, qubit, starts) in zip((t.z, t.x), targets) if len(qubit)]
    antic = np.zeros((k, t.x.shape[0]), dtype=np.uint64)
    for owners, rows in parts:  # a side on every Pauli skips the fancy index
        antic[owners if len(owners) < k else slice(None)] ^= rows.T
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
_TILE_GROUP = 64       # 64x64-bit tiles transposed at once (256 KiB of bits)


def _row_blocks(t: Tableau, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 64-row blocks holding ``rows``, transposed: ``table[s, i]`` holds
    the x and z bits (2, ceil(n/64)) of row i of the block in slot s, packed
    along the qubits, and ``slots`` gives each row's slot.  Each 64x64-bit
    tile goes through bytes, a bounded group of tiles at a time."""
    used = np.zeros(t.x.shape[0], dtype=bool)
    used[rows >> 6] = True
    blocks = used.nonzero()[0]
    n_words = -(-t.n // 64)
    tiles = np.zeros((len(blocks), 2, n_words * 64), dtype="<u8")
    tiles[:, 0, :t.n] = t.x[blocks]
    tiles[:, 1, :t.n] = t.z[blocks]
    flat = tiles.reshape(-1, 64)  # word q of a tile: its qubit q's 64 row bits
    for lo in range(0, len(flat), _TILE_GROUP):
        group = flat[lo:lo + _TILE_GROUP]
        bits = np.ascontiguousarray(_row_bits(group[..., None]).swapaxes(1, 2))
        group[:] = np.packbits(bits, axis=-1, bitorder="little").view("<u8")[..., 0]
    # word i of a tile now holds row i's bits on the tile's 64 qubits
    table = tiles.reshape(len(blocks), 2, n_words, 64).transpose(0, 3, 1, 2)
    return table, used.cumsum()[rows >> 6] - 1


def _group_phases(t: Tableau, antic, targets, phases) -> np.ndarray:
    """<p> for k Paulis p: 0 if undetermined, else i**(k_p - k_prod).

    ``antic`` (k, W) holds each p's row bitset (_antic), ``targets`` its
    bits (_targets) and ``phases`` its k_p.  A p whose bitset holds a
    stabilizer row reads 0, with no members and no product check; this is
    the one place a read is found undetermined.  For every other p, prod is
    the ordered product of the stabilizer rows n+j over p's members, the
    destabilizers j that anticommute with p, read by _row_blocks; it must
    reproduce p's bits.  Since
    Z**z_i X**x_j = (-1)**(z_i . x_j) X**x_j Z**z_i,
    k_prod = sum r + 2 sum_{i<j} z_i . x_j (mod 4): each member's x row
    meets the segmented exclusive prefix XOR of the z rows before it.
    Paulis are taken in passes of a bounded number of member rows.
    """
    indefinite = _indefinite(t, antic)
    if indefinite.all():  # an empty batch too
        return np.zeros(len(antic), dtype=complex)
    if indefinite.any():  # no members and no bits to check
        antic = np.where(indefinite[:, None], np.uint64(0), antic)
        targets = [(own[~indefinite[own]], q[~indefinite[own]]) for own, q, _ in targets]
    owner, word = antic.nonzero()  # members in order within each Pauli
    hit, bit = _row_bits(antic[owner, word, None]).nonzero()
    owner, rows = owner[hit], t.n + 64 * word[hit] + bit
    last = np.bincount(owner, minlength=len(antic)).cumsum()
    first = np.concatenate(([0], last[:-1]))
    n_words = -(-t.n // 64)
    budget = _PASS_WORDS // (2 * n_words)
    cuts = last.searchsorted(np.arange(budget, len(rows), budget), side="right")
    cuts = sorted({0, len(antic), *cuts.tolist()})
    table, slots = _row_blocks(t, rows)
    values = np.empty(len(antic), dtype=complex)
    for lo, hi in zip(cuts, cuts[1:]):
        members = slice(first[lo], last[hi - 1])
        xz = table[slots[members], rows[members] & 63]
        acc = np.zeros((len(xz) + 1, *xz.shape[1:]), dtype=np.uint64)
        np.bitwise_xor.accumulate(xz, axis=0, out=acc[1:])
        start, end = first[lo:hi] - first[lo], last[lo:hi] - first[lo]
        want = np.zeros((hi - lo, 2, n_words), dtype=np.uint64)
        for side, (own, q, *_) in enumerate(targets):
            if len(q):  # an empty ufunc.at costs as much as a short one
                span = slice(*own.searchsorted([lo, hi]))
                own, q = own[span], q[span]
                np.bitwise_or.at(want[:, side], (own - lo, q >> 6), _bit(q))
        if (acc[end] ^ acc[start] ^ want).any():
            raise ContractError("operator commutes with the group but is not in it")
        seg = owner[members] - lo
        z_before = acc[:-1, 1] ^ acc[start[seg], 1]
        terms = t.r[rows[members]] + 2 * np.bitwise_count(z_before & xz[:, 0]).sum(axis=1)
        k_prod = np.bincount(seg, weights=terms, minlength=hi - lo).astype(np.int64)
        values[lo:hi] = _I_POWERS[(np.asarray(phases[lo:hi]) - k_prod) % 4]
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
    from the lattice's stars and boundaries (oracle.syndrome_by_expectation,
    one expectation per stabilizer, is the reference).
    """
    if lattice.n_edges > t.n:
        raise UsageError(f"lattice of {lattice.n_edges} edges outside tableau "
                         f"of {t.n} qubits")
    n_v = lattice.n_vertices
    k = n_v + lattice.n_faces
    # X-type vertex stabilizers have x bits only, Z-type faces z bits only
    targets = []
    for first, groups in ((0, lattice.stars), (n_v, lattice.boundaries)):
        sizes = [len(g) for g in groups]
        targets.append((first + np.repeat(np.arange(len(groups)), sizes),
                        np.concatenate(groups), np.cumsum([0, *sizes[:-1]])))
    values = _group_phases(t, _antic(t, targets, k), targets, np.zeros(k, int))
    bad = np.flatnonzero((values != 1) & (values != -1))
    if bad.size:
        kind, i = ("vertex", bad[0]) if bad[0] < n_v else ("face", bad[0] - n_v)
        raise ContractError(f"{kind} stabilizer {i} has no definite value")
    flipped = np.flatnonzero(values == -1)
    return Syndrome(frozenset(flipped[flipped < n_v].tolist()),
                    frozenset((flipped[flipped >= n_v] - n_v).tolist()))


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
