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
so torus(32) = 2048 qubits stays cheap; a tableau past 1 GiB is refused
(_MAX_TABLEAU_BYTES).

Every read and Pauli update starts from the row bitsets of the rows that
anticommute with a batch of Paulis, the XOR of the tableau columns the
Paulis' bits meet (_targets, _antic).  _group_phases reads the batch from
the member rows only, transposed from the byte planes that hold them, with
a segmented prefix XOR and a popcount (the deterministic read of Aaronson
and Gottesman, batched as in Gidney's Stim, Quantum 5, 497, 2021).
syndrome reads every stabilizer in one batch, expectations any list of
Paulis; expectation_phase and measurement read a batch of one.  A set of
anyons is one frozenset of ("vertex", v) and ("face", f) pairs, the
stabilizers at -1.

prepare_ground_state writes the projected stars from the spanning tree
of their pivots (_star_tableau); oracle.ground_state_by_projection, one
measurement update per star, is its reference.  _support_basis reads the
least basis index of the state's support and the X rows spanning it, all
that statevector.from_tableau needs, from one GF(2) echelon of the
stabilizers.

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
from .lattice import Lattice
from .pauli import PauliString, logical_strings

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
    """Stabilizer state of n qubits, in ``xz`` and its views ``x``, ``z``."""

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


def apply_controlled_string(t: Tableau, control: int, p: PauliString) -> Tableau:
    """|1><1| (x) p + |0><0| (x) I, decomposed into CZ/CX (plus S for phase).

    The photon-mediated form, which differs by (-i)**weight(p) on the |1>
    branch, is the controlled string of PauliString(p.phase - p.weight,
    p.support).
    """
    if control in p.support:
        raise UsageError("control qubit lies inside the string support")
    for _ in range(p.phase % 4):
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


def _support_basis(t: Tableau) -> tuple[int, list[tuple[int, int, int]]]:
    """The least index b of the state's support, b + span(X parts of the
    generators) (Dehaene and De Moor, PRA 68, 042318, 2003), and rows
    (x, z, r) = i**r X**x Z**z with independent x spanning it, highest pivot
    first, from one GF(2) echelon of the stabilizer rows (_row_planes) as
    ints x << n | z keyed by their highest bit; a product's phase is
    r + r' + 2 popcount(z & x').  The Z-only rows i**r Z**z fix z . b = r/2,
    solved lowest pivot first; the X rows then reduce b to the least index."""
    n = t.n
    rows = np.arange(n, 2 * n)
    table, slots = _row_planes(t, rows)
    pivots = {}  # highest bit -> (word, r)
    for (x, z), r in zip(table[slots, rows & 7], t.r[n:].tolist()):
        word = int.from_bytes(x.tobytes(), "little") << n | int.from_bytes(z.tobytes(), "little")
        while word.bit_length() - 1 in pivots:
            other, r_other = pivots[word.bit_length() - 1]
            r += r_other + 2 * (word & other >> n).bit_count()
            word ^= other
        pivots[word.bit_length() - 1] = (word, r & 3)
    b = 0
    for top in sorted(p for p in pivots if p < n):
        z, r = pivots[top]
        b |= ((z & b).bit_count() & 1 ^ r >> 1) << top
    x_rows = [(word >> n, word & ((1 << n) - 1), r)
              for top, (word, r) in sorted(pivots.items(), reverse=True) if top >= n]
    for x, _, _ in x_rows:
        b = min(b, b ^ x)  # clears the pivot bit of x where b has it
    return b, x_rows


@dataclass(frozen=True)
class EnergyLedger:
    """Couplings of H_surf = -U sum_v H_v - J sum_f H_f."""

    coupling_u: float = 1.0
    coupling_j: float = 1.0

    def __post_init__(self):
        for name in ("coupling_u", "coupling_j"):
            require(getattr(self, name), name, error=ConfigurationError)


def syndrome(t: Tableau, lattice: Lattice) -> frozenset:
    """Anyon positions: the stabilizers at -1, as ("vertex", v) and
    ("face", f) pairs.  The state must be an eigenstate of every stabilizer
    (guaranteed after Pauli strings on eigenstates).

    Every stabilizer is read in one _group_phases batch, its targets built
    from the lattice's stars and boundaries (_stabilizer_targets;
    oracle.syndrome_by_expectation, one expectation per stabilizer, is the
    reference).
    """
    if lattice.n_edges > t.n:
        raise UsageError(f"lattice of {lattice.n_edges} edges outside tableau "
                         f"of {t.n} qubits")
    targets = _stabilizer_targets(lattice, t.n)
    k = lattice.n_vertices + lattice.n_faces
    return _anyons(lattice, _group_phases(t, _antic(t, targets, k), targets))


def _anyons(lattice: Lattice, values: np.ndarray) -> frozenset:
    """The syndrome read from the values of the vertex then face stabilizers
    of ``lattice``; the first without a definite value is a ContractError."""
    n_v = lattice.n_vertices
    bad = np.flatnonzero((values != 1) & (values != -1))
    if bad.size:
        kind, i = ("vertex", bad[0]) if bad[0] < n_v else ("face", bad[0] - n_v)
        raise ContractError(f"{kind} stabilizer {i} has no definite value")
    return frozenset(("vertex", i) if i < n_v else ("face", i - n_v)
                     for i in np.flatnonzero(values == -1).tolist())


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


def created_syndrome(lattice: Lattice, p: PauliString) -> frozenset:
    """The anyons p creates, the stabilizers it anticommutes with, so that
    syndrome(p t) = syndrome(t) ^ created_syndrome(p), in O(|support of p|):
    a z bit on an edge meets the vertex stabilizers at its ends, an x bit the
    faces beside it; boundary ends (None) and sites past the lattice edges
    (ancillas) meet none."""
    anyons = set()
    for q, (xb, zb) in p.support.items():
        if q < 0:
            raise UsageError(f"Pauli site {q} is negative")
        if q >= lattice.n_edges:
            continue
        if zb:
            anyons ^= {("vertex", v) for v in lattice.edge_vertices[q] if v is not None}
        if xb:
            anyons ^= {("face", f) for f in lattice.edge_faces[q] if f is not None}
    return frozenset(anyons)


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
    _star_tableau writes the projections at once, from the spanning tree
    of the stars' pivots, as oracle.ground_state_by_projection leaves them
    one at a time.  Ancillas (after the edge qubits) stay in |0>.  ``rng``
    is not read.
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
    pairs = logical_strings(lattice)
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
    return [lx for bit, (_, lx) in zip(bits, pairs) if bit]


def _star_tableau(n: int, stars) -> Tableau:
    """|0...0> on n qubits projected onto +1 of each star's X in order, as
    _project leaves it one star at a time.

    Stars are vertices and qubits edges (a qubit in one star ends outside).
    Star j's pivot p_j, whose Z stabilizer _project replaces, is the lowest
    qubit of the cut of j's component in the forest of earlier pivots
    (union-find: a union's cut is the XOR of cuts).  The pivots span a
    tree rooted at outside.  p_j's Gauss-Jordan row of [S | I], its z
    column, is its subtree, built bottom-up level by level: I bit p_k
    (destabilizer p_k) for each star k below p_j, and S bit q (stabilizer
    n + q) for each free qubit q on the subtree's cut.  Stabilizer n + p_j
    is star j and destabilizer p_j has no X; a free qubit q keeps X_q and
    Z_q; all phases are 0.  A star with an empty cut is a product of the
    stars before it, and a qubit in three stars is no edge: both raise
    ContractError.
    """
    t, m = Tableau(n), len(stars)
    sizes = np.fromiter(map(len, stars), np.int64, m)
    qubits = np.fromiter(itertools.chain.from_iterable(stars), np.int64, sizes.sum())
    owner = np.repeat(np.arange(m), sizes)
    count = np.bincount(qubits, minlength=n)
    if count.max(initial=0) > 2:
        q = count.argmax()
        raise ContractError(f"qubit {q} lies in {count[q]} stars: no edge")
    end = np.full(n, m)  # a qubit's ends (m: outside) are end, total - end
    end[qubits] = owner
    total = np.bincount(qubits, owner, n).astype(np.int64) + m * (2 - count)
    end, total = end.tolist(), total.tolist()
    rows = np.zeros((m, len(t.xz)), dtype=np.uint64)
    np.bitwise_or.at(rows, (owner, (n + qubits) >> 6), _bit(n + qubits))
    raw, width = rows[:, n >> 6:].tobytes(), 8 * (len(t.xz) - (n >> 6))
    root, pivots, adj = list(range(m + 1)), [], [[] for _ in range(m + 1)]
    merged = {}  # cuts merged into stars still to come
    for j in range(m):  # j roots its component; qubit q is cut bit q + n % 64
        cut = int.from_bytes(raw[j * width:(j + 1) * width], "little") ^ merged.pop(j, 0)
        if not cut:
            raise ContractError(f"star {j} is a product of the stars before it")
        p = (cut & -cut).bit_length() - 1 - n % 64
        a, c = end[p], total[p] - end[p]
        pivots.append(p)
        adj[a].append((c, p))
        adj[c].append((a, p))
        for v in (a, c):  # merge into the component across p
            while root[v] != v:
                root[v] = v = root[root[v]]
            if v != j:
                break
        root[j] = v
        if v < m:
            merged[v] = merged.get(v, 0) ^ cut
    # the tree from outside a level at a time; up[w]: w's edge to its parent
    order, parent, up, level, starts = [], [], [-1] * (m + 1), [m], []
    while level:
        starts.append(len(order))
        for v in level:
            for w, p in adj[v]:
                if p != up[v]:
                    up[w] = p
                    order.append(w)
                    parent.append(v)
        level = order[starts[-1]:]
    pivots, order, parent, up = (np.array(a, np.int64) for a in (pivots, order, parent, up[:m]))
    each = np.arange(m)
    rows[each, pivots >> 6] |= _bit(pivots)
    for lo, hi in reversed(list(zip(starts[1:], starts[2:]))):
        np.bitwise_xor.at(rows, parent[lo:hi], rows[order[lo:hi]])
    rows[each, (n + up) >> 6] ^= _bit(n + up)
    t.z[:, up] = rows.T
    t.x[pivots >> 6, pivots] = 0
    stab = n + pivots[owner]
    np.bitwise_or.at(t.x, (stab >> 6, qubits), _bit(stab))
    return t
