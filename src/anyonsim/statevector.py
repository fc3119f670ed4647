"""Dense complex-amplitude simulator for <= 22 qubits.

Serves as the brute-force oracle for the Clifford machinery and holds the
states of the non-Clifford operations: arbitrary-angle string rotations
(teleported ones included, which act on the memory alone, without a probe
qubit) and exact surface-Hamiltonian evolution.

Basis convention: little-endian.  Qubit q is bit q of the amplitude index,
so |q1 q0> = |1 0> sits at index 2.  Every Pauli action (strings, controlled
strings, exponentials, teleports and the X Y Z CX CZ gates) goes through one
kernel, _images, on the amplitudes viewed as an n-axis tensor of shape
(2,)*n, axis n-1-q being qubit q (a controlled string on the control-1
slab).  It walks chunks of 256 KiB of amplitudes, the low axes, pairing each
chunk with the one its X part maps it to: a flip of the low X axes and one
multiply by a sign tensor of size 2 on the low Z axes only, times the
partner's high-bit sign, with no index arrays and no full operator matrices
(oracle.dense_operator writes those out).  Strings and exponentials work in
place, a chunk and its partner imaged into a scratch pair before either is
written, so no second full-size state is made; the teleport's result and
_pauli_action's image are the one new array.  Each chunk is scaled and
summed while in cache, and the bits are those of one whole-array pass.  H
and S work on the two halves of one qubit axis.

from_tableau takes the least basis index of the state's support and the
X rows spanning it from one GF(2) echelon of the generators
(tableau._support_basis, so the package's GF(2) elimination lives in
tableau.py alone), and writes only the state's 2**k nonzero amplitudes into
one zeroed state, its first nonzero amplitude real and > 0.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import tableau as tb
from .errors import ConfigurationError, UsageError, require
from .pauli import PauliString

MAX_QUBITS = 22
NORM_TOL = 1e-10  # from_amplitudes: |norm - 1| beyond this is not rounding

_SQ2 = 1.0 / math.sqrt(2.0)
_SIGN = np.array([1.0, -1.0])
_CHUNK_BITS = 14  # 2**14 amplitudes per _images chunk: 256 KiB, well inside a per-core L2


class _Scratch(threading.local):
    """The images of a chunk and its partner (_images), one pair per thread,
    kept for the thread's life: an in-place Pauli action then allocates
    only its sign factors, at most 2**_CHUNK_BITS entries each.  One walk
    at a time per thread."""

    def __init__(self):
        self.pair = np.empty((2, 1 << _CHUNK_BITS), dtype=np.complex128)


_SCRATCH = _Scratch()


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


def _bits(p: PauliString) -> tuple[int, int, int]:
    """p as (x, z, phase): bit q of x and z holds its X and Z part on qubit q."""
    x = z = 0
    for q, (xb, zb) in p.support.items():
        x |= xb << int(q)
        z |= zb << int(q)
    return x, z, p.phase


def _images(t: np.ndarray, x: int, z: int, phase: int, out: np.ndarray | None = None):
    """Walk p = i**phase X**x Z**z over the m-axis tensor t, axis m-1-q
    being qubit q, one chunk at a time, and yield (chunk, image) for every
    chunk of t, image being p t on it:

        (p t)[b] = i**phase (-1)**popcount(src & z) t[src],  src = b ^ x.

    A chunk is the 2**k amplitudes of the last k = min(m, _CHUNK_BITS) axes
    at one index c of the leading ones.  Its source is chunk c ^ (x >> k)
    read with the low X axes flipped (a view), and one multiply applies the
    factor i**phase times the sign tensor of the low Z axes (size 2 on those
    axes, 1 elsewhere), flipped likewise, times the source's high-bit sign:
    the operations of one whole-array multiply, so the same bits.  With
    ``out`` (t's shape, not overlapping it) the image is written into out's
    chunk c.  Otherwise it goes into a scratch buffer, and a chunk and its
    partner are both imaged before either is yielded, so the caller may
    overwrite each chunk of t as it comes.
    """
    m = t.ndim
    k = min(m, _CHUNK_BITS)
    lead = m - k
    sign = np.ones((1,) * k)
    for q in range(k):
        if z >> q & 1:
            shape = [1] * k
            shape[k - 1 - q] = 2
            # the sign is read at src: reversed on an axis that X flips
            sign = sign * _SIGN[::1 - 2 * (x >> q & 1)].reshape(shape)
    # by the parity of the source's high Z bits; sign is negated in place
    # once the first factor is made
    factors = ((1j ** phase) * sign, (1j ** phase) * np.negative(sign, out=sign))
    x_hi, z_hi = x >> k, z >> k
    # chunk c of an array a is a[heads[c] + whole], read flipped as
    # a[heads[c] + flip]; the Ellipsis keeps a view when k = 0
    heads = [tuple(c >> j & 1 for j in range(lead - 1, -1, -1)) for c in range(1 << lead)]
    whole = (...,)
    flip = (..., *(slice(None, None, 1 - 2 * (x >> q & 1)) for q in range(k - 1, -1, -1)))
    buffers = [b[:1 << k].reshape((2,) * k) for b in _SCRATCH.pair]
    for c in range(1 << lead):
        partner = c ^ x_hi
        if out is None and partner < c:
            continue  # imaged with its partner
        dsts = (c,) if out is not None or partner == c else (c, partner)
        images = buffers if out is None else [out[heads[c] + whole]]
        for d, image in zip(dsts, images):
            src = d ^ x_hi
            np.multiply(factors[(src & z_hi).bit_count() & 1], t[heads[src] + flip], out=image)
        for d, image in zip(dsts, images):
            yield t[heads[d] + whole], image


def _pauli_action(s: StateVector, p: PauliString) -> np.ndarray:
    """Amplitudes of p|s> (new array; s untouched)."""
    _check_qubits(s, p.support)
    out = np.empty_like(s.amps)
    for _ in _images(s._tensor(), *_bits(p), out.reshape((2,) * s.n)):
        pass
    return out


def _pauli_sum(s: StateVector, p: PauliString, a, b) -> np.ndarray:
    """Amplitudes of a p|s> + b |s> (new array; s untouched): each chunk of
    p|s> is written into the result, then scaled and summed while in cache."""
    _check_qubits(s, p.support)
    out = np.empty_like(s.amps)
    for chunk, image in _images(s._tensor(), *_bits(p), out.reshape((2,) * s.n)):
        image *= a
        image += chunk * b
    return out


def apply_pauli_string(s: StateVector, p: PauliString) -> StateVector:
    """p|s>, in place."""
    _check_qubits(s, p.support)
    for chunk, image in _images(s._tensor(), *_bits(p)):
        chunk[...] = image
    return s


def apply_controlled_pauli(s: StateVector, control: int, p: PauliString) -> StateVector:
    """|1><1|_control (x) p  +  |0><0|_control (x) I, applied in place to the
    control-1 slab, an (n-1)-axis view on which qubits above the control sit
    one bit lower."""
    _check_qubits(s, (control, *p.support))
    if control in p.support:
        raise UsageError("control qubit lies inside the string support")
    x, z, phase = _bits(p)
    low = (1 << control) - 1
    x, z = (bits & low | bits >> 1 & ~low for bits in (x, z))
    slab = s._tensor()[(slice(None),) * (s.n - 1 - control) + (1, ...)]
    for chunk, image in _images(slab, x, z, phase):
        chunk[...] = image
    return s


def apply_pauli_exponential(s: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(i theta p) |s> via cos(theta) I + i sin(theta) p (needs p**2 = I),
    in place: each chunk scaled and summed with its image while in cache."""
    require(theta, "theta")
    if not p.is_hermitian():
        raise UsageError("exponential needs a Hermitian string")
    _check_qubits(s, p.support)
    a, b = math.cos(theta), 1j * math.sin(theta)
    for chunk, image in _images(s._tensor(), *_bits(p)):
        image *= b
        chunk *= a
        chunk += image
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
