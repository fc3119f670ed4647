import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim.errors import UsageError
from anyonsim.oracle import random_hermitian_pauli
from anyonsim.pauli import (PauliString, basis_change_conjugate,
                            commutation_phase, from_string_path, multiply)
from anyonsim.statevector import StateVector, _pauli_action, dense_operator


def _any_phase_pauli(n, rng):
    """The oracle's random support with an arbitrary phase i**k."""
    return PauliString(int(rng.integers(4)), random_hermitian_pauli(n, rng).support)


def test_single_site_convention():
    x = PauliString.from_ops({1: "X"})
    z = PauliString.from_ops({1: "Z"})
    xz = multiply(x, z)
    assert str(xz) == "-i Y1"  # sigma^x sigma^z = -i sigma^y
    y = PauliString.from_ops({1: "Y"})
    assert multiply(xz, PauliString(1, {})) == y  # i * XZ = Y
    sigma_y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(dense_operator(y), np.kron(sigma_y, np.eye(2)))


def test_multiply_matches_dense_small():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = _any_phase_pauli(5, rng)
        q = _any_phase_pauli(5, rng)
        mp, mq = dense_operator(p, 5), dense_operator(q, 5)
        assert np.allclose(dense_operator(multiply(p, q), 5), mp @ mq)
        c = commutation_phase(p, q)
        assert np.allclose(mp @ mq, c * (mq @ mp))


def test_multiply_matches_statevector_action_12q():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
    amps /= np.linalg.norm(amps)
    base = StateVector.from_amplitudes(amps)
    for _ in range(300):
        p = _any_phase_pauli(12, rng)
        q = _any_phase_pauli(12, rng)
        via_q = StateVector(12, _pauli_action(base, q))
        lhs = _pauli_action(via_q, p)
        rhs = _pauli_action(base, multiply(p, q))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_z_string_squares_to_identity():
    p = PauliString.z_on([0, 3, 7])
    assert multiply(p, p).is_identity()
    assert p.is_hermitian()


def test_string_deformed_by_face_keeps_phase(torus4):
    path = lat.shortest_string(torus4, "z", 0, 10)
    sz = from_string_path(path)
    hf = PauliString.z_on(torus4.boundary(5))
    prod = multiply(sz, hf)
    assert prod.phase == 0
    assert prod.support == {e: (0, 1)
                            for e in path.edge_set ^ frozenset(torus4.boundary(5))}


def test_inverse_and_adjoint():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = _any_phase_pauli(6, rng)
        assert multiply(p, p.inverse()).is_identity()
        m = dense_operator(p, 6)
        assert np.allclose(dense_operator(p.adjoint(), 6), m.conj().T)


def test_commutation_bilinearity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p, q, r = (_any_phase_pauli(6, rng) for _ in range(3))
        assert commutation_phase(multiply(p, q), r) == \
            commutation_phase(p, r) * commutation_phase(q, r)


def test_disjoint_supports_commute():
    p = PauliString.from_ops({0: "X", 2: "Y"})
    q = PauliString.from_ops({1: "Z", 3: "X"})
    assert commutation_phase(p, q) == 1
    assert commutation_phase(PauliString.from_ops({0: "X"}),
                             PauliString.from_ops({0: "Z"})) == -1


def test_basis_change_hadamard():
    sz = PauliString.z_on([0, 1, 2])
    sx = basis_change_conjugate(sz, "hadamard", [0, 1, 2])
    assert sx == PauliString.x_on([0, 1, 2])
    assert basis_change_conjugate(sx, "hadamard", [0, 1, 2]) == sz
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = _any_phase_pauli(4, rng)
        qubits = [q for q in range(4) if rng.random() < 0.5]
        conj = basis_change_conjugate(p, "hadamard", qubits)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.array([[1.0]])
        for q in range(3, -1, -1):
            u = np.kron(u, h if q in qubits else np.eye(2))
        assert np.allclose(dense_operator(conj, 4),
                           u @ dense_operator(p, 4) @ u.conj().T)


def test_basis_change_phase_gate():
    sx = PauliString.from_ops({0: "X"})
    sy = basis_change_conjugate(sx, "phase-gate", [0])
    assert str(sy) == "+ Y0"
    rng = np.random.default_rng(5)
    s = np.diag([1, 1j])
    for _ in range(50):
        p = _any_phase_pauli(3, rng)
        qubits = [q for q in range(3) if rng.random() < 0.5]
        conj = basis_change_conjugate(p, "phase-gate", qubits)
        u = np.array([[1.0 + 0j]])
        for q in range(2, -1, -1):
            u = np.kron(u, s if q in qubits else np.eye(2))
        assert np.allclose(dense_operator(conj, 3),
                           u @ dense_operator(p, 3) @ u.conj().T)
    with pytest.raises(UsageError):
        basis_change_conjugate(sx, "t-gate", [0])


def test_text_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = _any_phase_pauli(8, rng)
        assert PauliString.from_text(str(p)) == p
    assert str(PauliString.identity()) == "+ I"
    assert PauliString.from_text("+ I") == PauliString.identity()
    assert str(PauliString(2, {})) == "- I"
    assert PauliString.from_text("+i X3 Z7 Y12") == \
        PauliString.from_ops({3: "X", 7: "Z", 12: "Y"}, phase=1)
    with pytest.raises(UsageError):
        PauliString.from_text("Q3")
    with pytest.raises(UsageError):
        PauliString.from_text("X3 X3")


def test_from_string_path(planar2):
    empty = lat.StringPath("z", (), (0, 0), True)
    assert from_string_path(empty).is_identity()
    face = lat.StringPath("z", tuple(planar2.boundary(0)), (None, None), True)
    assert from_string_path(face) == PauliString.z_on(planar2.boundary(0))
    (cz, cx), = lat.logical_operators(planar2)
    assert commutation_phase(from_string_path(cz), from_string_path(cx)) == -1
