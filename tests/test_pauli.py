import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim.errors import UsageError
from anyonsim.oracle import dense_operator, random_hermitian_pauli
from anyonsim.pauli import PauliString, commutation_phase, from_string_path, multiply
from anyonsim.statevector import StateVector, _pauli_action
from anyonsim.weyl import WeylString


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
    assert multiply(p, p) == PauliString.identity()
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
        assert multiply(p, p.inverse()) == PauliString.identity()
        m = dense_operator(p, 6)
        assert np.allclose(dense_operator(p.inverse(), 6), m.conj().T)  # unitary


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


def test_from_ops_rejects_unknown_letters():
    assert PauliString.from_ops({0: "y", 2: "i"}) == PauliString.from_ops({0: "Y"})
    for letter in ("Q", "XZ", "", 3):
        with pytest.raises(UsageError, match=f"letter {letter!r}"):
            PauliString.from_ops({0: "X", 1: letter})


SITE_CONSTRUCTORS = {
    "z_on": lambda q: PauliString.z_on([0, q]),
    "x_on": lambda q: PauliString.x_on([0, q]),
    "from_ops": lambda q: PauliString.from_ops({0: "X", q: "Z"}),
    "z_power": lambda q: WeylString.z_power(3, [0, q], 1),
    "x_power": lambda q: WeylString.x_power(3, [0, q], 2),
}


@pytest.mark.parametrize("make", sorted(SITE_CONSTRUCTORS))
@pytest.mark.parametrize("site", [2.5, 2.0, "3", None, np.float64(1.0)])
def test_constructors_reject_non_integer_sites(make, site):
    # int() alone would read 2.5 as site 2 and "3" as site 3
    with pytest.raises(UsageError, match=r"^site must be an integer"):
        SITE_CONSTRUCTORS[make](site)


@pytest.mark.parametrize("make", sorted(SITE_CONSTRUCTORS))
def test_constructors_keep_integer_and_negative_sites(make):
    # numpy integers are sites; negative sites are the readers' to reject
    assert SITE_CONSTRUCTORS[make](np.int64(3)) == SITE_CONSTRUCTORS[make](3)
    assert -1 in SITE_CONSTRUCTORS[make](-1).support


@pytest.mark.parametrize("phase", [1.5, 2.0, "1", None])
def test_weyl_phase_must_be_an_integer(phase):
    with pytest.raises(UsageError, match=r"^phase must be an integer"):
        WeylString(3, phase)
    with pytest.raises(UsageError, match=r"^phase must be an integer"):
        PauliString(phase, {0: (1, 0)})


def test_from_string_path(planar2):
    empty = lat.StringPath("z", ())
    assert from_string_path(empty) == PauliString.identity()
    face = lat.StringPath("z", tuple(planar2.boundary(0)))
    assert from_string_path(face) == PauliString.z_on(planar2.boundary(0))
    (cz, cx), = lat.logical_operators(planar2)
    assert commutation_phase(from_string_path(cz), from_string_path(cx)) == -1
