import warnings

import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.errors import ConfigurationError, UsageError
from anyonsim.oracle import random_clifford_circuit, random_hermitian_pauli, run_circuit
from anyonsim.pauli import PauliString, from_string_path


def _random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sv.StateVector.from_amplitudes(amps / np.linalg.norm(amps))


def test_gate_identities():
    rng = np.random.default_rng(0)
    s = _random_state(4, rng)
    ref = s.clone()
    sv.apply_gate(sv.apply_gate(s, "H", 2), "H", 2)
    assert np.allclose(s.amps, ref.amps, atol=1e-12)
    z1, z3, x0 = (PauliString.from_ops({q: g}) for q, g in ((1, "Z"), (3, "Z"), (0, "X")))
    sv.apply_pauli_exponential(s, z1, 0.0)
    assert np.allclose(s.amps, ref.amps, atol=1e-12)
    for theta in rng.uniform(-np.pi, np.pi, size=20):
        sv.apply_pauli_exponential(s, z3, float(theta))
        sv.apply_pauli_exponential(s, z3, -float(theta))
        sv.apply_pauli_exponential(s, x0, float(theta))
        sv.apply_pauli_exponential(s, x0, -float(theta))
    assert np.allclose(s.amps, ref.amps, atol=1e-10)


def test_gates_match_kron_matrices():
    rng = np.random.default_rng(1)
    mats = {
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "S": np.diag([1, 1j]),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
    }
    for gate, m in mats.items():
        s = _random_state(3, rng)
        expected = np.kron(np.kron(np.eye(2), m), np.eye(2)) @ s.amps  # qubit 1
        sv.apply_gate(s, gate, 1)
        assert np.allclose(s.amps, expected, atol=1e-12)
    # little-endian CX(control 0, target 1): flips bit 1 where bit 0 is set,
    # i.e. the index permutation 1 <-> 3
    s = _random_state(2, rng)
    expected = s.amps[[0, 3, 2, 1]]
    sv.apply_gate(s, "CX", (0, 1))
    assert np.allclose(s.amps, expected, atol=1e-12)
    s = _random_state(2, rng)
    expected = np.diag([1, 1, 1, -1]) @ s.amps
    sv.apply_gate(s, "CZ", (0, 1))
    assert np.allclose(s.amps, expected, atol=1e-12)


def test_norm_preserved_over_long_circuit():
    rng = np.random.default_rng(2)
    s = sv.StateVector.computational(8)
    ops = random_clifford_circuit(8, 500, rng)
    thetas = rng.uniform(-np.pi, np.pi, size=(len(ops), 2))
    for (gate, qs), (rz, rx) in zip(ops, thetas):
        sv.apply_gate(s, gate, qs)
        sv.apply_pauli_exponential(s, PauliString.from_ops({qs[0]: "Z"}), float(rz))
        sv.apply_pauli_exponential(s, PauliString.from_ops({qs[-1]: "X"}), float(rx))
    assert abs(s.norm() - 1.0) < 1e-10


def test_pauli_exponential_properties():
    rng = np.random.default_rng(3)
    p = PauliString.from_ops({0: "X", 2: "Z", 3: "Y"})
    s = _random_state(4, rng)
    ref = s.clone()
    sv.apply_pauli_exponential(s, p, 0.0)
    assert np.allclose(s.amps, ref.amps)
    # additivity
    t1, t2 = 0.37, -1.2
    s1 = ref.clone()
    sv.apply_pauli_exponential(sv.apply_pauli_exponential(s1, p, t1), p, t2)
    s2 = ref.clone()
    sv.apply_pauli_exponential(s2, p, t1 + t2)
    assert np.allclose(s1.amps, s2.amps, atol=1e-12)
    # eigenstate: theta = pi/2 gives a global phase i on a +1 eigenstate
    plus = sv.StateVector.computational(1)
    sv.apply_gate(plus, "H", 0)
    sv.apply_pauli_exponential(plus, PauliString.from_ops({0: "X"}), np.pi / 2)
    target = np.array([1, 1]) / np.sqrt(2) * 1j
    assert np.allclose(plus.amps, target, atol=1e-12)
    with pytest.raises(UsageError):
        sv.apply_pauli_exponential(s, PauliString(1, {0: (0, 1)}), 0.3)


def test_logical_rotation_bloch(planar2, planar2_ground):
    (cz, cx), = lat.logical_operators(planar2)
    lz, lx = from_string_path(cz), from_string_path(cx)
    ground = sv.from_tableau(planar2_ground)
    # |+~>: project onto X~ = +1
    plus = ground.clone()
    rotated = plus.clone()
    sv.apply_pauli_string(rotated, lx)
    plus.amps = (plus.amps + rotated.amps)
    plus.amps /= np.linalg.norm(plus.amps)
    for theta in (0.0, np.pi / 4, 0.61):
        s = plus.clone()
        sv.apply_pauli_exponential(s, lz, theta)
        x_exp = np.vdot(s.amps, sv._pauli_action(s, lx)).real
        assert abs(x_exp - np.cos(2 * theta)) < 1e-10


def test_evolve_hsurf(planar2, planar2_ground):
    ground = sv.from_tableau(planar2_ground)
    s = ground.clone()
    sv.evolve_hsurf(s, planar2, 1.0, 1.0, 0.8)
    overlap = sv.inner_product(ground, s)
    assert abs(abs(overlap) - 1) < 1e-10  # eigenstate: global phase only
    s0 = ground.clone()
    sv.evolve_hsurf(s0, planar2, 1.3, 0.7, 0.0)
    assert np.allclose(s0.amps, ground.amps)
    # x-pair branch picks up exp(-i 4 J t) relative to the ground branch
    exc = ground.clone()
    sv.apply_pauli_string(exc, PauliString.x_on([4]))
    b0, b1 = ground.clone(), exc.clone()
    sv.evolve_hsurf(b0, planar2, 1.0, 0.9, 0.37)
    sv.evolve_hsurf(b1, planar2, 1.0, 0.9, 0.37)
    rel = sv.inner_product(exc, b1) / sv.inner_product(ground, b0)
    assert abs(rel - np.exp(-1j * 4 * 0.9 * 0.37)) < 1e-10
    # commutes with closed-loop strings
    loop = PauliString.z_on(planar2.boundary(0))
    a = ground.clone()
    sv.apply_pauli_string(sv.evolve_hsurf(a, planar2, 1.0, 1.0, 0.5), loop)
    b = ground.clone()
    sv.evolve_hsurf(sv.apply_pauli_string(b, loop), planar2, 1.0, 1.0, 0.5)
    assert abs(abs(sv.inner_product(a, b)) - 1) < 1e-10


def test_inner_product(planar2, planar2_ground):
    rng = np.random.default_rng(4)
    s = _random_state(5, rng)
    assert sv.inner_product(s, s) == pytest.approx(1.0)
    e0 = sv.StateVector.computational(3, 0)
    e5 = sv.StateVector.computational(3, 5)
    assert sv.inner_product(e0, e5) == 0
    with pytest.raises(UsageError):
        sv.inner_product(e0, _random_state(2, rng))
    ground = sv.from_tableau(planar2_ground)
    excited = ground.clone()
    sv.apply_pauli_string(excited, from_string_path(
        lat.shortest_string(planar2, "z", 0, 1)))
    assert abs(sv.inner_product(ground, excited)) < 1e-12


def test_dense_operator():
    assert np.allclose(sv.dense_operator(PauliString.identity()), np.eye(2))
    assert np.allclose(sv.dense_operator(PauliString.from_ops({0: "X"})),
                       [[0, 1], [1, 0]])
    from anyonsim.weyl import WeylString
    omega = np.exp(2j * np.pi / 3)
    z3 = sv.dense_operator(WeylString.z_power(3, [0], 1))
    x3 = sv.dense_operator(WeylString.x_power(3, [0], 1))
    assert np.allclose(z3 @ x3, omega * (x3 @ z3))
    with pytest.raises(ConfigurationError):
        sv.dense_operator(PauliString.from_ops({13: "X"}))
    with pytest.raises(ConfigurationError):
        sv.dense_operator(WeylString.z_power(5, [5], 1))


def test_from_tableau_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        t, s = run_circuit(n, random_clifford_circuit(n, 25, rng))
        assert abs(abs(sv.inner_product(sv.from_tableau(t), s)) - 1) < 1e-10


def _from_tableau_cases():
    yield tb.prepare_ground_state(lat.planar(2), 0)
    yield tb.prepare_ground_state(lat.planar(3), 1)
    yield tb.prepare_ground_state(lat.torus(2), 3, n_ancillas=1)
    yield tb.prepare_ground_state(lat.torus(3), (1, 0), n_ancillas=1)
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        yield run_circuit(n, random_clifford_circuit(n, 30, rng))[0]


def test_from_tableau_global_phase_convention():
    # the first nonzero amplitude is the least basis index with a nonzero
    # overlap, and it is real and > 0: the global phase every dense golden
    # (cli memory, the braid alpha) rests on
    for t in _from_tableau_cases():
        amps = sv.from_tableau(t).amps
        first = int(np.flatnonzero(np.abs(amps) > 1e-12)[0])
        assert not amps[:first].any()
        assert amps[first].imag == 0 and amps[first].real > 0


def _any_phase_pauli(sites, rng) -> PauliString:
    """The oracle's random string (Y included) moved onto the given sites,
    with an arbitrary phase i**k."""
    support = random_hermitian_pauli(len(sites), rng).support
    return PauliString(int(rng.integers(4)), {sites[q]: v for q, v in support.items()})


def test_pauli_action_matches_dense_operator():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        p = _any_phase_pauli(range(n), rng)
        s = _random_state(n, rng)
        expected = sv.dense_operator(p, n) @ s.amps
        assert np.allclose(sv._pauli_action(s, p), expected, rtol=0, atol=1e-13)
        sv.apply_pauli_string(s, p)
        assert np.allclose(s.amps, expected, rtol=0, atol=1e-13)


def test_controlled_pauli_dense():
    """kron(|1><1|, p) + kron(|0><0|, I) with the control below, between and
    above the string support, from the dense matrix oracle."""
    rng = np.random.default_rng(6)
    n = 6
    for control, sites in ((0, (1, 2, 3, 4, 5)), (3, (0, 1, 2, 4, 5)), (5, (0, 1, 2, 3, 4))):
        z_c = sv.dense_operator(PauliString.from_ops({control: "Z"}), n)
        one = (np.eye(1 << n) - z_c) / 2  # |1><1| on the control
        for _ in range(20):
            p = _any_phase_pauli(sites, rng)
            mat = one @ sv.dense_operator(p, n) + (np.eye(1 << n) - one)
            s = _random_state(n, rng)
            expected = mat @ s.amps
            sv.apply_controlled_pauli(s, control, p)
            assert np.allclose(s.amps, expected, rtol=0, atol=1e-13)
    with pytest.raises(UsageError):
        sv.apply_controlled_pauli(s, 1, PauliString.from_ops({0: "X", 1: "Z"}))


@pytest.mark.parametrize("entry", ["_pauli_action", "apply_pauli_string",
                                   "apply_controlled_pauli",
                                   "apply_pauli_exponential"])
def test_pauli_entry_points_check_qubit_range(entry):
    s = _random_state(3, np.random.default_rng(8))
    ref = s.amps.copy()
    calls = {
        "_pauli_action": lambda p: sv._pauli_action(s, p),
        "apply_pauli_string": lambda p: sv.apply_pauli_string(s, p),
        "apply_controlled_pauli": lambda p: sv.apply_controlled_pauli(s, 2, p),
        "apply_pauli_exponential": lambda p: sv.apply_pauli_exponential(s, p, 0.3),
    }
    for bad in (3, 7, -1):
        with pytest.raises(UsageError, match=f"qubit index {bad} out of range"):
            calls[entry](PauliString.from_ops({0: "X", bad: "Z"}))
    if entry == "apply_controlled_pauli":
        for control in (5, 3, -1):
            with pytest.raises(UsageError, match=f"qubit index {control} out of range"):
                sv.apply_controlled_pauli(s, control, PauliString.from_ops({0: "X"}))
    assert np.array_equal(s.amps, ref)


@pytest.mark.parametrize("lattice", [lat.torus(2), lat.torus(3), lat.planar(3)],
                         ids=["torus2", "torus3", "planar3"])
def test_from_tableau_every_logical_sector(lattice):
    """Every stabilizer and logical of the dense import agrees with the
    tableau's exact expectation, in every logical sector."""
    pairs = lat.logical_operators(lattice)
    checks = ([PauliString.x_on(star) for star in lattice.stars]
              + [PauliString.z_on(bnd) for bnd in lattice.boundaries]
              + [from_string_path(path) for pair in pairs for path in pair])
    for sector in range(1 << len(pairs)):
        t = tb.prepare_ground_state(lattice, sector)
        s = sv.from_tableau(t)
        assert abs(s.norm() - 1) < 1e-12
        for p in checks:
            dense = np.vdot(s.amps, sv._pauli_action(s, p))
            assert abs(dense - tb.expectation_pauli(t, p)) < 1e-10, (sector, str(p))


def test_qubit_cap():
    with pytest.raises(ConfigurationError):
        sv.StateVector.computational(23)
    with pytest.raises(UsageError):
        sv.apply_gate(sv.StateVector.computational(2), "H", 5)
    for amps in ([], [1, 0, 0]):
        with pytest.raises(UsageError, match="not a power of two"):
            sv.StateVector.from_amplitudes(amps)
    assert sv.StateVector.from_amplitudes([1]).n == 0


# (entry point, parameter, bad value); each call is otherwise valid
BAD_DENSE_INPUTS = [
    *[("computational", "n", v) for v in (-1, 2.5)],
    *[("computational", "index", v) for v in (9, 4, -1, 1.5)],
    *[("from_amplitudes", "amps", v)
      for v in ([0, 0], [np.nan, 1], [np.inf, 0], [2, 0], [0.6, 0.6], [1, 1e-4])],
    *[("apply_pauli_exponential", "theta", v) for v in (np.nan, np.inf)],
    *[("evolve_hsurf", key, np.nan) for key in ("t", "coupling_u", "coupling_j")],
    ("evolve_hsurf", "t", -np.inf),
]


@pytest.mark.parametrize("entry, param, value", BAD_DENSE_INPUTS,
                         ids=[f"{e}-{p}={v}" for e, p, v in BAD_DENSE_INPUTS])
def test_bad_dense_inputs_rejected(entry, param, value, planar2):
    s = sv.StateVector.computational(planar2.n_edges)
    calls = {
        "computational": (sv.StateVector.computational, dict(n=2, index=0)),
        "from_amplitudes": (sv.StateVector.from_amplitudes, dict(amps=[1, 0])),
        "apply_pauli_exponential": (sv.apply_pauli_exponential,
                                    dict(s=s, p=PauliString.from_ops({0: "X"}), theta=0.3)),
        "evolve_hsurf": (sv.evolve_hsurf, dict(s=s, lattice=planar2, coupling_u=1.0,
                                               coupling_j=1.0, t=0.3)),
    }
    fn, kwargs = calls[entry]
    kwargs[param] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=rf"\b{param}\b"):
            fn(**kwargs)
    assert s.amps[0] == 1 and not s.amps[1:].any()
