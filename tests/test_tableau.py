import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.errors import ContractError, UsageError
from anyonsim.oracle import random_clifford_circuit, random_hermitian_pauli, run_circuit
from anyonsim.pauli import PauliString, from_string_path, multiply


def test_initial_state_generators():
    t = tb.Tableau(3)
    gens = t.stabilizer_generators()
    assert [str(g) for g in gens] == ["+ Z0", "+ Z1", "+ Z2"]
    assert "+ Z0" in t.dump()


def test_gates_match_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        t, s = run_circuit(n, random_clifford_circuit(n, 30, rng))
        assert abs(abs(sv.inner_product(sv.from_tableau(t), s)) - 1) < 1e-10
        for _ in range(4):
            p = random_hermitian_pauli(n, rng)
            e_tab = tb.expectation_pauli(t, p)
            e_vec = np.real(np.vdot(s.amps, sv._pauli_action(s, p)))
            assert abs(e_tab - e_vec) < 1e-9


@pytest.mark.parametrize("gate, targets", [("T", 0), ("CX", (0, 5)), ("H", -1)])
def test_apply_gate_rejects_bad_input(gate, targets):
    with pytest.raises(UsageError):
        tb.apply_gate(tb.Tableau(3), gate, targets)


def test_expectation_zero_iff_measurement_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        t, _ = run_circuit(n, random_clifford_circuit(n, 20, rng))
        p = random_hermitian_pauli(n, rng)
        e = tb.expectation_pauli(t, p)
        outcomes = {tb.measure_pauli(t.clone(), p, np.random.default_rng(k))[0]
                    for k in range(24)}
        if e == 0:
            assert outcomes == {1, -1}
        else:
            assert outcomes == {e}


def test_measurement_collapse_is_consistent():
    rng = np.random.default_rng(2)
    t = tb.Tableau(2)
    t.h(0)
    p = PauliString.from_ops({0: "Z"})
    out1, _ = tb.measure_pauli(t, p, rng)
    for _ in range(5):
        out2, _ = tb.measure_pauli(t, p, rng)
        assert out2 == out1


def test_measurement_born_frequency():
    plus = tb.Tableau(1).h(0)
    z = PauliString.from_ops({0: "Z"})
    outcomes = [tb.measure_pauli(plus.clone(), z, np.random.default_rng(k))[0]
                for k in range(1000)]
    freq = outcomes.count(1) / 1000
    assert abs(freq - 0.5) < 0.05


def test_ground_state_stabilizers_and_sectors():
    for lattice, sector in [(lat.planar(2), 0), (lat.planar(3), 1),
                            (lat.torus(2), (0, 0)), (lat.torus(3), (1, 0))]:
        t = tb.prepare_ground_state(lattice, sector)
        for v in range(lattice.n_vertices):
            assert tb.expectation_pauli(t, PauliString.x_on(lattice.star(v))) == 1
        for f in range(lattice.n_faces):
            assert tb.expectation_pauli(t, PauliString.z_on(lattice.boundary(f))) == 1
        bits = [sector] if isinstance(sector, int) else list(sector)
        for bit, (cz, _) in zip(bits, lat.logical_operators(lattice)):
            want = 1 if bit == 0 else -1
            assert tb.expectation_pauli(t, from_string_path(cz)) == want


def test_ground_state_deterministic_across_rngs():
    lattice = lat.planar(3)
    t1 = tb.prepare_ground_state(lattice, 0, rng=np.random.default_rng(1))
    t2 = tb.prepare_ground_state(lattice, 0, rng=np.random.default_rng(99))
    rng = np.random.default_rng(5)
    obs = [random_hermitian_pauli(lattice.n_edges, rng) for _ in range(30)]
    for p in obs:
        assert tb.expectation_pauli(t1, p) == tb.expectation_pauli(t2, p)


def test_ground_state_matches_dense_diagonalization(planar2, planar2_ground):
    dim = 1 << planar2.n_edges
    ham = np.zeros((dim, dim), dtype=complex)
    for v in range(planar2.n_vertices):
        ham -= sv.dense_operator(PauliString.x_on(planar2.star(v)), 5)
    for f in range(planar2.n_faces):
        ham -= sv.dense_operator(PauliString.z_on(planar2.boundary(f)), 5)
    evals, evecs = np.linalg.eigh(ham)
    ground_space = evecs[:, evals < evals.min() + 1e-9]
    assert ground_space.shape[1] == 2  # one logical qubit
    psi = sv.from_tableau(planar2_ground).amps
    assert abs(np.linalg.norm(ground_space.conj().T @ psi) - 1) < 1e-10


def test_ground_state_amplitudes_golden(planar2_ground):
    import pathlib
    golden = {}
    fixture = pathlib.Path(__file__).parent / "fixtures" / "planar2_ground_sector0.txt"
    for line in fixture.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        idx, re, im = line.split()
        golden[int(idx)] = complex(float(re), float(im))
    amps = sv.from_tableau(planar2_ground).amps
    for i, a in enumerate(amps):
        assert abs(a - golden.get(i, 0.0)) < 1e-12


def test_large_torus_preparation():
    lattice = lat.torus(16)  # 512 qubits, bit-packed rows
    t = tb.prepare_ground_state(lattice, (0, 1))
    for v in (0, 100, 255):
        assert tb.expectation_pauli(t, PauliString.x_on(lattice.star(v))) == 1
    pairs = lat.logical_operators(lattice)
    assert tb.expectation_pauli(t, from_string_path(pairs[0][0])) == 1
    assert tb.expectation_pauli(t, from_string_path(pairs[1][0])) == -1


def test_maximum_torus_scale():
    # the configured maximum: torus(32) = 2048 qubits
    lattice = lat.torus(32)
    t = tb.prepare_ground_state(lattice, (0, 0))
    tb.apply_pauli_string(t, from_string_path(
        lat.shortest_string(lattice, "z", 0, 600)))
    syn = tb.syndrome(t, lattice)
    assert syn.flipped_vertices == frozenset({0, 600})
    assert not syn.flipped_faces


def test_measure_stabilizer_deterministic(planar2, planar2_ground):
    rng = np.random.default_rng(0)
    hf = PauliString.z_on(planar2.boundary(0))
    out, _ = tb.measure_pauli(planar2_ground.clone(), hf, rng)
    assert out == 1
    hv = PauliString.x_on(planar2.star(1))
    out, _ = tb.measure_pauli(planar2_ground.clone(), hv, rng)
    assert out == 1


def test_logical_x_undetermined_in_z_sector(planar2, planar2_ground):
    (cz, cx), = lat.logical_operators(planar2)
    assert tb.expectation_pauli(planar2_ground, from_string_path(cx)) == 0
    # applying X~ flips the logical Z~ eigenvalue
    t = planar2_ground.clone()
    tb.apply_pauli_string(t, from_string_path(cx))
    assert tb.expectation_pauli(t, from_string_path(cz)) == -1


def test_apply_string_syndromes(torus4, torus4_ground):
    t = torus4_ground.clone()
    path = lat.shortest_string(torus4, "z", 0, 10)
    tb.apply_pauli_string(t, from_string_path(path))
    syn = tb.syndrome(t, torus4)
    assert syn.flipped_vertices == frozenset({0, 10})
    assert not syn.flipped_faces
    # closed loop leaves the syndrome unchanged
    loop = PauliString.z_on(torus4.boundary(6))
    tb.apply_pauli_string(t, loop)
    assert tb.syndrome(t, torus4) == syn
    # disjoint x-string adds two faces
    xpath = lat.shortest_string(torus4, "x", 5, 7)
    tb.apply_pauli_string(t, from_string_path(xpath))
    syn2 = tb.syndrome(t, torus4)
    assert syn2.flipped_vertices == frozenset({0, 10})
    assert syn2.flipped_faces == frozenset({5, 7})


def test_boundary_string_single_anyon(planar3):
    t = tb.prepare_ground_state(planar3, 0)
    path = lat.string_to_boundary(planar3, "z", 3)
    tb.apply_pauli_string(t, from_string_path(path))
    syn = tb.syndrome(t, planar3)
    assert syn.flipped_vertices == frozenset({3})


def test_relative_energy(planar2, planar2_ground):
    ledger = tb.EnergyLedger(1.3, 0.7)
    assert tb.relative_energy(tb.Syndrome(frozenset(), frozenset()), ledger) == 0
    # edge 4 is the interior edge of planar(2): Z there flips both vertices
    t = planar2_ground.clone()
    tb.apply_pauli_string(t, PauliString.z_on([4]))
    syn = tb.syndrome(t, planar2)
    assert syn.flipped_vertices == frozenset({0, 1})
    assert tb.relative_energy(syn, ledger) == pytest.approx(4 * 1.3)
    # dense gap oracle with a z-pair plus an x-pair (Y on the interior edge)
    dim = 1 << planar2.n_edges
    uu, jj = 1.3, 0.7
    ham = np.zeros((dim, dim), dtype=complex)
    for v in range(planar2.n_vertices):
        ham -= uu * sv.dense_operator(PauliString.x_on(planar2.star(v)), 5)
    for f in range(planar2.n_faces):
        ham -= jj * sv.dense_operator(PauliString.z_on(planar2.boundary(f)), 5)
    e0 = np.linalg.eigvalsh(ham).min()
    t2 = planar2_ground.clone()
    tb.apply_pauli_string(t2, PauliString.z_on([4]))
    tb.apply_pauli_string(t2, PauliString.x_on([4]))
    psi = sv.from_tableau(t2).amps
    energy = float(np.real(psi.conj() @ ham @ psi)) - e0
    syn2 = tb.syndrome(t2, planar2)
    assert tb.relative_energy(syn2, ledger) == pytest.approx(energy, abs=1e-9)
    assert tb.relative_energy(syn2, ledger) == pytest.approx(4 * uu + 4 * jj)
    # a boundary edge instead creates a single anyon (planar absorption)
    t3 = planar2_ground.clone()
    tb.apply_pauli_string(t3, PauliString.z_on([0]))
    assert len(tb.syndrome(t3, planar2).flipped_vertices) == 1


def test_loop_invariance(torus4, torus4_ground):
    from itertools import combinations
    # all contractible z-loops built from <= 3 faces (lengths up to 12)
    for size in (1, 2, 3):
        for faces in combinations(range(torus4.n_faces), size):
            edges = frozenset()
            for f in faces:
                edges ^= frozenset(torus4.boundary(f))
            if not edges:
                continue
            assert tb.expectation_pauli(torus4_ground,
                                        PauliString.z_on(edges)) == 1
            break  # one subset per size class is checked exhaustively below
    # exhaustive over pairs (6-, 8-edge loops)
    for faces in combinations(range(torus4.n_faces), 2):
        edges = frozenset(torus4.boundary(faces[0])) ^ frozenset(torus4.boundary(faces[1]))
        assert tb.expectation_pauli(torus4_ground, PauliString.z_on(edges)) == 1
    # dual loops likewise
    for v in range(torus4.n_vertices):
        assert tb.expectation_pauli(torus4_ground,
                                    PauliString.x_on(torus4.star(v))) == 1


def test_controlled_string_control_states(planar2, planar2_ground):
    (cz, cx), = lat.logical_operators(planar2)
    lz = from_string_path(cz)
    probe = planar2.n_edges
    # control |0>: memory untouched
    t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    tb.apply_controlled_string(t, probe, lz)
    ref = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    assert abs(abs(sv.inner_product(sv.from_tableau(t), sv.from_tableau(ref))) - 1) < 1e-10
    # control |1>: acts like the plain string on 50 random observables
    rng = np.random.default_rng(7)
    t1 = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    t1.x_gate(probe)
    tb.apply_controlled_string(t1, probe, lz)
    t2 = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    t2.x_gate(probe)
    tb.apply_pauli_string(t2, lz)
    for _ in range(50):
        p = random_hermitian_pauli(probe + 1, rng)
        assert tb.expectation_pauli(t1, p) == tb.expectation_pauli(t2, p)
    # involution
    tb.apply_controlled_string(t1, probe, lz)
    tb.apply_pauli_string(t2, lz)
    assert abs(abs(sv.inner_product(sv.from_tableau(t1), sv.from_tableau(t2))) - 1) < 1e-10


def test_controlled_string_bell_correlation(planar2):
    # memory |+~>, probe |+>, controlled-Z~: Bell pair in the logical algebra
    (cz, cx), = lat.logical_operators(planar2)
    lz, lx = from_string_path(cz), from_string_path(cx)
    probe = planar2.n_edges
    rng = np.random.default_rng(0)
    t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    out, _ = tb.measure_pauli(t, lx, rng)
    if out == -1:
        tb.apply_pauli_string(t, lz)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lz)
    x_probe = PauliString.from_ops({probe: "X"})
    z_probe = PauliString.from_ops({probe: "Z"})
    assert tb.expectation_pauli(t, multiply(x_probe, lz)) == 1
    assert tb.expectation_pauli(t, multiply(z_probe, lx)) == 1
    assert tb.expectation_pauli(t, x_probe) == 0  # maximally entangled


def test_controlled_string_raw_photon_phase(planar2):
    (cz, _), = lat.logical_operators(planar2)
    lz = from_string_path(cz)
    probe = planar2.n_edges
    t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lz, raw_photon_phase=True)
    ref = sv.from_tableau(tb.prepare_ground_state(planar2, 0, n_ancillas=1))
    sv.apply_gate(ref, "H", probe)
    sv.apply_controlled_pauli(ref, probe,
                              PauliString(lz.phase - lz.weight, lz.support))
    assert abs(abs(sv.inner_product(sv.from_tableau(t), ref)) - 1) < 1e-10


def test_controlled_string_rejects_control_in_support():
    t = tb.Tableau(3)
    with pytest.raises(UsageError):
        tb.apply_controlled_string(t, 1, PauliString.z_on([0, 1]))


def test_expectation_phase_imaginary():
    t = tb.Tableau(1)
    t.h(0)
    t.s(0)  # |+i>, stabilized by Y
    y = PauliString.from_ops({0: "Y"})
    assert tb.expectation_pauli(t, y) == 1
    iy = PauliString(y.phase + 1, y.support)  # iY
    assert tb.expectation_phase(t, iy) == 1j


def test_measure_requires_hermitian():
    t = tb.Tableau(1)
    with pytest.raises(UsageError):
        tb.measure_pauli(t, PauliString(1, {0: (0, 1)}), np.random.default_rng(0))


def test_syndrome_rejects_indefinite_states(planar2):
    t = tb.prepare_ground_state(planar2, 0)
    t.h(0)  # breaks the stabilizer eigenstate structure
    with pytest.raises(ContractError):
        tb.syndrome(t, planar2)
