import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.errors import ContractError, UsageError
from anyonsim.oracle import (ground_state_by_projection, random_braid_program,
                             random_clifford_circuit, random_hermitian_pauli, run_circuit,
                             syndrome_by_expectation)
from anyonsim.pauli import PauliString, from_string_path, multiply


def test_initial_state_generators():
    t = tb.Tableau(3)
    gens = t.stabilizer_generators()
    assert [str(g) for g in gens] == ["+ Z0", "+ Z1", "+ Z2"]
    assert "+ Z0" in t.dump()
    with pytest.raises(UsageError, match=r"^n must be an integer"):
        tb.Tableau(2.5)


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


@pytest.mark.parametrize("offset", [28, 57, 60])
def test_rows_spanning_words_match_small_tableau(offset):
    # Tableau(70) keeps 140 rows in three 64-row words; qubit q has
    # destabilizer row q and stabilizer row 70 + q.  Qubits 28.. have their
    # destabilizers in word 0 and stabilizers in word 1; the stabilizers of
    # 57.. straddle words 1 and 2, the destabilizers of 60.. words 0 and 1
    rng = np.random.default_rng(offset)
    for _ in range(25):
        k = int(rng.integers(5, 9))
        small, big = tb.Tableau(k), tb.Tableau(70)
        for gate, qs in random_clifford_circuit(k, 40, rng):
            tb.apply_gate(small, gate, qs)
            tb.apply_gate(big, gate, tuple(q + offset for q in qs))
        seed = int(rng.integers(2 ** 32))
        rng_small, rng_big = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            p = random_hermitian_pauli(k, rng)
            moved = PauliString(p.phase, {q + offset: b for q, b in p.support.items()})
            assert tb.expectation_phase(big, moved) == tb.expectation_phase(small, p)
            assert (tb.measure_pauli(big, moved, rng_big)[0]
                    == tb.measure_pauli(small, p, rng_small)[0])
        want = [str(PauliString(g.phase, {q + offset: b for q, b in g.support.items()}))
                for g in small.stabilizer_generators()]
        assert [str(g) for g in big.stabilizer_generators()[offset:offset + k]] == want


@pytest.mark.parametrize("gate, targets", [("T", 0), ("CX", (0, 5)), ("H", -1),
                                            ("CX", (1, 1)), ("CZ", (2, 2))])
def test_apply_gate_rejects_bad_input(gate, targets):
    with pytest.raises(UsageError):
        tb.apply_gate(tb.Tableau(3), gate, targets)
    with pytest.raises(UsageError):
        sv.apply_gate(sv.StateVector.computational(3), gate, targets)


@pytest.mark.parametrize("gate, targets", [("H", (0, 1)), ("X", ()), ("CX", 0),
                                            ("CZ", (0,)), ("CX", (0, 1, 2))])
@pytest.mark.parametrize("engine", ["tableau", "statevector"])
def test_apply_gate_checks_arity(engine, gate, targets):
    # the wrong number of targets is a UsageError naming them, in both
    # engines, and leaves the state as it was
    if engine == "tableau":
        state, apply = tb.Tableau(3), tb.apply_gate
        before = lambda: (state.x.copy(), state.z.copy(), state.r.copy())
    else:
        state, apply = sv.StateVector.computational(3), sv.apply_gate
        before = lambda: (state.amps.copy(),)
    saved = before()
    with pytest.raises(UsageError, match=r"\btargets\b"):
        apply(state, gate, targets)
    assert all(np.array_equal(a, b) for a, b in zip(saved, before()))


@pytest.mark.parametrize("gate, targets", [("h", (3,)), ("h", (-1,)),
                                            ("cx", (0, 3)), ("cx", (-1, 0)),
                                            ("cz", (3, 0)), ("cz", (0, -1))])
def test_gate_methods_reject_bad_index(gate, targets):
    t = tb.Tableau(3)
    before = (t.x.copy(), t.z.copy(), t.r.copy())
    with pytest.raises(UsageError, match="out of range"):
        getattr(t, gate)(*targets)
    assert all(np.array_equal(a, b) for a, b in zip(before, (t.x, t.z, t.r)))


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


def test_ground_state_leaves_rng_untouched():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    for lattice in (lat.planar(3), lat.torus(3)):
        tb.prepare_ground_state(lattice, 1, rng=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("name, lattice, sector, n_ancillas", [
    ("torus3_sector10_anc1", lat.torus(3), (1, 0), 1),
    ("planar3_sector1", lat.planar(3), 1, 0),
    ("torus4_sector01", lat.torus(4), (0, 1), 0)])
def test_ground_state_stabilizers_golden(name, lattice, sector, n_ancillas):
    # generator rows and signs as written by the measure-and-pair preparation
    import pathlib
    fixture = pathlib.Path(__file__).parent / "fixtures" / f"ground_{name}.dump"
    t = tb.prepare_ground_state(lattice, sector, n_ancillas=n_ancillas)
    assert t.dump() + "\n" == fixture.read_text()


def _same_tableau(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in "xzr")


# torus(6) and torus(9) put the destabilizer/stabilizer split inside a
# 64-row word; 0-2 ancillas move it further
@pytest.mark.parametrize("lattice", [lat.torus(n) for n in range(2, 10)]
                         + [lat.planar(d) for d in range(2, 8)],
                         ids=[f"torus{n}" for n in range(2, 10)]
                         + [f"planar{d}" for d in range(2, 8)])
def test_ground_state_matches_projection_oracle(lattice):
    for sector in range(2 ** len(lat.logical_operators(lattice))):
        for n_ancillas in range(3):
            t = tb.prepare_ground_state(lattice, sector, n_ancillas=n_ancillas)
            ref = ground_state_by_projection(lattice, sector, n_ancillas)
            assert _same_tableau(t, ref), (sector, n_ancillas)


def test_ground_state_matches_projection_oracle_torus32():
    lattice = lat.torus(32)
    assert _same_tableau(tb.prepare_ground_state(lattice, 0),
                         ground_state_by_projection(lattice, 0))


def test_dependent_star_raises():
    # every star of a torus: the last is the product of the others
    lattice = lat.torus(3)
    with pytest.raises(ContractError, match=r"star 8 is a product of the stars before it"):
        tb._star_tableau(lattice.n_edges, lattice.stars)
    planar = lat.planar(3)
    with pytest.raises(ContractError, match=r"star 1 is a product"):
        tb._star_tableau(planar.n_edges, planar.stars[:1] * 2)


def test_ground_state_accepts_numpy_integers():
    lattice = lat.torus(2)
    assert _same_tableau(tb.prepare_ground_state(lattice, np.int64(1), n_ancillas=np.int32(1)),
                         tb.prepare_ground_state(lattice, 1, n_ancillas=1))


def test_projection_onto_impossible_outcome():
    z = PauliString.from_ops({0: "Z"})
    t = tb.Tableau(1)
    assert tb._project(t, z, want=1) == 1
    with pytest.raises(ContractError, match="zero probability"):
        tb._project(t, z, want=-1)
    plus = tb.Tableau(1).h(0)
    assert tb._project(plus, z, want=-1) == -1
    assert tb.expectation_pauli(plus, z) == -1


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
    ground = tb.prepare_ground_state(lattice, (0, 0))
    # the tangled braid with delays against the dense oracle on torus(3):
    # the delay phases depend only on the local string layout
    delays = (0.2, 0.5, 0.1)
    alpha = pr.run_interferometry(pr.braiding_programs(lattice, delays)[0],
                                  ground).alpha
    small = lat.torus(3)
    dense = pr.run_interferometry_dense(pr.braiding_programs(small, delays)[0],
                                        tb.prepare_ground_state(small, 0)).alpha
    assert abs(alpha - dense) < 1e-12
    t = tb.apply_pauli_string(ground.clone(), from_string_path(
        lat.shortest_string(lattice, "z", 0, 600)))
    syn = tb.syndrome(t, lattice)
    assert syn.flipped_vertices == frozenset({0, 600})
    assert not syn.flipped_faces


def _branch_product(program):
    """Product of the string and echo operators of a program."""
    op = PauliString.identity()
    for step in program.steps:
        if isinstance(step, pr.StringStep):
            op = multiply(from_string_path(step.path), op)
        elif isinstance(step, pr.EchoStep):
            op = multiply(pr._echo_pauli(program.lattice, step.kind), op)
    return op


def _mix_generators(t, rng, n_ops=60):
    """The same state with other generators: S_i <- S_i S_j and D_j <- D_j D_i
    keep the tableau valid and give rows that mix x and z bits."""
    for _ in range(n_ops):
        i, j = (int(v) for v in rng.choice(t.n, size=2, replace=False))
        t._rowmult_into(_row_set(t, t.n + i), t.n + j)
        t._rowmult_into(_row_set(t, j), i)
    return t


def _row_set(t, row):
    """The row bitset holding just ``row``."""
    rows = np.zeros(t.x.shape[0], dtype=np.uint64)
    rows[row >> 6] = np.uint64(1) << np.uint64(row & 63)
    return rows


# torus(6) (72 qubits) and torus(9) (162) put the destabilizer/stabilizer
# split inside a 64-row word and leave a partly filled qubit word
@pytest.mark.parametrize("lattice", [lat.torus(4), lat.torus(6), lat.torus(9),
                                     lat.planar(2), lat.planar(3)],
                         ids=["torus4", "torus6", "torus9", "planar2", "planar3"])
def test_syndrome_matches_expectation_oracle(lattice):
    n_ancillas = 0 if lattice.is_torus else 1
    ground = tb.prepare_ground_state(lattice, 0, n_ancillas=n_ancillas)
    n = ground.n
    rng = np.random.default_rng(17)
    # a logical Y eigenstate: products of generators then carry odd cross
    # terms, which the syndrome's sign computation must include
    cz, cx = lat.logical_operators(lattice)[0]
    y = multiply(from_string_path(cz), from_string_path(cx))
    tb.measure_pauli(ground, y if y.is_hermitian() else PauliString(y.phase + 1, y.support),
                     rng)
    for _ in range(12):
        # an excited eigenstate, then a further string/echo product, then
        # an arbitrary Pauli (ancilla included)
        t = tb.apply_pauli_string(ground.clone(),
                                  _branch_product(random_braid_program(lattice, rng)))
        base = tb.syndrome(t, lattice)
        assert base == syndrome_by_expectation(t, lattice)
        for p in (_branch_product(random_braid_program(lattice, rng)),
                  random_hermitian_pauli(n, rng)):
            after = tb.apply_pauli_string(t.clone(), p)
            want = syndrome_by_expectation(after, lattice)
            assert tb.syndrome(after, lattice) == want
            assert tb.syndrome(_mix_generators(after, rng), lattice) == want
            assert tb.syndrome_after(base, lattice, p) == want


def test_syndrome_after_rejects_negative_sites(torus4):
    # site -1 is no edge; it must not be read as the last one
    empty = tb.Syndrome(frozenset(), frozenset())
    for ops in ({-1: "Z"}, {0: "X", -3: "Y"}):
        with pytest.raises(UsageError, match="site -"):
            tb.syndrome_after(empty, torus4, PauliString.from_ops(ops))


def test_syndrome_matches_expectation_oracle_torus32():
    # the last star of the torus(32) ground state is the product of the
    # other 1023 stabilizer rows: its sign is read through 1023 members
    lattice = lat.torus(32)
    t = tb.prepare_ground_state(lattice, 0)
    last = lattice.n_vertices - 1
    star = tb._targets(t, [PauliString.x_on(lattice.stars[last])])
    assert np.bitwise_count(tb._antic(t, star, 1)).sum() == 1023
    rng = np.random.default_rng(3)
    for kind, count in (("z", last), ("x", lattice.n_faces)):
        for _ in range(3):
            a, b = (int(v) for v in rng.choice(count, size=2, replace=False))
            tb.apply_pauli_string(t, from_string_path(lat.shortest_string(lattice, kind, a, b)))
    tb.apply_pauli_string(t, from_string_path(lat.shortest_string(lattice, "z", 0, last)))
    syn = tb.syndrome(t, lattice)
    assert last in syn.flipped_vertices and syn.flipped_faces
    assert syn == syndrome_by_expectation(t, lattice)


@pytest.mark.parametrize("lattice, kwargs, param", [
    (lat.torus(2), dict(logical_sector=4), "logical_sector"),
    (lat.torus(2), dict(logical_sector=5), "logical_sector"),
    (lat.torus(2), dict(logical_sector=-1), "logical_sector"),
    (lat.planar(2), dict(logical_sector=2), "logical_sector"),
    (lat.torus(2), dict(logical_sector=(0, 2)), "logical_sector"),
    (lat.torus(2), dict(logical_sector=1.5), "logical_sector"),
    (lat.torus(2), dict(logical_sector=None), "logical_sector"),
    (lat.torus(2), dict(logical_sector=(0, 1, 0)), "logical_sector"),
    (lat.torus(2), dict(n_ancillas=-1), "n_ancillas"),
    (lat.torus(2), dict(n_ancillas=1.5), "n_ancillas"),
    (lat.torus(2), dict(n_ancillas="1"), "n_ancillas"),
], ids=["torus-4", "torus-5", "torus--1", "planar-2", "torus-(0,2)", "torus-1.5",
        "torus-None", "torus-(0,1,0)", "ancillas--1", "ancillas-1.5", "ancillas-'1'"])
def test_prepare_ground_state_rejects_bad_input(lattice, kwargs, param):
    with pytest.raises(UsageError, match=rf"\b{param}\b"):
        tb.prepare_ground_state(lattice, **kwargs)


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


def test_batched_expectations_match_dense():
    # an entangled probe, then products of generators (determined, any
    # phase) among random Paulis (mostly undetermined), read in one batch
    lattice = lat.torus(2)
    t = tb.prepare_ground_state(lattice, 1, n_ancillas=1)
    probe = lattice.n_edges
    t.h(probe)
    tb.apply_controlled_string(t, probe, from_string_path(lat.logical_operators(lattice)[0][1]))
    t.s(probe)
    rng = np.random.default_rng(4)
    gens = t.stabilizer_generators()
    paulis = [PauliString.identity()]
    for _ in range(30):
        p = PauliString.identity()
        for g in rng.choice(len(gens), size=4, replace=False):
            p = multiply(gens[int(g)], p)
        paulis += [PauliString(p.phase + int(rng.integers(4)), p.support),
                   random_hermitian_pauli(t.n, rng)]
    # determined with one side empty: x bits only, z bits only
    paulis += [PauliString.x_on(lattice.star(1)), PauliString.z_on(lattice.boundary(0))]
    values = tb.expectations(t, paulis)
    assert np.count_nonzero(values) > len(paulis) // 2
    psi = sv.from_tableau(t)
    for p, value in zip(paulis, values):
        assert abs(np.vdot(psi.amps, sv._pauli_action(psi, p)) - value) < 1e-10, str(p)
        assert tb.expectation_phase(t, p) == value
    assert tb.expectations(t, []).shape == (0,)
    outside = PauliString.z_on([0, t.n])
    with pytest.raises(UsageError, match=f"site {t.n} outside tableau of {t.n} qubits"):
        tb.expectations(t, [paulis[1], outside])


def test_measure_requires_hermitian():
    t = tb.Tableau(1)
    with pytest.raises(UsageError):
        tb.measure_pauli(t, PauliString(1, {0: (0, 1)}), np.random.default_rng(0))


def test_syndrome_rejects_indefinite_states(planar2):
    t = tb.prepare_ground_state(planar2, 0)
    t.h(0)  # breaks the stabilizer eigenstate structure
    # edge 0 protrudes from vertex 0, the first stabilizer it breaks
    for read in (tb.syndrome, syndrome_by_expectation):
        with pytest.raises(ContractError,
                           match="vertex stabilizer 0 has no definite value"):
            read(t, planar2)


def test_syndrome_names_first_indefinite_face():
    # sqrt(X) = H S H on an edge breaks the faces beside it and no star
    lattice = lat.torus(3)
    ground = tb.prepare_ground_state(lattice, 0)
    for q in (0, 7, 17):
        t = ground.clone()
        t.h(q).s(q).h(q)
        first = min(lattice.edge_faces[q])
        for read in (tb.syndrome, syndrome_by_expectation):
            with pytest.raises(ContractError,
                               match=f"face stabilizer {first} has no definite value"):
                read(t, lattice)


def test_group_phase_contract_errors():
    # corrupted tableaux: a determined value must be real, and the members'
    # product must reproduce the operator, for one Pauli and for a batch
    t = tb.Tableau(1)
    t.r[1] = 1  # the stabilizer becomes i Z
    with pytest.raises(ContractError, match="non-real phase"):
        tb.measure_pauli(t, PauliString.z_on([0]), np.random.default_rng(0))
    t._set_row(1, [], [], 0)  # the stabilizer row is lost
    with pytest.raises(ContractError, match="commutes with the group but is not in it"):
        tb.expectation_phase(t, PauliString.z_on([0]))
    lattice = lat.torus(2)
    t = tb.prepare_ground_state(lattice, 0)
    t._set_row(t.n, [], [], 0)
    with pytest.raises(ContractError, match="commutes with the group but is not in it"):
        tb.syndrome(t, lattice)
