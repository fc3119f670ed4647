import cmath
import math
import tracemalloc

import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim import oracle
from anyonsim import pauli
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.errors import ConfigurationError, ContractError, UsageError
from anyonsim.pauli import PauliString, from_string_path, logical_strings
from anyonsim.weyl import WeylString


def test_reference_braids(torus4, torus4_ground, planar3):
    tangled, untangled = pr.braiding_programs(torus4)
    assert pr.run_interferometry(tangled, torus4_ground).alpha == -1
    assert pr.run_interferometry(untangled, torus4_ground).alpha == 1
    ground3 = tb.prepare_ground_state(planar3, 0)
    tangled3, untangled3 = pr.braiding_programs(planar3)
    assert pr.run_interferometry(tangled3, ground3).alpha == -1
    assert pr.run_interferometry(untangled3, ground3).alpha == 1


def test_dynamical_phase_matches_couplings(planar3):
    ground = tb.prepare_ground_state(planar3, 0)
    coupling_u, coupling_j = 1.3, 0.9
    delays = (0.3, 0.7, 0.2)
    prog, _ = pr.braiding_programs(planar3, delays=delays,
                                   ledger=tb.EnergyLedger(coupling_u, coupling_j))
    alpha = pr.run_interferometry(prog, ground).alpha
    # syndromes during the delays: z-pair; z-pair + boundary x; boundary x
    eta = 4 * coupling_u * delays[0] \
        + (4 * coupling_u + 2 * coupling_j) * delays[1] \
        + 2 * coupling_j * delays[2]
    assert abs(alpha - (-cmath.exp(-1j * eta))) < 1e-12


def test_ledger_matches_dense_torus2():
    lattice = lat.torus(2)
    ground = tb.prepare_ground_state(lattice, 0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        prog = oracle.random_braid_program(lattice, rng)
        a1 = pr.run_interferometry(prog, ground).alpha
        a2 = pr.run_interferometry_dense(prog, ground).alpha
        assert abs(a1 - a2) < 1e-10


def _excite(ground, lattice, rng):
    """The ground state after the strings and echoes of a random program:
    anyons, so stabilizers at -1 sit under later delays."""
    t = ground.clone()
    for step in oracle.random_braid_program(lattice, rng).steps:
        if isinstance(step, pr.StringStep):
            tb.apply_pauli_string(t, from_string_path(step.path))
        elif isinstance(step, pr.EchoStep):
            tb.apply_pauli_string(t, pr._echo(lattice, step.kind)[0])
    return t


@pytest.mark.parametrize("lattice", [lat.torus(2), lat.planar(2), lat.planar(3)],
                         ids=["torus2", "planar2", "planar3"])
def test_interferometry_matches_dense_on_excited_states(lattice):
    ground = tb.prepare_ground_state(lattice, 0)
    rng = np.random.default_rng(5)
    phased = 0  # runs with a nontrivial delay phase on a nonzero alpha
    for _ in range(40):
        initial = _excite(ground, lattice, rng)
        prog = oracle.random_braid_program(lattice, rng)
        # the same program closed by a delay and its strings undone, so
        # that alpha is nonzero and its phase holds every delay's
        undo = tuple(s for s in reversed(prog.steps) if isinstance(s, pr.StringStep))
        closed = pr.BraidProgram(lattice, (*prog.steps, pr.DelayStep(float(rng.uniform(0, 2))),
                                           *undo), prog.ledger)
        for p in (prog, closed):
            a1 = pr.run_interferometry(p, initial).alpha
            a2 = pr.run_interferometry_dense(p, initial).alpha
            assert abs(a1 - a2) < 1e-10
            phased += abs(a1) > 0.5 and abs(a1.imag) > 1e-6
    assert phased >= 20


def test_indefinite_end_of_program_stabilizer_raises():
    # Z on edge 0 makes star 0 (at the rough boundary) indefinite; the
    # string Z0 after the delay anticommutes with it, so no delay phase of
    # the sign form exists, though op0 and op1 agree during the delay
    lattice = lat.planar(3)
    t = tb.prepare_ground_state(lattice, 0)
    tb.measure_pauli(t, PauliString.z_on([0]), np.random.default_rng(0))
    prog = pr.parse_program(lattice, "DELAY 0.7\nZEDGES 0\n", tb.EnergyLedger(1.3, 0.6))
    assert abs(pr.run_interferometry_dense(prog, t).alpha - 0.2466) < 1e-4
    with pytest.raises(ContractError, match="vertex stabilizer 0 has no definite value"):
        pr.run_interferometry(prog, t)


def test_indefinite_stabilizers_away_from_strings(planar3):
    # Z on edge 12 breaks stars 3 and 5, X on edge 11 faces 3 and 4; the
    # braid's strings end elsewhere, so alpha is the dense oracle's
    prog, _ = pr.braiding_programs(planar3, (0.3, 0.7, 0.2), tb.EnergyLedger(1.3, 0.6))
    t = tb.prepare_ground_state(planar3, 0)
    rng = np.random.default_rng(0)
    tb.measure_pauli(t, PauliString.z_on([12]), rng)
    tb.measure_pauli(t, PauliString.x_on([11]), rng)
    alpha = pr.run_interferometry(prog, t).alpha
    assert abs(alpha - pr.run_interferometry_dense(prog, t).alpha) < 1e-12
    assert abs(abs(alpha) - 1) < 1e-12


def test_torus32_braid_reads_no_syndrome(monkeypatch):
    def no_syndrome(*args):
        raise AssertionError("run_interferometry read the whole syndrome")

    delays = (0.3, 0.7, 0.2)
    lattice = lat.torus(32)
    ground = tb.prepare_ground_state(lattice, 0)
    monkeypatch.setattr(tb, "syndrome", no_syndrome)
    alpha = pr.run_interferometry(pr.braiding_programs(lattice, delays)[0], ground).alpha
    small = lat.torus(3)
    dense = pr.run_interferometry_dense(pr.braiding_programs(small, delays)[0],
                                        tb.prepare_ground_state(small, 0)).alpha
    assert abs(alpha - dense) < 1e-12


def test_torus32_echo_braid_walks_echoes_once(monkeypatch):
    # the delays read only the branch difference: every created_syndrome
    # call wider than the strings' total weight is an echo string, and the
    # echo string of a kind is walked once per lattice, however many echo
    # steps and braids meet it
    lattice = lat.torus(32)
    tangled, _ = pr.braiding_programs(lattice, delays=(0.3, 0.7, 0.2))
    steps = (pr.EchoStep("z"),) + tangled.steps + (pr.EchoStep("z"),)
    prog = pr.BraidProgram(lattice, steps, tangled.ledger)
    string_weight = sum(len(s.path.edge_set) for s in steps if isinstance(s, pr.StringStep))
    sizes, original = [], tb.created_syndrome

    def spy(lattice, p):
        sizes.append(len(p.support))
        return original(lattice, p)

    ground = tb.prepare_ground_state(lattice, 0)
    monkeypatch.setattr(tb, "created_syndrome", spy)
    alpha = pr.run_interferometry(prog, ground).alpha
    assert [k for k in sizes if k > string_weight] == [lattice.n_edges]
    assert pr.run_interferometry(prog, ground).alpha == alpha
    assert [k for k in sizes if k > string_weight] == [lattice.n_edges]
    assert abs(alpha - pr.run_interferometry(tangled, ground).alpha) < 1e-12


def test_echo_strings_built_once_per_kind_and_lattice(monkeypatch):
    # four echo kinds, one met twice, over two braids on one lattice: each
    # kind's string is walked by created_syndrome once, and the coherence
    # matches the dense two-branch oracle
    lattice = lat.planar(3)
    tangled, _ = pr.braiding_programs(lattice, delays=(0.3, 0.7, 0.2))
    kinds = ("z", "x_e", "x", "z_o")
    steps = tuple(s for kind in kinds for s in (pr.EchoStep(kind), *tangled.steps))
    prog = pr.BraidProgram(lattice, steps + (pr.EchoStep("x"),), tangled.ledger)
    calls, original = [], tb.created_syndrome

    def spy(lattice, p):
        calls.append(p)
        return original(lattice, p)

    ground = tb.prepare_ground_state(lattice, 0)
    monkeypatch.setattr(tb, "created_syndrome", spy)
    alpha = pr.run_interferometry(prog, ground).alpha
    assert pr.run_interferometry(prog, ground).alpha == alpha
    monkeypatch.setattr(tb, "created_syndrome", original)
    for kind in kinds:
        assert sum(p == pr._echo(lattice, kind)[0] for p in calls) == 1, kind
    assert abs(alpha - pr.run_interferometry_dense(prog, ground).alpha) < 1e-10


def test_logical_pair_built_once_per_lattice(monkeypatch):
    # pauli.logical_strings builds the (Z~, X~) strings of a lattice once;
    # the ground state, the SWAP circuits and the teleport read them as built
    planar3, torus3 = lat.planar(3), lat.torus(3)
    for lattice in (planar3, torus3):
        strings = logical_strings(lattice)
        assert logical_strings(lattice) is strings
        assert strings == tuple((from_string_path(cz), from_string_path(cx))
                                for cz, cx in lat.logical_operators(lattice))
    assert logical_strings(lat.planar(3))[0][0] is not logical_strings(planar3)[0][0]

    def rebuilt(lattice):
        raise AssertionError("the logical strings were built again")

    flips, apply = [], tb.apply_pauli_string
    monkeypatch.setattr(pauli, "logical_operators", rebuilt)
    monkeypatch.setattr(tb, "apply_pauli_string", lambda t, p: flips.append(p) or apply(t, p))
    # sector 0b10: the second logical qubit of the torus flipped by its X~
    tb.prepare_ground_state(torus3, 2)
    assert len(flips) == 1 and flips[0] is logical_strings(torus3)[1][1]
    t = tb.prepare_ground_state(planar3, 0, n_ancillas=1)
    pr.swap_out(planar3, pr.swap_in(planar3, t, probe_state=("X", -1)))
    assert pr.probe_bloch(t, planar3.n_edges)["X"] == -1
    memory = sv.from_tableau(tb.prepare_ground_state(planar3, 1))
    pr.teleport_rotation(planar3, memory, "Z", 0.3, force_outcome=1)


@pytest.mark.parametrize("n_ancillas", [3, 2000])
@pytest.mark.parametrize("dense_oracle", [pr.run_interferometry_dense,
                                          oracle.interferometry_probe_reference],
                         ids=["dense", "probe"])
def test_dense_oracles_check_the_tableau_before_import(monkeypatch, dense_oracle, n_ancillas):
    # a tableau with ancillas is refused before it is written out densely:
    # 21 qubits are not imported, and 2018 do not meet the dense cap first
    def no_import(t):
        raise AssertionError("the tableau was imported before its size was checked")

    small = lat.torus(3)
    t = tb.prepare_ground_state(small, 0, n_ancillas=n_ancillas)
    monkeypatch.setattr(sv, "from_tableau", no_import)
    with pytest.raises(UsageError, match="bare memory tableau"):
        dense_oracle(pr.braiding_programs(small)[0], t)


def test_delay_phase_is_the_energy_gap(planar2, planar2_ground):
    # one delay between a string and its inverse: alpha = exp(-i t gap)
    ledger = tb.EnergyLedger(1.3, 0.7)
    t_delay = 0.3

    def phase_gap(text):
        prog = pr.parse_program(planar2, text.replace(";", "\n"), ledger)
        alpha = pr.run_interferometry(prog, planar2_ground).alpha
        assert abs(abs(alpha) - 1) < 1e-12
        return -cmath.phase(alpha) / t_delay

    assert pr.run_interferometry(pr.parse_program(planar2, "DELAY 0.9", ledger),
                                 planar2_ground).alpha == 1
    # edge 4 is the interior edge of planar(2): Z there flips both vertices
    t = planar2_ground.clone()
    tb.apply_pauli_string(t, PauliString.z_on([4]))
    assert tb.syndrome(t, planar2) == {("vertex", 0), ("vertex", 1)}
    assert phase_gap("ZEDGES 4; DELAY 0.3; ZEDGES 4") == pytest.approx(4 * 1.3)
    # dense gap oracle with a z-pair plus an x-pair (Y on the interior edge)
    dim = 1 << planar2.n_edges
    uu, jj = 1.3, 0.7
    ham = np.zeros((dim, dim), dtype=complex)
    for v in range(planar2.n_vertices):
        ham -= uu * oracle.dense_operator(PauliString.x_on(planar2.star(v)), 5)
    for f in range(planar2.n_faces):
        ham -= jj * oracle.dense_operator(PauliString.z_on(planar2.boundary(f)), 5)
    e0 = np.linalg.eigvalsh(ham).min()
    t2 = planar2_ground.clone()
    tb.apply_pauli_string(t2, PauliString.z_on([4]))
    tb.apply_pauli_string(t2, PauliString.x_on([4]))
    psi = sv.from_tableau(t2).amps
    energy = float(np.real(psi.conj() @ ham @ psi)) - e0
    gap = phase_gap("ZEDGES 4; XEDGES 4; DELAY 0.3; XEDGES 4; ZEDGES 4")
    assert gap == pytest.approx(energy, abs=1e-9)
    assert gap == pytest.approx(4 * uu + 4 * jj)
    # a boundary edge instead creates a single anyon (planar absorption)
    t3 = planar2_ground.clone()
    tb.apply_pauli_string(t3, PauliString.z_on([0]))
    assert [kind for kind, _ in tb.syndrome(t3, planar2)] == ["vertex"]
    assert phase_gap("ZEDGES 0; DELAY 0.3; ZEDGES 0") == pytest.approx(2 * uu)


def test_alpha_magnitude_cases(torus4, torus4_ground):
    # syndrome-restoring strings: |alpha| = 1; non-restoring: alpha = 0
    prog, _ = pr.braiding_programs(torus4, delays=(0.5, 0.1, 0.9))
    alpha = pr.run_interferometry(prog, torus4_ground).alpha
    assert abs(abs(alpha) - 1) < 1e-12
    open_string = pr.BraidProgram(torus4, (pr.StringStep(
        lat.shortest_string(torus4, "z", 0, 5)),))
    assert pr.run_interferometry(open_string, torus4_ground).alpha == 0
    # delay-only programs are exactly trivial
    delays_only = pr.BraidProgram(torus4, (pr.DelayStep(0.7), pr.DelayStep(1.1)))
    assert pr.run_interferometry(delays_only, torus4_ground).alpha == 1


def test_echo_steps_affect_both_branches(torus4, torus4_ground):
    # sandwiching the braid between two global echo pulses leaves alpha
    # alone; on torus(3), 18 qubits, the dense two-branch oracle agrees
    torus3 = lat.torus(3)
    for lattice, ground in ((torus4, torus4_ground),
                            (torus3, tb.prepare_ground_state(torus3, 0))):
        tangled, _ = pr.braiding_programs(lattice, delays=(0.3, 0.0, 0.0))
        steps = (pr.EchoStep("z"),) + tangled.steps + (pr.EchoStep("z"),)
        prog = pr.BraidProgram(lattice, steps, tangled.ledger)
        a1 = pr.run_interferometry(tangled, ground).alpha
        a2 = pr.run_interferometry(prog, ground).alpha
        assert abs(a1 - a2) < 1e-12
    # the last lattice, torus(3), fits the dense engine
    assert abs(a2 - pr.run_interferometry_dense(prog, ground).alpha) < 1e-10


def test_coherence_and_fringe():
    c = pr.Coherence(0.5 * cmath.exp(1j * 1.2))
    phis = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    curve = pr.fringe(c, phis)
    assert np.all(np.abs(curve.values) <= 1 + 1e-12)
    assert curve.contrast == pytest.approx(0.5, abs=1e-3)
    assert curve.argmax_phi == pytest.approx(1.2, abs=2 * np.pi / 512 + 1e-9)
    flat = pr.fringe(pr.Coherence(0j), phis)
    assert np.allclose(flat.values, 0)
    with pytest.raises(ContractError):
        pr.Coherence(1.5 + 0j)


def test_swap_roundtrip_all_states(planar2):
    probe = planar2.n_edges
    for state in pr.PROBE_STATES:
        t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
        pr.swap_in(planar2, t, probe_state=state)
        assert pr.probe_bloch(t, probe)["Z"] == 1  # probe returned to |0>
        pr.swap_out(planar2, t)
        assert pr.probe_bloch(t, probe)[state[0]] == state[1]


def test_probe_state_is_checked(planar2):
    # anything but a (letter, +-1) pair names probe_state and leaves the
    # probe in |0> (swap_in reads None as "no state to write"); the letter
    # may be lower case
    probe = planar2.n_edges
    for state in (("X",), "Y", None, (1, 1), ("Z", 1.5), ("Z", 0), ("W", 1), ("X", 1, 1)):
        t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
        with pytest.raises(UsageError, match="probe_state"):
            pr.prepare_probe(t, probe, state)
        if state is not None:
            with pytest.raises(UsageError, match="probe_state"):
                pr.swap_in(planar2, t, probe_state=state)
        assert pr.probe_bloch(t, probe) == {"X": 0, "Y": 0, "Z": 1}
    t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    pr.swap_out(planar2, pr.swap_in(planar2, t, probe_state=("y", np.int64(-1))))
    assert pr.probe_bloch(t, probe)["Y"] == -1


def test_swap_in_writes_logical(planar2):
    (cz, cx), = lat.logical_operators(planar2)
    t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    pr.swap_in(planar2, t, probe_state=("X", 1))
    assert tb.expectation_pauli(t, from_string_path(cx)) == 1
    t2 = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    pr.swap_in(planar2, t2, probe_state=("Z", -1))
    assert tb.expectation_pauli(t2, from_string_path(cz)) == -1


def test_swap_preconditions(planar2):
    t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    tb.apply_pauli_string(t, from_string_path(
        lat.logical_operators(planar2)[0][1]))  # memory now |1~>
    with pytest.raises(ContractError):
        pr.swap_in(planar2, t, probe_state=("Z", 1))
    t2 = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
    t2.x_gate(planar2.n_edges)  # probe |1>
    with pytest.raises(ContractError):
        pr.swap_out(planar2, t2)


def test_swap_in_refusal_order():
    # one batch reads the logical Z and every stabilizer; a memory that fails
    # several checks is refused for the logical first, then for the first
    # stabilizer without a definite value (syndrome's message), then for the
    # anyons.  Edge 0 lies on Z~ (edges 0, 1, 2), edge 4 does not
    torus3 = lat.torus(3)
    lz, lx = logical_strings(torus3)[0]
    z_edge = PauliString.z_on((4,))  # two vertex anyons

    def memory(*paulis, h=None):
        t = tb.prepare_ground_state(torus3, 0, n_ancillas=1)
        for p in paulis:
            tb.apply_pauli_string(t, p)
        if h is not None:
            t.h(h)
        return t

    for t in (memory(lx, z_edge), memory(z_edge, h=0), memory(lx, h=4)):
        with pytest.raises(ContractError, match=r"logical \|0>"):
            pr.swap_in(torus3, t, probe_state=("X", 1))
    t = memory(z_edge, h=7)
    with pytest.raises(ContractError) as indefinite:
        tb.syndrome(t, torus3)
    with pytest.raises(ContractError, match=f"^{indefinite.value}$"):
        pr.swap_in(torus3, t, probe_state=("X", 1))
    with pytest.raises(ContractError, match="ground-state memory"):
        pr.swap_in(torus3, memory(z_edge), probe_state=("X", 1))


def test_swap_against_dense_oracle(planar2):
    # roundtrip on the dense engine for a superposition probe state
    for state in (("X", 1), ("Y", -1)):
        t = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
        pr.swap_in(planar2, t, probe_state=state)
        pr.swap_out(planar2, t)
        dense = sv.from_tableau(t)
        ref = tb.prepare_ground_state(planar2, 0, n_ancillas=1)
        pr.prepare_probe(ref, planar2.n_edges, state)
        assert abs(abs(sv.inner_product(dense, sv.from_tableau(ref))) - 1) < 1e-10


def test_teleport_rotation(planar2, planar2_ground):
    (cz, cx), = lat.logical_operators(planar2)
    lz, lx = from_string_path(cz), from_string_path(cx)
    rng = np.random.default_rng(1)
    memory = sv.from_tableau(planar2_ground)
    sv.apply_pauli_exponential(memory, lx, 0.4)  # non-trivial logical state
    for axis, string in (("X", lx), ("Z", lz)):
        for _ in range(5):
            theta = float(rng.uniform(-np.pi, np.pi))
            for outcome in (1, -1):
                out, got = pr.teleport_rotation(planar2, memory.clone(), axis,
                                                theta, force_outcome=outcome)
                assert got == outcome
                ref = memory.clone()
                sv.apply_pauli_exponential(ref, string, theta)
                assert abs(sv.inner_product(out, ref)) > 1 - 1e-10
    # theta = 0: identity channel; theta = pi/2 on X~ equals X~ up to phase
    out, _ = pr.teleport_rotation(planar2, memory.clone(), "X", 0.0, rng=rng)
    assert abs(sv.inner_product(out, memory)) > 1 - 1e-12
    out, _ = pr.teleport_rotation(planar2, memory.clone(), "X", np.pi / 2, rng=rng)
    ref = memory.clone()
    sv.apply_pauli_string(ref, lx)
    assert abs(abs(sv.inner_product(out, ref)) - 1) < 1e-10
    # arbitrary Hermitian string axis
    sstr = PauliString.z_on([0, 1])
    out, _ = pr.teleport_rotation(planar2, memory.clone(), sstr, 0.77, rng=rng)
    ref = memory.clone()
    sv.apply_pauli_exponential(ref, sstr, 0.77)
    assert abs(sv.inner_product(out, ref)) > 1 - 1e-10
    with pytest.raises(UsageError):
        pr.teleport_rotation(planar2, memory.clone(), PauliString(1, {0: (0, 1)}),
                             0.3, rng=rng)


class _FixedDraw:
    """An rng whose random() always returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("lattice", [lat.planar(2), lat.torus(3)], ids=["planar2", "torus3"])
def test_teleport_matches_circuit_oracle(lattice):
    lz, lx = [from_string_path(p) for p in lat.logical_operators(lattice)[0]]
    memory = sv.from_tableau(tb.prepare_ground_state(lattice, 0))
    sv.apply_pauli_exponential(memory, lx, 0.4)
    sv.apply_pauli_exponential(memory, PauliString.from_ops({0: "Y", 3: "X"}), 0.3)
    axes = ["X", "Z", PauliString.from_ops({0: "Y", 2: "Z"}),
            PauliString(2, {1: (0, 1), 4: (1, 0)})]
    for axis in axes:
        for theta in (0.3, -2.1, math.pi / 2):
            for outcome in (1, -1):
                out, got = pr.teleport_rotation(lattice, memory.clone(), axis, theta,
                                                force_outcome=outcome)
                ref, p_minus = oracle.teleport_circuit_reference(lattice, memory.clone(),
                                                                 axis, theta, outcome)
                assert got == outcome
                assert np.abs(out.amps - ref.amps).max() < 1e-12, (str(axis), theta)
            # the -1 branch is taken exactly when the draw is below the
            # oracle's -1 probability, to 1e-12
            for draw, want in ((p_minus - 1e-12, -1), (p_minus + 1e-12, 1)):
                _, got = pr.teleport_rotation(lattice, memory.clone(), axis, theta,
                                              rng=_FixedDraw(draw))
                assert got == want, (str(axis), theta)


@pytest.mark.parametrize("outcome", [1, -1])
def test_teleport_leaves_memory_unchanged(planar2, planar2_ground, outcome):
    memory = sv.from_tableau(planar2_ground)
    sv.apply_pauli_exponential(memory, PauliString.from_ops({0: "Y", 3: "X"}), 0.3)
    before = memory.amps.copy()
    for axis in ("X", "Z", PauliString.from_ops({0: "Y", 2: "Z"})):
        pr.teleport_rotation(planar2, memory, axis, 0.7, force_outcome=outcome)
        assert np.array_equal(memory.amps, before), str(axis)


def test_teleport_rng_use(planar2, planar2_ground):
    memory = sv.from_tableau(planar2_ground)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    for k in range(6):
        pr.teleport_rotation(planar2, memory.clone(), "XZ"[k % 2], 0.7, rng=rng)
        ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state
    for outcome in (1, -1):
        pr.teleport_rotation(planar2, memory.clone(), "X", 0.7, rng=rng,
                             force_outcome=outcome)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_teleport_rejects_bad_inputs(planar2, planar2_ground):
    memory = sv.from_tableau(planar2_ground)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError, match="theta"):
            pr.teleport_rotation(planar2, memory.clone(), "X", theta)
    for outcome in (0, 2, -2, "1"):
        with pytest.raises(UsageError, match="force_outcome"):
            pr.teleport_rotation(planar2, memory.clone(), "Z", 0.3, force_outcome=outcome)


def test_teleport_checks_qubit_range_before_drawing(planar2, planar2_ground):
    memory = sv.from_tableau(planar2_ground)
    before = memory.amps.copy()
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    for site in (memory.n, memory.n + 5):
        with pytest.raises(UsageError, match="qubit index"):
            pr.teleport_rotation(planar2, memory, PauliString.from_ops({0: "X", site: "Z"}),
                                 0.4, rng=rng)
        assert rng.bit_generator.state == state
        assert np.array_equal(memory.amps, before)


def test_teleport_checks_axis_and_memory_before_drawing(planar2, planar2_ground):
    memory = sv.from_tableau(planar2_ground)
    before = memory.amps.copy()
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    for axis in (3, None, "Y", WeylString(3, 0, {0: (1, 0)})):
        with pytest.raises(UsageError, match="axis"):
            pr.teleport_rotation(planar2, memory, axis, 0.4, rng=rng)
    # a planar:2 memory (5 qubits) is no memory of a torus:2 lattice (8 edges)
    for lattice, bad in ((lat.torus(2), memory), (planar2, memory.amps), (planar2, None)):
        with pytest.raises(UsageError, match="memory"):
            pr.teleport_rotation(lattice, bad, "X", 0.4, rng=rng)
    assert rng.bit_generator.state == state
    assert np.array_equal(memory.amps, before)


def test_teleport_zero_memory_is_a_contract_error(planar2):
    # refused before any draw, forced or not
    zero = sv.StateVector(planar2.n_edges, np.zeros(1 << planar2.n_edges, dtype=complex))
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    for outcome in (1, -1, None):
        for axis in ("X", "Z"):
            with pytest.raises(ContractError, match="zero probability"):
                pr.teleport_rotation(planar2, zero, axis, 0.4, rng=rng, force_outcome=outcome)
            assert rng.bit_generator.state == state


@pytest.mark.parametrize("lattice", [lat.planar(2), lat.torus(3)], ids=["planar2", "torus3"])
def test_teleport_probability_is_half_the_norm(lattice):
    # S~ is a Hermitian Pauli string, so |S~ psi| = |psi| and <psi|S~ psi> is
    # real: the circuit's -1 probability is |psi|^2 / 2 whatever theta
    rng = np.random.default_rng(17)
    n = lattice.n_edges
    for _ in range(3 if n > 12 else 12):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps *= rng.uniform(0.5, 1.5) / np.linalg.norm(amps)
        memory = sv.StateVector(n, amps)
        axis = oracle.random_hermitian_pauli(n, rng)
        theta = float(rng.uniform(-math.pi, math.pi))
        _, p_minus = oracle.teleport_circuit_reference(lattice, memory, axis, theta, 1)
        assert abs(p_minus - 0.5 * np.vdot(amps, amps).real) < 1e-14, (str(axis), theta)


@pytest.mark.parametrize("axis", ["X", "Z"])
def test_teleport_peak_memory(axis):
    # phi = S~ psi and one 256 KiB chunk of psi at a time; the whole-array
    # combination held a second full-size temporary (2.0 x the state)
    lattice = lat.torus(3)
    lx = from_string_path(lat.logical_operators(lattice)[0][1])
    memory = sv.from_tableau(tb.prepare_ground_state(lattice, 0))
    sv.apply_pauli_exponential(memory, lx, 0.3)
    tracemalloc.start()
    try:
        pr.teleport_rotation(lattice, memory, axis, 0.7, rng=np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * (1 << memory.n)


def test_geometric_branch_phases():
    spec = pr.GeometricGateSpec(math.sqrt(math.pi / 4), math.sqrt(math.pi / 4))
    # ancilla |0>: no enclosed area on either string branch
    assert pr.geometric_branch_phase(spec, 0, 1) == pytest.approx(1.0)
    assert pr.geometric_branch_phase(spec, 0, -1) == pytest.approx(1.0)
    # beta = 0: degenerate loop
    spec0 = pr.GeometricGateSpec(0.3 + 0.1j, 0.0)
    assert pr.geometric_branch_phase(spec0, 1, 1) == pytest.approx(1.0)
    # branch ratio exp(-4i Re(a conj b) s)
    a_amp, b_amp = 0.8, 0.5
    spec2 = pr.GeometricGateSpec(a_amp, b_amp)
    ratio = pr.geometric_branch_phase(spec2, 1, 1) / \
        pr.geometric_branch_phase(spec2, 1, -1)
    assert ratio == pytest.approx(cmath.exp(-4j * a_amp * b_amp))


def test_verify_geometric_gate():
    spec = pr.GeometricGateSpec(math.sqrt(math.pi / 4), math.sqrt(math.pi / 4))
    report = pr.verify_geometric_gate(spec)
    assert report.controlled_string_pass
    assert report.required_product == pytest.approx(math.pi / 4)
    doubled = pr.verify_geometric_gate(
        pr.GeometricGateSpec(math.sqrt(math.pi / 2), math.sqrt(math.pi / 2)))
    assert not doubled.controlled_string_pass
    # the published |alpha|^2 = |beta|^2 = pi/2 choice gives a trivial table
    assert doubled.branch_phases[(1, 1)] / doubled.branch_phases[(1, -1)] == \
        pytest.approx(1.0)
    # probe-free rotation: angle is -2 Re(a conj b), half the claimed |ab|
    rep = pr.verify_geometric_gate(pr.GeometricGateSpec(0.5, 0.7))
    assert rep.rotation_angle == pytest.approx(-0.7)
    assert rep.rotation_claimed_product == pytest.approx(0.35)


def test_geometric_gate_and_layout_inputs_are_checked(torus4):
    for bad in (math.nan, complex(0, math.inf), "1", 1e5):
        with pytest.raises(ConfigurationError, match="alpha_amp"):
            pr.GeometricGateSpec(bad, 1.0)
        with pytest.raises(ConfigurationError, match="beta_amp"):
            pr.GeometricGateSpec(1.0, bad)
    spec = pr.GeometricGateSpec(0.5, 0.7)
    for bit in (2, math.nan, -1, 0.5):
        with pytest.raises(UsageError, match="ancilla_bit"):
            pr.geometric_branch_phase(spec, bit, 1)
    for s in (0, 2, 1.0, math.nan):
        with pytest.raises(UsageError, match=r"\bs\b"):
            pr.geometric_branch_phase(spec, 1, s)
    for ds in (["a"], [1.0, None], [complex(1, math.nan)], [1e300, 1e300j]):
        with pytest.raises(UsageError, match="displacements"):
            pr.compose_displacements(ds)
    for delays in ((0, 0), None, (0, 0, 0, 0), (math.nan, 0, 0), (0, -1, 0), (0, 0, "1")):
        with pytest.raises(UsageError, match="delays"):
            pr.braiding_programs(torus4, delays)


def test_displacement_composition_shoelace():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(3, 9))
        ds = rng.normal(size=k) + 1j * rng.normal(size=k)
        ds = np.append(ds, -ds.sum())
        phase, endpoint = pr.compose_displacements(ds)
        assert abs(endpoint) < 1e-9
        zs = np.cumsum(np.concatenate([[0], ds]))
        area = 0.5 * np.sum((np.conj(zs[:-1]) * zs[1:]).imag)
        assert abs(phase - np.exp(2j * area)) < 1e-12


def test_probe_free_rotation_matches_exponential(planar2, planar2_ground):
    (cz, cx), = lat.logical_operators(planar2)
    lx = from_string_path(cx)
    a_amp, b_amp = 0.45, 0.3
    spec = pr.GeometricGateSpec(a_amp, b_amp)
    theta = pr.verify_geometric_gate(spec).rotation_angle
    memory = sv.from_tableau(planar2_ground)
    sv.apply_pauli_exponential(memory, from_string_path(cz), 0.3)
    # build the geometric-gate action from the two X~ eigenbranches
    plus = memory.clone()
    sv.apply_pauli_string(plus, lx)
    proj_p = 0.5 * (memory.amps + plus.amps)
    proj_m = 0.5 * (memory.amps - plus.amps)
    geo = pr.geometric_branch_phase(spec, 1, 1) * proj_p \
        + pr.geometric_branch_phase(spec, 1, -1) * proj_m
    ref = memory.clone()
    sv.apply_pauli_exponential(ref, lx, theta)
    assert abs(np.vdot(geo, ref.amps)) > 1 - 1e-12


def test_program_text_round_trip(torus4, torus4_ground):
    tangled, _ = pr.braiding_programs(torus4, delays=(0.25, 0, 0.5))
    text = pr.format_program(tangled)
    parsed = pr.parse_program(torus4, text, tangled.ledger)
    a1 = pr.run_interferometry(tangled, torus4_ground).alpha
    a2 = pr.run_interferometry(parsed, torus4_ground).alpha
    assert abs(a1 - a2) < 1e-12


def test_program_parse_forms(torus4):
    text = """
    # waypoint string with three legs
    Z 0 1 5
    X 0 2
    DELAY 0.5
    ECHO z
    ZEDGES 4 5 6
    """
    prog = pr.parse_program(torus4, text)
    kinds = [type(s).__name__ for s in prog.steps]
    assert kinds == ["StringStep", "StringStep", "DelayStep", "EchoStep",
                     "StringStep"]
    # the way-point legs 0-1 and 1-5, shared edges cancelled
    leg1, leg2 = (lat.shortest_string(torus4, "z", a, b).edge_set for a, b in ((0, 1), (1, 5)))
    assert prog.steps[0].path.edge_set == leg1 ^ leg2
    with pytest.raises(UsageError):
        pr.parse_program(torus4, "Z 0")
    with pytest.raises(UsageError):
        pr.parse_program(torus4, "WIGGLE 1 2")
    with pytest.raises(UsageError):
        pr.parse_program(torus4, "DELAY abc")
    with pytest.raises(UsageError):
        pr.parse_program(torus4, "ZEDGES 99")
    with pytest.raises(UsageError, match="program line 1"):
        pr.parse_program(torus4, "ZEDGES -1")
    with pytest.raises(UsageError):
        pr.parse_program(torus4, "ECHO q")


def test_delay_is_a_waiting_time(torus4):
    for t in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match=r"\bt must be"):
            pr.DelayStep(t)
    with pytest.raises(UsageError, match=r"program line 2: t must be >= 0"):
        pr.parse_program(torus4, "ZEDGES 4\nDELAY -1")
    assert pr.parse_program(torus4, "DELAY 0").steps == (pr.DelayStep(0.0),)
