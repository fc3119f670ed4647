import cmath
import math

import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim import oracle
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.errors import ConfigurationError, ContractError, UsageError
from anyonsim.pauli import PauliString, from_string_path


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
