"""Executable protocols: anyonic interferometry with delays, fringe readout,
SWAP-based memory access, gate teleportation, and the geometric-phase-gate
phase-space model.

The interferometer measures the probe coherence alpha: the amplitude of the
initial state in the branch that received the controlled strings, including
the dynamical phase from time delays.  The tableau path computes alpha
exactly as (delay phases) x (group expectation of the accumulated branch
operators); a dense two-branch statevector path and an explicit-probe path
exist for cross-validation on small lattices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import statevector as sv
from . import tableau as tb
from .errors import ContractError, UsageError
from .lattice import Lattice, StringPath, echo_mask, logical_operators, shortest_string
from .pauli import PauliString, from_string_path, multiply

ECHO_KINDS = ("z", "x", "z_e", "z_o", "x_e", "x_o")


@dataclass(frozen=True)
class StringStep:
    path: StringPath


@dataclass(frozen=True)
class DelayStep:
    t: float


@dataclass(frozen=True)
class EchoStep:
    kind: str

    def __post_init__(self):
        if self.kind not in ECHO_KINDS:
            raise UsageError(f"unknown echo kind {self.kind!r}")


Step = StringStep | DelayStep | EchoStep


@dataclass(frozen=True)
class BraidProgram:
    """Ordered string/delay/echo steps on one lattice with H_surf couplings."""

    lattice: Lattice
    steps: tuple[Step, ...]
    ledger: tb.EnergyLedger = field(default_factory=tb.EnergyLedger)

    def strings(self) -> list[StringPath]:
        return [s.path for s in self.steps if isinstance(s, StringStep)]


@dataclass(frozen=True)
class Coherence:
    """Probe coherence alpha; arg(alpha) is the total interferometric phase."""

    alpha: complex

    def __post_init__(self):
        if abs(self.alpha) > 1 + 1e-12:
            raise ContractError(f"|alpha| = {abs(self.alpha)} exceeds 1")

    @property
    def theta_tot(self) -> float:
        return cmath.phase(self.alpha)

    @property
    def contrast(self) -> float:
        return abs(self.alpha)


@dataclass(frozen=True)
class FringeCurve:
    """<sigma_phi> over a phase grid; max value is |alpha| at phi = arg alpha."""

    phis: np.ndarray
    values: np.ndarray

    @property
    def contrast(self) -> float:
        return float(self.values.max() - self.values.min()) / 2.0

    @property
    def argmax_phi(self) -> float:
        return float(self.phis[int(np.argmax(self.values))])


def _echo_pauli(lattice: Lattice, kind: str) -> PauliString:
    mask = echo_mask(lattice, kind)
    if kind.startswith("z"):
        return PauliString.z_on(mask)
    return PauliString.x_on(mask)


def run_interferometry(program: BraidProgram, initial: tb.Tableau) -> Coherence:
    """Exact probe coherence via the stabilizer ledger.

    Branch 1 receives the string operators, both branches the echo pulses
    and the H_surf evolution during delays; only the energy difference of
    the two branch syndromes enters the phase.
    """
    lattice = program.lattice
    t0 = initial.clone()
    t1 = initial.clone()
    op0 = PauliString.identity()
    op1 = PauliString.identity()
    alpha = 1.0 + 0.0j
    for step in program.steps:
        if isinstance(step, StringStep):
            p = from_string_path(step.path)
            tb.apply_pauli_string(t1, p)
            op1 = multiply(p, op1)
        elif isinstance(step, EchoStep):
            p = _echo_pauli(lattice, step.kind)
            tb.apply_pauli_string(t0, p)
            tb.apply_pauli_string(t1, p)
            op0 = multiply(p, op0)
            op1 = multiply(p, op1)
        elif isinstance(step, DelayStep):
            e1 = tb.relative_energy(tb.syndrome(t1, lattice), program.ledger)
            e0 = tb.relative_energy(tb.syndrome(t0, lattice), program.ledger)
            alpha *= cmath.exp(-1j * (e1 - e0) * step.t)
        else:  # pragma: no cover
            raise UsageError(f"unknown step {step!r}")
    alpha *= tb.expectation_phase(initial, multiply(op0.inverse(), op1))
    return Coherence(alpha)


def run_interferometry_dense(program: BraidProgram, initial: tb.Tableau,
                             materialize_probe: bool = False) -> Coherence:
    """Dense oracle for the interferometer (lattice must fit the dense cap).

    Two-branch mode evolves the |0> and |1> conditional histories as
    separate statevectors.  With materialize_probe the probe qubit is
    represented explicitly and the strings applied via controlled-Pauli
    gates; the coherence is then read from the probe block overlap.
    """
    lattice = program.lattice
    u, j = program.ledger.coupling_u, program.ledger.coupling_j
    base = sv.from_tableau(initial)
    if base.n != lattice.n_edges:
        raise UsageError("dense interferometry needs a bare memory tableau")
    if not materialize_probe:
        b0, b1 = base.clone(), base.clone()
        for step in program.steps:
            if isinstance(step, StringStep):
                sv.apply_pauli_string(b1, from_string_path(step.path))
            elif isinstance(step, EchoStep):
                p = _echo_pauli(lattice, step.kind)
                sv.apply_pauli_string(b0, p)
                sv.apply_pauli_string(b1, p)
            else:
                sv.evolve_hsurf(b0, lattice, u, j, step.t)
                sv.evolve_hsurf(b1, lattice, u, j, step.t)
        return Coherence(sv.inner_product(b0, b1))

    probe = base.n
    state = sv.StateVector(probe + 1,
                           np.concatenate([base.amps, base.amps]) / math.sqrt(2))
    for step in program.steps:
        if isinstance(step, StringStep):
            sv.apply_controlled_pauli(state, probe, from_string_path(step.path))
        elif isinstance(step, EchoStep):
            sv.apply_pauli_string(state, _echo_pauli(lattice, step.kind))
        else:
            sv.evolve_hsurf(state, lattice, u, j, step.t)
    half = 1 << probe
    alpha = 2.0 * complex(np.vdot(state.amps[:half], state.amps[half:]))
    return Coherence(alpha)


def fringe(c: Coherence, phi_grid) -> FringeCurve:
    """<sigma_phi> = |alpha| cos(arg alpha - phi) on the grid."""
    phis = np.asarray(phi_grid, dtype=float)
    values = np.real(c.alpha * np.exp(-1j * phis))
    return FringeCurve(phis, values)


# -- topological memory access ---------------------------------------------

PROBE_STATES = {
    ("Z", 1): (), ("Z", -1): ("X",),
    ("X", 1): ("H",), ("X", -1): ("X", "H"),
    ("Y", 1): ("H", "S"), ("Y", -1): ("X", "H", "S"),
}


def prepare_probe(t: tb.Tableau, qubit: int, state: tuple[str, int]) -> tb.Tableau:
    """Rotate a |0> probe into the single-qubit stabilizer state (P, sign)."""
    key = (state[0].upper(), int(state[1]))
    if key not in PROBE_STATES:
        raise UsageError(f"unknown probe state {state!r}")
    if tb.expectation_pauli(t, PauliString.from_ops({qubit: "Z"})) != 1:
        raise ContractError("probe preparation expects the probe in |0>")
    for g in PROBE_STATES[key]:
        tb.apply_gate(t, g, qubit)
    return t


def probe_bloch(t: tb.Tableau, qubit: int) -> dict[str, int]:
    """Exact X/Y/Z expectations of one qubit (each 0 or +-1)."""
    return {letter: tb.expectation_pauli(t, PauliString.from_ops({qubit: letter}))
            for letter in "XYZ"}


def _logical_pair(lattice: Lattice):
    cz_path, cx_path = logical_operators(lattice)[0]
    return from_string_path(cz_path), from_string_path(cx_path)


def swap_in(lattice: Lattice, t: tb.Tableau, probe_state: tuple[str, int] | None = None,
            check: bool = True) -> tb.Tableau:
    """Swap the probe qubit's state into memory initialized in logical |0>.

    The probe is the qubit at index lattice.n_edges.  The circuit is
    H_A Lambda[Z~] H_A Lambda[X~] (rightmost first); afterwards the probe is
    back in |0> and the memory logical carries the former probe state.
    """
    probe = lattice.n_edges
    if t.n < probe + 1:
        raise UsageError("tableau has no probe qubit")
    lz, lx = _logical_pair(lattice)
    if check:
        if tb.expectation_pauli(t, lz) != 1:
            raise ContractError("swap_in expects memory in logical |0>")
        if tb.syndrome(t, lattice).empty is False:
            raise ContractError("swap_in expects a ground-state memory")
    if probe_state is not None:
        prepare_probe(t, probe, probe_state)
    tb.apply_controlled_string(t, probe, lx)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lz)
    t.h(probe)
    return t


def swap_out(lattice: Lattice, t: tb.Tableau, check: bool = True) -> tb.Tableau:
    """Swap the memory logical state back onto a |0> probe.

    Circuit Lambda[X~] H_A Lambda[Z~] H_A (rightmost first); composition
    with swap_in is the identity channel on the probe.
    """
    probe = lattice.n_edges
    if t.n < probe + 1:
        raise UsageError("tableau has no probe qubit")
    if check and tb.expectation_pauli(t, PauliString.from_ops({probe: "Z"})) != 1:
        raise ContractError("swap_out expects the probe in |0>")
    lz, lx = _logical_pair(lattice)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lz)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lx)
    return t


def teleport_rotation(lattice: Lattice, memory: sv.StateVector, axis, theta: float,
                      rng=None, force_outcome: int | None = None
                      ) -> tuple[sv.StateVector, int]:
    """exp(i theta S~) on the memory via the gate-teleportation circuits.

    axis: "X" or "Z" for the logical generators, or any Hermitian
    PauliString on the memory qubits.  Executes on the dense engine (the
    probe rotation is non-Clifford).  Returns the corrected memory state
    and the probe measurement outcome (+-1); the -1 branch receives the
    conditional logical Pauli correction.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    lz, lx = _logical_pair(lattice)
    if isinstance(axis, str):
        key = axis.upper()
        if key == "X":
            string, circuit = lx, "plus"
        elif key == "Z":
            string, circuit = lz, "zero"
        else:
            raise UsageError(f"unknown axis {axis!r}")
    else:
        string, circuit = axis, "plus"
        if not string.is_hermitian():
            raise UsageError("rotation axis string must be Hermitian")
    probe = memory.n
    if circuit == "plus":
        amps = np.concatenate([memory.amps, memory.amps]) / math.sqrt(2)
        state = sv.StateVector(probe + 1, amps)
        sv.apply_controlled_pauli(state, probe, string)
        sv.apply_pauli_exponential(state, PauliString.from_ops({probe: "X"}), theta)
    else:
        amps = np.concatenate([memory.amps, np.zeros_like(memory.amps)])
        state = sv.StateVector(probe + 1, amps)
        # logical-controlled NOT onto the probe: H_A Lambda_A[Z~] H_A
        state = sv.apply_gate(state, "H", probe)
        sv.apply_controlled_pauli(state, probe, string)
        state = sv.apply_gate(state, "H", probe)
        sv.apply_pauli_exponential(state, PauliString.from_ops({probe: "Z"}), theta)
        state = sv.apply_gate(state, "H", probe)

    half = 1 << probe
    p_one = float(np.linalg.norm(state.amps[half:]) ** 2)
    if force_outcome is None:
        outcome = -1 if rng.random() < p_one else 1
    else:
        outcome = force_outcome
    block = state.amps[half:] if outcome == -1 else state.amps[:half]
    nrm = np.linalg.norm(block)
    if nrm < 1e-12:
        raise ContractError("measurement branch has zero probability")
    out = sv.StateVector(memory.n, block / nrm)
    if outcome == -1:
        sv.apply_pauli_string(out, string)
    return out, outcome


# -- geometric phase gate ----------------------------------------------------

@dataclass(frozen=True)
class GeometricGateSpec:
    """Conditional-displacement gate data: D(-b|1><1|) D(-a e^{i pi S/2})
    D(b|1><1|) D(a e^{i pi S/2}) with a = alpha_amp, b = beta_amp."""

    alpha_amp: complex
    beta_amp: complex
    target: PauliString | None = None


def compose_displacements(displacements) -> tuple[complex, complex]:
    """Scalar phase and endpoint of a displacement sequence.

    D(a) D(b) = e^{i Im(a conj(b))} D(a + b), applied left to right in time
    order; the returned phase equals exp(2i x signed enclosed area) when the
    path closes.
    """
    z = 0.0 + 0.0j
    phi = 0.0
    for d in displacements:
        phi += (d * z.conjugate()).imag
        z += d
    return cmath.exp(1j * phi), z


def geometric_branch_phase(spec: GeometricGateSpec, ancilla_bit: int, s: int) -> complex:
    """Scalar phase of one (ancilla, string-eigenvalue) branch.

    The four conditional displacements close exactly; non-closure marks a
    numerical error in reused integrator state.
    """
    if s not in (1, -1):
        raise UsageError("string eigenvalue must be +-1")
    d1 = spec.alpha_amp * cmath.exp(1j * math.pi * s / 2)
    d2 = spec.beta_amp if ancilla_bit else 0.0
    phase, endpoint = compose_displacements([d1, d2, -d1, -d2])
    if abs(endpoint) > 1e-9:
        raise ContractError("displacement loop failed to close")
    return phase


@dataclass(frozen=True)
class GeometricGateReport:
    branch_phases: dict[tuple[int, int], complex]
    controlled_string_pass: bool
    probe_frame_rotation: float     # Z-rotation absorbed on the ancilla
    required_product: float         # |alpha beta| that realizes Lambda[S]
    rotation_angle: float           # theta of the probe-free e^{i theta S}
    rotation_claimed_product: float  # coefficient |alpha beta| would claim
    tolerance: float


def verify_geometric_gate(spec: GeometricGateSpec, tolerance: float = 1e-12
                          ) -> GeometricGateReport:
    """Compare the four-branch phase table with Lambda[S].

    Equality is judged up to one global phase together with a free
    Z-rotation on the ancilla (a local single-spin rotation): the a=0
    branches must coincide and the a=1 branches must differ by exactly -1.
    Also reports the probe-free rotation angle theta = -2 Re(alpha conj(beta))
    realized by the unconditional sequence, whose magnitude is twice
    |alpha beta| smaller than the claimed |alpha beta| = theta choice.
    """
    table = {(a, s): geometric_branch_phase(spec, a, s)
             for a in (0, 1) for s in (1, -1)}
    ok_zero = abs(table[(0, 1)] - table[(0, -1)]) <= tolerance
    ratio = table[(1, 1)] / table[(1, -1)]
    ok_one = abs(ratio + 1.0) <= tolerance
    re_ab = (spec.alpha_amp * spec.beta_amp.conjugate()).real
    cosd = re_ab / (abs(spec.alpha_amp * spec.beta_amp) or 1.0)
    required = math.inf if abs(cosd) < 1e-15 else (math.pi / 4) / abs(cosd)
    theta = -2.0 * re_ab
    return GeometricGateReport(
        branch_phases=table,
        controlled_string_pass=bool(ok_zero and ok_one),
        probe_frame_rotation=cmath.phase(table[(1, 1)] / table[(0, 1)]),
        required_product=required,
        rotation_angle=theta,
        rotation_claimed_product=abs(spec.alpha_amp * spec.beta_amp),
        tolerance=tolerance,
    )


# -- program text format -----------------------------------------------------

def parse_program(lattice: Lattice, text: str,
                  ledger: tb.EnergyLedger | None = None) -> BraidProgram:
    """Parse the one-step-per-line program format.

    Lines: ``Z v1 v2 [v3 ...]`` / ``X f1 f2 [f3 ...]`` (string through the
    listed way-points, shortest segments, repeated edges cancel),
    ``ZEDGES e1 e2 ...`` / ``XEDGES e1 e2 ...`` (explicit support),
    ``DELAY t``, ``ECHO kind``.  Blank lines and ``#`` comments ignored.
    """
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0].upper()
        try:
            if head in ("Z", "X"):
                nodes = [int(v) for v in toks[1:]]
                if len(nodes) < 2:
                    raise UsageError("need at least two way-points")
                kind = head.lower()
                edges: frozenset[int] = frozenset()
                for a, b in zip(nodes, nodes[1:]):
                    edges ^= shortest_string(lattice, kind, a, b).edge_set
                path = StringPath(kind, tuple(sorted(edges)),
                                  (nodes[0], nodes[-1]), nodes[0] == nodes[-1])
                steps.append(StringStep(path))
            elif head in ("ZEDGES", "XEDGES"):
                edges = frozenset(int(e) for e in toks[1:])
                if any(e >= lattice.n_edges for e in edges):
                    raise UsageError("edge index out of range")
                steps.append(StringStep(StringPath(
                    head[0].lower(), tuple(sorted(edges)), (None, None), True)))
            elif head == "DELAY":
                steps.append(DelayStep(float(toks[1])))
            elif head == "ECHO":
                steps.append(EchoStep(toks[1].lower()))
            else:
                raise UsageError(f"unknown step {head!r}")
        except (IndexError, ValueError) as exc:
            raise UsageError(f"program line {lineno}: {exc}") from exc
    return BraidProgram(lattice, tuple(steps), ledger or tb.EnergyLedger())


def format_program(program: BraidProgram) -> str:
    """Render a program in the text format (edges written explicitly)."""
    lines = []
    for step in program.steps:
        if isinstance(step, StringStep):
            kw = "ZEDGES" if step.path.kind == "z" else "XEDGES"
            lines.append(f"{kw} " + " ".join(str(e) for e in sorted(step.path.edge_set)))
        elif isinstance(step, DelayStep):
            lines.append(f"DELAY {step.t!r}")
        else:
            lines.append(f"ECHO {step.kind}")
    return "\n".join(lines) + "\n"


# -- canonical braid layouts -------------------------------------------------

def braiding_programs(lattice: Lattice, delays: tuple[float, float, float] = (0, 0, 0),
                      ledger: tb.EnergyLedger | None = None
                      ) -> tuple[BraidProgram, BraidProgram]:
    """The tangled / untangled reference experiments.

    Both move a z-pair around a small z-loop and an x-particle around a
    vertex star, with the same step counts; in the tangled variant the
    x-loop encircles a vertex hosting a z-particle while it exists, so the
    braiding contributes -1.  Delays are inserted between the four strings.
    """
    ledger = ledger or tb.EnergyLedger()
    t1, t2, t3 = delays

    def interleave(l1, l2, l3, l4):
        steps = [StringStep(l1), DelayStep(t1), StringStep(l2), DelayStep(t2),
                 StringStep(l3), DelayStep(t3), StringStep(l4)]
        return BraidProgram(lattice, tuple(
            s for s in steps if not (isinstance(s, DelayStep) and s.t == 0)), ledger)

    n = lattice.size
    if lattice.is_torus:
        if n < 3:
            raise UsageError("braiding layout needs torus size >= 3")
        h = lambda r, c: (r % n) * n + (c % n)
        v = lambda r, c: n * n + (r % n) * n + (c % n)
        vid = lambda r, c: (r % n) * n + (c % n)
        fid = vid
        # z-loop around face (1,1); x-loop = star of its corner vertex (1,2)
        l1 = StringPath("z", (h(2, 1), v(1, 2)), (vid(2, 1), vid(1, 2)), False)
        l3 = StringPath("z", (h(1, 1), v(1, 1)), (vid(1, 2), vid(2, 1)), False)
        l2 = StringPath("x", (h(1, 1), v(0, 2)), (fid(1, 1), fid(0, 2)), False)
        l4 = StringPath("x", (h(1, 2), v(1, 2)), (fid(0, 2), fid(1, 1)), False)
        # untangled control: same shape around the far vertex (n-1, n-1)
        u2 = StringPath("x", (h(n - 1, n - 1), v(n - 1, n - 1)),
                        (fid(n - 2, n - 1), fid(n - 1, n - 2)), False)
        u4 = StringPath("x", (h(n - 1, n - 2), v(n - 2, n - 1)),
                        (fid(n - 1, n - 2), fid(n - 2, n - 1)), False)
    else:
        d = n
        if d < 3:
            raise UsageError("braiding layout needs planar distance >= 3")
        h = lambda r, c: r * d + c
        v = lambda r, c: d * d + r * (d - 1) + (c - 1)
        vid = lambda r, c: r * (d - 1) + (c - 1)
        fid = lambda r, c: r * d + c
        # z-loop around face (0,1); x-loop = star of smooth vertex (0,2)
        l1 = StringPath("z", (h(1, 1), v(0, 2)), (vid(1, 1), vid(0, 2)), False)
        l3 = StringPath("z", (h(0, 1), v(0, 1)), (vid(0, 2), vid(1, 1)), False)
        l2 = StringPath("x", (h(0, 1),), (fid(0, 1), None), False)
        l4 = StringPath("x", (v(0, 2), h(0, 2)), (fid(0, 1), None), False)
        # untangled control around the far smooth vertex (d-1, d-1)
        u2 = StringPath("x", (h(d - 1, d - 2),), (fid(d - 2, d - 2), None), False)
        u4 = StringPath("x", (h(d - 1, d - 1), v(d - 2, d - 1)),
                        (fid(d - 2, d - 2), None), False)

    tangled = interleave(l1, l2, l3, l4)
    untangled = interleave(l1, u2, l3, u4)
    return tangled, untangled
