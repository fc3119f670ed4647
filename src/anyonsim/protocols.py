"""Executable protocols: anyonic interferometry with delays, fringe readout,
SWAP-based memory access, gate teleportation, and the geometric-phase-gate
phase-space model.

The interferometer measures the probe coherence alpha: the overlap of the
branch that received the controlled strings with the one that did not,
delay phases included.  The tableau path tracks only their difference
op0^-1 op1 and the anyons the echoes flip, and reads the signs of the
stabilizers where they differ in one batch.  A dense two-branch
statevector path and an explicit-probe oracle cross-validate it.

A teleported rotation acts on the dense memory without a probe qubit: both
probe branches follow from one Pauli action on the memory, and the
explicit-probe circuits are the oracle (oracle.teleport_circuit_reference).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import statevector as sv
from . import tableau as tb
from .errors import ConfigurationError, ContractError, UsageError, require
from .lattice import ECHO_KINDS, Lattice, StringPath, echo_mask, index_maps, shortest_string
from .pauli import PauliString, commutation_phase, from_string_path, logical_strings, multiply


@dataclass(frozen=True)
class StringStep:
    path: StringPath


@dataclass(frozen=True)
class DelayStep:
    """Free evolution under H_surf for a waiting time ``t``, finite and >= 0."""

    t: float

    def __post_init__(self):
        require(self.t, "t", ge=0, error=ConfigurationError)


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


@dataclass(frozen=True)
class Coherence:
    """Probe coherence alpha; arg(alpha) is the total interferometric phase."""

    alpha: complex

    def __post_init__(self):
        if not abs(self.alpha) <= 1 + 1e-12:  # also catches NaN
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


def _echo(lattice: Lattice, kind: str) -> tuple[PauliString, frozenset]:
    """The string of an echo kind and the anyons it creates
    (tableau.created_syndrome), built once per lattice."""
    def build():
        mask = echo_mask(lattice, kind)
        p = PauliString.z_on(mask) if kind.startswith("z") else PauliString.x_on(mask)
        return p, tb.created_syndrome(lattice, p)

    return lattice.memo(("echo", kind), build)


def _stabilizers(lattice: Lattice) -> tuple[PauliString, ...]:
    """The vertex then face stabilizer strings, in syndrome order, built once
    per lattice."""
    return lattice.memo("stabilizers", lambda: tuple(
        [PauliString.x_on(star) for star in lattice.stars]
        + [PauliString.z_on(bnd) for bnd in lattice.boundaries]))


def run_interferometry(program: BraidProgram, initial: tb.Tableau) -> Coherence:
    """Exact probe coherence: (delay phases) x <op0^-1 op1>.

    Branch 1 receives the strings, both branches the echoes and H_surf.  The
    walk keeps branch = op0^-1 op1 (a string p enters as op0^-1 p op0 = +-p),
    the echo kinds met an odd number of times, whose strings multiply to
    op0 up to a phase, and S(op0), S(p) being the anyons of p
    (tableau.created_syndrome): p's sign is its commutation with each of
    those strings, and S(op0) the XOR of their anyons, each echo kind's
    string and anyons built once per lattice (_echo).
    A delay t adds exp(-i t sum_{s in D} 2 c_s lambda_s (-1)**[s in S(op0)]),
    D = S(branch): c_s = U on a vertex, J on a face, lambda_s the initial sign.
    One batch reads <branch>, each D and the end's S(branch), each definite.
    """
    lattice = program.lattice
    if lattice.n_edges > initial.n:
        raise UsageError(f"lattice of {lattice.n_edges} edges outside tableau "
                         f"of {initial.n} qubits")
    branch = PauliString.identity()
    odd, flipped, delays = set(), frozenset(), []  # echo kinds; S(op0); (t, D, S(op0))
    for step in program.steps:
        if isinstance(step, StringStep):
            p = from_string_path(step.path)
            sign = math.prod(commutation_phase(p, _echo(lattice, kind)[0]) for kind in odd)
            branch = multiply(p if sign > 0 else -p, branch)
        elif isinstance(step, EchoStep):
            odd ^= {step.kind}
            flipped ^= _echo(lattice, step.kind)[1]
        elif isinstance(step, DelayStep):
            delays.append((step.t, tb.created_syndrome(lattice, branch), flipped))
        else:  # pragma: no cover
            raise UsageError(f"unknown step {step!r}")
    read = sorted(set(tb.created_syndrome(lattice, branch) if delays else ()).union(
        *(d for _, d, _ in delays)))
    values = tb.expectations(initial, [branch, *(
        PauliString.x_on(lattice.star(i)) if kind == "vertex"
        else PauliString.z_on(lattice.boundary(i)) for kind, i in read)])
    sign = dict(zip(read, values[1:].real.tolist()))
    for kind, i in read:
        if sign[kind, i] == 0:
            raise ContractError(f"{kind} stabilizer {i} has no definite value")
    coupling = {"vertex": program.ledger.coupling_u, "face": program.ledger.coupling_j}
    alpha = 1.0 + 0.0j
    for t, d, f in delays:
        de = sum(2.0 * coupling[s[0]] * sign[s] * (-1) ** (s in f) for s in sorted(d))
        alpha *= cmath.exp(-1j * float(de) * t)
    return Coherence(alpha * complex(values[0]))


def _dense_memory(program: BraidProgram, initial: tb.Tableau) -> sv.StateVector:
    """The dense state of a bare memory tableau on the program's lattice."""
    if initial.n != program.lattice.n_edges:
        raise UsageError("dense interferometry needs a bare memory tableau")
    return sv.from_tableau(initial)


def run_interferometry_dense(program: BraidProgram, initial: tb.Tableau) -> Coherence:
    """Dense oracle for the interferometer (lattice must fit the dense cap):
    the |0> and |1> conditional histories evolve as separate statevectors."""
    lattice = program.lattice
    u, j = program.ledger.coupling_u, program.ledger.coupling_j
    b0 = _dense_memory(program, initial)
    b1 = b0.clone()
    for step in program.steps:
        if isinstance(step, StringStep):
            sv.apply_pauli_string(b1, from_string_path(step.path))
        elif isinstance(step, EchoStep):
            p = _echo(lattice, step.kind)[0]
            sv.apply_pauli_string(b0, p)
            sv.apply_pauli_string(b1, p)
        else:
            sv.evolve_hsurf(b0, lattice, u, j, step.t)
            sv.evolve_hsurf(b1, lattice, u, j, step.t)
    return Coherence(sv.inner_product(b0, b1))


def fringe(c: Coherence, phi_grid) -> FringeCurve:
    """<sigma_phi> = |alpha| cos(arg alpha - phi) on a grid of finite phases."""
    phis = np.array([require(phi, "phi_grid")
                     for phi in np.asarray(phi_grid, dtype=object).ravel()], dtype=float)
    if not phis.size:
        raise UsageError("phi_grid must hold at least one phase, got none")
    return FringeCurve(phis, np.real(c.alpha * np.exp(-1j * phis)))


# -- topological memory access ---------------------------------------------

PROBE_STATES = {
    ("Z", 1): (), ("Z", -1): ("X",),
    ("X", 1): ("H",), ("X", -1): ("X", "H"),
    ("Y", 1): ("H", "S"), ("Y", -1): ("X", "H", "S"),
}


def prepare_probe(t: tb.Tableau, qubit: int, state: tuple[str, int]) -> tb.Tableau:
    """Rotate a |0> probe into the single-qubit stabilizer state (P, sign)."""
    try:
        letter, sign = state
        gates = PROBE_STATES[letter.upper(), int(require(sign, "sign", integer=True))]
    except (AttributeError, KeyError, TypeError, ValueError):
        raise UsageError(f"probe_state must be (X, Y or Z, +1 or -1), got {state!r}") from None
    if tb.expectation_pauli(t, PauliString.from_ops({qubit: "Z"})) != 1:
        raise ContractError("probe preparation expects the probe in |0>")
    for g in gates:
        tb.apply_gate(t, g, qubit)
    return t


def probe_bloch(t: tb.Tableau, qubit: int) -> dict[str, int]:
    """Exact X/Y/Z expectations of one qubit (each 0 or +-1), read in one
    batch."""
    values = tb.expectations(t, [PauliString.from_ops({qubit: letter}) for letter in "XYZ"])
    return {letter: int(v.real) for letter, v in zip("XYZ", values)}


def swap_in(lattice: Lattice, t: tb.Tableau, probe_state: tuple[str, int] | None = None
            ) -> tb.Tableau:
    """Swap the probe qubit's state into memory initialized in logical |0>.

    The probe is the qubit at index lattice.n_edges.  The circuit is
    H_A Lambda[Z~] H_A Lambda[X~] (rightmost first); afterwards the probe is
    back in |0> and the memory logical carries the former probe state.

    The logical Z and every stabilizer are read in one batch; a logical Z
    not at +1 is refused first, then (as tableau.syndrome does) the first
    stabilizer without a definite value, then any stabilizer at -1.
    """
    probe = lattice.n_edges
    if t.n < probe + 1:
        raise UsageError("tableau has no probe qubit")
    lz, lx = logical_strings(lattice)[0]
    values = tb.expectations(t, (lz, *_stabilizers(lattice)))
    if values[0] != 1:
        raise ContractError("swap_in expects memory in logical |0>")
    if tb._anyons(lattice, values[1:]):
        raise ContractError("swap_in expects a ground-state memory")
    if probe_state is not None:
        prepare_probe(t, probe, probe_state)
    tb.apply_controlled_string(t, probe, lx)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lz)
    t.h(probe)
    return t


def swap_out(lattice: Lattice, t: tb.Tableau) -> tb.Tableau:
    """Swap the memory logical state back onto a |0> probe.

    Circuit Lambda[X~] H_A Lambda[Z~] H_A (rightmost first); composition
    with swap_in is the identity channel on the probe.
    """
    probe = lattice.n_edges
    if t.n < probe + 1:
        raise UsageError("tableau has no probe qubit")
    if tb.expectation_pauli(t, PauliString.from_ops({probe: "Z"})) != 1:
        raise ContractError("swap_out expects the probe in |0>")
    lz, lx = logical_strings(lattice)[0]
    t.h(probe)
    tb.apply_controlled_string(t, probe, lz)
    t.h(probe)
    tb.apply_controlled_string(t, probe, lx)
    return t


def _teleport_axis(lattice: Lattice, axis) -> tuple[PauliString, str]:
    """The rotation string of a teleport axis and its probe circuit: "plus"
    (probe in |+>) for "X" and for a Hermitian string, "zero" for "Z"."""
    if isinstance(axis, PauliString):
        if not axis.is_hermitian():
            raise UsageError("rotation axis string must be Hermitian")
        return axis, "plus"
    lz, lx = logical_strings(lattice)[0]
    key = axis.upper() if isinstance(axis, str) else None
    if key == "X":
        return lx, "plus"
    if key == "Z":
        return lz, "zero"
    raise UsageError(f"axis must be 'X', 'Z' or a Hermitian PauliString, got {axis!r}")


def teleport_rotation(lattice: Lattice, memory: sv.StateVector, axis, theta: float,
                      rng=None, force_outcome: int | None = None
                      ) -> tuple[sv.StateVector, int]:
    """exp(i theta S~) on the memory via the gate-teleportation circuits.

    axis: "X" or "Z" for the logical generators, or any Hermitian
    PauliString on the memory qubits.  Returns the corrected memory state
    and the probe measurement outcome (+-1); the -1 branch receives the
    conditional correction S~.

    Both circuits (probe in |+> for X and strings, in |0> for Z) leave the
    probe branches, with c = cos theta, s = sin theta and phi = S~ psi,
    (c psi + i s phi)/sqrt(2) on outcome +1 and (i s psi + c phi)/sqrt(2) on
    -1, which the correction S~ maps onto the first.  So no probe qubit is
    built: one chunked pass over the memory writes c psi + i s phi,
    normalised, into the one new array (statevector._pauli_sum).  S~ is a
    Hermitian Pauli string, so S~ is unitary (|phi| = |psi|) and <psi|phi> is
    real; each outcome then has probability |psi|^2 / 2, whatever theta.  An
    unforced call compares one rng.random() with that probability; a forced
    or refused call (a zero memory included) draws nothing.  The
    explicit-probe circuits are oracle.teleport_circuit_reference.
    """
    require(theta, "theta")
    if force_outcome not in (None, 1, -1):
        raise UsageError(f"force_outcome must be None, 1 or -1, got {force_outcome!r}")
    if not isinstance(memory, sv.StateVector) or memory.n < lattice.n_edges:
        raise UsageError(f"memory must be a StateVector on at least the lattice's "
                         f"{lattice.n_edges} edge qubits, got {memory!r:.40}")
    string, _ = _teleport_axis(lattice, axis)
    prob = 0.5 * np.vdot(memory.amps, memory.amps).real
    if prob < 1e-24:
        raise ContractError("measurement branch has zero probability")
    scale = 1.0 / math.sqrt(2.0 * prob)
    amps = sv._pauli_sum(memory, string, 1j * math.sin(theta) * scale,
                         math.cos(theta) * scale)
    if force_outcome is None:
        if rng is None:
            rng = np.random.default_rng(0)
        outcome = -1 if rng.random() < prob else 1
    else:
        outcome = int(force_outcome)
    return sv.StateVector(memory.n, amps), outcome


# -- geometric phase gate ----------------------------------------------------

# |alpha_amp|, |beta_amp| bound: the loop's rounding residual stays near
# 1e-12, far inside geometric_branch_phase's 1e-9 closure check
MAX_DISPLACEMENT = 1e4


@dataclass(frozen=True)
class GeometricGateSpec:
    """Conditional-displacement gate data: D(-b|1><1|) D(-a e^{i pi S/2})
    D(b|1><1|) D(a e^{i pi S/2}), a = alpha_amp, b = beta_amp: |.| <= MAX_DISPLACEMENT."""

    alpha_amp: complex
    beta_amp: complex

    def __post_init__(self):
        for name in ("alpha_amp", "beta_amp"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Complex):  # require takes reals only
                raise ConfigurationError(f"{name} must be a complex number, got {value!r}")
            require(abs(value), f"|{name}|", le=MAX_DISPLACEMENT, error=ConfigurationError)


def compose_displacements(displacements) -> tuple[complex, complex]:
    """Scalar phase and endpoint of a sequence of finite complex displacements.

    D(a) D(b) = e^{i Im(a conj(b))} D(a + b), applied left to right in time
    order; the returned phase equals exp(2i x signed enclosed area) when the
    path closes.
    """
    z = 0.0 + 0.0j
    phi = 0.0
    for d in displacements:
        if not isinstance(d, numbers.Complex):
            raise UsageError(f"displacements must be complex numbers, got {d!r}")
        phi += (d * z.conjugate()).imag
        z += d
    if not (math.isfinite(phi) and cmath.isfinite(z)):
        raise UsageError("displacements must be finite and keep the path finite")
    return cmath.exp(1j * phi), z


def geometric_branch_phase(spec: GeometricGateSpec, ancilla_bit: int, s: int) -> complex:
    """Scalar phase of one (ancilla, string-eigenvalue) branch.

    The four conditional displacements close exactly; non-closure marks a
    numerical error in reused integrator state.
    """
    require(ancilla_bit, "ancilla_bit", integer=True, ge=0, le=1)
    if require(s, "s", integer=True) not in (1, -1):
        raise UsageError(f"string eigenvalue s must be +1 or -1, got {s!r}")
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


GEOMETRIC_GATE_TOL = 1e-12  # phase-table equality, absolute


def verify_geometric_gate(spec: GeometricGateSpec) -> GeometricGateReport:
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
    ok_zero = abs(table[(0, 1)] - table[(0, -1)]) <= GEOMETRIC_GATE_TOL
    ratio = table[(1, 1)] / table[(1, -1)]
    ok_one = abs(ratio + 1.0) <= GEOMETRIC_GATE_TOL
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
                steps.append(StringStep(StringPath(kind, tuple(sorted(edges)))))
            elif head in ("ZEDGES", "XEDGES"):
                edges = frozenset(int(e) for e in toks[1:])
                if not all(0 <= e < lattice.n_edges for e in edges):
                    raise UsageError("edge index out of range")
                steps.append(StringStep(StringPath(head[0].lower(), tuple(sorted(edges)))))
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
    braiding contributes -1.  The three delays (>= 0) go between the strings.
    """
    ledger = ledger or tb.EnergyLedger()
    try:
        t1, t2, t3 = (require(t, "delays", ge=0) for t in delays)
    except (TypeError, ValueError):
        raise UsageError(f"delays must be three waiting times >= 0, got {delays!r}") from None

    def interleave(l1, l2, l3, l4):
        steps = [StringStep(l1), DelayStep(t1), StringStep(l2), DelayStep(t2),
                 StringStep(l3), DelayStep(t3), StringStep(l4)]
        return BraidProgram(lattice, tuple(
            s for s in steps if not (isinstance(s, DelayStep) and s.t == 0)), ledger)

    n = lattice.size
    h, v, _, _ = index_maps(lattice.spec)
    if lattice.is_torus:
        if n < 3:
            raise UsageError("braiding layout needs torus size >= 3")
        # z-loop around face (1,1); x-loop = star of its corner vertex (1,2)
        l1 = StringPath("z", (h(2, 1), v(1, 2)))
        l3 = StringPath("z", (h(1, 1), v(1, 1)))
        l2 = StringPath("x", (h(1, 1), v(0, 2)))
        l4 = StringPath("x", (h(1, 2), v(1, 2)))
        # untangled control: same shape around the far vertex (n-1, n-1)
        u2 = StringPath("x", (h(n - 1, n - 1), v(n - 1, n - 1)))
        u4 = StringPath("x", (h(n - 1, n - 2), v(n - 2, n - 1)))
    else:
        d = n
        if d < 3:
            raise UsageError("braiding layout needs planar distance >= 3")
        # z-loop around face (0,1); x-loop = star of smooth vertex (0,2)
        l1 = StringPath("z", (h(1, 1), v(0, 2)))
        l3 = StringPath("z", (h(0, 1), v(0, 1)))
        l2 = StringPath("x", (h(0, 1),))
        l4 = StringPath("x", (v(0, 2), h(0, 2)))
        # untangled control around the far smooth vertex (d-1, d-1)
        u2 = StringPath("x", (h(d - 1, d - 2),))
        u4 = StringPath("x", (h(d - 1, d - 1), v(d - 2, d - 1)))

    tangled = interleave(l1, l2, l3, l4)
    untangled = interleave(l1, u2, l3, u4)
    return tangled, untangled
