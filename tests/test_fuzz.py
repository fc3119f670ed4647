"""Seeded fuzz table over the public entry points and every CLI key.

Library half: each entry is a valid call; a seeded generator draws
corruptions of one parameter at a time (NaN, +-inf, negative, zero, out of
range, huge, tiny (+-1e-300), a numeric string, and empty or ragged arrays
for array parameters), and every extra value the entry lists for that
parameter is tried too, while every other argument stays valid.  The call
returns a result without NaN, or raises UsageError / ConfigurationError
naming the parameter; no other exception escapes and no RuntimeWarning is
emitted.
Huge integer counts are not in the shared pools, as they ask for that much
work; an entry lists one only where the call refuses it before any work,
above a memory cap (a Tableau's n, contrast_curve's n_trials,
master_equation_survival's n).

CLI half: every SCHEMA key is set to drawn malformed values, plus the
key's CLI_EXTRAS (huge counts refused by a memory cap), and run
in-process through ``cli.main``; each run returns 0 or 2, lets no exception
(nor a RuntimeWarning) escape, and names the key on stderr when it
returns 2.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from anyonsim import analytics as an
from anyonsim import cli
from anyonsim import diffusion as df
from anyonsim import lattice as lat
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim import weyl
from anyonsim.errors import ConfigurationError, UsageError
from anyonsim.pauli import PauliString

SEED = 2026
DRAWS = 8  # corruptions drawn per parameter

SCALARS = [math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0, 2.5, 1e300, 1e-300, -1e-300,
           "1", "0.5"]
ARRAYS = [[], [[1.0], [1.0, 2.0]], [math.nan], [math.inf], [-1.0], [1e300], ["1"]]


def _cavity_reads(**fields):
    """The Purcell factor and the photon loss at unit detuning of one
    CavityParams."""
    params = an.CavityParams(**fields)
    return params.purcell, an.photon_loss_at(params, 4, 1.0)


def _noise_and_law(**fields):
    """A sampled realization and the free law of one NoiseModel."""
    model = df.NoiseModel(**fields)
    return df.sample_noise(model, lat.torus(2), 0).values, df.analytic_contrast(1.0, model)


def _geometric_gate(**fields):
    """The phase table report of one GeometricGateSpec."""
    return pr.verify_geometric_gate(pr.GeometricGateSpec(**fields))


def _entries():
    """name -> (call, factory of valid keyword arguments, {parameter: (kind,
    name in the message, extra out-of-range values)}); kind is "scalar" or
    "array"."""
    t4, p2 = lat.torus(4), lat.planar(2)
    model = df.NoiseModel(xi_h=1.0, tau_c=1.0, dt=0.05, duration=1.0)
    cavity = an.CavityParams(1.0, 1.0, 1.0)
    budget = an.MemoryBudget(0.1, 1.0, 4, 1e-3, 1e6)
    quenched = an.QuenchedModel(4, 1, 1, 0.1)
    static = df.NoiseRealization(np.zeros((t4.n_edges, 1)), 0.05)
    memory = sv.from_tableau(tb.prepare_ground_state(p2, 0))

    def s(name=None, *extra):
        return ("scalar", name, extra)

    def a(name=None, *extra):
        return ("array", name, extra)

    return {
        "CavityParams": (_cavity_reads,
                         lambda: dict(g=1.0, kappa=1e-3, gamma=1e-3),
                         {"g": s(), "kappa": s(), "gamma": s()}),
        "optimal_detuning": (an.optimal_detuning, lambda: dict(params=cavity, n_spins=4),
                             {"n_spins": s()}),
        "photon_loss_at": (an.photon_loss_at,
                           lambda: dict(params=cavity, n_spins=4, detuning=1.0),
                           {"n_spins": s(), "detuning": s()}),
        "min_photon_loss": (an.min_photon_loss,
                            lambda: dict(n_spins=4, purcell=1e6, prefactor=1.0),
                            {"n_spins": s(), "purcell": s(), "prefactor": s()}),
        "geometric_gate_loss": (an.geometric_gate_loss,
                                lambda: dict(n_spins=4, purcell=1e6, alpha_sq=0.5),
                                {"n_spins": s(), "purcell": s(), "alpha_sq": s()}),
        "qnd_error": (an.qnd_error, lambda: dict(n_spins=4, theta=1.0, delta=0.1, k=1),
                      {"n_spins": s(), "theta": s(), "delta": s(None, 1.0, -1.5),
                       "k": s()}),
        "qnd_pulse_count": (an.qnd_pulse_count, lambda: dict(k=2), {"k": s()}),
        "MemoryBudget": (an.MemoryBudget,
                         lambda: dict(delta_h=0.1, coupling_j=1.0, n_length=4, q=1e-3,
                                      purcell=1e6, lam=1.0, epsilon=0.0),
                         {"delta_h": s(), "coupling_j": s(), "n_length": s(), "q": s(),
                          "purcell": s(), "lam": s(), "epsilon": s()}),
        "memory_error": (an.memory_error, lambda: dict(budget=budget, t=1.0), {"t": s()}),
        "crossover_time": (an.crossover_time, lambda: dict(budget=budget, tol=1e-12),
                           {"tol": s()}),
        "QuenchedModel": (an.QuenchedModel, lambda: dict(n=4, m=1, m_prime=1, p=0.1),
                          {"n": s(), "m": s(None, 17), "m_prime": s(None, 17),
                           "p": s(None, 1.5)}),
        "quenched_phase_prob": (an.quenched_phase_prob, lambda: dict(n=4, m=2),
                                {"n": s(), "m": s(None, 17)}),
        "quenched_enumeration_oracle": (an.quenched_enumeration_oracle,
                                        lambda: dict(n=2, region=[1]),
                                        {"n": s(), "region": a()}),
        "contrast_vs_loop": (an.contrast_vs_loop,
                             lambda: dict(perimeter=4, eps_s=0.1, model=quenched),
                             {"perimeter": s(), "eps_s": s(None, 1.0)}),
        "NoiseModel": (_noise_and_law, lambda: dict(xi_h=1.0, tau_c=1.0, dt=0.05, duration=1.0),
                       {"xi_h": s(), "tau_c": s(), "dt": s(), "duration": s()}),
        "sample_noise": (df.sample_noise, lambda: dict(model=model, lattice=t4, seed=0),
                         {"seed": s()}),
        "Pulse": (df.Pulse, lambda: dict(time=0.5, kind="z"), {"time": s()}),
        "build_echo_schedule": (df.build_echo_schedule,
                                lambda: dict(kind="z_pairs", duration=1.0, n=1),
                                {"duration": s(), "n": s()}),
        "evolve_anyon": (df.evolve_anyon,
                         lambda: dict(lattice=t4, field=static,
                                      schedule=df.build_echo_schedule("z_pairs", 1.0, 1),
                                      start_cell=0, sector="x", dt=0.05),
                         {"start_cell": s(None, 16), "dt": s()}),
        "spread_cells": (df.spread_cells, lambda: dict(lattice=t4, sector="x", n_particles=1),
                         {"n_particles": s(None, 17)}),
        "contrast_curve": (df.contrast_curve,
                           lambda: dict(lattice=t4, model=model,
                                        schedule_family=[("none", 0), ("z_pairs", 1)],
                                        tau_grid=[1.0], n_trials=1, n_particles=1, seed=0,
                                        dt=0.05),
                           {"tau_grid": a(), "n_trials": s(None, 2**62),
                            "n_particles": s(None, 17),
                            "seed": s(), "dt": s(), "schedule_family": a()}),
        "analytic_contrast": (df.analytic_contrast,
                              lambda: dict(tau=1.0, model=model, kind="echo", n=1),
                              {"tau": s(), "n": s()}),
        "analytic_survival_probability": (df.analytic_survival_probability,
                                          lambda: dict(tau=1.0, model=model), {"tau": s()}),
        "master_equation_survival": (df.master_equation_survival,
                                     lambda: dict(n=4, gamma=1.0, tau=[1.0]),
                                     {"n": s(None, 2**62), "gamma": s(), "tau": a()}),
        "LatticeSpec": (lat.LatticeSpec, lambda: dict(topology="torus", size=3),
                        {"size": s("lattice size")}),
        "planar": (lat.planar, lambda: dict(d=3), {"d": s("lattice size|lattice planar")}),
        "shortest_string": (lat.shortest_string, lambda: dict(lattice=t4, kind="z", a=0, b=5),
                            {"a": s(None, 16), "b": s(None, 16)}),
        "string_to_boundary": (lat.string_to_boundary,
                               lambda: dict(lattice=lat.planar(3), kind="z", a=2),
                               {"a": s(None, 6)}),
        "degeneracy": (lat.degeneracy, lambda: dict(genus=1, holes=0),
                       {"genus": s(), "holes": s()}),
        "WeylString": (weyl.WeylString, lambda: dict(d=3), {"d": s(), "phase": s()}),
        "weyl_gate_count": (weyl.weyl_gate_count, lambda: dict(d=3), {"d": s()}),
        "Tableau": (tb.Tableau, lambda: dict(n=3), {"n": s(None, 46337, 10**9, 2**62)}),
        "tableau.apply_gate": (tb.apply_gate, lambda: dict(t=tb.Tableau(3), gate="CX",
                                                           targets=(0, 1)),
                               {"targets": s("qubit index|targets", (0, 3), (0, 0.5))}),
        "EnergyLedger": (tb.EnergyLedger, lambda: dict(coupling_u=1.0, coupling_j=1.0),
                         {"coupling_u": s(), "coupling_j": s()}),
        "prepare_ground_state": (tb.prepare_ground_state,
                                 lambda: dict(lattice=lat.torus(2), logical_sector=1,
                                              n_ancillas=1),
                                 {"logical_sector": s(None, 4, (0, 2)), "n_ancillas": s()}),
        "computational": (sv.StateVector.computational, lambda: dict(n=2, index=0),
                          {"n": s(), "index": s(None, 4)}),
        "from_amplitudes": (sv.StateVector.from_amplitudes, lambda: dict(amps=[1, 0]),
                            {"amps": a()}),
        "statevector.apply_gate": (sv.apply_gate,
                                   lambda: dict(s=sv.StateVector.computational(3), gate="H",
                                                targets=1),
                                   {"targets": s("qubit index|targets", 3, (0, 1))}),
        "apply_pauli_exponential": (sv.apply_pauli_exponential,
                                    lambda: dict(s=memory.clone(),
                                                 p=PauliString.from_ops({0: "X"}), theta=0.3),
                                    {"theta": s()}),
        "evolve_hsurf": (sv.evolve_hsurf,
                         lambda: dict(s=memory.clone(), lattice=p2, coupling_u=1.0,
                                      coupling_j=1.0, t=0.3),
                         {"coupling_u": s(), "coupling_j": s(), "t": s()}),
        "DelayStep": (pr.DelayStep, lambda: dict(t=1.0), {"t": s()}),
        "fringe": (pr.fringe, lambda: dict(c=pr.Coherence(0.6 + 0.8j), phi_grid=[0.0, 1.0]),
                   {"phi_grid": a()}),
        "teleport_rotation": (pr.teleport_rotation,
                              lambda: dict(lattice=p2, memory=memory, axis="X", theta=0.3,
                                           force_outcome=1),
                              {"theta": s(), "force_outcome": s(),
                               "axis": s(None, None, "Y", weyl.WeylString(3, 0, {0: (1, 0)}),
                                         PauliString(1, {0: (0, 1)}))}),
        "prepare_probe": (pr.prepare_probe,
                          lambda: dict(t=tb.Tableau(1), qubit=0, state=("y", -1)),
                          {"state": s("probe_state", ("X",), "Y", None, (1, 1), ("Z", 1.5),
                                      ("W", 1), ("X", 0))}),
        "GeometricGateSpec": (_geometric_gate, lambda: dict(alpha_amp=0.5, beta_amp=0.7 + 0.1j),
                              {"alpha_amp": s(None, complex(math.nan, 1), 1e5j),
                               "beta_amp": s(None, complex(0, math.inf), None)}),
        "geometric_branch_phase": (pr.geometric_branch_phase,
                                   lambda: dict(spec=pr.GeometricGateSpec(0.5, 0.7),
                                                ancilla_bit=1, s=-1),
                                   {"ancilla_bit": s(None, 2, 1.0), "s": s(None, 2, 1.0)}),
        "compose_displacements": (pr.compose_displacements,
                                  lambda: dict(displacements=[1.0, 1j, -1.0, -1j]),
                                  {"displacements": a(None, ["a"], [1e300, 1e300j],
                                                      [complex(1, math.nan)])}),
        "braiding_programs": (pr.braiding_programs,
                              lambda: dict(lattice=lat.torus(3), delays=(0.1, 0.0, 0.3)),
                              {"delays": a(None, (0, 0), None, (math.nan, 0, 0), (0, -1, 0),
                                           (0, 0, "1"), (0, 0, 0, 0))}),
    }


def _nan_in(result) -> bool:
    """Whether a NaN appears among the numbers of a result."""
    if isinstance(result, (float, complex, np.ndarray, np.floating)):
        return bool(np.isnan(result).any())
    if isinstance(result, (list, tuple)):
        return any(_nan_in(r) for r in result)
    if dataclasses.is_dataclass(result):
        return any(_nan_in(getattr(result, f.name)) for f in dataclasses.fields(result))
    return False


ENTRIES = sorted(_entries())


@pytest.mark.parametrize("entry", ENTRIES)
def test_library_fuzz(entry):
    call, valid, params = _entries()[entry]
    call(**valid())
    rng = np.random.default_rng([SEED, ENTRIES.index(entry)])
    for param, (kind, label, extra) in params.items():
        pool = SCALARS if kind == "scalar" else ARRAYS
        drawn = rng.choice(len(pool), size=min(DRAWS, len(pool)), replace=False)
        for value in [pool[i] for i in drawn] + list(extra):
            kwargs = valid()
            kwargs[param] = value
            where = f"{entry}({param}={value!r})"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # validity-regime notes
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    result = call(**kwargs)
                except (UsageError, ConfigurationError) as exc:
                    assert re.search(rf"\b(?:{label or param})\b", str(exc)), \
                        f"{where}: {exc}"
                    continue
                except Exception as exc:  # the contract: nothing else escapes
                    pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
            assert not _nan_in(result), f"{where} returned NaN"


CLI_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400", "abc", "", "2.5", "1e30", "-0.5"]
CLI_DRAWS = 5  # values drawn per key
CLI_EXTRAS = {("braid", "phi_points"): [str(2**62)], ("diffuse", "trials"): [str(2**62)]}
# Work sizes that keep each valid run of a subcommand short.
CLI_BASE = {
    "braid": ["lattice=torus:3", "phi_points=4"],
    "memory": ["lattice=planar:2", "trials=1"],
    "diffuse": ["trials=1", "tau=1", "schedule=none,z_pairs:1", "particles=1"],
    "budget": [],
    "zd": [],
    "oracle": ["circuits=2"],
}


@pytest.mark.parametrize("cmd", sorted(cli.SCHEMA))
def test_cli_key_fuzz(cmd, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an ``out`` value becomes a file here
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    program = tmp_path / "short.prog"
    program.write_text("ZEDGES 0\nDELAY 0.5\nECHO z\n")
    base = CLI_BASE[cmd] + ([f"program={program}"] if cmd == "braid" else [])
    rng = np.random.default_rng([SEED, sorted(cli.SCHEMA).index(cmd)])
    for key in sorted(cli.SCHEMA[cmd]):
        drawn = rng.choice(len(CLI_VALUES), size=CLI_DRAWS, replace=False)
        for value in [CLI_VALUES[i] for i in drawn] + CLI_EXTRAS.get((cmd, key), []):
            args = [cmd, *(a for item in base for a in ("--set", item)),
                    "--set", f"{key}={value}"]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = cli.main(args)
                except Exception as exc:  # the contract: nothing escapes main
                    pytest.fail(f"{args}: {type(exc).__name__}: {exc}")
            err = capsys.readouterr().err
            assert code in (0, 2), (args, err)
            if code == 2:
                assert re.search(rf"\b{key}\b", err), (args, err)
