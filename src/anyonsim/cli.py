"""Batch command-line front-end.

Subcommands: braid, memory, diffuse, budget, zd, oracle.  Configuration is
flat key=value pairs, read from an optional file (--config) and overridden
by repeated --set key=value flags; unknown keys are rejected.  Every output
embeds the fully resolved configuration as '#'-prefixed header lines, and
identical (config, seed) runs produce bit-identical output.

Exit codes: 0 success, 1 acceptance/oracle failure, 2 input error,
3 internal contract violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analytics, diffusion as df, oracle, protocols as pr, statevector as sv
from . import tableau as tb
from .errors import ConfigurationError, ContractError, UsageError
from .lattice import LatticeSpec, build_lattice, logical_operators
from .pauli import from_string_path
from .weyl import WeylString, weyl_braiding_phase, weyl_gate_count

SEED_ENV = "ANYONSIM_SEED"

DEFAULTS = {
    "braid": {"lattice": "torus:4", "program": "", "u": "1.0", "j": "1.0",
              "phi_points": "64", "out": "", "seed": "0"},
    "memory": {"lattice": "planar:2", "trials": "20", "seed": "0"},
    "diffuse": {"lattice": "torus:4", "xi_h": "1.0", "tau_c": "10.0", "dt": "",
                "trials": "50", "schedule": "none,z_pairs:1,z_pairs:4,z_pairs:10",
                "particles": "2", "sector": "x", "estimator": "amplitude",
                "tau": "1,2,3,4,6,8,10,12", "out": "", "seed": "0"},
    "budget": {"g": "1.0", "kappa": "1e-3", "gamma": "1e-3", "n": "16",
               "alpha_sq": str(math.pi / 2), "theta": str(math.pi / 2),
               "delta": "0.01", "k": "1", "delta_h": "0.1", "j": "1.0",
               "q": "1e-3", "epsilon": "0.0", "t": "1.0", "out": "", "seed": "0"},
    "zd": {"d": "3", "seed": "0"},
    "oracle": {"circuits": "200", "seed": "0"},
}


def _parse_lattice(text: str):
    try:
        topo, size = text.split(":")
        size = int(size)
    except ValueError:
        raise UsageError(f"bad lattice spec {text!r} (want e.g. lattice=torus:4)") from None
    return build_lattice(LatticeSpec(topo.strip(), size))


def _read_text(path: str) -> str:
    """The contents of a UTF-8 input file; any other file is a UsageError
    naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _number(key: str, text: str, kind=float, minimum=None):
    """Parse one config value as a 64-bit int or a finite float, at least
    ``minimum`` if given; anything else is a ConfigurationError naming the
    key."""
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {what}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigurationError(f"{key} must be finite, got {text!r}")
    if kind is int and not -2**63 <= value < 2**63:
        # counts and seeds go to numpy as C integers
        raise ConfigurationError(f"{key} must fit in 64 bits, got {text!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{key} must be >= {minimum}, got {text!r}")
    return value


def _resolve_config(cmd: str, args) -> dict[str, str]:
    config = dict(DEFAULTS[cmd])
    if SEED_ENV in os.environ:
        config["seed"] = os.environ[SEED_ENV]
    pairs = []
    if args.config:
        for lineno, raw in enumerate(_read_text(args.config).split("\n"), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{args.config}:{lineno}: expected key=value")
            pairs.append(tuple(part.strip() for part in line.split("=", 1)))
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        pairs.append(tuple(part.strip() for part in item.split("=", 1)))
    if args.seed is not None:
        pairs.append(("seed", str(args.seed)))
    if getattr(args, "out", None):
        pairs.append(("out", args.out))
    for key, value in pairs:
        if key not in config:
            raise UsageError(f"unknown key {key!r} for {cmd} "
                             f"(known: {', '.join(sorted(config))})")
        config[key] = value
    return config


def _echo_lines(config: dict[str, str]) -> list[str]:
    return [f"# {k}={config[k]}" for k in sorted(config)]


def _write(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_braid(config: dict[str, str]) -> int:
    lattice = _parse_lattice(config["lattice"])
    if not config["program"]:
        raise UsageError("braid needs program=<path> (step-per-line format)")
    text = _read_text(config["program"])
    ledger = tb.EnergyLedger(_number("u", config["u"]), _number("j", config["j"]))
    phi_points = _number("phi_points", config["phi_points"], int, 1)
    program = pr.parse_program(lattice, text, ledger)
    ground = tb.prepare_ground_state(lattice, 0)
    coherence = pr.run_interferometry(program, ground)
    a = coherence.alpha
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    curve = pr.fringe(coherence, phis)
    lines = _echo_lines(config)
    lines.append(f"# alpha={_fmt(a.real)}{'+' if a.imag >= 0 else '-'}"
                 f"{_fmt(abs(a.imag))}i theta_tot={_fmt(coherence.theta_tot)} "
                 f"contrast={_fmt(abs(a))}")
    lines.append("phi,sigma_phi")
    for p, v in zip(curve.phis, curve.values):
        lines.append(f"{_fmt(p)},{_fmt(v)}")
    _write(config["out"], lines)
    print(f"alpha = {_fmt(a.real)} {'+' if a.imag >= 0 else '-'} "
          f"{_fmt(abs(a.imag))}i, theta_tot = {_fmt(coherence.theta_tot)}",
          file=sys.stderr)
    return 0


def cmd_memory(config: dict[str, str]) -> int:
    lattice = _parse_lattice(config["lattice"])
    trials = _number("trials", config["trials"], int, 1)
    rng = np.random.default_rng(_number("seed", config["seed"], int, 0))
    states = list(pr.PROBE_STATES)
    failures = 0
    for k in range(trials):
        want = states[int(rng.integers(len(states)))]
        t = tb.prepare_ground_state(lattice, 0, n_ancillas=1)
        pr.swap_in(lattice, t, probe_state=want)
        pr.swap_out(lattice, t)
        got = pr.probe_bloch(t, lattice.n_edges)[want[0]]
        ok = got == want[1]
        failures += not ok
        print(f"roundtrip {k}: state {want[0]}{want[1]:+d} -> "
              f"{'PASS' if ok else 'FAIL'}")
    lz, lx = [from_string_path(p) for p in logical_operators(lattice)[0]]
    ground = sv.from_tableau(tb.prepare_ground_state(lattice, 0))
    memory = ground.clone()
    sv.apply_pauli_exponential(memory, lx, 0.3)
    for k in range(trials):
        theta = float(rng.uniform(-math.pi, math.pi))
        axis, string = (("X", lx) if k % 2 == 0 else ("Z", lz))
        out, _ = pr.teleport_rotation(lattice, memory.clone(), axis, theta, rng=rng)
        ref = memory.clone()
        sv.apply_pauli_exponential(ref, string, theta)
        fid = abs(sv.inner_product(out, ref))
        ok = fid >= 1.0 - 1e-10
        failures += not ok
        print(f"teleport {k}: axis {axis} theta {_fmt(theta)} fidelity "
              f"{fid:.12f} -> {'PASS' if ok else 'FAIL'}")
    print(f"{'PASS' if failures == 0 else 'FAIL'}: "
          f"{2 * trials - failures}/{2 * trials} checks")
    return 0 if failures == 0 else 1


def cmd_diffuse(config: dict[str, str]) -> int:
    lattice = _parse_lattice(config["lattice"])
    taus = [_number("tau", x, float, 0) for x in config["tau"].split(",") if x.strip()]
    if not taus:
        raise ConfigurationError("tau needs at least one delay")
    family = []
    for item in config["schedule"].split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            kind, n = item.split(":", 1)
            family.append((kind.strip(), _number("schedule", n, int, 0)))
        else:
            family.append((item, 0 if item == "none" else 1))
    tau_c = _number("tau_c", config["tau_c"])
    dt_sample = _number("dt", config["dt"]) if config["dt"] else min(tau_c / 20.0, 0.05)
    model = df.NoiseModel(_number("xi_h", config["xi_h"]), tau_c, dt_sample, max(taus))
    estimates = df.contrast_curve(
        lattice, model, family, taus, _number("trials", config["trials"], int, 1),
        _number("particles", config["particles"], int, 1),
        _number("seed", config["seed"], int, 0),
        sector=config["sector"], estimator=config["estimator"])
    lines = _echo_lines(config)
    lines.append("tau,mean_contrast,stderr,n_trials,schedule")
    for est in estimates:
        for tau, mean, err in zip(est.tau, est.mean, est.stderr):
            lines.append(f"{_fmt(tau)},{_fmt(mean)},{_fmt(err)},"
                         f"{est.n_trials},{est.schedule}")
    _write(config["out"], lines)
    return 0


def cmd_budget(config: dict[str, str]) -> int:
    x = {key: _number(key, config[key])
         for key in ("g", "kappa", "gamma", "alpha_sq", "theta", "delta",
                     "delta_h", "j", "q", "epsilon", "t")}
    n = _number("n", config["n"], int)
    k = _number("k", config["k"], int)
    params = analytics.CavityParams(x["g"], x["kappa"], x["gamma"])
    budget = analytics.MemoryBudget(
        delta_h=x["delta_h"], coupling_j=x["j"], n_length=n, q=x["q"],
        purcell=params.purcell, epsilon=x["epsilon"], k=k, delta=x["delta"])
    rows = [
        ("purcell_factor", params.purcell),
        ("optimal_detuning", analytics.optimal_detuning(params, n)),
        ("min_photon_loss", analytics.min_photon_loss(n, params.purcell)),
        ("geometric_gate_loss",
         analytics.geometric_gate_loss(n, params.purcell, x["alpha_sq"])),
        ("qnd_error", analytics.qnd_error(n, x["theta"], x["delta"], k)),
        ("qnd_pulse_count", analytics.qnd_pulse_count(k)),
        ("memory_error_at_t", analytics.memory_error(budget, x["t"])),
        ("bare_error_at_t", budget.q * x["t"]),
        ("crossover_time", analytics.crossover_time(budget)),
    ]
    lines = _echo_lines(config)
    lines.append("quantity,value")
    for name, value in rows:
        lines.append(f"{name},{_fmt(value)}")
    _write(config["out"], lines)
    if not config["out"]:
        return 0
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    return 0


def cmd_zd(config: dict[str, str]) -> int:
    d = _number("d", config["d"], int)
    print("\n".join(_echo_lines(config)))
    print(f"global gates per charge string: {weyl_gate_count(d)}")
    print("omega-exponent table k(a,b) with braiding phase omega^k, "
          "omega = exp(2 pi i / " + str(d) + ")")
    header = "a\\b " + " ".join(f"{b:2d}" for b in range(d))
    print(header)
    for a in range(d):
        row = [f"{weyl_braiding_phase(WeylString.z_power(d, [0, 1], a), WeylString.x_power(d, [1, 2], b)):2d}"
               for b in range(d)]
        print(f"{a:3d} " + " ".join(row))
    return 0


def cmd_oracle(config: dict[str, str]) -> int:
    checks = oracle.run_all(seed=_number("seed", config["seed"], int, 0),
                            n_circuits=_number("circuits", config["circuits"], int, 1))
    worst = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
        worst = max(worst, 0 if check.passed else 1)
    return worst


COMMANDS = {"braid": cmd_braid, "memory": cmd_memory, "diffuse": cmd_diffuse,
            "budget": cmd_budget, "zd": cmd_zd, "oracle": cmd_oracle}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonsim",
        description="surface-code interferometry and memory simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args.command, args)
        return COMMANDS[args.command](config)
    except (UsageError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
