"""Batch command-line front-end.

Subcommands: braid, memory, diffuse, budget, zd, oracle.  Configuration is
flat key=value pairs, read from an optional file (--config) and overridden
by repeated --set key=value flags; unknown keys are rejected, and every key
is parsed by its SCHEMA entry before any output is written.  Every output
embeds the resolved configuration as '#'-prefixed header lines, and
identical (config, seed) runs produce bit-identical output.

Exit codes: 0 success, 1 acceptance/oracle failure, 2 input error,
3 internal contract violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from functools import partial

import numpy as np

from . import analytics, diffusion as df, oracle, protocols as pr, statevector as sv
from . import tableau as tb
from .errors import ConfigurationError, ContractError, UsageError
from .lattice import LatticeSpec, build_lattice, logical_operators
from .pauli import from_string_path
from .weyl import WeylString, weyl_braiding_phase, weyl_gate_count

SEED_ENV = "ANYONSIM_SEED"
ZD_MAX_D = 64  # zd prints a d x d table of braiding phases


def _parse_lattice(key: str, text: str):
    try:
        topo, size = text.split(":")
        size = int(size)
    except ValueError:
        raise UsageError(f"bad lattice spec {text!r} (want e.g. {key}=torus:4)") from None
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


def _parse_taus(key: str, text: str) -> list[float]:
    taus = [_number(key, x, float, 0) for x in text.split(",") if x.strip()]
    if not taus or max(taus) <= 0:
        raise ConfigurationError(f"{key} needs at least one delay > 0, got {text!r}")
    return taus


def _parse_schedule(key: str, text: str) -> list[tuple[str, int]]:
    """``kind:n`` items; a bare kind means n = 1, or n = 0 for ``none``."""
    items = [x.strip().partition(":") for x in text.split(",") if x.strip()]
    return [(kind.strip(), _number(key, n, int, 0) if sep else int(kind != "none"))
            for kind, sep, n in items]


def _optional_number(key: str, text: str):
    """A finite float, or None (the automatic value) for empty text."""
    return _number(key, text) if text else None


def _positive(key: str, text: str) -> float:
    """A finite float > 0."""
    value = _number(key, text)
    if value <= 0:
        raise ConfigurationError(f"{key} must be > 0, got {text!r}")
    return value


def _zd_dimension(key: str, text: str) -> int:
    """An int d with 2 <= d <= ZD_MAX_D."""
    d = _number(key, text, int, 2)
    if d > ZD_MAX_D:
        raise ConfigurationError(f"{key} must be <= {ZD_MAX_D}, got {text!r}")
    return d


def _text(key: str, text: str) -> str:
    return text


_int = partial(_number, kind=int)
_count = partial(_number, kind=int, minimum=1)
_SEED = ("0", partial(_number, kind=int, minimum=0))
_OUT = ("", _text)
_LATTICE = ("torus:4", _parse_lattice)

# SCHEMA[cmd][key] = (default text, parser); parser(key, text) returns the
# typed value or raises a ConfigurationError/UsageError naming the key.
SCHEMA = {
    "braid": {"lattice": _LATTICE, "program": ("", _text), "u": ("1.0", _number),
              "j": ("1.0", _number), "phi_points": ("64", _count), "out": _OUT,
              "seed": _SEED},
    "memory": {"lattice": ("planar:2", _parse_lattice), "trials": ("20", _count),
               "seed": _SEED},
    "diffuse": {"lattice": _LATTICE, "xi_h": ("1.0", _number), "tau_c": ("10.0", _number),
                "dt": ("", _optional_number), "trials": ("50", _count),
                "schedule": ("none,z_pairs:1,z_pairs:4,z_pairs:10", _parse_schedule),
                "particles": ("2", _count), "sector": ("x", _text),
                "estimator": ("amplitude", _text),
                "tau": ("1,2,3,4,6,8,10,12", _parse_taus), "out": _OUT, "seed": _SEED},
    "budget": {"g": ("1.0", _number), "kappa": ("1e-3", _number),
               "gamma": ("1e-3", _number), "n": ("16", _count),
               "alpha_sq": (str(math.pi / 2), _number), "theta": (str(math.pi / 2), _number),
               "delta": ("0.01", _number), "k": ("1", _int), "delta_h": ("0.1", _number),
               "j": ("1.0", _positive), "q": ("1e-3", _number), "epsilon": ("0.0", _number),
               "t": ("1.0", _number), "out": _OUT, "seed": _SEED},
    "zd": {"d": ("3", _zd_dimension), "seed": _SEED},
    "oracle": {"circuits": ("200", _count), "seed": _SEED},
}


def _resolve_config(cmd: str, args) -> tuple[list[str], dict]:
    """The '#' header lines of the resolved config texts (defaults, then
    ANYONSIM_SEED, --config, --set, --seed, --out) and every parsed value."""
    schema = SCHEMA[cmd]
    config = {key: default for key, (default, _) in schema.items()}
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
    header = [f"# {k}={config[k]}" for k in sorted(config)]
    return header, {key: parse(key, config[key]) for key, (_, parse) in schema.items()}


def _write(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_braid(header: list[str], cfg: dict) -> int:
    if not cfg["program"]:
        raise UsageError("braid needs program=<path> (step-per-line format)")
    ledger = tb.EnergyLedger(cfg["u"], cfg["j"])
    program = pr.parse_program(cfg["lattice"], _read_text(cfg["program"]), ledger)
    ground = tb.prepare_ground_state(cfg["lattice"], 0)
    coherence = pr.run_interferometry(program, ground)
    a = coherence.alpha
    phis = np.linspace(0.0, 2.0 * math.pi, cfg["phi_points"], endpoint=False)
    curve = pr.fringe(coherence, phis)
    lines = [*header, f"# alpha={_fmt(a.real)}{'+' if a.imag >= 0 else '-'}"
             f"{_fmt(abs(a.imag))}i theta_tot={_fmt(coherence.theta_tot)} "
             f"contrast={_fmt(abs(a))}", "phi,sigma_phi"]
    for p, v in zip(curve.phis, curve.values):
        lines.append(f"{_fmt(p)},{_fmt(v)}")
    _write(cfg["out"], lines)
    print(f"alpha = {_fmt(a.real)} {'+' if a.imag >= 0 else '-'} "
          f"{_fmt(abs(a.imag))}i, theta_tot = {_fmt(coherence.theta_tot)}",
          file=sys.stderr)
    return 0


def cmd_memory(header: list[str], cfg: dict) -> int:
    lattice, trials = cfg["lattice"], cfg["trials"]
    try:  # the dense teleportation check below; fail before the first line
        memory = sv.from_tableau(tb.prepare_ground_state(lattice, 0))
    except ConfigurationError as exc:
        raise ConfigurationError(f"lattice: {exc}") from None
    rng = np.random.default_rng(cfg["seed"])
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
    sv.apply_pauli_exponential(memory, lx, 0.3)
    for k in range(trials):
        theta = float(rng.uniform(-math.pi, math.pi))
        axis, string = (("X", lx) if k % 2 == 0 else ("Z", lz))
        out, _ = pr.teleport_rotation(lattice, memory, axis, theta, rng=rng)
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


def cmd_diffuse(header: list[str], cfg: dict) -> int:
    dt = cfg["dt"] if cfg["dt"] is not None else min(cfg["tau_c"] / 20.0, 0.05)
    model = df.NoiseModel(cfg["xi_h"], cfg["tau_c"], dt, max(cfg["tau"]))
    estimates = df.contrast_curve(
        cfg["lattice"], model, cfg["schedule"], cfg["tau"], cfg["trials"],
        cfg["particles"], cfg["seed"], sector=cfg["sector"], estimator=cfg["estimator"])
    lines = [*header, "tau,mean_contrast,stderr,n_trials,schedule"]
    for est in estimates:
        for tau, mean, err in zip(est.tau, est.mean, est.stderr):
            lines.append(f"{_fmt(tau)},{_fmt(mean)},{_fmt(err)},"
                         f"{est.n_trials},{est.schedule}")
    _write(cfg["out"], lines)
    return 0


def cmd_budget(header: list[str], cfg: dict) -> int:
    n = cfg["n"]
    params = analytics.CavityParams(cfg["g"], cfg["kappa"], cfg["gamma"])
    budget = analytics.MemoryBudget(
        delta_h=cfg["delta_h"], coupling_j=cfg["j"], n_length=n, q=cfg["q"],
        purcell=params.purcell, epsilon=cfg["epsilon"])
    rows = [
        ("purcell_factor", params.purcell),
        ("optimal_detuning", analytics.optimal_detuning(params, n)),
        ("min_photon_loss", analytics.min_photon_loss(n, params.purcell)),
        ("geometric_gate_loss",
         analytics.geometric_gate_loss(n, params.purcell, cfg["alpha_sq"])),
        ("qnd_error", analytics.qnd_error(n, cfg["theta"], cfg["delta"], cfg["k"])),
        ("qnd_pulse_count", analytics.qnd_pulse_count(cfg["k"])),
        ("memory_error_at_t", analytics.memory_error(budget, cfg["t"])),
        ("bare_error_at_t", budget.q * cfg["t"]),
        ("crossover_time", analytics.crossover_time(budget)),
    ]
    lines = [*header, "quantity,value"]
    for name, value in rows:
        lines.append(f"{name},{_fmt(value)}")
    _write(cfg["out"], lines)
    if not cfg["out"]:
        return 0
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    return 0


def cmd_zd(header: list[str], cfg: dict) -> int:
    d = cfg["d"]
    lines = [*header, f"global gates per charge string: {weyl_gate_count(d)}",
             "omega-exponent table k(a,b) with braiding phase omega^k, "
             f"omega = exp(2 pi i / {d})",
             "a\\b " + " ".join(f"{b:2d}" for b in range(d))]
    for a in range(d):
        row = [f"{weyl_braiding_phase(WeylString.z_power(d, [0, 1], a), WeylString.x_power(d, [1, 2], b)):2d}"
               for b in range(d)]
        lines.append(f"{a:3d} " + " ".join(row))
    _write("", lines)
    return 0


def cmd_oracle(header: list[str], cfg: dict) -> int:
    checks = oracle.run_all(seed=cfg["seed"], n_circuits=cfg["circuits"])
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
    shown = set()

    def show_warning(message, category, filename, lineno, file=None, line=None):
        """Each distinct library warning reaches the user once per run, as
        one line without the source location of the call that raised it."""
        text = f"warning: {message}"
        if text not in shown:
            shown.add(text)
            print(text, file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            header, config = _resolve_config(args.command, args)
            return COMMANDS[args.command](header, config)
        except (UsageError, ConfigurationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ContractError as exc:
            print(f"contract violation: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
