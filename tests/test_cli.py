import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from anyonsim import cli
from anyonsim import lattice as lat
from anyonsim import protocols as pr
from anyonsim.errors import ContractError


# Far above the slowest case (a few seconds), so only a run that stopped
# terminating reaches it.
CLI_TIMEOUT_S = 120


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop(cli.SEED_ENV, None)
    if env_extra:
        env.update(env_extra)
    try:
        return subprocess.run([sys.executable, "-m", "anyonsim", *args],
                              capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"anyonsim {' '.join(args)} did not finish in {CLI_TIMEOUT_S} s")


@pytest.fixture(scope="module")
def tangled_program_file(tmp_path_factory):
    lattice = lat.torus(4)
    tangled, _ = pr.braiding_programs(lattice)
    path = tmp_path_factory.mktemp("programs") / "tangled.prog"
    path.write_text(pr.format_program(tangled))
    return str(path)


def test_braid_reference_alpha(tangled_program_file, tmp_path):
    out = tmp_path / "fringe.csv"
    result = run_cli(["braid", "--set", f"program={tangled_program_file}",
                      "--out", str(out)])
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    alpha_line = next(l for l in lines if l.startswith("# alpha="))
    assert "alpha=-1+0i" in alpha_line.replace(" ", "")
    header = lines.index("phi,sigma_phi")
    assert all(l.startswith("#") for l in lines[:header])
    # fringe maximum at phi = pi for alpha = -1
    rows = [tuple(map(float, l.split(","))) for l in lines[header + 1:]]
    best = max(rows, key=lambda r: r[1])
    assert abs(best[0] - 3.14159) < 0.2


def test_braid_empty_program(tmp_path):
    prog = tmp_path / "empty.prog"
    prog.write_text("# nothing\n")
    result = run_cli(["braid", "--set", f"program={prog}"])
    assert result.returncode == 0
    assert "alpha=1+0i" in result.stdout.replace(" ", "")


def test_braid_deterministic(tangled_program_file, tmp_path):
    lattice = lat.torus(4)
    prog, _ = pr.braiding_programs(lattice, delays=(0.3, 0.7, 0.1))
    path = tmp_path / "delays.prog"
    path.write_text(pr.format_program(prog))
    out = tmp_path / "run.csv"
    outs = []
    for _ in range(2):
        result = run_cli(["braid", "--set", f"program={path}", "--seed", "7",
                          "--out", str(out)])
        assert result.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_braid_errors(tmp_path):
    assert run_cli(["braid"]).returncode == 2  # missing program
    bad = tmp_path / "bad.prog"
    bad.write_text("WIGGLE 3\n")
    assert run_cli(["braid", "--set", f"program={bad}"]).returncode == 2
    bad.write_text("DELAY nan\n")  # alpha would be NaN
    result = run_cli(["braid", "--set", f"program={bad}"])
    assert result.returncode == 2 and "t must be finite" in result.stderr
    bad.write_text("ZEDGES -19\nDELAY 0.5\n")  # a negative edge id
    result = run_cli(["braid", "--set", "lattice=torus:3", "--set", f"program={bad}"])
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert "program line 1" in result.stderr


def test_memory_roundtrip_cli():
    result = run_cli(["memory", "--set", "trials=4", "--seed", "3"])
    assert result.returncode == 0
    assert "FAIL" not in result.stdout
    assert result.stdout.count("PASS") >= 8


def test_diffuse_zero_noise(tmp_path):
    out = tmp_path / "c.csv"
    result = run_cli(["diffuse", "--set", "xi_h=0", "--set", "trials=1",
                      "--set", "tau=1,2", "--set", "schedule=none,z_pairs:1",
                      "--out", str(out)])
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "tau,mean_contrast,stderr,n_trials,schedule"
    for row in data[1:]:
        fields = row.split(",")
        assert float(fields[1]) == 1.0
    assert {r.split(",")[4] for r in data[1:]} == {"none", "z_pairs(1)"}


def test_diffuse_deterministic(tmp_path):
    out = tmp_path / "run.csv"
    args = ["diffuse", "--set", "xi_h=0.6", "--set", "tau_c=0.5",
            "--set", "trials=3", "--set", "tau=0.5,1.0",
            "--set", "schedule=z_pairs:1", "--seed", "11",
            "--out", str(out)]
    a = run_cli(args)
    first = out.read_bytes()
    b = run_cli(args)
    assert a.returncode == 0 and b.returncode == 0
    assert first == out.read_bytes()


def test_diffuse_invalid_schedule():
    assert run_cli(["diffuse", "--set", "schedule=bogus:2"]).returncode == 2


@pytest.mark.parametrize("setting", ["tau_c=nan", "xi_h=inf", "xi_h=nan"])
def test_diffuse_non_finite_noise(setting):
    result = run_cli(["diffuse", "--set", setting])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert setting.split("=")[0] in result.stderr


@pytest.mark.parametrize("cmd, setting", [
    ("braid", "u=abc"), ("braid", "phi_points=-3"), ("braid", "phi_points=0"),
    ("memory", "trials=-1"), ("memory", "seed=x"), ("memory", "trials=1" + "0" * 400),
    ("diffuse", "particles=0"),
    ("diffuse", "xi_h=abc"), ("diffuse", "tau="), ("diffuse", "schedule=z_pairs:1.5"),
    ("budget", "epsilon=-5"), ("budget", "t=-1"),
    ("zd", "seed=abc"), ("budget", "seed=-1"), ("braid", "seed=nan"),
    ("memory", "lattice=torus:4"), ("memory", "lattice=planar:4"),
    ("budget", "g=0"), ("budget", "kappa=-1"), ("budget", "gamma=0"), ("budget", "j=0"),
    ("budget", "n=0"), ("budget", "delta_h=2"), ("zd", "d=100000"),
    ("diffuse", "xi_h=-1"), ("diffuse", "tau=0"), ("diffuse", "schedule=boundary_w"),
    ("diffuse", "schedule=z_pairs:0"),
    ("diffuse", "tau_c=1e30"), ("diffuse", "schedule="), ("budget", "delta_h=1e30"),
    ("diffuse", "xi_h=1e30"), ("diffuse", "tau=1e30"),
])
def test_bad_numbers_exit_2(cmd, setting, tangled_program_file):
    args = [cmd, "--set", setting]
    if cmd == "braid":
        args += ["--set", f"program={tangled_program_file}"]
    result = run_cli(args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    key = setting.split("=")[0]
    assert re.search(rf"\b{re.escape(key)}\b", result.stderr), result.stderr


@pytest.mark.parametrize("setting, limit", [
    ("lattice=torus:33", "lattice torus:33 exceeds the maximum torus size 32"),
    ("lattice=torus:1", "lattice size must be >= 2"),
    ("lattice=planar:8", "lattice planar:8 exceeds the maximum distance 7"),
    ("lattice=cube:3", "unknown lattice topology 'cube'"),
])
def test_lattice_limit_reported(setting, limit):
    result = run_cli(["memory", "--set", setting])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert limit in result.stderr


@pytest.mark.parametrize("cmd, how", [("memory", "--config"), ("braid", "program")])
def test_non_utf8_file_exit_2(cmd, how, tmp_path):
    bad = tmp_path / "latin.cfg"
    bad.write_bytes(b"\xff\xfeseed=1\n")
    args = [cmd, "--config", str(bad)] if how == "--config" else [
        cmd, "--set", f"program={bad}"]
    result = run_cli(args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr


# Malformed values for the fuzz test; NON_UTF8 stands for a file path.
FUZZ_VALUES = ["", "nan", "-inf", "abc", "-1", "0", "1" * 400, "torus:99", "NON_UTF8"]
# Work sizes that keep one valid run of each subcommand well under a second.
FUZZ_BASE = {
    "braid": ["lattice=torus:2", "phi_points=4"],
    "memory": ["lattice=planar:2", "trials=1"],
    "diffuse": ["trials=1", "tau=1", "schedule=none,z_pairs:1", "particles=1"],
    "budget": [],
    "zd": [],
    "oracle": ["circuits=2"],
}


@pytest.mark.parametrize("cmd", sorted(cli.COMMANDS))
def test_cli_fuzz(cmd, tmp_path, monkeypatch, capsys):
    """Mutated keys and values never end in an escaped exception: every
    run exits 0, 1 or 2, and a run that exits 2 writes nothing, neither to
    stdout nor to an ``out`` file."""
    monkeypatch.chdir(tmp_path)  # an ``out`` value becomes a file here
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    bad = tmp_path / "latin.cfg"
    program = tmp_path / "empty.prog"
    program.write_text("# nothing\n")
    base = FUZZ_BASE[cmd] + ([f"program={program}"] if cmd == "braid" else [])
    keys = sorted(cli.SCHEMA[cmd]) + ["bogus"]
    rng = np.random.default_rng(sorted(cli.COMMANDS).index(cmd))
    for trial in range(60):
        bad.write_bytes(b"\xff\xfeseed=1\n")  # an ``out`` value may overwrite it
        args = [cmd]
        for item in base:
            args += ["--set", item]
        for _ in range(int(rng.integers(1, 3))):
            value = FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
            value = str(bad) if value == "NON_UTF8" else value
            args += ["--set", f"{keys[int(rng.integers(len(keys)))]}={value}"]
        if trial % 10 == 0:
            args += ["--config", str(bad)]
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        code = cli.main(args)
        assert code in (0, 1, 2), args
        if code == 2:
            assert capsys.readouterr().out == "", args
            assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before, args
        capsys.readouterr()


def test_budget_table():
    result = run_cli(["budget", "--set", "n=16"])
    assert result.returncode == 0
    assert "min_photon_loss,0.0251327412287" in result.stdout
    assert "crossover_time" in result.stdout


@pytest.mark.parametrize("setting, code, warning, error", [
    ("delta_h=2", 2, "delta_h/J >= 1: outside the protection regime",
     "no crossover: protection factor (delta_h / coupling_j)**n_length = 65536 >= 1"),
    ("g=0.01", 0, "photon loss estimate >= 1: outside the validity regime", None),
])
def test_library_warnings_one_line(setting, code, warning, error):
    result = run_cli(["budget", "--set", setting])
    assert result.returncode == code
    assert ".py:" not in result.stderr and "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert lines.count(f"warning: {warning}") == 1, lines
    if error is None:
        assert all(line.startswith("warning: ") for line in lines), lines
    else:
        assert result.stdout == ""
        assert lines[-1] == f"error: {error}"
        assert len(lines) == 2, lines


def test_zd_tables():
    r2 = run_cli(["zd", "--set", "d=2"])
    assert r2.returncode == 0
    rows = [l for l in r2.stdout.splitlines()
            if l.strip() and l.strip()[0].isdigit()]
    assert rows[0].split() == ["0", "0", "0"]
    assert rows[1].split() == ["1", "0", "1"]  # the +-1 Pauli pattern as w^k
    r3 = run_cli(["zd", "--set", "d=3"])
    table = [l.split() for l in r3.stdout.splitlines()
             if l.strip() and l.strip()[0].isdigit()]
    assert table[1][3] == "2"  # a=1, b=2 -> w^2 (first column is the a label)
    assert "global gates per charge string: 2" in r3.stdout


def test_oracle_suite_cli():
    result = run_cli(["oracle", "--set", "circuits=40"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("PASS") == 6
    assert "FAIL" not in result.stdout


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=5\nseed=2\n")
    result = run_cli(["zd", "--config", str(cfg), "--set", "d=4"])
    assert result.returncode == 0
    assert "# d=4" in result.stdout  # flag wins over file
    assert "# seed=2" in result.stdout


def test_unknown_key_rejected():
    assert run_cli(["zd", "--set", "bogus=1"]).returncode == 2


def test_env_seed_echoed():
    result = run_cli(["zd", "--set", "d=2"], env_extra={cli.SEED_ENV: "777"})
    assert "# seed=777" in result.stdout


def test_contract_violation_exit_code(monkeypatch):
    def boom(header, config):
        raise ContractError("synthetic")
    monkeypatch.setitem(cli.COMMANDS, "zd", boom)
    assert cli.main(["zd"]) == 3


# Valid runs pinned byte for byte in tests/fixtures/cli_<name>.stdout (and
# cli_<name>.out for an ``--out`` run).  Noisy ``diffuse`` runs are left out:
# FFT round-off can move their 12th digit across machines.
GOLDEN = {
    "oracle": ["oracle", "--set", "circuits=20"],
    "memory": ["memory", "--set", "lattice=planar:2", "--set", "trials=3"],
    "budget": ["budget"],
    "budget_out": ["budget", "--out", "golden.out"],
    "zd": ["zd", "--set", "d=3"],
    "braid": ["braid", "--set", "program=delays.prog", "--seed", "7"],
    # echoes between the delays flip some stabilizers' energies, and u != j
    # makes each delay's energy sum depend on its order
    "braid_echo": ["braid", "--set", "lattice=planar:3", "--set", "program=braid_echo.prog",
                   "--set", "u=1.3", "--set", "j=0.7", "--set", "phi_points=16"],
    "diffuse": ["diffuse", "--set", "xi_h=0", "--set", "trials=1", "--set", "tau=1,2",
                "--set", "schedule=none,z_pairs:1"],
}
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep the header bytes fixed
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    if name == "braid":
        prog, _ = pr.braiding_programs(lat.torus(4), delays=(0.3, 0.7, 0.1))
        (tmp_path / "delays.prog").write_text(pr.format_program(prog))
    if name == "braid_echo":
        (tmp_path / "braid_echo.prog").write_bytes((FIXTURES / "braid_echo.prog").read_bytes())
    assert cli.main(GOLDEN[name]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / f"cli_{name}.stdout").read_bytes()
    if "--out" in GOLDEN[name]:
        assert (tmp_path / "golden.out").read_bytes() == \
            (FIXTURES / f"cli_{name}.out").read_bytes()
