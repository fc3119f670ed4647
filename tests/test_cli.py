import os
import subprocess
import sys

import pytest

from anyonsim import cli
from anyonsim import lattice as lat
from anyonsim import protocols as pr
from anyonsim.errors import ContractError


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop(cli.SEED_ENV, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "anyonsim", *args],
                          capture_output=True, text=True, env=env)


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


def test_budget_table():
    result = run_cli(["budget", "--set", "n=16"])
    assert result.returncode == 0
    assert "min_photon_loss,0.0251327412287" in result.stdout
    assert "crossover_time" in result.stdout


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
    def boom(config):
        raise ContractError("synthetic")
    monkeypatch.setitem(cli.COMMANDS, "zd", boom)
    assert cli.main(["zd"]) == 3
