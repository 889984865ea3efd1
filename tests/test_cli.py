import os
import subprocess
import sys

import pytest

from porogrowth import cli


def run_cli(argv):
    return cli.main(argv)


def test_simulate_preset(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = run_cli(["simulate", "--preset", "static-ic1-kg1-csat",
                    "--out", out, "--t-end", "7200", "--nodes", "21"])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert os.path.join(out, "timeseries.csv") in printed
    assert os.path.exists(os.path.join(out, "timeseries.csv"))


def test_simulate_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("nodes = 21\nT_end = 3600\nemit_fields = false\n")
    out = str(tmp_path / "run")
    code = run_cli(["simulate", "--config", str(cfg_path), "--out", out])
    assert code == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "timeseries.csv"))
    assert not os.path.exists(os.path.join(out, "field_p.csv"))


def test_unknown_preset_is_config_error(tmp_path, capsys):
    code = run_cli(["simulate", "--preset", "nope", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_file_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("warp_speed = 9\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_too_few_nodes_is_config_error(tmp_path, capsys):
    code = run_cli(["simulate", "--nodes", "2", "--t-end", "3600",
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "at least 3 nodes" in capsys.readouterr().err


def test_nonpositive_length_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "neg.cfg"
    cfg_path.write_text("L = -1\nT_end = 3600\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "length must be positive" in capsys.readouterr().err


def test_infinite_t_end_is_config_error(tmp_path, capsys):
    code = run_cli(["simulate", "--t-end", "inf", "--nodes", "5",
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "t_end must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line,fragment", [
    ("T_end = inf", "t_end must be finite"),
    ("tol = nan", "tol must be finite"),
    ("mu = nan", "mu must be finite"),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, line,
                                                 fragment):
    cfg_path = tmp_path / "nonfinite.cfg"
    cfg_path.write_text(f"nodes = 5\nT_end = 3600\n{line}\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("line", ["D_c_fl = 0", "D_eta = 0", "K_ref = 0",
                                  "D_c_fl = 1e-200", "D_eta = 1e-200"])
def test_zero_diffusivity_is_config_error(tmp_path, capsys, line):
    # D_c_fl = 0 divided by zero in k_partition; D_eta = 0 gave NaN edge
    # diffusivities that failed later as a numerical error; the zero
    # permeability K_ref = 0 ran to exit 0 with an oscillating pressure;
    # 1e-200 underflowed the harmonic edge mean to a zero diffusion
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(f"nodes = 5\nT_end = 3600\n{line}\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert f"{line.split()[0]} must be positive" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_retired_viscosity_key_names_permeability(tmp_path, capsys):
    # mu_fl was accepted but read by no computation
    cfg_path = tmp_path / "visc.cfg"
    cfg_path.write_text("nodes = 5\nT_end = 3600\nmu_fl = 0\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key 'mu_fl'" in err and "K_ref" in err
    assert not os.path.exists(tmp_path / "o")


def test_missing_config_file_is_config_error(tmp_path):
    code = run_cli(["simulate", "--config", str(tmp_path / "absent.cfg"),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "hard.cfg"
    # perfusion with a starved iteration budget cannot converge
    cfg_path.write_text(
        "culture_mode = perfused\nnodes = 21\nT_end = 3600\n"
        "max_iter = 2\ntol = 1e-14\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
def test_uncreatable_out_dir_is_numerical_failure(tmp_path, below):
    # --out naming an existing file, or a directory below one: one error
    # line and exit 1, not a traceback after the whole run
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "run" if below else blocker
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "porogrowth.cli", "simulate", "--preset",
         "static-ic1-kg1-csat", "--t-end", "3600", "--nodes", "5",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("numerical failure: cannot create")


def test_uncreatable_out_dir_fails_before_the_run(tmp_path, monkeypatch,
                                                  capsys):
    def no_run(*args):
        raise AssertionError("coupling.run called")

    monkeypatch.setattr(cli.coupling, "run", no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code = run_cli(["simulate", "--preset", "static-ic1-kg1-csat",
                    "--out", str(blocker)])
    assert code == cli.EXIT_NUMERICAL
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: cannot create")


def test_out_env_var_default(tmp_path, monkeypatch):
    out = str(tmp_path / "envout")
    monkeypatch.setenv("POROGROWTH_OUT", out)
    code = run_cli(["simulate", "--preset", "static-ic1-kg1-csat",
                    "--t-end", "3600", "--nodes", "21"])
    assert code == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "timeseries.csv"))


def test_sweep_explicit_presets(tmp_path):
    out = str(tmp_path / "sweep")
    code = run_cli(["sweep", "static-ic1-kg1-csat", "static-ic1-kg2-csat",
                    "--out", out, "--t-end", "3600", "--nodes", "21"])
    assert code == cli.EXIT_OK
    for name in ("static-ic1-kg1-csat", "static-ic1-kg2-csat"):
        assert os.path.exists(os.path.join(out, name, "timeseries.csv"))


def test_sweep_without_presets_is_config_error(tmp_path):
    code = run_cli(["sweep", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_verify_subcommand(capsys):
    code = run_cli(["verify", "linalg"])
    assert code == cli.EXIT_OK
    assert "linalg: pass" in capsys.readouterr().out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["verify", "nonsense"])
    assert exc_info.value.code == 2
