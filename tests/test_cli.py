import os
import subprocess
import sys

import pytest

from porogrowth import cli, config, coupling
from porogrowth.errors import NonConvergenceError, NonphysicalStateError


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
    cfg_path.write_text("nodes = 21\nT_end = 3600\n")
    out = str(tmp_path / "run")
    code = run_cli(["simulate", "--config", str(cfg_path), "--out", out])
    assert code == cli.EXIT_OK
    assert sorted(os.listdir(out)) == [
        "diagnostics.csv", "field_c.csv", "field_p.csv", "field_u.csv",
        "field_xi.csv", "timeseries.csv"]


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
    # --t-end keeps the run short should the line pass; a T_end line of
    # its own beside the one under test would repeat that key
    cfg_path = tmp_path / "nonfinite.cfg"
    cfg_path.write_text(f"nodes = 5\n{line}\n")
    code = run_cli(["simulate", "--config", str(cfg_path), "--t-end", "3600",
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("line", ["D_c_fl = 0", "D_eta = 0", "K_ref = 0",
                                  "D_c_fl = 1e-200", "D_eta = 1e-200",
                                  "D_c_fl = 1e300", "D_eta = 1e300"])
def test_zero_diffusivity_is_config_error(tmp_path, capsys, line):
    # D_c_fl = 0 divided by zero in k_partition; D_eta = 0 gave NaN edge
    # diffusivities that failed later as a numerical error; the zero
    # permeability K_ref = 0 ran to exit 0 with an oscillating pressure;
    # 1e-200 underflowed the harmonic edge mean to a zero diffusion, and
    # 1e300 overflowed it to a non-finite solve
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(f"nodes = 5\nT_end = 3600\n{line}\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert f"{line.split()[0]} must be positive" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_zero_maturation_time_is_config_error(tmp_path):
    # tau_m = 0 divided by zero in the kinetics: a traceback and exit 1
    cfg_path = tmp_path / "tau.cfg"
    cfg_path.write_text("nodes = 5\nT_end = 3600\ntau_m = 0\n")
    out = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "porogrowth.cli", "simulate", "--config",
         str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert "tau_m must be positive" in proc.stderr
    assert not out.exists()


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


def test_retired_cell_radius_key_names_volume(tmp_path, capsys):
    # R_cell was read only by a check that it agreed with V_cell
    cfg_path = tmp_path / "radius.cfg"
    cfg_path.write_text("nodes = 5\nT_end = 3600\nR_cell = 5e-4\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key 'R_cell'" in err and "V_cell" in err
    assert not os.path.exists(tmp_path / "o")


def test_retired_output_toggle_is_config_error(tmp_path, capsys):
    # every run writes all six CSV files, so emit_fields is no longer a key
    cfg_path = tmp_path / "toggle.cfg"
    cfg_path.write_text("nodes = 5\nT_end = 3600\nemit_fields = false\n")
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: line 3: unknown key 'emit_fields': every run "
        "writes all six CSV files; delete the line"]
    assert not os.path.exists(tmp_path / "o")


def test_config_file_with_byte_order_mark_runs(tmp_path):
    # an editor's UTF-8 BOM is not part of the first key: nodes = 5 holds,
    # so each field file keeps 2 snapshot blocks of 5 rows
    cfg_path = tmp_path / "bom.cfg"
    cfg_path.write_text("nodes = 5\nT_end = 3600\n", encoding="utf-8-sig")
    out = tmp_path / "o"
    code = run_cli(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len((out / "field_p.csv").read_text().splitlines()) == 11


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


def test_failed_run_writes_its_recorded_steps(tmp_path, capsys):
    # tol = 1e-16 cannot be met in three sweeps, nor after 4 bisections:
    # the run fails at step 1, after recording only the initial level,
    # and that level is written; the error names the sweeps of all five
    # attempts, 3 each, and the last attempt
    cfg_path = tmp_path / "starved.cfg"
    cfg_path.write_text("nodes = 21\ntol = 1e-16\nmax_iter = 3\n")
    out = tmp_path / "o"
    cfg = config.parse_config(cfg_path.read_text())
    with pytest.raises(NonConvergenceError) as exc_info:
        coupling.run(cfg.scenario, cfg.params)
    recorded = exc_info.value.partial_trajectory.series_times
    assert exc_info.value.report.iterations == 15
    code = run_cli(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"wrote the initial level and 0 accepted steps to {out}"
    assert len(err) == 2
    assert err[1].startswith(
        "numerical failure: fixed point failed after 4 time-step bisections "
        "(15 sweeps); last: fixed point did not converge in 3 sweeps "
        "(last residual ")
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) * 86400.0 for row in rows] == recorded


def test_failed_run_keeps_the_full_runs_first_rows(tmp_path, monkeypatch,
                                                   capsys):
    # the third step fails: the initial level and the two accepted steps
    # are written byte for byte as the full run writes them
    argv = ["simulate", "--preset", "perfused-ic2-kg2-cthr", "--nodes", "21",
            "--t-end", str(5 * 3600.0)]
    assert run_cli(argv + ["--out", str(tmp_path / "full")]) == cli.EXIT_OK
    step = coupling.fixed_point_step
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NonphysicalStateError("injected failure")
        return step(*args, **kwargs)

    monkeypatch.setattr(coupling, "fixed_point_step", failing)
    capsys.readouterr()
    assert run_cli(argv + ["--out", str(tmp_path / "cut")]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        f"wrote the initial level and 2 accepted steps to {tmp_path / 'cut'}",
        "numerical failure: injected failure"]
    for name, prefix in (("timeseries.csv", 1 + 3), ("diagnostics.csv", 1 + 2),
                         ("field_p.csv", 1 + 3 * 21), ("field_xi.csv", 1 + 3 * 21)):
        cut = (tmp_path / "cut" / name).read_text().splitlines()
        full = (tmp_path / "full" / name).read_text().splitlines()
        assert cut == full[:prefix], name


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


def test_empty_out_env_var_means_the_default(tmp_path, monkeypatch):
    monkeypatch.setenv("POROGROWTH_OUT", "")
    monkeypatch.chdir(tmp_path)
    code = run_cli(["simulate", "--preset", "static-ic1-kg1-csat",
                    "--t-end", "3600", "--nodes", "21"])
    assert code == cli.EXIT_OK
    assert (tmp_path / "porogrowth-out" / "timeseries.csv").exists()


def test_sweep_explicit_presets(tmp_path):
    out = str(tmp_path / "sweep")
    code = run_cli(["sweep", "static-ic1-kg1-csat", "static-ic1-kg2-csat",
                    "--out", out, "--t-end", "3600", "--nodes", "21"])
    assert code == cli.EXIT_OK
    for name in ("static-ic1-kg1-csat", "static-ic1-kg2-csat"):
        assert os.path.exists(os.path.join(out, name, "timeseries.csv"))


def test_sweep_all_presets_with_names_is_config_error(tmp_path, capsys):
    # names beside --all-presets are refused, not ignored: nothing is run
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--all-presets", "not-a-preset", "--out", str(out),
                    "--t-end", "0"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert not out.exists()


@pytest.mark.parametrize("names", [
    ["static-ic1-kg1-csat", "bogus"],
    ["static-ic1-kg1-csat", "static-ic1-kg1-csat"],
], ids=["unknown-name", "repeated-name"])
def test_sweep_checks_every_name_before_its_first_run(tmp_path, capsys, names):
    # a bad name after a good one, or a name given twice, is refused
    # before the first preset runs: no preset directory is written
    out = tmp_path / "sweep"
    code = run_cli(["sweep", *names, "--out", str(out), "--t-end", "7200"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert not out.exists()


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
