import builtins
import dataclasses
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from porogrowth import config, coupling, outputs
from porogrowth.errors import PorogrowthError
from porogrowth.scenario import SECONDS_PER_DAY, ScenarioConfig


@pytest.fixture(scope="module")
def short_run():
    cfg = config.RunConfig(scenario=ScenarioConfig(
        t_end=3 * 3600.0, dt=3600.0, node_count=21))
    trajectory = coupling.run(cfg.scenario, cfg.params)
    return cfg, trajectory


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_emits_expected_files(short_run, tmp_path):
    cfg, trajectory = short_run
    written = outputs.emit_outputs(trajectory, cfg, str(tmp_path))
    names = sorted(os.path.basename(p) for p in written)
    assert names == sorted([
        "timeseries.csv", "field_p.csv", "field_c.csv", "field_xi.csv",
        "field_u.csv", "diagnostics.csv"])
    for p in written:
        assert os.path.exists(p)


def test_timeseries_layout(short_run, tmp_path):
    cfg, trajectory = short_run
    outputs.emit_outputs(trajectory, cfg, str(tmp_path))
    lines = read(tmp_path / "timeseries.csv").splitlines()
    assert lines[0] == "t_days,phi_n,phi_v,phi_q,phi_ecm,phi_fl,c,p,xi"
    assert len(lines) == 1 + 4  # t = 0 plus three steps
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # initial mid-node seeding value A_n exp(-2.5)
    assert float(first[1]) == pytest.approx(0.005 * np.exp(-2.5))
    assert float(first[6]) == pytest.approx(5e-6)
    assert first[8] in ("0", "1")


def test_field_files_long_format(short_run, tmp_path):
    cfg, trajectory = short_run
    outputs.emit_outputs(trajectory, cfg, str(tmp_path))
    lines = read(tmp_path / "field_c.csv").splitlines()
    assert lines[0] == "t_days,x_cm,value"
    n = trajectory.mesh.node_count
    assert len(lines) == 1 + len(trajectory.times) * n
    # rows ordered by (t, x): the first block is t = 0 over all nodes
    block = [line.split(",") for line in lines[1:1 + n]]
    assert all(float(row[0]) == 0.0 for row in block)
    xs = [float(row[1]) for row in block]
    assert xs == sorted(xs)
    assert xs[-1] == pytest.approx(trajectory.mesh.length)
    # last block is the final snapshot day
    assert float(lines[-1].split(",")[0]) == pytest.approx(
        trajectory.times[-1] / SECONDS_PER_DAY)


def test_diagnostics_layout(short_run, tmp_path):
    cfg, trajectory = short_run
    outputs.emit_outputs(trajectory, cfg, str(tmp_path))
    lines = read(tmp_path / "diagnostics.csv").splitlines()
    assert lines[0] == "step,t_days,fp_iters,fp_residual"
    assert len(lines) == 1 + 3
    step, t_days, iters, residual = lines[1].split(",")
    assert int(step) == 1
    assert float(t_days) == pytest.approx(3600.0 / SECONDS_PER_DAY)
    assert int(iters) >= 1
    assert float(residual) < cfg.scenario.tol


def test_emit_flags_suppress_files(short_run, tmp_path):
    cfg, trajectory = short_run
    quiet = dataclasses.replace(cfg, emit_fields=False, emit_diagnostics=False)
    written = outputs.emit_outputs(trajectory, quiet, str(tmp_path))
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["field_xi.csv", "timeseries.csv"]


def test_byte_identical_reruns(short_run, tmp_path):
    cfg, trajectory = short_run
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    outputs.emit_outputs(trajectory, cfg, str(out1))
    outputs.emit_outputs(trajectory, cfg, str(out2))
    for name in os.listdir(out1):
        assert read(out1 / name) == read(out2 / name)


def reference_csvs(trajectory, cfg):
    """Expected file texts, every float through repr(float(v)) one by one."""
    def fmt(v):
        return repr(float(v))

    files = {}
    if cfg.emit_timeseries:
        lines = [outputs.TIMESERIES_HEADER]
        for i, t in enumerate(trajectory.series_times):
            row = [fmt(t / SECONDS_PER_DAY)]
            row += [fmt(trajectory.mid_series[key][i]) for key in
                    ("phi_n", "phi_v", "phi_q", "phi_ecm", "phi_fl", "c", "p")]
            row.append(str(trajectory.mid_series["xi"][i]))
            lines.append(",".join(row))
        files["timeseries.csv"] = lines
    for name in ("p", "c", "xi", "u"):
        if not (cfg.emit_xi_map if name == "xi" else cfg.emit_fields):
            continue
        lines = ["t_days,x_cm,value"]
        for t, state, xi in zip(trajectory.times, trajectory.states,
                                trajectory.xi_maps, strict=True):
            if name == "xi":
                values = [str(int(v)) for v in xi]
            else:
                values = [fmt(v) for v in getattr(state, name)]
            for x, value in zip(trajectory.mesh.nodes, values):
                lines.append(f"{fmt(t / SECONDS_PER_DAY)},{fmt(x)},{value}")
        files[f"field_{name}.csv"] = lines
    if cfg.emit_diagnostics:
        lines = ["step,t_days,fp_iters,fp_residual"]
        for step, d in enumerate(trajectory.diagnostics, start=1):
            t = step * cfg.scenario.dt
            lines.append(f"{step},{fmt(t / SECONDS_PER_DAY)},"
                         f"{d.iterations},{fmt(d.residuals[-1])}")
        files["diagnostics.csv"] = lines
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


@pytest.fixture(scope="module")
def strided_run():
    # snapshots at steps 0, 2, 4 and the final step 5; the xi maps are
    # replaced by one distinct map per snapshot, so a block taken from
    # the wrong snapshot shows
    cfg = config.RunConfig(scenario=ScenarioConfig(
        t_end=5 * 3600.0, dt=3600.0, node_count=21, output_stride=2,
        culture_mode="perfused"))
    trajectory = coupling.run(cfg.scenario, cfg.params)
    nodes = np.arange(trajectory.mesh.node_count)
    xi_maps = [np.where(nodes >= 3 * k, 1, 0)
               for k in range(len(trajectory.times))]
    return cfg, dataclasses.replace(trajectory, xi_maps=xi_maps)


@pytest.mark.parametrize("flags", itertools.product((False, True), repeat=4))
def test_every_emit_combination_matches_reference(strided_run, tmp_path, flags):
    cfg, trajectory = strided_run
    assert [round(t / 3600.0) for t in trajectory.times] == [0, 2, 4, 5]
    cfg = dataclasses.replace(cfg, **dict(zip(
        ("emit_timeseries", "emit_fields", "emit_xi_map", "emit_diagnostics"),
        flags)))
    written = outputs.emit_outputs(trajectory, cfg, str(tmp_path))
    expected = reference_csvs(trajectory, cfg)
    assert sorted(os.path.basename(p) for p in written) == sorted(expected)
    for name, text in expected.items():
        assert read(tmp_path / name) == text
    if cfg.emit_xi_map:
        # each field_xi block is the xi map of its snapshot
        n = trajectory.mesh.node_count
        rows = read(tmp_path / "field_xi.csv").splitlines()[1:]
        for k, xi in enumerate(trajectory.xi_maps):
            block = [int(r.split(",")[2]) for r in rows[k * n:(k + 1) * n]]
            assert block == xi.tolist()


def test_failed_write_inside_a_file_is_typed(short_run, tmp_path, monkeypatch):
    # each file object fails on its third write: timeseries.csv is one
    # write, field_p.csv fails on its second snapshot block
    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError("no space left on device")
            return self.fh.write(text)

    def failing_open(*args, **kwargs):
        return FailingFile(builtins.open(*args, **kwargs))

    monkeypatch.setattr(outputs, "open", failing_open, raising=False)
    cfg, trajectory = short_run
    with pytest.raises(PorogrowthError, match="cannot write .*field_p.csv"):
        outputs.emit_outputs(trajectory, cfg, str(tmp_path))


def test_single_snapshot_on_three_nodes_matches_reference(tmp_path):
    # t_end = 0: the initial state is the only snapshot, so each field
    # file is its header plus one 3-line block and diagnostics.csv is its
    # header alone
    cfg = config.RunConfig(scenario=ScenarioConfig(
        t_end=0.0, dt=3600.0, node_count=3))
    trajectory = coupling.run(cfg.scenario, cfg.params)
    assert trajectory.times == [0.0] and not trajectory.diagnostics
    written = outputs.emit_outputs(trajectory, cfg, str(tmp_path))
    expected = reference_csvs(trajectory, cfg)
    assert sorted(os.path.basename(p) for p in written) == sorted(expected)
    for name, text in expected.items():
        assert read(tmp_path / name) == text
    assert len(read(tmp_path / "field_c.csv").splitlines()) == 1 + 3


def test_emission_memory_is_bounded_by_a_block(tmp_path):
    # the field files are streamed one snapshot block at a time, so the
    # memory emission allocates stays far below the size of one file
    cfg = config.preset("perfused-ic2-kg2-cthr")
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, t_end=2 * SECONDS_PER_DAY, node_count=401))
    trajectory = coupling.run(cfg.scenario, cfg.params)
    tracemalloc.start()
    try:
        written = outputs.emit_outputs(trajectory, cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(os.path.getsize(p) for p in written)
    assert largest > 500_000
    assert peak < largest / 2
