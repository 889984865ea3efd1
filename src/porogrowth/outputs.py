"""CSV emission: mid-node time series, field maps, diagnostics.

All floating values are written with repr (shortest round-trip form) so
repeated runs of the same configuration are byte-identical. Field maps
are written one snapshot block at a time, so memory does not grow with T_end.
"""

import os

import numpy as np

from .errors import PorogrowthError
from .scenario import SECONDS_PER_DAY

FIELD_NAMES = ("p", "c", "xi", "u")

TIMESERIES_HEADER = "t_days,phi_n,phi_v,phi_q,phi_ecm,phi_fl,c,p,xi"


def _floats(values):
    """repr of each value as a Python float, one string per value."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _write(path, blocks):
    """Write each block of lines in turn, every line ending in a newline."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for block in blocks:
                fh.write("\n".join(block) + "\n")
    except OSError as exc:
        raise PorogrowthError(f"cannot write {path}: {exc}") from exc


def make_output_dir(out_dir):
    """Create out_dir if needed; an OSError becomes a PorogrowthError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise PorogrowthError(
            f"cannot create output directory {out_dir}: {exc}") from exc


def _field_blocks(trajectory, name, x_cm):
    """The header, then one block of lines t_days,x_cm,value per snapshot."""
    yield ["t_days,x_cm,value"]
    for t, state, xi in zip(trajectory.times, trajectory.states,
                            trajectory.xi_maps):
        t_days = repr(float(t / SECONDS_PER_DAY))
        if name == "xi":
            values = map(str, np.asarray(xi, dtype=int).tolist())
        else:
            values = _floats(getattr(state, name))
        yield [f"{t_days},{x},{v}" for x, v in zip(x_cm, values)]


def emit_outputs(trajectory, config, out_dir):
    """Write the configured CSV files into out_dir; returns their paths."""
    if not trajectory.states:
        raise PorogrowthError("trajectory is empty")
    names = [n for n in FIELD_NAMES
             if (config.emit_xi_map if n == "xi" else config.emit_fields)]
    make_output_dir(out_dir)
    written = []

    if config.emit_timeseries:
        series = trajectory.mid_series
        columns = [_floats(np.divide(trajectory.series_times, SECONDS_PER_DAY))]
        columns += [_floats(series[key]) for key in
                    ("phi_n", "phi_v", "phi_q", "phi_ecm", "phi_fl", "c", "p")]
        columns.append(map(str, series["xi"]))
        path = os.path.join(out_dir, "timeseries.csv")
        _write(path, [[TIMESERIES_HEADER, *map(",".join, zip(*columns))]])
        written.append(path)

    x_cm = list(_floats(trajectory.mesh.nodes))
    for name in names:
        path = os.path.join(out_dir, f"field_{name}.csv")
        _write(path, _field_blocks(trajectory, name, x_cm))
        written.append(path)

    if config.emit_diagnostics:
        lines = ["step,t_days,fp_iters,fp_residual"]
        for step, (t, d) in enumerate(
                zip(trajectory.series_times[1:], trajectory.diagnostics), 1):
            lines.append(
                f"{step},{float(t / SECONDS_PER_DAY)!r},"
                f"{d.iterations},{float(d.residuals[-1])!r}")
        path = os.path.join(out_dir, "diagnostics.csv")
        _write(path, [lines])
        written.append(path)

    return written
