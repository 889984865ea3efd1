"""CSV emission: mid-node time series, field maps, diagnostics.

All floating values are written with repr (shortest round-trip form) so
repeated runs of the same configuration are byte-identical. The
Trajectory holds every snapshot in memory; emission writes the field maps
one snapshot block at a time, so only its own buffer is bounded by a block.
"""

import os

import numpy as np

from .errors import PorogrowthError
from .scenario import SECONDS_PER_DAY
from .state import SERIES_KEYS

FIELD_NAMES = ("p", "c", "xi", "u")

TIMESERIES_HEADER = "t_days," + ",".join(SERIES_KEYS)


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
    """Write the six CSV files into out_dir; returns their paths in order:
    timeseries.csv, field_p/c/xi/u.csv, diagnostics.csv.

    config is not read: every run writes all six files. The parameter
    stays because perfbench/run.py and perfbench/record_reference.py
    pass it positionally."""
    make_output_dir(out_dir)
    series = trajectory.mid_series
    columns = [_floats(np.divide(trajectory.series_times, SECONDS_PER_DAY))]
    columns += [map(str, series[key]) if key == "xi" else _floats(series[key])
                for key in SERIES_KEYS]
    written = [os.path.join(out_dir, "timeseries.csv")]
    _write(written[-1], [[TIMESERIES_HEADER, *map(",".join, zip(*columns))]])

    x_cm = list(_floats(trajectory.mesh.nodes))
    for name in FIELD_NAMES:
        written.append(os.path.join(out_dir, f"field_{name}.csv"))
        _write(written[-1], _field_blocks(trajectory, name, x_cm))

    lines = ["step,t_days,fp_iters,fp_residual"]
    for step, (t, d) in enumerate(
            zip(trajectory.series_times[1:], trajectory.diagnostics), 1):
        lines.append(
            f"{step},{float(t / SECONDS_PER_DAY)!r},{len(d)},{float(d[-1])!r}")
    written.append(os.path.join(out_dir, "diagnostics.csv"))
    _write(written[-1], [lines])
    return written
