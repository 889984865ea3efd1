"""Time advancement: backward Euler in time, fixed-point linearization.

Each accepted step performs, per sweep m: (1) the poroelastic solve with
lagged fractions and growth terms, (2) the oxygen solve with the fresh
displacement and Darcy flux, (3) one stacked species solve of the four
population balances with the fresh oxygen and stress-derived switches
but lagged sources. A sweep sums the lagged fractions once, for all
three, reads the step's old level itself, and after (1) takes the edge
weights and velocities of both transport problems from one
adr.sweep_edges call. The three systems are assembled into one
block-diagonal band, whose residual contract the sweep checks once,
after (3). Convergence is the max over all fields of the relative
infinity-norm change between sweeps. Growth distortions update once per
accepted step, after convergence.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import adr, linalg, poroelastic
from .constitutive import (
    growth_distortion_step,
    kinetics_fields,
    switch_Hc,
    switch_Hr,
)
from .errors import NonConvergenceError, NonphysicalStateError, PorogrowthError
from .mesh import build_mesh, element_means
from .params import EPS_PHI
from .state import (
    ROWS,
    MixtureState,
    Trajectory,
    indicator_r,
    initial_state,
    sample_xi_field,
    solid_and_fluid,
)


@dataclass
class FixedPointReport:
    """Residual of each sweep of one time step's fixed-point iteration."""

    residuals: list = field(default_factory=list)

    @property
    def iterations(self):
        """Number of sweeps made."""
        return len(self.residuals)


#: extrapolation cap of the secant acceleration (safeguard)
_GAMMA_MAX = 0.95


def _physical(x):
    """Whether a (7, N) iterate may enter a sweep: nonnegative fractions
    and oxygen, fluid fraction above the solver floor EPS_PHI."""
    return not (x[3:].min() < 0.0
                or solid_and_fluid(x[3:])[1].min() <= EPS_PHI
                or x[2].min() < 0.0)


#: time levels the start predictor extrapolates through (order 5 at most)
HISTORY = 6


def _change(dx, x):
    """Scaled size of dx against x: per row max|dx| / (max|x| + 1e-30),
    max over the rows (the fixed-point residual norm); one per stacked dx."""
    return (np.abs(dx).max(axis=-1)
            / (np.abs(x).max(axis=1) + 1e-30)).max(axis=-1)


def _push(table, depth, x):
    """Enter the accepted (7, N) level x into the backward-difference
    table, in place: row k of the depth filled rows holds nabla^k x_n of
    the newest level, and becomes nabla^k x = nabla^(k-1) x - (the old
    row k - 1). Returns the new depth, at most len(table).
    """
    depth = min(depth + 1, len(table))
    for k in range(depth - 1):
        table[k], x = x, x - table[k]
    table[depth - 1] = x
    return depth


def _predict(table):
    """Start iterate of the next step from the filled rows x_n, nabla
    x_n, nabla^2 x_n, ... of the backward-difference table: the Newton
    series, stopped before the first term whose scaled size (_change
    against x_n) does not shrink. An unphysical prediction falls back to
    x_n, a view of row 0 that the next _push overwrites.
    """
    sizes = _change(table, table[0])
    guess = table[0]
    for k in range(1, len(table)):
        if not sizes[k] < sizes[k - 1]:
            break
        guess = guess + table[k]
    return guess if _physical(guess) else table[0]


class _Accelerator:
    """Depth-one Anderson (secant) acceleration of the sweep map.

    Iterates are (7, N) arrays with rows u, p, c, phi_n, phi_v, phi_q,
    phi_ecm. The sweep output G(x) is combined with the previous one
    using the scalar secant coefficient gamma = <f, f - f_prev> /
    |f - f_prev|^2, f = G(x) - x, each row scaled by the peak of its
    field in the first sweep output (one shared scale for the four
    species rows). The accelerated point must stay physical
    (nonnegative fractions and oxygen, fluid fraction above the solver
    floor); otherwise the plain sweep output is kept. The fixed point
    itself is untouched -- only the path towards it changes, which
    matters in the strongly compacted regime where plain substitution
    contracts arbitrarily slowly.
    """

    def __init__(self):
        self.scale = None
        self.f_prev = None
        self.g_prev = None

    def push(self, x, g):
        """Return the next iterate given the sweep input x and output g."""
        if self.scale is None:
            peak = np.abs(g).max(axis=1)
            peak[3:] = peak[3:].max()
            self.scale = (peak + 1e-30)[:, None]
        f = (g - x) / self.scale
        accelerated = None
        if self.f_prev is not None:
            df = (f - self.f_prev).ravel()
            denom = float(df @ df)
            if denom > 0.0:
                gamma = float(f.ravel() @ df) / denom
                gamma = min(max(gamma, -_GAMMA_MAX), _GAMMA_MAX)
                accelerated = g - gamma * (g - self.g_prev)
        self.f_prev = f
        self.g_prev = g
        if accelerated is None or not _physical(accelerated):
            return g
        return accelerated


def _kinetics(mesh, u, c, phi, phi_s, phi_fl, g_n, scenario, params):
    """(sigma, source) of the species, gated by the r and oxygen switches."""
    r = indicator_r(mesh, u, phi_s, phi[0], g_n)
    h_r = switch_Hr(r, params.r_bar, inverted=scenario.h_r_convention == "inverted")
    h_c = switch_Hc(c, scenario.c_threshold(params))
    return kinetics_fields(
        phi, phi_fl, c, h_r, h_c, scenario.k_g(params), params)


def _sweep_systems(n):
    """(band, rhs, views) of one sweep: a zeroed tridiagonal BandedMatrix
    of order 6N and its (6, N) rhs, block diagonal over the unknowns
    (p, c, phi_n, phi_v, phi_q, phi_ecm), and the (matrix, rhs) views of
    the pressure, oxygen and species systems. No assembly writes the
    seams between views, so they stay zero."""
    band = linalg.BandedMatrix(n=6 * n)
    rhs = np.zeros((6, n))
    data = band.data
    views = ((linalg.BandedMatrix(n, data[:, :n]), rhs[0]),
             (linalg.BandedMatrix(n, data[:, n:2 * n]), rhs[1]),
             (linalg.BandedMatrix(4 * n, data[:, 2 * n:]), rhs[2:]))
    return band, rhs, views


def _sweep(mesh, x, level, dt, scenario, params):
    """One fixed-point sweep on the (7, N) iterate x from the step's last
    accepted (11, N) level: the poroelastic, the oxygen and one stacked
    species solve, assembled into one _sweep_systems band, and one
    residual check of all three; returns the next iterate.
    """
    band, rhs, (pressure, oxygen_system, species_system) = _sweep_systems(
        mesh.node_count)
    previous, g = level[:7], level[7:]
    phi_m = x[3:]
    phi_s, phi_fl = solid_and_fluid(phi_m)
    new = np.empty_like(x)

    # step 1: poroelastic solve with lagged coefficients
    system = poroelastic.assemble(
        mesh, phi_m, phi_fl, g, previous[0], dt,
        *scenario.boundary_data(params), params,
        dirichlet_side=scenario.darcy_dirichlet_side, out=pressure)
    new[0], new[1], v_new = poroelastic.solve(mesh, *system)

    # step 2: oxygen with the fresh displacement and Darcy flux
    weights, velocity = adr.sweep_edges(
        mesh, phi_fl, (new[0] - previous[0]) / dt, v_new, params)
    oxygen = adr.build_oxygen_problem(
        mesh, phi_m, x[2], weights[0], velocity[0], scenario, params)
    new[2] = adr.solve_adr(oxygen, dt, previous[2], out=oxygen_system)

    # step 3: populations, gated by the freshest stress and oxygen
    sigma, source = _kinetics(
        mesh, new[0], new[2], phi_m, phi_s, phi_fl, g[0], scenario, params)
    species = adr.build_species_problem(mesh, sigma, source, weights[1], velocity[1])
    new[3:] = adr.solve_adr(species, dt, previous[3:], out=species_system)

    # the residual contract of the three solves, each block on its own
    # scale; rows 1-6 of new are the band's unknowns in its block order
    linalg.check_residual(band, new[1:], rhs)
    return new


def fixed_point_step(state_n, mesh, dt, scenario, params, start=None):
    """Advance one time step; returns (state, FixedPointReport).

    The sweeps start from the (7, N) iterate start, or from state_n when
    it is None; only the path to the fixed point depends on it.

    Raises NonConvergenceError (carrying the report) when max_iter
    sweeps do not meet tol, and NonphysicalStateError at once when a
    sweep gives a non-finite residual or an intermediate state violates
    the closure.
    """
    report = FixedPointReport()
    level = state_n.level
    x = level[:7] if start is None else start
    accelerator = _Accelerator()
    for _ in range(scenario.max_iter):
        new = _sweep(mesh, x, level, dt, scenario, params)
        residual = float(_change(new - x, x))
        report.residuals.append(residual)
        if not math.isfinite(residual):
            raise NonphysicalStateError(
                f"non-finite fixed-point residual {residual} "
                f"in sweep {report.iterations}")
        if residual < scenario.tol:
            break
        x = accelerator.push(x, new)
    else:
        raise NonConvergenceError(
            f"fixed point did not converge in {scenario.max_iter} sweeps "
            f"(last residual {residual})", report)

    # growth distortions update once per accepted step
    g = level[7:]
    if scenario.growth_model == "G1":
        phi = new[3:]
        sigma, source = _kinetics(mesh, new[0], new[2], phi,
                                  *solid_and_fluid(phi), g[0], scenario, params)
        g = growth_distortion_step(g, phi, sigma, source, dt)

    return MixtureState(np.concatenate((new, g))), report


def _advance(state, mesh, dt, scenario, params, start):
    """One step of length dt from the start iterate; on nonconvergence,
    depth k = 1..4 retries it as 2^k sub-steps of dt / 2^k, each from its
    own previous level (the history of the nominal steps does not match
    their spacing). Its report, returned or raised after depth 4 with the
    last attempt's message, holds the residual of every sweep of every attempt."""
    report = FixedPointReport()
    for depth in range(5):
        current = state
        try:
            for _ in range(2**depth):
                current, attempt = fixed_point_step(
                    current, mesh, dt / 2**depth, scenario, params, start=start)
                report.residuals += attempt.residuals
            return current, report
        except NonConvergenceError as exc:
            report.residuals += exc.report.residuals
            last = str(exc)
        start = None
    raise NonConvergenceError(
        f"fixed point failed after 4 time-step bisections; last: {last}", report)


def _record(trajectory, t, state, mesh, params, snapshot):
    """Append the accepted level at time t to the per-step series, and to
    the snapshots with its xi map when snapshot is true."""
    mid = mesh.mid_node
    column = state.level[:, mid]
    xi = sample_xi_field(state, params, mesh)
    trajectory.series_times.append(t)
    series = trajectory.mid_series
    for key, value in zip(ROWS[1:7], column[1:7].tolist()):
        series[key].append(value)
    series["phi_fl"].append(float(solid_and_fluid(column[3:7])[1]))
    series["xi"].append(int(xi[mid]))
    if snapshot:
        trajectory.times.append(t)
        trajectory.states.append(state)
        trajectory.xi_maps.append(xi)


def run(scenario, params):
    """Full simulation over [0, t_end]; returns a Trajectory.

    Snapshots, each with its xi map, are kept every output_stride steps
    (plus the first and last); the mid-node series and the fixed-point
    report are recorded at every step. Each step's fixed point starts
    from a backward-difference extrapolation of the last HISTORY levels
    (see _predict), whose table _push updates in place once the step is
    accepted. A step failure aborts with the partial trajectory attached
    to the raised error.
    """
    mesh = build_mesh(scenario.length, scenario.node_count)
    state = initial_state(mesh, params, scenario)
    trajectory = Trajectory(mesh)
    _record(trajectory, 0.0, state, mesh, params, snapshot=True)
    table = np.empty((HISTORY, 7, mesh.node_count))
    depth = _push(table, 0, state.level[:7])

    for step in range(1, scenario.n_steps + 1):
        try:
            state, report = _advance(state, mesh, scenario.dt, scenario,
                                     params, _predict(table[:depth]))
        except PorogrowthError as exc:
            exc.partial_trajectory = trajectory
            raise
        depth = _push(table, depth, state.level[:7])
        trajectory.diagnostics.append(report)
        _record(trajectory, step * scenario.dt, state, mesh, params,
                step % scenario.output_stride == 0 or step == scenario.n_steps)
    return trajectory
