"""Nodal mixture state, initial conditions and the isotropy map."""

from dataclasses import dataclass

import numpy as np

from .errors import ClosureViolationError, InvalidInitialConditionError
from .mesh import Mesh1D, nodal_means

#: roundoff slack granted to the nonnegativity checks
NEG_TOL = 1e-12

#: row order of a time level: rows 0-6 (u, p, c and the four fractions)
#: are the fixed-point iterate, rows 7-10 the growth distortions
ROWS = ("u", "p", "c", "phi_n", "phi_v", "phi_q", "phi_ecm",
        "g_n", "g_v", "g_q", "g_ecm")


def solid_and_fluid(phi):
    """(phi_s, phi_fl) of the fractions phi stacked as rows phi_n, phi_v,
    phi_q, phi_ecm: the solid fraction and the fluid fraction 1 - phi_s."""
    phi_s = phi.sum(axis=0)
    return phi_s, 1.0 - phi_s


class MixtureState:
    """All nodal fields of one time level: the read-only (11, N) array
    level, rows in ROWS order, each also readable as a row view
    (state.u, state.phi_n, ...).

    u in cm, p in dyne cm^-2, c in g cm^-3; volume fractions and growth
    distortions dimensionless. Construction checks the closure: every
    field finite, c and the fractions >= -NEG_TOL, phi_fl in (0, 1).
    """

    __slots__ = ("level",)

    def __init__(self, level):
        level = np.asarray(level, dtype=float).view()
        if level.ndim != 2 or level.shape[0] != len(ROWS):
            raise ValueError(
                f"level has shape {level.shape}, want ({len(ROWS)}, N)")
        finite = np.isfinite(level).all(axis=1)
        if not finite.all():
            raise ClosureViolationError(
                f"field {ROWS[finite.argmin()]} is not finite")
        low = level[2:7].min(axis=1)
        if low.min() < -NEG_TOL:
            k = (low < -NEG_TOL).argmax()
            raise ClosureViolationError(
                f"{ROWS[2 + k]} has negative entries: min = {low[k]}")
        _, fl = solid_and_fluid(level[3:7])
        if fl.min() <= 0.0 or fl.max() >= 1.0:
            raise ClosureViolationError(
                f"fluid fraction out of (0, 1): range [{fl.min()}, {fl.max()}]")
        level.flags.writeable = False
        self.level = level


for _row, _name in enumerate(ROWS):
    setattr(MixtureState, _name, property(lambda self, row=_row: self.level[row]))


def initial_state(mesh, params, scenario):
    """State at t = 0: exponential seeding profiles, uniform oxygen.

    phi_eta(x, 0) = A_eta exp(-x / L_d) with L_d = L/5; u, p and all
    growth distortions start at the configured constants (0 by default),
    c at c_0.
    """
    a_n, a_eta = scenario.amplitudes()
    l_d = mesh.length / 5.0
    profile = np.exp(-mesh.nodes / l_d)
    level = np.zeros((len(ROWS), mesh.node_count))
    level[2] = params.c_0
    level[3] = a_n * profile
    level[4:7] = a_eta * profile
    level[7:] = scenario.g_initial
    try:
        return MixtureState(level)
    except ClosureViolationError as exc:
        raise InvalidInitialConditionError(str(exc)) from exc


def nodal_strain(mesh, u):
    """du/dx at nodes: adjacent-element average inside, one-sided at ends."""
    return nodal_means((u[1:] - u[:-1]) / mesh.h)


def indicator_r(mesh, u, phi_s, phi_n, g_n):
    """Nodal isotropy indicator r = |phi_s du/dx - g_n phi_n| = |tau_max| / mu."""
    return np.abs(phi_s * nodal_strain(mesh, u) - g_n * phi_n)


def sample_xi_field(state, params, mesh):
    """Binary isotropy map of one state: 1 where r <= r_bar, else 0 (r
    from indicator_r).

    The tie r = r_bar maps to 1 (isotropic set kept closed).
    """
    phi_s, _ = solid_and_fluid(state.level[3:7])
    r = indicator_r(mesh, state.u, phi_s, state.phi_n, state.g_n)
    return np.where(r <= params.r_bar, 1, 0)


@dataclass
class Trajectory:
    """What the time loop records: the snapshots, each with its xi map,
    and per accepted step the mid-node series and the fixed-point report."""

    mesh: Mesh1D
    times: list              # snapshot times (s), strictly increasing
    states: list             # MixtureState snapshots (first = IC)
    xi_maps: list            # xi map of each snapshot (sample_xi_field)
    series_times: list       # every accepted step, including t = 0
    mid_series: dict         # field name -> per-step value at the mid node
    diagnostics: list        # FixedPointReport of step k at index k - 1

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
