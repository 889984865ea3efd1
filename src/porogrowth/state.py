"""Nodal mixture state, initial conditions and the isotropy map."""

from dataclasses import dataclass, field

import numpy as np

from .constitutive import switch_Hr
from .errors import NonphysicalStateError
from .mesh import Mesh1D, nodal_means

#: roundoff slack granted to the nonnegativity checks
NEG_TOL = 1e-12

#: row order of a time level: rows 0-6 (u, p, c and the four fractions)
#: are the fixed-point iterate, rows 7-10 the growth distortions
ROWS = ("u", "p", "c", "phi_n", "phi_v", "phi_q", "phi_ecm",
        "g_n", "g_v", "g_q", "g_ecm")

#: columns of the mid-node time series after t_days, in file order
SERIES_KEYS = ("phi_n", "phi_v", "phi_q", "phi_ecm", "phi_fl", "c", "p", "xi")


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
        finite = np.isfinite(level).all(axis=1)
        if not finite.all():
            raise NonphysicalStateError(
                f"field {ROWS[finite.argmin()]} is not finite")
        low = level[2:7].min(axis=1)
        if low.min() < -NEG_TOL:
            k = (low < -NEG_TOL).argmax()
            raise NonphysicalStateError(
                f"{ROWS[2 + k]} has negative entries: min = {low[k]}")
        _, fl = solid_and_fluid(level[3:7])
        if fl.min() <= 0.0 or fl.max() >= 1.0:
            raise NonphysicalStateError(
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
    return MixtureState(level)


def nodal_strain(mesh, u):
    """du/dx at nodes: adjacent-element average inside, one-sided at ends."""
    return nodal_means((u[1:] - u[:-1]) / mesh.h)


def indicator_r(mesh, u, phi_s, phi_n, g_n):
    """Nodal isotropy indicator r = |phi_s du/dx - g_n phi_n| = |tau_max| / mu."""
    return np.abs(phi_s * nodal_strain(mesh, u) - g_n * phi_n)


def sample_xi_field(state, params, mesh):
    """Binary isotropy map of one state: xi = 1 - H_r(r), 1 where the
    state is isotropic (r from indicator_r, H_r from switch_Hr).

    H_r here is always the normal switch, whatever h_r_convention says:
    coupling._kinetics passes inverted= to switch_Hr and this does not,
    so under "inverted" xi is not the switch the kinetics applied."""
    phi_s, _ = solid_and_fluid(state.level[3:7])
    r = indicator_r(mesh, state.u, phi_s, state.phi_n, state.g_n)
    return 1 - switch_Hr(r, params.r_bar)


@dataclass
class Trajectory:
    """What the time loop records: the snapshots, each with its xi map,
    and per accepted step the mid-node series and the fixed-point report."""

    mesh: Mesh1D
    times: list = field(default_factory=list)         # snapshot times (s)
    states: list = field(default_factory=list)        # MixtureStates, IC first
    xi_maps: list = field(default_factory=list)       # sample_xi_field maps
    series_times: list = field(default_factory=list)  # every step, from t = 0
    mid_series: dict = field(                         # name -> mid-node values
        default_factory=lambda: {k: [] for k in SERIES_KEYS})
    diagnostics: list = field(default_factory=list)   # each step's report
