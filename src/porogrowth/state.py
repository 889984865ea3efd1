"""Nodal mixture state, initial conditions and the isotropy map."""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ClosureViolationError, InvalidInitialConditionError
from .mesh import Mesh1D, nodal_means

#: roundoff slack granted to the nonnegativity checks
NEG_TOL = 1e-12


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MixtureState:
    """All nodal fields of one time level.

    u in cm, p in dyne cm^-2, c in g cm^-3; volume fractions and growth
    distortions dimensionless. Arrays are read-only after construction.
    """

    u: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    phi_n: np.ndarray = field(repr=False)
    phi_v: np.ndarray = field(repr=False)
    phi_q: np.ndarray = field(repr=False)
    phi_ecm: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    g_n: np.ndarray = field(repr=False)
    g_v: np.ndarray = field(repr=False)
    g_q: np.ndarray = field(repr=False)
    g_ecm: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.u.shape[0]
        for f in fields(self):
            a = getattr(self, f.name)
            if a.shape != (n,):
                raise ValueError(f"field {f.name} has shape {a.shape}, want ({n},)")
            if not np.isfinite(a).all():
                raise ClosureViolationError(f"field {f.name} is not finite")
            object.__setattr__(self, f.name, _frozen(a))
        for name in ("phi_n", "phi_v", "phi_q", "phi_ecm", "c"):
            if getattr(self, name).min() < -NEG_TOL:
                raise ClosureViolationError(
                    f"{name} has negative entries: min = {np.min(getattr(self, name))}")
        fl = self.phi_fl_field()
        if fl.min() <= 0.0 or fl.max() >= 1.0:
            raise ClosureViolationError(
                f"fluid fraction out of (0, 1): range [{np.min(fl)}, {np.max(fl)}]")

    def phi_fields(self):
        """Species fractions stacked in the canonical order: proliferating,
        synthesizing, quiescent, ECM (n, v, q, ecm)."""
        return np.stack([self.phi_n, self.phi_v, self.phi_q, self.phi_ecm])

    def g_fields(self):
        return np.stack([self.g_n, self.g_v, self.g_q, self.g_ecm])

    def phi_fl_field(self):
        return 1.0 - (self.phi_n + self.phi_v + self.phi_q + self.phi_ecm)


def initial_state(mesh, params, scenario):
    """State at t = 0: exponential seeding profiles, uniform oxygen.

    phi_eta(x, 0) = A_eta exp(-x / L_d) with L_d = L/5; u, p and all
    growth distortions start at the configured constants (0 by default),
    c at c_0.
    """
    a_n, a_eta = scenario.amplitudes()
    l_d = mesh.length / 5.0
    profile = np.exp(-mesh.nodes / l_d)
    zeros = np.zeros(mesh.node_count)
    g0 = np.full(mesh.node_count, scenario.g_initial)
    try:
        return MixtureState(
            u=zeros.copy(),
            p=zeros.copy(),
            phi_n=a_n * profile,
            phi_v=a_eta * profile,
            phi_q=a_eta * profile,
            phi_ecm=a_eta * profile,
            c=np.full(mesh.node_count, params.c_0),
            g_n=g0.copy(), g_v=g0.copy(), g_q=g0.copy(), g_ecm=g0.copy(),
        )
    except ClosureViolationError as exc:
        raise InvalidInitialConditionError(str(exc)) from exc


def nodal_strain(mesh, u):
    """du/dx at nodes: adjacent-element average inside, one-sided at ends."""
    return nodal_means((u[1:] - u[:-1]) / mesh.h)


def indicator_r(mesh, u, phi_s, phi_n, g_n):
    """Nodal isotropy indicator r = |phi_s du/dx - g_n phi_n| = |tau_max| / mu."""
    return np.abs(phi_s * nodal_strain(mesh, u) - g_n * phi_n)


def anisotropy_field(state, mesh):
    """Nodal isotropy indicator r of one state (see indicator_r)."""
    return indicator_r(mesh, state.u, state.phi_fields().sum(axis=0),
                       state.phi_n, state.g_n)


def sample_xi_field(state, params, mesh):
    """Binary isotropy map: 1 where r <= r_bar, else 0.

    The tie r = r_bar maps to 1 (isotropic set kept closed).
    """
    return np.where(anisotropy_field(state, mesh) <= params.r_bar, 1, 0)


@dataclass
class StepDiagnostics:
    """Per-step fixed-point bookkeeping."""

    step: int
    time: float
    iterations: int
    residual: float


@dataclass
class Trajectory:
    """Sampled states plus per-step series recorded by the time loop."""

    mesh: Mesh1D
    times: list              # snapshot times (s), strictly increasing
    states: list             # MixtureState snapshots (first = IC)
    series_times: list       # every accepted step, including t = 0
    mid_series: dict         # field name -> per-step value at the mid node
    xi_series: list          # per-step nodal xi arrays
    diagnostics: list        # StepDiagnostics per accepted step

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
