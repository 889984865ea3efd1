"""Scenario definitions: boundary data, initial profiles, solver knobs."""

import math
from dataclasses import dataclass

from .errors import ConfigError
from .params import FIELD_RULES, check_fields

#: initial-profile amplitudes (A_n, A_eta) for the two seeding densities
IC_AMPLITUDES = {
    "IC1": (0.005, 0.001),
    "IC2": (0.05, 0.01),
}

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario.

    culture_mode 'static' zeroes both boundary data; 'perfused' applies
    the tabulated T_b and V_b. k_g selects the growth rate k_g1 or
    k_g2; c_ext picks the external oxygen level, c_sat or c_thr, held
    at the fluid interface for the whole run.
    """

    culture_mode: str = "static"        # static | perfused
    ic_profile: str = "IC1"             # IC1 | IC2
    k_g: str = "kg1"                    # kg1 | kg2
    c_ext: str = "csat"                 # csat | cthr
    length: float = 0.01                # cm (~100 um scaffold pore)
    node_count: int = 101
    t_end: float = 30.0 * SECONDS_PER_DAY
    dt: float = 3600.0
    tol: float = 1e-8
    max_iter: int = 100
    stride: int = 1
    # closure-convention knobs
    h_r_convention: str = "normal"      # normal | inverted anisotropy switch
    h_c_threshold: str = "thr"          # thr | apo
    growth_model: str = "G0"            # G0 (constant g) | G1 (surrogate)
    g_initial: float = 0.0              # constant g held by model G0
    boundary_flux_convention: str = "left"  # left: p(0)=0, V_b at L; right: swap

    def __post_init__(self):
        check_fields(self, FIELD_RULES)
        n_steps = self.t_end / self.dt
        if not math.isfinite(n_steps):
            raise ConfigError(f"t_end / dt must be finite, got {n_steps}")
        if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
            raise ConfigError("t_end must be an integral number of dt steps")

    # derived scenario data ------------------------------------------

    def amplitudes(self):
        """(A_n, A_eta) for the selected seeding density."""
        return IC_AMPLITUDES[self.ic_profile]

    def boundary_data(self, params):
        """Signed (traction, Darcy flux) applied at the fluid interface.

        In the +x outward-normal convention the perfusing medium drags
        the construct outward (traction +T_b) while entering through
        the interface (flux -V_b) and leaving through the
        pressure-Dirichlet end. The fluid pressure then rises linearly
        from that end, the nutrient is delivered at the concentration
        boundary and the oxygen's zero-diffusive-flux end, the wall, is an
        advective outflow. The species ride the solid velocity, whose end
        at x = L is an inflow in most default perfused sweeps (see adr).
        """
        if self.culture_mode == "static":
            return 0.0, 0.0
        return params.T_b, -params.V_b

    def growth_rate(self, params):
        """Maximum cell-specific growth rate selected by k_g (s^-1)."""
        return params.k_g1 if self.k_g == "kg1" else params.k_g2

    def c_interface(self, params):
        """Oxygen level selected by c_ext, held at the fluid interface."""
        return params.c_sat if self.c_ext == "csat" else params.c_thr

    def c_threshold(self, params):
        """Oxygen level gating the quiescence switch H_c."""
        return params.c_thr if self.h_c_threshold == "thr" else params.c_apo

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))
