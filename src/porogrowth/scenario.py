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
    the tabulated T_b and V_b. growth_rate selects k_g1/k_g2 or carries
    an explicit value (s^-1). c_ext_mode picks the external oxygen level
    held at the fluid interface for the whole run.
    """

    culture_mode: str = "static"        # static | perfused
    ic_profile: str = "IC1"             # IC1 | IC2
    growth_rate: str | float = "kg1"    # kg1 | kg2 | explicit s^-1
    c_ext_mode: str = "saturation"      # saturation | threshold
    length: float = 0.01                # cm (~100 um scaffold pore)
    node_count: int = 101
    t_end: float = 30.0 * SECONDS_PER_DAY
    dt: float = 3600.0
    tol: float = 1e-8
    max_iter: int = 100
    output_stride: int = 1
    # closure-convention knobs
    h_r_inverted: bool = False          # invert the anisotropy switch
    h_c_threshold: str = "thr"          # thr | apo
    growth_model: str = "G0"            # G0 (constant g) | G1 (surrogate)
    g_initial: float = 0.0              # constant g held by model G0
    darcy_dirichlet_side: str = "left"  # left: p(0)=0, V_b at L; right: swap
    auto_dt_halving: bool = False       # bisect dt on nonconvergence

    def __post_init__(self):
        check_fields(self, FIELD_RULES)
        n_steps = self.t_end / self.dt
        if not math.isfinite(n_steps):
            raise ConfigError(f"t_end / dt must be finite, got {n_steps}")
        if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
            raise ConfigError("t_end must be an integral number of dt steps")
        a_n, a_eta = self.amplitudes()
        if a_n + 3.0 * a_eta >= 1.0:
            raise ConfigError(
                "initial amplitudes leave no fluid fraction: "
                f"A_n + 3 A_eta = {a_n + 3.0 * a_eta}")

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

    def k_g(self, params):
        if self.growth_rate == "kg1":
            return params.k_g1
        if self.growth_rate == "kg2":
            return params.k_g2
        return float(self.growth_rate)

    def c_ext(self, params):
        return params.c_sat if self.c_ext_mode == "saturation" else params.c_thr

    def c_threshold(self, params):
        """Oxygen level gating the quiescence switch H_c."""
        return params.c_thr if self.h_c_threshold == "thr" else params.c_apo

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))
