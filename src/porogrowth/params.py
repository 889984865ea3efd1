"""Model parameter set with its defaults and derived moduli.

Units are CGS throughout: stresses in dyne cm^-2, concentrations in
g cm^-3, lengths in cm, times in s. Stress inputs quoted in mPa convert
as 1 mPa = 1e-2 dyne cm^-2 (so the perfusion stress of 100 mPa is stored
as 1 dyne cm^-2 and the 10 mPa shear threshold as 0.1 dyne cm^-2).

The Lame parameters are printed in the source table with units
dyne cm^-3; a modulus must carry dyne cm^-2 and they are interpreted as
such (typographical issue, not rescaled).
"""

import math
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError

#: anisotropy threshold stress: 10 mPa expressed in dyne cm^-2
SHEAR_THRESHOLD_STRESS = 0.1

#: smallest admissible fluid fraction inside solver coefficients
EPS_PHI = 1e-6

#: smallest admissible diffusivity: its square is a normal float
_D_MIN = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class ModelParams:
    """All scalar model constants (CGS units)."""

    # oxygen concentrations (g cm^-3)
    c_0: float = 5.0e-6
    c_sat: float = 6.4e-6
    c_thr: float = 1.6e-6
    c_apo: float = 3.2e-7
    # oxygen transport
    K_eq: float = 0.1
    D_c_s: float = 0.75e-5   # cm^2 s^-1, solid phase
    D_c_fl: float = 1.0e-5   # cm^2 s^-1, fluid phase
    # perfusion boundary data (applied only in perfused scenarios)
    V_b: float = 50.0e-4     # cm s^-1
    T_b: float = 1.0         # dyne cm^-2 (= 100 mPa)
    # oxygen consumption (g cm^-3 s^-1)
    R_n: float = 3.9e-8
    R_v: float = 3.9e-8
    R_q: float = 1.0e-8
    K_half: float = 3.2e-6   # g cm^-3
    # cell-state kinetics (s^-1 unless noted)
    beta: float = 1.0e-5     # single A->B transition rate
    k_apo: float = 3.858e-7
    k_qui: float = 3.858e-7
    k_deg: float = 7.7e-7
    k_g1: float = 1.0e-7
    k_g2: float = 1.0e-5
    E: float = 20.0          # expansion coefficient (-)
    k_GAG: float = 8.61e-11  # cm^6 cell^-1 s^-1 g^-1
    K_sat: float = 1.927e-6  # g cm^-3
    D_eta: float = 1.0e-9    # cm^2 s^-1, cells and ECM alike
    # solid mechanics (dyne cm^-2)
    lam: float = 5.1937e3
    mu: float = 1.8248e3
    phi_ecm_max: float = 0.1
    R_cell: float = 5.0e-4   # cm
    V_cell: float = 5.236e-10  # cm^3
    tau_m: float = 172800.0  # s
    K_ref: float = 1.67e-5   # cm^3 s g^-1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # an infinite maturation time switches that channel off
            if not (math.isfinite(value)
                    or (f.name == "tau_m" and value == math.inf)):
                raise ConfigError(f"parameter {f.name} must be finite, got {value}")
        nonneg = (
            "c_0", "c_sat", "c_thr", "c_apo", "D_c_s", "R_n", "R_v",
            "R_q", "K_half", "beta", "k_apo", "k_qui", "k_deg", "k_g1",
            "k_g2", "k_GAG", "K_sat", "tau_m",
        )
        for name in nonneg:
            if getattr(self, name) < 0.0:
                raise ConfigError(f"parameter {name} must be nonnegative")
        # K_ref = 0 drops the Darcy term from the continuity rows; the
        # equal-order (u, p) pair then gives a node-to-node oscillating p
        if self.K_ref <= 0.0:
            raise ConfigError("parameter K_ref must be positive")
        # below sqrt(tiny), the harmonic edge mean 2 d d / (d + d) of a
        # diffusivity underflows towards 0
        for name in ("D_c_fl", "D_eta"):
            if getattr(self, name) < _D_MIN:
                raise ConfigError(f"parameter {name} must be positive and at "
                                  f"least {_D_MIN:.3g}, got {getattr(self, name)}")
        if self.mu <= 0.0:
            raise ConfigError("shear modulus mu must be positive")
        if self.lam + 2.0 * self.mu <= 0.0:
            raise ConfigError("aggregate modulus lam + 2 mu must be positive")
        if not 0.0 < self.K_eq <= 1.0:
            raise ConfigError("K_eq must lie in (0, 1]")
        if not 0.0 < self.phi_ecm_max < 1.0:
            raise ConfigError("phi_ecm_max must lie in (0, 1)")
        sphere = (4.0 / 3.0) * math.pi * self.R_cell**3
        if abs(self.V_cell - sphere) / self.V_cell >= 1e-3:
            raise ConfigError(
                "V_cell inconsistent with R_cell: "
                f"{self.V_cell} vs (4/3) pi R^3 = {sphere}"
            )

    # derived moduli -------------------------------------------------

    @property
    def H_A(self):
        """Aggregate modulus lam + 2 mu."""
        return self.lam + 2.0 * self.mu

    @property
    def H_B(self):
        return 3.0 * self.lam + 2.0 * self.mu

    @property
    def r_bar(self):
        """Anisotropy threshold on the indicator r (dimensionless)."""
        return SHEAR_THRESHOLD_STRESS / self.mu

    @property
    def k_partition(self):
        """Oxygen partition ratio k = K_eq * D_c_s / D_c_fl."""
        return self.K_eq * self.D_c_s / self.D_c_fl


PARAM_NAMES = tuple(f.name for f in fields(ModelParams))
