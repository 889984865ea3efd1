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

#: admissible diffusivities d: 2 d d in the harmonic edge mean of D_c_fl
#: stays normal and finite; D_eta, used as is, keeps the same bounds
_D_MIN = math.sqrt(sys.float_info.min)
_D_MAX = math.sqrt(sys.float_info.max / 2)


def _one_of(*choices):
    return choices.__contains__, "must be " + " or ".join(choices)


_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")
# K_ref = 0 drops the Darcy term from the continuity rows; the equal-order
# (u, p) pair then gives a node-to-node oscillating p; mu, tau_m and
# V_cell are divisors, and so are the half-saturation constants K_half
# and K_sat of c / (K + c) at c = 0
_POSITIVE = (lambda v: v > 0.0, "must be positive")

#: field name of ModelParams or ScenarioConfig -> (test, words): the one
#: rule that field's value must pass on its own
FIELD_RULES = {
    **dict.fromkeys(
        ("c_0", "c_sat", "c_thr", "c_apo", "D_c_s", "R_n", "R_v", "R_q",
         "beta", "k_apo", "k_qui", "k_deg", "k_g1", "k_g2", "E", "k_GAG",
         "t_end"), _NONNEGATIVE),
    **dict.fromkeys(
        ("K_half", "K_sat", "K_ref", "mu", "tau_m", "V_cell", "length", "dt",
         "tol"), _POSITIVE),
    **dict.fromkeys(("D_c_fl", "D_eta"), (
        lambda v: _D_MIN <= v <= _D_MAX,
        f"must be positive and in [{_D_MIN:.3g}, {_D_MAX:.3g}]")),
    "K_eq": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "phi_ecm_max": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "culture_mode": _one_of("static", "perfused"),
    "ic_profile": _one_of("IC1", "IC2"),
    "k_g": (("kg1", "kg2").__contains__,
            "must be kg1 or kg2 (set the rate itself as k_g1 or k_g2)"),
    "c_ext": _one_of("csat", "cthr"),
    "node_count": (lambda v: v >= 3, "must be at least 3 nodes"),
    **dict.fromkeys(("max_iter", "stride"),
                    (lambda v: v >= 1, "must be at least 1")),
    "h_r_convention": _one_of("normal", "inverted"),
    "h_c_threshold": _one_of("thr", "apo"),
    "growth_model": _one_of("G0", "G1"),
    "boundary_flux_convention": _one_of("left", "right"),
}


def check_fields(obj, table):
    """Raise ConfigError naming the first field of the dataclass obj whose
    number is not finite (tau_m = inf excepted: it switches maturation
    off) or whose value fails its rule in table."""
    for f in fields(obj):
        name, value = f.name, getattr(obj, f.name)
        if not (isinstance(value, str) or math.isfinite(value)
                or (name == "tau_m" and value == math.inf)):
            raise ConfigError(f"{name} must be finite, got {value}")
        test, words = table.get(name, (None, None))
        if test is not None and not test(value):
            raise ConfigError(f"{name} {words}, got {value!r}")


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
    V_cell: float = 5.236e-10  # cm^3
    tau_m: float = 172800.0  # s
    K_ref: float = 1.67e-5   # cm^3 s g^-1

    def __post_init__(self):
        check_fields(self, FIELD_RULES)
        if self.lam + 2.0 * self.mu <= 0.0:
            raise ConfigError("aggregate modulus lam + 2 mu must be positive")
        c_max = max(self.c_0, self.c_sat, self.c_thr)
        if not math.isfinite(c_max * self.E * self.k_GAG / self.V_cell):
            raise ConfigError("V_cell must keep c E k_GAG / V_cell finite "
                              f"at c = {c_max!r}, got {self.V_cell!r}")

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
