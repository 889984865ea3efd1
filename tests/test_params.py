import dataclasses
import math

import pytest

from porogrowth.errors import ConfigError
from porogrowth.params import EPS_PHI, SHEAR_THRESHOLD_STRESS, ModelParams


def test_derived_moduli():
    p = ModelParams()
    assert p.H_A == pytest.approx(p.lam + 2.0 * p.mu)
    assert p.H_B == pytest.approx(3.0 * p.lam + 2.0 * p.mu)
    assert p.H_A == pytest.approx(8843.3)
    assert p.H_B == pytest.approx(19230.7)


def test_r_bar():
    p = ModelParams()
    # 10 mPa = 0.1 dyne cm^-2 divided by the shear modulus
    assert SHEAR_THRESHOLD_STRESS == 0.1
    assert p.r_bar == pytest.approx(0.1 / 1.8248e3)
    assert p.r_bar == pytest.approx(5.4801e-5, rel=1e-4)


def test_partition_ratio():
    p = ModelParams()
    assert p.k_partition == pytest.approx(0.075)


@pytest.mark.parametrize("field,value", [
    ("c_0", -1e-6),
    ("K_half", -1.0),
    ("mu", 0.0),
    ("K_eq", 0.0),
    ("K_eq", 1.5),
    ("phi_ecm_max", 1.0),
    ("tau_m", -1.0),
    ("mu", math.nan),
    ("D_eta", math.inf),
    ("lam", -math.inf),
    ("tau_m", math.nan),
    ("tau_m", -math.inf),
    ("D_c_fl", 0.0),
    ("D_eta", 0.0),
    ("K_ref", 0.0),
    # the harmonic edge mean 2 D D / (D + D) underflows to 0
    ("D_eta", 1e-200),
    ("D_c_fl", 1e-200),
    # ... and 2 D D overflows
    ("D_eta", 1e300),
    ("D_c_fl", 1e300),
    # divisors: 1 / tau_m in the kinetics, 1 / V_cell in the ECM production
    ("tau_m", 0.0),
    ("V_cell", 0.0),
    ("E", -20.0),
])
def test_invalid_parameters_rejected(field, value):
    with pytest.raises(ConfigError):
        ModelParams(**{field: value})


def test_infinite_tau_m_allowed():
    # tau_m = inf freezes the n -> q maturation channel
    p = ModelParams(tau_m=math.inf)
    assert 1.0 / p.tau_m == 0.0


def test_frozen():
    p = ModelParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.mu = 1.0


def test_eps_phi_is_small():
    assert 0.0 < EPS_PHI < 1e-3
