import dataclasses
import math

import pytest

from porogrowth.params import ModelParams


def frozen_kinetics_params(**overrides):
    """Parameters with every reaction channel switched off.

    tau_m = inf stops maturation; all growth, transition, death and
    synthesis rates are zero; the oxygen sink is removed. Transport
    (diffusion, advection, poroelasticity) is untouched.
    """
    base = dict(
        tau_m=math.inf, k_g1=0.0, k_g2=0.0, beta=0.0, k_qui=0.0, k_apo=0.0,
        k_deg=0.0, k_GAG=0.0, R_n=0.0, R_v=0.0, R_q=0.0,
    )
    base.update(overrides)
    return dataclasses.replace(ModelParams(), **base)


@pytest.fixture
def frozen_params():
    return frozen_kinetics_params()


def lagged(phi, g, u_prev):
    """The lagged-state arguments of poroelastic.assemble: the species,
    their fluid fraction, the growth distortions and the last level's
    displacement."""
    return phi, 1.0 - phi.sum(axis=0), g, u_prev
