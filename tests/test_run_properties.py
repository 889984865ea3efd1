"""Property test of whole runs: admissible parameters and scenarios either
give physical snapshots or fail with a typed PorogrowthError."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from porogrowth import coupling
from porogrowth.errors import PorogrowthError
from porogrowth.params import ModelParams
from porogrowth.scenario import ScenarioConfig
from porogrowth.state import NEG_TOL

#: parameters drawn as the default times 10^k, k in [-2, 2]
SCALED = ("c_0", "c_sat", "c_thr", "c_apo", "D_c_s", "D_c_fl", "V_b", "T_b",
          "R_n", "R_v", "R_q", "K_half", "beta", "k_apo", "k_qui", "k_deg",
          "k_g1", "k_g2", "E", "k_GAG", "K_sat", "D_eta", "lam", "mu",
          "tau_m", "K_ref", "V_cell")


@st.composite
def model_params(draw):
    defaults = ModelParams()
    values = {name: getattr(defaults, name)
              * 10.0 ** draw(st.floats(-2.0, 2.0), label=name)
              for name in SCALED}
    values["K_eq"] = draw(st.floats(0.01, 1.0), label="K_eq")
    values["phi_ecm_max"] = draw(st.floats(0.01, 0.9), label="phi_ecm_max")
    return dataclasses.replace(defaults, **values)


@st.composite
def scenarios(draw):
    dt = draw(st.sampled_from([60.0, 900.0, 3600.0, 21600.0]))
    return ScenarioConfig(
        culture_mode=draw(st.sampled_from(["static", "perfused"])),
        ic_profile=draw(st.sampled_from(["IC1", "IC2"])),
        k_g=draw(st.sampled_from(["kg1", "kg2"])),
        c_ext=draw(st.sampled_from(["csat", "cthr"])),
        node_count=draw(st.sampled_from([5, 11, 41])),
        dt=dt,
        t_end=3 * dt,
        max_iter=draw(st.sampled_from([5, 30, 100])),
        h_r_convention=draw(st.sampled_from(["normal", "inverted"])),
        h_c_threshold=draw(st.sampled_from(["thr", "apo"])),
        growth_model=draw(st.sampled_from(["G0", "G1"])),
        g_initial=draw(st.floats(-1e-2, 1e-2)),
        boundary_flux_convention=draw(st.sampled_from(["left", "right"])),
    )


def assert_physical(trajectory):
    """Every snapshot finite, c and the fractions >= -NEG_TOL, phi_fl in
    (0, 1), checked on the level arrays without MixtureState."""
    for state in trajectory.states:
        level = state.level
        assert np.all(np.isfinite(level))
        assert level[2:7].min() >= -NEG_TOL
        phi_fl = 1.0 - (level[3] + level[4] + level[5] + level[6])
        assert 0.0 < phi_fl.min() and phi_fl.max() < 1.0
    for values in trajectory.mid_series.values():
        assert np.all(np.isfinite(values))


# a NumPy RuntimeWarning (overflow, invalid value) fails the draw too:
# it is how a NaN would first show
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(params=model_params(), scenario=scenarios())
@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
def test_three_steps_stay_physical_or_fail_typed(params, scenario):
    try:
        trajectory = coupling.run(scenario, params)
    except PorogrowthError as exc:
        partial = getattr(exc, "partial_trajectory", None)
        if partial is not None:
            assert_physical(partial)
        return
    assert len(trajectory.states) == 4
    assert_physical(trajectory)
