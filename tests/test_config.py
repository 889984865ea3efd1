import dataclasses
import math
import re

import pytest

from porogrowth import config
from porogrowth.errors import ConfigError
from porogrowth.params import _D_MAX, ModelParams
from porogrowth.scenario import IC_AMPLITUDES, SECONDS_PER_DAY


def test_empty_input_is_runnable_default():
    cfg = config.parse_config("")
    assert cfg.params == ModelParams()
    assert cfg.scenario.culture_mode == "static"
    assert cfg.scenario.ic_profile == "IC1"
    assert cfg.scenario.growth_rate == "kg1"
    assert cfg.scenario.c_ext_mode == "saturation"
    assert cfg.emit_timeseries and cfg.emit_fields


def test_comments_and_blank_lines_ignored():
    cfg = config.parse_config("\n# full line comment\n\ndt = 1800  # trailing\n")
    assert cfg.scenario.dt == 1800.0


def test_scenario_keys():
    text = """
    culture_mode = perfused
    ic_profile = IC2
    k_g = kg2
    c_ext = cthr
    nodes = 51
    dt = 1800
    T_end = 86400
    stride = 4
    h_r_convention = inverted
    boundary_flux_convention = right
    auto_dt_halving = true
    """
    cfg = config.parse_config(text)
    s = cfg.scenario
    assert s.culture_mode == "perfused"
    assert s.ic_profile == "IC2"
    assert s.growth_rate == "kg2"
    assert s.c_ext_mode == "threshold"
    assert s.node_count == 51
    assert s.dt == 1800.0
    assert s.t_end == 86400.0
    assert s.output_stride == 4
    assert s.h_r_inverted is True
    assert s.darcy_dirichlet_side == "right"
    assert s.auto_dt_halving is True


def test_explicit_growth_rate():
    cfg = config.parse_config("k_g = 2.5e-6")
    assert cfg.scenario.growth_rate == 2.5e-6


def test_parameter_override():
    cfg = config.parse_config("mu = 2000.0\nK_ref = 2e-5")
    assert cfg.params.mu == 2000.0
    assert cfg.params.K_ref == 2e-5


def test_emit_flags():
    cfg = config.parse_config("emit_fields = false\nemit_xi_map = off")
    assert cfg.emit_fields is False
    assert cfg.emit_xi_map is False
    assert cfg.emit_timeseries is True


@pytest.mark.parametrize("text,fragment", [
    ("bogus_key = 1", "unknown key"),
    ("k_g0 = 5.8e-6", "unknown key"),
    ("dt 3600", "expected 'key = value'"),
    ("dt =", "no value"),
    ("nodes = ten", "integer"),
    ("dt = fast", "number"),
    ("c_ext = blue", "c_ext"),
    ("auto_dt_halving = maybe", "boolean"),
    ("dt = -5", "dt must be positive"),
    ("mu = -1", "mu must be positive"),
    ("nodes = 2", "at least 3 nodes"),
    ("nodes = 1", "at least 3 nodes"),
    ("L = 0", "length must be positive"),
    ("L = -1", "length must be positive"),
    ("L = nan", "length must be finite"),
    ("g_initial = nan", "g_initial must be finite"),
    ("k_g = nan", "growth_rate must be finite"),
    ("dt = inf", "dt must be finite"),
    ("K_half = -inf", "K_half must be finite"),
    ("tau_m = 0", "tau_m must be positive"),
    ("V_cell = 0", "V_cell must be positive"),
    ("E = -20", "E must be nonnegative"),
    ("V_cell = -5.236e-10", "V_cell must be positive"),
    ("T_end = 1e300\ndt = 1e-10", "t_end / dt must be finite"),
    ("R_cell = 1e300", "unknown key 'R_cell': .* set V_cell"),
    ("dt = 3600\ndt = 7200", "line 2: key 'dt' repeats line 1"),
])
def test_bad_input_raises_config_error(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config.parse_config(text)


# each single-field rule at its edge: (key, boundary value it accepts,
# nearest value outside it, words of the rejection)
@pytest.mark.parametrize("key,inside,outside,fragment", [
    ("K_eq", 1.0, 0.0, "K_eq must lie in (0, 1]"),
    ("phi_ecm_max", math.nextafter(1.0, 0.0), 1.0,
     "phi_ecm_max must lie in (0, 1)"),
    ("E", 0.0, -5e-324, "E must be nonnegative"),
    ("tau_m", math.inf, 0.0, "tau_m must be positive"),
    ("D_eta", _D_MAX, math.nextafter(_D_MAX, math.inf),
     "D_eta must be positive and in"),
    ("nodes", 3, 2, "at least 3 nodes"),
    ("T_end", 0.0, -3600.0, "t_end must be nonnegative"),
    ("max_iter", 1, 0, "max_iter must be at least 1"),
    ("stride", 1, 0, "output_stride must be at least 1"),
])
def test_rule_accepts_its_boundary_and_rejects_beyond(key, inside, outside,
                                                      fragment):
    group, name, _ = config._KEYS[key]
    cfg = config.parse_config(f"{key} = {inside!r}")
    assert getattr(getattr(cfg, group), name) == inside
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        config.parse_config(f"{key} = {outside!r}")


def test_error_names_offending_line():
    with pytest.raises(ConfigError, match="line 3"):
        config.parse_config("dt = 3600\n# fine\nwhat = 1\n")


# a non-default value of each scenario and emit key: (text, field value);
# each parameter key takes its default scaled by 1 + 1e-4
NON_DEFAULT = {
    "culture_mode": ("perfused", "perfused"),
    "ic_profile": ("IC2", "IC2"),
    "k_g": ("3e-6", 3e-6),
    "c_ext": ("cthr", "threshold"),
    "L": ("0.02", 0.02),
    "nodes": ("51", 51),
    "T_end": ("7200", 7200.0),
    "dt": ("1800", 1800.0),
    "tol": ("1e-9", 1e-9),
    "max_iter": ("7", 7),
    "stride": ("4", 4),
    "h_r_convention": ("inverted", True),
    "h_c_threshold": ("apo", "apo"),
    "growth_model": ("G1", "G1"),
    "g_initial": ("0.25", 0.25),
    "boundary_flux_convention": ("right", "right"),
    "auto_dt_halving": ("yes", True),
    "emit_timeseries": ("false", False),
    "emit_fields": ("off", False),
    "emit_xi_map": ("no", False),
    "emit_diagnostics": ("0", False),
}


@pytest.mark.parametrize("key", sorted(config._KEYS))
def test_every_key_sets_its_field(key):
    group, name, _ = config._KEYS[key]
    default = config.RunConfig()
    if group == "params":
        value = getattr(default.params, name) * (1.0 + 1e-4)
        text = repr(value)
    else:
        text, value = NON_DEFAULT[key]
    cfg = config.parse_config(f"{key} = {text}")
    if group == "emit":
        want = dataclasses.replace(default, **{name: value})
    else:
        part = dataclasses.replace(getattr(default, group), **{name: value})
        want = dataclasses.replace(default, **{group: part})
    assert want != default
    assert cfg == want


def test_preset_names_complete():
    assert len(set(config.PRESET_NAMES)) == 16
    c_ext = {"csat": "saturation", "cthr": "threshold"}
    for name in config.PRESET_NAMES:
        mode, ic, kg, cext = name.split("-")
        assert mode in ("static", "perfused")
        assert ic.upper() in IC_AMPLITUDES
        assert kg in ("kg1", "kg2")
        assert cext in c_ext
        s = config.preset(name).scenario
        assert (s.culture_mode, s.ic_profile, s.growth_rate, s.c_ext_mode) == (
            mode, ic.upper(), kg, c_ext[cext])


def test_preset_construction():
    cfg = config.preset("perfused-ic2-kg2-cthr")
    assert cfg.scenario.culture_mode == "perfused"
    assert cfg.scenario.ic_profile == "IC2"
    assert cfg.scenario.growth_rate == "kg2"
    assert cfg.scenario.c_ext_mode == "threshold"
    cfg = config.preset("static-ic1-kg1-csat")
    assert cfg.scenario.culture_mode == "static"
    assert cfg.scenario.c_ext_mode == "saturation"
    # default horizon is the 30-day culture window
    assert cfg.scenario.t_end == 30 * SECONDS_PER_DAY


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        config.preset("perfused-ic3-kg1-csat")
    with pytest.raises(ConfigError):
        config.preset("static")
