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
    assert cfg.scenario.k_g == "kg1"
    assert cfg.scenario.c_ext == "csat"


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
    """
    cfg = config.parse_config(text)
    s = cfg.scenario
    assert s.culture_mode == "perfused"
    assert s.ic_profile == "IC2"
    assert s.k_g == "kg2"
    assert s.c_ext == "cthr"
    assert s.node_count == 51
    assert s.dt == 1800.0
    assert s.t_end == 86400.0
    assert s.stride == 4
    assert s.h_r_convention == "inverted"
    assert s.boundary_flux_convention == "right"


def test_parameter_override():
    cfg = config.parse_config("mu = 2000.0\nK_ref = 2e-5")
    assert cfg.params.mu == 2000.0
    assert cfg.params.K_ref == 2e-5


@pytest.mark.parametrize("text,fragment", [
    ("bogus_key = 1", "unknown key"),
    ("k_g0 = 5.8e-6", "unknown key"),
    ("dt 3600", "expected 'key = value'"),
    ("dt =", "no value"),
    ("nodes = ten", "integer"),
    ("dt = fast", "number"),
    ("c_ext = blue", "c_ext"),
    ("dt = -5", "dt must be positive"),
    ("mu = -1", "mu must be positive"),
    ("nodes = 2", "at least 3 nodes"),
    ("nodes = 1", "at least 3 nodes"),
    ("L = 0", "length must be positive"),
    ("L = -1", "length must be positive"),
    ("L = nan", "length must be finite"),
    ("g_initial = nan", "g_initial must be finite"),
    ("k_g = nan", "k_g must be kg1 or kg2"),
    ("dt = inf", "dt must be finite"),
    ("K_half = -inf", "K_half must be finite"),
    ("tau_m = 0", "tau_m must be positive"),
    ("V_cell = 0", "V_cell must be positive"),
    ("E = -20", "E must be nonnegative"),
    ("V_cell = -5.236e-10", "V_cell must be positive"),
    ("T_end = 1e300\ndt = 1e-10", "t_end / dt must be finite"),
    ("R_cell = 1e300", "unknown key 'R_cell': .* set V_cell"),
    ("auto_dt_halving = true",
     "unknown key 'auto_dt_halving': every step .* is bisected"),
    *[(f"{key} = false", f"unknown key '{key}': every run writes all six CSV")
      for key in ("emit_timeseries", "emit_fields", "emit_xi_map",
                  "emit_diagnostics")],
    ("V_cell = 5e-324", "V_cell must keep c E k_GAG / V_cell finite"),
    ("k_g = kg3", "k_g must be kg1 or kg2"),
    ("k_g = -1e-6", "k_g must be kg1 or kg2"),
    ("k_g = 2.5e-6", r"k_g must be kg1 or kg2 \(set the rate itself as k_g1 "
                     r"or k_g2\), got '2.5e-6'"),
    ("k_g = 0", "k_g must be kg1 or kg2"),
    ("c_ext = Csat", "c_ext must be csat or cthr"),
    ("c_ext = saturation", "c_ext must be csat or cthr, got 'saturation'"),
    ("c_ext = threshold", "c_ext must be csat or cthr, got 'threshold'"),
    ("K_half = 0\nc_0 = 0", "K_half must be positive"),
    ("K_sat = 0", "K_sat must be positive"),
    ("boundary_flux_convention = up",
     "boundary_flux_convention must be left or right"),
    ("h_r_convention = sideways", "h_r_convention must be normal or inverted"),
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
    ("stride", 1, 0, "stride must be at least 1"),
    ("K_half", 5e-324, 0.0, "K_half must be positive"),
    ("K_sat", 5e-324, 0.0, "K_sat must be positive"),
])
def test_rule_accepts_its_boundary_and_rejects_beyond(key, inside, outside,
                                                      fragment):
    group, name, _ = config._KEYS[key]
    cfg = config.parse_config(f"{key} = {inside!r}")
    assert getattr(getattr(cfg, group), name) == inside
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        config.parse_config(f"{key} = {outside!r}")


# each accepted spelling of a named value: (key, text, the field value
# it sets)
@pytest.mark.parametrize("key,text,value", [
    ("c_ext", "csat", "csat"),
    ("c_ext", "cthr", "cthr"),
    ("k_g", "kg1", "kg1"),
    ("k_g", "kg2", "kg2"),
    ("h_r_convention", "normal", "normal"),
    ("h_r_convention", "inverted", "inverted"),
])
def test_every_spelling_sets_its_value(key, text, value):
    group, name, _ = config._KEYS[key]
    cfg = config.parse_config(f"{key} = {text}")
    got = getattr(getattr(cfg, group), name)
    assert got == value and type(got) is type(value)


def test_error_names_offending_line():
    with pytest.raises(ConfigError, match="line 3"):
        config.parse_config("dt = 3600\n# fine\nwhat = 1\n")


# a non-default value of each scenario key: (text, field value);
# each parameter key takes its default scaled by 1 + 1e-4
NON_DEFAULT = {
    "culture_mode": ("perfused", "perfused"),
    "ic_profile": ("IC2", "IC2"),
    "k_g": ("kg2", "kg2"),
    "c_ext": ("cthr", "cthr"),
    "L": ("0.02", 0.02),
    "nodes": ("51", 51),
    "T_end": ("7200", 7200.0),
    "dt": ("1800", 1800.0),
    "tol": ("1e-9", 1e-9),
    "max_iter": ("7", 7),
    "stride": ("4", 4),
    "h_r_convention": ("inverted", "inverted"),
    "h_c_threshold": ("apo", "apo"),
    "growth_model": ("G1", "G1"),
    "g_initial": ("0.25", 0.25),
    "boundary_flux_convention": ("right", "right"),
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
    part = dataclasses.replace(getattr(default, group), **{name: value})
    want = dataclasses.replace(default, **{group: part})
    assert want != default
    assert cfg == want


def test_preset_names_complete():
    assert len(set(config.PRESET_NAMES)) == 16
    for name in config.PRESET_NAMES:
        mode, ic, kg, cext = name.split("-")
        assert mode in ("static", "perfused")
        assert ic.upper() in IC_AMPLITUDES
        assert kg in ("kg1", "kg2")
        assert cext in ("csat", "cthr")
        s = config.preset(name).scenario
        assert (s.culture_mode, s.ic_profile, s.k_g, s.c_ext) == (
            mode, ic.upper(), kg, cext)
        # a preset is the config file of its four keys
        assert config.preset(name) == config.parse_config(
            f"culture_mode = {mode}\nic_profile = {ic.upper()}\n"
            f"k_g = {kg}\nc_ext = {cext}")


def test_preset_construction():
    cfg = config.preset("perfused-ic2-kg2-cthr")
    assert cfg.scenario.culture_mode == "perfused"
    assert cfg.scenario.ic_profile == "IC2"
    assert cfg.scenario.k_g == "kg2"
    assert cfg.scenario.c_ext == "cthr"
    cfg = config.preset("static-ic1-kg1-csat")
    assert cfg.scenario.culture_mode == "static"
    assert cfg.scenario.c_ext == "csat"
    # default horizon is the 30-day culture window
    assert cfg.scenario.t_end == 30 * SECONDS_PER_DAY


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        config.preset("perfused-ic3-kg1-csat")
    with pytest.raises(ConfigError):
        config.preset("static")
