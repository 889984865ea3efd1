import pytest

from porogrowth import config
from porogrowth.errors import ConfigError
from porogrowth.params import ModelParams
from porogrowth.scenario import SECONDS_PER_DAY


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
    ("L = 0", "length must be positive"),
    ("L = nan", "length must be finite"),
    ("g_initial = nan", "g_initial must be finite"),
    ("k_g = nan", "growth_rate must be finite"),
    ("dt = inf", "dt must be finite"),
    ("K_half = -inf", "K_half must be finite"),
])
def test_bad_input_raises_config_error(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config.parse_config(text)


def test_error_names_offending_line():
    with pytest.raises(ConfigError, match="line 3"):
        config.parse_config("dt = 3600\n# fine\nwhat = 1\n")


def test_render_round_trip():
    cfg = config.parse_config(
        "culture_mode = perfused\nk_g = 3e-6\nmu = 1900\nstride = 7\n"
        "emit_diagnostics = false")
    again = config.parse_config(config.render(cfg))
    assert again == cfg


def test_render_round_trip_default():
    cfg = config.RunConfig()
    assert config.parse_config(config.render(cfg)) == cfg


def test_preset_names_complete():
    assert len(config.PRESET_NAMES) == 16
    assert len(set(config.PRESET_NAMES)) == 16
    for name in config.PRESET_NAMES:
        assert config.PRESET_PATTERN.match(name)


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
