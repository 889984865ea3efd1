"""Line-oriented run configuration and the 16 scenario presets.

The format is `key = value`, one per line, `#` starts a comment. Every
key has a default, so an empty file is a runnable configuration
(static culture, IC1, k_g1, external oxygen at saturation).
"""

from dataclasses import dataclass, fields

from .errors import ConfigError
from .params import PARAM_NAMES, ModelParams
from .scenario import ScenarioConfig

PRESET_NAMES = tuple(
    f"{mode}-{ic}-{kg}-{cext}"
    for mode in ("static", "perfused")
    for ic in ("ic1", "ic2")
    for kg in ("kg1", "kg2")
    for cext in ("csat", "cthr")
)


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: parameters, scenario and emission flags."""

    params: ModelParams = ModelParams()
    scenario: ScenarioConfig = ScenarioConfig()
    emit_timeseries: bool = True
    emit_fields: bool = True
    emit_xi_map: bool = True
    emit_diagnostics: bool = True


# ScenarioConfig field -> its config key, where the two names differ
_SCENARIO_KEYS = {
    "growth_rate": "k_g",
    "c_ext_mode": "c_ext",
    "length": "L",
    "node_count": "nodes",
    "t_end": "T_end",
    "output_stride": "stride",
    "darcy_dirichlet_side": "boundary_flux_convention",
}

# config key -> (group, field, field type): the value lands in field of
# RunConfig.params, RunConfig.scenario or, for group "emit", RunConfig
_KEYS = {
    **{name: ("params", name, float) for name in PARAM_NAMES},
    **{_SCENARIO_KEYS.get(f.name, f.name): ("scenario", f.name, f.type)
       for f in fields(ScenarioConfig)},
    **{f.name: ("emit", f.name, f.type)
       for f in fields(RunConfig) if f.name.startswith("emit_")},
}

# keys read by no computation -> what to do instead
_REMOVED_KEYS = {
    "mu_fl": "the fluid viscosity enters only through the permeability; "
             "set K_ref instead",
    "R_cell": "the ECM production reads the cell size only as a volume; "
              "set V_cell instead",
    "auto_dt_halving": "every step that does not converge is bisected; "
                       "delete the line",
}

# short spelling of c_ext, as in the preset names -> its c_ext_mode
_C_EXT_ALIASES = {"csat": "saturation", "cthr": "threshold"}

_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}

_WANTS = {bool: "a boolean", int: "an integer", float: "a number"}


def _parse_value(key, kind, raw, line_no):
    """raw as a value of the field type kind: str, bool, int, float, or
    str | float (a number if raw reads as one, otherwise the name).
    Which values a field accepts is params.FIELD_RULES's to decide."""
    if kind is str:
        return raw
    try:
        if kind is bool:
            return _BOOLEANS[raw.lower()]
        return int(raw) if kind is int else float(raw)
    except (KeyError, ValueError):
        if kind not in _WANTS:   # str | float: the name
            return raw
        raise ConfigError(f"line {line_no}: key {key!r} wants "
                          f"{_WANTS[kind]}, got {raw!r}") from None


def parse_config(text):
    """Parse configuration text into a RunConfig.

    Unknown or repeated keys, unparsable values and violated invariants
    raise ConfigError naming the offending line and key.
    """
    overrides = {"params": {}, "scenario": {}, "emit": {}}
    seen = {}   # key -> line that set it
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ConfigError(f"line {line_no}: key {key!r} has no value")
        if key not in _KEYS:
            hint = f": {_REMOVED_KEYS[key]}" if key in _REMOVED_KEYS else ""
            raise ConfigError(f"line {line_no}: unknown key {key!r}{hint}")
        if key in seen:
            raise ConfigError(
                f"line {line_no}: key {key!r} repeats line {seen[key]}")
        seen[key] = line_no
        group, name, kind = _KEYS[key]
        value = _parse_value(key, kind, raw, line_no)
        if name == "c_ext_mode":
            value = _C_EXT_ALIASES.get(value, value)
        overrides[group][name] = value
    return RunConfig(params=ModelParams(**overrides["params"]),
                     scenario=ScenarioConfig(**overrides["scenario"]),
                     **overrides["emit"])


def preset(name):
    """One of the 16 named scenario presets."""
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; valid names match "
            "(static|perfused)-(ic1|ic2)-(kg1|kg2)-(csat|cthr)")
    mode, ic, kg, cext = name.split("-")
    return parse_config(f"culture_mode = {mode}\nic_profile = {ic.upper()}\n"
                        f"k_g = {kg}\nc_ext = {cext}")
