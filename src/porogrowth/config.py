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


# config key -> ScenarioConfig field (identity unless renamed)
_SCENARIO_KEYS = {
    "culture_mode": "culture_mode",
    "ic_profile": "ic_profile",
    "k_g": "growth_rate",
    "c_ext": "c_ext_mode",
    "L": "length",
    "nodes": "node_count",
    "T_end": "t_end",
    "dt": "dt",
    "tol": "tol",
    "max_iter": "max_iter",
    "stride": "output_stride",
    "h_r_convention": "h_r_inverted",
    "h_c_threshold": "h_c_threshold",
    "growth_model": "growth_model",
    "g_initial": "g_initial",
    "boundary_flux_convention": "darcy_dirichlet_side",
    "auto_dt_halving": "auto_dt_halving",
}

_SCENARIO_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}

# config key -> (group, field, field type): the value lands in field of
# RunConfig.params, RunConfig.scenario or, for group "emit", RunConfig
_KEYS = {
    **{name: ("params", name, float) for name in PARAM_NAMES},
    **{key: ("scenario", name, _SCENARIO_TYPES[name])
       for key, name in _SCENARIO_KEYS.items()},
    **{f.name: ("emit", f.name, f.type)
       for f in fields(RunConfig) if f.name.startswith("emit_")},
}

# keys read by no computation -> what to set instead
_REMOVED_KEYS = {
    "mu_fl": "the fluid viscosity enters only through the permeability; "
             "set K_ref instead",
    "R_cell": "the ECM production reads the cell size only as a volume; "
              "set V_cell instead",
}

_C_EXT_ALIASES = {"csat": "saturation", "cthr": "threshold",
                  "saturation": "saturation", "threshold": "threshold"}


def _parse_value(key, kind, raw, line_no):
    """raw as a value of the field type kind: str, int, float or bool."""
    if key == "c_ext":
        if raw not in _C_EXT_ALIASES:
            raise ConfigError(
                f"line {line_no}: c_ext must be csat or cthr, got {raw!r}")
        return _C_EXT_ALIASES[raw]
    if key == "h_r_convention":
        if raw not in ("normal", "inverted"):
            raise ConfigError(
                f"line {line_no}: h_r_convention must be normal or inverted")
        return raw == "inverted"
    if kind is str or (key == "k_g" and raw in ("kg1", "kg2")):
        return raw
    if kind is bool:
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigError(
            f"line {line_no}: key {key!r} wants a boolean, got {raw!r}")
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError:
        if key == "k_g":
            message = f"k_g must be kg1, kg2 or a rate, got {raw!r}"
        else:
            wants = "an integer" if kind is int else "a number"
            message = f"key {key!r} wants {wants}, got {raw!r}"
        raise ConfigError(f"line {line_no}: {message}") from None


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
        overrides[group][name] = _parse_value(key, kind, raw, line_no)
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
    return RunConfig(scenario=ScenarioConfig(
        culture_mode=mode,
        ic_profile=ic.upper(),
        growth_rate=kg,
        c_ext_mode=_C_EXT_ALIASES[cext],
    ))
