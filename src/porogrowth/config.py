"""Line-oriented run configuration and the 16 scenario presets.

The format is `key = value`, one per line, `#` starts a comment. Every
key has a default, so an empty file is a runnable configuration
(static culture, IC1, k_g1, external oxygen at saturation).
"""

import dataclasses
import re
from dataclasses import dataclass

from .errors import ConfigError
from .params import PARAM_NAMES, ModelParams
from .scenario import ScenarioConfig

PRESET_PATTERN = re.compile(
    r"^(static|perfused)-(ic1|ic2)-(kg1|kg2)-(csat|cthr)$")

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


_EMIT_KEYS = ("emit_timeseries", "emit_fields", "emit_xi_map",
              "emit_diagnostics")

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

_C_EXT_ALIASES = {"csat": "saturation", "cthr": "threshold",
                  "saturation": "saturation", "threshold": "threshold"}


def _parse_bool(raw, key, line_no):
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"line {line_no}: key {key!r} wants a boolean, got {raw!r}")


def _parse_scenario_value(key, raw, line_no):
    if key == "k_g":
        if raw in ("kg1", "kg2"):
            return raw
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: k_g must be kg1, kg2 or a rate, got {raw!r}"
            ) from None
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
    if key in ("culture_mode", "ic_profile", "h_c_threshold",
               "growth_model", "boundary_flux_convention"):
        return raw
    if key in ("nodes", "max_iter", "stride"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: key {key!r} wants an integer, got {raw!r}"
            ) from None
    if key == "auto_dt_halving":
        return _parse_bool(raw, key, line_no)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: key {key!r} wants a number, got {raw!r}"
        ) from None


def parse_config(text):
    """Parse configuration text into a RunConfig.

    Unknown keys, unparsable values and violated invariants raise
    ConfigError naming the offending line and key.
    """
    param_overrides = {}
    scenario_overrides = {}
    emit_overrides = {}
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
        if key in PARAM_NAMES:
            try:
                param_overrides[key] = float(raw)
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: key {key!r} wants a number, got {raw!r}"
                ) from None
        elif key in _SCENARIO_KEYS:
            scenario_overrides[_SCENARIO_KEYS[key]] = _parse_scenario_value(
                key, raw, line_no)
        elif key in _EMIT_KEYS:
            emit_overrides[key] = _parse_bool(raw, key, line_no)
        elif key == "mu_fl":
            raise ConfigError(
                f"line {line_no}: unknown key 'mu_fl': the fluid viscosity "
                "enters only through the permeability; set K_ref instead")
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    try:
        return RunConfig(
            params=ModelParams(**param_overrides),
            scenario=ScenarioConfig(**scenario_overrides),
            **emit_overrides)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def render(config):
    """Render a RunConfig as configuration text; parse round-trips it."""
    lines = []
    for name in PARAM_NAMES:
        lines.append(f"{name} = {getattr(config.params, name)!r}")
    inverse = {v: k for k, v in _SCENARIO_KEYS.items()}
    for f in dataclasses.fields(ScenarioConfig):
        key = inverse[f.name]
        value = getattr(config.scenario, f.name)
        if key == "c_ext":
            value = "csat" if value == "saturation" else "cthr"
        elif key == "h_r_convention":
            value = "inverted" if value else "normal"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    for key in _EMIT_KEYS:
        lines.append(f"{key} = {'true' if getattr(config, key) else 'false'}")
    return "\n".join(lines) + "\n"


def preset(name):
    """One of the 16 named scenario presets."""
    m = PRESET_PATTERN.match(name)
    if m is None:
        raise ConfigError(
            f"unknown preset {name!r}; valid names match "
            "(static|perfused)-(ic1|ic2)-(kg1|kg2)-(csat|cthr)")
    mode, ic, kg, cext = m.groups()
    scenario = ScenarioConfig(
        culture_mode=mode,
        ic_profile=ic.upper(),
        growth_rate=kg,
        c_ext_mode=_C_EXT_ALIASES[cext],
    )
    return RunConfig(params=ModelParams(), scenario=scenario)
