"""porogrowth: 1D poroelastic mixture simulation of scaffold tissue growth.

A solid-fluid mixture (four cell/ECM populations plus interstitial
fluid) is coupled to oxygen transport and mechanobiological switching,
advanced by backward Euler with a per-step fixed-point linearization,
and discretized with linear finite elements (exponential-fitting
stabilization for the transport equations).
"""

from .config import RunConfig, parse_config, preset
from .coupling import FixedPointReport, fixed_point_step, run
from .mesh import Mesh1D, build_mesh
from .params import ModelParams
from .scenario import ScenarioConfig
from .state import MixtureState, Trajectory, initial_state, sample_xi_field

__all__ = [
    "FixedPointReport",
    "Mesh1D",
    "MixtureState",
    "ModelParams",
    "RunConfig",
    "ScenarioConfig",
    "Trajectory",
    "build_mesh",
    "fixed_point_step",
    "initial_state",
    "parse_config",
    "preset",
    "run",
    "sample_xi_field",
]

__version__ = "0.1.0"
