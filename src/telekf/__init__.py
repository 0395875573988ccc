"""State estimation for teleoperated manipulators over impaired networks.

Pipeline: parse or synthesize master/patient trajectories (`dataio`),
identify a linear ARX model and realize it in state space (`sysid`), push
the patient-side stream through a delay/jitter/loss channel (`channel`),
filter it (`filtering`), and score scenario sweeps (`simrunner`, `cli`).
"""

from .channel import NetworkConfig, apply_channel
from .dataio import SyntheticSpec, TrajectorySet, gen_synthetic, parse_kinematics
from .filtering import StateEstimate, SystemModel
from .metrics import fit_percent, mse
from .simrunner import Scenario, ScenarioResult, run_scenario
from .sysid import ArxModel, arx_fit, arx_to_ss, simulate_arx

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ArxModel",
    "NetworkConfig",
    "Scenario",
    "ScenarioResult",
    "StateEstimate",
    "SyntheticSpec",
    "SystemModel",
    "TrajectorySet",
    "apply_channel",
    "arx_fit",
    "arx_to_ss",
    "fit_percent",
    "gen_synthetic",
    "mse",
    "parse_kinematics",
    "run_scenario",
    "simulate_arx",
]
