import importlib

import pytest

import telekf

MODULES = ["channel", "dataio", "filtering", "metrics", "simrunner", "sysid", "_kernels"]


def test_package_exports_the_documented_surface():
    assert set(telekf.__all__) == {
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
    }


@pytest.mark.parametrize("module", [telekf, *(importlib.import_module(f"telekf.{m}") for m in MODULES)])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
