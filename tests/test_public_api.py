import copy
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import telekf
from conftest import identified_system, reference_dataset
from telekf.channel import NetworkConfig
from telekf.filtering import initial_estimate
from telekf.simrunner import Scenario, run_scenario, run_sweep
from telekf.sysid import order_sweep

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


def test_a_fresh_import_loads_no_submodule_and_resolves_each_attribute_on_access():
    code = "\n".join([
        "import json, sys",
        "import telekf",
        "loaded = sorted(name for name in sys.modules if name.startswith('telekf.'))",
        "unresolved = [name for name in telekf.__all__[1:]",
        "              if getattr(telekf, name) is not getattr(sys.modules[getattr(telekf, name).__module__], name)]",
        f"modules = [m for m in {[*MODULES, 'cli', 'errors']!r} if getattr(telekf, m) is not sys.modules['telekf.' + m]]",
        # what perfbench/run.py reads through the package
        "read = [telekf._kernels.NUMBA_ENABLED, telekf.Scenario.__name__, callable(telekf.sysid.order_sweep)]",
        "print(json.dumps([loaded, unresolved, modules, read, hasattr(telekf, 'no_such_name')]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(telekf.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[], [], [], [False, "Scenario", True], False]


def test_types_that_hold_arrays_compare_and_hash_by_identity():
    data = reference_dataset(n_samples=200)
    system = identified_system(data)
    [record] = order_sweep(data, data, (2,), (2,), (1,))
    result = run_scenario(Scenario(model=system, network=NetworkConfig(n_p=0.2), data=data))
    objects = [
        data, record["model"], record["report"], system, initial_estimate(system, data.outputs[0]),
        result.trace, Scenario(model=system, network=NetworkConfig(), data=data), result,
        run_sweep(system, data, [(0.0, 0.0, 0.0)], [0]),
        telekf.SyntheticSpec(generator=record["model"], n_samples=10, seed=0),
    ]
    assert {type(obj).__name__ for obj in objects} == {
        "TrajectorySet", "SyntheticSpec", "SystemModel", "StateEstimate", "FilterTrace",
        "ArxModel", "FitReport", "Scenario", "ScenarioResult", "SweepTable",
    }
    for obj in objects:
        twin = copy.copy(obj)  # the same field values
        assert obj == obj and obj != twin and not obj == twin
        assert {obj: 1, twin: 2}[obj] == 1
        assert obj in [twin, obj] and twin not in [obj]
    # the types of plain values keep value equality
    assert NetworkConfig(1, 2, 0.1, 3) == NetworkConfig(1, 2, 0.1, 3)
    assert copy.deepcopy(result.channel_stats) == result.channel_stats
