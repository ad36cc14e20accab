"""Cold-start guard: numpy is the only installed package a process loads.

Every fresh interpreter that simulates (``repro simulate``, a job shard,
a fleet agent) pays for whatever its imports pull in; a statistics
library once cost about a second of each start.  This is a structural
guard, not a timing bound: a fresh interpreter imports each entry point,
runs a small population simulation, and must have loaded nothing from
site-packages except numpy.
"""

import json
import os
import subprocess
import sys

import repro

ENTRY_POINTS = (
    "repro.cli",
    "repro.simulate",
    "repro.jobs.executor",
    "repro.fleet.agent",
    "repro.service.async_server",
)

SCRIPT = """
import importlib, json, sys, sysconfig
before = set(sys.modules)
for name in {entry_points!r}:
    importlib.import_module(name)
from repro.service.simulation import run_simulation
from repro.service.specs import SimulationSpec
_, result, _ = run_simulation(SimulationSpec(sessions=64, preset="synthetic", seed=0))
assert result.kernel_sessions == 64, result.kernel_sessions
roots = {{sysconfig.get_paths()[k] for k in ("purelib", "platlib")}}
installed = sorted(
    name for name, module in list(sys.modules.items())
    if name not in before
    and str(getattr(module, "__file__", None) or "").startswith(tuple(roots))
)
print(json.dumps(installed))
"""


def test_fresh_interpreter_loads_no_installed_package_but_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(entry_points=ENTRY_POINTS)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    installed = json.loads(out)
    assert any(name.split(".")[0] == "numpy" for name in installed)
    assert [name for name in installed if name.split(".")[0] != "numpy"] == []
