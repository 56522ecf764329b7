"""The benchmark tracer's contract with fsmac: `perfbench/tracer.py` wraps
functions by module attribute name, and its hooks bind each call's arguments
by parameter name. A renamed function or parameter breaks only a traced run,
so this checks both in one fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the parameters each hook of the tracer reads from the call it wraps
HOOK_PARAMETERS = {
    "experiments.trace_boundary": {"n_directions", "config"},
    "experiments.maximize_weighted_rate": {"config"},
    "experiments.estimate_error_rate": {"trials"},
    "experiments.conferencing_error_rate": {"trials"},
    "coding.encode": {"m0", "m1", "m2"},
    "coding.decode_joint_typicality": {"books"},
    "coding.sample_state_path": {"n"},
}

# install() replaces module attributes of fsmac, so it runs in its own
# process; it prints the parameters of every attribute it replaced
_INSTALL = """
import inspect, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from fsmac import coding, experiments, regions
mods = {"coding": coding, "experiments": experiments, "regions": regions}
before = {(m, name): fn for m, mod in mods.items() for name, fn in vars(mod).items()}
Tracer("t").install()
print(json.dumps({
    f"{m}.{name}": list(inspect.signature(fn).parameters)
    for m, mod in mods.items() for name, fn in vars(mod).items()
    if before.get((m, name)) is not fn
}))
"""


def test_tracer_installs_and_its_hooks_find_their_parameters():
    out = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench")], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    wrapped = json.loads(out.stdout)
    for name, params in HOOK_PARAMETERS.items():
        assert name in wrapped, f"the tracer no longer wraps {name}"
        assert params <= set(wrapped[name]), (name, wrapped[name])
