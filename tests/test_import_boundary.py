"""The theory commands load numpy and the standard library only; scipy is
imported by the first 4-grid transform.  Each case runs in a fresh
interpreter, since the test session itself has scipy loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import kahler_test_potential

from scalarflat import MetricModel4T
from scalarflat.curvature import save_metric

SRC = Path(__file__).resolve().parents[1] / "src"

# runs cli.run on the argv given as JSON and prints [exit code, scipy modules]
_PROBE = """
import contextlib, io, json, sys
from scalarflat import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(k for k in sys.modules
                               if k == "scipy" or k.startswith("scipy."))]))
"""


def fresh_run(argv):
    """(exit code, loaded scipy modules) of cli.run(argv) in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, modules


@pytest.mark.parametrize("argv", [
    ["classify", "ruled", "--genus", "2", "--m", "0"],
    ["classify", "split", "--genus", "3", "--deg-l", "1", "--n", "2"],
    ["classify", "minimal", "--class", "Ruled", "--genus", "2", "--m", "0"],
    ["rc-check", "--genus", "2", "--deg-l", "2", "--n", "2"],
    ["report", "--genus", "6", "--deg-l", "5", "--n", "2"],
    ["catalog", "--run-all"],
], ids=["classify-ruled", "classify-split", "classify-minimal", "rc-check", "report", "catalog"])
def test_theory_commands_never_import_scipy(argv):
    code, modules = fresh_run(argv)
    assert code == 0
    assert modules == []


def test_curvature_command_imports_scipy_on_its_first_transform(tmp_path):
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = save_metric(metric, tmp_path / "metric")
    code, modules = fresh_run(["curvature", "--metric", str(manifest)])
    assert code == 0
    # both scipy modules arrive together, so a solve never imports mid-way
    assert {"scipy.fft", "scipy.sparse.linalg"} <= set(modules)

