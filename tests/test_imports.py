"""Which heavy modules a fresh process loads.

scipy is imported only where an exact generator is assembled, and
scipy.sparse alone: no exact run, the stationary solve's closed-class
certificate included, loads scipy.sparse.csgraph. The process pool loads
only when replicas go to more than one worker. Each case runs in a new
interpreter, since this test process has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the CLI, runs it on the config path given, if any, and prints the
# CLI's exit code and the watched modules that were loaded.
_PROBE = """
import json, sys
import spinbond, spinbond.cli
code = spinbond.cli.main(["run", sys.argv[1]]) if len(sys.argv) > 1 else None
watched = sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.") or name == "concurrent.futures.process"
)
print(json.dumps({"code": code, "modules": watched}))
"""


def _loaded(tmp_path, cfg=None):
    """The CLI's exit code and the watched modules of one fresh process."""
    args = [sys.executable, "-c", _PROBE]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"))))
        args.append(str(path))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(args, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["code"], set(report["modules"])


def test_importing_the_cli_loads_no_scipy_and_no_process_pool(tmp_path):
    code, modules = _loaded(tmp_path)
    assert code is None
    assert modules == set()


@pytest.mark.parametrize(
    "cfg",
    [
        dict(experiment="raw-simulate", seed=6, graph="cycle:6", t_max=1.0,
             observables=["site0=+1"], replicas=5),
        # cycle:24 is above the forward cap, so oracle 'auto' runs Monte Carlo only.
        dict(experiment="mu-dyn", seed=3, graph="cycle:24", sites=[0, 12], replicas=200,
             oracle="auto"),
    ],
    ids=["raw-simulate", "mu-dyn-above-cap"],
)
def test_monte_carlo_runs_load_no_scipy(tmp_path, cfg):
    code, modules = _loaded(tmp_path, cfg)
    assert code == 0
    assert modules == set()


def test_exact_duality_check_loads_sparse_but_not_csgraph(tmp_path):
    cfg = dict(experiment="duality-check", seed=1, graph="path:3", k=2, oracle="on")
    code, modules = _loaded(tmp_path, cfg)
    assert code == 0
    assert "scipy.sparse" in modules
    assert "scipy.sparse.csgraph" not in modules


@pytest.mark.parametrize(
    "cfg",
    [
        dict(experiment="stationary-compare", seed=2, graph="path:3", p=0.3, replicas=0,
             oracle="on"),
        dict(experiment="mu-dyn", seed=3, graph="path:3", sites=[0, 2], replicas=20,
             oracle="on"),
    ],
    ids=["stationary-compare", "mu-dyn"],
)
def test_exact_stationary_runs_load_sparse_but_not_csgraph(tmp_path, cfg):
    code, modules = _loaded(tmp_path, cfg)
    assert code == 0
    assert "scipy.sparse" in modules
    assert "scipy.sparse.csgraph" not in modules
