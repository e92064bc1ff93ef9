"""Whole result files pinned by sha256 for fixed configs.

The writer's tests compare it with ``json.dumps`` and ``csv.writer`` row by
row; these pins hold the files the runners write, header, line endings and
every digit, so a change in how a table is encoded, blocked or ordered
fails here. The duality gap table (24,300 rows) and ``checkpoints.csv``
(10,000 rows) each span several of the writer's blocks. A change that
alters a table's numbers on purpose updates its pin, and says so.
"""

import hashlib

import pytest

from spinbond.config import validate_config
from spinbond.experiments import run_experiment

CONFIGS = {
    "duality_exact": dict(
        experiment="duality-check", graph="cycle:5", p=0.3, v=1.0, k=2, t=1.0, seed=1
    ),
    "tv_exact": dict(experiment="tv-decay", graph="path:3", p=0.3, v=1.0, seed=4),
    "tv_mc": dict(
        experiment="tv-decay", graph="path:3", p=0.3, v=1.0, t_max=10.0, t_step=0.5,
        replicas=2000, seed=4, oracle="off",
    ),
    "raw": dict(
        experiment="raw-simulate", graph="path:3", p=0.4, v=1.0, t_max=2.0,
        checkpoint_times=[0.2 * i for i in range(1, 11)],
        observables=["site0=+1", "site2=-1", "edge0=+1", "edge1=-1", "site1=+1&edge1=+1"],
        replicas=200, seed=6,
    ),
}

OUTPUT_PINS = {
    ("duality_exact", "duality_gaps.jsonl"): (
        "485a2fd3aafd614ba6dc2384dafe0740903037ba6f5be3aee561bd9c91cf6699"
    ),
    ("tv_exact", "tv_decay.csv"): (
        "1c624255b8e88984557bbae277c9d5606c7186b55776e885cc2a7bbc12252770"
    ),
    ("tv_mc", "tv_decay.csv"): (
        "eb60dd77329dfb1f7519606155241043002af9682b830de587ce1cdaab09f020"
    ),
    ("raw", "checkpoints.csv"): (
        "9f986b1e179986c562025aed3d98ccdc0802a0dc3c650b326d712e0c1aab65a8"
    ),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_PINS))
def test_result_file_is_pinned(case, tmp_path):
    name, filename = case
    cfg = validate_config({**CONFIGS[name], "output_dir": str(tmp_path)}, env={})
    run_experiment(cfg)
    assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == OUTPUT_PINS[case]
