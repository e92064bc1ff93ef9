"""The config contract: every resolved dict and every rejected key, pinned."""

import math
from pathlib import Path

import pytest

from spinbond.config import SEED_ENV_VAR, load_config, validate_config
from spinbond.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def typed(cfg: dict) -> dict:
    """Key -> repr of its value, so 1 and 1.0 (or [1] and [1.0]) differ."""
    return {key: repr(value) for key, value in cfg.items()}


COMMON_DEFAULTS = dict(p=0.5, v=1.0, seed=0, workers=1, oracle="auto")

MINIMAL = [
    (
        {"experiment": "duality-check", "graph": "path:3"},
        dict(k=1, t=1.0, tolerance=1e-8, replicas=20000, sigmas=3.0),
    ),
    (
        {"experiment": "stationary-compare", "graph": "path:3"},
        dict(max_revealed=2, replicas=0, mc_time=30.0, tolerance=1e-10, sigmas=3.0),
    ),
    (
        {"experiment": "mu-dyn", "graph": "path:3", "sites": [0], "replicas": 10},
        dict(signs=[1], revealed_positive=[], revealed_negative=[], sigmas=3.0,
             report_limit=100),
    ),
    (
        {"experiment": "tv-decay", "graph": "path:3"},
        dict(t_max=20.0, t_step=0.5, threshold=0.01, replicas=20000, sigmas=3.0),
    ),
    (
        {"experiment": "mgf-check"},
        dict(thetas=[-1.0, 0.5], times=[1.0, 5.0], r0_values=[0, 3], replicas=50000,
             sigmas=3.0, check_domination=False, t=2.0),
    ),
    (
        {"experiment": "raw-simulate", "graph": "path:3", "t_max": 2,
         "observables": ["site0=+1"], "output_dir": "out"},
        dict(t_max=2.0, checkpoint_times=[2.0], replicas=1, site_plus_prob=0.5,
             edge_plus_prob=0.5),
    ),
    # Number keys become floats; number lists stay as given.
    (
        {"experiment": "mgf-check", "p": 0, "v": 2, "times": [1, 5]},
        dict(p=0.0, v=2.0, thetas=[-1.0, 0.5], times=[1, 5], r0_values=[0, 3],
             replicas=50000, sigmas=3.0, check_domination=False, t=2.0),
    ),
    (
        {"experiment": "raw-simulate", "graph": "path:3", "t_max": 3.0,
         "checkpoint_times": [1, 3], "observables": ["full"], "output_dir": "o"},
        dict(checkpoint_times=[1, 3], replicas=1, site_plus_prob=0.5, edge_plus_prob=0.5),
    ),
    # A -0.0 reads as 0.0, in a number key and in a number list, whose ints
    # stay ints.
    (
        {"experiment": "raw-simulate", "graph": "path:3", "t_max": -0.0, "p": -0.0,
         "checkpoint_times": [-0.0, 0, 0.0], "observables": ["full"], "output_dir": "o"},
        dict(t_max=0.0, p=0.0, checkpoint_times=[0.0, 0, 0.0], replicas=1, site_plus_prob=0.5,
             edge_plus_prob=0.5),
    ),
    (
        {"experiment": "mgf-check", "thetas": [-0.0, -1], "times": [1, 5.0]},
        dict(thetas=[0.0, -1], times=[1, 5.0], r0_values=[0, 3], replicas=50000, sigmas=3.0,
             check_domination=False, t=2.0),
    ),
]


@pytest.mark.parametrize("raw, defaults", MINIMAL, ids=lambda x: x.get("experiment"))
def test_minimal_config_resolves_to_exact_dict(raw, defaults):
    expected = {**COMMON_DEFAULTS, **raw, **defaults}
    assert typed(validate_config(raw, env={})) == typed(expected)


SHIPPED = {
    "duality_check": dict(
        experiment="duality-check", seed=1, graph="complete:2", p=0.3, v=1.0, k=2, t=1.0,
        tolerance=1e-8, output_dir="out/duality_check", replicas=20000,
        sigmas=3.0, workers=1, oracle="auto",
    ),
    "duality_check_mc": dict(
        experiment="duality-check", graph="grid_torus:3,3", p=0.3, v=1.0, k=2, t=1.0,
        replicas=40000, seed=12, output_dir="out/duality_check_mc", tolerance=1e-8,
        sigmas=3.0, workers=1, oracle="auto",
    ),
    "mgf_check": dict(
        experiment="mgf-check", seed=5, v=1.0, thetas=[-1.0, 0.5], times=[1.0, 5.0],
        r0_values=[0, 3], replicas=20000, sigmas=3.0, check_domination=True,
        graph="path:3", p=0.3, t=2.0, output_dir="out/mgf_check", workers=1, oracle="auto",
    ),
    "mu_dyn": dict(
        experiment="mu-dyn", seed=3, graph="complete:2", p=0.3, v=1.0, sites=[0, 1],
        signs=[1, 1], replicas=20000, sigmas=3.0, report_limit=20,
        output_dir="out/mu_dyn", revealed_positive=[], revealed_negative=[], workers=1,
        oracle="auto",
    ),
    "raw_simulate": dict(
        experiment="raw-simulate", seed=6, graph="cycle:6", p=0.4, v=1.0, t_max=5.0,
        checkpoint_times=[1.0, 2.5, 5.0],
        observables=["site0=+1", "site3=+1", "edge0=-1", "site0=+1&edge0=+1"],
        site_plus_prob=0.5, edge_plus_prob=0.5, replicas=200,
        output_dir="out/raw_simulate", workers=1, oracle="auto",
    ),
    "stationary_compare": dict(
        experiment="stationary-compare", seed=2, graph="path:3", p=0.3, v=1.0,
        max_revealed=2, replicas=20000, mc_time=20.0, tolerance=1e-10, sigmas=3.0,
        output_dir="out/stationary_compare", workers=1, oracle="auto",
    ),
    "tv_decay": dict(
        experiment="tv-decay", seed=4, graph="path:3", p=0.3, v=1.0, t_max=20.0,
        t_step=0.5, threshold=0.01, output_dir="out/tv_decay", replicas=20000,
        sigmas=3.0, workers=1, oracle="auto",
    ),
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_resolves_to_exact_dict(name):
    cfg = load_config(CONFIG_DIR / f"{name}.json", env={})
    assert typed(cfg) == typed(SHIPPED[name])


def test_list_defaults_are_copied():
    first = validate_config({"experiment": "mgf-check"}, env={})
    first["thetas"].append(9.0)
    first["r0_values"].clear()
    second = validate_config({"experiment": "mgf-check"}, env={})
    assert second["thetas"] == [-1.0, 0.5] and second["r0_values"] == [0, 3]


def test_seed_override_validated_as_seed():
    raw = {"experiment": "duality-check", "graph": "path:3", "seed": 4}
    assert validate_config(raw, env={SEED_ENV_VAR: "7"})["seed"] == 7
    with pytest.raises(ConfigError, match="seed"):
        validate_config(raw, env={SEED_ENV_VAR: "-1"})
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        validate_config(raw, env={SEED_ENV_VAR: "x"})


DUALITY = {"experiment": "duality-check", "graph": "path:3"}
STATIONARY = {"experiment": "stationary-compare", "graph": "path:3"}
MU_DYN = {"experiment": "mu-dyn", "graph": "path:3", "sites": [0], "replicas": 10}
TV = {"experiment": "tv-decay", "graph": "path:3"}
MGF = {"experiment": "mgf-check"}
RAW = {"experiment": "raw-simulate", "graph": "path:3", "t_max": 2.0,
       "observables": ["site0=+1"], "output_dir": "out"}

DROP = object()

# (base config, changed keys, key the error must name). DROP deletes a key.
FAULTS = [
    (DUALITY, {"experiment": DROP}, "experiment"),
    (DUALITY, {"experiment": "nope"}, "experiment"),
    (DUALITY, {"experiment": 3}, "experiment"),
    (DUALITY, {"tolerence": 1e-8}, "tolerence"),
    (DUALITY, {"seed": -1}, "seed"),
    (DUALITY, {"seed": 1.5}, "seed"),
    (DUALITY, {"seed": True}, "seed"),
    (DUALITY, {"stream": -1}, "stream"),
    (DUALITY, {"workers": 0}, "workers"),
    (DUALITY, {"oracle": "maybe"}, "oracle"),
    (DUALITY, {"oracle": 1}, "oracle"),
    (DUALITY, {"output_dir": 3}, "output_dir"),
    (DUALITY, {"graph": 3}, "graph"),
    (DUALITY, {"graph": DROP}, "graph"),
    (DUALITY, {"graph_file": "g.txt"}, "graph"),
    (DUALITY, {"graph": DROP, "graph_file": 3}, "graph_file"),
    (DUALITY, {"kernel_file": 3}, "kernel_file"),
    (DUALITY, {"p": -0.1}, "p"),
    (DUALITY, {"p": 1.5}, "p"),
    (DUALITY, {"p": "0.3"}, "p"),
    (DUALITY, {"p": 0.0}, "p"),
    (DUALITY, {"v": -1.0}, "v"),
    (DUALITY, {"k": 0}, "k"),
    (DUALITY, {"k": 1.0}, "k"),
    (DUALITY, {"t": -1.0}, "t"),
    (DUALITY, {"tolerance": 0.0}, "tolerance"),
    (DUALITY, {"mode": "telepathic"}, "mode"),
    (DUALITY, {"replicas": 0}, "replicas"),
    (DUALITY, {"sigmas": 0.0}, "sigmas"),
    (DUALITY, {"forward_initial_file": 1}, "forward_initial_file"),
    (STATIONARY, {"max_revealed": -1}, "max_revealed"),
    (STATIONARY, {"replicas": -1}, "replicas"),
    (STATIONARY, {"oracle": "off"}, "replicas"),
    (STATIONARY, {"mc_time": 0.0}, "mc_time"),
    (STATIONARY, {"tolerance": 0.0}, "tolerance"),
    (STATIONARY, {"sigmas": 0.0}, "sigmas"),
    (STATIONARY, {"p": 1.0}, "p"),
    (STATIONARY, {"v": 0.0}, "v"),
    (MU_DYN, {"sites": DROP}, "sites"),
    (MU_DYN, {"sites": []}, "sites"),
    (MU_DYN, {"sites": [0.5]}, "sites"),
    (MU_DYN, {"sites": "0"}, "sites"),
    (MU_DYN, {"signs": [1, 1]}, "signs"),
    (MU_DYN, {"signs": [-1]}, "signs"),
    (MU_DYN, {"signs": []}, "signs"),
    (MU_DYN, {"signs": [1.0]}, "signs"),
    (MU_DYN, {"revealed_positive": [1.5]}, "revealed_positive"),
    (MU_DYN, {"revealed_negative": "x"}, "revealed_negative"),
    (MU_DYN, {"replicas": DROP}, "replicas"),
    (MU_DYN, {"replicas": 0}, "replicas"),
    (MU_DYN, {"t_cap": 0.0}, "t_cap"),
    (MU_DYN, {"sigmas": -1.0}, "sigmas"),
    (MU_DYN, {"report_limit": -1}, "report_limit"),
    (MU_DYN, {"p": 0.0}, "p"),
    (TV, {"t_max": 0.0}, "t_max"),
    (TV, {"t_step": 0.0}, "t_step"),
    (TV, {"threshold": 0.0}, "threshold"),
    (TV, {"initial_file": 1}, "initial_file"),
    (TV, {"replicas": 0}, "replicas"),
    (TV, {"sigmas": 0.0}, "sigmas"),
    (TV, {"v": 0.0}, "v"),
    (MGF, {"thetas": []}, "thetas"),
    (MGF, {"thetas": [True]}, "thetas"),
    (MGF, {"times": "1"}, "times"),
    (MGF, {"r0_values": []}, "r0_values"),
    (MGF, {"r0_values": [-1]}, "r0_values"),
    (MGF, {"r0_values": [0.5]}, "r0_values"),
    (MGF, {"replicas": 0}, "replicas"),
    (MGF, {"sigmas": 0.0}, "sigmas"),
    (MGF, {"check_domination": 0}, "check_domination"),
    (MGF, {"t": 0.0}, "t"),
    (MGF, {"v": 0.0}, "v"),
    (MGF, {"check_domination": True}, "graph"),
    (MGF, {"check_domination": True, "graph": "path:3", "p": 1.0}, "p"),
    (RAW, {"t_max": DROP}, "t_max"),
    (RAW, {"t_max": -1.0}, "t_max"),
    (RAW, {"observables": DROP}, "observables"),
    (RAW, {"observables": []}, "observables"),
    (RAW, {"observables": [1]}, "observables"),
    (RAW, {"output_dir": DROP}, "output_dir"),
    (RAW, {"checkpoint_times": []}, "checkpoint_times"),
    (RAW, {"checkpoint_times": [3.0]}, "checkpoint_times"),
    (RAW, {"checkpoint_times": [-1.0]}, "checkpoint_times"),
    (RAW, {"checkpoint_times": ["1"]}, "checkpoint_times"),
    (RAW, {"site_plus_prob": 1.5}, "site_plus_prob"),
    (RAW, {"edge_plus_prob": -0.1}, "edge_plus_prob"),
    (RAW, {"replicas": 0}, "replicas"),
    (RAW, {"initial_file": 1}, "initial_file"),
    # JSON's NaN and Infinity parse as floats; every number must be finite.
    (RAW, {"p": math.nan}, "p"),
    (DUALITY, {"t": math.inf}, "t"),
    (DUALITY, {"v": math.inf}, "v"),
    (STATIONARY, {"mc_time": math.nan}, "mc_time"),
    (MGF, {"thetas": [0.5, math.nan]}, "thetas"),
    (MGF, {"times": [-math.inf]}, "times"),
    (RAW, {"checkpoint_times": [math.nan]}, "checkpoint_times"),
    (MGF, {"times": [-1.0]}, "times"),
    (MGF, {"times": [0.0]}, "times"),
    (TV, {"t_max": 1.0, "t_step": 0.3}, "t_max"),
    # mgf-check reads a graph only to check the domination bound.
    (MGF, {"graph": "star:3"}, "check_domination"),
    (MGF, {"graph": "cycle:3,4"}, "check_domination"),
    (MGF, {"graph_file": "g.txt"}, "check_domination"),
    (MGF, {"kernel_file": "k.txt"}, "check_domination"),
]


FAULT_IDS = [f"{base['experiment']}-{key}-{i}" for i, (base, _, key) in enumerate(FAULTS)]


@pytest.mark.parametrize("base, change, key", FAULTS, ids=FAULT_IDS)
def test_single_fault_is_rejected_naming_its_key(base, change, key):
    raw = {**base, **change}
    raw = {k: v for k, v in raw.items() if v is not DROP}
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        validate_config(raw, env={})
