"""Config validation, experiment dispatch, CLI exit codes, output files."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from spinbond.config import (
    SEED_ENV_VAR,
    load_config,
    parse_graph_spec,
    validate_config,
)
from spinbond import estimators, experiments
from spinbond.errors import ConfigError, StateSpaceCapError
from spinbond.cli import main


def write_cfg(tmp_path, name="cfg.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


DUALITY_BASE = dict(
    experiment="duality-check", seed=5, graph="complete:2", p=0.3, v=1.0, k=1, t=0.5
)


# ------------------------------------------------------------------- config


def test_valid_config_fills_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, **DUALITY_BASE), env={})
    assert cfg["tolerance"] == 1e-8
    assert cfg["workers"] == 1
    assert cfg["oracle"] == "auto"


def test_minimal_config_parses_with_defaults():
    cfg = validate_config({"experiment": "duality-check", "graph": "path:3"}, env={})
    assert cfg["p"] == 0.5
    assert cfg["v"] == 1.0
    assert cfg["seed"] == 0
    assert cfg["k"] == 1
    assert cfg["t"] == 1.0


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, **DUALITY_BASE, tolerence=1e-8)
    with pytest.raises(ConfigError, match="tolerence"):
        load_config(path, env={})


def test_seed_env_override(tmp_path):
    body = dict(DUALITY_BASE)
    del body["seed"]
    path = write_cfg(tmp_path, **body)
    assert load_config(path, env={})["seed"] == 0
    cfg = load_config(path, env={SEED_ENV_VAR: "41"})
    assert cfg["seed"] == 41
    # the override also beats an explicit seed
    cfg2 = load_config(write_cfg(tmp_path, **DUALITY_BASE), env={SEED_ENV_VAR: "9"})
    assert cfg2["seed"] == 9
    with pytest.raises(ConfigError):
        load_config(path, env={SEED_ENV_VAR: "not-a-number"})
    with pytest.raises(ConfigError, match=f"{SEED_ENV_VAR} sets the seed, which must be >= 0"):
        load_config(path, env={SEED_ENV_VAR: "-1"})


def test_oracle_key_validated():
    validate_config({**DUALITY_BASE, "oracle": "off"}, env={})
    with pytest.raises(ConfigError, match="oracle"):
        validate_config({**DUALITY_BASE, "oracle": "maybe"}, env={})


def test_nested_config_rejected(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"experiment": "duality-check", "params": {"p": 0.3}}))
    with pytest.raises(ConfigError, match="flat"):
        load_config(path, env={})
    path.write_text(json.dumps({"experiment": "duality-check", "thetas": [[1.0]]}))
    with pytest.raises(ConfigError, match="flat"):
        load_config(path, env={})


def test_non_object_and_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(path, env={})
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path, env={})
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json", env={})


def test_type_errors_rejected():
    with pytest.raises(ConfigError, match="integer"):
        validate_config({**DUALITY_BASE, "seed": True}, env={})
    with pytest.raises(ConfigError, match="number"):
        validate_config({**DUALITY_BASE, "p": "0.3"}, env={})
    with pytest.raises(ConfigError, match="k"):
        validate_config({**DUALITY_BASE, "k": 0}, env={})
    with pytest.raises(ConfigError):
        validate_config({**DUALITY_BASE, "mode": "telepathic"}, env={})
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({**DUALITY_BASE, "experiment": "nope"}, env={})


def test_ergodicity_constraints_enforced():
    base = dict(experiment="mu-dyn", seed=1, graph="complete:2", v=1.0,
                sites=[0], signs=[1], replicas=10)
    validate_config({**base, "p": 0.5}, env={})
    for bad_p in (0.0, 1.0):
        with pytest.raises(ConfigError, match="p"):
            validate_config({**base, "p": bad_p}, env={})
    with pytest.raises(ConfigError, match="v"):
        validate_config({**base, "p": 0.5, "v": 0.0}, env={})
    with pytest.raises(ConfigError, match="v"):
        validate_config(
            dict(experiment="tv-decay", seed=1, graph="path:3", p=0.5, v=0.0), env={}
        )
    # duality-check tolerates v = 0 but still needs 0 < p < 1
    validate_config({**DUALITY_BASE, "v": 0.0}, env={})
    with pytest.raises(ConfigError, match="p"):
        validate_config({**DUALITY_BASE, "p": 1.0}, env={})


def test_mu_dyn_site_sign_validation():
    base = dict(experiment="mu-dyn", seed=1, graph="complete:2", p=0.3, v=1.0,
                replicas=10)
    with pytest.raises(ConfigError, match="2 sites but 1 signs"):
        validate_config({**base, "sites": [0, 1], "signs": [1]}, env={})
    # the coalescence estimator only covers all-plus site constraints
    for bad_signs in ([2], [-1]):
        with pytest.raises(ConfigError, match="signs"):
            validate_config({**base, "sites": [0], "signs": bad_signs}, env={})
    with pytest.raises(ConfigError):
        validate_config({**base, "sites": [], "signs": []}, env={})
    # omitted signs fill in as all +1
    cfg = validate_config({**base, "sites": [0, 1]}, env={})
    assert cfg["signs"] == [1, 1]


def test_graph_spec_parsing():
    torus = parse_graph_spec("grid_torus:2,3")
    assert torus.vertex_count == 6
    ring = parse_graph_spec("cycle:6")
    assert ring.vertex_count == 6 and ring.edge_count == 6
    for bad in ("cycle", "cycle:", "cycle:x", "mystery:3", "cycle:3:4"):
        with pytest.raises(ConfigError):
            parse_graph_spec(bad)
    with pytest.raises(ConfigError, match="grid_torus takes 2 sizes, got 1"):
        parse_graph_spec("grid_torus:3")
    with pytest.raises(ConfigError, match="cycle takes 1 size, got 2"):
        parse_graph_spec("cycle:3,4")


def test_exactly_one_graph_source(tmp_path):
    body = dict(DUALITY_BASE)
    del body["graph"]
    with pytest.raises(ConfigError, match="graph"):
        validate_config(body, env={})
    with pytest.raises(ConfigError, match="graph"):
        validate_config({**DUALITY_BASE, "graph_file": "g.txt"}, env={})


# ------------------------------------------------------------------ the CLI


def test_cli_duality_check_passes(tmp_path, capsys):
    code = main(["check", write_cfg(tmp_path, **DUALITY_BASE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "duality-check: PASS" in out
    assert not list(tmp_path.glob("**/*.jsonl"))  # check never writes files


def test_cli_gate_failure_exits_one(tmp_path, capsys):
    path = write_cfg(tmp_path, **{**DUALITY_BASE, "tolerance": 1e-18})
    assert main(["check", path]) == 1
    assert "duality-check: FAIL" in capsys.readouterr().out


def test_cli_config_error_exits_two(tmp_path, capsys):
    path = write_cfg(tmp_path, **{**DUALITY_BASE, "p": 2.0})
    assert main(["check", path]) == 2
    assert "config error" in capsys.readouterr().err


# One replica has no standard error, so its Monte Carlo gate could only
# fail. Every experiment that may gate one rejects it, on the exact path too.
ONE_REPLICA = {
    "duality-check-mc": {**DUALITY_BASE, "oracle": "off"},
    "duality-check-exact": DUALITY_BASE,
    "stationary-compare": dict(experiment="stationary-compare", graph="path:3"),
    "mu-dyn": dict(experiment="mu-dyn", graph="complete:2", sites=[0, 1]),
    "mu-dyn-oracle-off": dict(experiment="mu-dyn", graph="complete:2", sites=[0, 1], oracle="off"),
    "tv-decay-mc": dict(experiment="tv-decay", graph="path:3", oracle="off"),
    "tv-decay-exact": dict(experiment="tv-decay", graph="path:3"),
    "mgf-check": dict(experiment="mgf-check"),
}


@pytest.mark.parametrize("case", sorted(ONE_REPLICA))
def test_cli_one_replica_on_a_gated_experiment_exits_two(case, tmp_path, capsys, monkeypatch):
    def run_experiment(*args, **kwargs):
        raise AssertionError("the config must be rejected before any work")

    monkeypatch.setattr("spinbond.cli.run_experiment", run_experiment)
    assert main(["check", write_cfg(tmp_path, **ONE_REPLICA[case], replicas=1)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "replicas" in err


@pytest.mark.parametrize(
    "body",
    [
        dict(experiment="raw-simulate", graph="path:3", t_max=1.0, observables=["full"], p=math.nan),
        {**DUALITY_BASE, "t": math.inf},
    ],
    ids=["raw-simulate-NaN", "duality-check-Infinity"],
)
def test_cli_non_finite_number_exits_two(tmp_path, capsys, body):
    out_dir = tmp_path / "out"
    path = write_cfg(tmp_path, **body, output_dir=str(out_dir))
    assert "NaN" in open(path).read() or "Infinity" in open(path).read()
    assert main(["run", path]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "body, theta",
    [
        (dict(thetas=[800.0], times=[1.0], r0_values=[0]), "800"),
        # The domination bound's theta is -2 ln p = 18.42 at p = 1e-4.
        (dict(check_domination=True, p=0.0001, t=2.0, graph="path:3"), "18.4207"),
    ],
    ids=["theta-800", "domination-p-1e-4"],
)
def test_cli_mgf_closed_form_overflow_exits_two(monkeypatch, tmp_path, capsys, body, theta):
    # The closed form overflows a double, and the error comes before any
    # replica runs.
    def no_replicas(*args, **kwargs):
        raise AssertionError("a replica ran before the closed forms were checked")

    monkeypatch.setattr(experiments, "estimate_mgf", no_replicas)
    monkeypatch.setattr(experiments, "estimate_revealed_weight", no_replicas)
    out_dir = tmp_path / "out"
    path = write_cfg(tmp_path, experiment="mgf-check", output_dir=str(out_dir), **body)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert f"theta={theta}, t=" in err and "overflows a double" in err
    assert not out_dir.exists()


def test_mgf_check_writes_unsorted_repeated_times_against_their_own_time(tmp_path):
    # One sample per r0 serves every time; records keep the config's grid
    # order, and each carries its own time's estimate and closed form.
    body = dict(experiment="mgf-check", seed=5, thetas=[-1.0, 0.5], r0_values=[0, 3], replicas=2000)
    records = {}
    for name, times in (("sorted", [1.0, 5.0]), ("unsorted", [5.0, 1.0, 5.0])):
        out_dir = tmp_path / name
        path = write_cfg(tmp_path, f"{name}.json", **body, times=times, output_dir=str(out_dir))
        assert main(["run", path]) == 0
        lines = (out_dir / "mgf_check.jsonl").read_text().splitlines()
        records[name] = [json.loads(line) for line in lines]
    rows = records["unsorted"]
    grid = [(theta, t, r0) for theta in (-1.0, 0.5) for t in (5.0, 1.0, 5.0) for r0 in (0, 3)]
    assert [(r["params"]["theta"], r["params"]["t"], r["params"]["r0"]) for r in rows] == grid
    by_point = {tuple(r["params"][k] for k in ("theta", "t", "r0")): r for r in records["sorted"]}
    for r in rows:
        prm = r["params"]
        assert r == by_point[(prm["theta"], prm["t"], prm["r0"])]
        assert r["oracle_value"] == estimators.birth_death_mgf(prm["theta"], prm["t"], 1.0, prm["r0"])
    assert rows[0]["point"] != rows[2]["point"]  # theta = -1, r0 = 0 at t = 5 and at t = 1


def test_cli_cap_error_exits_three(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        experiment="tv-decay",
        seed=3,
        graph="grid_torus:4,4",
        p=0.3,
        v=1.0,
        oracle="on",
    )
    assert main(["check", path]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_cli_run_writes_expected_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_cfg(tmp_path, **DUALITY_BASE, output_dir=str(out_dir))
    assert main(["run", path]) == 0
    assert (out_dir / "duality_gaps.jsonl").exists()
    rows = [
        json.loads(line)
        for line in (out_dir / "duality_gaps.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 12  # every dual start on two sites with one walker
    for row in rows:
        assert abs(row["lhs"] - row["rhs"]) <= 1e-8


def test_cli_exact_duality_check_at_benchmark_size(tmp_path, capsys):
    # cycle:6 with two walkers: 6^2 * 2^2 * 3^6 dual initial states.
    out_dir = tmp_path / "out"
    path = write_cfg(
        tmp_path, **{**DUALITY_BASE, "graph": "cycle:6", "k": 2, "t": 1.0, "oracle": "on"},
        output_dir=str(out_dir),
    )
    assert main(["run", path]) == 0
    lines = (out_dir / "duality_gaps.jsonl").read_text().splitlines()
    assert len(lines) == 104_976
    assert max(json.loads(line)["gap"] for line in lines) <= 1e-8


def test_cli_duality_check_mc_mode(tmp_path, capsys):
    out_dir = tmp_path / "mc"
    path = write_cfg(
        tmp_path,
        **{**DUALITY_BASE, "oracle": "off", "replicas": 2000},
        output_dir=str(out_dir),
    )
    assert main(["run", path]) == 0
    assert "duality-check: PASS" in capsys.readouterr().out
    rows = [
        json.loads(line)
        for line in (out_dir / "duality_mc.jsonl").read_text().splitlines()
    ]
    assert [r["estimator"] for r in rows] == ["forward_cylinder", "dual_side"]
    for row in rows:
        assert list(row) == [
            "estimator", "params", "point", "std_error", "replicas", "censored",
        ]
        assert row["replicas"] == 2000
        assert row["censored"] == 0


def test_cli_stationary_compare_mc_only(tmp_path, capsys):
    body = dict(
        experiment="stationary-compare",
        seed=7,
        graph="path:3",
        p=0.3,
        v=1.0,
        oracle="off",
        replicas=3000,
        mc_time=20.0,
    )
    with pytest.raises(ConfigError, match="replicas"):
        validate_config({**body, "replicas": 0}, env={})
    out_dir = tmp_path / "smc"
    path = write_cfg(tmp_path, **body, output_dir=str(out_dir))
    assert main(["run", path]) == 0
    assert "stationary-compare: PASS" in capsys.readouterr().out
    rows = [
        json.loads(line)
        for line in (out_dir / "stationary_compare.jsonl").read_text().splitlines()
    ]
    assert rows and all(r["estimator"] == "forward_cylinder" for r in rows)
    assert all("oracle_value" not in r for r in rows)  # nothing exact was solved
    assert not (out_dir / "stationary_distribution.csv").exists()


def test_cli_mu_dyn_oracle_off_skips_gate(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        experiment="mu-dyn",
        seed=2,
        graph="complete:2",
        p=0.3,
        v=1.0,
        sites=[0],
        replicas=50,
        oracle="off",
    )
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "no gate applied" in out
    assert "mu-dyn: DONE" in out


def test_cli_mu_dyn_single_site_on_cycle(tmp_path, capsys):
    out_dir = tmp_path / "half"
    path = write_cfg(
        tmp_path,
        experiment="mu-dyn",
        seed=4,
        graph="cycle:6",
        p=0.3,
        v=1.0,
        sites=[2],
        replicas=100,
        output_dir=str(out_dir),
    )
    assert main(["run", path]) == 0
    assert "mu-dyn: PASS" in capsys.readouterr().out
    rec = json.loads((out_dir / "mu_dyn_estimate.jsonl").read_text())
    # a lone walker is coalesced from the start, so every replica returns 1/2
    assert rec["point"] == 0.5 and rec["std_error"] == 0.0
    assert rec["oracle_value"] == pytest.approx(0.5, abs=1e-10)


def test_cli_mu_dyn_reducible_kernel_matches_the_oracle(tmp_path, capsys):
    # path:4 cut in the middle by rate 0: sites 0 and 3 lie in the closed
    # classes {0, 1} and {2, 3} of the kernel's walk, whose walkers never
    # meet, so every replica stops at once at two classes with value 1/4,
    # the exact stationary mass. Stated false-failure rate: the verdict
    # line's one gate at 3 sigma, family-wise <= 0.27%; the estimate here
    # has no variance.
    kernel = tmp_path / "halves.txt"
    kernel.write_text("0 1 1.0\n1 0 1.0\n1 2 0.0\n2 1 0.0\n2 3 1.0\n3 2 1.0\n")
    out_dir = tmp_path / "halves"
    path = write_cfg(
        tmp_path, experiment="mu-dyn", seed=6, graph="path:4", kernel_file=str(kernel),
        p=0.3, v=1.0, sites=[0, 3], replicas=200, t_cap=100.0, oracle="on",
        output_dir=str(out_dir),
    )
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "1 gate at 3 sigma, family-wise <= 0.27%): PASS" in out and "mu-dyn: PASS" in out
    rec = json.loads((out_dir / "mu_dyn_estimate.jsonl").read_text())
    assert rec["point"] == 0.25 and rec["censored"] == 0
    assert rec["oracle_value"] == pytest.approx(0.25, abs=1e-10)


def test_cli_mu_dyn_transient_start_site_exits_two(tmp_path, capsys):
    # 0 -> 1 <-> 2: the walk leaves site 0 for good, so a walker from it
    # ends in a random number of classes.
    kernel = tmp_path / "leak.txt"
    kernel.write_text("0 1 1.0\n1 2 1.0\n2 1 1.0\n")
    path = write_cfg(
        tmp_path, experiment="mu-dyn", graph="path:3", kernel_file=str(kernel),
        sites=[2, 0], replicas=10, oracle="off",
    )
    assert main(["check", path]) == 2
    assert "start site 0 is transient" in capsys.readouterr().err


def test_cli_tv_decay_mc_mode(tmp_path):
    out_dir = tmp_path / "tvmc"
    path = write_cfg(
        tmp_path,
        experiment="tv-decay",
        seed=11,
        graph="path:3",
        oracle="off",
        replicas=800,
        t_max=10.0,
        t_step=2.5,
        output_dir=str(out_dir),
    )
    assert main(["run", path]) == 0
    with open(out_dir / "tv_decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "tv_lower_bound", "event", "std_error"}
    assert len(rows) == 5
    assert float(rows[0]["tv_lower_bound"]) == 1.0  # opposite deterministic starts
    assert float(rows[-1]["tv_lower_bound"]) < 0.2


def test_cli_tv_decay_auto_falls_back_to_mc(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        experiment="tv-decay",
        seed=3,
        graph="grid_torus:4,4",
        replicas=300,
        t_max=6.0,
        t_step=3.0,
        sigmas=5.0,
    )
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "Monte Carlo" in out
    assert "tv-decay: PASS" in out


# cycle:11 has 2^22 forward states, above the exact cap. Per runner: its
# extra keys and the note it prints when oracle "auto" falls back.
ABOVE_CAP = {
    "duality-check": ({"replicas": 50}, "exact check unavailable ("),
    "stationary-compare": ({"replicas": 50, "mc_time": 2.0}, "exact solve unavailable ("),
    "mu-dyn": ({"sites": [0], "replicas": 50}, "exact solve unavailable ("),
    "tv-decay": ({"replicas": 50, "t_max": 2.0, "t_step": 1.0}, "exact transients unavailable ("),
}


@pytest.mark.parametrize("experiment", sorted(ABOVE_CAP))
@pytest.mark.parametrize("oracle", ["on", "auto"])
def test_cli_oracle_policy_above_the_cap(tmp_path, capsys, experiment, oracle):
    extra, note = ABOVE_CAP[experiment]
    path = write_cfg(
        tmp_path, experiment=experiment, seed=2, graph="cycle:11", p=0.5, oracle=oracle, **extra
    )
    code = main(["check", path])
    captured = capsys.readouterr()
    if oracle == "on":
        assert code == 3
        assert "resource limit: forward states" in captured.err
    else:
        assert code in (0, 1)
        assert any(line.startswith(note) for line in captured.out.splitlines())


def test_cli_mu_dyn_oracle_on_exits_before_any_replica(tmp_path, capsys):
    path = write_cfg(
        tmp_path, experiment="mu-dyn", seed=1, graph="cycle:11", sites=[0, 5],
        replicas=10**6, oracle="on",
    )
    # 10^6 coalescing replicas would take many minutes; the cap check is instant.
    start = time.perf_counter()
    assert main(["check", path]) == 3
    assert time.perf_counter() - start < 10.0
    assert "resource limit" in capsys.readouterr().err


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# Shipped configs raised above the forward ring budget of 10^9: far above
# it, and just above it (raw: 200 replicas * 12 rings per unit time *
# 416,667 = 1,000,000,800 rings; stationary: 20,000 * 5 * 10,000.5 =
# 1,000,050,000), the second under every oracle policy.
ABOVE_RING_BUDGET = [
    ("raw_simulate", {"t_max": 1e7}, 24_000_000_000),
    ("raw_simulate", {"t_max": 416_667.0}, 1_000_000_800),
    ("stationary_compare", {"mc_time": 1e9}, 100_000_000_000_000),
    *(("stationary_compare", {"mc_time": 10_000.5, "oracle": o}, 1_000_050_000)
      for o in ("on", "off", "auto")),
]


@pytest.mark.parametrize("name, change, rings", ABOVE_RING_BUDGET)
def test_forward_work_above_the_ring_budget_exits_three_at_once(
    tmp_path, capsys, monkeypatch, name, change, rings
):
    def no_replica(*args, **kwargs):
        raise AssertionError("a replica ran above the ring budget")

    monkeypatch.setattr(estimators, "_collect", no_replica)
    monkeypatch.setattr(experiments, "_collect", no_replica)
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path = write_cfg(tmp_path, **dict(cfg, output_dir=str(tmp_path / "out"), **change))
    start = time.perf_counter()
    assert main(["run", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"resource limit: expected forward rings: {rings} needed, "
        "above the supported cap of 1000000000\n"
    )
    assert not (tmp_path / "out").exists()


def test_forward_work_at_the_ring_budget_finishes(tmp_path, capsys, monkeypatch):
    # raw_simulate.json expects exactly 200 * 12 * 5 = 12,000 rings.
    path = str(CONFIG_DIR / "raw_simulate.json")
    cfg = json.loads(Path(path).read_text())
    path = write_cfg(tmp_path, **dict(cfg, output_dir=str(tmp_path / "out")))
    monkeypatch.setattr(estimators, "FORWARD_RING_BUDGET", 11_999)
    assert main(["run", path]) == 3
    assert "expected forward rings: 12000 needed" in capsys.readouterr().err
    monkeypatch.setattr(estimators, "FORWARD_RING_BUDGET", 12_000)
    assert main(["run", path]) == 0
    assert (tmp_path / "out" / "checkpoints.csv").exists()


def _benchmark_workloads(monkeypatch):
    """The benchmark's workload generator module, loaded from its file."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "spinbench_workloads", CONFIG_DIR.parent / "spinbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_monte_carlo_configs(run_dir, monkeypatch):
    """The configs of the benchmark's Monte Carlo workload, from its own generator."""
    workloads = _benchmark_workloads(monkeypatch)
    return {op.name: op.config for op in workloads.monte_carlo(3, run_dir)}


@pytest.mark.parametrize("seed", [3, 41])
def test_every_benchmark_config_is_a_valid_config(tmp_path, monkeypatch, seed):
    # The benchmark runs copies of the shipped configs and configs it
    # generates; a key the program stops accepting would make its
    # operations exit 2. The generator writes into tmp_path only.
    workloads = _benchmark_workloads(monkeypatch)
    shipped = sorted(path.name for path in CONFIG_DIR.glob("*.json"))
    assert shipped == sorted(path.name for path in workloads.SHIPPED_DIR.glob("*.json"))
    for name in shipped:
        assert (workloads.SHIPPED_DIR / name).read_bytes() == (CONFIG_DIR / name).read_bytes()
    ops = [
        op
        for workload in ("monte-carlo", "exact-oracle")
        for op in workloads.WORKLOADS[workload](seed, tmp_path / workload)
    ]
    assert len(ops) == 12
    for op in ops:
        load_config(op.config_path, env={})  # the file the benchmark hands the program


def test_shipped_and_benchmark_forward_work_stays_far_below_the_ring_budget(
    tmp_path, monkeypatch
):
    # With a budget of 0 every forward Monte Carlo call stops at its check
    # and reports its expected rings; each must be 100 times below 10^9.
    # mu-dyn and mgf-check run no forward chain; the exact-oracle workload
    # runs no Monte Carlo.
    configs = {path.stem: json.loads(path.read_text()) for path in CONFIG_DIR.glob("*.json")}
    configs.update(_benchmark_monte_carlo_configs(tmp_path, monkeypatch))
    monkeypatch.setattr(estimators, "FORWARD_RING_BUDGET", 0)
    rings = {}
    for name, cfg in sorted(configs.items()):
        if cfg["experiment"] in ("mu-dyn", "mgf-check"):
            continue
        try:
            experiments.run_experiment(validate_config(cfg, env={}), write_outputs=False)
        except StateSpaceCapError as exc:
            rings[name] = exc.required
    assert rings == {
        "duality_check_mc": 40_000 * (9 + 18) * 1,
        "raw_simulate": 200 * (6 + 6) * 5,
        "raw_simulate_torus30": 20 * (900 + 1800) * 20,
        "stationary_compare": 20_000 * (3 + 2) * 20,
    }
    assert max(rings.values()) <= 10**9 // 100


# Shipped configs changed to expect more work than a budget allows, each
# with the figure it reports. A few replicas run long (per run), a grid
# point runs long (birth-death), the domination check's dual runs long (in
# total and per run), a Monte Carlo duality-check's dual half runs long and
# is caught before its forward half, and an infinite expectation.
ABOVE_WORK_BUDGETS = [
    ("stationary_compare", {"replicas": 2, "mc_time": 2e6, "oracle": "off"},
     "forward rings per run: 10000000 needed, above the supported cap of 1000000"),
    ("stationary_compare", {"mc_time": 1.7e308, "oracle": "off"},
     "forward rings: inf needed, above the supported cap of 1000000000"),
    # 20,000 runs of 2 * 1e8 - (1 - e^-1e8) events at r0 = 0.
    ("mgf_check", {"times": [1e8], "check_domination": False},
     "birth-death events: 3999999980000 needed, above the supported cap of 1000000000"),
    ("mgf_check", {"replicas": 2, "times": [1e6]},
     "birth-death events per run: 1999999 needed, above the supported cap of 1000000"),
    ("mgf_check", {"t": 1e7},
     "dual rings: 200000000000 needed, above the supported cap of 1000000000"),
    ("mgf_check", {"replicas": 2, "t": 2e6},
     "dual rings per run: 2000000 needed, above the supported cap of 1000000"),
    ("duality_check_mc", {"t": 1e5},
     "dual rings: 8000000000 needed, above the supported cap of 1000000000"),
]


@pytest.mark.parametrize("name, change, message", ABOVE_WORK_BUDGETS)
def test_work_above_a_budget_exits_three_before_any_draw(
    tmp_path, capsys, monkeypatch, name, change, message
):
    def no_replica(*args, **kwargs):
        raise AssertionError("a replica ran above a work budget")

    monkeypatch.setattr(estimators, "_collect", no_replica)
    monkeypatch.setattr(experiments, "_collect", no_replica)
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if "times" in change:  # birth-death alone: no graph, no domination check
        cfg = {key: value for key, value in cfg.items() if key not in ("graph", "p", "t")}
        cfg["check_domination"] = False
    path = write_cfg(tmp_path, **dict(cfg, output_dir=str(tmp_path / "out"), **change))
    start = time.perf_counter()
    assert main(["run", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"resource limit: expected {message}\n"
    assert not (tmp_path / "out").exists()


# (config, change, budget, the config's figure, its label): the figure
# rounded up, so that a budget one below it exits 3 and one at it finishes.
# mgf_check with 1,000 replicas: its longest grid point, t = 5 and r0 = 3,
# expects 10 + 2 (1 - e^-5) = 11.99 events a run, 11,986.5 in all; its
# domination check's dual 1,000 * 1 walker * t = 2 rings.
AT_WORK_BUDGETS = [
    ("mgf_check", {"replicas": 1000}, "BIRTH_DEATH_EVENT_BUDGET", 11_987, "birth-death events"),
    ("mgf_check", {"replicas": 1000}, "RUN_EVENT_BUDGET", 12, "birth-death events per run"),
    ("mgf_check", {"replicas": 1000}, "DUAL_RING_BUDGET", 2_000, "dual rings"),
    ("stationary_compare", {"replicas": 1000}, "RUN_EVENT_BUDGET", 100, "forward rings per run"),
]


@pytest.mark.parametrize("name, change, budget, figure, label", AT_WORK_BUDGETS)
def test_work_at_a_budget_finishes(
    tmp_path, capsys, monkeypatch, name, change, budget, figure, label
):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path = write_cfg(tmp_path, **dict(cfg, output_dir=str(tmp_path / "out"), **change))
    monkeypatch.setattr(estimators, budget, figure - 1)
    assert main(["run", path]) == 3
    assert f"expected {label}: {figure} needed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.setattr(estimators, budget, figure)
    assert main(["run", path]) in (0, 1)
    assert any((tmp_path / "out").iterdir())


# Two walkers 1,500 apart on cycle:3000 meet after about 1,500^2 moves, far
# inside the default time cap of 9 x 10^10.
MU_DYN_FAR_APART = dict(
    experiment="mu-dyn", seed=3, graph="cycle:3000", sites=[0, 1500], replicas=2, oracle="off"
)


@pytest.mark.parametrize("budget, message", [
    ("RUN_EVENT_BUDGET", "dual steps of a block: 2001 needed, above the supported cap of 2000"),
    ("DUAL_RING_BUDGET", "dual moves of a block: 2002 needed, above the supported cap of 2000"),
])
def test_mu_dyn_past_a_block_budget_exits_three(tmp_path, capsys, monkeypatch, budget, message):
    monkeypatch.setattr(estimators, budget, 2000)
    path = write_cfg(tmp_path, **MU_DYN_FAR_APART, output_dir=str(tmp_path / "out"))
    start = time.perf_counter()
    assert main(["run", path]) == 3
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == f"resource limit: {message}\n"
    assert not (tmp_path / "out").exists()


# Two blocks of 4,096 mu-dyn runs on cycle:8 at seed 7, with three walkers,
# so that a ring on the upper slot of a merged pair is thinned and moves
# nothing. Alone they step 151 and 173 times and move 85,462 and 87,227
# times; a block's share of B moves is B * 4096 / 8192, exact in floating
# point. Each case: the budget, one under its figure, the figure.
MU_DYN_PAIR = dict(
    experiment="mu-dyn", seed=7, graph="cycle:8", p=0.3, v=1.0, sites=[0, 3, 5],
    signs=[1, 1, 1], replicas=8192, oracle="off",
)
PAIRED_BLOCK_BUDGETS = [
    ("RUN_EVENT_BUDGET", 172, 173, "dual steps of a block: 173 needed"),
    ("DUAL_RING_BUDGET", 2 * 87_226, 2 * 87_227, "dual moves of a block: 87227 needed"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget, under, figure, message", PAIRED_BLOCK_BUDGETS)
def test_mu_dyn_block_budgets_do_not_depend_on_the_workers(
    monkeypatch, workers, budget, under, figure, message
):
    # One worker steps the two blocks as a pair, two step each alone, and
    # the error crosses from a worker process.
    cfg = validate_config(dict(MU_DYN_PAIR, workers=workers), env={})
    monkeypatch.setattr(estimators, budget, under)
    with pytest.raises(StateSpaceCapError, match=message):
        experiments.run_experiment(cfg, write_outputs=False)
    monkeypatch.setattr(estimators, budget, figure)
    experiments.run_experiment(cfg, write_outputs=False)


def test_shipped_and_benchmark_mu_dyn_stays_far_below_its_block_budgets(tmp_path, monkeypatch):
    # mu-dyn checks its blocks as they run, so with both budgets cut 100-fold
    # its shipped config and the monte-carlo workload's must still finish.
    monkeypatch.setattr(estimators, "DUAL_RING_BUDGET", 10**9 // 100)
    monkeypatch.setattr(estimators, "RUN_EVENT_BUDGET", 10**6 // 100)
    configs = {path.stem: json.loads(path.read_text()) for path in CONFIG_DIR.glob("*.json")}
    configs.update(_benchmark_monte_carlo_configs(tmp_path, monkeypatch))
    ran = []
    for name, cfg in sorted(configs.items()):
        if cfg["experiment"] == "mu-dyn":
            experiments.run_experiment(validate_config(cfg, env={}), write_outputs=False)
            ran.append(name)
    assert ran == ["mu_dyn", "mu_dyn_cycle24"]


def test_shipped_and_benchmark_work_stays_far_below_every_budget(tmp_path, monkeypatch):
    # Every work check of the shipped configs and the monte-carlo workload's,
    # recorded as (what, replicas, events per run) and passed; each run stops
    # at its first replica. Totals must stay 100 times below their budget of
    # 10^9, runs 10 times below 10^6. mu-dyn's dual stops at a random time
    # and checks its blocks as they run (above); exact runs check nothing.
    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    checks = {}
    monkeypatch.setattr(
        estimators, "_check_work",
        lambda label, replicas, per_run, budget: checks[name].append((label, replicas, per_run)),
    )
    monkeypatch.setattr(estimators, "_collect", stop)
    monkeypatch.setattr(experiments, "_collect", stop)
    configs = {path.stem: json.loads(path.read_text()) for path in CONFIG_DIR.glob("*.json")}
    configs.update(_benchmark_monte_carlo_configs(tmp_path, monkeypatch))
    for name, cfg in sorted(configs.items()):
        checks[name] = []
        try:
            experiments.run_experiment(validate_config(cfg, env={}), write_outputs=False)
        except Stop:
            pass
    gone1, gone5 = -math.expm1(-1.0), -math.expm1(-5.0)  # 1 - e^-t at v = 1
    birth_death = [("birth-death events", 20_000, 2 * t + r0 * gone - gone)
                   for t, gone in ((1.0, gone1), (5.0, gone5)) for r0 in (0, 3)] * 2
    assert {name: found for name, found in checks.items() if found} == {
        "duality_check_mc": [("dual rings", 40_000, 2.0), ("forward rings", 40_000, 27.0)],
        # Up front, then the first estimator's own check, at the largest time.
        "mgf_check": [*birth_death, ("dual rings", 20_000, 2.0), birth_death[2]],
        "raw_simulate": [("forward rings", 200, 60.0)],
        "raw_simulate_torus30": [("forward rings", 20, 54_000.0)],
        "stationary_compare": [("forward rings", 20_000, 100.0)],
    }
    for found in checks.values():
        for _, replicas, per_run in found:
            assert replicas * per_run <= 10**9 // 100 and per_run <= 10**6 // 10


# Shipped config -> its gate families in order, as (gates, sigmas, sides);
# sigmas 0 marks an exact family.
SHIPPED_FAMILIES = {
    "duality_check": [(1, 0.0, 2)],
    "duality_check_mc": [(1, 3.0, 2)],
    "mgf_check": [(8, 3.0, 2), (1, 3.0, 1)],
    "mu_dyn": [(1, 3.0, 2)],
    "raw_simulate": [],
    "stationary_compare": [(1, 0.0, 2), (9, 3.0, 2)],
    "tv_decay": [(1, 0.0, 2), (1, 0.0, 2)],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
def test_shipped_config_records_its_gate_families(name, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = CONFIG_DIR / f"{name}.json"
    result = experiments.run_experiment(load_config(path), write_outputs=False)
    assert [(f.gates, f.sigmas, f.sides) for f in result.gates] == SHIPPED_FAMILIES[name]
    for family in result.gates:
        # The union bound: each gate fails falsely with a normal tail per side.
        bound = min(1.0, family.gates * family.sides * stats.norm.sf(family.sigmas))
        assert family.rate == (0.0 if family.sigmas == 0 else pytest.approx(bound, rel=1e-12))
        assert family.line() in result.lines
    verdict = {True: "PASS", False: "FAIL", None: "DONE"}[result.passed]
    assert main(["check", str(path)]) == (1 if result.passed is False else 0)
    assert capsys.readouterr().out.splitlines()[-1] == f"{result.experiment}: {verdict}"


def test_cli_run_outputs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    body = dict(
        experiment="mu-dyn",
        seed=17,
        graph="complete:2",
        p=0.3,
        v=1.0,
        sites=[0, 1],
        signs=[1, 1],
        replicas=200,
        sigmas=25.0,
    )
    exact = dict(
        experiment="stationary-compare",
        seed=2,
        graph="path:3",
        p=0.3,
        v=1.0,
        max_revealed=2,
        replicas=0,
        tolerance=1e-10,
    )
    raw = dict(
        experiment="raw-simulate",
        seed=23,
        graph="cycle:6",
        p=0.4,
        v=1.0,
        t_max=2.0,
        checkpoint_times=[0.5, 2.0],
        observables=["site0=+1", "edge1=-1"],
        replicas=40,
    )
    tv = dict(experiment="tv-decay", seed=4, graph="path:3", p=0.3, v=1.0, t_max=20.0, t_step=5.0)
    mgf = dict(
        experiment="mgf-check", seed=5, times=[1.0], replicas=300, check_domination=True,
        graph="path:3", p=0.3, t=1.0,
    )
    tv_names = ("tv_decay.csv", "tv_decay.legend.txt")
    runs = (
        (body, ("mu_dyn_estimate.jsonl", "coalescence_reports.json")),
        (exact, ("stationary_distribution.csv", "stationary_compare.jsonl")),
        # 9,000 replicas are three blocks of the batched forward estimator.
        ({**exact, "replicas": 9000, "mc_time": 2.0, "sigmas": 25.0},
         ("stationary_compare.jsonl",)),
        (raw, ("checkpoints.csv",)),
        (DUALITY_BASE, ("duality_gaps.jsonl",)),
        ({**DUALITY_BASE, "oracle": "off", "replicas": 300}, ("duality_mc.jsonl",)),
        (tv, tv_names),
        ({**tv, "t_max": 10.0, "oracle": "off", "replicas": 400}, tv_names),
        (mgf, ("mgf_check.jsonl",)),
        # 4,200 replicas are two blocks of the batched dual and birth-death runs.
        ({**body, "replicas": 4200}, ("mu_dyn_estimate.jsonl", "coalescence_reports.json")),
        ({**mgf, "replicas": 4200, "sigmas": 25.0}, ("mgf_check.jsonl",)),
    )
    for i, (cfg, names) in enumerate(runs):
        a, b = out_a / str(i), out_b / str(i)
        assert main(["run", write_cfg(tmp_path, f"a{i}.json", **cfg, output_dir=str(a))]) == 0
        assert main(["run", write_cfg(tmp_path, f"b{i}.json", **cfg, output_dir=str(b))]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # check evaluates the same gates but writes nothing, not even the directory.
        d = tmp_path / "d" / str(i)
        assert main(["check", write_cfg(tmp_path, f"d{i}.json", **cfg, output_dir=str(d))]) == 0
        assert not d.exists()
        if cfg.get("replicas"):
            # Monte Carlo output must not depend on the worker count either.
            c = tmp_path / "c" / str(i)
            path = write_cfg(tmp_path, f"c{i}.json", **cfg, workers=2, output_dir=str(c))
            assert main(["run", path]) == 0
            for name in names:
                assert (a / name).read_bytes() == (c / name).read_bytes()


def test_cli_accepts_zero_rate_towards_non_neighbor(tmp_path):
    # validate_kernel allows rate 0 off the graph's support; such an entry is
    # never drawn, and the exact generators skip it before any edge lookup,
    # so each run equals the one with the uniform kernel.
    kernel = tmp_path / "kernel.txt"
    kernel.write_text("0 1 1.0\n0 2 0.0\n1 0 0.5\n1 2 0.5\n2 1 1.0\n")
    common = dict(seed=4, graph="path:3", p=0.4, v=1.0)
    bodies = {
        "checkpoints.csv": dict(
            experiment="raw-simulate", t_max=3.0, checkpoint_times=[1.0, 3.0],
            observables=["site0=+1", "edge1=-1"], replicas=20,
        ),
        "duality_gaps.jsonl": dict(experiment="duality-check", k=1, t=0.5, oracle="on"),
    }
    for name, body in bodies.items():
        with_file = tmp_path / f"{body['experiment']}-with_file"
        uniform = tmp_path / f"{body['experiment']}-uniform"
        path = write_cfg(tmp_path, "a.json", **common, **body, kernel_file=str(kernel), output_dir=str(with_file))
        assert main(["run", path]) == 0
        assert main(["run", write_cfg(tmp_path, "b.json", **common, **body, output_dir=str(uniform))]) == 0
        assert (with_file / name).read_bytes() == (uniform / name).read_bytes()


def test_cli_raw_simulate_end_to_end(tmp_path):
    out_dir = tmp_path / "raw"
    path = write_cfg(
        tmp_path,
        experiment="raw-simulate",
        seed=23,
        graph="path:3",
        p=0.4,
        v=1.0,
        t_max=2.0,
        checkpoint_times=[0.5, 1.0, 2.0],
        observables=["site0=+1", "edge1=-1", "full"],
        replicas=4,
        output_dir=str(out_dir),
    )
    assert main(["run", path]) == 0
    with open(out_dir / "checkpoints.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 3 * 3  # replicas x times x observables
    assert set(rows[0]) == {"replica", "time", "observable_id", "value"}
    assert [int(r["replica"]) for r in rows] == sorted(int(r["replica"]) for r in rows)
    for row in rows:
        assert float(row["value"]) in (0.0, 1.0)
        if row["observable_id"] == "full":
            assert float(row["value"]) == 1.0
    assert not (out_dir / "final_state.txt").exists()  # only for replicas == 1

    single = write_cfg(
        tmp_path,
        "single.json",
        experiment="raw-simulate",
        seed=23,
        graph="path:3",
        p=0.4,
        v=1.0,
        t_max=2.0,
        observables=["full"],
        output_dir=str(out_dir / "single"),
    )
    assert main(["run", single]) == 0
    from spinbond.forward import read_state_file
    from spinbond.graphs import builtin_graph

    state = read_state_file(builtin_graph("path", 3), out_dir / "single" / "final_state.txt")
    assert state.site_signs.shape == (3,)
    assert state.edge_signs.shape == (2,)


def test_cli_exact_duality_check_reads_graph_and_state_files(tmp_path, capsys):
    # The graph file of cycle:5 and a state file of the striped start give
    # the gap table of the builtin graph with the default start, byte for byte.
    from spinbond.experiments import _striped_state
    from spinbond.forward import write_state_file
    from spinbond.graphs import builtin_graph

    graph_file, state_file = tmp_path / "cycle5.txt", tmp_path / "striped.txt"
    assert main(["graph", "cycle", "5", "--out", str(graph_file)]) == 0
    write_state_file(_striped_state(builtin_graph("cycle", 5)), state_file)
    common = dict(experiment="duality-check", p=0.3, v=1.0, k=1, t=0.8, oracle="on")
    from_files = write_cfg(
        tmp_path, "files.json", **common, graph_file=str(graph_file),
        forward_initial_file=str(state_file), output_dir=str(tmp_path / "files"),
    )
    builtin = write_cfg(tmp_path, "builtin.json", **common, graph="cycle:5", output_dir=str(tmp_path / "builtin"))
    assert main(["run", from_files]) == 0 and main(["run", builtin]) == 0
    assert "duality-check: 2430 dual initial states" in capsys.readouterr().out
    name = "duality_gaps.jsonl"
    assert (tmp_path / "files" / name).read_bytes() == (tmp_path / "builtin" / name).read_bytes()


def test_cli_tv_decay_and_raw_simulate_read_their_initial_file(tmp_path):
    from spinbond.forward import SpinBondState, read_state_file, write_state_file
    from spinbond.graphs import builtin_graph

    g = builtin_graph("path", 3)
    minus = tmp_path / "minus.txt"
    write_state_file(SpinBondState.constant(g, site_sign=-1, edge_sign=-1), minus)
    # tv-decay starts from the all-minus state when no file is given.
    tv = dict(experiment="tv-decay", graph="path:3", p=0.4, v=1.0, t_max=20.0, t_step=0.5, oracle="on")
    with_file = write_cfg(tmp_path, "a.json", **tv, initial_file=str(minus), output_dir=str(tmp_path / "a"))
    assert main(["run", with_file]) == 0
    assert main(["run", write_cfg(tmp_path, "b.json", **tv, output_dir=str(tmp_path / "b"))]) == 0
    curve = (tmp_path / "a" / "tv_decay.csv").read_bytes()
    assert curve == (tmp_path / "b" / "tv_decay.csv").read_bytes()

    raw = dict(experiment="raw-simulate", seed=3, graph="path:3", p=0.4, v=1.0, observables=["full"], replicas=1)
    for t_max, out in ((2.0, "run"), (0.0, "still")):
        body = dict(raw, t_max=t_max, initial_file=str(minus), output_dir=str(tmp_path / out))
        assert main(["run", write_cfg(tmp_path, f"{out}.json", **body)]) == 0
        state = read_state_file(g, tmp_path / out / "final_state.txt")
        assert state.site_signs.shape == (3,) and state.edge_signs.shape == (2,)
    assert (tmp_path / "still" / "final_state.txt").read_bytes() == minus.read_bytes()


@pytest.mark.parametrize(
    "files, body, message",
    [
        ({}, dict(experiment="duality-check", graph_file="missing.txt"), "cannot load graph file"),
        (
            {"kernel.txt": "0 1\n"},
            dict(experiment="duality-check", graph="path:3", kernel_file="kernel.txt"),
            "cannot load kernel file",
        ),
        (
            {"kernel.txt": "0 2 1.0\n1 0 0.5\n1 2 0.5\n2 1 1.0\n"},
            dict(experiment="duality-check", graph="path:3", kernel_file="kernel.txt"),
            "invalid kernel: off-support rate q(0,2) = 1.0",
        ),
        (
            {"isolated.txt": "3 1\n0 1\n"},
            dict(experiment="duality-check", graph_file="isolated.txt"),
            "vertex 2 is isolated",
        ),
        (
            {"state.txt": "+-x\n+-\n"},
            dict(experiment="raw-simulate", graph="path:3", t_max=1.0, observables=["full"],
                 initial_file="state.txt"),
            "cannot load state file",
        ),
        ({}, dict(experiment="mu-dyn", graph="path:3", sites=[5], replicas=10), "site 5 outside 0..2"),
        (
            {},
            dict(experiment="mu-dyn", graph="path:3", sites=[0], replicas=10,
                 revealed_positive=[0], revealed_negative=[0]),
            "revealed_positive and revealed_negative overlap",
        ),
        (
            {},
            dict(experiment="raw-simulate", graph="path:3", t_max=1.0, observables=["site7=+1"]),
            "observable site 7 outside 0..2",
        ),
        (
            {},
            dict(experiment="raw-simulate", graph="path:3", t_max=1.0, observables=["site0"]),
            "bad cylinder term 'site0'",
        ),
        (
            {"kernel.txt": "0 1 0.5\n0 2 0.5\n1 0 0.5\n1 2 0.5\n2 0 0.5\n2 1 0.5\n7 0 0.9\n"},
            dict(experiment="duality-check", graph="cycle:3", kernel_file="kernel.txt"),
            "names a vertex outside 0..2",
        ),
        (
            {"kernel.txt": "0 1 0.5\n0 2 0.5\n1 0 0.5\n1 2 0.5\n2 0 0.5\n2 1 0.5\n-1 2 3.0\n"},
            dict(experiment="duality-check", graph="cycle:3", kernel_file="kernel.txt"),
            "names a vertex outside 0..2",
        ),
        (
            {"kernel.txt": "0 1 0.5\n0 2 0.5\n1 0 0.5\n1 2 0.5\n2 0 0.5\n2 1 0.5\n0 1 0.5\n"},
            dict(experiment="duality-check", graph="cycle:3", kernel_file="kernel.txt"),
            "repeats the pair 0 1",
        ),
        (
            {"graph.txt": "3 3\n0 1\n1 2\n1 0\n"},
            dict(experiment="duality-check", graph_file="graph.txt"),
            "declares 3 edges but lists 3, 2 of them distinct",
        ),
        # Retired keys: the duality check always runs the coalescing dual,
        # and the seed alone picks the noise.
        *(
            ({}, body, f"unknown keys for experiment {body['experiment']!r}: {key}")
            for key, body in [
                ("mode", {**DUALITY_BASE, "mode": "coalescing"}),
                ("mode", {**DUALITY_BASE, "mode": "independent"}),
                ("stream", {**DUALITY_BASE, "stream": 0}),
                ("stream", dict(experiment="mgf-check", stream=1)),
            ]
        ),
    ],
)
def test_cli_file_and_model_errors_exit_two_and_write_nothing(tmp_path, capsys, files, body, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {key: str(tmp_path / body[key]) for key in ("graph_file", "kernel_file", "initial_file") if key in body}
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, **{**body, **paths}, output_dir=str(out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_cli_graph_subcommand(tmp_path, capsys):
    assert main(["graph", "path", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3 2"
    assert out[1:] == ["0 1", "1 2"]
    assert main(["graph", "cycle", "2"]) == 2  # too short for a cycle
    capsys.readouterr()
    assert main(["graph", "cycle", "3", "4"]) == 2
    assert "cycle takes 1 size, got 2" in capsys.readouterr().err

    target = tmp_path / "g.txt"
    assert main(["graph", "grid_torus", "2", "2", "--out", str(target)]) == 0
    from spinbond.graphs import read_graph_file

    g = read_graph_file(target)
    assert g.vertex_count == 4 and g.edge_count == 4


def test_cli_entry_point_installed():
    # pytest's pythonpath setting reaches only this process, so the child
    # gets the source tree on PYTHONPATH and runs without an install.
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "spinbond.cli", "graph", "path", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "3 2"


# ------------------------------------------------------------- write_results


def test_write_results_empty_csv_is_header_only(tmp_path):
    from spinbond.experiments import write_results

    path = tmp_path / "empty.csv"
    write_results({"alpha": [], "beta": np.array([])}, path)
    assert path.read_text() == "alpha,beta\n"
    with pytest.raises(ValueError, match="format"):
        write_results({"alpha": []}, tmp_path / "x.tsv")


def test_write_results_jsonl_round_trip(tmp_path):
    from spinbond.experiments import write_results

    records = [
        {"estimator": "x", "params": {"p": 0.3, "ids": [1, 2]}, "point": 1.0 / 3.0,
         "std_error": 0.0, "replicas": 5, "censored": 0},
        {"estimator": "y", "params": {}, "point": -1e-17, "std_error": float(2**53),
         "replicas": 1, "censored": 0, "note": 'quo"te'},
        {"estimator": "z", "params": {}, "point": math.nan, "std_error": math.inf,
         "replicas": 0, "censored": 0},
    ]
    path = tmp_path / "records.jsonl"
    write_results(records, path)
    back = [json.loads(line) for line in path.read_text().splitlines()]
    # repr, because nan != nan
    assert repr(back) == repr(records)
    # key order is preserved, not sorted
    assert list(back[0]) == list(records[0])


SPECIAL_LHS = [math.nan, math.inf, -0.0, 1.0 / 3.0, -math.inf, 5e-324, 1e300, 0.1]
SPECIAL_RHS = [0.0, math.inf, 0.0, 0.1, 2.0, -0.0, math.nan, -math.nan]


def _special_columns(rows):
    """Float columns with the special values at both ends and across each block boundary."""
    from spinbond.experiments import _WRITE_BLOCK

    lhs = [i / 7.0 for i in range(rows)]
    rhs = [-i * 1e-9 for i in range(rows)]
    width = len(SPECIAL_LHS)
    for at in (0, *range(_WRITE_BLOCK - width // 2, rows - width, _WRITE_BLOCK), rows - width):
        lhs[at:at + width], rhs[at:at + width] = SPECIAL_LHS, SPECIAL_RHS
    return lhs, rhs


def test_write_results_jsonl_columns_match_json_dumps_per_row(tmp_path):
    from spinbond.experiments import write_results

    # 9,000 rows span several of the writer's blocks
    lhs, rhs = _special_columns(9000)
    columns = {
        "dual_state": list(range(len(lhs))),
        "lhs": tuple(lhs),
        "rhs": rhs,
        "gap": [abs(a - b) for a, b in zip(lhs, rhs)],
        "ok": [a < b for a, b in zip(lhs, rhs)],
        "note": [["a, b", 'quo"te', "\u00e9"][i % 3] for i in range(len(lhs))],
    }
    rows = zip(*columns.values())
    want = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    assert "NaN" in want and "-Infinity" in want and "-0.0" in want
    write_results(columns, tmp_path / "columns.jsonl")
    assert (tmp_path / "columns.jsonl").read_text() == want
    write_results({"gap": []}, tmp_path / "empty.jsonl")
    assert (tmp_path / "empty.jsonl").read_text() == ""
    with pytest.raises(ValueError, match="same length"):
        write_results({"a": [1, 2], "b": [1.0]}, tmp_path / "ragged.jsonl")


def test_write_results_csv_columns_match_csv_writer(tmp_path):
    from spinbond.experiments import write_results

    def cell(value):  # one CSV cell, as the writer spelled it record by record
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lhs, rhs = _special_columns(9000)
    columns = {
        "replica": np.arange(len(lhs)) // 3,
        "lhs": np.array(lhs),
        "rhs": rhs,
        "hit": [a < b for a, b in zip(lhs, rhs)],
        "label": [["a,b", 'quo"te', "site0=+1", "x y"][i % 4] for i in range(len(lhs))],
        "count": [i % 5 - 2 for i in range(len(lhs))],
    }
    as_lists = {key: list(col.tolist() if isinstance(col, np.ndarray) else col)
                for key, col in columns.items()}
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([cell(value) for value in row] for row in zip(*as_lists.values()))
    want = (tmp_path / "want.csv").read_bytes()
    assert b"nan" in want and b"-inf" in want and b"-0" in want and b'"a,b"' in want
    assert b'"quo""te"' in want and want.count(b"\r\n") == len(lhs) + 1
    write_results(columns, tmp_path / "columns.csv")
    assert (tmp_path / "columns.csv").read_bytes() == want


def test_write_results_csv_field_order(tmp_path):
    from spinbond.experiments import write_results

    path = tmp_path / "table.csv"
    write_results({"b": [2.0, 0.125], "a": [1, 3]}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "b,a"
    assert lines[1] == "2,1"
    assert lines[2] == "0.125,3"


def test_write_results_suffix_picks_the_encoder(tmp_path):
    from spinbond.experiments import ExperimentResult, write_results

    table = {"b": [2.0, 0.125], "a": [1, 3]}
    write_results(table, tmp_path / "t.csv")
    write_results(table, tmp_path / "t.jsonl")
    assert (tmp_path / "t.csv").read_bytes() == b"b,a\r\n2,1\r\n0.125,3\r\n"
    assert (tmp_path / "t.jsonl").read_text() == '{"b": 2.0, "a": 1}\n{"b": 0.125, "a": 3}\n'
    for name in ("t.tsv", "t", "t.csv.gz", "t.JSONL"):
        with pytest.raises(ValueError, match="no results format"):
            write_results(table, tmp_path / name)
        assert not (tmp_path / name).exists()
    # The legend goes beside the table, also beside a JSON lines one.
    for name in ("t.csv", "t.jsonl"):
        out = tmp_path / f"out_{name}"
        result = ExperimentResult("x", out_dir=out)
        result.write(name, table, legend="b, a\n")
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert (out / "t.legend.txt").read_text() == "b, a\n"
        assert result.files == [str(out / name), str(out / "t.legend.txt")]


def test_write_results_jsonl_numpy_columns_match_sequences(tmp_path):
    from spinbond.experiments import write_results

    # 9,000 rows span several of the writer's blocks
    lhs, rhs = (np.array(col) for col in _special_columns(9000))
    # the fields of a record array are strided views
    table = np.rec.fromarrays(
        [np.arange(len(lhs)), lhs, rhs], names=["dual_state", "lhs", "rhs"]
    )
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = np.abs(table.lhs - table.rhs)
    columns = {"dual_state": table.dual_state, "lhs": table.lhs, "rhs": table.rhs, "gap": gap}
    assert table.dual_state.dtype == np.int64 and not table.lhs.flags.contiguous
    as_lists = {key: col.tolist() for key, col in columns.items()}
    rows = zip(*as_lists.values())
    want = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    assert "NaN" in want and "-Infinity" in want and "-0.0" in want
    write_results(columns, tmp_path / "numpy.jsonl")
    write_results(as_lists, tmp_path / "lists.jsonl")
    assert (tmp_path / "numpy.jsonl").read_text() == want
    assert (tmp_path / "lists.jsonl").read_text() == want


def test_write_results_streams_jsonl_records_from_a_generator(tmp_path):
    import tracemalloc

    from spinbond.experiments import write_results

    def records(count):
        return ({"state_index": s, "probability": s / 7.0} for s in range(count))

    write_results(list(records(50)), tmp_path / "list.jsonl")
    write_results(records(50), tmp_path / "generator.jsonl")
    text = (tmp_path / "generator.jsonl").read_text()
    assert text == (tmp_path / "list.jsonl").read_text()
    assert text.splitlines()[0] == '{"state_index": 0, "probability": 0.0}'
    # 10,000 records make 0.55 MB, 67 file buffers of 8 KB; held at once
    # they would take 1.7 MB, while streamed the writer holds one record and
    # the file buffer (32 KB)
    tracemalloc.start()
    try:
        write_results(records(10_000), tmp_path / "long.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert len((tmp_path / "long.jsonl").read_text().splitlines()) == 10_000
