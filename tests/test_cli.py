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

from spinbond.config import (
    SEED_ENV_VAR,
    load_config,
    parse_graph_spec,
    validate_config,
)
from spinbond import experiments
from spinbond.errors import ConfigError
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
    assert cfg["mode"] == "coalescing"
    assert cfg["stream"] == 0
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
    write_results([], path, "csv", fieldnames=["alpha", "beta"])
    assert path.read_text() == "alpha,beta\n"
    with pytest.raises(ValueError, match="fieldnames"):
        write_results([], tmp_path / "no_header.csv", "csv")
    with pytest.raises(ValueError, match="format"):
        write_results([], tmp_path / "x.tsv", "tsv")


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
    write_results(records, path, "jsonl")
    back = [json.loads(line) for line in path.read_text().splitlines()]
    # repr, because nan != nan
    assert repr(back) == repr(records)
    # key order is preserved, not sorted
    assert list(back[0]) == list(records[0])


def test_write_results_jsonl_columns_match_json_dumps_per_row(tmp_path):
    from spinbond.experiments import write_results

    special_lhs = [math.nan, math.inf, -0.0, 1.0 / 3.0, -math.inf, 5e-324, 1e300]
    special_rhs = [0.0, math.inf, 0.0, 0.1, 2.0, -0.0, math.nan]
    # 9,000 rows span nine blocks of 1,024; the special values sit at both
    # ends of the table and on each side of the block boundary at row 4,096
    lhs = [i / 7.0 for i in range(9000)]
    rhs = [-i * 1e-9 for i in range(9000)]
    for at in (0, 4090, 8993):
        lhs[at:at + 7], rhs[at:at + 7] = special_lhs, special_rhs
    columns = {
        "dual_state": list(range(len(lhs))),
        "lhs": tuple(lhs),
        "rhs": rhs,
        "gap": [abs(a - b) for a, b in zip(lhs, rhs)],
    }
    rows = zip(*columns.values())
    want = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    assert "NaN" in want and "-Infinity" in want and "-0.0" in want
    write_results(columns, tmp_path / "columns.jsonl", "jsonl")
    assert (tmp_path / "columns.jsonl").read_text() == want
    write_results({"gap": []}, tmp_path / "empty.jsonl", "jsonl")
    assert (tmp_path / "empty.jsonl").read_text() == ""


def test_write_results_csv_field_order(tmp_path):
    from spinbond.experiments import write_results

    path = tmp_path / "table.csv"
    write_results(
        [{"b": 2.0, "a": 1}, {"b": 0.125, "a": 3}], path, "csv"
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "b,a"
    assert lines[1] == "2,1"
    assert lines[2] == "0.125,3"


def test_write_results_jsonl_numpy_columns_match_sequences(tmp_path):
    from spinbond.experiments import write_results

    # 2,500 rows span three blocks of 1,024; special values sit on each side
    # of the block boundary at row 1,024
    lhs = np.arange(2500) / 7.0
    lhs[1020:1027] = [math.nan, math.inf, -0.0, 1.0 / 3.0, -math.inf, 5e-324, 1e300]
    rhs = -np.arange(2500) * 1e-9
    # the fields of a record array are strided views
    table = np.rec.fromarrays([np.arange(2500), lhs, rhs], names=["dual_state", "lhs", "rhs"])
    columns = {
        "dual_state": table.dual_state,
        "lhs": table.lhs,
        "rhs": table.rhs,
        "gap": np.abs(table.lhs - table.rhs),
    }
    assert table.dual_state.dtype == np.int64 and not table.lhs.flags.contiguous
    as_lists = {key: col.tolist() for key, col in columns.items()}
    rows = zip(*as_lists.values())
    want = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    assert "NaN" in want and "-Infinity" in want and "-0.0" in want
    write_results(columns, tmp_path / "numpy.jsonl", "jsonl")
    write_results(as_lists, tmp_path / "lists.jsonl", "jsonl")
    assert (tmp_path / "numpy.jsonl").read_text() == want
    assert (tmp_path / "lists.jsonl").read_text() == want


def test_write_results_streams_csv_records_from_a_generator(tmp_path):
    import tracemalloc

    from spinbond.experiments import write_results

    def records(count):
        return ({"state_index": s, "probability": s / 7.0} for s in range(count))

    write_results(list(records(50)), tmp_path / "list.csv", "csv")
    write_results(records(50), tmp_path / "generator.csv", "csv")
    text = (tmp_path / "generator.csv").read_text()
    assert text == (tmp_path / "list.csv").read_text()
    assert text.splitlines()[:2] == ["state_index,probability", "0,0"]
    # 100,000 records held at once would take tens of MB; streamed, the
    # writer holds one record and the file buffer
    tracemalloc.start()
    try:
        write_results(records(100_000), tmp_path / "long.csv", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len((tmp_path / "long.csv").read_text().splitlines()) == 100_001
