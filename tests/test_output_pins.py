"""Whole result files pinned by sha256, and ``spinbond check`` stdout as text.

The writer's tests compare it with ``json.dumps`` and ``csv.writer`` row by
row; these pins hold the files the runners write, header, line endings and
every digit, so a change in how a table is encoded, blocked or ordered
fails here. The duality gap table (24,300 rows) and ``checkpoints.csv``
(10,000 rows) each span several of the writer's blocks; the smaller
raw-simulate pins hold how its time column is spelled for fractional,
integer, repeated and end-point checkpoints, its final state and its
rows' order across workers. The exact
``cycle:4``, ``cycle:5`` and ``cycle:6`` files also hold the sparse layout
of the generators to its bits: a product, a row sum or a stationary step
that adds its terms in another order fails here. A change that alters a
table's numbers on purpose updates its pin, and says so.

The stdout pins hold every verdict line and the exit code of the shipped
configs and of one failing config per gate form, made to fail by a tiny
``sigmas``, ``tolerance`` or ``threshold``, plus runs where no gate applies.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spinbond.cli import main
from spinbond.config import SEED_ENV_VAR, validate_config
from spinbond.experiments import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CONFIGS = {
    "duality_exact": dict(
        experiment="duality-check", graph="cycle:5", p=0.3, v=1.0, k=2, t=1.0, seed=1
    ),
    "tv_exact": dict(experiment="tv-decay", graph="path:3", p=0.3, v=1.0, seed=4),
    "tv_exact_cycle6": dict(
        experiment="tv-decay", graph="cycle:6", p=0.3, v=1.0, seed=4, initial_file="state.txt"
    ),
    "duality_exact_cycle4": dict(
        experiment="duality-check", graph="cycle:4", p=0.3, v=1.0, k=2, t=1.0, seed=1
    ),
    "stationary_exact_cycle5": dict(
        experiment="stationary-compare", graph="cycle:5", p=0.3, v=1.0, seed=2
    ),
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
    # Fractional times; all-integer times (the config keeps them ints); a
    # repeated checkpoint with checkpoints at 0 and t_max, on one replica,
    # which also writes final_state.txt; two workers; and a -0.0 checkpoint,
    # whose rows are spelled 0 like those of the 0.0 beside it.
    "raw_fractional": dict(
        experiment="raw-simulate", graph="path:3", p=0.4, v=1.0, t_max=3.0,
        checkpoint_times=[2.5, 0.1], observables=["site0=+1", "edge1=-1"], replicas=40, seed=8,
    ),
    "raw_integer": dict(
        experiment="raw-simulate", graph="path:3", p=0.4, v=1.0, t_max=3,
        checkpoint_times=[1, 2, 3], observables=["site1=-1", "site0=+1&edge0=+1"],
        replicas=40, seed=9,
    ),
    "raw_one_replica": dict(
        experiment="raw-simulate", graph="path:3", p=0.4, v=1.0, t_max=3.0,
        checkpoint_times=[0.0, 1.5, 1.5, 3.0], observables=["site2=+1", "edge0=-1"],
        replicas=1, seed=10,
    ),
    "raw_workers": dict(
        experiment="raw-simulate", graph="path:3", p=0.4, v=1.0, t_max=2.0,
        checkpoint_times=[0.5, 2.0], observables=["site0=-1", "edge1=+1&site2=+1"],
        replicas=30, seed=11, workers=2,
    ),
    "raw_negative_zero": dict(
        experiment="raw-simulate", graph="path:3", p=0.4, v=1.0, t_max=1.0,
        checkpoint_times=[-0.0, 0.0, 1.0], observables=["site0=+1", "edge1=-1"],
        replicas=3, seed=12,
    ),
}

OUTPUT_PINS = {
    ("duality_exact", "duality_gaps.jsonl"): (
        "422a78dfc42e9c2a9616f143486860679357fcd0999abca083d98a6f5ae58af6"
    ),
    ("tv_exact", "tv_decay.csv"): (
        "eb9248e348f9b27a7026153e3a683e205db6d92985a9e67a367a316a093977ac"
    ),
    ("tv_exact_cycle6", "tv_decay.csv"): (
        "65525a7228cb6d2ebe43ac4864f6b29c71ef1ed5db1475b1295edd418e32f093"
    ),
    ("duality_exact_cycle4", "duality_gaps.jsonl"): (
        "0c89c3e83580a269d580a58500727c96e812017d80b7d62ebaf642bf801f0715"
    ),
    ("stationary_exact_cycle5", "stationary_distribution.csv"): (
        "182a695e723c6e6e4cdc0f0064566ed10e79c3c06fd1fd359e84ef3a1a104250"
    ),
    ("tv_mc", "tv_decay.csv"): (
        "eb60dd77329dfb1f7519606155241043002af9682b830de587ce1cdaab09f020"
    ),
    ("raw", "checkpoints.csv"): (
        "9f986b1e179986c562025aed3d98ccdc0802a0dc3c650b326d712e0c1aab65a8"
    ),
    ("raw_fractional", "checkpoints.csv"): (
        "cd12c374ed4c8703aee6c825a92f7e4a56f7115bd1c2b68f9d0a40a2006f08a9"
    ),
    ("raw_integer", "checkpoints.csv"): (
        "ac77bc2e8db2a3230b9c037cbea0b11b5103cf95b0a183aa23f2256573a42242"
    ),
    ("raw_one_replica", "checkpoints.csv"): (
        "96c61cad4de34802c064af494386a16c74a23d30780e494957bd708d40c5010f"
    ),
    ("raw_one_replica", "final_state.txt"): (
        "d6fe6a83091347dd46592674b86b5de573c158e669e152315dc572904d58b939"
    ),
    ("raw_workers", "checkpoints.csv"): (
        "fbad823714add8773e28bf3c29bc3744b5d17c7c607d9385735fed4ab9dec149"
    ),
    ("raw_negative_zero", "checkpoints.csv"): (
        "40603e9e4b27ba817cd1995d3bd324338317a33bbbf6015f14ba37a44b4393a4"
    ),
}


# State files named by a config's initial_file, written beside its output:
# the sites of cycle:6, then its edges.
STATE_FILES = {"tv_exact_cycle6": "++-+--\n+--+-+\n"}


@pytest.mark.parametrize("case", sorted(OUTPUT_PINS))
def test_result_file_is_pinned(case, tmp_path):
    name, filename = case
    body = dict(CONFIGS[name], output_dir=str(tmp_path))
    if name in STATE_FILES:
        body["initial_file"] = str(tmp_path / body["initial_file"])
        (tmp_path / CONFIGS[name]["initial_file"]).write_text(STATE_FILES[name])
    cfg = validate_config(body, env={})
    run_experiment(cfg)
    assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == OUTPUT_PINS[case]


_DUALITY = dict(experiment="duality-check", seed=5, graph="complete:2", p=0.3, v=1.0, k=2, t=1.0)

# Each failing config fails through the gate form its name gives; the four
# after them reach no gate. cycle:11 is above the exact cap. A t_max of -0.0 is
# printed as 0.
CHECK_CONFIGS = {
    "duality_tolerance": {**_DUALITY, "tolerance": 1e-300},
    "stationary_tolerance": dict(
        experiment="stationary-compare", seed=2, graph="path:3", p=0.3, max_revealed=1,
        tolerance=1e-300,
    ),
    "duality_pooled": {**_DUALITY, "oracle": "off", "replicas": 400, "sigmas": 1e-6},
    "stationary_sigmas": dict(
        experiment="stationary-compare", seed=2, graph="path:3", p=0.3, max_revealed=1,
        replicas=400, mc_time=2.0, sigmas=1e-6,
    ),
    "mu_dyn_sigmas": dict(
        experiment="mu-dyn", seed=3, graph="complete:2", p=0.3, sites=[0, 1], replicas=400,
        sigmas=1e-6, report_limit=0,
    ),
    "tv_threshold": dict(
        experiment="tv-decay", seed=4, graph="path:3", p=0.3, t_max=2.0, t_step=0.5,
        threshold=1e-300,
    ),
    "tv_mc_bound": dict(
        experiment="tv-decay", seed=4, graph="path:3", p=0.3, t_max=2.0, t_step=1.0,
        oracle="off", replicas=400, threshold=1e-6, sigmas=1e-6,
    ),
    # At t = 0.05 the domination bound is nearly tight, so seed 7 breaks it too.
    "domination": dict(
        experiment="mgf-check", seed=7, thetas=[0.5], times=[1.0], r0_values=[0],
        replicas=400, sigmas=1e-6, check_domination=True, graph="path:3", p=0.3, t=0.05,
    ),
    "mu_dyn_oracle_off": dict(
        experiment="mu-dyn", seed=3, graph="complete:2", p=0.3, sites=[0, 1], replicas=400,
        oracle="off", report_limit=0,
    ),
    "mu_dyn_capped": dict(
        experiment="mu-dyn", seed=2, graph="cycle:11", p=0.5, sites=[0], replicas=50
    ),
    "nothing_checked": dict(experiment="stationary-compare", seed=2, graph="cycle:11", p=0.5),
    "raw_zero_horizon": dict(
        experiment="raw-simulate", seed=12, graph="path:3", t_max=-0.0,
        observables=["site0=+1"], replicas=2, output_dir="out",
    ),
    # The exact gate alone, where the stationary solve is slow: slow edges,
    # whose spectral gap is of order v, and fast ones, whose rates set lam
    # far above the spins'.
    "stationary_slow_edges": dict(
        experiment="stationary-compare", seed=2, graph="cycle:6", p=0.3, v=0.01, replicas=0
    ),
    "stationary_slower_edges": dict(
        experiment="stationary-compare", seed=2, graph="cycle:6", p=0.3, v=0.008, replicas=0
    ),
    "stationary_fast_edges": dict(
        experiment="stationary-compare", seed=2, graph="path:3", p=0.3, v=1000.0, replicas=0
    ),
    "stationary_fastest_edges": dict(
        experiment="stationary-compare", seed=2, graph="cycle:3", p=0.5, v=1e5, replicas=0,
        oracle="on",
    ),
}

# name -> (exit code, stdout); the shipped configs go by their file stem.
STDOUT_PINS = {
    "duality_check": (
        0,
        """\
duality-check: 48 dual initial states, k=2, t=1, mode=coalescing
worst |lhs-rhs| = 2.232e-13 at dual state 19 (tolerance 1.0e-08): PASS
duality-check: PASS
""",
    ),
    "duality_check_mc": (
        0,
        """\
exact check unavailable (forward states: 134217728 needed, above the supported cap of 1048576); using Monte Carlo cross-check
duality-check (mc): k=2, t=1, mode=coalescing, 40000 replicas per side
forward 0.261225 +- 0.002197, dual 0.256635 +- 0.005247
|forward - dual| = 0.004590 within 3 pooled sigma (0.005688; 1 gate at 3 sigma, family-wise <= 0.27%): PASS
duality-check: PASS
""",
    ),
    "mgf_check": (
        0,
        """\
mgf:theta=-1,t=1,v=1,r0=0: 0.66863 vs 0.67060 (0.78 sigma): PASS
mgf:theta=-1,t=1,v=1,r0=3: 0.30488 vs 0.30313 (0.82 sigma): PASS
mgf:theta=-1,t=5,v=1,r0=0: 0.53858 vs 0.53373 (1.83 sigma): PASS
mgf:theta=-1,t=5,v=1,r0=3: 0.52578 vs 0.52694 (0.44 sigma): PASS
mgf:theta=0.5,t=1,v=1,r0=0: 1.51017 vs 1.50692 (0.55 sigma): PASS
mgf:theta=0.5,t=1,v=1,r0=3: 2.83456 vs 2.86377 (1.94 sigma): PASS
mgf:theta=0.5,t=5,v=1,r0=0: 1.89906 vs 1.90475 (0.59 sigma): PASS
mgf:theta=0.5,t=5,v=1,r0=3: 1.94486 vs 1.92984 (1.35 sigma): PASS
mgf gates (8 gates at 3 sigma, family-wise <= 2.2%): PASS
revealed-set weight at theta=2.4079, t=2: 14.42278 <= bound 6264.91954 (1 one-sided gate at 3 sigma, family-wise <= 0.13%): PASS
mgf-check: PASS
""",
    ),
    "mu_dyn": (
        0,
        """\
mu-dyn: mu_dyn:site0=+1&site1=+1 = 0.150750 +- 0.001623 (20000 replicas, 0 censored)
exact stationary mass 0.150000, deviation 0.46 sigma (1 gate at 3 sigma, family-wise <= 0.27%): PASS
mu-dyn: PASS
""",
    ),
    "raw_simulate": (
        0,
        """\
raw-simulate: 200 replicas on [0, 5], 4 observables, 3 checkpoints
raw-simulate: DONE
""",
    ),
    "stationary_compare": (
        0,
        """\
stationary-compare: 54 cylinders, max_revealed=2
exact vs product form: worst |err| = 1.110e-16 (tolerance 1.0e-10): PASS
mc site0=+1: 0.50265 vs 0.50000 (0.75 sigma): PASS
mc site0=+1&edge0=+1: 0.15300 vs 0.15000 (1.18 sigma): PASS
mc site0=+1&edge0=+1&edge1=+1: 0.04450 vs 0.04500 (0.34 sigma): PASS
mc site0=+1&edge0=+1&edge1=-1: 0.10850 vs 0.10500 (1.59 sigma): PASS
mc site0=+1&edge0=-1: 0.34965 vs 0.35000 (0.10 sigma): PASS
mc site0=+1&edge0=-1&edge1=+1: 0.10905 vs 0.10500 (1.84 sigma): PASS
mc site0=+1&edge0=-1&edge1=-1: 0.24060 vs 0.24500 (1.46 sigma): PASS
mc site0=+1&edge1=+1: 0.15355 vs 0.15000 (1.39 sigma): PASS
mc site0=+1&edge1=-1: 0.34910 vs 0.35000 (0.27 sigma): PASS
mc gates (9 gates at 3 sigma, family-wise <= 2.4%): PASS
stationary-compare: PASS
""",
    ),
    "tv_decay": (
        0,
        """\
tv-decay: grid 0..20 step 0.5, TV start 1.000000, TV end 1.02e-03
non-increasing along the grid: PASS
final TV < 0.01: PASS
tv-decay: PASS
""",
    ),
    "duality_tolerance": (
        1,
        """\
duality-check: 48 dual initial states, k=2, t=1, mode=coalescing
worst |lhs-rhs| = 2.232e-13 at dual state 19 (tolerance 1.0e-300): FAIL
duality-check: FAIL
""",
    ),
    "stationary_tolerance": (
        1,
        """\
stationary-compare: 30 cylinders, max_revealed=1
exact vs product form: worst |err| = 1.110e-16 (tolerance 1.0e-300): FAIL
stationary-compare: FAIL
""",
    ),
    "duality_pooled": (
        1,
        """\
duality-check (mc): k=2, t=1, mode=coalescing, 400 replicas per side
forward 0.272500 +- 0.022290, dual 0.290000 +- 0.044475
|forward - dual| = 0.017500 within 1e-06 pooled sigma (0.049748; 1 gate at 1e-06 sigma, family-wise <= 1e+02%): FAIL
duality-check: FAIL
""",
    ),
    "stationary_sigmas": (
        1,
        """\
stationary-compare: 30 cylinders, max_revealed=1
exact vs product form: worst |err| = 1.110e-16 (tolerance 1.0e-10): PASS
mc site0=+1: 0.46500 vs 0.50000 (1.40 sigma): FAIL
mc site0=+1&edge0=+1: 0.14500 vs 0.15000 (0.28 sigma): FAIL
mc site0=+1&edge0=-1: 0.32000 vs 0.35000 (1.28 sigma): FAIL
mc site0=+1&edge1=+1: 0.13500 vs 0.15000 (0.88 sigma): FAIL
mc site0=+1&edge1=-1: 0.33000 vs 0.35000 (0.85 sigma): FAIL
mc gates (5 gates at 1e-06 sigma, family-wise <= 1e+02%): FAIL
stationary-compare: FAIL
""",
    ),
    "mu_dyn_sigmas": (
        1,
        """\
mu-dyn: mu_dyn:site0=+1&site1=+1 = 0.147500 +- 0.011415 (400 replicas, 0 censored)
exact stationary mass 0.150000, deviation 0.22 sigma (1 gate at 1e-06 sigma, family-wise <= 1e+02%): FAIL
mu-dyn: FAIL
""",
    ),
    "tv_threshold": (
        1,
        """\
tv-decay: grid 0..2 step 0.5, TV start 1.000000, TV end 4.16e-01
non-increasing along the grid: PASS
final TV < 1e-300: FAIL
tv-decay: FAIL
""",
    ),
    "tv_mc_bound": (
        1,
        """\
tv-decay (mc): grid 0..2 step 1, 400 replicas per law, 5 events
TV lower bound start 1.000000, end 0.207500 (argmax site1=+1)
final bound <= 1e-06 + 1e-06 sigma (0.033916; 5 gates at 1e-06 sigma, family-wise <= 1e+02%): FAIL
tv-decay: FAIL
""",
    ),
    "domination": (
        1,
        """\
mgf:theta=0.5,t=1,v=1,r0=0: 1.55562 vs 1.50692 (1.19 sigma): FAIL
mgf gates (1 gate at 1e-06 sigma, family-wise <= 1e+02%): FAIL
revealed-set weight at theta=2.4079, t=0.05: 1.86225 <= bound 1.63742 (1 one-sided gate at 1e-06 sigma, family-wise <= 50%): FAIL
mgf-check: FAIL
""",
    ),
    "mu_dyn_oracle_off": (
        0,
        """\
mu-dyn: mu_dyn:site0=+1&site1=+1 = 0.147500 +- 0.011415 (400 replicas, 0 censored)
oracle disabled; no gate applied
mu-dyn: DONE
""",
    ),
    "mu_dyn_capped": (
        0,
        """\
mu-dyn: mu_dyn:site0=+1 = 0.500000 +- 0.000000 (50 replicas, 0 censored)
exact solve unavailable (forward states: 4194304 needed, above the supported cap of 1048576); no oracle gate applied
mu-dyn: DONE
""",
    ),
    "nothing_checked": (
        0,
        """\
exact solve unavailable (forward states: 4194304 needed, above the supported cap of 1048576); Monte Carlo only
nothing checked: no exact solve and replicas = 0
stationary-compare: DONE
""",
    ),
    "raw_zero_horizon": (
        0,
        """\
raw-simulate: 2 replicas on [0, 0], 1 observables, 1 checkpoints
raw-simulate: DONE
""",
    ),
    "stationary_slow_edges": (
        0,
        """\
stationary-compare: 876 cylinders, max_revealed=2
exact vs product form: worst |err| = 4.441e-16 (tolerance 1.0e-10): PASS
stationary-compare: PASS
""",
    ),
    "stationary_slower_edges": (
        0,
        """\
stationary-compare: 876 cylinders, max_revealed=2
exact vs product form: worst |err| = 4.441e-16 (tolerance 1.0e-10): PASS
stationary-compare: PASS
""",
    ),
    "stationary_fast_edges": (
        0,
        """\
stationary-compare: 54 cylinders, max_revealed=2
exact vs product form: worst |err| = 1.166e-15 (tolerance 1.0e-10): PASS
stationary-compare: PASS
""",
    ),
    "stationary_fastest_edges": (
        0,
        """\
stationary-compare: 114 cylinders, max_revealed=2
exact vs product form: worst |err| = 5.551e-17 (tolerance 1.0e-10): PASS
stationary-compare: PASS
""",
    ),
}


@pytest.mark.parametrize("name", sorted(STDOUT_PINS))
def test_check_stdout_is_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if name in CHECK_CONFIGS:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CHECK_CONFIGS[name]))
    else:
        path = CONFIG_DIR / f"{name}.json"
    code = main(["check", str(path)])
    assert (code, capsys.readouterr().out) == STDOUT_PINS[name]
