"""Workload definitions: the experiment configs each workload runs.

A workload is a list of operations; one operation is one experiment config
run through the public CLI with its outputs written. Configs are generated
from the benchmark seed into a run directory, so the program only ever sees
plain config files (and, for exact-oracle, the state files they name).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SHIPPED_DIR = BENCH_DIR / "configs"

# Each shipped config (a file in SHIPPED_DIR) and the check of its output.
SHIPPED_CHECKS = {
    "duality_check": "gap_table",
    "duality_check_mc": "duality_mc",
    "mgf_check": "mgf",
    "mu_dyn": "mu_dyn_dense",
    "raw_simulate": "raw_simulate",
    "stationary_compare": "stationary",
    "tv_decay": "tv_exact",
}


@dataclass(frozen=True)
class Op:
    """One operation: a config file to run and the check its outputs get."""

    name: str
    config: dict
    config_path: Path
    out_dir: Path
    check: str


def _write_op(run_dir: Path, name: str, config: dict, check: str) -> Op:
    out_dir = run_dir / "out" / name
    config = dict(config, output_dir=str(out_dir))
    path = run_dir / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2) + "\n")
    return Op(name=name, config=config, config_path=path, out_dir=out_dir, check=check)


def _shipped(run_dir: Path, workers: int) -> list[Op]:
    # The shipped configs keep their own seeds: their gates are 3-sigma
    # checks with a family-wise false-failure rate of a few percent, so
    # re-seeding them would make the failure count depend on the seed.
    ops = []
    for name, check in SHIPPED_CHECKS.items():
        cfg = json.loads((SHIPPED_DIR / f"{name}.json").read_text())
        cfg["workers"] = workers
        ops.append(_write_op(run_dir, name, cfg, check))
    return ops


def monte_carlo(seed: int, run_dir: Path) -> list[Op]:
    """The shipped configs with workers=1, plus two long event-driven paths.

    The seed picks the long paths' config seeds and the order of all nine
    operations.
    """
    rnd = random.Random(seed)
    ops = _shipped(run_dir, workers=1) + _long_paths(rnd, run_dir)
    rnd.shuffle(ops)
    return ops


def configs_workers2(seed: int, run_dir: Path) -> list[Op]:
    """The shipped configs on a two-process pool, in the seed's order."""
    ops = _shipped(run_dir, workers=2)
    random.Random(seed).shuffle(ops)
    return ops


# raw-simulate on a 30x30 torus: 900 sites at rate 1 plus 1800 edges at
# rate v = 1 give about 2700 * t_max = 54,000 events per replica.
RAW_OBSERVABLES = [f"site{x}=+1" for x in range(0, 900, 9)] + [
    f"edge{e}=+1" for e in range(0, 1800, 18)
]


def _long_paths(rnd: random.Random, run_dir: Path) -> list[Op]:
    raw = {
        "experiment": "raw-simulate",
        "seed": rnd.randrange(2**31),
        "graph": "grid_torus:30,30",
        "p": 0.3,
        "v": 1.0,
        "t_max": 20.0,
        "checkpoint_times": [0.25, 1.0, 4.0, 20.0],
        "observables": RAW_OBSERVABLES,
        "site_plus_prob": 0.5,
        "edge_plus_prob": 0.9,
        "replicas": 20,
        "workers": 1,
    }
    # 48 bits of forward state, far above the exact cap, so the run has no
    # oracle gate; at p = 1/2 the target 2^-|sites| holds on any graph.
    mu = {
        "experiment": "mu-dyn",
        "seed": rnd.randrange(2**31),
        "graph": "cycle:24",
        "p": 0.5,
        "v": 1.0,
        "sites": [0, 12],
        "replicas": 5000,
        "report_limit": 20,
        "workers": 1,
    }
    return [
        _write_op(run_dir, "raw_simulate_torus30", raw, "raw_simulate"),
        _write_op(run_dir, "mu_dyn_cycle24", mu, "mu_dyn_half"),
    ]


def _random_state_file(rnd: random.Random, path: Path, sites: int, edges: int) -> str:
    def signs(count: int) -> str:
        return "".join(rnd.choice("+-") for _ in range(count))

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(signs(sites) + "\n" + signs(edges) + "\n")
    return str(path)


def exact_oracle(seed: int, run_dir: Path) -> list[Op]:
    # The seed picks the forward initial states; the state-space sizes, and
    # so the work, do not depend on it.
    rnd = random.Random(seed)
    stationary = {
        "experiment": "stationary-compare",
        "seed": rnd.randrange(2**31),
        "graph": "cycle:6",
        "p": 0.3,
        "v": 1.0,
        "max_revealed": 2,
        "replicas": 0,
        "tolerance": 1e-10,
        "oracle": "on",
    }
    duality = {
        "experiment": "duality-check",
        "seed": rnd.randrange(2**31),
        "graph": "cycle:6",
        "p": 0.3,
        "v": 1.0,
        "k": 2,
        "t": 1.0,
        "tolerance": 1e-8,
        "oracle": "on",
        "forward_initial_file": _random_state_file(rnd, run_dir / "states" / "duality.txt", 6, 6),
    }
    tv = {
        "experiment": "tv-decay",
        "seed": rnd.randrange(2**31),
        "graph": "cycle:8",
        "p": 0.3,
        "v": 1.0,
        "t_max": 20.0,
        "t_step": 0.5,
        "threshold": 0.01,
        "oracle": "on",
        "initial_file": _random_state_file(rnd, run_dir / "states" / "tv.txt", 8, 8),
    }
    return [
        _write_op(run_dir, "stationary_cycle6", stationary, "stationary"),
        _write_op(run_dir, "duality_cycle6_k2", duality, "gap_table"),
        _write_op(run_dir, "tv_decay_cycle8", tv, "tv_exact"),
    ]


WORKLOADS = {
    "monte-carlo": monte_carlo,
    "exact-oracle": exact_oracle,
    "configs-workers2": configs_workers2,
}
