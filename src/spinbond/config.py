"""Experiment configuration: flat JSON with strict key checking.

A config file is a single JSON object whose values are scalars or lists of
scalars. Every key an experiment accepts has one line in ``_COMMON`` or in
its entry of ``_KEYS``: its kind, its default (or ``REQUIRED``; no default
leaves an optional key absent), bounds on its value or on each list item,
and its choices. Unknown keys are rejected so typos fail loudly instead of
being ignored. Numbers must be finite; number keys become floats, number
lists stay as given, a -0.0 in either reads as 0.0, and a list may be empty
only when its default is.
``validate_config`` walks the table; the rules that tie keys together follow
it as plain code. The environment variable SPINBOND_SEED overrides the seed,
even an explicit one.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

SEED_ENV_VAR = "SPINBOND_SEED"

EXPERIMENTS = (
    "duality-check",
    "stationary-compare",
    "mu-dyn",
    "tv-decay",
    "mgf-check",
    "raw-simulate",
)

# Experiments whose target quantities only exist for an ergodic chain.
ERGODIC_EXPERIMENTS = ("stationary-compare", "mu-dyn", "tv-decay")

REQUIRED = object()


class Key(NamedTuple):
    """One config key: a kind from ``_KINDS``, its default, bounds and choices."""

    kind: str
    default: object = None  # None: an optional key that stays absent
    lo: float | None = None
    strict: bool = False  # the lower bound itself is excluded
    hi: float | None = None
    choices: tuple = ()


# kind -> (item types, description, whether the value is a list of such items)
_KINDS = {
    "int": (int, "an integer", False),
    "number": ((int, float), "a number", False),
    "str": (str, "a string", False),
    "bool": (bool, "a boolean", False),
    "ints": (int, "a list of integers", True),
    "numbers": ((int, float), "a list of numbers", True),
    "strs": (str, "a list of strings", True),
}

_SIGMAS = Key("number", 3.0, lo=0.0, strict=True)

# A Monte Carlo gate weighs its estimate by the standard error, which one
# replica does not have, so a gated run takes at least two.
_GATED_REPLICAS = 2

_COMMON = {
    "experiment": Key("str", REQUIRED, choices=EXPERIMENTS),
    "seed": Key("int", 0, lo=0),
    "workers": Key("int", 1, lo=1),
    "oracle": Key("str", "auto", choices=("on", "off", "auto")),
    "output_dir": Key("str"),
    "graph": Key("str"),
    "graph_file": Key("str"),
    "kernel_file": Key("str"),
    "p": Key("number", 0.5, lo=0.0, hi=1.0),
    "v": Key("number", 1.0, lo=0.0),
}

_KEYS: dict[str, dict[str, Key]] = {
    "duality-check": {
        "k": Key("int", 1, lo=1),
        "t": Key("number", 1.0, lo=0.0),
        "tolerance": Key("number", 1e-8, lo=0.0, strict=True),
        "forward_initial_file": Key("str"),
        "replicas": Key("int", 20000, lo=_GATED_REPLICAS),
        "sigmas": _SIGMAS,
    },
    "stationary-compare": {
        "max_revealed": Key("int", 2, lo=0),
        "replicas": Key("int", 0, lo=0),
        "mc_time": Key("number", 30.0, lo=0.0, strict=True),
        "tolerance": Key("number", 1e-10, lo=0.0, strict=True),
        "sigmas": _SIGMAS,
    },
    "mu-dyn": {
        "sites": Key("ints", REQUIRED),
        "signs": Key("ints"),
        "revealed_positive": Key("ints", []),
        "revealed_negative": Key("ints", []),
        "replicas": Key("int", REQUIRED, lo=_GATED_REPLICAS),
        "t_cap": Key("number", lo=0.0, strict=True),
        "sigmas": _SIGMAS,
        "report_limit": Key("int", 100, lo=0),
    },
    "tv-decay": {
        "t_max": Key("number", 20.0, lo=0.0, strict=True),
        "t_step": Key("number", 0.5, lo=0.0, strict=True),
        "threshold": Key("number", 0.01, lo=0.0, strict=True),
        "initial_file": Key("str"),
        "replicas": Key("int", 20000, lo=_GATED_REPLICAS),
        "sigmas": _SIGMAS,
    },
    "mgf-check": {
        "thetas": Key("numbers", [-1.0, 0.5]),
        "times": Key("numbers", [1.0, 5.0], lo=0.0, strict=True),
        "r0_values": Key("ints", [0, 3], lo=0),
        "replicas": Key("int", 50000, lo=_GATED_REPLICAS),
        "sigmas": _SIGMAS,
        "check_domination": Key("bool", False),
        "t": Key("number", 2.0, lo=0.0, strict=True),
    },
    "raw-simulate": {
        "output_dir": Key("str", REQUIRED),
        "t_max": Key("number", REQUIRED, lo=0.0),
        "checkpoint_times": Key("numbers"),
        "observables": Key("strs", REQUIRED),
        "initial_file": Key("str"),
        "site_plus_prob": Key("number", 0.5, lo=0.0, hi=1.0),
        "edge_plus_prob": Key("number", 0.5, lo=0.0, hi=1.0),
        "replicas": Key("int", 1, lo=1),
    },
}


def _check(cfg: dict, key: str, spec: Key) -> None:
    """Reject a value of the wrong kind or outside its bounds or choices."""
    value = cfg[key]
    types, description, many = _KINDS[spec.kind]
    items = value if many and isinstance(value, list) else [value]
    # A bool is an int to isinstance; only the bool kind takes one.
    if many != isinstance(value, list) or not all(
        isinstance(x, types) and isinstance(x, bool) == (types is bool) for x in items
    ):
        raise ConfigError(f"key {key!r} must be {description}, got {value!r}")
    if many and not value and spec.default != []:
        raise ConfigError(f"key {key!r} must not be empty")
    for x in items:
        # JSON's NaN and Infinity parse as floats; no key has a use for them.
        if isinstance(x, float) and not math.isfinite(x):
            raise ConfigError(f"key {key!r} must be finite, got {x}")
        if spec.lo is not None and (x <= spec.lo if spec.strict else x < spec.lo):
            relation = ">" if spec.strict else ">="
            raise ConfigError(f"key {key!r} must be {relation} {spec.lo}, got {x}")
        if spec.hi is not None and x > spec.hi:
            raise ConfigError(f"key {key!r} must be <= {spec.hi}, got {x}")
        if spec.choices and x not in spec.choices:
            raise ConfigError(f"key {key!r} must be one of {sorted(spec.choices)}, got {x!r}")
    # x + 0 keeps an int an int and reads a -0.0 as 0.0, so that an
    # instant is spelled one way in what a run writes.
    if spec.kind == "number":
        cfg[key] = float(value) + 0
    elif spec.kind == "numbers":
        cfg[key] = [x + 0 for x in value]


def load_config(path, env: dict | None = None) -> dict:
    """Read, validate, and default-fill an experiment config file."""
    env = os.environ if env is None else env
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for key, value in raw.items():
        if isinstance(value, dict):
            raise ConfigError(f"config must be flat, key {key!r} holds a nested object")
        if isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
            raise ConfigError(f"config must be flat, key {key!r} holds nested containers")
    return validate_config(raw, env=env)


def validate_config(raw: dict, env: dict | None = None) -> dict:
    env = os.environ if env is None else env
    cfg = dict(raw)
    if "experiment" not in cfg:
        raise ConfigError("config is missing the 'experiment' key")
    _check(cfg, "experiment", _COMMON["experiment"])
    experiment = cfg["experiment"]
    keys = {**_COMMON, **_KEYS[experiment]}

    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown keys for experiment {experiment!r}: {', '.join(unknown)}"
        )
    for key, spec in keys.items():
        if spec.default not in (None, REQUIRED):
            default = spec.default
            cfg.setdefault(key, list(default) if isinstance(default, list) else default)
    seed_override = env.get(SEED_ENV_VAR)
    if seed_override is not None:
        try:
            cfg["seed"] = int(seed_override)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {seed_override!r}"
            ) from None
        if cfg["seed"] < 0:
            raise ConfigError(
                f"{SEED_ENV_VAR} sets the seed, which must be >= 0, got {seed_override!r}"
            )
    missing = sorted(k for k, spec in keys.items() if spec.default is REQUIRED and k not in cfg)
    if missing:
        raise ConfigError(
            f"experiment {experiment!r} is missing required keys: {', '.join(missing)}"
        )
    for key, spec in keys.items():
        if key in cfg:
            _check(cfg, key, spec)

    if not needs_graph(cfg):
        unread = [key for key in ("graph", "graph_file", "kernel_file") if key in cfg]
        if unread:
            raise ConfigError(
                f"experiment {experiment!r} reads {', '.join(map(repr, unread))} only "
                "when 'check_domination' is true"
            )
    elif ("graph" in cfg) + ("graph_file" in cfg) != 1:
        raise ConfigError(
            f"experiment {experiment!r} needs exactly one of 'graph' or 'graph_file'"
        )
    if experiment in ERGODIC_EXPERIMENTS + ("duality-check",) or cfg.get("check_domination"):
        if not 0.0 < cfg["p"] < 1.0:
            raise ConfigError(f"experiment {experiment!r} needs 0 < p < 1, got p={cfg['p']}")
    if experiment in ERGODIC_EXPERIMENTS + ("mgf-check",) and not cfg["v"] > 0.0:
        raise ConfigError(f"experiment {experiment!r} needs v > 0, got v={cfg['v']}")

    if experiment == "stationary-compare" and 0 < cfg["replicas"] < _GATED_REPLICAS:
        raise ConfigError(
            f"stationary-compare needs replicas 0 or >= {_GATED_REPLICAS}, got {cfg['replicas']}"
        )
    if experiment == "stationary-compare" and cfg["oracle"] == "off" and cfg["replicas"] < 1:
        raise ConfigError(
            f"stationary-compare with oracle 'off' needs replicas >= {_GATED_REPLICAS}"
        )
    if experiment == "mu-dyn":
        signs = cfg.setdefault("signs", [1] * len(cfg["sites"]))
        if len(cfg["sites"]) != len(signs):
            raise ConfigError(f"{len(cfg['sites'])} sites but {len(signs)} signs")
        if any(s != 1 for s in signs):
            raise ConfigError(
                "key 'signs' must be all +1: the dual coalescence estimator "
                "only covers all-plus site constraints"
            )
    if experiment == "tv-decay":
        steps = round(cfg["t_max"] / cfg["t_step"])
        if not math.isclose(steps * cfg["t_step"], cfg["t_max"], rel_tol=1e-9):
            raise ConfigError(
                f"t_max {cfg['t_max']:g} must be a whole number of t_step {cfg['t_step']:g} steps"
            )
    if experiment == "raw-simulate":
        times = cfg.setdefault("checkpoint_times", [cfg["t_max"]])
        if any(t < 0 or t > cfg["t_max"] for t in times):
            raise ConfigError("checkpoint_times must lie in [0, t_max]")
    return cfg


def needs_graph(cfg: dict) -> bool:
    """Whether a validated config's run builds a graph, kernel and model."""
    return cfg["experiment"] != "mgf-check" or cfg["check_domination"]


def parse_graph_spec(spec: str):
    """Builtin graph spec: ``kind:size`` or ``grid_torus:rows,cols``."""
    from .graphs import builtin_graph

    if ":" not in spec:
        raise ConfigError(
            f"graph spec {spec!r} must look like 'path:3' or 'grid_torus:2,2'"
        )
    kind, _, arg_text = spec.partition(":")
    try:
        sizes = tuple(int(part) for part in arg_text.split(","))
    except ValueError:
        raise ConfigError(f"graph spec {spec!r} has non-integer sizes") from None
    try:
        return builtin_graph(kind, *sizes)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad graph spec {spec!r}: {exc}") from exc
