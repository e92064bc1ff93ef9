"""Experiment runners behind the command line interface.

Each runner takes a validated config dict, computes its quantities, applies
its gates, and returns a result with human-readable summary lines plus the
list of files it wrote. JSON output comes from ``json.dumps``, whose floats
round-trip exactly (``inf`` and ``nan`` as ``Infinity`` and ``NaN``); CSV
cells carry 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from pathlib import Path

import numpy as np

from . import oracle
from .config import parse_graph_spec
from .cylinders import CylinderEvent, parse_cylinder_label, single_constraint_events
from .dual import DualState
from .errors import ConfigError, StateSpaceCapError
from .estimators import (
    ProductInitial,
    _collect,
    _forward_cylinder_replica,
    birth_death_mgf,
    deviation_sigmas,
    estimate_cylinder_probabilities,
    estimate_dual_side,
    estimate_mgf,
    estimate_mu_dyn,
    estimate_revealed_weight,
    estimate_tv_decay,
)
from .forward import (
    ModelParams,
    NeighborSampler,
    SpinBondState,
    read_state_file,
    write_state_file,
)
from .graphs import Graph, read_graph_file, read_kernel_file, uniform_kernel, validate_kernel
from .rng import RngStream

# Numerical cushion on statistical gates so zero-variance estimators are
# compared to exact solver output at solver accuracy rather than exactly.
GATE_ABS_SLACK = 1e-10


@dataclass
class ExperimentResult:
    experiment: str
    passed: bool | None
    lines: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def write_results(records, path, format: str = "jsonl", fieldnames=None) -> None:
    """Write mapping records to ``path`` as JSON lines or CSV.

    Records keep their key order (JSONL) or follow ``fieldnames`` /
    the first record's keys (CSV). JSONL floats take ``json.dumps``'s
    shortest round-trip form and CSV floats 17 significant digits, so equal
    inputs give byte-equal files. An empty record set with explicit
    fieldnames yields a header-only CSV.
    """
    records = list(records)
    path = Path(path)
    if format == "jsonl":
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return
    if format != "csv":
        raise ValueError(f"format must be 'jsonl' or 'csv', got {format!r}")
    if fieldnames is None:
        if not records:
            raise ValueError("an empty CSV needs explicit fieldnames for its header")
        fieldnames = list(records[0])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for rec in records:
            writer.writerow([_csv_cell(rec[name]) for name in fieldnames])


def _estimate_record(
    estimator: str, params: dict, est, censored: int = 0, oracle_value=None, **extra
) -> dict:
    """Common shape for one Monte Carlo estimate in an output file."""
    rec = {
        "estimator": estimator,
        "params": params,
        "point": est.estimate,
        "std_error": est.std_error,
        "replicas": est.replicas,
        "censored": censored,
    }
    if oracle_value is not None:
        rec["oracle_value"] = oracle_value
    rec.update(extra)
    return rec


def _build_graph(cfg: dict) -> Graph:
    if "graph" in cfg:
        return parse_graph_spec(cfg["graph"])
    try:
        return read_graph_file(cfg["graph_file"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load graph file {cfg['graph_file']}: {exc}") from exc


def _build_kernel(cfg: dict, g: Graph):
    if "kernel_file" in cfg:
        try:
            kernel = read_kernel_file(g, cfg["kernel_file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot load kernel file {cfg['kernel_file']}: {exc}"
            ) from exc
    else:
        try:
            kernel = uniform_kernel(g)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    report = validate_kernel(g, kernel)
    if not report.valid:
        raise ConfigError("invalid kernel: " + "; ".join(report.violations))
    return kernel


def _load_state(cfg: dict, key: str, g: Graph) -> SpinBondState | None:
    if key not in cfg:
        return None
    try:
        return read_state_file(g, cfg[key])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load state file {cfg[key]}: {exc}") from exc


def _striped_state(g: Graph) -> SpinBondState:
    sites = np.array([1 if x % 2 == 0 else -1 for x in range(g.vertex_count)], dtype=np.int8)
    edges = np.array([1 if e % 2 == 0 else -1 for e in range(g.edge_count)], dtype=np.int8)
    return SpinBondState(sites, edges)


def _out_dir(cfg: dict, write_outputs: bool) -> Path | None:
    if not write_outputs or "output_dir" not in cfg:
        return None
    path = Path(cfg["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _exact(cfg: dict, solve):
    """Apply the ``oracle`` policy to an exact computation.

    Returns ``(solve(), None)``, or ``(None, None)`` under ``off``, or
    ``(None, cap error)`` when the state space is above its cap under
    ``auto``; under ``on`` the cap error propagates (exit code 3).
    """
    if cfg["oracle"] == "off":
        return None, None
    try:
        return solve(), None
    except StateSpaceCapError as exc:
        if cfg["oracle"] == "on":
            raise
        return None, exc


def _env_assignments(edges, max_revealed: int):
    """All (positive set, negative set) pairs with at most max_revealed edges."""
    out = [((), ())]
    for r in range(1, max_revealed + 1):
        for chosen in combinations(edges, r):
            for signs in product((1, -1), repeat=r):
                pos = tuple(e for e, s in zip(chosen, signs) if s > 0)
                neg = tuple(e for e, s in zip(chosen, signs) if s < 0)
                out.append((pos, neg))
    return out


def run_experiment(cfg: dict, write_outputs: bool = True) -> ExperimentResult:
    runner = {
        "duality-check": _run_duality_check,
        "stationary-compare": _run_stationary_compare,
        "mu-dyn": _run_mu_dyn,
        "tv-decay": _run_tv_decay,
        "mgf-check": _run_mgf_check,
        "raw-simulate": _run_raw_simulate,
    }[cfg["experiment"]]
    return runner(cfg, write_outputs)


def _run_duality_check(cfg: dict, write_outputs: bool) -> ExperimentResult:
    g = _build_graph(cfg)
    kernel = _build_kernel(cfg, g)
    params = ModelParams(p=cfg["p"], v=cfg["v"])
    forward_initial = _load_state(cfg, "forward_initial_file", g) or _striped_state(g)
    forward_initial.validate(g)

    args = (cfg, write_outputs, g, kernel, params, forward_initial)
    exact, capped = _exact(cfg, lambda: _duality_check_exact(*args))
    if exact is not None:
        return exact
    result = _duality_check_mc(*args)
    if capped:
        result.lines.insert(
            0, f"exact check unavailable ({capped}); using Monte Carlo cross-check"
        )
    return result


def _duality_check_exact(
    cfg: dict, write_outputs: bool, g: Graph, kernel, params: ModelParams, forward_initial
) -> ExperimentResult:
    table = oracle.duality_gap_table(
        g, kernel, params, forward_initial, cfg["k"], cfg["t"], mode=cfg["mode"]
    )
    gaps = [abs(lhs - rhs) for _, lhs, rhs in table]
    worst = max(gaps)
    worst_index = table[int(np.argmax(gaps))][0]
    passed = worst <= cfg["tolerance"]

    result = ExperimentResult(experiment="duality-check", passed=passed)
    result.lines.append(
        f"duality-check: {len(table)} dual initial states, k={cfg['k']}, "
        f"t={cfg['t']:g}, mode={cfg['mode']}"
    )
    result.lines.append(
        f"worst |lhs-rhs| = {worst:.3e} at dual state {worst_index} "
        f"(tolerance {cfg['tolerance']:.1e}): {_verdict(passed)}"
    )
    out = _out_dir(cfg, write_outputs)
    if out is not None:
        rows = [
            {"dual_state": s, "lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}
            for s, lhs, rhs in table
        ]
        path = out / "duality_gaps.jsonl"
        write_results(rows, path, "jsonl")
        result.files.append(str(path))
    return result


def _duality_check_mc(
    cfg: dict, write_outputs: bool, g: Graph, kernel, params: ModelParams, forward_initial
) -> ExperimentResult:
    """Statistical two-sided check: forward cylinder frequency vs dual-side value.

    Walkers start on the first k vertices (wrapping if k exceeds the vertex
    count) with +1 signs and nothing revealed; the matching forward event
    constrains those sites to +1.
    """
    k, t = cfg["k"], cfg["t"]
    positions = [j % g.vertex_count for j in range(k)]
    dual_initial = DualState.of(positions, [1] * k)
    cyl = CylinderEvent.of(sites={x: 1 for x in positions})
    stream = RngStream(cfg["seed"], (cfg["stream"], 0))
    fwd = estimate_cylinder_probabilities(
        g,
        kernel,
        params,
        forward_initial,
        [t],
        [cyl],
        cfg["replicas"],
        stream.child(0),
        workers=cfg["workers"],
    )[(t, cyl.label())]
    dual = estimate_dual_side(
        g,
        kernel,
        params,
        forward_initial,
        dual_initial,
        t,
        cfg["replicas"],
        stream.child(1),
        workers=cfg["workers"],
        mode=cfg["mode"],
    )
    gap = abs(fwd.estimate - dual.estimate)
    pooled = math.hypot(fwd.std_error, dual.std_error)
    passed = gap <= cfg["sigmas"] * pooled + GATE_ABS_SLACK

    result = ExperimentResult(experiment="duality-check", passed=passed)
    result.lines.append(
        f"duality-check (mc): k={k}, t={t:g}, mode={cfg['mode']}, "
        f"{cfg['replicas']} replicas per side"
    )
    result.lines.append(
        f"forward {fwd.estimate:.6f} +- {fwd.std_error:.6f}, "
        f"dual {dual.estimate:.6f} +- {dual.std_error:.6f}"
    )
    result.lines.append(
        f"|forward - dual| = {gap:.6f} within {cfg['sigmas']:g} pooled sigma "
        f"({pooled:.6f}): {_verdict(passed)}"
    )
    out = _out_dir(cfg, write_outputs)
    if out is not None:
        rows = [
            _estimate_record(
                "forward_cylinder",
                {"p": params.p, "v": params.v, "t": t, "cylinder": cyl.label()},
                fwd,
            ),
            _estimate_record(
                "dual_side",
                {"p": params.p, "v": params.v, "t": t, "k": k, "mode": cfg["mode"]},
                dual,
            ),
        ]
        path = out / "duality_mc.jsonl"
        write_results(rows, path, "jsonl")
        result.files.append(str(path))
    return result


def _run_stationary_compare(cfg: dict, write_outputs: bool) -> ExperimentResult:
    g = _build_graph(cfg)
    kernel = _build_kernel(cfg, g)
    params = ModelParams(p=cfg["p"], v=cfg["v"])
    p = params.p

    result = ExperimentResult(experiment="stationary-compare", passed=None)
    pi, capped = _exact(
        cfg,
        lambda: oracle.stationary_distribution(oracle.build_forward_generator(g, kernel, params)),
    )
    if capped:
        result.lines.append(f"exact solve unavailable ({capped}); Monte Carlo only")

    exact_ok = None
    rows = []
    if pi is not None:
        env_all = _env_assignments(range(g.edge_count), cfg["max_revealed"])
        worst_exact = 0.0
        for x in range(g.vertex_count):
            for site_sign in (1, -1):
                for pos, neg in env_all:
                    cyl = CylinderEvent.of(
                        sites={x: site_sign},
                        edges={**{e: 1 for e in pos}, **{e: -1 for e in neg}},
                    )
                    exact = oracle.cylinder_probability(g, pi, cyl)
                    target = 0.5 * p ** len(pos) * (1.0 - p) ** len(neg)
                    err = abs(exact - target)
                    worst_exact = max(worst_exact, err)
                    rows.append(
                        {"cylinder": cyl.label(), "exact": exact, "target": target, "abs_err": err}
                    )
        exact_ok = worst_exact <= cfg["tolerance"]
        result.lines.append(
            f"stationary-compare: {len(rows)} cylinders, max_revealed={cfg['max_revealed']}"
        )
        result.lines.append(
            f"exact vs product form: worst |err| = {worst_exact:.3e} "
            f"(tolerance {cfg['tolerance']:.1e}): {_verdict(exact_ok)}"
        )

    mc_ok = None
    mc_rows = []
    if cfg["replicas"] > 0:
        mc_edges = list(range(min(2, g.edge_count)))
        subset = [
            (pos, neg)
            for pos, neg in _env_assignments(mc_edges, min(2, cfg["max_revealed"]))
        ]
        cylinders = [
            CylinderEvent.of(
                sites={0: 1}, edges={**{e: 1 for e in pos}, **{e: -1 for e in neg}}
            )
            for pos, neg in subset
        ]
        targets = {
            cyl.label(): 0.5 * p ** len(pos) * (1.0 - p) ** len(neg)
            for cyl, (pos, neg) in zip(cylinders, subset)
        }
        oracle_values = (
            {cyl.label(): oracle.cylinder_probability(g, pi, cyl) for cyl in cylinders}
            if pi is not None
            else {}
        )
        stream = RngStream(cfg["seed"], (cfg["stream"], 0))
        estimates = estimate_cylinder_probabilities(
            g,
            kernel,
            params,
            ProductInitial(site_plus_prob=0.5, edge_plus_prob=p),
            [cfg["mc_time"]],
            cylinders,
            cfg["replicas"],
            stream,
            workers=cfg["workers"],
        )
        mc_ok = True
        for (t, label), est in sorted(estimates.items()):
            sig = deviation_sigmas(est, targets[label])
            ok = sig <= cfg["sigmas"] or abs(est.estimate - targets[label]) <= GATE_ABS_SLACK
            mc_ok = mc_ok and ok
            mc_rows.append(
                _estimate_record(
                    "forward_cylinder",
                    {"p": p, "v": params.v, "t": t, "cylinder": label},
                    est,
                    oracle_value=oracle_values.get(label),
                    target=targets[label],
                    sigmas=sig,
                )
            )
            result.lines.append(
                f"mc {label}: {est.estimate:.5f} vs {targets[label]:.5f} "
                f"({sig:.2f} sigma): {_verdict(ok)}"
            )

    checks = [ok for ok in (exact_ok, mc_ok) if ok is not None]
    result.passed = all(checks) if checks else None
    if not checks:
        result.lines.append("nothing checked: no exact solve and replicas = 0")

    out = _out_dir(cfg, write_outputs)
    if out is not None:
        path = out / "stationary_compare.jsonl"
        write_results(rows + mc_rows, path, "jsonl")
        result.files.append(str(path))
        if pi is not None:
            dist_path = out / "stationary_distribution.csv"
            write_results(
                (
                    {"state_index": s, "probability": float(mass)}
                    for s, mass in enumerate(pi)
                ),
                dist_path,
                "csv",
            )
            result.files.append(str(dist_path))
            legend_path = out / "stationary_distribution.legend.txt"
            legend_path.write_text(
                "state_index: configuration packed into bits; bit x (x < vertex_count)\n"
                "is 1 when site x has sign +1, bit vertex_count + e is 1 when edge e\n"
                "has sign +1.\nprobability: stationary mass of that configuration.\n"
            )
            result.files.append(str(legend_path))
    return result


def _run_mu_dyn(cfg: dict, write_outputs: bool) -> ExperimentResult:
    g = _build_graph(cfg)
    kernel = _build_kernel(cfg, g)
    params = ModelParams(p=cfg["p"], v=cfg["v"])
    sites = list(cfg["sites"])
    signs = list(cfg["signs"])
    for x in sites:
        if not 0 <= x < g.vertex_count:
            raise ConfigError(f"site {x} outside 0..{g.vertex_count - 1}")
    for e in list(cfg["revealed_positive"]) + list(cfg["revealed_negative"]):
        if not 0 <= e < g.edge_count:
            raise ConfigError(f"edge {e} outside 0..{g.edge_count - 1}")
    if set(cfg["revealed_positive"]) & set(cfg["revealed_negative"]):
        raise ConfigError("revealed_positive and revealed_negative overlap")

    cyl = CylinderEvent.of(
        sites=dict(zip(sites, signs)),
        edges={
            **{e: 1 for e in cfg["revealed_positive"]},
            **{e: -1 for e in cfg["revealed_negative"]},
        },
    )

    def exact_mass():
        L = oracle.build_forward_generator(g, kernel, params)
        return oracle.cylinder_probability(g, oracle.stationary_distribution(L), cyl)

    # The exact solve draws no random numbers, so running it first lets
    # oracle "on" exit above the cap before any replica runs.
    exact, capped = _exact(cfg, exact_mass)
    stream = RngStream(cfg["seed"], (cfg["stream"], 0))
    mu = estimate_mu_dyn(
        g,
        kernel,
        params,
        sites,
        signs,
        cfg["replicas"],
        stream,
        revealed_positive=cfg["revealed_positive"],
        revealed_negative=cfg["revealed_negative"],
        t_cap=cfg.get("t_cap"),
        workers=cfg["workers"],
        report_limit=cfg["report_limit"],
    )
    est = mu.result

    result = ExperimentResult(experiment="mu-dyn", passed=None)
    result.lines.append(
        f"mu-dyn: {est.observable} = {est.estimate:.6f} +- {est.std_error:.6f} "
        f"({est.replicas} replicas, {mu.censored_count} censored)"
    )
    if exact is not None:
        sig = deviation_sigmas(est, exact)
        ok = sig <= cfg["sigmas"] or abs(est.estimate - exact) <= GATE_ABS_SLACK
        result.passed = ok
        result.lines.append(
            f"exact stationary mass {exact:.6f}, deviation {sig:.2f} sigma "
            f"(gate {cfg['sigmas']:g}): {_verdict(ok)}"
        )
    elif capped:
        result.lines.append(f"exact solve unavailable ({capped}); no oracle gate applied")
    else:
        result.lines.append("oracle disabled; no gate applied")

    out = _out_dir(cfg, write_outputs)
    if out is not None:
        path = out / "mu_dyn_estimate.jsonl"
        record = _estimate_record(
            "mu_dyn",
            {
                "p": params.p,
                "v": params.v,
                "sites": sites,
                "signs": signs,
                "revealed_positive": list(cfg["revealed_positive"]),
                "revealed_negative": list(cfg["revealed_negative"]),
            },
            est,
            censored=mu.censored_count,
            oracle_value=exact,
        )
        write_results([record], path, "jsonl")
        result.files.append(str(path))
        reports_path = out / "coalescence_reports.json"
        reports_path.write_text(json.dumps([rep.to_json() for rep in mu.reports]) + "\n")
        result.files.append(str(reports_path))
    return result


def _run_tv_decay(cfg: dict, write_outputs: bool) -> ExperimentResult:
    g = _build_graph(cfg)
    kernel = _build_kernel(cfg, g)
    params = ModelParams(p=cfg["p"], v=cfg["v"])

    initial_a = _load_state(cfg, "initial_file", g) or SpinBondState.constant(
        g, site_sign=-1, edge_sign=-1
    )
    initial_a.validate(g)
    # The contender law starts from the sign-flipped configuration, the
    # farthest deterministic start (TV = 1 at t = 0).
    initial_b = SpinBondState(
        site_signs=(-initial_a.site_signs).astype(np.int8),
        edge_signs=(-initial_a.edge_signs).astype(np.int8),
    )
    steps = int(round(cfg["t_max"] / cfg["t_step"]))
    times = [i * cfg["t_step"] for i in range(steps + 1)]

    args = (cfg, write_outputs, g, kernel, params, initial_a, initial_b, times)
    exact, capped = _exact(cfg, lambda: _tv_decay_exact(*args))
    if exact is not None:
        return exact
    result = _tv_decay_mc(*args)
    if capped:
        result.lines.insert(
            0, f"exact transients unavailable ({capped}); using Monte Carlo bounds"
        )
    return result


def _tv_decay_exact(
    cfg: dict, write_outputs: bool, g: Graph, kernel, params: ModelParams,
    initial_a: SpinBondState, initial_b: SpinBondState, times,
) -> ExperimentResult:
    L = oracle.build_forward_generator(g, kernel, params)
    laws = np.stack([oracle.forward_delta(g, initial_a), oracle.forward_delta(g, initial_b)], axis=1)
    curve = [oracle.total_variation(laws[:, 0], laws[:, 1])]
    for laws in oracle.transient_steps(L, laws, cfg["t_step"], len(times) - 1):
        curve.append(oracle.total_variation(laws[:, 0], laws[:, 1]))

    monotone = all(curve[i + 1] <= curve[i] + 1e-10 for i in range(len(curve) - 1))
    small_enough = curve[-1] < cfg["threshold"]
    passed = monotone and small_enough

    result = ExperimentResult(experiment="tv-decay", passed=passed)
    result.lines.append(
        f"tv-decay: grid 0..{cfg['t_max']:g} step {cfg['t_step']:g}, "
        f"TV start {curve[0]:.6f}, TV end {curve[-1]:.2e}"
    )
    result.lines.append(f"non-increasing along the grid: {_verdict(monotone)}")
    result.lines.append(
        f"final TV < {cfg['threshold']:g}: {_verdict(small_enough)}"
    )

    out = _out_dir(cfg, write_outputs)
    if out is not None:
        path = out / "tv_decay.csv"
        write_results(
            ({"t": t, "total_variation": tv} for t, tv in zip(times, curve)),
            path,
            "csv",
        )
        result.files.append(str(path))
        legend = out / "tv_decay.legend.txt"
        legend.write_text(
            "t: elapsed time.\n"
            "total_variation: TV distance between the laws at time t started\n"
            "from the initial configuration and from its sign flip.\n"
        )
        result.files.append(str(legend))
    return result


def _tv_decay_mc(
    cfg: dict, write_outputs: bool, g: Graph, kernel, params: ModelParams,
    initial_a: SpinBondState, initial_b: SpinBondState, times,
) -> ExperimentResult:
    stream = RngStream(cfg["seed"], (cfg["stream"], 0))
    points = estimate_tv_decay(
        g,
        kernel,
        params,
        initial_a,
        initial_b,
        times,
        single_constraint_events(g),
        cfg["replicas"],
        stream,
        workers=cfg["workers"],
    )
    final = points[-1]
    # Frequency gaps only bound TV from below, so the one checkable gate is
    # that the best observed separation has decayed into the noise floor.
    passed = final.bound <= cfg["threshold"] + cfg["sigmas"] * final.std_error

    result = ExperimentResult(experiment="tv-decay", passed=passed)
    result.lines.append(
        f"tv-decay (mc): grid 0..{cfg['t_max']:g} step {cfg['t_step']:g}, "
        f"{cfg['replicas']} replicas per law, {g.vertex_count + g.edge_count} events"
    )
    result.lines.append(
        f"TV lower bound start {points[0].bound:.6f}, end {final.bound:.6f} "
        f"(argmax {final.event})"
    )
    result.lines.append(
        f"final bound <= {cfg['threshold']:g} + {cfg['sigmas']:g} sigma "
        f"({final.std_error:.6f}): {_verdict(passed)}"
    )

    out = _out_dir(cfg, write_outputs)
    if out is not None:
        path = out / "tv_decay.csv"
        write_results(
            (
                {
                    "t": pt.time,
                    "tv_lower_bound": pt.bound,
                    "event": pt.event,
                    "std_error": pt.std_error,
                }
                for pt in points
            ),
            path,
            "csv",
        )
        result.files.append(str(path))
        legend = out / "tv_decay.legend.txt"
        legend.write_text(
            "t: elapsed time.\n"
            "tv_lower_bound: largest |frequency difference| over the single-site\n"
            "and single-edge events between runs started from the initial\n"
            "configuration and from its sign flip; a lower bound on their TV\n"
            "distance.\nevent: the maximizing event.\n"
            "std_error: pooled standard error of that event's two frequencies.\n"
        )
        result.files.append(str(legend))
    return result


def _run_mgf_check(cfg: dict, write_outputs: bool) -> ExperimentResult:
    v = cfg["v"]
    stream = RngStream(cfg["seed"], (cfg["stream"], 0))
    call = 0
    rows = []
    all_ok = True
    result = ExperimentResult(experiment="mgf-check", passed=True)
    for theta in cfg["thetas"]:
        for t in cfg["times"]:
            for r0 in cfg["r0_values"]:
                target = birth_death_mgf(theta, t, v, r0)
                est = estimate_mgf(
                    theta, t, v, r0, cfg["replicas"], stream.child(call), cfg["workers"]
                )
                call += 1
                sig = deviation_sigmas(est, target)
                ok = sig <= cfg["sigmas"]
                all_ok = all_ok and ok
                rows.append(
                    _estimate_record(
                        "birth_death_mgf",
                        {"theta": theta, "t": t, "v": v, "r0": r0},
                        est,
                        oracle_value=target,
                        sigmas=sig,
                    )
                )
                result.lines.append(
                    f"{est.observable}: {est.estimate:.5f} vs {target:.5f} "
                    f"({sig:.2f} sigma): {_verdict(ok)}"
                )

    if cfg["check_domination"]:
        g = _build_graph(cfg)
        kernel = _build_kernel(cfg, g)
        params = ModelParams(p=cfg["p"], v=v)
        theta = -2.0 * math.log(min(params.p, 1.0 - params.p))
        t = cfg["t"]
        initial = DualState.of([0], [1])
        est = estimate_revealed_weight(
            g, kernel, params, initial, theta, t, cfg["replicas"], stream.child(call), cfg["workers"]
        )
        bound = birth_death_mgf(theta, t, v, 0)
        ok = est.estimate <= bound + cfg["sigmas"] * est.std_error
        all_ok = all_ok and ok
        rows.append(
            _estimate_record(
                "revealed_weight",
                {"theta": theta, "t": t, "p": params.p, "v": v},
                est,
                bound=bound,
            )
        )
        result.lines.append(
            f"revealed-set weight at theta={theta:.4f}, t={t:g}: "
            f"{est.estimate:.5f} <= bound {bound:.5f}: {_verdict(ok)}"
        )

    result.passed = all_ok
    out = _out_dir(cfg, write_outputs)
    if out is not None:
        path = out / "mgf_check.jsonl"
        write_results(rows, path, "jsonl")
        result.files.append(str(path))
    return result


def _run_raw_simulate(cfg: dict, write_outputs: bool) -> ExperimentResult:
    g = _build_graph(cfg)
    kernel = _build_kernel(cfg, g)
    params = ModelParams(p=cfg["p"], v=cfg["v"])
    try:
        cylinders = [parse_cylinder_label(text) for text in cfg["observables"]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for cyl in cylinders:
        for x, _ in cyl.site_constraints:
            if not 0 <= x < g.vertex_count:
                raise ConfigError(f"observable site {x} outside 0..{g.vertex_count - 1}")
        for e, _ in cyl.edge_constraints:
            if not 0 <= e < g.edge_count:
                raise ConfigError(f"observable edge {e} outside 0..{g.edge_count - 1}")

    fixed_initial = _load_state(cfg, "initial_file", g)
    if fixed_initial is not None:
        fixed_initial.validate(g)
        initial = fixed_initial
    else:
        initial = ProductInitial(
            site_plus_prob=cfg["site_plus_prob"], edge_plus_prob=cfg["edge_plus_prob"]
        )
    times = sorted(cfg["checkpoint_times"])

    stream = RngStream(cfg["seed"], (cfg["stream"], 0))
    sampler = NeighborSampler(g, kernel)
    fn = partial(
        _forward_cylinder_replica,
        g=g,
        sampler=sampler,
        params=params,
        initial=initial,
        t_max=cfg["t_max"],
        times=times,
        cylinders=cylinders,
    )
    outcomes = _collect(fn, cfg["replicas"], stream, cfg["workers"])

    result = ExperimentResult(experiment="raw-simulate", passed=None)
    result.lines.append(
        f"raw-simulate: {cfg['replicas']} replicas on [0, {cfg['t_max']:g}], "
        f"{len(cylinders)} observables, {len(times)} checkpoints"
    )
    out = _out_dir(cfg, write_outputs)
    if out is not None:
        path = out / "checkpoints.csv"
        write_results(
            (
                {"replica": rep, "time": t, "observable_id": label, "value": value}
                for rep, (rows, _) in enumerate(outcomes)
                for t, label, value in rows
            ),
            path,
            "csv",
            fieldnames=["replica", "time", "observable_id", "value"],
        )
        result.files.append(str(path))
        if cfg["replicas"] == 1:
            state_path = out / "final_state.txt"
            write_state_file(outcomes[0][1], state_path)
            result.files.append(str(state_path))
    return result
