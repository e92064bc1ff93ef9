"""Experiment runners behind the command line interface.

``run_experiment`` is the one skeleton: when the config needs a graph, it
compiles the model, graph, kernel and parameters, into one ``EventTable``,
hands it with an empty result to the experiment's runner, and records the
runner's verdict. The Monte Carlo estimators take that table; the exact
oracle, the reference side, takes its ``g``, ``kernel`` and ``params``. A
runner appends human-readable summary lines, writes its files through the
result, and returns True, False, or None when no gate applies. JSON output
comes from ``json.dumps``, whose floats round-trip exactly (``inf`` and
``nan`` as ``Infinity`` and ``NaN``); CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, combinations, product
from pathlib import Path

import numpy as np

from . import oracle
from .config import needs_graph, parse_graph_spec
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
from .forward import EventTable, ModelParams, SpinBondState, read_state_file, write_state_file
from .graphs import Graph, read_graph_file, read_kernel_file, uniform_kernel
from .rng import RngStream

# Numerical cushion on statistical gates so zero-variance estimators are
# compared to exact solver output at solver accuracy rather than exactly.
GATE_ABS_SLACK = 1e-10


@dataclass
class ExperimentResult:
    """What one run reports: its verdict, summary lines and written files.

    ``out_dir`` is None when the run writes nothing (``spinbond check``, or
    no ``output_dir``); ``write`` then does nothing, so records handed to it
    as a generator are never built.
    """

    experiment: str
    passed: bool | None = None
    out_dir: Path | None = None
    lines: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    def path(self, name: str) -> Path:
        """Record output file ``name`` and return its path in ``out_dir``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.files.append(str(path))
        return path

    def write(self, name: str, records, format="jsonl", fieldnames=None, legend=None) -> None:
        """``write_results`` into ``out_dir``; a CSV's ``legend`` text goes beside it."""
        if self.out_dir is None:
            return
        write_results(records, self.path(name), format, fieldnames)
        if legend is not None:
            self.path(name.replace(".csv", ".legend.txt")).write_text(legend)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def write_results(records, path, format: str = "jsonl", fieldnames=None) -> None:
    """Write mapping records to ``path`` as JSON lines or CSV, as they come.

    Records keep their key order (JSONL) or follow ``fieldnames`` /
    the first record's keys (CSV). For JSONL, ``records`` may also be one
    mapping of equal-length number columns (sequences or numpy arrays),
    written as one record per row. JSONL floats take ``json.dumps``'s
    shortest round-trip form and CSV floats 17 significant digits, so equal
    inputs give byte-equal files. An empty record set with explicit
    fieldnames yields a header-only CSV.
    """
    path = Path(path)
    if format == "jsonl":
        if isinstance(records, dict):
            lines = _jsonl_columns(records)
        else:
            lines = (json.dumps(rec) + "\n" for rec in records)
        with path.open("w") as fh:
            fh.writelines(lines)
        return
    if format != "csv":
        raise ValueError(f"format must be 'jsonl' or 'csv', got {format!r}")
    records = iter(records)
    if fieldnames is None:
        first = next(records, None)
        if first is None:
            raise ValueError("an empty CSV needs explicit fieldnames for its header")
        fieldnames = list(first)
        records = chain([first], records)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows([_csv_cell(rec[name]) for name in fieldnames] for rec in records)


def _jsonl_columns(columns: dict):
    """JSON lines for the rows of equal-length sequences of numbers.

    Byte-equal to ``json.dumps`` on one record per row, but each block of
    1,024 rows of a column goes through ``json.dumps`` once: a number's
    encoding contains no ", ", so splitting the encoded list yields the
    per-row cells, with ``NaN`` and ``Infinity`` spelled as ``json.dumps``
    spells them. A numpy block becomes Python numbers through ``tolist``.
    Blocks bound the cell strings held at once.
    """
    template = "{" + ", ".join(json.dumps(key) + ": %s" for key in columns) + "}\n"
    cols = list(columns.values())
    for start in range(0, len(cols[0]), 1024):
        blocks = [col[start:start + 1024] for col in cols]
        cells = [
            json.dumps(b.tolist() if isinstance(b, np.ndarray) else b)[1:-1].split(", ")
            for b in blocks
        ]
        yield "".join(template % row for row in zip(*cells))


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


def _build_model(cfg: dict) -> EventTable:
    """The config's model: its graph, its validated kernel and (p, v), compiled once."""
    if "graph" in cfg:
        g = parse_graph_spec(cfg["graph"])
    else:
        try:
            g = read_graph_file(cfg["graph_file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load graph file {cfg['graph_file']}: {exc}") from exc
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
    try:
        return EventTable(g, kernel, ModelParams(p=cfg["p"], v=cfg["v"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_state(cfg: dict, key: str, g: Graph) -> SpinBondState | None:
    """The state file named by ``key``, checked against ``g``; None without one."""
    if key not in cfg:
        return None
    try:
        state = read_state_file(g, cfg[key])
        state.validate(g)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load state file {cfg[key]}: {exc}") from exc
    return state


def _striped_state(g: Graph) -> SpinBondState:
    sites = np.array([1 if x % 2 == 0 else -1 for x in range(g.vertex_count)], dtype=np.int8)
    edges = np.array([1 if e % 2 == 0 else -1 for e in range(g.edge_count)], dtype=np.int8)
    return SpinBondState(sites, edges)


def _check_range(what: str, indices, count: int) -> None:
    for i in indices:
        if not 0 <= i < count:
            raise ConfigError(f"{what} {i} outside 0..{count - 1}")


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _versus(name: str, est, target: float, sig: float, ok: bool) -> str:
    return f"{name}: {est.estimate:.5f} vs {target:.5f} ({sig:.2f} sigma): {_verdict(ok)}"


def _family_rate(gates: int, sigmas: float, sides: int = 2) -> str:
    """A gate family's size, per-gate threshold and family-wise false-failure rate.

    The rate is the union bound over two-sided (or, with ``sides=1``,
    one-sided) gates under the normal approximation, which holds however
    the gates are correlated.
    """
    rate = min(1.0, gates * sides / 2 * math.erfc(sigmas / math.sqrt(2.0)))
    kind = "" if sides == 2 else " one-sided"
    return (
        f"{gates}{kind} gate{'s' if gates != 1 else ''} at {sigmas:g} sigma, "
        f"family-wise <= {100 * rate:.2g}%"
    )


def _sigma_gate(est, target: float, sigmas: float) -> tuple[float, bool]:
    """Deviation in standard errors; within ``sigmas`` or solver accuracy passes."""
    sig = deviation_sigmas(est, target)
    return sig, sig <= sigmas or abs(est.estimate - target) <= GATE_ABS_SLACK


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


def _exact_or_mc(note: str, exact, mc, cfg: dict, result: ExperimentResult, *args):
    """The verdict of ``exact`` under the oracle policy, else that of ``mc``.

    Both runners take ``(cfg, result, *args)``. A fallback above the cap
    first notes the cap error through the format string ``note``.
    """
    passed, capped = _exact(cfg, lambda: exact(cfg, result, *args))
    if passed is not None:
        return passed
    if capped:
        result.lines.append(note.format(capped))
    return mc(cfg, result, *args)


def _cylinder(sites: dict, positive, negative) -> CylinderEvent:
    return CylinderEvent.of(
        sites=sites, edges={**{e: 1 for e in positive}, **{e: -1 for e in negative}}
    )


def _product_mass(p: float, positive, negative) -> float:
    """Stationary mass of one signed site and these revealed edge signs."""
    return 0.5 * p ** len(positive) * (1.0 - p) ** len(negative)


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
    out_dir = Path(cfg["output_dir"]) if write_outputs and "output_dir" in cfg else None
    result = ExperimentResult(cfg["experiment"], out_dir=out_dir)
    model = _build_model(cfg) if needs_graph(cfg) else None
    stream = RngStream(cfg["seed"], (cfg["stream"], 0))
    result.passed = runner(cfg, result, stream, model)
    return result


def _run_duality_check(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    forward_initial = _load_state(cfg, "forward_initial_file", model.g) or _striped_state(model.g)
    return _exact_or_mc(
        "exact check unavailable ({}); using Monte Carlo cross-check",
        _duality_check_exact, _duality_check_mc,
        cfg, result, stream, model, forward_initial,
    )


def _duality_check_exact(cfg: dict, result: ExperimentResult, stream, model, forward_initial):
    table = oracle.duality_gap_table(
        model.g, model.kernel, model.params, forward_initial, cfg["k"], cfg["t"], mode=cfg["mode"]
    )
    gap = np.abs(table.lhs - table.rhs)
    worst_row = int(np.argmax(gap))
    worst = float(gap[worst_row])
    passed = worst <= cfg["tolerance"]

    result.lines += [
        f"duality-check: {len(table)} dual initial states, k={cfg['k']}, "
        f"t={cfg['t']:g}, mode={cfg['mode']}",
        f"worst |lhs-rhs| = {worst:.3e} at dual state {table.dual_state[worst_row]} "
        f"(tolerance {cfg['tolerance']:.1e}): {_verdict(passed)}",
    ]
    result.write(
        "duality_gaps.jsonl",
        {"dual_state": table.dual_state, "lhs": table.lhs, "rhs": table.rhs, "gap": gap},
    )
    return passed


def _duality_check_mc(cfg: dict, result: ExperimentResult, stream, model, forward_initial):
    """Statistical two-sided check: forward cylinder frequency vs dual-side value.

    Walkers start on the first k vertices (wrapping if k exceeds the vertex
    count) with +1 signs and nothing revealed; the matching forward event
    constrains those sites to +1.
    """
    k, t, params = cfg["k"], cfg["t"], model.params
    positions = [j % model.g.vertex_count for j in range(k)]
    dual_initial = DualState.of(positions, [1] * k)
    cyl = CylinderEvent.of(sites={x: 1 for x in positions})
    fwd = estimate_cylinder_probabilities(
        model, forward_initial, [t], [cyl], cfg["replicas"], stream.child(0), cfg["workers"]
    )[(t, cyl.label())]
    dual = estimate_dual_side(
        model, forward_initial, dual_initial, t, cfg["replicas"], stream.child(1),
        cfg["workers"], cfg["mode"],
    )
    gap = abs(fwd.estimate - dual.estimate)
    pooled = math.hypot(fwd.std_error, dual.std_error)
    passed = gap <= cfg["sigmas"] * pooled + GATE_ABS_SLACK

    result.lines += [
        f"duality-check (mc): k={k}, t={t:g}, mode={cfg['mode']}, "
        f"{cfg['replicas']} replicas per side",
        f"forward {fwd.estimate:.6f} +- {fwd.std_error:.6f}, "
        f"dual {dual.estimate:.6f} +- {dual.std_error:.6f}",
        f"|forward - dual| = {gap:.6f} within {cfg['sigmas']:g} pooled sigma "
        f"({pooled:.6f}; {_family_rate(1, cfg['sigmas'])}): {_verdict(passed)}",
    ]
    result.write(
        "duality_mc.jsonl",
        (
            _estimate_record(name, {"p": params.p, "v": params.v, "t": t, **extra}, est)
            for name, extra, est in (
                ("forward_cylinder", {"cylinder": cyl.label()}, fwd),
                ("dual_side", {"k": k, "mode": cfg["mode"]}, dual),
            )
        ),
    )
    return passed


def _run_stationary_compare(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    g, params = model.g, model.params
    p = params.p
    pi, capped = _exact(
        cfg,
        lambda: oracle.stationary_distribution(
            oracle.build_forward_generator(g, model.kernel, params)
        ),
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
                    cyl = _cylinder({x: site_sign}, pos, neg)
                    exact = oracle.cylinder_probability(g, pi, cyl)
                    target = _product_mass(p, pos, neg)
                    err = abs(exact - target)
                    worst_exact = max(worst_exact, err)
                    rows.append(
                        {"cylinder": cyl.label(), "exact": exact, "target": target, "abs_err": err}
                    )
        exact_ok = worst_exact <= cfg["tolerance"]
        result.lines += [
            f"stationary-compare: {len(rows)} cylinders, max_revealed={cfg['max_revealed']}",
            f"exact vs product form: worst |err| = {worst_exact:.3e} "
            f"(tolerance {cfg['tolerance']:.1e}): {_verdict(exact_ok)}",
        ]

    mc_ok = None
    if cfg["replicas"] > 0:
        mc_edges = list(range(min(2, g.edge_count)))
        subset = _env_assignments(mc_edges, min(2, cfg["max_revealed"]))
        cylinders = [_cylinder({0: 1}, pos, neg) for pos, neg in subset]
        targets = {
            cyl.label(): _product_mass(p, pos, neg) for cyl, (pos, neg) in zip(cylinders, subset)
        }
        oracle_values = (
            {cyl.label(): oracle.cylinder_probability(g, pi, cyl) for cyl in cylinders}
            if pi is not None
            else {}
        )
        estimates = estimate_cylinder_probabilities(
            model, ProductInitial(site_plus_prob=0.5, edge_plus_prob=p), [cfg["mc_time"]],
            cylinders, cfg["replicas"], stream, cfg["workers"],
        )
        mc_ok = True
        for (t, label), est in sorted(estimates.items()):
            sig, ok = _sigma_gate(est, targets[label], cfg["sigmas"])
            mc_ok = mc_ok and ok
            rows.append(
                _estimate_record(
                    "forward_cylinder",
                    {"p": p, "v": params.v, "t": t, "cylinder": label},
                    est,
                    oracle_value=oracle_values.get(label),
                    target=targets[label],
                    sigmas=sig,
                )
            )
            result.lines.append(_versus(f"mc {label}", est, targets[label], sig, ok))
        result.lines.append(
            f"mc gates ({_family_rate(len(estimates), cfg['sigmas'])}): {_verdict(mc_ok)}"
        )

    checks = [ok for ok in (exact_ok, mc_ok) if ok is not None]
    if not checks:
        result.lines.append("nothing checked: no exact solve and replicas = 0")
    result.write("stationary_compare.jsonl", rows)
    if pi is not None:
        result.write(
            "stationary_distribution.csv",
            ({"state_index": s, "probability": float(mass)} for s, mass in enumerate(pi)),
            "csv",
            legend=(
                "state_index: configuration packed into bits; bit x (x < vertex_count)\n"
                "is 1 when site x has sign +1, bit vertex_count + e is 1 when edge e\n"
                "has sign +1.\nprobability: stationary mass of that configuration.\n"
            ),
        )
    return all(checks) if checks else None


def _run_mu_dyn(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    g, params = model.g, model.params
    sites = list(cfg["sites"])
    signs = list(cfg["signs"])
    positive, negative = cfg["revealed_positive"], cfg["revealed_negative"]
    _check_range("site", sites, g.vertex_count)
    _check_range("edge", positive + negative, g.edge_count)
    if set(positive) & set(negative):
        raise ConfigError("revealed_positive and revealed_negative overlap")
    cyl = _cylinder(dict(zip(sites, signs)), positive, negative)

    def exact_mass():
        L = oracle.build_forward_generator(g, model.kernel, params)
        return oracle.cylinder_probability(g, oracle.stationary_distribution(L), cyl)

    # The exact solve draws no random numbers, so running it first lets
    # oracle "on" exit above the cap before any replica runs.
    exact, capped = _exact(cfg, exact_mass)
    try:
        mu = estimate_mu_dyn(
            model,
            sites,
            signs,
            cfg["replicas"],
            stream,
            revealed_positive=positive,
            revealed_negative=negative,
            t_cap=cfg.get("t_cap"),
            workers=cfg["workers"],
            report_limit=cfg["report_limit"],
        )
    except ValueError as exc:  # a start site the kernel's walk leaves for good
        raise ConfigError(str(exc)) from exc
    est = mu.result

    passed = None
    result.lines.append(
        f"mu-dyn: {est.observable} = {est.estimate:.6f} +- {est.std_error:.6f} "
        f"({est.replicas} replicas, {mu.censored_count} censored)"
    )
    if exact is not None:
        sig, passed = _sigma_gate(est, exact, cfg["sigmas"])
        result.lines.append(
            f"exact stationary mass {exact:.6f}, deviation {sig:.2f} sigma "
            f"({_family_rate(1, cfg['sigmas'])}): {_verdict(passed)}"
        )
    elif capped:
        result.lines.append(f"exact solve unavailable ({capped}); no oracle gate applied")
    else:
        result.lines.append("oracle disabled; no gate applied")

    if result.out_dir is not None:
        record = _estimate_record(
            "mu_dyn",
            {
                "p": params.p,
                "v": params.v,
                "sites": sites,
                "signs": signs,
                "revealed_positive": list(positive),
                "revealed_negative": list(negative),
            },
            est,
            censored=mu.censored_count,
            oracle_value=exact,
        )
        result.write("mu_dyn_estimate.jsonl", [record])
        reports = json.dumps([asdict(rep) for rep in mu.reports]) + "\n"
        result.path("coalescence_reports.json").write_text(reports)
    return passed


def _run_tv_decay(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    initial_a = _load_state(cfg, "initial_file", model.g) or SpinBondState.constant(
        model.g, site_sign=-1, edge_sign=-1
    )
    # The contender law starts from the sign-flipped configuration, the
    # farthest deterministic start (TV = 1 at t = 0).
    initial_b = SpinBondState(
        site_signs=(-initial_a.site_signs).astype(np.int8),
        edge_signs=(-initial_a.edge_signs).astype(np.int8),
    )
    steps = int(round(cfg["t_max"] / cfg["t_step"]))
    times = [i * cfg["t_step"] for i in range(steps + 1)]
    return _exact_or_mc(
        "exact transients unavailable ({}); using Monte Carlo bounds",
        _tv_decay_exact, _tv_decay_mc,
        cfg, result, stream, model, initial_a, initial_b, times,
    )


def _tv_decay_exact(
    cfg: dict, result: ExperimentResult, stream, model,
    initial_a: SpinBondState, initial_b: SpinBondState, times,
):
    curve = oracle.total_variation_curve(
        oracle.build_forward_generator(model.g, model.kernel, model.params),
        oracle.forward_delta(model.g, initial_a),
        oracle.forward_delta(model.g, initial_b),
        cfg["t_step"],
        len(times) - 1,
    )

    monotone = all(curve[i + 1] <= curve[i] + 1e-10 for i in range(len(curve) - 1))
    small_enough = curve[-1] < cfg["threshold"]

    result.lines += [
        f"tv-decay: grid 0..{cfg['t_max']:g} step {cfg['t_step']:g}, "
        f"TV start {curve[0]:.6f}, TV end {curve[-1]:.2e}",
        f"non-increasing along the grid: {_verdict(monotone)}",
        f"final TV < {cfg['threshold']:g}: {_verdict(small_enough)}",
    ]
    result.write(
        "tv_decay.csv",
        ({"t": t, "total_variation": tv} for t, tv in zip(times, curve)),
        "csv",
        legend=(
            "t: elapsed time.\n"
            "total_variation: TV distance between the laws at time t started\n"
            "from the initial configuration and from its sign flip.\n"
        ),
    )
    return monotone and small_enough


def _tv_decay_mc(
    cfg: dict, result: ExperimentResult, stream, model,
    initial_a: SpinBondState, initial_b: SpinBondState, times,
):
    points = estimate_tv_decay(
        model, initial_a, initial_b, times, single_constraint_events(model.g),
        cfg["replicas"], stream, cfg["workers"],
    )
    final = points[-1]
    # Frequency gaps only bound TV from below, so the one checkable gate is
    # that the best observed separation has decayed into the noise floor. It
    # can fail falsely through any of the events' gaps, so its stated rate is
    # that of one gate per event.
    events = model.g.vertex_count + model.g.edge_count
    passed = final.bound <= cfg["threshold"] + cfg["sigmas"] * final.std_error

    result.lines += [
        f"tv-decay (mc): grid 0..{cfg['t_max']:g} step {cfg['t_step']:g}, "
        f"{cfg['replicas']} replicas per law, {events} events",
        f"TV lower bound start {points[0].bound:.6f}, end {final.bound:.6f} "
        f"(argmax {final.event})",
        f"final bound <= {cfg['threshold']:g} + {cfg['sigmas']:g} sigma "
        f"({final.std_error:.6f}; {_family_rate(events, cfg['sigmas'])}): {_verdict(passed)}",
    ]
    result.write(
        "tv_decay.csv",
        (
            {
                "t": pt.time,
                "tv_lower_bound": pt.bound,
                "event": pt.event,
                "std_error": pt.std_error,
            }
            for pt in points
        ),
        "csv",
        legend=(
            "t: elapsed time.\n"
            "tv_lower_bound: largest |frequency difference| over the single-site\n"
            "and single-edge events between runs started from the initial\n"
            "configuration and from its sign flip; a lower bound on their TV\n"
            "distance.\nevent: the maximizing event.\n"
            "std_error: pooled standard error of that event's two frequencies.\n"
        ),
    )
    return passed


def _mgf_closed_form(theta: float, t: float, v: float, r0: int) -> float:
    """``birth_death_mgf``, or a ``ConfigError`` where it overflows a double."""
    try:
        value = birth_death_mgf(theta, t, v, r0)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ConfigError(f"mgf closed form at theta={theta:g}, t={t:g} overflows a double")
    return value


def _run_mgf_check(cfg: dict, result: ExperimentResult, stream, model: EventTable | None):
    v = cfg["v"]
    grid = list(product(cfg["thetas"], cfg["times"], cfg["r0_values"]))
    # Every closed form is worked out before any replica runs.
    targets = [_mgf_closed_form(theta, t, v, r0) for theta, t, r0 in grid]
    domination = None
    if cfg["check_domination"]:
        theta = -2.0 * math.log(min(model.params.p, 1.0 - model.params.p))
        domination = theta, cfg["t"], _mgf_closed_form(theta, cfg["t"], v, 0)
    rows = []
    all_ok = True
    for call, ((theta, t, r0), target) in enumerate(zip(grid, targets)):
        est = estimate_mgf(theta, t, v, r0, cfg["replicas"], stream.child(call), cfg["workers"])
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
        result.lines.append(_versus(est.observable, est, target, sig, ok))
    result.lines.append(f"mgf gates ({_family_rate(len(rows), cfg['sigmas'])}): {_verdict(all_ok)}")

    if domination is not None:
        theta, t, bound = domination
        est = estimate_revealed_weight(
            model, DualState.of([0], [1]), theta, t, cfg["replicas"],
            stream.child(len(grid)), cfg["workers"],
        )
        ok = est.estimate <= bound + cfg["sigmas"] * est.std_error
        all_ok = all_ok and ok
        rows.append(
            _estimate_record(
                "revealed_weight",
                {"theta": theta, "t": t, "p": model.params.p, "v": v},
                est,
                bound=bound,
            )
        )
        result.lines.append(
            f"revealed-set weight at theta={theta:.4f}, t={t:g}: "
            f"{est.estimate:.5f} <= bound {bound:.5f} "
            f"({_family_rate(1, cfg['sigmas'], sides=1)}): {_verdict(ok)}"
        )
    result.write("mgf_check.jsonl", rows)
    return all_ok


def _run_raw_simulate(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    g = model.g
    try:
        cylinders = [parse_cylinder_label(text) for text in cfg["observables"]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for cyl in cylinders:
        _check_range("observable site", (x for x, _ in cyl.site_constraints), g.vertex_count)
        _check_range("observable edge", (e for e, _ in cyl.edge_constraints), g.edge_count)

    initial = _load_state(cfg, "initial_file", g) or ProductInitial(
        site_plus_prob=cfg["site_plus_prob"], edge_plus_prob=cfg["edge_plus_prob"]
    )
    times = sorted(cfg["checkpoint_times"])

    fn = partial(
        _forward_cylinder_replica,
        table=model, initial=initial, t_max=cfg["t_max"], times=times, cylinders=cylinders,
    )
    outcomes = _collect(fn, cfg["replicas"], stream, cfg["workers"], block=1)

    result.lines.append(
        f"raw-simulate: {cfg['replicas']} replicas on [0, {cfg['t_max']:g}], "
        f"{len(cylinders)} observables, {len(times)} checkpoints"
    )
    result.write(
        "checkpoints.csv",
        (
            {"replica": rep, "time": t, "observable_id": label, "value": value}
            for rep, (rows, _) in enumerate(outcomes)
            for t, label, value in rows
        ),
        "csv",
        fieldnames=["replica", "time", "observable_id", "value"],
    )
    if cfg["replicas"] == 1 and result.out_dir is not None:
        write_state_file(outcomes[0][1], result.path("final_state.txt"))
    return None
