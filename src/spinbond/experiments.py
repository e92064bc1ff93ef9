"""Experiment runners behind the command line interface.

``run_experiment`` is the one skeleton: when the config needs a graph, it
compiles the model, graph, kernel and parameters, into one ``EventTable``,
and hands it with an empty result to the experiment's runner. The Monte
Carlo estimators take that table; the exact oracle, the reference side,
takes its ``g``, ``kernel`` and ``params``. A runner appends human-readable
summary lines, writes its files through the result, and records each family
of gates it decides with ``result.gate``, a ``GateFamily`` that renders its
own verdict line; the run's verdict, ``result.passed``, is derived from those
records. JSON output comes from ``json.dumps``, whose floats round-trip
exactly (``inf`` and ``nan`` as ``Infinity`` and ``NaN``); CSV cells carry 17
significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations, product
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
    check_birth_death_events,
    check_dual_rings,
    check_forward_rings,
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


@dataclass(frozen=True)
class GateFamily:
    """One family of gates a runner decided: its outcome and stated false-failure rate.

    ``gates`` gates at ``sigmas`` standard errors each, two-sided, or
    one-sided with ``sides=1``. ``sigmas == 0`` marks an exact tolerance or
    bound, which no sampling noise can fail. The record only reports
    ``passed``; the runner decides it by the gate's own inequality.
    """

    text: str
    passed: bool
    detail: str = ""
    gates: int = 1
    sigmas: float = 0.0
    sides: int = 2

    @property
    def rate(self) -> float:
        """Stated family-wise false-failure rate, 0 for an exact family.

        The union bound over the gates of each one's size under the normal
        approximation. The union holds however the gates are correlated,
        but the sizes are normal ones, so the rate is approximate, not an
        exact bound: a gate's exact, binomial, size can be larger.
        """
        if self.sigmas == 0:  # erfc(0) would give 1
            return 0.0
        return min(1.0, self.gates * self.sides / 2 * math.erfc(self.sigmas / math.sqrt(2.0)))

    def line(self) -> str:
        """The verdict line: ``text (detail; family): PASS``, each part only when present."""
        notes = [self.detail] if self.detail else []
        if self.sigmas:
            kind = "" if self.sides == 2 else " one-sided"
            plural = "s" if self.gates != 1 else ""
            notes.append(
                f"{self.gates}{kind} gate{plural} at {self.sigmas:g} sigma, "
                f"family-wise <= {100 * self.rate:.2g}%"
            )
        paren = f" ({'; '.join(notes)})" if notes else ""
        return f"{self.text}{paren}: {'PASS' if self.passed else 'FAIL'}"


@dataclass
class ExperimentResult:
    """What one run reports: its gate families, summary lines and written files.

    ``out_dir`` is None when the run writes nothing (``spinbond check``, or
    no ``output_dir``); ``write`` then does nothing, so records handed to it
    as a generator are never built.
    """

    experiment: str
    out_dir: Path | None = None
    lines: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    gates: list[GateFamily] = field(default_factory=list)

    @property
    def passed(self) -> bool | None:
        """Whether every gate family passed; None when no gate applies."""
        return all(family.passed for family in self.gates) if self.gates else None

    def gate(self, text: str, passed, *fields, **named) -> None:
        """Record a ``GateFamily`` of these fields and add its verdict line."""
        record = GateFamily(text, bool(passed), *fields, **named)
        self.gates.append(record)
        self.lines.append(record.line())

    def path(self, name: str) -> Path:
        """Record output file ``name`` and return its path in ``out_dir``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.files.append(str(path))
        return path

    def write(self, name: str, table, legend=None) -> None:
        """``write_results`` of ``table`` into ``out_dir``; a ``legend`` goes beside it.

        ``table`` maps names to equal-length columns, written in blocks (see
        ``write_results``); JSON lines also take an iterable of records.
        """
        if self.out_dir is None:
            return
        write_results(table, self.path(name))
        if legend is not None:
            self.path(str(Path(name).with_suffix(".legend.txt"))).write_text(legend)


# Rows per block of a column table; one block's strings are all that is
# held. 4,096-row blocks wrote no faster (the gap table's values recur
# about as often within 1,024 rows) and left 1 MB more peak resident memory.
_WRITE_BLOCK = 1024


def write_results(table, path) -> None:
    """Write a table to ``path`` as JSON lines or CSV, by its suffix ``.jsonl`` or ``.csv``.

    ``table`` maps field names to equal-length columns (numpy arrays or
    sequences of floats, ints, bools or strings), and each row becomes one
    line: a JSON object with the keys in order, or a CSV row under a header
    of the names (header only for zero rows). The columns are written in
    blocks of ``_WRITE_BLOCK`` rows, so only one block's strings are held.
    In a block each distinct value of a column is encoded once: floats are
    told apart by bit pattern, so ``-0.0`` and ``0.0`` stay apart and every
    NaN and infinity keeps its spelling. JSON cells are what ``json.dumps``
    gives the value (shortest round-trip floats, ``NaN``, ``Infinity``),
    CSV cells what ``csv.writer`` gives ``true``/``false`` for bools, floats
    at 17 significant digits and ``str`` of the rest, so the file is
    byte-equal to one record at a time through those encoders.

    For JSON lines, ``table`` may instead be an iterable of records of any
    shape, written as they come with one ``json.dumps`` each. A path with
    any other suffix raises ``ValueError`` before anything is written.
    """
    path = Path(path)
    if path.suffix not in (".jsonl", ".csv"):
        raise ValueError(f"suffix of {path.name!r} names no results format: .jsonl or .csv")
    as_csv = path.suffix == ".csv"
    if not as_csv and not isinstance(table, dict):
        with path.open("w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in table)
        return
    cols = list(table.values())
    rows = len(cols[0]) if cols else 0
    if any(len(col) != rows for col in cols):
        raise ValueError("columns must all have the same length")
    blocks = (
        [_block_cells(col[start:start + _WRITE_BLOCK], as_csv) for col in cols]
        for start in range(0, rows, _WRITE_BLOCK)
    )
    if as_csv:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table)
            for cells in blocks:
                writer.writerows(zip(*cells))
        return
    # A line is prefix, cell, prefix, cell, ..., "}\n", so a block's lines
    # are one join over its cells interleaved with the key prefixes.
    prefixes = [("{" if j == 0 else ", ") + json.dumps(key) + ": " for j, key in enumerate(table)]
    width = 2 * len(cols) + 1
    with path.open("w") as fh:
        for cells in blocks:
            size = len(cells[0])
            parts = ["}\n"] * (width * size)
            for j, (prefix, column) in enumerate(zip(prefixes, cells)):
                parts[2 * j::width] = [prefix] * size
                parts[2 * j + 1::width] = column
            fh.write("".join(parts))


def _block_cells(block, as_csv: bool) -> list[str]:
    """The cell strings of one block of a column, each distinct value encoded once."""
    col = np.asarray(block)
    kind = col.dtype.kind
    if kind == "f":
        bits, inverse = np.unique(col.astype(np.float64).view(np.uint64), return_inverse=True)
        values = bits.view(np.float64).tolist()
    elif kind in "biuU":
        uniq, inverse = np.unique(col, return_inverse=True)
        values = uniq.tolist()
    else:
        raise TypeError(f"cannot write a column of {col.dtype}")
    if as_csv:
        if kind == "f":
            encoded = [f"{x:.17g}" for x in values]
        elif kind == "b":
            encoded = ["true" if x else "false" for x in values]
        else:
            encoded = list(map(str, values))
    elif kind == "U":
        encoded = list(map(json.dumps, values))
    else:
        # A number's or bool's JSON contains no ", ", so the list splits into its cells.
        encoded = json.dumps(values)[1:-1].split(", ")
    return np.array(encoded, dtype=object)[inverse].tolist()


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


def _versus(name: str, est, target: float, sig: float, ok: bool) -> str:
    """One gate of a family, on a line of its own; the family is recorded after it."""
    return GateFamily(f"{name}: {est.estimate:.5f} vs {target:.5f}", ok, f"{sig:.2f} sigma").line()


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


def _exact_or_mc(note: str, exact, mc, cfg: dict, result: ExperimentResult, *args) -> None:
    """Run ``exact`` under the oracle policy, else ``mc``.

    Both runners take ``(cfg, result, *args)``. A fallback above the cap
    first notes the cap error through the format string ``note``.
    """
    _, capped = _exact(cfg, partial(exact, cfg, result, *args))
    if capped:
        result.lines.append(note.format(capped))
    if capped or cfg["oracle"] == "off":
        mc(cfg, result, *args)


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
    stream = RngStream(cfg["seed"], (0, 0))  # every output's noise hangs off this key
    runner(cfg, result, stream, model)
    return result


def _run_duality_check(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    forward_initial = _load_state(cfg, "forward_initial_file", model.g) or _striped_state(model.g)
    _exact_or_mc(
        "exact check unavailable ({}); using Monte Carlo cross-check",
        _duality_check_exact, _duality_check_mc,
        cfg, result, stream, model, forward_initial,
    )


def _duality_check_exact(cfg: dict, result: ExperimentResult, stream, model, forward_initial):
    lhs, rhs = oracle.duality_gap_table(
        model.g, model.kernel, model.params, forward_initial, cfg["k"], cfg["t"]
    )
    gap = np.abs(lhs - rhs)
    worst_state = int(np.argmax(gap))
    worst = float(gap[worst_state])

    result.lines.append(
        f"duality-check: {lhs.size} dual initial states, k={cfg['k']}, "
        f"t={cfg['t']:g}, mode=coalescing"
    )
    result.gate(
        f"worst |lhs-rhs| = {worst:.3e} at dual state {worst_state}",
        worst <= cfg["tolerance"], f"tolerance {cfg['tolerance']:.1e}",
    )
    result.write(
        "duality_gaps.jsonl",
        {"dual_state": np.arange(lhs.size), "lhs": lhs, "rhs": rhs, "gap": gap},
    )


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
    check_dual_rings(cfg["replicas"], k, t)  # before the forward half draws
    fwd = estimate_cylinder_probabilities(
        model, forward_initial, [t], [cyl], cfg["replicas"], stream.child(0), cfg["workers"]
    )[(t, cyl.label())]
    dual = estimate_dual_side(
        model, forward_initial, dual_initial, t, cfg["replicas"], stream.child(1), cfg["workers"]
    )
    gap = abs(fwd.estimate - dual.estimate)
    pooled = math.hypot(fwd.std_error, dual.std_error)

    result.lines += [
        f"duality-check (mc): k={k}, t={t:g}, mode=coalescing, "
        f"{cfg['replicas']} replicas per side",
        f"forward {fwd.estimate:.6f} +- {fwd.std_error:.6f}, "
        f"dual {dual.estimate:.6f} +- {dual.std_error:.6f}",
    ]
    result.gate(
        f"|forward - dual| = {gap:.6f} within {cfg['sigmas']:g} pooled sigma",
        gap <= cfg["sigmas"] * pooled + GATE_ABS_SLACK, f"{pooled:.6f}", sigmas=cfg["sigmas"],
    )
    result.write(
        "duality_mc.jsonl",
        (
            _estimate_record(name, {"p": params.p, "v": params.v, "t": t, **extra}, est)
            for name, extra, est in (
                ("forward_cylinder", {"cylinder": cyl.label()}, fwd),
                ("dual_side", {"k": k, "mode": "coalescing"}, dual),
            )
        ),
    )


def _stationary_law(model: EventTable) -> np.ndarray:
    """The exact stationary law of the model's full chain, from its solve on spin-flip orbits."""
    g, params = model.g, model.params
    Q = oracle.build_forward_generator(g, model.kernel, params)
    return oracle.unfold(g, oracle.stationary_distribution(Q, g, params) / 2)


def _run_stationary_compare(cfg: dict, result: ExperimentResult, stream, model: EventTable):
    g, params = model.g, model.params
    p = params.p
    pi, capped = _exact(cfg, lambda: _stationary_law(model))
    if capped:
        result.lines.append(f"exact solve unavailable ({capped}); Monte Carlo only")

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
        result.lines.append(
            f"stationary-compare: {len(rows)} cylinders, max_revealed={cfg['max_revealed']}"
        )
        result.gate(
            f"exact vs product form: worst |err| = {worst_exact:.3e}",
            worst_exact <= cfg["tolerance"], f"tolerance {cfg['tolerance']:.1e}",
        )

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
        oks = []
        for (t, label), est in sorted(estimates.items()):
            sig, ok = _sigma_gate(est, targets[label], cfg["sigmas"])
            oks.append(ok)
            rows.append(
                _estimate_record(
                    "forward_cylinder", {"p": p, "v": params.v, "t": t, "cylinder": label}, est,
                    oracle_value=oracle_values.get(label), target=targets[label], sigmas=sig,
                )
            )
            result.lines.append(_versus(f"mc {label}", est, targets[label], sig, ok))
        result.gate("mc gates", all(oks), gates=len(oks), sigmas=cfg["sigmas"])

    if not result.gates:
        result.lines.append("nothing checked: no exact solve and replicas = 0")
    result.write("stationary_compare.jsonl", rows)
    if pi is not None:
        result.write(
            "stationary_distribution.csv",
            {"state_index": np.arange(len(pi)), "probability": pi},
            legend=(
                "state_index: configuration packed into bits; bit x (x < vertex_count)\n"
                "is 1 when site x has sign +1, bit vertex_count + e is 1 when edge e\n"
                "has sign +1.\nprobability: stationary mass of that configuration.\n"
            ),
        )


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

    # The exact solve draws no random numbers, so running it first lets
    # oracle "on" exit above the cap before any replica runs.
    exact, capped = _exact(cfg, lambda: oracle.cylinder_probability(g, _stationary_law(model), cyl))
    try:
        mu = estimate_mu_dyn(
            model, sites, cfg["replicas"], stream,
            revealed_positive=positive, revealed_negative=negative, t_cap=cfg.get("t_cap"),
            workers=cfg["workers"], report_limit=cfg["report_limit"],
        )
    except ValueError as exc:  # a start site the kernel's walk leaves for good
        raise ConfigError(str(exc)) from exc
    est = mu.result

    result.lines.append(
        f"mu-dyn: {est.observable} = {est.estimate:.6f} +- {est.std_error:.6f} "
        f"({est.replicas} replicas, {mu.censored_count} censored)"
    )
    if exact is not None:
        sig, ok = _sigma_gate(est, exact, cfg["sigmas"])
        result.gate(
            f"exact stationary mass {exact:.6f}, deviation {sig:.2f} sigma",
            ok, sigmas=cfg["sigmas"],
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
    _exact_or_mc(
        "exact transients unavailable ({}); using Monte Carlo bounds",
        _tv_decay_exact, _tv_decay_mc,
        cfg, result, stream, model, initial_a, initial_b, times,
    )


def _tv_decay_exact(
    cfg: dict, result: ExperimentResult, stream, model,
    initial_a: SpinBondState, initial_b: SpinBondState, times,
):
    curve = oracle.total_variation_curve(
        model.g, model.kernel, model.params, initial_a, initial_b, cfg["t_step"], len(times) - 1
    )

    result.lines.append(
        f"tv-decay: grid 0..{cfg['t_max']:g} step {cfg['t_step']:g}, "
        f"TV start {curve[0]:.6f}, TV end {curve[-1]:.2e}"
    )
    result.gate(
        "non-increasing along the grid",
        all(curve[i + 1] <= curve[i] + 1e-10 for i in range(len(curve) - 1)),
    )
    result.gate(f"final TV < {cfg['threshold']:g}", curve[-1] < cfg["threshold"])
    result.write(
        "tv_decay.csv",
        {"t": times, "total_variation": curve},
        legend=(
            "t: elapsed time.\n"
            "total_variation: TV distance between the laws at time t started\n"
            "from the initial configuration and from its sign flip.\n"
        ),
    )


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

    result.lines += [
        f"tv-decay (mc): grid 0..{cfg['t_max']:g} step {cfg['t_step']:g}, "
        f"{cfg['replicas']} replicas per law, {events} events",
        f"TV lower bound start {points[0].bound:.6f}, end {final.bound:.6f} "
        f"(argmax {final.event})",
    ]
    result.gate(
        f"final bound <= {cfg['threshold']:g} + {cfg['sigmas']:g} sigma",
        final.bound <= cfg["threshold"] + cfg["sigmas"] * final.std_error,
        f"{final.std_error:.6f}", gates=events, sigmas=cfg["sigmas"],
    )
    result.write(
        "tv_decay.csv",
        {
            "t": [pt.time for pt in points],
            "tv_lower_bound": [pt.bound for pt in points],
            "event": [pt.event for pt in points],
            "std_error": [pt.std_error for pt in points],
        },
        legend=(
            "t: elapsed time.\n"
            "tv_lower_bound: largest |frequency difference| over the single-site\n"
            "and single-edge events between runs started from the initial\n"
            "configuration and from its sign flip; a lower bound on their TV\n"
            "distance.\nevent: the maximizing event.\n"
            "std_error: pooled standard error of that event's two frequencies.\n"
        ),
    )


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
    # Every closed form and work budget is checked before any replica runs.
    targets = [_mgf_closed_form(theta, t, v, r0) for theta, t, r0 in grid]
    for _, t, r0 in grid:
        check_birth_death_events(cfg["replicas"], r0, v, t)
    domination = None
    if cfg["check_domination"]:
        theta = -2.0 * math.log(min(model.params.p, 1.0 - model.params.p))
        domination = theta, cfg["t"], _mgf_closed_form(theta, cfg["t"], v, 0)
        check_dual_rings(cfg["replicas"], 1, cfg["t"])
    # One sample per start size serves every theta and time.
    samples = {
        r0: estimate_mgf(
            cfg["thetas"], cfg["times"], v, r0, cfg["replicas"], stream.child(i), cfg["workers"]
        ).estimates
        for i, r0 in enumerate(cfg["r0_values"])
    }
    rows = []
    oks = []
    for (theta, t, r0), target in zip(grid, targets):
        est = samples[r0][(theta, t)]
        sig = deviation_sigmas(est, target)
        oks.append(sig <= cfg["sigmas"])
        rows.append(
            _estimate_record(
                "birth_death_mgf", {"theta": theta, "t": t, "v": v, "r0": r0}, est,
                oracle_value=target, sigmas=sig,
            )
        )
        result.lines.append(_versus(est.observable, est, target, sig, oks[-1]))
    result.gate("mgf gates", all(oks), gates=len(oks), sigmas=cfg["sigmas"])

    if domination is not None:
        theta, t, bound = domination
        est = estimate_revealed_weight(
            model, DualState.of([0], [1]), theta, t, cfg["replicas"],
            stream.child(len(grid)), cfg["workers"],
        )
        rows.append(
            _estimate_record(
                "revealed_weight", {"theta": theta, "t": t, "p": model.params.p, "v": v}, est,
                bound=bound,
            )
        )
        result.gate(
            f"revealed-set weight at theta={theta:.4f}, t={t:g}: "
            f"{est.estimate:.5f} <= bound {bound:.5f}",
            est.estimate <= bound + cfg["sigmas"] * est.std_error, sigmas=cfg["sigmas"], sides=1,
        )
    result.write("mgf_check.jsonl", rows)


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
    check_forward_rings(model, cfg["replicas"], cfg["t_max"])

    fn = partial(
        _forward_cylinder_replica,
        table=model, initial=initial, t_max=cfg["t_max"], times=times, cylinders=cylinders,
    )
    outcomes = _collect(fn, cfg["replicas"], stream, cfg["workers"], block=1)

    result.lines.append(
        f"raw-simulate: {cfg['replicas']} replicas on [0, {cfg['t_max']:g}], "
        f"{len(cylinders)} observables, {len(times)} checkpoints"
    )
    # Each replica's hits run over the times, then the observables.
    per_replica = len(times) * len(cylinders)
    result.write(
        "checkpoints.csv",
        {
            "replica": np.arange(len(outcomes)).repeat(per_replica),
            "time": np.tile(np.repeat(times, len(cylinders)), len(outcomes)),
            "observable_id": np.tile([cyl.label() for cyl in cylinders], len(outcomes) * len(times)),
            "value": np.concatenate([hits for hits, _ in outcomes]),
        },
    )
    if cfg["replicas"] == 1 and result.out_dir is not None:
        write_state_file(outcomes[0][1], result.path("final_state.txt"))
