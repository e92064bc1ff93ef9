"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function, at every module or class
attribute that holds it, with a wrapper that records a span (name, start,
end, parent) and hands the return value to a counter; ``uninstall`` puts
the originals back. Spans stay in memory until ``write``. Work done in
process-pool children is not seen: their spans stay in the child.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute path) of every traced function.
TARGETS = [
    ("rng.substream", "spinbond.rng", "RngStream.substream"),
    ("forward.simulate_forward", "spinbond.forward", "simulate_forward"),
    ("dual.simulate_dual", "spinbond.dual", "simulate_dual"),
    ("cylinders.matches", "spinbond.cylinders", "CylinderEvent.matches"),
    ("estimators.estimate_cylinder_probabilities", "spinbond.estimators", "estimate_cylinder_probabilities"),
    ("estimators.estimate_dual_side", "spinbond.estimators", "estimate_dual_side"),
    ("estimators.estimate_tv_decay", "spinbond.estimators", "estimate_tv_decay"),
    ("estimators.estimate_mu_dyn", "spinbond.estimators", "estimate_mu_dyn"),
    ("estimators.estimate_mgf", "spinbond.estimators", "estimate_mgf"),
    ("estimators.estimate_revealed_weight", "spinbond.estimators", "estimate_revealed_weight"),
    ("estimators.simulate_birth_death", "spinbond.estimators", "simulate_birth_death"),
    ("oracle.build_forward_generator", "spinbond.oracle", "build_forward_generator"),
    ("oracle.build_dual_generator", "spinbond.oracle", "build_dual_generator"),
    ("oracle.transient_distribution", "spinbond.oracle", "transient_distribution"),
    ("oracle.transient_action", "spinbond.oracle", "transient_action"),
    ("oracle.stationary_distribution", "spinbond.oracle", "stationary_distribution"),
    ("oracle.duality_gap_table", "spinbond.oracle", "duality_gap_table"),
    ("oracle.cylinder_probability", "spinbond.oracle", "cylinder_probability"),
    ("experiments.write_results", "spinbond.experiments", "write_results"),
    ("experiments.run_experiment", "spinbond.experiments", "run_experiment"),
    ("config.load_config", "spinbond.config", "load_config"),
    ("graphs.builtin_graph", "spinbond.graphs", "builtin_graph"),
    ("cli.main", "spinbond.cli", "main"),
]

ESTIMATES = {name for name, _, _ in TARGETS if name.startswith("estimators.estimate_")}


def _owner(module: str, attr: str):
    owner = sys.modules[module]
    *parents, leaf = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stationary_solves: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = getattr(self, "_on_" + name.split(".", 1)[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    # Counters, taken from return values outside the timed span.

    def _on_simulate_forward(self, args, traj) -> None:
        self.counts["forward.events"] += traj.event_count

    def _on_simulate_dual(self, args, traj) -> None:
        self.counts["dual.events"] += traj.event_count
        self.counts["dual.reveals"] += traj.reveal_count

    def _on_estimate_cylinder_probabilities(self, args, out) -> None:
        # One replica set serves every (time, cylinder) estimate.
        self.counts["estimators.replicas"] += next(iter(out.values())).replicas

    def _on_estimate_dual_side(self, args, out) -> None:
        self.counts["estimators.replicas"] += out.replicas

    _on_estimate_mgf = _on_estimate_dual_side
    _on_estimate_revealed_weight = _on_estimate_dual_side

    def _on_estimate_mu_dyn(self, args, out) -> None:
        self.counts["estimators.replicas"] += out.result.replicas + out.censored_count

    def _on_build_forward_generator(self, args, L) -> None:
        self.counts["oracle.forward_states"] += L.shape[0]

    def _on_build_dual_generator(self, args, L) -> None:
        self.counts["oracle.dual_states"] += L.shape[0]

    def _on_stationary_distribution(self, args, pi) -> None:
        # The residual is computed after the run, outside every span.
        self.stationary_solves.append((args[0], pi))

    def _on_run_experiment(self, args, result) -> None:
        self.counts["experiments.bytes_written"] += sum(
            Path(f).stat().st_size for f in result.files
        )

    # Patching.

    def install(self) -> None:
        wrapped = {}
        for name, module, attr in TARGETS:
            owner, leaf = _owner(module, attr)
            original = vars(owner)[leaf]
            wrapped[id(original)] = (original, self._wrap(name, original))
        holders = [
            mod
            for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "spinbond" or mod_name.startswith("spinbond."))
        ]
        holders += [_owner(module, attr)[0] for _, module, attr in TARGETS if "." in attr]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, entry[1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")

    # Summaries.

    def span_table(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap in a single thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if parent < 0 or not self.spans[parent][0].startswith(name.split(".")[0] + "."):
                row["outer_s"] += end - start  # not nested in its own module
        return table

    def layer_metrics(self) -> dict[str, dict]:
        """Every per-layer metric as a ``value`` and the ``unit`` it is in."""
        t = self.span_table()
        c = self.counts

        def get(name, key):
            return t[name][key] if name in t else 0.0

        def rate(num, den):
            return num / den if den > 0 else 0.0

        est_busy = sum(get(n, "outer_s") for n in ESTIMATES)
        forward_s = get("forward.simulate_forward", "total_s")
        dual_s = get("dual.simulate_dual", "total_s")
        dual_gen_s = get("oracle.build_dual_generator", "total_s")
        substream_s = get("rng.substream", "total_s")
        substream_calls = get("rng.substream", "calls")
        transient = ("oracle.transient_distribution", "oracle.transient_action")
        residual = max(
            (float(np.max(np.abs(L.T @ pi))) for L, pi in self.stationary_solves), default=0.0
        )
        rows = [
            ("rng.substream_calls", substream_calls, "count"),
            ("rng.substream_us", 1e6 * rate(substream_s, substream_calls), "us"),
            ("forward.calls", get("forward.simulate_forward", "calls"), "count"),
            ("forward.events", c["forward.events"], "count"),
            ("forward.busy_s", forward_s, "s"),
            ("forward.events_per_s", rate(c["forward.events"], forward_s), "1/s"),
            ("dual.calls", get("dual.simulate_dual", "calls"), "count"),
            ("dual.events", c["dual.events"], "count"),
            ("dual.reveals", c["dual.reveals"], "count"),
            ("dual.busy_s", dual_s, "s"),
            ("dual.events_per_s", rate(c["dual.events"], dual_s), "1/s"),
            ("cylinders.match_calls", get("cylinders.matches", "calls"), "count"),
            ("cylinders.match_busy_s", get("cylinders.matches", "total_s"), "s"),
            ("estimators.replicas", c["estimators.replicas"], "count"),
            ("estimators.busy_s", est_busy, "s"),
            ("estimators.self_s", sum(get(n, "self_s") for n in ESTIMATES), "s"),
            ("estimators.replicas_per_s", rate(c["estimators.replicas"], est_busy), "1/s"),
            ("estimators.birth_death_calls",
             get("estimators.simulate_birth_death", "calls"), "count"),
            ("estimators.birth_death_busy_s",
             get("estimators.simulate_birth_death", "total_s"), "s"),
            ("oracle.forward_states", c["oracle.forward_states"], "count"),
            ("oracle.forward_generator_s",
             get("oracle.build_forward_generator", "total_s"), "s"),
            ("oracle.dual_states", c["oracle.dual_states"], "count"),
            ("oracle.dual_generator_s", dual_gen_s, "s"),
            ("oracle.dual_generator_states_per_s",
             rate(c["oracle.dual_states"], dual_gen_s), "1/s"),
            ("oracle.stationary_s", get("oracle.stationary_distribution", "total_s"), "s"),
            ("oracle.stationary_residual", residual, "abs"),
            ("oracle.transient_calls", sum(get(n, "calls") for n in transient), "count"),
            ("oracle.transient_s", sum(get(n, "total_s") for n in transient), "s"),
            ("oracle.gap_table_self_s", get("oracle.duality_gap_table", "self_s"), "s"),
            ("oracle.cylinder_probability_s",
             get("oracle.cylinder_probability", "total_s"), "s"),
            ("experiments.write_s", get("experiments.write_results", "total_s"), "s"),
            ("experiments.bytes_written", c["experiments.bytes_written"], "bytes"),
            ("experiments.self_s", get("experiments.run_experiment", "self_s"), "s"),
            ("config.load_s", get("config.load_config", "total_s"), "s"),
            ("graphs.build_s", get("graphs.builtin_graph", "total_s"), "s"),
            ("cli.self_s", get("cli.main", "self_s"), "s"),
        ]
        return {name: {"value": value, "unit": unit} for name, value, unit in rows}
