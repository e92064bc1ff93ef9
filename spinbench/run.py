"""Benchmark entry point: run one workload (or all) through the public CLI.

Usage, from the root of a source checkout:

    python3 spinbench/run.py --workload monte-carlo --seed 0 --seconds 15 --trace 0
    python3 spinbench/run.py --workload all

A run generates the workload's configs from the seed, measures set-up in
fresh interpreters, then runs whole rounds of the workload's operations
(one ``spinbond run <config>`` each, called in this process) until
``--seconds`` have passed, and checks every output. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``), their times put at the
machine's reference speed (see ``speed.py``), or the per-layer metrics of
a traced round (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".spinbench_runs"
KEPT = "outputs kept in "
# Set-up is timed this many times before the rounds and as many after, so
# its median spans the run rather than one moment of a machine whose speed
# drifts.
SETUP_REPEATS = 3

sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402

# checks (which imports scipy.stats) is imported only after the rounds and
# the peak-memory read, so peak_rss_mb is the program's and not the checks'.
from workloads import WORKLOADS  # noqa: E402

# What one fresh `spinbond run` pays before its experiment starts: the
# interpreter, the package import, and loading and validating the config
# (its graph spec included).
SETUP_PROBE = """
import sys
from spinbond import cli
from spinbond.config import load_config, parse_graph_spec
for path in sys.argv[1:]:
    cfg = load_config(path)
    if "graph" in cfg:
        parse_graph_spec(cfg["graph"])
"""


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup(ops, repeats: int, gauge) -> list[float]:
    """Seconds from starting a fresh interpreter to its configs being loaded.

    Each time is put at the machine's reference speed by the reference
    passes just before and just after it (see ``speed``).
    """
    times = []
    args = [sys.executable, "-c", SETUP_PROBE] + [str(op.config_path) for op in ops]
    for _ in range(repeats):
        with gauge.timed(interleave=False) as span:
            subprocess.run(args, env=_program_env(), check=True, cwd=ROOT)
        times.append(span["seconds"] * gauge.scale())
    return times


def _own_peak_kib() -> int:
    """Peak resident memory of this process since it started, in KiB.

    Not ``ru_maxrss``: Linux carries that high-water mark across fork and
    exec, so it would also count whatever process launched the benchmark.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(cli, op) -> tuple[float, bool]:
    """Run one operation through the CLI; return its seconds and whether it passed."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", str(op.config_path)])
    except Exception:  # an operation that raises counts as failed
        code = None
        sink.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    print(f"  {op.name}: {seconds:.4f} s", file=sys.stderr)
    if code != 0:
        print(f"{op.name}: exit {code}\n{sink.getvalue()}", file=sys.stderr)
    return seconds, code == 0


def run_round(cli, ops, gauge) -> tuple[float, float, set[str]]:
    """Run every operation once; return wall seconds, CPU seconds, failed names.

    The times are at the machine's reference speed: each operation's wall
    and CPU seconds, less the reference passes run during it, are scaled
    by the passes run during it and just around it (see ``speed``).
    """
    wall = cpu = raw_wall = 0.0
    failed = set()
    for op in ops:
        with gauge.timed() as span:
            passed = run_op(cli, op)[1]
        op_cpu = span["cpu"] - span["paused"]
        op_wall = span["seconds"] - span["paused"]
        wall += op_wall * gauge.scale()
        cpu += op_cpu * gauge.scale()
        raw_wall += op_wall
        if not passed:
            failed.add(op.name)
    print(f"round: {len(ops)} operations, wall {wall:.4f} s, cpu {cpu:.4f} s "
          f"(unscaled wall {raw_wall:.4f} s)", file=sys.stderr)
    return wall, cpu, failed


def check_outputs(ops) -> set[str]:
    import checks

    failed = set()
    for op in ops:
        try:
            problems = checks.CHECKS[op.check](op.config, op.out_dir)
        except Exception as exc:  # unreadable or missing output
            problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            print(f"check {op.name}: {problem}", file=sys.stderr)
        if problems:
            failed.add(op.name)
    return failed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _import_cli():
    sys.path.insert(0, str(SRC))
    from spinbond import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"spinbond imported from {cli.__file__}, not from {SRC}")
    return cli


def timed_rounds(ops, seconds: float) -> tuple[dict, list[set[str]]]:
    """End-to-end metrics: set-up around whole rounds run for ``seconds``."""
    gauge = speed.Gauge()
    setup_times = measure_setup(ops, SETUP_REPEATS, gauge)
    cli = _import_cli()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(cli, ops, gauge))
    own = _own_peak_kib()
    # The pool workers of workers=2 runs and the set-up probes; each also
    # carries this process's high-water mark at the time it was started.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_times += measure_setup(ops, SETUP_REPEATS, gauge)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(statistics.median(r[0] for r in rounds), "s"),
        "cpu_s": _metric(statistics.median(r[1] for r in rounds), "s"),
        "peak_rss_mb": _metric(max(own, kids) / 1024.0, "MB"),  # both are in KiB
    }
    return metrics, [r[2] for r in rounds]


def traced_rounds(ops, spans_path: Path) -> tuple[dict, list[set[str]]]:
    """Per-layer metrics from one traced and one untraced round, interleaved.

    Each operation runs untraced and traced back to back, in alternating
    order, so warm-up and drift in machine speed fall on both sides of the
    tracing overhead.
    """
    from spans import Tracer

    cli = _import_cli()
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    failed: dict[bool, set[str]] = {False: set(), True: set()}
    for i, op in enumerate(ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                op_seconds, passed = run_op(cli, op)
            finally:
                tracer.uninstall()
            seconds[traced] += op_seconds
            if not passed:
                failed[traced].add(op.name)
    overhead = seconds[True] - seconds[False]

    print(f"{'span':<46}{'calls':>10}{'total_s':>12}{'self_s':>12}")
    for span, row in sorted(tracer.span_table().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{span:<46}{int(row['calls']):>10}{row['total_s']:>12.4f}{row['self_s']:>12.4f}")
    print(f"tracing overhead: {overhead:.4f} s over an untraced round of {seconds[False]:.4f} s")
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics, [failed[False], failed[True]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    ops = WORKLOADS[name](seed, run_dir)
    if trace:
        metrics, failed_per_round = traced_rounds(ops, RUNS_DIR / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics, failed_per_round = timed_rounds(ops, seconds)
    # An output that fails its check fails its operation in every round.
    bad_outputs = check_outputs(ops)
    return {
        "correct": not bad_outputs,
        "attempted": len(ops) * len(failed_per_round),
        "failed": sum(len(f | bad_outputs) for f in failed_per_round),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak memory is per workload.

    configs-workers2 must write the same bytes as the workers=1 runs of
    the shipped configs in monte-carlo, so both keep their outputs until
    they are compared.
    """
    import checks

    results = {}
    kept = {}
    try:
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace)), "--keep-outputs"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if line.startswith(KEPT):
                    kept[name] = Path(line[len(KEPT):])
                else:
                    print(line)
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"workload {name} exited with {proc.returncode}")
            results[name] = json.loads(lines[-1])
            shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                              for k, m in results[name]["metrics"].items())
            print(f"{name}: attempted {results[name]['attempted']}, "
                  f"failed {results[name]['failed']}, correct {results[name]['correct']}; {shown}")
        out_1, out_2 = kept["monte-carlo"] / "out", kept["configs-workers2"] / "out"
        same = []
        for op_dir in sorted(out_2.iterdir()):
            same += checks.same_files(out_1 / op_dir.name, op_dir)
        for problem in same:
            print(f"check configs-workers2: {problem}", file=sys.stderr)
        print(f"configs-workers2 outputs byte-identical to monte-carlo: {not same}")
    finally:
        for path in kept.values():
            shutil.rmtree(path, ignore_errors=True)
    return {
        "correct": all(r["correct"] for r in results.values()) and not same,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep-outputs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("SPINBOND_SEED", None)  # the generated configs carry the seeds
    # On SIGTERM, unwind: subprocess.run kills and waits for its child, and
    # the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "spinbond" / "__init__.py").is_file():
        print(f"error: no spinbond sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        RUNS_DIR.mkdir(exist_ok=True)
        run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        try:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        finally:
            if not args.keep_outputs:
                shutil.rmtree(run_dir, ignore_errors=True)
        if args.keep_outputs:
            print(f"{KEPT}{run_dir}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
