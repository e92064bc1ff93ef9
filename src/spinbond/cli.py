"""Command line interface.

Exit codes: 0 success (all gates passed or no gate applies), 1 a gate
failed, 2 usage or configuration error, 3 resource limit hit (state-space
cap or censoring).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import CensoringError, ConfigError, StateSpaceCapError
from .experiments import run_experiment
from .graphs import builtin_graph, format_graph, write_graph_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbond",
        description="Simulators and exact checks for voter dynamics with signed, refreshing edges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write its output files")
    run_p.add_argument("config", help="path to a flat JSON experiment config")

    check_p = sub.add_parser("check", help="evaluate an experiment's gates without writing files")
    check_p.add_argument("config", help="path to a flat JSON experiment config")

    graph_p = sub.add_parser("graph", help="emit a builtin graph in the plain-text format")
    graph_p.add_argument("kind", choices=["path", "cycle", "complete", "grid_torus"])
    graph_p.add_argument("sizes", nargs="+", type=int, help="size (or rows cols for grid_torus)")
    graph_p.add_argument("--out", help="output file; stdout when omitted")
    return parser


def _run_graph_command(args) -> int:
    try:
        g = builtin_graph(args.kind, *args.sizes)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_graph_file(g, args.out)
        print(f"wrote {args.out}: {g.vertex_count} vertices, {g.edge_count} edges")
    else:
        print(format_graph(g), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "graph":
        return _run_graph_command(args)

    try:
        cfg = load_config(args.config)
        result = run_experiment(cfg, write_outputs=args.command == "run")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StateSpaceCapError, CensoringError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3

    for line in result.lines:
        print(line)
    for path in result.files:
        print(f"wrote {path}")
    if result.passed is None:
        print(f"{result.experiment}: DONE")
        return 0
    print(f"{result.experiment}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
