"""Steadiness: run one workload N times with distinct seeds, print quartiles.

    python3 spinbench/steady.py --workload exact-oracle --runs 10

Run k uses seed k. Each run is a separate ``run.py`` process at its
default run length (the ``run_seconds`` of BENCHMARK.json), one after the
other. For every metric the command prints the median, the first and
third quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
the spread, which is the distance between the quartiles as a share of the
median. The bounds in BENCHMARK.json are set from these spreads; the share
of failed operations is printed too, since it must not depend on the seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        shown = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {shown}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':<36}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>10}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<36}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>10.4f}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
