"""Benchmark self-test: the traced counts repeat exactly.

    python3 perfbench/selftest.py [workload ...] [--seed N]

For each workload (all four by default) this runs one traced pass twice in
fresh processes, on the same commit and seed, and fails if any count
differs between the two: u evaluations per located level, quadrature
evaluations, ODE right-hand-side calls, radial_state calls, and every
other call or evaluation count.  It also checks that BENCHMARK.json names
exactly the per-layer metrics that the traced run reports.  Exit status 0
when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

COUNT_UNITS = ("count", "evals/level", "calls/point", "evals/call")


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def check_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    reported = [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    return [] if declared == reported else [
        "BENCHMARK.json per_layer differs from layers.PER_LAYER"]


def main() -> int:
    parser = argparse.ArgumentParser(description="traced counts repeat exactly")
    parser.add_argument("workloads", nargs="*",
                        default=["cli", "curves", "identities", "reconstruct"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    problems = check_names()
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} counts, "
              f"{'all repeat' if not differ else 'differ: ' + ', '.join(differ)}")
        problems += [f"{workload}: {k} {first[k]} != {second.get(k)}"
                     for k in differ]
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
