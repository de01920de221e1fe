"""Compare the benchmark's end-to-end metrics at a revision and in the
working tree, over alternating pairs of runs.

    python3 tools/pairs.py REV --workload W [--pairs 10] [--seconds S] [--seed 0]

Extracts `git archive REV src perfbench BENCHMARK.json` into one temporary
directory and copies the same paths of the working tree into another, so
nothing is written in the checkout.  Then runs `perfbench/run.py
--workload W --seed SEED --seconds S` once on each side per pair, REV
first in odd pairs and the working tree first in even ones; S defaults to
`run_seconds` of BENCHMARK.json.  Prints each run's metrics as it ends,
then, for every end-to-end metric of BENCHMARK.json, each side's median
and quartiles, the ratio of the medians (working tree over REV), and the
pairs the working tree won, ties counting for neither.  "gain" marks a
metric on which it won at least nine tenths of the pairs and the medians
differ by more than the distance between REV's quartiles.  Exits 1 if a
run ends without its result line or reports a wrong output or a failed
item, 2 if REV cannot be archived, and 0 otherwise.  Standard library
and git only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("src", "perfbench", "BENCHMARK.json")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation
    between the sorted values."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(at_rev: list[float], here: list[float], better: str) -> dict:
    """The statistics of one metric over pairs (at_rev[i], here[i]):
    quartiles of each side, the ratio of medians, the pairs won here and
    whether that makes a gain."""
    rev_q, here_q = quartiles(at_rev), quartiles(here)
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (a - b) > 0.0 for a, b in zip(at_rev, here))
    gain = (10 * won >= 9 * len(at_rev)
            and sign * (rev_q[1] - here_q[1]) > rev_q[2] - rev_q[0])
    return {"rev": rev_q, "here": here_q, "ratio": here_q[1] / rev_q[1],
            "won": won, "pairs": len(at_rev), "gain": gain}


def _copy_working_tree(into: Path) -> None:
    """The working tree's PATHS, copied under `into` without bytecode caches
    or benchmark output."""
    for name in PATHS:
        src, dst = ROOT / name, into / name
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                "__pycache__", ".bench_out"))
        else:
            shutil.copy2(src, dst)


def _run(root: Path, args: argparse.Namespace) -> dict | None:
    """The result line of one benchmark run in `root`, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    archive = subprocess.run(["git", "archive", args.rev, *PATHS], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    runs: dict[str, list[dict]] = {args.rev: [], "here": []}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {args.rev: Path(tmp) / "rev", "here": Path(tmp) / "here"}
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter where this Python has it (3.12, backports)
            tar.extractall(roots[args.rev], **(
                {"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        _copy_working_tree(roots["here"])
        for i in range(args.pairs):
            order = (args.rev, "here") if i % 2 == 0 else ("here", args.rev)
            for side in order:
                result = _run(roots[side], args)
                if result is None or not result["correct"] \
                        or result["failed"]:
                    print(f"pair {i + 1}, {side}: {result}")
                    return 1
                runs[side].append(result["metrics"])
                values = " ".join(f"{name} {m['value']:.6g}"
                                  for name, m in result["metrics"].items())
                print(f"pair {i + 1}, {side}: {values}", flush=True)
    print(f"{args.workload}, seed {args.seed}, --seconds {args.seconds:g}, "
          f"{args.pairs} pairs: median [quartiles] at {args.rev} -> here")
    for name, better in metrics.items():
        stats = compare([r[name]["value"] for r in runs[args.rev]],
                        [r[name]["value"] for r in runs["here"]], better)
        (r1, r2, r3), (h1, h2, h3) = stats["rev"], stats["here"]
        print(f"{name:12s} {r2:.6g} [{r1:.6g}-{r3:.6g}] -> "
              f"{h2:.6g} [{h1:.6g}-{h3:.6g}]  ratio {stats['ratio']:.3f}, "
              f"won {stats['won']}/{stats['pairs']} ({better} is better)"
              + (", gain" if stats["gain"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
