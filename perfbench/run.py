"""staticlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli --seed 0 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from its
`src/staticlab`, nothing is installed.  The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}`; the lines before it show
every metric by name, normalised next to raw.

With `--trace 0` the run reports the end-to-end metrics:

* `setup_s`: median of three fresh interpreters, each from start to the end
  of an untimed warm-up pass (`staticlab.cli --help` on `cli`);
* `pass_s`: time of one pass of the workload's op set, as the sum over its
  ops of each op's median time in the run;
* `op_s_p50`: the median of those per-op medians;
* `peak_rss_mb`: peak resident set of the process doing the work (the
  largest child on `cli`).

Every time above is normalised for the speed of the box at that moment,
which on a shared 2-vCPU box drifts by 20-50 % between processes and
within one.  In process, an interval timer takes a tiny fixed calibration
sample every few milliseconds while each op runs (see SampledTimer); on
`cli` and for `setup_s`, a child `python -c "import numpy"` runs before
and after each child that is timed (see ChildTimer).  Each time is scaled
by REF / (mean calibration time), REF being the calibration's median on
the reference box, so a normalised second is about a second there.  Raw
seconds are printed beside.

With `--trace 1` the run does one untraced and one traced pass and reports
the per-layer metrics (see tracing.py and README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import layers
from workloads import WORKLOADS, Outcome, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# calibration times on the reference box (2-vCPU Xeon, Python 3.11)
REF_SAMPLE_S = 1.5e-4
REF_CHILD_S = 0.2
SAMPLE_ITERS = 150
SAMPLE_EVERY_S = 0.005
SETUP_SAMPLES = 3


# --------------------------------------------------------------------------
# calibration

@dataclass(frozen=True)
class _Point:
    a: float
    b: float


def _kernel(x: float) -> tuple[float, float, float]:
    s = math.sqrt(1.0 + x * x)
    return s, x / s, -x / (s * s * s)


def speed_sample() -> float:
    """Wall time of a tiny fixed pure-Python loop shaped like the program's
    hot path: float maths, small tuples, frozen dataclasses."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(SAMPLE_ITERS):
        v, d1, d2 = _kernel(i * 1e-3)
        p = _Point(v, d1 + d2)
        acc += p.a - p.b
    return time.perf_counter() - start


class SampledTimer:
    """Times an in-process call and normalises it by the speed of the box
    during that call.

    While the call runs, an interval timer takes a `speed_sample` every
    SAMPLE_EVERY_S; one more is taken right before and right after.  The
    call's time, less the time spent sampling, is scaled by REF_SAMPLE_S /
    (mean sample time).  Unlike a calibration between calls, this follows
    the box when it slows down in the middle of a long call.
    """

    def __init__(self):
        self.count = 0
        self.sampled = 0.0      # total sample time
        self.overhead = 0.0     # total time spent in the signal handler

    def _on_alarm(self, *_):
        start = time.perf_counter()
        self.sampled += speed_sample()
        self.count += 1
        self.overhead += time.perf_counter() - start

    def time(self, fn):
        self.count, self.sampled = 1, speed_sample()
        overhead0 = self.overhead
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - (self.overhead - overhead0)
        self._on_alarm()
        return result, raw, raw * REF_SAMPLE_S * self.count / self.sampled


def calibrate_child(env: dict) -> float:
    """Wall time of a fresh interpreter importing numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - start


class ChildTimer:
    """Times a call that waits on a child process, normalised by the mean
    of the child calibrations right before and right after it."""

    def __init__(self, env: dict):
        self.env = env
        self.last = calibrate_child(env)

    def time(self, fn):
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        cal = calibrate_child(self.env)
        scale = REF_CHILD_S / (0.5 * (self.last + cal))
        self.last = cal
        return result, raw, raw * scale


# --------------------------------------------------------------------------
# runs

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def add(self, op, outcome) -> None:
        self.attempted += outcome.items
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        if outcome.note and len(self.notes) < 20:
            self.notes.append(f"{op.label}: {outcome.note}")


def run_op(op):
    try:
        return op.run()
    except Exception as exc:  # counted as failed, never hidden
        return Outcome(op.items, op.items, 0, f"{type(exc).__name__}: {exc}")


def setup_samples(workload, env: dict) -> tuple[list, list]:
    """(normalised, raw) wall times of fresh set-ups, each bracketed by
    child calibrations."""
    if workload.name == "cli":
        argv = [sys.executable, "-m", "staticlab.cli", "--help"]
    else:
        argv = [sys.executable, os.path.join(HERE, "probe.py"),
                workload.name, str(workload.seed)]
    timer = ChildTimer(env)
    norm, raw = [], []
    for _ in range(SETUP_SAMPLES):
        _, r, n = timer.time(lambda: subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
            timeout=170))
        norm.append(n)
        raw.append(r)
    return norm, raw


def timed_run(workload, seconds: float, env: dict) -> dict:
    setup_norm, setup_raw = setup_samples(workload, env)
    workload.warmup()
    timer = ChildTimer(env) if workload.name == "cli" else SampledTimer()
    tally = Tally()
    ops = workload.ops()
    norm = [[] for _ in ops]
    raw = [[] for _ in ops]
    passes = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for i, op in enumerate(ops):
            outcome, r, n = timer.time(lambda: run_op(op))
            tally.add(op, outcome)
            norm[i].append(n)
            raw[i].append(r)
        passes += 1
    med = statistics.median
    # per-op medians: robust to the box slowing down for part of the run
    op_norm = [med(v) for v in norm]
    op_raw = [med(v) for v in raw]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (med(setup_norm), "s", med(setup_raw)),
        "pass_s": (sum(op_norm), "s", sum(op_raw)),
        "op_s_p50": (med(op_norm), "s", med(op_raw)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB", None),
    }
    return {"tally": tally, "metrics": metrics, "passes": passes,
            "ops": passes * len(ops)}


def traced_run(workload, env: dict) -> dict:
    from tracing import Tracer, import_breakdown
    imports = import_breakdown(ROOT, env)
    workload.warmup()
    timer = SampledTimer()
    tally = Tally()

    def one_pass(tracer=None):
        total = 0.0
        for i, op in enumerate(workload.ops()):
            if tracer is not None:
                tracer.op_id = i
            outcome, _, norm = timer.time(lambda: run_op(op))
            tally.add(op, outcome)
            total += norm
        return total

    untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(
        out_dir, f"spans-{workload.name}-seed{workload.seed}.jsonl"))
    metrics = layers.per_layer(tracer, imports, traced / untraced)
    return {"tally": tally, "metrics": metrics, "passes": 2,
            "ops": 2 * len(workload.ops())}


# --------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "staticlab", "__init__.py")):
        print(f"error: no program to measure: {SRC}/staticlab is missing; "
              "run from the root of a staticlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import staticlab.cli  # noqa: F401
    if not os.path.abspath(staticlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported staticlab from {staticlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    env = child_env(ROOT)
    cls = WORKLOADS[args.workload]
    if args.trace:
        workload = cls(args.seed, ROOT, in_process=True) \
            if args.workload == "cli" else cls(args.seed, ROOT)
        result = traced_run(workload, env)
    else:
        workload = cls(args.seed, ROOT)
        result = timed_run(workload, args.seconds, env)
    report(workload, args, result)
    return 0


def report(workload, args, result) -> None:
    tally = result["tally"]
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} passes, {result['ops']} ops, "
          f"{tally.attempted} {workload.item}, {tally.failed} failed "
          f"(error_rate {tally.failed / max(tally.attempted, 1):.6g})")
    print(f"inputs {json.dumps(workload.inputs(), sort_keys=True)}")
    for note in tally.notes:
        print(f"failed: {note}")
    metrics = {}
    for name, (value, unit, raw) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
        side = f"   (raw {raw:.6g} s)" if raw is not None else ""
        print(f"{name:34s} {value:<14.6g} {unit}{side}")
    if not args.trace:
        for line in layers.headline_lines(workload, result):
            print(line)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
