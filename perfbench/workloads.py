"""The benchmark's four workloads, their seeded inputs and their oracles.

A workload is a fixed list of operations ("ops") that make up one pass.
Every op runs the program, checks what it produced and returns an
`Outcome`: how many output items it made (commands, curve rows, reports,
conversions or shots) and how many of them broke the documented contract
or an oracle.  A broken contract is counted, never worked around.

Seed 0 reproduces the canonical grids; any other seed draws the SdS
masses, curve end points and shoot radii from stratified intervals around
them, so the amount of work per pass stays nearly the same across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

CURVE_HEADER = "level,value,d_analytic,d_numeric,assumption_flags"
CSV_HEADERS = {
    "up-curve": CURVE_HEADER,
    "phi-curve": CURVE_HEADER,
    "scan-sds": "m,r1,r2,kappa1,kappa2",
    "shoot": "rho,h,u,dh,du,monitor",
}
MODELS = ("desitter", "antidesitter", "sds", "nariai")
SUITES = ("static", "conformal", "identities", "inequalities", "liminf")

# oracle tolerances, each well above the error measured when they were set
ROUND_U3_REL = 1e-9          # U_3 = 4 pi on the round models (seen 6.5e-15)
CURVE_DERIV_REL = 1e-6       # |d_analytic - d_numeric| (seen 6.8e-9)
SHOOT_DRIFT = 1e-8           # monitor_drift of a shot (seen 1.2e-10)
SHOOT_KAPPA = 1e-6           # normalised surface gravity at h0 = 1
ARCLENGTH_ABS = 1e-8         # rho(r) = asinh(r) - asinh(a) on AdS (seen 1e-13)

CURVES_STEPS = 1000
WARMUP_STEPS = 5


@dataclass
class Outcome:
    """Items an op produced; `failed` broke the output contract or an
    oracle, `wrong` (a subset) carry values that an oracle rejects."""

    items: int
    failed: int
    wrong: int = 0
    note: str = ""


@dataclass
class Op:
    label: str
    items: int
    run: Callable[[], Outcome]


def mass_bound(n: int) -> float:
    """Upper end of the SdS mass draws: 0.9 of the admissible bound."""
    from staticlab.models import admissible_mass_bound
    return 0.9 * admissible_mass_bound(n)


# Lower end of the SdS mass draws.  Below it, at n = 3, the conformal
# suite (`check --suite conformal`, `cli.suite_conformal`) fails its own
# 1e-6 tolerance: the bochner/w-equation residuals grow as the mass falls
# (about 3e-7 at m = 0.03, 1.0e-6 at m = 0.02).  That is an accuracy limit
# of the program, reproduced by
#   python -m staticlab.cli check --model sds --n 3 --m 0.02 --suite conformal
# and left for the program to fix; at 0.04 the largest residual is 5.5e-8.
MASS_FLOOR = 0.04


class Draw:
    """Seeded draws; seed 0 returns the canonical value of every draw."""

    def __init__(self, seed: int):
        self.canonical = seed == 0
        self.rng = random.Random(seed)

    def mass(self, n: int, canonical: float, stratum: int = 0,
             strata: int = 1) -> float:
        if self.canonical:
            return canonical
        lo, hi = MASS_FLOOR, mass_bound(n)
        width = (hi - lo) / strata
        return self.rng.uniform(lo + stratum * width, lo + (stratum + 1) * width)

    def near(self, canonical: float, lo: float, hi: float) -> float:
        return canonical if self.canonical else self.rng.uniform(lo, hi)


def _g(x: float) -> str:
    return format(x, ".12g")


# --------------------------------------------------------------------------
# output contract of the command line

def _strict_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def check_cli_output(argv: list[str], code: int, stdout: str) -> Outcome:
    """Check one command against the documented contract: strict JSON (no
    NaN/Infinity) or CSV with the documented header, no check reporting
    "fail", and the exit status that goes with the output."""
    command = argv[0]
    if command in CSV_HEADERS:
        why = _csv_violation(command, stdout)
    else:
        why, wrong = _json_violation(command, stdout)
        if wrong:
            return Outcome(1, 1, 1, why)
    if not why and code != 0:
        why = f"exit status {code}"
    return Outcome(1, 1 if why else 0, 0, why)


def _csv_violation(command: str, text: str) -> str:
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != CSV_HEADERS[command]:
        return "bad CSV header or line ending"
    width = CSV_HEADERS[command].count(",") + 1
    numeric = width - 1 if command in ("up-curve", "phi-curve") else width
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != width:
            return "bad CSV row width"
        try:
            if not all(math.isfinite(float(c)) for c in cells[:numeric]):
                return "non-finite CSV value"
        except ValueError:
            return "unparsable CSV value"
    return ""


def _json_violation(command: str, text: str) -> tuple[str, bool]:
    """(contract violation or "", whether a check reports fail)."""
    why = ""
    try:
        payload = json.loads(text, parse_constant=_strict_constant)
    except ValueError as exc:
        why = f"invalid JSON: {exc}"
        try:  # only to see whether a check failed; the output stays invalid
            payload = json.loads(text)
        except ValueError:
            return why, False
    if command == "check" and any(c.get("status") == "fail"
                                  for c in payload["checks"]):
        return "a check reports fail", True
    return why, False


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """Run `staticlab.cli.main(argv)`, returning (exit code, stdout)."""
    from staticlab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a broken contract
            return 1, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


# --------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    item = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.draw = Draw(seed)

    def inputs(self) -> dict:
        """The seeded inputs, for the record."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        """A reduced pass over every code path, so that lazy set-up is done
        before timing starts."""
        raise NotImplementedError


class Cli(Workload):
    """The ROADMAP command set as separate commands: 4 models x 5 suites of
    `check`, plus `scan-sds`, `shoot` and `models`."""

    name = "cli"
    item = "commands"

    def __init__(self, seed: int, root: str, in_process: bool = False):
        super().__init__(seed, root)
        self.in_process = in_process
        self.mass = self.draw.mass(3, 0.1)
        self.argvs = [["check", "--model", model, "--n", "3",
                       "--m", _g(self.mass), "--suite", suite]
                      for model in MODELS for suite in SUITES]
        self.argvs += [
            ["scan-sds", "--n", "3", "--m-grid", "0.01:0.19:0.01"],
            ["shoot", "--n", "3", "--h0", "1", "--kappa", "1"],
            ["models", "--n", "3", "--m", _g(self.mass)],
        ]

    def inputs(self) -> dict:
        return {"sds_mass": self.mass, "commands": len(self.argvs)}

    def _run(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            return run_cli_in_process(argv)
        proc = subprocess.run([sys.executable, "-m", "staticlab.cli", *argv],
                              cwd=self.root, env=child_env(self.root),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def _op(self, argv: list[str]) -> Op:
        def run() -> Outcome:
            return check_cli_output(argv, *self._run(argv))
        return Op(" ".join(argv), 1, run)

    def ops(self) -> list[Op]:
        return [self._op(a) for a in self.argvs]

    def warmup(self) -> None:
        if self.in_process:
            run_cli_in_process(["models", "--n", "3"])


class Curves(Workload):
    """`up-curve` and `phi-curve` at 1000 steps, in process through
    `cli.main`, written to files and read back."""

    name = "curves"
    item = "rows"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        d = self.draw
        self.mass = d.mass(3, 0.1)

        def ends(lo: float, hi: float) -> tuple[float, float]:
            pad = 0.05 * (hi - lo)
            return d.near(lo, lo, lo + pad), d.near(hi, hi - pad, hi)

        self.specs = [
            ("up-curve", "desitter", *ends(0.0, 0.99)),
            ("up-curve", "antidesitter", *ends(1.01, 20.0)),
            ("up-curve", "sds", *ends(0.05, 0.95)),
            ("up-curve", "nariai", *ends(0.05, 0.95)),
            ("phi-curve", "desitter", *ends(0.1, 2.5)),
            ("phi-curve", "sds", *ends(0.1, 2.5)),
        ]
        self.out_dir = os.path.join(root, ".bench_out", "tmp")

    def inputs(self) -> dict:
        return {"sds_mass": self.mass, "curves": [list(s) for s in self.specs],
                "steps": CURVES_STEPS}

    def _argv(self, spec, steps: int, path: str) -> list[str]:
        command, model, a, b = spec
        lo, hi = ("--t0", "--t1") if command == "up-curve" else ("--s0", "--s1")
        return [command, "--model", model, "--n", "3", "--m", _g(self.mass),
                "--p", "3", lo, _g(a), hi, _g(b), "--steps", str(steps),
                "--out", path]

    def _op(self, index: int, spec, steps: int) -> Op:
        path = os.path.join(self.out_dir, f"curve{index}.csv")
        argv = self._argv(spec, steps, path)

        def run() -> Outcome:
            code, _ = run_cli_in_process(argv)
            try:
                with open(path, encoding="utf-8", newline="") as fh:
                    text = fh.read()
            except OSError:
                return Outcome(steps, steps, 0, "no output file")
            contract = check_cli_output(argv, code, text)
            if contract.failed:
                return Outcome(steps, steps, 0, contract.note)
            bad = _bad_curve_rows(text, round_model=(
                spec[0] == "up-curve" and spec[1] in ("desitter", "antidesitter")))
            return Outcome(steps, bad, bad, f"{bad} rows fail an oracle" if bad else "")
        return Op(f"{spec[0]} {spec[1]}", steps, run)

    def ops(self) -> list[Op]:
        os.makedirs(self.out_dir, exist_ok=True)
        return [self._op(i, s, CURVES_STEPS) for i, s in enumerate(self.specs)]

    def warmup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        for i, s in enumerate(self.specs):
            self._op(i, s, WARMUP_STEPS).run()


def _bad_curve_rows(text: str, round_model: bool) -> int:
    """Rows whose derivative columns disagree, or, on a round model, whose
    U_3 value is not 4 pi."""
    bad = 0
    four_pi = 4.0 * math.pi
    for line in text.split("\n")[1:-1]:
        _, value, d_ana, d_num, _ = line.split(",")
        d_ana, d_num = float(d_ana), float(d_num)
        ok = abs(d_ana - d_num) <= CURVE_DERIV_REL * max(1.0, abs(d_ana))
        if round_model:
            ok = ok and abs(float(value) - four_pi) <= ROUND_U3_REL * four_pi
        bad += not ok
    return bad


SLABS = ((0.3, 1.5), (0.5, 2.5), (0.8, 3.0))


class Identities(Workload):
    """Integral identities on three conformal slabs, the curvature-deficit
    identity at two levels and the conformal suite, for every model and
    n in {3, 4, 5}.  One op is one (model, n) pair."""

    name = "identities"
    item = "reports"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.masses = {n: self.draw.mass(n, 0.1 if n == 3 else 0.05)
                       for n in (3, 4, 5)}

    def inputs(self) -> dict:
        return {"sds_mass": {str(n): m for n, m in self.masses.items()},
                "slabs": [list(s) for s in SLABS]}

    def _op(self, model: str, n: int, slabs) -> Op:
        def run() -> Outcome:
            from staticlab import cli, identities
            from staticlab.models import by_name
            tr = by_name(model, n=n, m=self.masses[n])
            branch = "outer" if len(tr.branches()) == 2 else None
            reports = []
            for s, big_s in slabs:
                for p in (1, 3):
                    reports.append(identities.first_identity(
                        tr, p, s, big_s, branch))
                for p in (3, 5):
                    reports.append(identities.second_identity(
                        tr, p, s, big_s, branch))
            for t in ((0.3, 0.6) if tr.lambda_sign > 0 else (2.0, 4.0)):
                reports.append(identities.curvature_deficit_identity(tr, t))
            reports += cli.suite_conformal(tr, 1e-6)
            bad = sum(r.status == "fail" for r in reports)
            return Outcome(len(reports), bad, bad, f"{bad} reports fail" if bad else "")
        return Op(f"{model} n={n}", 4 * len(slabs) + 7, run)

    def ops(self) -> list[Op]:
        return [self._op(m, n, SLABS) for m in MODELS for n in (3, 4, 5)]

    def warmup(self) -> None:
        for m in MODELS:
            self._op(m, 3, SLABS[:1]).run()


class Reconstruct(Workload):
    """Areal-to-arclength conversion of SdS at three masses and of AdS, and
    horizon shooting at five radii, each shot followed by `monitor_drift`."""

    name = "reconstruct"
    item = "operations"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.masses = [self.draw.mass(3, m, i, 3)
                       for i, m in enumerate((0.05, 0.10, 0.15))]
        self.radii = [self.draw.near(h, h - 0.05, h + 0.05)
                      for h in (0.6, 0.7, 0.8, 0.9)] + [1.0]

    def inputs(self) -> dict:
        return {"sds_mass": self.masses, "h0": self.radii}

    @staticmethod
    def _convert_sds(m: float, samples: int) -> Op:
        def run() -> Outcome:
            from staticlab import geometry, models
            tr = models.schwarzschild_de_sitter(models.SdSParams(n=3, m=m))
            conv, rho_of_r = geometry.to_arclength(tr, samples=samples)
            lo, hi = tr.domain
            ok = all(math.isfinite(conv.u.value(rho_of_r(lo + f * (hi - lo))))
                     for f in (0.1, 0.5, 0.9))
            return _verdict(ok, "non-finite profile")
        return Op(f"to_arclength sds m={_g(m)}", 1, run)

    @staticmethod
    def _convert_ads(samples: int) -> Op:
        def run() -> Outcome:
            from staticlab import geometry, models
            tr = models.anti_de_sitter(3)
            _, rho_of_r = geometry.to_arclength(tr, samples=samples)
            lo, hi = tr.domain
            a = lo + 1e-4 * (hi - lo)
            err = max(abs(rho_of_r(r) - (math.asinh(r) - math.asinh(a)))
                      for r in (a + 0.5, 10.0, 100.0, 400.0))
            ok = err <= ARCLENGTH_ABS
            return _verdict(ok, f"rho error {err:.3g}")
        return Op("to_arclength ads", 1, run)

    @staticmethod
    def _shoot(h0: float) -> Op:
        def run() -> Outcome:
            from staticlab import odegen
            data = odegen.HorizonData(n=3, lambda_sign=+1, h0=h0, kappa=1.0)
            tr = odegen.shoot_from_horizon(data)
            drift = odegen.monitor_drift(tr, odegen.reduce_system(3, +1))
            ok = drift <= SHOOT_DRIFT
            if h0 == 1.0:
                kappa = tr.boundaries[0].surface_gravity
                ok = ok and abs(kappa - 1.0) <= SHOOT_KAPPA
            return _verdict(ok, f"drift {drift:.3g}")
        return Op(f"shoot h0={_g(h0)}", 1, run)

    def ops(self) -> list[Op]:
        samples = 8000  # the to_arclength default
        return ([self._convert_sds(m, samples) for m in self.masses]
                + [self._convert_ads(samples)]
                + [self._shoot(h) for h in self.radii])

    def warmup(self) -> None:
        for op in [self._convert_sds(self.masses[0], 200), self._shoot(1.0)]:
            op.run()


def _verdict(ok: bool, why: str) -> Outcome:
    return Outcome(1, 0, 0) if ok else Outcome(1, 1, 1, why)


WORKLOADS = {w.name: w for w in (Cli, Curves, Identities, Reconstruct)}


def child_env(root: str) -> dict:
    """Environment for a child interpreter that imports the checkout's
    `src/staticlab` ahead of anything installed."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
