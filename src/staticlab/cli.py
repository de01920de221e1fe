"""Command-line front end: curves, check suites, and parameter scans.

Output is deterministic for fixed flags: floats are printed at 12
significant digits, CSV rows and JSON keys are emitted in a canonical
order, files are UTF-8 with LF line endings.  Exit status is 2 on usage
errors and on shots that cannot be integrated, close at a singular pole
or span 2e-6 or less (rows keep 1e-6 from each end), 1 when a check fails
(an inapplicable one does not), a shot's monitor drift exceeds
odegen.DRIFT_TOL or a scanned inner horizon has gravity at most 1, else 0.

A curve row is a row of levelset's curve and the assumption flags:
`d_analytic` is the derivative through the field equations (p >= 3, else
nan), `d_numeric` the one along the level flow, which uses no field
equation.  A curve end is refused with the ValueError of levelset's curve
on it, after its flag.  Every command writes once, through `_write`, after
its output is computed and one line at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional

from .geometry import StaticTriple, linspace, static_residual
from .models import by_name
from .report import IDENTITY_TOL, IdentityReport, identity_report

# Every other staticlab module is imported by the function that reads it:
# each command runs in a process of its own, so it compiles only those.

MODELS = ("desitter", "antidesitter", "sds", "nariai")  # names for by_name
# most rows of a curve, scan or shot; a 10^6-row up-curve takes 18 s and
# peaks at 240 MB resident (its rows) on a 2-vCPU box with Python 3.11
MAX_ROWS = 10 ** 6


def _json_ready(obj):
    """Floats rounded to 12 significant digits, NaN and infinities as null,
    so that json.dumps emits strict JSON under the float contract."""
    if isinstance(obj, float):
        return float(format(obj, ".12g")) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _dumps(payload) -> str:
    return json.dumps(_json_ready(payload), sort_keys=True, indent=2)


class UsageError(Exception):
    """Bad command-line input: one line on stderr and exit status 2."""


def _triple(model: str, n: int, m: float) -> StaticTriple:
    try:
        return by_name(model, n=n, m=m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write(path: Optional[str], lines: Iterable[str]) -> None:
    """Each of `lines` and a newline, to stdout or to the file `path`
    opened only now; an --out that cannot be written is a usage error."""
    ended = (line + "\n" for line in lines)
    if path is None:
        sys.stdout.writelines(ended)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(ended)
    except OSError as exc:
        raise UsageError(
            f"cannot write --out {path}: {exc.strerror}") from None


def _csv(header: str, line: str, rows: Iterable[tuple]) -> Iterator[str]:
    """`header`, then each of `rows` as the line `line % row`, formatted
    only when the writer reaches it; a float field is "%.12g", 12
    significant digits as in the JSON output."""
    yield header
    for row in rows:
        yield line % row


def _parse_grid(spec: str) -> list[float]:
    """Parse 'a:b:step' into an inclusive grid, bit for bit the floats of
    numpy.arange(a, b + step/2, step): a, a + step, then a + i*d for
    d = (a + step) - a."""
    try:
        a, b, step = (float(tok) for tok in spec.split(":"))
        if not step > 0.0:
            raise ValueError("step must be positive")
        count = max(0, math.ceil((b + 0.5 * step - a) / step))
        if count > MAX_ROWS:
            raise ValueError(f"more than {MAX_ROWS} points")
    except (OverflowError, ValueError) as exc:
        raise UsageError(f"bad grid specification {spec!r}: {exc}") from None
    d = (a + step) - a
    return [a, a + step][:count] + [a + i * d for i in range(2, count)]


# --------------------------------------------------------------------------
# check suites

def suite_static(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    pts = triple.interior_points(100)
    tensor, laplace = map(max, zip(*(static_residual(triple, x) for x in pts)))
    return [
        identity_report("static_tensor_residual", tensor, 0.0, tol,
                        description="field-equation tensor residual, max "
                                    "over 100 interior points"),
        identity_report("static_laplace_residual", laplace, 0.0, tol,
                        description="potential-equation residual, max over "
                                    "100 interior points"),
    ]


def suite_conformal(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    from . import conformal
    # one record per sample point, read by all five residuals
    records = [conformal.sphere_data(triple, x)
               for x in conformal.sample_points_off_extremum(triple, 50)]
    checks = [  # (name, residual, description if not the default)
        ("quasi_einstein_residual", conformal.quasi_einstein_residual, None),
        ("bochner_residual", conformal.bochner_residual, None),
        ("w_equation_residual", conformal.w_equation_residual, None),
        ("trace_identity_residual", conformal.trace_identity_residual, None),
        ("mean_curvature_relation", conformal.mean_curvature_relations,
         "conformal vs warped mean curvature, max over sample"),
    ]
    return [identity_report(name, max(fn(sp) for sp in records), 0.0, tol,
                            description=about
                            or f"{name} max over interior sample")
            for name, fn, about in checks]


def suite_identities(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    from . import identities
    view = _on_branch(triple, None)  # a slab must meet one branch
    s, big_s = 0.5, 2.5
    out = [
        identities.first_identity(view, 1, s, big_s),
        identities.first_identity(view, 3, s, big_s),
        identities.second_identity(view, 3, s, big_s),
        identities.second_identity(view, 5, s, big_s),
    ]
    t0 = 0.3 if triple.lambda_sign > 0 else 2.0
    out.append(identities.curvature_deficit_identity(triple, t0))
    out.append(identities.boundary_curvature_inequality(triple))
    return out


def suite_inequalities(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    from . import inequalities
    t0 = 0.5 if triple.lambda_sign > 0 else 2.0
    p_glob = 1 if triple.n == 3 else 3
    return [
        inequalities.gradient_bound(triple),
        inequalities.area_bound(triple),
        inequalities.willmore_bound(triple),
        inequalities.scalar_average_bound(triple),
        inequalities.lp_gradient_bound(triple, 3, t0),
        inequalities.overdetermined_condition(triple, t0),
        inequalities.n3_uniqueness_inequality(triple),
        inequalities.mon_glob_bound(triple, p_glob),
    ]


def suite_liminf(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    from . import levelset
    return [levelset.liminf_check(triple, p) for p in range(1, triple.n)]


# Every suite takes (triple, tol), as `cmd_check` and perfbench/workloads.py
# call them; only `suite_static` and `suite_conformal` read `tol`, and the
# library checks of the other three judge at their own fixed tolerances.
SUITES = {
    "static": suite_static,
    "conformal": suite_conformal,
    "identities": suite_identities,
    "inequalities": suite_inequalities,
    "liminf": suite_liminf,
}


# --------------------------------------------------------------------------
# subcommands

def cmd_models(args) -> int:
    from . import levelset
    rows = []
    for name in MODELS:
        tr = _triple(name, args.n, args.m)
        rows.append({
            "model": name,
            "name": tr.name,
            "chart": tr.chart,
            "domain": list(tr.domain),
            "boundaries": [
                {"location": b.location, "sphere_radius": b.sphere_radius,
                 "surface_gravity": b.surface_gravity} for b in tr.boundaries],
            "extremum_discrete": tr.extremum.discrete,
            "assumption_flags": levelset.assumption_flags(tr),
        })
    _write(None, [_dumps(rows)])
    return 0


def _on_branch(triple: StaticTriple, branch: Optional[str]) -> StaticTriple:
    """The triple on `branch`; by default on its outer branch where it has
    two, and whole where it has one."""
    if branch is None and len(triple.branches()) == 2:
        branch = "outer"
    return triple if branch is None else triple.on_branch(branch)


def _check_rows(what: str, count: int) -> None:
    """Every command prints from 1 to MAX_ROWS rows, checked before any row
    is built (`_parse_grid` checks its count before it builds the grid)."""
    if not 1 <= count <= MAX_ROWS:
        bound = "at least 1" if count < 1 else f"at most {MAX_ROWS}"
        raise UsageError(f"{what} must be {bound}, got {count}")


def _curve_command(args, curve_fn) -> int:
    """Shared body of the two curve commands, on the grid between the flags
    `args.ends`, each end first taken alone: a level the curve refuses is
    named by its flag even where the grid never reaches it (--steps 1),
    and a level between them, which can fail alone, by the curve."""
    from . import levelset
    _check_rows("--steps", args.steps)
    tr = _on_branch(_triple(args.model, args.n, args.m), args.branch)
    ends = [getattr(args, flag[2:]) for flag in args.ends]
    probes = [(f"{flag} {v:.12g}: ", [v]) for flag, v in zip(args.ends, ends)]
    for prefix, grid in probes + [("", linspace(*ends, args.steps))]:
        try:
            rows = curve_fn(tr, args.p, grid)
        except ValueError as exc:
            raise UsageError(f"{prefix}{exc}") from None
    flags = ";".join(f"{k}={str(v).lower()}" for k, v
                     in sorted(levelset.assumption_flags(tr).items()))
    _write(args.out, _csv("level,value,d_analytic,d_numeric,assumption_flags",
                          "%.12g,%.12g,%.12g,%.12g,%s",
                          ((*row, flags) for row in rows)))
    return 0


def cmd_up_curve(args) -> int:
    from . import levelset
    return _curve_command(args, levelset.up_curve)


def cmd_phi_curve(args) -> int:
    from . import levelset
    return _curve_command(args, levelset.phi_curve)


def cmd_check(args) -> int:
    tr = _triple(args.model, args.n, args.m)
    reports = SUITES[args.suite](tr, IDENTITY_TOL)
    payload = {
        "model": args.model,
        "n": args.n,
        "suite": args.suite,
        "checks": [r.as_dict() for r in reports],
    }
    _write(args.out, [_dumps(payload)])
    return 1 if any(r.status == "fail" for r in reports) else 0


def cmd_scan_sds(args) -> int:
    grid = _parse_grid(args.m_grid)
    _check_rows(f"the mass count of --m-grid {args.m_grid}", len(grid))
    horizons = [_triple("sds", args.n, m).horizons() for m in grid]
    _write(args.out, _csv("m,r1,r2,kappa1,kappa2", ",".join(["%.12g"] * 5), (
        (m, b1.location, b2.location, b1.surface_gravity, b2.surface_gravity)
        for m, (b1, b2) in zip(grid, horizons))))
    return 1 if any(b1.surface_gravity <= 1.0 for b1, _ in horizons) else 0


def cmd_shoot(args) -> int:
    from . import odegen
    _check_rows("--steps", args.steps)
    try:
        tr = odegen.shoot_from_horizon(odegen.HorizonData(
            n=args.n, lambda_sign=+1, h0=args.h0, kappa=args.kappa))
    except (ValueError, RuntimeError) as exc:
        raise UsageError(str(exc)) from None
    lo, hi = tr.domain
    if not hi - lo > 2e-6:  # the rows keep 1e-6 from each end
        raise UsageError(f"the shot's arclength {hi - lo:g} is not above "
                         "the 2e-06 that its rows keep from its ends")
    system = odegen.reduce_system(args.n, +1)

    def row(rho: float) -> tuple[float, ...]:
        (h, dh, _), (u, du, _) = tr.h(rho), tr.u(rho)
        return rho, h, u, dh, du, system.monitor((h, dh, u, du))
    _write(args.out, _csv("rho,h,u,dh,du,monitor", ",".join(["%.12g"] * 6),
                          map(row, linspace(lo + 1e-6, hi - 1e-6,
                                            args.steps))))
    drift = odegen.monitor_drift(tr, system)
    if not drift <= odegen.DRIFT_TOL:
        sys.stderr.write(f"staticlab shoot: monitor drift {drift:.12g} "
                         f"exceeds {odegen.DRIFT_TOL:g}\n")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staticlab",
        description="level-set checks for static metrics with cosmological "
                    "constant")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", required=True, choices=MODELS)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--m", type=float, default=0.1)

    p = sub.add_parser("models", help="list the built-in solution families")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=float, default=0.1)
    p.set_defaults(func=cmd_models)

    for name, about, ends, func in (
            ("up-curve", "sample a level integral curve in t",
             ("--t0", "--t1"), cmd_up_curve),
            ("phi-curve", "sample the conformal curve in s",
             ("--s0", "--s1"), cmd_phi_curve)):
        p = sub.add_parser(name, help=about)
        add_model_flags(p)
        for flag in ("--p", *ends):
            p.add_argument(flag, type=float, required=True)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--branch", choices=["inner", "outer"], default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func, ends=ends)

    p = sub.add_parser("check", help="run a verification suite")
    add_model_flags(p)
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan-sds", help="horizon data over a mass grid")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m-grid", required=True,
                   help="mass grid as start:stop:step")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan_sds)

    p = sub.add_parser("shoot", help="integrate outward from horizon data")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--h0", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shoot)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except UsageError as exc:
        sys.stderr.write(f"staticlab {args.command}: error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader went away (`| head`): stdout to devnull, so that the
        # flush at exit does not raise again; 1 as Python exits on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
