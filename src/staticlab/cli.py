"""Command-line front end: curves, check suites, and parameter scans.

Output is deterministic for fixed flags: floats are printed at 12
significant digits, CSV rows and JSON keys are emitted in a canonical
order, files are UTF-8 with LF line endings.  Exit status is 2 on usage
errors, 1 when any check fails (an inapplicable check is not a failure),
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import conformal, identities, inequalities, levelset, odegen
from .geometry import StaticTriple, static_residual
from .models import by_name
from .report import IdentityReport, default_tolerance, identity_report


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, (np.floating,)):
        return format(float(x), ".12g")
    return str(x)


def _json_ready(obj):
    """Floats rounded to 12 significant digits, NaN and infinities as null,
    numpy booleans as booleans, so that json.dumps emits strict JSON under
    the float contract."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float(format(x, ".12g")) if math.isfinite(x) else None
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _dumps(payload) -> str:
    return json.dumps(_json_ready(payload), sort_keys=True, indent=2,
                      default=_fmt)


class UsageError(Exception):
    """Bad command-line input: one line on stderr and exit status 2."""


def _triple(model: str, n: int, m: float) -> StaticTriple:
    try:
        return by_name(model, n=n, m=m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _flags_str(flags: dict[str, bool]) -> str:
    return ";".join(f"{k}={str(v).lower()}" for k, v in sorted(flags.items()))


def _write_lines(path: Optional[str], lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'a:b:step' into an inclusive arange."""
    try:
        a, b, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid specification {spec!r}: {exc}") from None
    if not step > 0.0:
        raise UsageError(f"bad grid specification {spec!r}: step must be "
                         "positive")
    return np.arange(a, b + 0.5 * step, step)


# --------------------------------------------------------------------------
# check suites

def suite_static(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    pts = triple.interior_points(100)
    tensor = max(static_residual(triple, x)[0] for x in pts)
    laplace = max(static_residual(triple, x)[1] for x in pts)
    return [
        identity_report("static_tensor_residual", tensor, 0.0, tol,
                        description="field-equation tensor residual, max "
                                    "over 100 interior points"),
        identity_report("static_laplace_residual", laplace, 0.0, tol,
                        description="potential-equation residual, max over "
                                    "100 interior points"),
    ]


def suite_conformal(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    pts = conformal.sample_points_off_extremum(triple, 50)
    checks = [
        ("quasi_einstein_residual", conformal.quasi_einstein_residual),
        ("bochner_residual", conformal.bochner_residual),
        ("w_equation_residual", conformal.w_equation_residual),
        ("trace_identity_residual", conformal.trace_identity_residual),
    ]
    out = [identity_report(name, max(fn(triple, x) for x in pts), 0.0, tol,
                           description=f"{name} max over interior sample")
           for name, fn in checks]
    mc = max(conformal.mean_curvature_relations(triple, x).abs_residual
             for x in pts)
    out.append(identity_report("mean_curvature_relation", mc, 0.0, tol,
                               description="conformal vs warped mean "
                                           "curvature, max over sample"))
    return out


def _slab_params(triple: StaticTriple) -> tuple[float, float, Optional[str]]:
    branch = "outer" if len(triple.branches()) == 2 else None
    return 0.5, 2.5, branch


def suite_identities(triple: StaticTriple, tol: float) -> list[IdentityReport]:
    s, big_s, branch = _slab_params(triple)
    out = [
        identities.first_identity(triple, 1, s, big_s, branch, tolerance=tol),
        identities.first_identity(triple, 3, s, big_s, branch, tolerance=tol),
        identities.second_identity(triple, 3, s, big_s, branch, tolerance=tol),
        identities.second_identity(triple, 5, s, big_s, branch, tolerance=tol),
    ]
    t0 = 0.3 if triple.lambda_sign > 0 else 2.0
    out.append(identities.curvature_deficit_identity(triple, t0, tolerance=tol))
    out.append(identities.boundary_curvature_inequality(triple))
    return out


def suite_inequalities(triple: StaticTriple, tol: float) -> list[IdentityReport]:
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
    out = []
    for p in range(1, triple.n):
        res = levelset.liminf_check(triple, p)
        if res.status != "ok":
            out.append(IdentityReport(
                name=f"liminf(p={p})", lhs=math.nan, rhs=math.nan,
                abs_residual=math.nan, rel_residual=math.nan,
                tolerance=tol, passed=False, status="inapplicable",
                assumption_status=levelset.assumption_flags(triple),
                description="limit of the level integral at the extremal "
                            "value",
                extra={"reason": res.status}))
        else:
            out.append(identity_report(
                f"liminf(p={p})", res.limit, res.reference, tol,
                assumptions=levelset.assumption_flags(triple),
                description="limit of the level integral at the extremal "
                            "value vs extremal count"))
    return out


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
    rows = []
    for name in ("desitter", "antidesitter", "sds", "nariai"):
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
    print(_dumps(rows))
    return 0


def _resolve_branch(triple: StaticTriple, branch: Optional[str]):
    if branch is not None:
        return branch
    return "outer" if len(triple.branches()) == 2 else None


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise UsageError(f"--steps must be at least 1, got {steps}")


def _check_level(tr: StaticTriple, branch: Optional[str], flag: str,
                 value: float, t: float) -> None:
    """Refuse an end level that level location cannot resolve, or the
    extremal value 1, where U_p and Phi_p are singular."""
    if t != 1.0:
        try:
            levelset.level_radii(tr, t, branch)
            return
        except ValueError:
            pass
    raise UsageError(f"{flag} {value:g}: level t={t:.12g} is outside the "
                     "range of u (its extremal value 1 excluded)")


def _curve_command(args, curve_fn, ends, to_level) -> int:
    """Shared body of the two curve commands; `ends` holds the two
    (flag, value) grid ends and `to_level(triple, value)` gives the level
    t of a grid value."""
    _check_steps(args.steps)
    tr = _triple(args.model, args.n, args.m)
    branch = _resolve_branch(tr, args.branch)
    for flag, value in ends:
        _check_level(tr, branch, flag, value, to_level(tr, value))
    grid = np.linspace(ends[0][1], ends[1][1], args.steps)
    curve = curve_fn(tr, args.p, grid, branch=branch)
    flags = _flags_str(levelset.assumption_flags(tr))
    lines = ["level,value,d_analytic,d_numeric,assumption_flags"]
    for i, x in enumerate(curve.grid):
        d_ana = curve.d_analytic[i] if curve.d_analytic is not None else math.nan
        lines.append(",".join([_fmt(float(x)), _fmt(float(curve.values[i])),
                               _fmt(float(d_ana)),
                               _fmt(float(curve.d_numeric[i])), flags]))
    _write_lines(args.out, lines)
    return 0


def cmd_up_curve(args) -> int:
    return _curve_command(args, levelset.up_curve,
                          (("--t0", args.t0), ("--t1", args.t1)),
                          lambda tr, t: t)


def cmd_phi_curve(args) -> int:
    ends = (("--s0", args.s0), ("--s1", args.s1))
    for flag, s in ends:
        if not s > 0.0:
            raise UsageError(f"{flag} must be positive, got {s:g}")
    return _curve_command(args, levelset.phi_curve, ends,
                          lambda tr, s: levelset.t_of_s(s, tr.lambda_sign))


def cmd_check(args) -> int:
    tr = _triple(args.model, args.n, args.m)
    try:
        tol = default_tolerance(1e-6)
    except ValueError as exc:
        raise UsageError(f"STATICLAB_TOL: {exc}") from None
    reports = SUITES[args.suite](tr, tol)
    payload = {
        "model": args.model,
        "n": args.n,
        "suite": args.suite,
        "checks": [r.as_dict() for r in reports],
    }
    text = _dumps(payload)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 1 if any(r.status == "fail" for r in reports) else 0


def cmd_scan_sds(args) -> int:
    lines = ["m,r1,r2,kappa1,kappa2"]
    ok = True
    for m in _parse_grid(args.m_grid):
        tr = _triple("sds", args.n, float(m))
        (b1, b2) = sorted(tr.boundaries, key=lambda b: b.location)
        lines.append(",".join(_fmt(v) for v in (
            float(m), b1.location, b2.location,
            b1.surface_gravity, b2.surface_gravity)))
        if args.emit == "kappa" and b1.surface_gravity <= 1.0:
            ok = False
    _write_lines(args.out, lines)
    return 0 if ok else 1


def cmd_shoot(args) -> int:
    _check_steps(args.steps)
    data = odegen.HorizonData(n=args.n, lambda_sign=+1, h0=args.h0,
                              kappa=args.kappa)
    tr = odegen.shoot_from_horizon(data)
    system = odegen.reduce_system(args.n, +1)
    lines = ["rho,h,u,dh,du,monitor"]
    for rho in np.linspace(tr.domain[0] + 1e-6, tr.domain[1] - 1e-6,
                           args.steps):
        h, dh, _ = tr.h(rho)
        u, du, _ = tr.u(rho)
        mon = system.monitor(np.array([h, dh, u, du]))
        lines.append(",".join(_fmt(v) for v in (rho, h, u, dh, du, mon)))
    _write_lines(args.out, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staticlab",
        description="level-set checks for static metrics with cosmological "
                    "constant")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", required=True,
                       choices=["desitter", "antidesitter", "sds", "nariai"])
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--m", type=float, default=0.1)

    p = sub.add_parser("models", help="list the built-in solution families")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=float, default=0.1)
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("up-curve", help="sample a level integral curve in t")
    add_model_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--branch", choices=["inner", "outer"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_up_curve)

    p = sub.add_parser("phi-curve", help="sample the conformal curve in s")
    add_model_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--branch", choices=["inner", "outer"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phi_curve)

    p = sub.add_parser("check", help="run a verification suite")
    add_model_flags(p)
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan-sds", help="horizon data over a mass grid")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m-grid", required=True,
                   help="mass grid as start:stop:step")
    p.add_argument("--emit", choices=["kappa"], default="kappa")
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
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"staticlab {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
