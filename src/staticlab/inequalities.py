"""Sharp geometric and analytic inequalities with their rigidity cases.

Every checker evaluates both sides numerically and gates its verdict on the
structural hypotheses the triple satisfies (normalised potential, surface
gravity at most one / vanishing boundary gradient limit, discrete extremal
set).  The two-horizon and product families violate those hypotheses by
construction, so for them the checks report "inapplicable" with the raw
numbers kept -- they are counterexample material, not failures.  A check
refused on a non-discrete extremal set, which has no count to weigh, prints
the right side it computed in `rhs` and `extra["rhs"]`; the five
extremal-count checks build that refusal and their verdict in `_count_report`.

In each inequality the left side equals the right exactly on the round
model (the hemisphere for positive constant, hyperbolic space for
negative), and the `equality` flag certifies that rigidity numerically.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .geometry import (
    StaticTriple,
    boundary_scalar_curvature,
    check_window,
    sphere_area_from_log,
    unit_sphere_area,
)
from .levelset import (
    assumption_flags,
    assumptions_hold,
    conformal_boundary_data,
    horizon_integral,
    level_states,
    up_value,
)
from .models import bracketed_root
from .report import (INEQ_TOL, _NON_DISCRETE, IdentityReport, Refused,
                     identity_report, inequality_report, refusal_report)

GRADIENT_SAMPLES = 400  # interior points gradient_bound checks
GRAD_TOL = 1e-10   # tolerance of gradient_bound, which is pointwise


def gradient_bound(triple: StaticTriple) -> IdentityReport:
    """Pointwise gradient estimate |Du|^2 <= |1 - u^2|.

    Reports the largest violation over an interior sample; when the
    hypotheses fail (a surface gravity above one) the sub-interval where
    the estimate breaks is located and recorded instead of failing.
    """
    def margin(x: float) -> float:
        sp = triple.radial_state(x)
        return triple.lambda_sign * (1.0 - sp.u ** 2) - sp.du ** 2

    pts = triple.interior_points(GRADIENT_SAMPLES)
    values = [margin(x) for x in pts]
    worst = min(values)
    flags = assumption_flags(triple)
    applicable = assumptions_hold(triple, flags)
    extra: dict = {"min_margin": worst}
    if worst < -GRAD_TOL:
        # locate the failing sub-interval by sign changes of the margin
        bad = [x for x, v in zip(pts, values) if v < 0.0]
        lo, hi = min(bad), max(bad)
        lo_dom, hi_dom = triple.domain
        if margin(lo_dom + 1e-12) > 0.0:
            lo = bracketed_root(margin, lo_dom + 1e-12, lo)
        else:
            lo = lo_dom
        if margin(hi_dom - 1e-12) > 0.0:
            hi = bracketed_root(margin, hi, hi_dom - 1e-12)
        else:
            hi = hi_dom
        extra["violation_interval"] = (lo, hi)
    return inequality_report(
        name="gradient_bound", lhs=-worst, rhs=0.0, tolerance=GRAD_TOL,
        assumptions=flags, applicable=applicable,
        description="pointwise bound |Du|^2 <= |1-u^2| over the interior",
        extra=extra)


def _count_report(triple: StaticTriple, name: str, weight: float,
                  rhs: float, flags: dict[str, bool], applicable: bool,
                  description: str) -> IdentityReport:
    """The verdict on |extremal set| * weight <= rhs, `weight` being what one
    extremal point counts for; on a non-discrete set, the refusal keeps rhs."""
    if not triple.extremum.discrete:
        rep = refusal_report(name, _NON_DISCRETE, assumptions=flags)
        return replace(rep, rhs=rhs, extra={**rep.extra, "rhs": rhs})
    return inequality_report(
        name=name, lhs=triple.extremum.count * weight, rhs=rhs,
        tolerance=INEQ_TOL, assumptions=flags, applicable=applicable,
        description=description)


def area_bound(triple: StaticTriple) -> IdentityReport:
    """Extremal-count area bound: |extremal set| * |S^(n-1)| <= |boundary|
    = U_0(0) (conformal boundary area for negative constant)."""
    flags = assumption_flags(triple)
    rhs = (up_value(triple, 0, 0.0) if triple.lambda_sign > 0
           else conformal_boundary_data(triple).area_g)
    return _count_report(
        triple, "area_bound", unit_sphere_area(triple.n), rhs, flags,
        assumptions_hold(triple, flags),
        "extremal count times round-sphere area vs boundary area")


def willmore_bound(triple: StaticTriple) -> IdentityReport:
    """Willmore-type bound with exponent n-1 on the boundary curvature.

    Positive constant: |extremal set| |S^(n-1)| <= integral over the horizon
    of |(R_bdry - n(n-3))/2|^(n-1).  Negative constant (under the vanishing
    gradient limit): same with (R_g_bdry - (n+1)(n-2)) / (2(n-2)) on the
    conformal boundary.
    """
    n = triple.n
    flags = assumption_flags(triple)
    if triple.lambda_sign > 0:
        # each horizon term is |S^(n-1)| (|R - n(n-3)| r / 2)^(n-1), the
        # area of a sphere of that radius, 0 at radius 0; its power alone
        # overflows from n = 144 on (Nariai), where the term need not
        radii = (abs(boundary_scalar_curvature(n, c) - n * (n - 3))
                 * c.sphere_radius / 2.0 for c in triple.boundaries)
        rhs = sum(sphere_area_from_log(n, math.log(radius)) if radius else 0.0
                  for radius in radii)
        applicable = assumptions_hold(triple, flags)
    else:
        bdry = conformal_boundary_data(triple)
        rhs = abs((bdry.scalar_g_boundary - (n + 1) * (n - 2))
                  / (2.0 * (n - 2))) ** (n - 1) * bdry.area_g
        applicable = (assumptions_hold(triple, flags)
                      and flags.get("gradient_limit_zero", False))
    return _count_report(
        triple, "willmore_bound", unit_sphere_area(n), rhs, flags, applicable,
        "extremal count vs (n-1)-th power of the normalised boundary "
        "curvature")


def scalar_average_bound(triple: StaticTriple) -> IdentityReport:
    """Boundary scalar-curvature average bound (positive constant only):
    |extremal set| |S^(n-1)| <= integral of R_bdry / ((n-1)(n-2)), the
    `horizon_integral` over every horizon of the solution, also on a view."""
    n = triple.n
    flags = assumption_flags(triple)
    if triple.lambda_sign < 0:
        return refusal_report(
            "scalar_average_bound",
            "no counterpart is asserted for negative constant",
            assumptions=flags)
    rhs = horizon_integral(n, triple.boundaries, lambda c: (
        boundary_scalar_curvature(n, c) / ((n - 1) * (n - 2))))
    return _count_report(
        triple, "scalar_average_bound", unit_sphere_area(n), rhs, flags,
        assumptions_hold(triple, flags),
        "extremal count vs boundary average of the scalar curvature")


def lp_gradient_bound(triple: StaticTriple, p: float,
                      t: float) -> IdentityReport:
    """Sharp level-set gradient bound, for p >= 3 on a regular level:

        || Du / sqrt|1-u^2| ||_{L^p}  <=  sqrt( || +-H |D log u| + n ||_{L^(p/2)} ),

    with + for positive constant.  Both norms are over {u = t} and reduce to
    closed-form sphere sums; a level within EXTREMUM_BAND of u = 1, where W
    loses every digit, is refused before either is read."""
    if p < 3:
        raise Refused("asserted for p >= 3")
    n = triple.n
    flags = assumption_flags(triple)
    sign = float(triple.lambda_sign)
    lhs_sum = rhs_sum = 0.0
    for sp in level_states(triple, t):
        check_window(sp.u)
        q = sign * sp.H * sp.grad_u / sp.u + n
        lhs_sum += sp.W ** (p / 2.0) * sp.area
        rhs_sum += abs(q) ** (p / 2.0) * sp.area
    lhs = lhs_sum ** (1.0 / p)
    rhs = rhs_sum ** (1.0 / p)
    applicable = assumptions_hold(triple, flags)
    return inequality_report(
        name=f"lp_gradient_bound(p={p}, t={t})", lhs=lhs, rhs=rhs,
        tolerance=INEQ_TOL, assumptions=flags, applicable=applicable,
        description="level-set p-norm of the normalised gradient vs the "
                    "mean-curvature norm",
        extra={"holds": lhs <= rhs + INEQ_TOL})


def overdetermined_condition(triple: StaticTriple, t: float) -> IdentityReport:
    """The overdetermining level-set condition

        d(1/|Du|)/dnu = t/(1-t^2)        (positive constant)
        d(1/|Du|)/dnu = -t/(t^2-1)       (negative constant)

    whose validity on a single level forces the round model.  The normal
    derivative is -D2u(nu,nu)/|Du|^2 = -u''/u'^2 in arclength variables."""
    spheres = level_states(triple, t)
    if t * t == 1.0:
        raise Refused("the overdetermined condition is singular at the "
                      f"extremal level t={t:g}")
    target = t / (1.0 - t * t) if triple.lambda_sign > 0 else -t / (t * t - 1.0)
    residuals = []
    for sp in spheres:
        if sp.du == 0.0:
            raise Refused(f"singular level at t={t}")
        residuals.append(-sp.d2u / sp.du ** 2 - target)
    worst = max(abs(r) for r in residuals)
    flags = assumption_flags(triple)
    return identity_report(
        name=f"overdetermined_condition(t={t})", lhs=worst, rhs=0.0,
        tolerance=INEQ_TOL, assumptions=flags,
        applicable=assumptions_hold(triple, flags),
        description="normal derivative of 1/|Du| against the round-model "
                    "profile",
        extra={"per_sphere": residuals})


def n3_uniqueness_inequality(triple: StaticTriple) -> IdentityReport:
    """Three-dimensional horizon-count bound:

        2 |extremal set| <= sum over boundary components of
                            (surface gravity) * (Euler characteristic),

    with equality exactly for the connected round case."""
    flags = assumption_flags(triple)
    if triple.n != 3:
        return refusal_report("n3_uniqueness_inequality",
                              "stated for dimension 3 only", assumptions=flags)
    if triple.lambda_sign < 0:
        return refusal_report("n3_uniqueness_inequality",
                              "stated for positive constant only",
                              assumptions=flags)
    rhs = sum(2 * c.surface_gravity for c in triple.boundaries)  # chi(S^2)
    rep = _count_report(
        triple, "n3_uniqueness_inequality", 2.0, rhs, flags,
        assumptions_hold(triple, flags),
        "twice the extremal count vs gravity-weighted Euler characteristics")
    if not triple.extremum.discrete:
        return rep
    connected = len(triple.boundaries) == 1
    return replace(rep, equality=rep.equality and connected,
                   extra={"connected_boundary": connected})


def mon_glob_bound(triple: StaticTriple, p: float) -> IdentityReport:
    """Global chain bound on the horizon gravity integral.

    Positive constant, for 0 <= p <= 1 (n = 3) or 0 <= p <= n-1 (n >= 4):

        |extremal set| |S^(n-1)|  <=  U_p(0), the boundary integral of |Du|^p
                                  <=  U_0(0) = |boundary|.

    Negative constant: |extremal set| |S^(n-1)| <= conformal boundary area.
    """
    n = triple.n
    flags = assumption_flags(triple)
    name = f"mon_glob_bound(p={p})"
    if triple.lambda_sign < 0:
        return _count_report(
            triple, name, unit_sphere_area(n),
            conformal_boundary_data(triple).area_g, flags,
            assumptions_hold(triple, flags),
            "extremal count vs conformal boundary area")
    p_max = 1.0 if n == 3 else n - 1.0
    if not 0.0 <= p <= p_max:
        return refusal_report(
            name, f"exponent outside the admissible range [0, {p_max}]",
            assumptions=flags)
    mid, upper = up_value(triple, p, 0.0), up_value(triple, 0, 0.0)
    rep = _count_report(
        triple, name, unit_sphere_area(n), mid, flags,
        assumptions_hold(triple, flags),
        "extremal count vs boundary gravity integral vs boundary area")
    if not triple.extremum.discrete:
        return rep
    chain_holds = rep.lhs <= mid + INEQ_TOL <= upper + 2 * INEQ_TOL
    if rep.status == "pass" and mid > upper + INEQ_TOL:  # the second step
        rep = replace(rep, status="fail")
    return replace(rep, extra={"upper": upper, "chain_holds": chain_holds})
