"""Level-set quantities along the potential, and their monotone integrals.

For a level {u = t} (one or two spheres, depending on the family) define

    U_p(t) = |1 - t^2|^(-(n+p-1)/2) * sum over spheres of  A * |Du|^p,

with A the sphere area, and on the conformal side

    Phi_p(s) = sum over spheres of  A_g * W^(p/2),     W = |Du|^2 / |1-u^2|,

at s = (1/2) log|(1+t)/(1-t)|.  Both reduce to closed-form sphere sums in
the rotationally symmetric setting.  Their derivatives are read through
the field equations (level vs conformal mean curvature) and, on a curve
(`up_curve`, `phi_curve`: rows of grid point, value and both derivatives),
also along the level flow dx/dt = 1/u', which uses no field equation.

Every function here sums over the spheres of the level that its triple
sees: on a two-branch triple, both; on the view `triple.on_branch("inner")`
(or "outer"), the one on that branch, and at t = 0 that side's horizon.
Its two checks take no tolerance: `liminf_check` judges at IDENTITY_TOL,
and `monotonicity_scan` at 1e-10 of the curve's scale.  Each boundary
quantity, here and in the checks of `identities` and `inequalities`, is a
`horizon_integral`: horizon areas weighed by a density constant on each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .geometry import (BoundaryComponent, SphereData, StaticTriple,
                       boundary_scalar_curvature, check_window, sphere_area,
                       sphere_data, unit_sphere_area)
from .report import (_NON_DISCRETE, IDENTITY_TOL, IdentityReport,
                     identity_report, inequality_report, refusal_report)
from .roots import EPS, find_root

LIMINF_K = 24  # liminf_check samples t = 1 -+ 2^-k for k = 22, 23 and 24
BOUNDARY_LEVELS = (10.0, 100.0)  # levels conformal_boundary_data extrapolates
WALK_STEPS = 6  # Newton steps of a walked sphere before its level goes cold
OUT_OF_RANGE = ("a sphere term at p={:.12g} leaves the double range at the "
                "level u={:.12g}")  # a term or sum past it, as ValueError


# --------------------------------------------------------------------------
# level location

def level_radii(triple: StaticTriple, t: float) -> tuple[float, ...]:
    """All radial coordinates where u = t, smallest first: one root on the
    bracket of each branch that meets t, and at t = 0 on a
    positive-constant triple, the boundary, the locations of its horizons."""
    if triple.lambda_sign > 0 and t == 0.0:
        return tuple(c.location for c in triple.horizons())

    def g(x: float) -> tuple[float, float]:
        val, slope, _ = triple.u.fn(x)
        return val - t, slope

    radii = [find_root(g, br.a, br.b, br.u_a - t, br.u_b - t)
             for br in triple.branches() if br.meets(t)]
    if not radii:
        raise ValueError(f"level t={t} outside the range of u")
    return tuple(sorted(radii))


def _walk_sphere(fn, t: float, state: tuple[float, ...], lo: float,
                 hi: float) -> Optional[tuple[float, ...]]:
    """Newton on u(x) = t, u = `fn`, from `state` = (x, u, u', u'') of the
    last level.  Its first step is the Taylor step d - u'' d^2/(2u') of the
    level flow, d = (t - u)/u', as d2x/dt2 = -u''/u'^3.  Done once a step
    from a point evaluated on this level is below sqrt(EPS) x and leaves
    |u''/(2u')| step^2 under half an ulp of x: the state after it, u = t.
    None when a step leaves [lo, hi] or fails to halve, or after WALK_STEPS."""
    x, val, slope, curv = state
    if not slope:
        return None
    step, last = (t - val) / slope, math.inf
    step -= curv * step * step / (2.0 * slope)
    for _ in range(WALK_STEPS):
        if not (lo <= x + step <= hi and abs(step) <= 0.5 * last):
            return None
        if (last < math.inf and abs(curv) * step * step <= EPS * abs(slope * x)
                and step * step <= EPS * x * x):
            return x + step, t, slope, curv
        x, last = x + step, abs(step)
        val, slope, curv = fn(x)
        step = (t - val) / slope if slope else math.nan
    return None


# --------------------------------------------------------------------------
# data on a level

def level_states(triple: StaticTriple, t: float) -> list[SphereData]:
    """The records of {u = t} by `sphere_data`, not refused in the band:
    U_p reads them up to u = 1, and the conformal entries refuse it."""
    return [sphere_data(triple, x) for x in level_radii(triple, t)]


def level_spheres(triple: StaticTriple, t: float) -> tuple[SphereData, ...]:
    """The records of the spheres of {u = t}, refused like the conformal
    dictionary within EXTREMUM_BAND of u = 1, where W loses every digit."""
    spheres = tuple(sphere_data(triple, x) for x in level_radii(triple, t))
    for sp in spheres:
        check_window(sp.u)
    return spheres


def t_of_s(s: float, lambda_sign: int) -> float:
    """The level t of the conformal level s > 0, on the side of u = 1 that
    lambda_sign fixes: tanh(s) or coth(s)."""
    if not s > 0.0:
        raise ValueError(f"conformal level s must be positive, got {s:g}")
    return math.tanh(s) if lambda_sign > 0 else 1.0 / math.tanh(s)


# --------------------------------------------------------------------------
# U_p and its derivatives

def horizon_integral(n: int, components: Sequence[BoundaryComponent],
                     density: Callable[[BoundaryComponent], float]) -> float:
    """The integral over the round spheres `components` of a density that
    is constant on each: the sum of their areas times `density(c)`, in
    their order, refused where there is no sphere to integrate over."""
    if not components:
        raise ValueError("triple has no boundary")
    return sum(sphere_area(n, c.sphere_radius) * density(c)
               for c in components)


def _sqrt_gap(t: float) -> float:
    """sqrt|1 - t^2|, the scale of U_p's sphere terms, refused at t = 1."""
    rd = math.sqrt(abs(1.0 - t * t))
    if rd == 0.0:
        raise ValueError(f"U_p is singular at the extremal level t={t:g}")
    return rd


def _up_term(n: int, rd: float, sp: SphereData, power: float) -> float:
    """The sphere term (h/rd)^(n-1) (|u'|/rd)^power of U_power(t) /
    |S^(n-1)|, rd = `_sqrt_gap(t)`: scale-free, so neither overflows at
    small rd, large n.  The caller refuses its OverflowError."""
    return (sp.h / rd) ** (n - 1) * (sp.grad_u / rd) ** power


def _h_term(n: int, sign: int, p: float, rd: float, sp: SphereData) -> float:
    """A sphere's term of the first form of `up_derivative`, before the
    factor `_up_rate`; refused where W loses every digit by u = 1."""
    weight = _up_term(n, rd, sp, p - 2)
    check_window(sp.u)
    return weight * (sign * (sp.grad_u / sp.u) * sp.H + n * p / (p - 1)
                     - (n + p - 1) / (p - 1) * sp.W)


def _up_rate(sign: int, area: float, p: float, t: float) -> float:
    """The factor of `up_derivative`'s sums, area = |S^(n-1)|."""
    return -sign * (p - 1) * t * area / abs(1.0 - t * t)


def _in_range(p: float, t: float, *values: float) -> tuple[float, ...]:
    """`values`, refused as OUT_OF_RANGE naming p and t where one is not
    finite: finite sphere terms can sum past the double range."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(OUT_OF_RANGE.format(p, t))
    return values


def up_value(triple: StaticTriple, p: float, t: float) -> float:
    """U_p(t) as a closed-form sphere sum; at t = 0 on a positive triple,
    the `horizon_integral` of kappa^p over the horizons the triple sees."""
    n = triple.n
    try:
        if triple.lambda_sign > 0 and t == 0.0:
            total = horizon_integral(n, triple.horizons(),
                                     lambda c: c.surface_gravity ** p)
        else:
            spheres, rd = level_states(triple, t), _sqrt_gap(t)
            total = unit_sphere_area(n) * sum(_up_term(n, rd, sp, p)
                                              for sp in spheres)
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None
    return _in_range(p, t, total)[0]


def up_derivative(triple: StaticTriple, p: float,
                  t: float) -> tuple[float, float, float]:
    """The three displayed expressions for U_p'(t), p >= 3.

    Returns (h_form, ricci_form, bound).  The first two are algebraically
    equal for any static solution; the bound majorises them only under the
    gradient estimate |Du|^2 <= |1 - u^2|.
    """
    if p < 3:
        raise ValueError("the derivative formula is only asserted for p >= 3")
    if triple.lambda_sign > 0 and t == 0.0:
        return (0.0, 0.0, 0.0)
    n, sign, c_np = triple.n, triple.lambda_sign, (triple.n + p - 1) / (p - 1)
    spheres, rd = level_states(triple, t), _sqrt_gap(t)
    # each sphere weighs |S^(n-1)| h^(n-1) |Du|^(p-2) d^(-(n+p-1)/2), which
    # is its scale-free term of U_(p-2) times |S^(n-1)| / d, d = |1 - t^2|
    h_form = ricci_form = bound = 0.0
    try:
        for sp in spheres:
            h_form += _h_term(n, sign, p, rd, sp)
            weight = _up_term(n, rd, sp, p - 2)
            ricci_form += weight * ((n - 1) - sign * sp.ric_rr
                                    + c_np * (1.0 - sp.W))
            bound += weight * (n / (p - 1)) * (1.0 - sp.W)
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None
    pref = _up_rate(sign, unit_sphere_area(n), p, t)
    return _in_range(p, t, pref * h_form, pref * ricci_form, pref * bound)


def up_second_derivative_at_boundary(triple: StaticTriple,
                                     p: float) -> tuple[float, float]:
    """(display, bound): the boundary display of U_p'', p >= 3, and the
    line that majorises it under the gradient estimate.  Positive constant:
    U_p''(0) = lim U_p'(t)/t, a `horizon_integral` over the horizons the
    triple sees.  Negative constant: V_p''(0+) at the conformal boundary,
    with V_p(r) = U_p(sqrt(1 + 1/r^2))."""
    if p < 3:
        raise ValueError("asserted for p >= 3 only")
    n = triple.n
    if triple.lambda_sign > 0:
        c_np, horizons = (n + p - 1) / (p - 1), triple.horizons()
        display = horizon_integral(n, horizons, lambda c: (
            c.surface_gravity ** (p - 2)
            * ((boundary_scalar_curvature(n, c) - (n - 1) * (n - 2)) / 2.0
               + c_np * (1.0 - c.surface_gravity ** 2))))
        bound = horizon_integral(n, horizons, lambda c: (
            c.surface_gravity ** (p - 2) * (1.0 - c.surface_gravity ** 2)))
        return -(p - 1) * display, -n * bound
    bdry = conformal_boundary_data(triple)
    integrand = (((n - 1) * (n - 2) - bdry.scalar_g_boundary) / (2.0 * (n - 1))
                 + (n * (p + 1) / (2.0 * (p - 1))) * bdry.gradient_limit)
    return (-(p - 1) * integrand * bdry.area_g,
            -n * bdry.gradient_limit * bdry.area_g)


# --------------------------------------------------------------------------
# Phi_p

def phi_p(triple: StaticTriple, p: float, s: float) -> float:
    """Phi_p(s): conformal-area-weighted p-th power of |grad phi|_g."""
    t = t_of_s(s, triple.lambda_sign)
    spheres = level_spheres(triple, t)
    try:
        return _in_range(p, t, sum(_phi_term(p, sp.W, sp.area_g)
                                   for sp in spheres))[0]
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None


def _phi_term(p: float, w: float, area_g: float) -> float:
    return w ** (p / 2.0) * area_g


def phi_p_derivative(triple: StaticTriple, p: float, s: float) -> float:
    """Phi_p'(s) through the conformal mean curvature and Laplacian:

        integral of -(p-1) |grad phi|^(p-1) H_g + p |grad phi|^(p-2) lap phi.
    """
    t = t_of_s(s, triple.lambda_sign)
    spheres = level_spheres(triple, t)
    try:
        return _in_range(p, t, sum(_phi_slope(p, sp, sp.W, sp.area_g)
                                   for sp in spheres))[0]
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None


def _phi_slope(p: float, sp: SphereData, w: float, area_g: float) -> float:
    return area_g * (-(p - 1) * w ** ((p - 1) / 2.0) * sp.H_g
                     + p * w ** ((p - 2) / 2.0) * sp.lap_phi)


# --------------------------------------------------------------------------
# curves, scans, limits

def _log_rate(n: int, p: float, t: float, sp: SphereData) -> float:
    """d/dt of log(|1-t^2|^(-(n+p-1)/2) h^(n-1) |u'|^p) along the level
    flow, on which the sphere through x moves at dx/dt = 1/u'.  It reads
    u', u'', h and h', and no field equation."""
    if sp.du == 0.0:
        raise ValueError(f"singular level at x={sp.x}")
    return ((n + p - 1) * t / (1.0 - t * t)
            + ((n - 1) * sp.dh / sp.h + p * sp.d2u / sp.du) / sp.du)


Row = tuple[float, float, float, float]  # point, value, d_analytic, d_numeric


def _curve(triple: StaticTriple, row, p: float, grid: Sequence[float],
           level_of) -> list[Row]:
    """The rows (point, *`row(t, states, spheres)`) over `grid` at the
    levels t = `level_of(point)`, all built before any is returned.  Each
    sphere steps from the last level's state (x, u, u', u'') by
    `_walk_sphere` inside its branch's bracket [a, b], and its record
    (`sphere_data`) is built once.  A level is located cold, by
    `level_radii`, when it is the first, follows a horizon level (t = 0 on
    a positive triple: states (x,), no records), meets another set of
    branches, or when Newton leaves a bracket or does not converge.  A p
    that is not finite is refused (its rows read nan, or 4 pi as 1 ** nan)."""
    if not math.isfinite(p):
        raise ValueError(f"exponent p must be a finite number, got {p:g}")
    levels = [level_of(point) for point in grid]
    branches = triple.branches()
    fn, rows, here, states = triple.u.fn, [], None, []
    for point, t in zip(grid, levels):
        if triple.lambda_sign > 0 and t == 0.0:
            here, states = None, [(x,) for x in level_radii(triple, t)]
            rows.append((point, *row(t, states, ())))
            continue
        meeting = [br for br in branches if br.meets(t)]
        if meeting == here:
            states = [_walk_sphere(fn, t, st, br.a, br.b)
                      for st, br in zip(states, meeting)]
        if meeting != here or None in states:
            states = [(x, *fn(x)) for x in level_radii(triple, t)]
            here = meeting
        spheres = [sphere_data(triple, st[0]) for st in states]
        rows.append((point, *row(t, states, spheres)))
    return rows


def up_curve(triple: StaticTriple, p: float,
             grid: Sequence[float]) -> list[Row]:
    """The rows of U_p over `grid`, walked by `_curve`.  One pass over a
    level's records gives the value, `up_derivative`'s first form (p >= 3)
    and the transport derivative, the sum of each sphere term of U_p times
    its `_log_rate`."""
    n, sign, area = triple.n, triple.lambda_sign, unit_sphere_area(triple.n)

    def row(t: float, states, spheres) -> tuple[float, float, float]:
        if sign > 0 and t == 0.0:  # horizons: h' = u'' = 0
            return up_value(triple, p, t), 0.0, 0.0
        rd = _sqrt_gap(t)
        value = d_ana = slope = 0.0
        try:
            for sp in spheres:
                term = _up_term(n, rd, sp, p)
                if p >= 3:
                    d_ana += _h_term(n, sign, p, rd, sp)
                slope += term * _log_rate(n, p, t, sp)
                value += term
        except OverflowError:
            raise ValueError(OUT_OF_RANGE.format(p, t)) from None
        value, d_ana, d_num = _in_range(p, t, area * value,
                                        _up_rate(sign, area, p, t) * d_ana,
                                        area * slope)
        return value, d_ana if p >= 3 else math.nan, d_num
    return _curve(triple, row, p, grid, lambda t: t)


def phi_curve(triple: StaticTriple, p: float,
              grid: Sequence[float]) -> list[Row]:
    """The rows of Phi_p over `grid`, walked by `_curve` and refused like
    `level_spheres`.  One pass over a level's records gives the value,
    `phi_p_derivative` (p >= 3) and the transport derivative: dt/ds =
    1 - t^2 times the sum of each sphere term A_g W^(p/2) times its
    `_log_rate` at the record's u."""
    def row(t: float, states, spheres) -> tuple[float, float, float]:
        value = d_ana = slope = 0.0
        try:
            for sp in spheres:
                check_window(sp.u)
                w, area_g = sp.W, sp.area_g
                term = _phi_term(p, w, area_g)
                slope += term * _log_rate(triple.n, p, sp.u, sp)
                if p >= 3:
                    d_ana += _phi_slope(p, sp, w, area_g)
                value += term
        except OverflowError:
            raise ValueError(OUT_OF_RANGE.format(p, t)) from None
        value, d_ana, d_num = _in_range(p, t, value, d_ana,
                                        (1.0 - t * t) * slope)
        return value, d_ana if p >= 3 else math.nan, d_num
    return _curve(triple, row, p, grid,
                  lambda s: t_of_s(s, triple.lambda_sign))


def monotonicity_scan(triple: StaticTriple, p: float,
                      grid: Sequence[float]) -> IdentityReport:
    """Monotonicity of U_p over `grid` as an inequality: its largest
    increment against the asserted direction (down for positive constant,
    up for negative) is at most 0.  Inapplicable unless the assumptions of
    the statement hold and p is an exponent it is asserted for; `extra`
    holds the sign pattern and the indices of the violating increments."""
    values = [up_value(triple, p, t) for t in grid]
    deltas = [b - a for a, b in zip(values, values[1:])]
    tol = 1e-10 * max(1.0, max(abs(v) for v in values))
    incr = all(d >= -tol for d in deltas)
    decr = all(d <= tol for d in deltas)
    cls = ("constant" if incr and decr else "nondecreasing" if incr
           else "nonincreasing" if decr else "mixed")
    flags = assumption_flags(triple)
    applicable = assumptions_hold(triple, flags) and (p == 1 or p >= 3)
    against = [triple.lambda_sign * d for d in deltas]
    violations = (tuple(i for i, d in enumerate(against) if d > tol)
                  if applicable else ())
    return inequality_report(
        f"monotonicity(p={p})", max(against, default=0.0), 0.0, tol,
        assumptions=flags, applicable=applicable,
        description="largest increment of the level integral against the "
                    "asserted direction",
        extra={"classification": cls, "violations": violations})


def liminf_check(triple: StaticTriple, p: float) -> IdentityReport:
    """Estimate lim U_p(t) as t approaches the extremal value 1 and compare
    it with |extremal set| * |S^(n-1)|, at IDENTITY_TOL.

    Extrapolates with an Aitken step from t = 1 -+ 2^-k at k = LIMINF_K - 2
    to LIMINF_K, where 1 - t^2 still carries enough significant bits for
    the level location.  Refuses on a non-discrete extremal set.
    """
    if p > triple.n - 1:
        raise ValueError("the limit estimate is asserted for p <= n-1")
    flags = assumption_flags(triple)
    name = f"liminf(p={p})"
    about = "limit of the level integral at the extremal value"
    if not triple.extremum.discrete:
        return replace(refusal_report(name, _NON_DISCRETE, flags, about),
                       tolerance=IDENTITY_TOL)
    sign = triple.lambda_sign
    v0, v1, v2 = (up_value(triple, p, 1.0 - sign * 2.0 ** (-k))
                  for k in range(LIMINF_K - 2, LIMINF_K + 1))
    # Aitken extrapolation, guarded for already-converged sequences
    d1, d2 = v1 - v0, v2 - v1
    if abs(d2 - d1) > 1e-12 * max(1.0, abs(v2)):
        limit = v2 - d2 * d2 / (d2 - d1)
    else:
        limit = v2
    reference = triple.extremum.count * unit_sphere_area(triple.n)
    return identity_report(name, limit, reference, IDENTITY_TOL,
                           assumptions=flags,
                           description=about + " vs extremal count")


# --------------------------------------------------------------------------
# conformal boundary data and assumption flags

@dataclass(frozen=True)
class ConformalBoundaryData:
    area_g: float
    scalar_g_boundary: float
    gradient_limit: float  # lim (u^2 - 1 - |Du|^2)


def conformal_boundary_data(triple: StaticTriple) -> ConformalBoundaryData:
    """Limits at the conformal boundary of a negative-constant triple.

    Evaluates at the two large BOUNDARY_LEVELS and removes the O(1/t^2)
    correction by Richardson extrapolation.  The induced conformal sphere
    radius squared is h^2/(u^2-1), whence the boundary scalar curvature.
    The limits are a pure function of the triple and are kept in its
    `__dict__`, by the rule that `geometry` states."""
    kept = triple.__dict__.get("_conformal_boundary_data")
    if kept is not None:
        return kept
    if triple.lambda_sign > 0:
        raise ValueError("conformal boundary exists only for negative constant")
    if not triple.conformally_compact:
        raise ValueError("triple is not conformally compact")
    n = triple.n

    def at(t: float) -> tuple[float, float, float]:
        (sp,) = level_spheres(triple, t)
        scal = (n - 1) * (n - 2) * sp.D / sp.h ** 2
        return sp.area_g, scal, sp.D - sp.du ** 2

    t1, t2 = BOUNDARY_LEVELS
    kept = triple.__dict__["_conformal_boundary_data"] = ConformalBoundaryData(
        *((t2 ** 2 * v2 - t1 ** 2 * v1) / (t2 ** 2 - t1 ** 2)
          for v1, v2 in zip(at(t1), at(t2))))
    return kept


def assumption_flags(triple: StaticTriple) -> dict[str, bool]:
    """Which structural hypotheses the triple satisfies.

    Positive constant: potential normalised to max 1, every surface gravity
    at most 1, discrete extremal set.  Negative constant: normalised to
    min 1, conformally compact, and the boundary limit of
    u^2 - 1 - |Du|^2 nonnegative (or exactly zero, the strengthened form).
    """
    flags: dict[str, bool] = {}
    u_ext = triple.u.value(triple.extremum.location)
    flags["normalization"] = abs(u_ext - 1.0) <= 1e-9
    flags["discrete_extremum"] = triple.extremum.discrete
    if triple.lambda_sign > 0:
        flags["surface_gravity_le_1"] = all(
            c.surface_gravity <= 1.0 + 1e-9 for c in triple.boundaries)
    else:
        flags["conformally_compact"] = triple.conformally_compact
        if triple.conformally_compact:
            lim = conformal_boundary_data(triple).gradient_limit
            flags["gradient_limit_nonneg"] = lim >= -1e-9
            flags["gradient_limit_zero"] = abs(lim) <= 1e-9
        else:
            flags["gradient_limit_nonneg"] = False
            flags["gradient_limit_zero"] = False
    return flags


def assumptions_hold(triple: StaticTriple, flags: dict[str, bool]) -> bool:
    """Whether `flags` meet the core hypotheses of the monotonicity and
    inequality statements (see `assumption_flags`)."""
    if triple.lambda_sign > 0:
        return flags["normalization"] and flags["surface_gravity_le_1"]
    return (flags["normalization"] and flags["conformally_compact"]
            and flags["gradient_limit_nonneg"])
