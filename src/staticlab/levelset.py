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
and `monotonicity_scan` at 1e-10 of the curve's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .geometry import (BRANCH_INSET, SphereData, StaticTriple,
                       boundary_scalar_curvature, check_window, sphere_area,
                       sphere_data, unit_sphere_area)
from .report import (_NON_DISCRETE, IDENTITY_TOL, IdentityReport,
                     identity_report, inequality_report, refusal_report)
from .roots import EPS, find_root

LIMINF_K = (6, 24)  # liminf_check samples t = 1 -+ 2^-k for k in this range
BOUNDARY_LEVELS = (10.0, 100.0)  # levels conformal_boundary_data extrapolates
WALK_STEPS = 6  # Newton steps of a walked sphere before its level goes cold
OUT_OF_RANGE = ("a sphere term at p={:.12g} leaves the double range at the "
                "level u={:.12g}")  # a term or sum past it, as ValueError


# --------------------------------------------------------------------------
# level location

def level_radii(triple: StaticTriple, t: float) -> tuple[float, ...]:
    """All radial coordinates where u = t, smallest first.

    t = 0 on a positive-constant triple designates the boundary itself and
    is answered from the stored horizon data.
    """
    if triple.lambda_sign > 0 and t == 0.0:
        return tuple(c.location for c, _ in _boundary_spheres(triple))

    def g(x: float) -> tuple[float, float]:
        val, slope, _ = triple.u(x)
        return val - t, slope

    inset = BRANCH_INSET * (triple.domain[1] - triple.domain[0])
    radii = []
    for br in triple.branches():
        if br.u_lo <= t <= br.u_hi:
            g_ends = (br.u_lo - t, br.u_hi - t)
            radii.append(find_root(g, br.lo + inset, br.hi - inset,
                                   *(g_ends if br.increasing else g_ends[::-1])))
    if not radii:
        raise ValueError(f"level t={t} outside the range of u")
    return tuple(sorted(radii))


def _level_walk(triple: StaticTriple, levels: Sequence[float]):
    """Yield `level_radii` of each of `levels`, walked along the level flow
    dx/dt = 1/u' by `_walk_sphere` from the last level's (x, u, u', u'') on
    each sphere.  A level is located cold when it is the first, follows a
    horizon row (t = 0), meets another set of branches, or when Newton
    leaves a sphere's branch or does not converge."""
    inset = BRANCH_INSET * (triple.domain[1] - triple.domain[0])
    branches, states = None, []  # the last level's, and (x, u, u', u'')
    for t in levels:
        if triple.lambda_sign > 0 and t == 0.0:
            branches = None
            yield level_radii(triple, t)
            continue
        here = tuple(b for b in triple.branches() if b.u_lo <= t <= b.u_hi)
        if here == branches:
            states = [_walk_sphere(triple, t, st, br.lo + inset, br.hi - inset)
                      for st, br in zip(states, here)]
        if here != branches or None in states:
            states = [(x, *triple.u(x)) for x in level_radii(triple, t)]
            branches = here
        yield tuple(st[0] for st in states)


def _walk_sphere(triple: StaticTriple, t: float, state: tuple[float, ...],
                 lo: float, hi: float) -> Optional[tuple[float, ...]]:
    """Newton on u(x) = t from `state` = (x, u, u', u''), done once a step
    from a point evaluated on this level is below sqrt(EPS) x and leaves
    |u''/(2u')| step^2 under half an ulp of x: the state after it, u = t.
    None when a step leaves [lo, hi] or fails to halve, or after WALK_STEPS."""
    (x, val, slope, curv), last = state, math.inf
    for _ in range(WALK_STEPS):
        step = (t - val) / slope if slope else math.nan
        if not (lo <= x + step <= hi and abs(step) <= 0.5 * last):
            return None
        if (last < math.inf and abs(curv) * step * step <= EPS * abs(slope * x)
                and step * step <= EPS * x * x):
            return x + step, t, slope, curv
        x, last = x + step, abs(step)
        val, slope, curv = triple.u(x)
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
    return _spheres_off_band(triple, level_radii(triple, t))


def _spheres_off_band(triple: StaticTriple, radii) -> tuple[SphereData, ...]:
    spheres = tuple(sphere_data(triple, x) for x in radii)
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

def _boundary_spheres(triple: StaticTriple):
    return [(c, sphere_area(triple.n, c.sphere_radius))
            for c in triple.horizons()]


def _up_terms(n: int, p: float, t: float, spheres: Sequence[SphereData],
              power: float) -> list[float]:
    """The sphere terms (h/sqrt d)^(n-1) (|u'|/sqrt d)^power, d = |1 - t^2|,
    of U_power(t) / |S^(n-1)|: scale-free, so neither overflows at small d,
    large n; one past the double range is refused naming the caller's p."""
    rd = math.sqrt(abs(1.0 - t * t))
    if rd == 0.0:
        raise ValueError(f"U_p is singular at the extremal level t={t:g}")
    try:
        return [(sp.h / rd) ** (n - 1) * (sp.grad_u / rd) ** power
                for sp in spheres]
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None


def _in_range(p: float, t: float, *values: float) -> tuple[float, ...]:
    """`values`, refused as OUT_OF_RANGE naming p and t where one is not
    finite: finite sphere terms can sum past the double range."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(OUT_OF_RANGE.format(p, t))
    return values


def up_value(triple: StaticTriple, p: float, t: float) -> float:
    """U_p(t) as a closed-form sphere sum."""
    n = triple.n
    if triple.lambda_sign > 0 and t == 0.0:
        try:
            return _in_range(p, t, sum(a * c.surface_gravity ** p for c, a
                                       in _boundary_spheres(triple)))[0]
        except OverflowError:
            raise ValueError(OUT_OF_RANGE.format(p, t)) from None
    return _in_range(p, t, unit_sphere_area(n) * sum(
        _up_terms(n, p, t, level_states(triple, t), p)))[0]


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
    return _up_derivative_forms(triple, p, t, level_states(triple, t))


def _up_derivative_forms(triple: StaticTriple, p: float, t: float,
                         spheres: Sequence[SphereData]
                         ) -> tuple[float, float, float]:
    n, sign = triple.n, triple.lambda_sign
    # each sphere weighs |S^(n-1)| h^(n-1) |Du|^(p-2) d^(-(n+p-1)/2), which
    # is its scale-free term of U_(p-2) times |S^(n-1)| / d, d = |1 - t^2|
    c_np = (n + p - 1) / (p - 1)
    h_form = ricci_form = bound = 0.0
    for sp, weight in zip(spheres, _up_terms(n, p, t, spheres, p - 2)):
        check_window(sp.u)  # W loses every digit next to u = 1
        h_form += weight * (sign * (sp.grad_u / sp.u) * sp.H
                            + n * p / (p - 1) - c_np * sp.W)
        ricci_form += weight * ((n - 1) - sign * sp.ric_rr
                                + c_np * (1.0 - sp.W))
        bound += weight * (n / (p - 1)) * (1.0 - sp.W)
    pref = -sign * (p - 1) * t * unit_sphere_area(n) / abs(1.0 - t * t)
    return _in_range(p, t, pref * h_form, pref * ricci_form, pref * bound)


def up_second_derivative_at_boundary(triple: StaticTriple, p: float) -> float:
    """Boundary-integral formula for the one-sided second derivative.

    For positive constant this is U_p''(0) = lim U_p'(t)/t over the horizon;
    for negative constant it is the limit of V_p''(r) at the conformal
    boundary, with V_p(r) = U_p(sqrt(1 + 1/r^2)).
    """
    if p < 3:
        raise ValueError("asserted for p >= 3 only")
    n = triple.n
    if triple.lambda_sign > 0:
        if not triple.boundaries:
            raise ValueError("triple has no boundary")
        total = 0.0
        for c, a in _boundary_spheres(triple):
            kappa = c.surface_gravity
            total += a * kappa ** (p - 2) * (
                (boundary_scalar_curvature(n, c) - (n - 1) * (n - 2)) / 2.0
                + ((n + p - 1) / (p - 1)) * (1.0 - kappa ** 2))
        return -(p - 1) * total
    bdry = conformal_boundary_data(triple)
    integrand = (((n - 1) * (n - 2) - bdry.scalar_g_boundary) / (2.0 * (n - 1))
                 + (n * (p + 1) / (2.0 * (p - 1))) * bdry.gradient_limit)
    return -(p - 1) * integrand * bdry.area_g


def up_second_derivative_bound(triple: StaticTriple, p: float) -> float:
    """The majorising line of the boundary second-derivative display."""
    if p < 3:
        raise ValueError("asserted for p >= 3 only")
    n = triple.n
    if triple.lambda_sign > 0:
        return -n * sum(a * c.surface_gravity ** (p - 2)
                        * (1.0 - c.surface_gravity ** 2)
                        for c, a in _boundary_spheres(triple))
    bdry = conformal_boundary_data(triple)
    return -n * bdry.gradient_limit * bdry.area_g


# --------------------------------------------------------------------------
# Phi_p

def phi_p(triple: StaticTriple, p: float, s: float) -> float:
    """Phi_p(s): conformal-area-weighted p-th power of |grad phi|_g."""
    t = t_of_s(s, triple.lambda_sign)
    return _in_range(p, t, sum(_phi_terms(p, t, level_spheres(triple, t))))[0]


def _phi_terms(p: float, t: float,
               spheres: Sequence[SphereData]) -> list[float]:
    try:
        return [sp.W ** (p / 2.0) * sp.area_g for sp in spheres]
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None


def phi_p_derivative(triple: StaticTriple, p: float, s: float) -> float:
    """Phi_p'(s) through the conformal mean curvature and Laplacian:

        integral of -(p-1) |grad phi|^(p-1) H_g + p |grad phi|^(p-2) lap phi.
    """
    t = t_of_s(s, triple.lambda_sign)
    return _phi_derivative_sum(p, t, level_spheres(triple, t))


def _phi_derivative_sum(p: float, t: float,
                        spheres: Sequence[SphereData]) -> float:
    try:
        return _in_range(p, t, sum(
            sp.area_g * (-(p - 1) * sp.W ** ((p - 1) / 2.0) * sp.H_g
                         + p * sp.W ** ((p - 2) / 2.0) * sp.lap_phi)
            for sp in spheres))[0]
    except OverflowError:
        raise ValueError(OUT_OF_RANGE.format(p, t)) from None


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
    """The rows (point, *`row(t, radii)`) over `grid`, all built before any
    is returned, at the levels t = `level_of(point)` that `_level_walk`
    locates; a p that is not finite is refused (its rows read nan, or 4 pi
    as 1 ** nan)."""
    if not math.isfinite(p):
        raise ValueError(f"exponent p must be a finite number, got {p:g}")
    levels = [level_of(point) for point in grid]
    return [(point, *row(t, radii)) for point, t, radii
            in zip(grid, levels, _level_walk(triple, levels))]


def up_curve(triple: StaticTriple, p: float,
             grid: Sequence[float]) -> list[Row]:
    """The rows of U_p over `grid`, walked by `_level_walk`.  A level's
    records give the value, `up_derivative` (p >= 3) and the transport
    derivative, the sum of each sphere term of `_up_terms` times its
    `_log_rate`."""
    n, area = triple.n, unit_sphere_area(triple.n)

    def row(t: float, radii: tuple[float, ...]) -> tuple[float, float, float]:
        if triple.lambda_sign > 0 and t == 0.0:  # horizons: h' = u'' = 0
            return up_value(triple, p, t), 0.0, 0.0
        spheres = [triple.radial_state(x) for x in radii]
        terms = _up_terms(n, p, t, spheres, p)  # refuses t = 1 first
        d_ana = (_up_derivative_forms(triple, p, t, spheres)[0] if p >= 3
                 else math.nan)
        slope = sum(w * _log_rate(n, p, t, sp)
                    for w, sp in zip(terms, spheres))
        value, d_num = _in_range(p, t, area * sum(terms), area * slope)
        return value, d_ana, d_num
    return _curve(triple, row, p, grid, lambda t: t)


def phi_curve(triple: StaticTriple, p: float,
              grid: Sequence[float]) -> list[Row]:
    """The rows of Phi_p over `grid`, walked by `_level_walk` and refused
    like `level_spheres`, with the transport derivative: dt/ds = 1 - t^2
    times the sum of each sphere term A_g W^(p/2) times its `_log_rate` at
    the record's u."""
    def row(t: float, radii: tuple[float, ...]) -> tuple[float, float, float]:
        spheres = _spheres_off_band(triple, radii)
        terms = _phi_terms(p, t, spheres)
        slope = sum(w * _log_rate(triple.n, p, sp.u, sp)
                    for w, sp in zip(terms, spheres))
        d_ana = _phi_derivative_sum(p, t, spheres) if p >= 3 else math.nan
        value, d_num = _in_range(p, t, sum(terms), (1.0 - t * t) * slope)
        return value, d_ana, d_num
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

    Samples t = 1 -+ 2^-k on a geometric sequence and extrapolates with an
    Aitken step; k is capped where 1 - t^2 still carries enough significant
    bits for the level location.  Refuses on a non-discrete extremal set.
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
    ks = range(LIMINF_K[0], LIMINF_K[1] + 1)
    vals = [up_value(triple, p, 1.0 - sign * 2.0 ** (-k)) for k in ks]
    # Aitken extrapolation, guarded for already-converged sequences
    v0, v1, v2 = vals[-3], vals[-2], vals[-1]
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
    radius squared is h^2/(u^2-1), whence the boundary scalar curvature."""
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
    return ConformalBoundaryData(*(
        (t2 ** 2 * v2 - t1 ** 2 * v1) / (t2 ** 2 - t1 ** 2)
        for v1, v2 in zip(at(t1), at(t2))))


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
