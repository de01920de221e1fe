"""Level-set quantities along the potential, and their monotone integrals.

For a level {u = t} (one or two spheres, depending on the family) define

    U_p(t) = |1 - t^2|^(-(n+p-1)/2) * sum over spheres of  A * |Du|^p,

with A the sphere area, and on the conformal side

    Phi_p(s) = sum over spheres of  A_g * W^(p/2),     W = |Du|^2 / |1-u^2|,

at s = (1/2) log|(1+t)/(1-t)|.  Both reduce to closed-form sphere sums in
the rotationally symmetric setting.  Their derivatives are read through
the field equations (level vs conformal mean curvature) and, on a curve,
also along the level flow dx/dt = 1/u', which uses no field equation.

Every function here sums over the spheres of the level that its triple
sees: on a two-branch triple, both; on the view `triple.on_branch("inner")`
(or "outer"), the one on that branch, and at t = 0 that side's horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (BRANCH_INSET, SphereData, StaticTriple, check_window,
                       sphere_area, sphere_data, unit_sphere_area)
from .roots import find_root

LIMINF_K = (6, 24)  # liminf_check samples t = 1 -+ 2^-k for k in this range
BOUNDARY_LEVELS = (10.0, 100.0)  # levels conformal_boundary_data extrapolates


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


# --------------------------------------------------------------------------
# data on a level

def _level_states(triple: StaticTriple, t: float) -> list[SphereData]:
    """The records of {u = t}, unchecked: U_p reads them up to u = 1."""
    return [triple.radial_state(x) for x in level_radii(triple, t)]


def level_spheres(triple: StaticTriple, t: float) -> tuple[SphereData, ...]:
    """The records of the spheres of {u = t}, refused like the conformal
    dictionary within EXTREMUM_BAND of u = 1, where W loses every digit."""
    spheres = tuple(sphere_data(triple, x) for x in level_radii(triple, t))
    for sp in spheres:
        check_window(sp.u)
    return spheres


def s_of_t(t: float) -> float:
    """Conformal level coordinate s = (1/2) log|(1+t)/(1-t)|."""
    return 0.5 * math.log(abs((1.0 + t) / (1.0 - t)))


def t_of_s(s: float, lambda_sign: int) -> float:
    """Inverse of s_of_t on the relevant side: tanh(s) or coth(s)."""
    return math.tanh(s) if lambda_sign > 0 else 1.0 / math.tanh(s)


# --------------------------------------------------------------------------
# U_p and its derivatives

def _boundary_spheres(triple: StaticTriple):
    return [(c, sphere_area(triple.n, c.sphere_radius))
            for c in triple.horizons()]


def _up_terms(n: int, p: float, t: float,
              spheres: Sequence[SphereData]) -> list[float]:
    """The sphere terms (h/sqrt d)^(n-1) (|u'|/sqrt d)^p of U_p(t)/|S^(n-1)|,
    d = |1 - t^2|: scale-free, so neither overflows at small d, large n."""
    rd = math.sqrt(abs(1.0 - t * t))
    return [(sp.h / rd) ** (n - 1) * (sp.grad_u / rd) ** p for sp in spheres]


def up_value(triple: StaticTriple, p: float, t: float) -> float:
    """U_p(t) as a closed-form sphere sum."""
    n = triple.n
    if triple.lambda_sign > 0 and t == 0.0:
        return sum(a * c.surface_gravity ** p
                   for c, a in _boundary_spheres(triple))
    return unit_sphere_area(n) * sum(_up_terms(n, p, t,
                                               _level_states(triple, t)))


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
    return _up_derivative_forms(triple, p, t, _level_states(triple, t))


def _up_derivative_forms(triple: StaticTriple, p: float, t: float,
                         spheres: Sequence[SphereData]
                         ) -> tuple[float, float, float]:
    n, sign = triple.n, triple.lambda_sign
    d_level = sign * (1.0 - t * t)
    pref = -sign * (p - 1) * t * d_level ** (-(n + p - 1) / 2.0)
    c_np = (n + p - 1) / (p - 1)
    h_form = ricci_form = bound = 0.0
    for sp in spheres:
        check_window(sp.u)  # W loses every digit next to u = 1
        if sp.grad_u == 0.0:
            raise ValueError(f"singular level at t={t}")
        weight = sp.grad_u ** (p - 2) * sp.area
        h_form += weight * (sign * (sp.grad_u / sp.u) * sp.H
                            + n * p / (p - 1) - c_np * sp.W)
        ricci_form += weight * ((n - 1) - sign * sp.ric_rr
                                + c_np * (1.0 - sp.W))
        bound += weight * (n / (p - 1)) * (1.0 - sp.W)
    return (pref * h_form, pref * ricci_form, pref * bound)


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
            r_scal = (n - 1) * (n - 2) / c.sphere_radius ** 2
            kappa = c.surface_gravity
            total += a * kappa ** (p - 2) * (
                (r_scal - (n - 1) * (n - 2)) / 2.0
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
    return sum(_phi_terms(p, level_spheres(triple, t)))


def _phi_terms(p: float, spheres: Sequence[SphereData]) -> list[float]:
    return [sp.W ** (p / 2.0) * sp.area_g for sp in spheres]


def phi_p_derivative(triple: StaticTriple, p: float, s: float) -> float:
    """Phi_p'(s) through the conformal mean curvature and Laplacian:

        integral of -(p-1) |grad phi|^(p-1) H_g + p |grad phi|^(p-2) lap phi.
    """
    t = t_of_s(s, triple.lambda_sign)
    return _phi_derivative_sum(p, level_spheres(triple, t))


def _phi_derivative_sum(p: float, spheres: Sequence[SphereData]) -> float:
    return sum(sp.area_g * (-(p - 1) * sp.W ** ((p - 1) / 2.0) * sp.H_g
                            + p * sp.W ** ((p - 2) / 2.0) * sp.lap_phi)
               for sp in spheres)


# --------------------------------------------------------------------------
# curves, scans, limits

@dataclass(frozen=True)
class Curve:
    """U_p or Phi_p on a grid of levels, with its analytic derivative
    (p >= 3 only) and its transport derivative along the level flow."""

    p: float
    grid: tuple[float, ...]
    values: tuple[float, ...]
    d_analytic: Optional[tuple[float, ...]]
    d_numeric: tuple[float, ...]


def _log_rate(n: int, p: float, t: float, sp: SphereData) -> float:
    """d/dt of log(|1-t^2|^(-(n+p-1)/2) h^(n-1) |u'|^p) along the level
    flow, on which the sphere through x moves at dx/dt = 1/u'.  It reads
    u', u'', h and h', and no field equation."""
    if sp.du == 0.0:
        raise ValueError(f"singular level at x={sp.x}")
    return ((n + p - 1) * t / (1.0 - t * t)
            + ((n - 1) * sp.dh / sp.h + p * sp.d2u / sp.du) / sp.du)


def _curve(row, p: float, grid: Sequence[float]) -> Curve:
    """The curve of `row(level) = (value, d_analytic, d_numeric)`."""
    grid = tuple(grid)
    values, d_ana, d_num = zip(*map(row, grid)) if grid else ((), (), ())
    return Curve(p=p, grid=grid, values=values,
                 d_analytic=d_ana if p >= 3 else None, d_numeric=d_num)


def up_curve(triple: StaticTriple, p: float, grid: Sequence[float]) -> Curve:
    """U_p over `grid`.  Each level is located once; its records give the
    value, `up_derivative` (p >= 3) and the transport derivative, the sum
    of each sphere term of `_up_terms` times its `_log_rate`."""
    n, area = triple.n, unit_sphere_area(triple.n)

    def row(t: float) -> tuple[float, float, float]:
        if triple.lambda_sign > 0 and t == 0.0:  # horizons: h' = u'' = 0
            return up_value(triple, p, t), 0.0, 0.0
        spheres = _level_states(triple, t)
        d_ana = (_up_derivative_forms(triple, p, t, spheres)[0] if p >= 3
                 else math.nan)
        terms = _up_terms(n, p, t, spheres)
        slope = sum(w * _log_rate(n, p, t, sp)
                    for w, sp in zip(terms, spheres))
        return area * sum(terms), d_ana, area * slope
    return _curve(row, p, grid)


def phi_curve(triple: StaticTriple, p: float, grid: Sequence[float]) -> Curve:
    """Phi_p over `grid`, each level located once, with the transport
    derivative: dt/ds = 1 - t^2 times the sum of each sphere term
    A_g W^(p/2) times its `_log_rate` at the record's u."""
    def row(s: float) -> tuple[float, float, float]:
        t = t_of_s(s, triple.lambda_sign)
        spheres = level_spheres(triple, t)
        terms = _phi_terms(p, spheres)
        slope = sum(w * _log_rate(triple.n, p, sp.u, sp)
                    for w, sp in zip(terms, spheres))
        d_ana = _phi_derivative_sum(p, spheres) if p >= 3 else math.nan
        return sum(terms), d_ana, (1.0 - t * t) * slope
    return _curve(row, p, grid)


@dataclass(frozen=True)
class MonotonicityReport:
    p: float
    grid: tuple[float, ...]
    values: tuple[float, ...]
    classification: str  # "constant" | "nonincreasing" | "nondecreasing" | "mixed"
    assumption_flags: dict[str, bool]
    informational: bool
    violations: tuple[int, ...]


def monotonicity_scan(triple: StaticTriple, p: float,
                      grid: Sequence[float]) -> MonotonicityReport:
    """Sign pattern of the numeric increments of U_p over `grid`.

    Monotonicity violations are only flagged when the triple satisfies the
    assumptions under which monotonicity is asserted (and p is an exponent
    for which it is asserted); otherwise the scan is informational.
    """
    grid = tuple(grid)
    values = tuple(up_value(triple, p, t) for t in grid)
    deltas = [b - a for a, b in zip(values, values[1:])]
    tol = 1e-10 * max(1.0, max(abs(v) for v in values))
    incr = all(d >= -tol for d in deltas)
    decr = all(d <= tol for d in deltas)
    if incr and decr:
        cls = "constant"
    elif decr:
        cls = "nonincreasing"
    elif incr:
        cls = "nondecreasing"
    else:
        cls = "mixed"
    flags = assumption_flags(triple)
    applicable = assumptions_hold(triple, flags) and (p == 1 or p >= 3)
    violations: tuple[int, ...] = ()
    if applicable:
        sign = triple.lambda_sign
        violations = tuple(i for i, d in enumerate(deltas) if sign * d > tol)
    return MonotonicityReport(p=p, grid=grid, values=values,
                              classification=cls, assumption_flags=flags,
                              informational=not applicable,
                              violations=violations)


@dataclass(frozen=True)
class LiminfResult:
    status: str  # "ok" | "non-discrete extremum set"
    limit: float
    reference: float  # |extremal set| * |S^(n-1)|
    satisfied: Optional[bool]


def liminf_check(triple: StaticTriple, p: float) -> LiminfResult:
    """Estimate lim U_p(t) as t approaches the extremal value 1.

    Samples t = 1 -+ 2^-k on a geometric sequence and extrapolates with an
    Aitken step; k is capped where 1 - t^2 still carries enough significant
    bits for the level location.  Refuses on a non-discrete extremal set.
    """
    if p > triple.n - 1:
        raise ValueError("the limit estimate is asserted for p <= n-1")
    if not triple.extremum.discrete:
        return LiminfResult(status="non-discrete extremum set",
                            limit=math.nan, reference=math.nan,
                            satisfied=None)
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
    return LiminfResult(status="ok", limit=limit, reference=reference,
                        satisfied=limit >= reference - 1e-6 * reference)


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
