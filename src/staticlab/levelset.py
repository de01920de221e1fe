"""Level-set quantities along the potential, and their monotone integrals.

For a level {u = t} (one or two spheres, depending on the family) define

    U_p(t) = |1 - t^2|^(-(n+p-1)/2) * sum over spheres of  A * |Du|^p,

with A the sphere area, and on the conformal side

    Phi_p(s) = sum over spheres of  A_g * W^(p/2),     W = |Du|^2 / |1-u^2|,

at s = (1/2) log|(1+t)/(1-t)|.  Both reduce to closed-form sphere sums in
the rotationally symmetric setting; their derivatives do not, and are
evaluated through two independent routes (mean curvature of the level vs
conformal mean curvature) that the tests compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conformal import ConformalState, mean_curvature_g0, to_conformal
from .geometry import (
    BRANCH_INSET,
    Branch,
    StaticTriple,
    unit_sphere_area,
    warped_curvature,
)
from .roots import find_root

EXTREMUM_CUTOFF = 1e-8  # band around u = 1 excluded from curve sampling


# --------------------------------------------------------------------------
# level location

def select_branch(triple: StaticTriple, branch: Optional[str]) -> tuple[Branch, ...]:
    """Resolve a branch designator: None keeps every branch; "inner"/"outer"
    pick by radial position (only meaningful for two-branch triples)."""
    branches = triple.branches()
    if branch is None:
        return branches
    if len(branches) == 1:
        return branches
    ordered = sorted(branches, key=lambda b: b.lo)
    if branch == "inner":
        return (ordered[0],)
    if branch == "outer":
        return (ordered[-1],)
    raise ValueError(f"unknown branch designator {branch!r}")


def level_radii(triple: StaticTriple, t: float,
                branch: Optional[str] = None) -> tuple[float, ...]:
    """All radial coordinates where u = t, smallest first.

    t = 0 on a positive-constant triple designates the boundary itself and
    is answered from the stored horizon data.
    """
    if triple.lambda_sign > 0 and t == 0.0:
        comps = triple.boundaries
        if branch is not None and len(comps) > 1:
            comps = (min(comps, key=lambda c: c.location),) if branch == "inner" \
                else (max(comps, key=lambda c: c.location),)
        return tuple(sorted(c.location for c in comps))

    def g(x: float) -> tuple[float, float]:
        val, slope, _ = triple.u(x)
        return val - t, slope

    inset = BRANCH_INSET * (triple.domain[1] - triple.domain[0])
    radii = []
    for br in select_branch(triple, branch):
        if br.u_lo <= t <= br.u_hi:
            g_ends = (br.u_lo - t, br.u_hi - t)
            radii.append(find_root(g, br.lo + inset, br.hi - inset,
                                   *(g_ends if br.increasing else g_ends[::-1])))
    if not radii:
        raise ValueError(f"level t={t} outside the range of u")
    return tuple(sorted(radii))


# --------------------------------------------------------------------------
# pointwise sphere data

@dataclass(frozen=True)
class SphereData:
    """Everything the integrals need on one level sphere."""

    x: float
    u: float
    grad_u: float          # |Du|
    area: float            # sphere area w.r.t. g0
    area_g: float          # w.r.t. the conformal metric
    H: float               # mean curvature w.r.t. g0 and nu = Du/|Du|
    ric_nn: float          # Ric(nu, nu)
    W: float               # |Du|^2 / |1 - u^2|
    conformal: ConformalState


def sphere_data(triple: StaticTriple, x: float) -> SphereData:
    st = triple.radial_state(x)
    curv = warped_curvature(triple, x)
    n = triple.n
    area = unit_sphere_area(n) * st.h ** (n - 1)
    d = triple.lambda_sign * (1.0 - st.u ** 2)
    state = to_conformal(triple, x)
    return SphereData(
        x=x, u=st.u, grad_u=abs(st.du), area=area,
        area_g=area / d ** ((n - 1) / 2.0),
        H=mean_curvature_g0(triple, x),
        ric_nn=curv.ric_rr,
        W=st.du ** 2 / d,
        conformal=state,
    )


@dataclass(frozen=True)
class LevelSetData:
    """Geometric data on a full level {u = t}, one entry per sphere."""

    t: float
    s: float
    r_level: tuple[float, ...]
    area: float
    area_g: float
    grad_u: tuple[float, ...]
    H: tuple[float, ...]
    ric_nn: tuple[float, ...]
    conformal: tuple[ConformalState, ...]


def level_data(triple: StaticTriple, t: float,
               branch: Optional[str] = None) -> LevelSetData:
    spheres = [sphere_data(triple, x) for x in level_radii(triple, t, branch)]
    return LevelSetData(
        t=t, s=s_of_t(t),
        r_level=tuple(sp.x for sp in spheres),
        area=sum(sp.area for sp in spheres),
        area_g=sum(sp.area_g for sp in spheres),
        grad_u=tuple(sp.grad_u for sp in spheres),
        H=tuple(sp.H for sp in spheres),
        ric_nn=tuple(sp.ric_nn for sp in spheres),
        conformal=tuple(sp.conformal for sp in spheres),
    )


def s_of_t(t: float) -> float:
    """Conformal level coordinate s = (1/2) log|(1+t)/(1-t)|."""
    return 0.5 * math.log(abs((1.0 + t) / (1.0 - t)))


def t_of_s(s: float, lambda_sign: int) -> float:
    """Inverse of s_of_t on the relevant side: tanh(s) or coth(s)."""
    return math.tanh(s) if lambda_sign > 0 else 1.0 / math.tanh(s)


# --------------------------------------------------------------------------
# U_p and its derivatives

def _boundary_spheres(triple: StaticTriple, branch: Optional[str]):
    comps = sorted(triple.boundaries, key=lambda c: c.location)
    if branch is not None and len(comps) > 1:
        comps = [comps[0]] if branch == "inner" else [comps[-1]]
    n = triple.n
    return [(c, unit_sphere_area(n) * c.sphere_radius ** (n - 1)) for c in comps]


def up_value(triple: StaticTriple, p: float, t: float,
             branch: Optional[str] = None) -> float:
    """U_p(t) as a closed-form sphere sum."""
    n = triple.n
    if triple.lambda_sign > 0 and t == 0.0:
        return sum(a * c.surface_gravity ** p
                   for c, a in _boundary_spheres(triple, branch))
    pref = abs(1.0 - t * t) ** (-(n + p - 1) / 2.0)
    total = 0.0
    for x in level_radii(triple, t, branch):
        st = triple.radial_state(x)
        total += unit_sphere_area(n) * st.h ** (n - 1) * abs(st.du) ** p
    return pref * total


def up_derivative(triple: StaticTriple, p: float, t: float,
                  branch: Optional[str] = None) -> tuple[float, float, float]:
    """The three displayed expressions for U_p'(t), p >= 3.

    Returns (h_form, ricci_form, bound).  The first two are algebraically
    equal for any static solution; the bound majorises them only under the
    gradient estimate |Du|^2 <= |1 - u^2|.
    """
    if p < 3:
        raise ValueError("the derivative formula is only asserted for p >= 3")
    n = triple.n
    sign = triple.lambda_sign
    if triple.lambda_sign > 0 and t == 0.0:
        return (0.0, 0.0, 0.0)
    d_level = sign * (1.0 - t * t)
    pref = -sign * (p - 1) * t * d_level ** (-(n + p - 1) / 2.0)
    c_np = (n + p - 1) / (p - 1)
    h_form = ricci_form = bound = 0.0
    for sp in (sphere_data(triple, x) for x in level_radii(triple, t, branch)):
        if sp.grad_u == 0.0:
            raise ValueError(f"singular level at t={t}")
        weight = sp.grad_u ** (p - 2) * sp.area
        h_form += weight * (sign * (sp.grad_u / sp.u) * sp.H
                            + n * p / (p - 1) - c_np * sp.W)
        ricci_form += weight * ((n - 1) - sign * sp.ric_nn
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
        for c, a in _boundary_spheres(triple, None):
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
                        for c, a in _boundary_spheres(triple, None))
    bdry = conformal_boundary_data(triple)
    return -n * bdry.gradient_limit * bdry.area_g


# --------------------------------------------------------------------------
# Phi_p

def phi_p(triple: StaticTriple, p: float, s: float,
          branch: Optional[str] = None) -> float:
    """Phi_p(s): conformal-area-weighted p-th power of |grad phi|_g."""
    t = t_of_s(s, triple.lambda_sign)
    total = 0.0
    for x in level_radii(triple, t, branch):
        sp = sphere_data(triple, x)
        total += sp.W ** (p / 2.0) * sp.area_g
    return total


def phi_p_derivative(triple: StaticTriple, p: float, s: float,
                     branch: Optional[str] = None) -> float:
    """Phi_p'(s) through the conformal mean curvature and Laplacian:

        integral of -(p-1) |grad phi|^(p-1) H_g + p |grad phi|^(p-2) lap phi.
    """
    t = t_of_s(s, triple.lambda_sign)
    total = 0.0
    for x in level_radii(triple, t, branch):
        sp = sphere_data(triple, x)
        state = sp.conformal
        total += sp.area_g * (
            -(p - 1) * sp.W ** ((p - 1) / 2.0) * state.H_g
            + p * sp.W ** ((p - 2) / 2.0) * state.lap_phi)
    return total


# --------------------------------------------------------------------------
# curves, scans, limits

@dataclass(frozen=True)
class UpCurve:
    p: float
    grid: np.ndarray
    values: np.ndarray
    d_analytic: Optional[np.ndarray]
    d_numeric: np.ndarray


def _fd_rooms(triple: StaticTriple, t: float) -> tuple[float, float]:
    """Room below and above t before hitting a domain edge of U_p."""
    if triple.lambda_sign > 0:
        return t, (1.0 - EXTREMUM_CUTOFF) - t
    u_hi = triple.u_range()[1]
    return t - (1.0 + EXTREMUM_CUTOFF), 0.999 * u_hi - t


def _numeric_derivative(triple: StaticTriple, p: float, t: float,
                        branch: Optional[str], base: float) -> float:
    """Five-point difference of U_p at t, one-sided at a domain edge; the
    stencil never straddles the extremal value."""
    lo_room, hi_room = _fd_rooms(triple, t)
    h = min(base, 0.2 * lo_room, 0.2 * hi_room)
    if h > 1e-12:
        up = lambda tt: up_value(triple, p, tt, branch)
        return (up(t - 2 * h) - 8 * up(t - h) + 8 * up(t + h)
                - up(t + 2 * h)) / (12.0 * h)
    h = min(base, 0.45 * max(lo_room, hi_room))
    sgn = 1.0 if hi_room >= lo_room else -1.0
    return sgn * (up_value(triple, p, t + sgn * h, branch)
                  - up_value(triple, p, t, branch)) / h


def up_curve(triple: StaticTriple, p: float, grid: Sequence[float],
             branch: Optional[str] = None, fd_step: float = 1e-4) -> UpCurve:
    grid = np.asarray(grid, dtype=float)
    values = np.array([up_value(triple, p, t, branch) for t in grid])
    d_num = np.array([_numeric_derivative(triple, p, t, branch, fd_step)
                      for t in grid])
    d_ana = None
    if p >= 3:
        d_ana = np.array([up_derivative(triple, p, t, branch)[0]
                          for t in grid])
    return UpCurve(p=p, grid=grid, values=values, d_analytic=d_ana,
                   d_numeric=d_num)


@dataclass(frozen=True)
class PhiCurve:
    p: float
    grid: np.ndarray
    values: np.ndarray
    d_analytic: Optional[np.ndarray]
    d_numeric: np.ndarray


def phi_curve(triple: StaticTriple, p: float, grid: Sequence[float],
              branch: Optional[str] = None, fd_step: float = 1e-4) -> PhiCurve:
    grid = np.asarray(grid, dtype=float)
    values = np.array([phi_p(triple, p, s, branch) for s in grid])
    d_num = np.empty_like(values)
    for i, s in enumerate(grid):
        h = min(fd_step, 0.45 * s)
        d_num[i] = (phi_p(triple, p, s + h, branch)
                    - phi_p(triple, p, s - h, branch)) / (2.0 * h)
    d_ana = None
    if p >= 3:
        d_ana = np.array([phi_p_derivative(triple, p, s, branch)
                          for s in grid])
    return PhiCurve(p=p, grid=grid, values=values, d_analytic=d_ana,
                    d_numeric=d_num)


@dataclass(frozen=True)
class MonotonicityReport:
    p: float
    grid: np.ndarray
    values: np.ndarray
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
    grid = np.asarray(grid, dtype=float)
    values = np.array([up_value(triple, p, t) for t in grid])
    deltas = np.diff(values)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    incr = bool(np.all(deltas >= -tol))
    decr = bool(np.all(deltas <= tol))
    if incr and decr:
        cls = "constant"
    elif decr:
        cls = "nonincreasing"
    elif incr:
        cls = "nondecreasing"
    else:
        cls = "mixed"
    flags = assumption_flags(triple)
    applicable = _assumptions_hold(triple, flags) and (p == 1 or p >= 3)
    violations: tuple[int, ...] = ()
    if applicable:
        if triple.lambda_sign > 0:
            violations = tuple(int(i) for i in np.nonzero(deltas > tol)[0])
        else:
            violations = tuple(int(i) for i in np.nonzero(deltas < -tol)[0])
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


def liminf_check(triple: StaticTriple, p: float,
                 k_range: tuple[int, int] = (6, 24)) -> LiminfResult:
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
    ks = range(k_range[0], k_range[1] + 1)
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


def conformal_boundary_data(triple: StaticTriple,
                            t_pair: tuple[float, float] = (10.0, 100.0)
                            ) -> ConformalBoundaryData:
    """Limits at the conformal boundary of a negative-constant triple.

    Evaluates at two large levels and removes the O(1/t^2) correction by
    Richardson extrapolation.  The induced conformal sphere radius squared
    is h^2/(u^2-1), whence the boundary scalar curvature."""
    if triple.lambda_sign > 0:
        raise ValueError("conformal boundary exists only for negative constant")
    if not triple.conformally_compact:
        raise ValueError("triple is not conformally compact")
    n = triple.n

    def at(t: float) -> np.ndarray:
        (x,) = level_radii(triple, t)
        st = triple.radial_state(x)
        d = st.u ** 2 - 1.0
        area_g = unit_sphere_area(n) * st.h ** (n - 1) / d ** ((n - 1) / 2.0)
        scal = (n - 1) * (n - 2) * d / st.h ** 2
        return np.array([area_g, scal, d - st.du ** 2])

    t1, t2 = t_pair
    v1, v2 = at(t1), at(t2)
    v = (t2 ** 2 * v2 - t1 ** 2 * v1) / (t2 ** 2 - t1 ** 2)
    return ConformalBoundaryData(area_g=float(v[0]),
                                 scalar_g_boundary=float(v[1]),
                                 gradient_limit=float(v[2]))


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


def _assumptions_hold(triple: StaticTriple, flags: dict[str, bool]) -> bool:
    if triple.lambda_sign > 0:
        return flags["normalization"] and flags["surface_gravity_le_1"]
    return (flags["normalization"] and flags["conformally_compact"]
            and flags["gradient_limit_nonneg"])
