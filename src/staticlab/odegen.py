"""Generate rotationally symmetric static solutions by horizon shooting.

In the arclength chart the field equations reduce to a first-order system
for the state (h, h', u, u'):

    h'' = [ -(n-2)(h'^2 - 1) - h h' u'/u - sign*n*h^2 ] / h
    u'' = -(n-1) u h''/h - sign*n*u

obtained by solving the radial and spherical tensor components for the two
second derivatives; the trace equation u'' + (n-1)(h'/h)u' = -sign*n*u is
not imposed and is carried as a first-integral monitor, so its drift
measures the integration error.

A horizon is a zero of u with h' = 0 (the boundary is totally geodesic) and
u' = kappa > 0.  The u'/u term is finite there but 0/0 in form, so
integration starts from a second-order series expansion:

    h''(0) = [(n-2) - sign*n*h0^2] / (2 h0),
    u'''(0) = -(n-1) kappa h''(0)/h0 - sign*n*kappa.

The constant-radius branch h0^2 = (n-2)/n makes h''(0) vanish and shooting
stays on the product solution for any kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import BoundaryComponent, Extremum, RadialProfile, StaticTriple

RTOL, ATOL = 1e-12, 1e-13  # solve_ivp tolerances of a shot
MAX_ARCLENGTH = 20.0    # a shot that meets no stop condition by here fails
SERIES_HANDOFF = 1e-3   # handoff point, relative to h0
# the h''-equation divides by h and by u, so integration stops a hair
# above both floors and the endpoint data is extrapolated analytically
H_FLOOR_REL = 1e-4      # warp collapse threshold, relative to h0
U_FLOOR_REL = 1e-6      # second-horizon threshold, times kappa*h0
DRIFT_SAMPLES = 200     # interior points monitor_drift reads
DRIFT_TOL = 1e-8        # largest monitor drift of a shot that is trusted
POLE_TOL = 1e-3         # a smooth pole ends with |h' + 1| and |u'| below this


@dataclass(frozen=True)
class HorizonData:
    n: int
    lambda_sign: int
    h0: float       # horizon sphere radius
    kappa: float    # unnormalised surface gravity u'(0)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("dimension must be >= 3")
        if not (0.0 < self.h0 < math.inf and 0.0 < self.kappa < math.inf):
            raise ValueError("h0 and kappa must be finite and positive")


@dataclass(frozen=True)
class ReducedSystem:
    """First-order reduction of the field equations in arclength."""

    n: int
    lambda_sign: int

    def second_derivatives(self, h: float, dh: float, u: float,
                           du: float) -> tuple[float, float]:
        n, sgn = self.n, self.lambda_sign
        d2h = (-(n - 2) * (dh * dh - 1.0) - h * dh * du / u
               - sgn * n * h * h) / h
        d2u = -(n - 1) * u * d2h / h - sgn * n * u
        return d2h, d2u

    def rhs(self, rho: float, y: np.ndarray) -> np.ndarray:
        h, dh, u, du = y
        d2h, d2u = self.second_derivatives(h, dh, u, du)
        return np.array([dh, d2h, du, d2u])

    def monitor(self, y: Sequence[float]) -> float:
        """Residual of the trace equation lap u + sign*n*u along the state."""
        h, dh, u, du = y
        _, d2u = self.second_derivatives(h, dh, u, du)
        return d2u + (self.n - 1) * (dh / h) * du + self.lambda_sign * self.n * u


def reduce_system(n: int, lambda_sign: int) -> ReducedSystem:
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if lambda_sign not in (+1, -1):
        raise ValueError("lambda_sign must be +1 or -1")
    return ReducedSystem(n=n, lambda_sign=lambda_sign)


def horizon_series_coefficients(data: HorizonData) -> tuple[float, float]:
    """(h''(0), u'''(0)) fixed by regularity at the totally geodesic horizon."""
    n, sgn = data.n, data.lambda_sign
    d2h0 = ((n - 2) - sgn * n * data.h0 ** 2) / (2.0 * data.h0)
    d3u0 = -(n - 1) * data.kappa * d2h0 / data.h0 - sgn * n * data.kappa
    return d2h0, d3u0


def _series_state(data: HorizonData, rho: float) -> np.ndarray:
    d2h0, d3u0 = horizon_series_coefficients(data)
    h = data.h0 + 0.5 * d2h0 * rho ** 2
    dh = d2h0 * rho
    u = data.kappa * rho + d3u0 * rho ** 3 / 6.0
    du = data.kappa + 0.5 * d3u0 * rho ** 2
    return np.array([h, dh, u, du])


def shoot_from_horizon(data: HorizonData) -> StaticTriple:
    """Integrate outward from horizon data and package the trajectory.

    Stops when u returns to zero (a second horizon), when the warping
    radius collapses (a pole closing off a ball), or at the arclength
    budget.  A pole that is not smooth (h' = -1 and normalised u' = 0 at
    the end, to POLE_TOL) raises RuntimeError, as does a failed
    integration.  An interior zero of u' with the warp still open
    marks an extremal sphere and integration continues through it.

    The returned triple is normalised to max u = 1, carries dense-output
    profiles whose second derivatives come from the reduction itself, and
    records the trajectory's extremal structure.  The reduced system is
    homogeneous of degree one in (u, u'), so the normalised shot does not
    depend on kappa: it is integrated with u'(0) = 1, and the stored
    normalization_factor, scale / kappa, still maps the kappa shot to it.
    """
    if data.lambda_sign != +1:
        raise ValueError("horizon shooting applies to positive cosmological "
                         "constant only (u has no zero level otherwise)")
    from scipy.integrate import solve_ivp
    system = reduce_system(data.n, data.lambda_sign)
    unit = replace(data, kappa=1.0)
    rho0 = SERIES_HANDOFF * data.h0
    y0 = _series_state(unit, rho0)
    h_floor = H_FLOOR_REL * data.h0
    u_floor = U_FLOOR_REL * data.h0

    def event_u_floor(rho, y):
        return y[2] - u_floor
    event_u_floor.terminal = True
    event_u_floor.direction = -1.0

    def event_h_collapse(rho, y):
        return y[0] - h_floor
    event_h_collapse.terminal = True
    event_h_collapse.direction = -1.0

    def event_u_extremal(rho, y):
        return y[3]
    event_u_extremal.terminal = False
    event_u_extremal.direction = -1.0

    sol = solve_ivp(system.rhs, (rho0, MAX_ARCLENGTH), y0,
                    method="RK45", dense_output=True, rtol=RTOL, atol=ATOL,
                    events=[event_u_floor, event_h_collapse, event_u_extremal])
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    rho_end = float(sol.t[-1])
    if rho_end >= MAX_ARCLENGTH - 1e-12:
        raise RuntimeError("no stop condition met within the arclength "
                           "budget; the trajectory may be blowing up")
    y_end = sol.sol(rho_end)
    hit_second_horizon = len(sol.t_events[0]) > 0
    extremal_rhos = sol.t_events[2]

    # extrapolate across the stopping slivers
    if hit_second_horizon:
        # linear continuation to u = 0 (u'' vanishes at a horizon)
        gap = float(y_end[2] / abs(y_end[3]))
        rho_bdry = rho_end + gap
        kappa2 = abs(float(y_end[3]))
        radius2 = float(y_end[0] + y_end[1] * gap)
    if extremal_rhos.size > 0:
        rho_star = float(extremal_rhos[0])
        u_max = float(sol.sol(rho_star)[2])
    elif not hit_second_horizon:
        # pole-terminated ball: continue u to the vertex of its parabola
        _, d2u_end = system.second_derivatives(*y_end)
        u_max = float(y_end[2] + y_end[3] ** 2 / (2.0 * abs(d2u_end)))
    else:
        raise RuntimeError("reached a second horizon without an interior "
                           "extremum; trajectory is not a static solution")
    scale = 1.0 / u_max
    if not hit_second_horizon:
        dh_end, du_end = float(y_end[1]), scale * float(y_end[3])
        if abs(dh_end + 1.0) > POLE_TOL or abs(du_end) > POLE_TOL:
            raise RuntimeError(
                f"the shot closes at a singular pole: h'={dh_end:.6g} and "
                f"u'={du_end:.6g} at its end, where a smooth pole has -1 "
                "and 0")
    domain_end = rho_bdry if hit_second_horizon else rho_end

    def raw_state(rho: float) -> np.ndarray:
        if rho <= rho0:
            return _series_state(unit, rho)
        return sol.sol(rho)

    def u_fn(rho: float) -> tuple[float, float, float]:
        h, dh, u, du = raw_state(rho)
        _, d2u = system.second_derivatives(h, dh, u, du)
        return scale * u, scale * du, scale * d2u

    def h_fn(rho: float) -> tuple[float, float, float]:
        h, dh, u, du = raw_state(rho)
        d2h, _ = system.second_derivatives(h, dh, u, du)
        return h, dh, d2h

    if extremal_rhos.size > 0:
        rho_star = float(extremal_rhos[0])
        h_star = float(sol.sol(rho_star)[0])
        if h_star > 10.0 * h_floor:
            extremum = Extremum(location=rho_star, discrete=False)
        else:
            extremum = Extremum(location=rho_star, discrete=True, count=1)
    else:
        extremum = Extremum(location=rho_end, discrete=True, count=1)

    boundaries = [BoundaryComponent(location=0.0, sphere_radius=data.h0,
                                    surface_gravity=scale)]
    if hit_second_horizon:
        boundaries.append(BoundaryComponent(
            location=rho_bdry, sphere_radius=radius2,
            surface_gravity=kappa2 * scale))

    return StaticTriple(
        n=data.n, lambda_sign=data.lambda_sign,
        u=RadialProfile((0.0, domain_end), u_fn),
        h=RadialProfile((0.0, domain_end), h_fn),
        f=None, boundaries=tuple(boundaries), extremum=extremum,
        normalization_factor=scale / data.kappa,
        name=f"shoot(n={data.n}, h0={data.h0}, kappa={data.kappa})",
    )


def monitor_drift(triple: StaticTriple, system: ReducedSystem) -> float:
    """Largest trace-equation drift along a shot trajectory."""
    worst = 0.0
    for rho in triple.interior_points(DRIFT_SAMPLES):
        h, dh, _ = triple.h(rho)
        u, du, _ = triple.u(rho)
        # the monitor is linear in the u-components, so evaluating it on the
        # normalised profile only rescales the drift by the stored factor
        worst = max(worst, abs(system.monitor((h, dh, u, du))))
    return worst
