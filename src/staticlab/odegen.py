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

A shot is integrated on 4-tuples of floats, with the standard library
alone, by an embedded Runge-Kutta 5(4) pair:

- the tableau of Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26,
  stepping with the fifth-order solution;
- the step-size controller of scipy's `RK45`: the starting step of Hairer,
  Norsett & Wanner, *Solving Ordinary Differential Equations I*, sec. II.4,
  an RMS error norm, a step factor of 0.9 err^(-1/5) clamped to [0.2, 10],
  and no growth on the step right after a rejection;
- the quartic dense output of Shampine, Math. Comp. 46 (1986) 135-150,
  looked up by bisection over the step starts; a step's quartic is built
  the first time a point in it is read or an event crosses in it;
- events, downward zero crossings of a state component minus a level,
  located on the dense output with `roots.find_root`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .geometry import (BoundaryComponent, Extremum, RadialProfile,
                       StaticTriple, check_dimension)
from .report import Refused
from .roots import find_root

RTOL, ATOL = 1e-12, 1e-13  # integration tolerances of a shot
MAX_ARCLENGTH = 20.0    # a shot that meets no stop condition by here fails
SERIES_HANDOFF = 1e-3   # handoff point, relative to h0
# the h''-equation divides by h and by u, so integration stops a hair
# above both floors and the endpoint data is extrapolated analytically
H_FLOOR_REL = 1e-4      # warp collapse threshold, relative to h0
U_FLOOR_REL = 1e-6      # second-horizon threshold, times kappa*h0
DRIFT_SAMPLES = 200     # interior points monitor_drift reads
DRIFT_TOL = 1e-8        # largest monitor drift of a shot that is trusted
POLE_TOL = 1e-3         # a smooth pole ends with |h' + 1| and |u'| below this
# steps an integration may try, rejected ones included: ten times the most
# a shot took in a sweep of n = 3..10 and h0 = 1e-3..10 (3,716)
MAX_STEPS = 50_000

# Dormand-Prince 5(4): nodes, stage coefficients, the weights of the
# fifth-order solution (stage 2 has weight 0, and stage 7 is the derivative
# at the new state, which starts the next step) and the error weights b5 - b4
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)
# Shampine's dense output: across a step of size h from y, the state at
# fraction x of the step is y + h (x k1 + x^2 Q2 + x^3 Q3 + x^4 Q4) with
# Qj = sum over stages s of Psj ks (stage 2 does not enter)
P12, P13, P14 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
                 -12715105075 / 11282082432)
P32, P33, P34 = (131558114200 / 32700410799, -68118460800 / 10900136933,
                 87487479700 / 32700410799)
P42, P43, P44 = (-1754552775 / 470086768, 14199869525 / 1410260304,
                 -10690763975 / 1880347072)
P52, P53, P54 = (127303824393 / 49829197408, -318862633887 / 49829197408,
                 701980252875 / 199316789632)
P62, P63, P64 = (-282668133 / 205662961, 2019193451 / 616988883,
                 -1453857185 / 822651844)
P72, P73, P74 = (40617522 / 29380423, -110615467 / 29380423,
                 69997945 / 29380423)
# step-size control: the error estimate is of order 4
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 5

State = tuple[float, float, float, float]  # (h, h', u, u')
Rhs = Callable[[float, State], State]


@dataclass(frozen=True)
class HorizonData:
    n: int
    lambda_sign: int
    h0: float       # horizon sphere radius
    kappa: float    # unnormalised surface gravity u'(0)

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if not (0.0 < self.h0 < math.inf and 0.0 < self.kappa < math.inf):
            raise Refused("h0 and kappa must be finite and positive")


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

    def rhs(self, rho: float, y: State) -> State:
        # `second_derivatives` inline: the integrator's innermost call
        h, dh, u, du = y
        n, sgn = self.n, self.lambda_sign
        d2h = (-(n - 2) * (dh * dh - 1.0) - h * dh * du / u
               - sgn * n * h * h) / h
        return dh, d2h, du, -(n - 1) * u * d2h / h - sgn * n * u

    def monitor(self, y: Sequence[float]) -> float:
        """Residual of the trace equation lap u + sign*n*u along the state."""
        h, dh, u, du = y
        _, d2u = self.second_derivatives(h, dh, u, du)
        return d2u + (self.n - 1) * (dh / h) * du + self.lambda_sign * self.n * u


def reduce_system(n: int, lambda_sign: int) -> ReducedSystem:
    check_dimension(n)
    if lambda_sign not in (+1, -1):
        raise Refused("lambda_sign must be +1 or -1")
    return ReducedSystem(n=n, lambda_sign=lambda_sign)


def horizon_series_coefficients(data: HorizonData) -> tuple[float, float]:
    """(h''(0), u'''(0)) fixed by regularity at the totally geodesic horizon."""
    n, sgn = data.n, data.lambda_sign
    d2h0 = ((n - 2) - sgn * n * data.h0 ** 2) / (2.0 * data.h0)
    d3u0 = -(n - 1) * data.kappa * d2h0 / data.h0 - sgn * n * data.kappa
    return d2h0, d3u0


def _series_state(data: HorizonData, rho: float) -> State:
    d2h0, d3u0 = horizon_series_coefficients(data)
    h = data.h0 + 0.5 * d2h0 * rho ** 2
    dh = d2h0 * rho
    u = data.kappa * rho + d3u0 * rho ** 3 / 6.0
    du = data.kappa + 0.5 * d3u0 * rho ** 2
    return h, dh, u, du


def _rms(values: Sequence[float]) -> float:
    return math.hypot(*values) / math.sqrt(len(values))


def _initial_step(rhs: Rhs, t0: float, y0: State, f0: State,
                  span: float) -> float:
    """Starting step of Hairer, Norsett & Wanner, sec. II.4, for an error
    estimate of order 4 and no step beyond `span`."""
    scale = [ATOL + RTOL * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0, tuple(v + h0 * dv for v, dv in zip(y0, f0)))
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100.0 * h0, h1, span)


def _dopri_step(rhs: Rhs, t: float, y: State, k1: State, h: float):
    """One Dormand-Prince step of size h from the state y at t, k1 being
    rhs(t, y).  Returns the fifth-order state at t + h, the RMS norm of its
    error estimate in units of ATOL + RTOL max(|y|, |y_new|), and the
    stages (k1, k3, k4, k5, k6, k7) that the dense output combines."""
    y0, y1, y2, y3 = y
    a0, a1, a2, a3 = k1
    b0, b1, b2, b3 = rhs(t + C2 * h, (
        y0 + h * (A21 * a0), y1 + h * (A21 * a1),
        y2 + h * (A21 * a2), y3 + h * (A21 * a3)))
    k3 = c0, c1, c2, c3 = rhs(t + C3 * h, (
        y0 + h * (A31 * a0 + A32 * b0), y1 + h * (A31 * a1 + A32 * b1),
        y2 + h * (A31 * a2 + A32 * b2), y3 + h * (A31 * a3 + A32 * b3)))
    k4 = d0, d1, d2, d3 = rhs(t + C4 * h, (
        y0 + h * (A41 * a0 + A42 * b0 + A43 * c0),
        y1 + h * (A41 * a1 + A42 * b1 + A43 * c1),
        y2 + h * (A41 * a2 + A42 * b2 + A43 * c2),
        y3 + h * (A41 * a3 + A42 * b3 + A43 * c3)))
    k5 = e0, e1, e2, e3 = rhs(t + C5 * h, (
        y0 + h * (A51 * a0 + A52 * b0 + A53 * c0 + A54 * d0),
        y1 + h * (A51 * a1 + A52 * b1 + A53 * c1 + A54 * d1),
        y2 + h * (A51 * a2 + A52 * b2 + A53 * c2 + A54 * d2),
        y3 + h * (A51 * a3 + A52 * b3 + A53 * c3 + A54 * d3)))
    k6 = f0, f1, f2, f3 = rhs(t + h, (
        y0 + h * (A61 * a0 + A62 * b0 + A63 * c0 + A64 * d0 + A65 * e0),
        y1 + h * (A61 * a1 + A62 * b1 + A63 * c1 + A64 * d1 + A65 * e1),
        y2 + h * (A61 * a2 + A62 * b2 + A63 * c2 + A64 * d2 + A65 * e2),
        y3 + h * (A61 * a3 + A62 * b3 + A63 * c3 + A64 * d3 + A65 * e3)))
    y_new = n0, n1, n2, n3 = (
        y0 + h * (B1 * a0 + B3 * c0 + B4 * d0 + B5 * e0 + B6 * f0),
        y1 + h * (B1 * a1 + B3 * c1 + B4 * d1 + B5 * e1 + B6 * f1),
        y2 + h * (B1 * a2 + B3 * c2 + B4 * d2 + B5 * e2 + B6 * f2),
        y3 + h * (B1 * a3 + B3 * c3 + B4 * d3 + B5 * e3 + B6 * f3))
    k7 = g0, g1, g2, g3 = rhs(t + h, y_new)
    err = math.hypot(
        h * (E1 * a0 + E3 * c0 + E4 * d0 + E5 * e0 + E6 * f0 + E7 * g0)
        / (ATOL + RTOL * max(abs(y0), abs(n0))),
        h * (E1 * a1 + E3 * c1 + E4 * d1 + E5 * e1 + E6 * f1 + E7 * g1)
        / (ATOL + RTOL * max(abs(y1), abs(n1))),
        h * (E1 * a2 + E3 * c2 + E4 * d2 + E5 * e2 + E6 * f2 + E7 * g2)
        / (ATOL + RTOL * max(abs(y2), abs(n2))),
        h * (E1 * a3 + E3 * c3 + E4 * d3 + E5 * e3 + E6 * f3 + E7 * g3)
        / (ATOL + RTOL * max(abs(y3), abs(n3)))) / 2.0  # RMS of four
    return y_new, err, (k1, k3, k4, k5, k6, k7)


def _quartic(t: float, h: float, y: State, stages) -> tuple:
    """Shampine's interpolant across the step of size h from (t, y): per
    component, the coefficients of y + x (hk1 + x (hQ2 + x (hQ3 + x hQ4)))
    in the fraction x of the step."""
    (a0, a1, a2, a3), (c0, c1, c2, c3), (d0, d1, d2, d3), \
        (e0, e1, e2, e3), (f0, f1, f2, f3), (g0, g1, g2, g3) = stages
    y0, y1, y2, y3 = y
    return t, h, (
        (y0, h * a0,
         h * (P12 * a0 + P32 * c0 + P42 * d0 + P52 * e0 + P62 * f0 + P72 * g0),
         h * (P13 * a0 + P33 * c0 + P43 * d0 + P53 * e0 + P63 * f0 + P73 * g0),
         h * (P14 * a0 + P34 * c0 + P44 * d0 + P54 * e0 + P64 * f0
              + P74 * g0)),
        (y1, h * a1,
         h * (P12 * a1 + P32 * c1 + P42 * d1 + P52 * e1 + P62 * f1 + P72 * g1),
         h * (P13 * a1 + P33 * c1 + P43 * d1 + P53 * e1 + P63 * f1 + P73 * g1),
         h * (P14 * a1 + P34 * c1 + P44 * d1 + P54 * e1 + P64 * f1
              + P74 * g1)),
        (y2, h * a2,
         h * (P12 * a2 + P32 * c2 + P42 * d2 + P52 * e2 + P62 * f2 + P72 * g2),
         h * (P13 * a2 + P33 * c2 + P43 * d2 + P53 * e2 + P63 * f2 + P73 * g2),
         h * (P14 * a2 + P34 * c2 + P44 * d2 + P54 * e2 + P64 * f2
              + P74 * g2)),
        (y3, h * a3,
         h * (P12 * a3 + P32 * c3 + P42 * d3 + P52 * e3 + P62 * f3 + P72 * g3),
         h * (P13 * a3 + P33 * c3 + P43 * d3 + P53 * e3 + P63 * f3 + P73 * g3),
         h * (P14 * a3 + P34 * c3 + P44 * d3 + P54 * e3 + P64 * f3
              + P74 * g3)))


@dataclass(frozen=True)
class DenseSolution:
    """Piecewise-quartic dense output of an integration: `steps[i]` is the
    (t, h, y, stages) of the step that starts at `starts[i]`, and
    `pieces[i]` its interpolant, None until a point in the step is read or
    an event crosses in it.  A point on a step boundary reads the earlier
    step; points outside extrapolate the first or last step."""

    starts: list[float]
    steps: list[tuple]
    pieces: list[tuple | None]

    def _piece(self, i: int) -> tuple:
        piece = self.pieces[i]
        if piece is None:
            piece = self.pieces[i] = _quartic(*self.steps[i])
        return piece

    def __call__(self, t: float) -> State:
        i = min(max(bisect_left(self.starts, t) - 1, 0), len(self.steps) - 1)
        t0, h, ((a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4),
                (c0, c1, c2, c3, c4), (d0, d1, d2, d3, d4)) = (
                    self.pieces[i] or self._piece(i))
        x = (t - t0) / h
        return (a0 + x * (a1 + x * (a2 + x * (a3 + x * a4))),
                b0 + x * (b1 + x * (b2 + x * (b3 + x * b4))),
                c0 + x * (c1 + x * (c2 + x * (c3 + x * c4))),
                d0 + x * (d1 + x * (d2 + x * (d3 + x * d4))))


def _crossing(piece: tuple, component: int, level: float, t_end: float,
              g_start: float, g_end: float) -> float:
    """Where component - level of the piece's interpolant falls through 0,
    its values at the ends of the step being g_start >= 0 >= g_end."""
    t0, h, polys = piece
    c0, c1, c2, c3, c4 = polys[component]

    def g(t: float) -> tuple[float, float]:
        x = (t - t0) / h
        return (c0 + x * (c1 + x * (c2 + x * (c3 + x * c4))) - level,
                (c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4))) / h)

    return find_root(g, t0, t_end, g_start, g_end)


def integrate(rhs: Rhs, t0: float, y0: State, t_bound: float,
              events: Sequence[tuple[int, float, bool]]
              ) -> tuple[DenseSolution, float, list[list[float]]]:
    """Integrate y' = rhs(t, y) from (t0, y0) towards t_bound > t0.

    Each event (component, level, terminal) records the points where
    y[component] - level falls through zero: it is >= 0 at the start of a
    step and <= 0 at its end, and the crossing is located on the dense
    output.  Integration stops at the first terminal crossing.  Returns the
    dense output, the end point and each event's crossings in order.
    Raises Refused when t_bound is not above t0, when the start state or
    the first step is not finite or when the step size falls below ten
    ulps of t, and RuntimeError after MAX_STEPS step attempts.
    """
    if not t0 < t_bound:
        raise Refused(f"integration failed: the start {t0:g} is not "
                      f"below the end {t_bound:g}")
    k1 = rhs(t0, y0)
    step = _initial_step(rhs, t0, y0, k1, t_bound - t0)
    if not all(map(math.isfinite, (*y0, step))):
        raise Refused("integration failed: the start state or first "
                      f"step is not finite at the arclength {t0:.6g}")
    budget = MAX_STEPS
    t, y = t0, y0
    starts: list[float] = []
    steps: list[tuple] = []
    pieces: list[tuple | None] = []
    sol = DenseSolution(starts, steps, pieces)
    crossings: list[list[float]] = [[] for _ in events]
    g = [y0[i] - level for i, level, _ in events]
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        step = max(step, min_step)
        rejected = False
        while True:
            if not step >= min_step:  # NaN-safe
                raise Refused("integration failed: the step size fell below "
                              f"ten ulps of the arclength at {t:.6g}")
            budget -= 1
            if budget < 0:
                raise RuntimeError(
                    f"integration failed: {MAX_STEPS} steps tried without "
                    f"reaching the end, stopped at {t:.6g}")
            t_new = min(t + step, t_bound)
            h = step = t_new - t
            try:
                y_new, err, stages = _dopri_step(rhs, t, y, k1, h)
            except ZeroDivisionError:  # the reduction met h or u at 0
                err = math.inf  # reject and shrink the step
            if err < 1.0:
                factor = (MAX_FACTOR if err == 0.0 else
                          min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
                step *= min(1.0, factor) if rejected else factor
                break
            step *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        starts.append(t)
        steps.append((t, h, y, stages))
        pieces.append(None)
        t, y, k1 = t_new, y_new, stages[-1]
        g_new = [y[i] - level for i, level, _ in events]
        for a, b in zip(g, g_new):  # a step seldom crosses an event
            if a >= 0.0 >= b:
                for root, j in sorted((_crossing(sol._piece(-1), i, level, t,
                                                 g[j], g_new[j]), j)
                                      for j, (i, level, _) in enumerate(events)
                                      if g[j] >= 0.0 >= g_new[j]):
                    crossings[j].append(root)
                    if events[j][2]:
                        return sol, root, crossings
                break
        g = g_new
    return sol, t, crossings


def shoot_from_horizon(data: HorizonData) -> StaticTriple:
    """Integrate outward from horizon data and package the trajectory.

    Stops when u returns to zero (a second horizon), when the warping
    radius collapses (a pole closing off a ball), or at the arclength
    budget.  A pole that is not smooth (h' = -1 and normalised u' = 0 at
    the end, to POLE_TOL) or a refused integration raises Refused, as
    does an h0 of 20000 or more, whose series would start past the budget,
    before any step.  An interior zero of u' with the warp still open
    marks an extremal sphere and integration continues through it.

    The returned triple is normalised to max u = 1, carries dense-output
    profiles whose second derivatives come from the reduction itself, and
    records the trajectory's extremal structure.  The reduced system is
    homogeneous of degree one in (u, u'), so the normalised shot does not
    depend on kappa: it is integrated with u'(0) = 1, and the stored
    normalization_factor, scale / kappa, still maps the kappa shot to it.
    """
    if data.lambda_sign != +1:
        raise Refused("horizon shooting applies to positive cosmological "
                      "constant only (u has no zero level otherwise)")
    system = reduce_system(data.n, data.lambda_sign)
    unit = replace(data, kappa=1.0)
    rho0 = SERIES_HANDOFF * data.h0
    if not rho0 < MAX_ARCLENGTH:  # below, neither h0^2 nor rho0^3 overflows
        raise Refused(f"h0={data.h0:g} is too large to shoot: from h0 = "
                      f"{MAX_ARCLENGTH / SERIES_HANDOFF:g} the series "
                      f"starts at {SERIES_HANDOFF:g} h0, not below the "
                      f"arclength budget {MAX_ARCLENGTH:g}")
    h_floor = H_FLOOR_REL * data.h0
    # u falling to its floor (a second horizon) and h to its floor (a
    # collapsing warp) end the shot; u' falling through 0 marks an extremum
    events = ((2, U_FLOOR_REL * data.h0, True), (0, h_floor, True),
              (3, 0.0, False))
    sol, rho_end, (horizon_hits, _, extremal_rhos) = integrate(
        system.rhs, rho0, _series_state(unit, rho0), MAX_ARCLENGTH, events)
    if rho_end >= MAX_ARCLENGTH - 1e-12:
        raise Refused("no stop condition met within the arclength "
                      "budget; the trajectory may be blowing up")
    y_end = sol(rho_end)
    hit_second_horizon = bool(horizon_hits)

    # extrapolate across the stopping slivers
    if hit_second_horizon:
        # linear continuation to u = 0 (u'' vanishes at a horizon)
        gap = y_end[2] / abs(y_end[3])
        rho_bdry = rho_end + gap
        kappa2 = abs(y_end[3])
        radius2 = y_end[0] + y_end[1] * gap
    if extremal_rhos:
        rho_star = extremal_rhos[0]
        u_max = sol(rho_star)[2]
    elif not hit_second_horizon:
        # pole-terminated ball: continue u to the vertex of its parabola
        _, d2u_end = system.second_derivatives(*y_end)
        u_max = y_end[2] + y_end[3] * y_end[3] / (2.0 * abs(d2u_end))
    else:
        raise RuntimeError("reached a second horizon without an interior "
                           "extremum; trajectory is not a static solution")
    scale = 1.0 / u_max
    if not hit_second_horizon:
        dh_end, du_end = y_end[1], scale * y_end[3]
        if abs(dh_end + 1.0) > POLE_TOL or abs(du_end) > POLE_TOL:
            raise Refused(f"the shot closes at a singular pole: "
                          f"h'={dh_end:.6g} and u'={du_end:.6g} at its end, "
                          "where a smooth pole has -1 and 0")
    domain_end = rho_bdry if hit_second_horizon else rho_end

    # u and h are read in pairs at one point: the point read last is kept
    # with both rows, as one tuple so that a read sees one point's values
    last = [(math.nan, None, None)]

    def read(rho: float) -> tuple:
        h, dh, u, du = _series_state(unit, rho) if rho <= rho0 else sol(rho)
        d2h, d2u = system.second_derivatives(h, dh, u, du)
        last[0] = got = rho, (h, dh, d2h), (scale * u, scale * du, scale * d2u)
        return got

    def u_fn(rho: float) -> tuple[float, float, float]:
        got = last[0]
        return (got if got[0] == rho else read(rho))[2]

    def h_fn(rho: float) -> tuple[float, float, float]:
        got = last[0]
        return (got if got[0] == rho else read(rho))[1]

    if extremal_rhos:
        h_star = sol(rho_star)[0]
        if h_star > 10.0 * h_floor:
            extremum = Extremum(location=rho_star, count=None)
        else:
            extremum = Extremum(location=rho_star, count=1)
    else:
        extremum = Extremum(location=rho_end, count=1)

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
