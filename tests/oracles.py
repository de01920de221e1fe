"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own code paths: curvature
comes from finite differences of the metric in explicit nested-sphere
coordinates, roots from plain bisection, and arclength from quadrature of
the metric coefficient, one scalar `adaptive` call per segment.  The tests
compare library output against these.  Three more residents serve as
references that no command needs:

- `composite_simpson`, a fixed-grid rule of known order: substituted for
  `adaptive`, it shows each identity's residual shrinking with the grid;
- `surface_gravity`, a Richardson estimate of |Du| at a boundary
  component from the profile, against the gravity each model stores in
  closed form;
- `s_of_t`, the conformal level coordinate of a level t, the inverse of
  `levelset.t_of_s`.

`in_arclength` and `hemisphere_in_arclength` build non-solutions: a
model's metric in the arclength chart with another potential, which an
areal triple, whose record reads u = c sqrt(f) from f alone, cannot carry.
"""

from __future__ import annotations

import dataclasses
import math

from staticlab.geometry import RadialProfile
from staticlab.quadrature import QuadratureConfig, QuadResult, adaptive


def composite_simpson(f, a: float, b: float, panels: int) -> QuadResult:
    """Composite Simpson rule on `panels` uniform panels (2*panels+1 points)."""
    if panels < 1:
        raise ValueError("panels must be >= 1")
    m = 2 * panels
    hstep = (b - a) / m
    total = f(a) + f(b)
    for i in range(1, m):
        total += f(a + i * hstep) * (4.0 if i % 2 == 1 else 2.0)
    return QuadResult(total * hstep / 3.0, math.nan, m + 1)


def surface_gravity(triple, component) -> float:
    """One-sided limit of |Du| at a boundary component.

    |Du| extends smoothly across a horizon, so two evaluations just inside
    the boundary with a Richardson step remove the O(delta) term.
    """
    lo, hi = triple.domain
    span = hi - lo
    delta = 1e-5 * span
    loc = component.location
    sgn = 1.0 if abs(loc - lo) < abs(loc - hi) else -1.0
    if triple.lambda_sign > 0:
        u_near = triple.u.value(loc + sgn * 1e-9 * span)
        if abs(u_near) > 1e-2:
            raise ValueError(
                f"u does not vanish at the boundary component at {loc}")
    g1 = abs(triple.radial_state(loc + sgn * delta).du)
    g2 = abs(triple.radial_state(loc + sgn * 0.5 * delta).du)
    return 2.0 * g2 - g1


def in_arclength(triple, rho_end: float, radius, potential, **changes):
    """`triple` in an arclength chart rho on (0, rho_end), with the warping
    radius h = `radius(rho)` and the potential u = `potential(rho)`, each
    giving (value, d/drho, d2/drho2), and no f; `changes` replace further
    fields."""
    domain = (0.0, rho_end)
    return dataclasses.replace(triple, u=RadialProfile(domain, potential),
                               h=RadialProfile(domain, radius), f=None,
                               **changes)


def hemisphere_in_arclength(ds, potential):
    """The round hemisphere of de Sitter `ds` in the chart rho = asin(r) on
    (0, pi/2), h = sin(rho), its horizon at rho = pi/2, with the potential
    `potential(rho)`: de Sitter's own is cos(rho)."""
    half = 0.5 * math.pi
    (b,) = ds.boundaries
    return in_arclength(
        ds, half, lambda rho: (math.sin(rho), math.cos(rho), -math.sin(rho)),
        potential, boundaries=(dataclasses.replace(b, location=half),))


def s_of_t(t: float) -> float:
    """Conformal level coordinate s = (1/2) log|(1+t)/(1-t)|."""
    return 0.5 * math.log(abs((1.0 + t) / (1.0 - t)))


def bisect_bracket(fn, lo: float, hi: float,
                   iters: int = 200) -> tuple[float, float]:
    """The sign-change bracket of fn, halved until its ends are adjacent
    floats (or `iters` halvings are spent)."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    lo, hi = bisect_bracket(fn, lo, hi, iters)
    return 0.5 * (lo + hi)


def sds_horizon_data(n: int, m: float):
    """Roots and surface gravities of f = 1 - r^2 - 2 m r^(2-n), by bisection."""
    def f(r):
        return 1.0 - r * r - 2.0 * m * r ** (2 - n)

    def fp(r):
        return -2.0 * r + 2.0 * m * (n - 2) * r ** (1 - n)

    r0 = (m * (n - 2)) ** (1.0 / n)
    r1 = bisect(f, 1e-12, r0)
    r2 = bisect(f, r0, 1.0)
    f0 = f(r0)
    kappa1 = abs(fp(r1)) / (2.0 * math.sqrt(f0))
    kappa2 = abs(fp(r2)) / (2.0 * math.sqrt(f0))
    return r0, r1, r2, f0, kappa1, kappa2


def five_point_derivative(fn, t: float, step: float) -> float:
    """The centred five-point difference of fn at t, error O(step^4)."""
    return (fn(t - 2 * step) - 8 * fn(t - step) + 8 * fn(t + step)
            - fn(t + 2 * step)) / (12.0 * step)


def sds_outer_up_reference(n: int, m: float, p: float, t: float,
                           dps: int = 50):
    """U_p(t) and U_p'(t) on the outer branch of Schwarzschild-de Sitter at
    `dps` digits, as mpmath numbers.  The level r(t) solves
    f(r) = t^2 f(r0) between r0 and 1; there h = r and
    |u'| = sqrt(f) |du/dr| = |f'(r)| / (2 sqrt(f(r0))), so

        U_p(t) = |S^(n-1)| (1 - t^2)^(-(n+p-1)/2) r^(n-1) |u'|^p,

    and the derivative is mpmath's numerical one of that."""
    import mpmath

    with mpmath.workdps(dps):
        m, t = mpmath.mpf(m), mpmath.mpf(t)
        r0 = (m * (n - 2)) ** (mpmath.mpf(1) / n)

        def f(r):
            return 1 - r * r - 2 * m * r ** (2 - n)

        def fp(r):
            return -2 * r + 2 * m * (n - 2) * r ** (1 - n)

        f0 = f(r0)
        area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(
            mpmath.mpf(n) / 2)

        def up(tt):
            r = mpmath.findroot(lambda x: f(x) - tt * tt * f0, (r0, 1),
                                solver="anderson")
            grad = abs(fp(r)) / (2 * mpmath.sqrt(f0))
            return (area * (1 - tt * tt) ** (-mpmath.mpf(n + p - 1) / 2)
                    * r ** (n - 1) * grad ** p)

        return up(t), mpmath.diff(up, t)


def arclength_from_horizon(f, fprime, rh: float, r: float) -> float:
    """rho(r) = int_rh^r dr'/sqrt(f), regularised by r' = rh + xi^2."""
    cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11, max_evals=100_000)

    def integrand(xi):
        ff = f(rh + xi * xi)
        if ff <= 0.0:
            return 2.0 / math.sqrt(fprime(rh))
        return 2.0 * xi / math.sqrt(ff)

    return adaptive(integrand, 0.0, math.sqrt(r - rh), cfg).value


def arclength_reference(triple, samples: int):
    """rho = int dr/sqrt(f) on `to_arclength`'s grid, one `adaptive` call per
    segment summed in order.  Returns (r_grid, per-segment values, rho)."""
    import numpy as np
    from staticlab.geometry import ARCLENGTH_MARGIN
    lo, hi = triple.domain
    span = hi - lo
    a, b = lo + ARCLENGTH_MARGIN * span, hi - ARCLENGTH_MARGIN * span
    s = np.linspace(0.0, 1.0, samples)
    r_grid = a + (b - a) * 0.5 * (1.0 - np.cos(math.pi * s))
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_evals=20_000)
    seg = np.empty(samples - 1)
    rho = np.empty_like(r_grid)
    rho[0] = 0.0

    def jacobian(r):  # 1/sqrt(f), refused where f is not positive or NaN
        fval = triple.f(r)[0]
        if not fval > 0.0:
            raise ValueError(f"metric function not positive at x={r}")
        return 1.0 / math.sqrt(fval)

    for i in range(1, len(r_grid)):
        seg[i - 1] = adaptive(jacobian, r_grid[i - 1], r_grid[i], cfg).value
        rho[i] = rho[i - 1] + seg[i - 1]
    return r_grid, seg, rho


def gauss_kronrod_15(dps: int = 50):
    """The (7, 15) Gauss-Kronrod rule on [-1, 1] at `dps` digits, as mpmath
    numbers: (Kronrod abscissae >= 0 in decreasing order, their Kronrod
    weights, the Gauss weights of abscissae 1, 3, 5, 7).

    The Gauss abscissae are the roots of P_7 and their weights
    2 / ((1 - x^2) P_7'(x)^2).  The added Kronrod abscissae are the roots of
    the Stieltjes polynomial E_8 = x^8 + a6 x^6 + a4 x^4 + a2 x^2 + a0,
    orthogonal to x^k P_7 for k < 8 (exact rational arithmetic; the even k
    hold by parity), and the Kronrod weights solve the moment equations
    sum_j w_j x_j^(2i) = 2/(2i+1), i < 8.
    """
    from fractions import Fraction

    import mpmath

    p7 = {7: Fraction(429, 16), 5: Fraction(-693, 16), 3: Fraction(315, 16),
          1: Fraction(-35, 16)}

    def moment(j):
        return Fraction(0) if j % 2 else Fraction(2, j + 1)

    def against_p7(power, k):  # int x^power P_7 x^k over [-1, 1]
        return sum(c * moment(power + q + k) for q, c in p7.items())

    # E_8's coefficients a6, a4, a2, a0 by Gauss-Jordan on rationals
    rows = [[against_p7(p, k) for p in (6, 4, 2, 0)] + [-against_p7(8, k)]
            for k in (1, 3, 5, 7)]
    for i in range(4):
        piv = next(r for r in range(i, 4) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        for r in range(4):
            if r != i:
                fac = rows[r][i] / rows[i][i]
                rows[r] = [x - fac * y for x, y in zip(rows[r], rows[i])]
    e8 = {8: Fraction(1)}
    e8.update({p: rows[i][4] / rows[i][i] for i, p in enumerate((6, 4, 2, 0))})

    with mpmath.workdps(dps):
        def poly(coef, x, deriv=False):
            return sum(mpmath.mpf(c.numerator) / c.denominator
                       * (p * x ** (p - 1) if deriv else x ** p)
                       for p, c in coef.items() if p or not deriv)

        def roots(coef, seeds):
            return [mpmath.findroot(lambda x: poly(coef, x), s) for s in seeds]

        gauss = roots(p7, (0.95, 0.74, 0.41)) + [mpmath.mpf(0)]
        added = roots(e8, (0.99, 0.86, 0.59, 0.21))
        xgk = sorted(gauss[:3] + added, reverse=True) + [mpmath.mpf(0)]
        vander = mpmath.matrix([[(2 if j < 7 else 1) * xgk[j] ** (2 * i)
                                 for j in range(8)] for i in range(8)])
        wgk = mpmath.lu_solve(vander, mpmath.matrix(
            [mpmath.mpf(2) / (2 * i + 1) for i in range(8)]))
        wg = [2 / ((1 - x * x) * poly(p7, x, deriv=True) ** 2) for x in gauss]
        return xgk, list(wgk), wg


# --------------------------------------------------------------------------
# finite-difference curvature for g = drho^2 + h(rho)^2 g_{S^(n-1)}

def _metric(n: int, h_of_rho, x: np.ndarray) -> np.ndarray:
    import numpy as np
    g = np.zeros((n, n))
    g[0, 0] = 1.0
    hh = h_of_rho(x[0]) ** 2
    s = 1.0
    for i in range(1, n):
        g[i, i] = hh * s
        s *= math.sin(x[i]) ** 2
    return g


def _christoffel(n: int, h_of_rho, x: np.ndarray, step: float) -> np.ndarray:
    import numpy as np
    dg = np.zeros((n, n, n))
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += step
        xm[k] -= step
        dg[k] = (_metric(n, h_of_rho, xp) - _metric(n, h_of_rho, xm)) / (2 * step)
    ginv = np.linalg.inv(_metric(n, h_of_rho, x))
    gamma = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = 0.0
                for d in range(n):
                    acc += ginv[a, d] * (dg[b][c, d] + dg[c][b, d] - dg[d][b, c])
                gamma[a, b, c] = 0.5 * acc
    return gamma


def numeric_curvature(n: int, h_of_rho, u_of_rho, rho: float,
                      thetas: np.ndarray, step: float = 3e-5) -> dict:
    """Ricci (radial/tangential eigenvalues), scalar curvature, and the
    Hessian data of a radial u, all by finite differences of the metric."""
    import numpy as np
    x = np.concatenate(([rho], thetas))
    g = _metric(n, h_of_rho, x)
    ginv = np.linalg.inv(g)
    gamma = _christoffel(n, h_of_rho, x, step)
    dgamma = np.zeros((n, n, n, n))
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += step
        xm[k] -= step
        dgamma[k] = (_christoffel(n, h_of_rho, xp, step)
                     - _christoffel(n, h_of_rho, xm, step)) / (2 * step)
    ric = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            acc = 0.0
            for c in range(n):
                acc += dgamma[c][c, a, b] - dgamma[a][c, c, b]
                for d in range(n):
                    acc += (gamma[c, c, d] * gamma[d, a, b]
                            - gamma[c, a, d] * gamma[d, c, b])
            ric[a, b] = acc
    scalar = float(np.sum(ginv * ric))

    # Hessian of the radial function u
    du = np.zeros(n)
    du[0] = (u_of_rho(rho + step) - u_of_rho(rho - step)) / (2 * step)
    d2u_rr = (u_of_rho(rho + step) - 2 * u_of_rho(rho)
              + u_of_rho(rho - step)) / step ** 2
    hess = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            hess[a, b] = (d2u_rr if a == b == 0 else 0.0) \
                - gamma[0, a, b] * du[0]
    lap = float(np.sum(ginv * hess))
    hess_norm2 = float(np.einsum("ac,bd,ab,cd->", ginv, ginv, hess, hess))
    return {
        "ric_rr": float(ric[0, 0]),
        "ric_tan": float(ric[1, 1] / g[1, 1]),
        "scalar": scalar,
        "hess_u_rr": float(hess[0, 0]),
        "hess_u_tan": float(hess[1, 1] / g[1, 1]),
        "lap_u": lap,
        "hess_u_norm2": hess_norm2,
    }
