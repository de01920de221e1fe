"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own code paths: curvature
comes from finite differences of the metric in explicit nested-sphere
coordinates, roots from plain bisection, and arclength from quadrature of
the metric coefficient.  The tests compare library output against these.
"""

from __future__ import annotations

import math

import numpy as np

from staticlab.quadrature import QuadratureConfig, adaptive


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


def arclength_from_horizon(f, fprime, rh: float, r: float) -> float:
    """rho(r) = int_rh^r dr'/sqrt(f), regularised by r' = rh + xi^2."""
    cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)

    def integrand(xi):
        ff = f(rh + xi * xi)
        if ff <= 0.0:
            return 2.0 / math.sqrt(fprime(rh))
        return 2.0 * xi / math.sqrt(ff)

    return adaptive(integrand, 0.0, math.sqrt(r - rh), cfg).value


# --------------------------------------------------------------------------
# finite-difference curvature for g = drho^2 + h(rho)^2 g_{S^(n-1)}

def _metric(n: int, h_of_rho, x: np.ndarray) -> np.ndarray:
    g = np.zeros((n, n))
    g[0, 0] = 1.0
    hh = h_of_rho(x[0]) ** 2
    s = 1.0
    for i in range(1, n):
        g[i, i] = hh * s
        s *= math.sin(x[i]) ** 2
    return g


def _christoffel(n: int, h_of_rho, x: np.ndarray, step: float) -> np.ndarray:
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
