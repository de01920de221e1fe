"""Quadrature verification of the integral identities.

Each identity equates boundary flux terms on level spheres with a bulk
integral over the region between them.  In the rotationally symmetric
setting the flux terms are closed-form sphere values and every bulk
integral reduces to one radial quadrature against the sphere-area density;
integration is always performed in the native radial coordinate with its
arclength Jacobian, never in the conformal level coordinate (whose
parametrization degenerates at the extremal sphere).

Conventions: phi denotes the conformal level coordinate, W = |grad phi|_g^2,
and for a level value tau the weights are

    1/sinh(phi)^n  =  (1-u^2)^(n/2) / u^n     (positive constant)
                   =  (u^2-1)^(n/2)           (negative constant)
    gamma(phi)     =  |1-u^2|^((n+2)/2) / u   (both cases)
    coth(phi)      =  1/u  or  u.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .geometry import (SphereData, StaticTriple, boundary_scalar_curvature,
                       sphere_area)
from .levelset import (
    assumption_flags,
    conformal_boundary_data,
    level_radii,
    level_spheres,
    sphere_data,
    t_of_s,
)
from .quadrature import QuadratureConfig, adaptive, composite_simpson
from .report import (IDENTITY_TOL, INEQ_TOL, IdentityReport,
                     identity_report, inequality_report)

DEFAULT_QUAD = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=100_000)


def _inv_sinh_n(triple: StaticTriple, u: float) -> float:
    if triple.lambda_sign > 0:
        return (1.0 - u * u) ** (triple.n / 2.0) / u ** triple.n
    return (u * u - 1.0) ** (triple.n / 2.0)


def _coth_phi(triple: StaticTriple, u: float) -> float:
    return 1.0 / u if triple.lambda_sign > 0 else u


def _integrate(f: Callable[[float], float],
               intervals: Sequence[tuple[float, float]],
               panels: Optional[int]) -> tuple[float, int]:
    """The summed quadrature of f over radial intervals, and its evaluations;
    the sum starts from the first value, so a lone -0.0 keeps its sign."""
    quads = [composite_simpson(f, a, b, panels) if panels is not None
             else adaptive(f, a, b, DEFAULT_QUAD) for a, b in intervals]
    return (sum((q.value for q in quads[1:]), quads[0].value),
            sum(q.evaluations for q in quads))


def _volume_density(sp: SphereData) -> float:
    """g0 volume per unit radial coordinate: |S^(n-1)| h^(n-1) drho/dx."""
    return sp.area * sp.arclength_jacobian


def _conformal_region(triple: StaticTriple, s: float,
                      S: float) -> list[tuple[float, float]]:
    """The radial interval of the slab {s < phi < S} on a branch, as a
    one-interval list."""
    if not 0.0 < s < S:
        raise ValueError("need 0 < s < S")
    xs = level_radii(triple, t_of_s(s, triple.lambda_sign))
    xS = level_radii(triple, t_of_s(S, triple.lambda_sign))
    if len(xs) != 1 or len(xS) != 1:
        raise ValueError("conformal slab must meet a single monotone branch; "
                         "pass branch='inner' or 'outer'")
    return [(min(xs[0], xS[0]), max(xs[0], xS[0]))]


def first_identity_flux(triple: StaticTriple, p: float, tau: float) -> float:
    """Flux term of the first identity at the level {phi = tau}:
    integral of W^(p/2) / sinh(phi)^n over the level, w.r.t. the conformal
    area element.  Stays finite arbitrarily close to the extremal value, so
    it reads nothing that refuses the band around it."""
    t = t_of_s(tau, triple.lambda_sign)
    total = 0.0
    for x in level_radii(triple, t):
        sp = sphere_data(triple, x)
        total += sp.W ** (p / 2.0) * sp.area_g * _inv_sinh_n(triple, sp.u)
    return total


def first_identity(triple: StaticTriple, p: float, s: float, S: float,
                   branch: Optional[str] = None,
                   panels: Optional[int] = None,
                   tolerance: float = IDENTITY_TOL) -> IdentityReport:
    """Divergence identity for the field W^((p-1)/2) grad phi / sinh(phi)^n
    on the slab {s < phi < S}:

        flux(S) - flux(s)  =  bulk integral of
        W^((p-3)/2) [ (p-1) hess phi(grad phi, grad phi) + W lap phi
                      - n coth(phi) W^2 ] / sinh(phi)^n.

    Valid for every p >= 1.  A `branch` ("inner" or "outer") restricts the
    triple to that branch (`StaticTriple.on_branch`).
    """
    if p < 1:
        raise ValueError("asserted for p >= 1")
    if branch is not None:
        triple = triple.on_branch(branch)
    lhs = (first_identity_flux(triple, p, S)
           - first_identity_flux(triple, p, s))

    def integrand(x: float) -> float:
        sp = sphere_data(triple, x)
        hess_term = sp.W * sp.hess_phi_nn
        core = ((p - 1) * hess_term + sp.W * sp.lap_phi
                - triple.n * _coth_phi(triple, sp.u) * sp.W ** 2)
        try:
            return (sp.W ** ((p - 3) / 2.0) * core * _inv_sinh_n(triple, sp.u)
                    * _volume_density(sp) / sp.D ** (triple.n / 2.0))
        except ZeroDivisionError:  # D^(n/2) underflowed: NaN fails the check
            return math.nan

    rhs, evals = _integrate(integrand, _conformal_region(triple, s, S), panels)
    return identity_report(
        name=f"first_integral_identity(p={p}, s={s}, S={S})",
        lhs=lhs, rhs=rhs, tolerance=tolerance,
        assumptions=assumption_flags(triple),
        description="weighted gradient-flux divergence identity on a "
                    "conformal slab",
        extra={"evaluations": evals, "branch": triple.branch or "full"})


def second_identity(triple: StaticTriple, p: float, s: float, S: float,
                    branch: Optional[str] = None,
                    panels: Optional[int] = None,
                    tolerance: float = IDENTITY_TOL) -> IdentityReport:
    """Weighted Bochner identity for p >= 3 on the slab {s < phi < S}:

        gamma(s) B(s) - gamma(S) B(S)  =  bulk integral of
        gamma(phi) W^((p-3)/2) [ |hess phi|^2 + (p-3) |grad |grad phi||^2
                                 + n u^2 W (1 - W) ],

    where B(tau) integrates W^((p-1)/2) H_g - W^((p-2)/2) lap phi over the
    level.  The right side is nonnegative under the gradient estimate, which
    is what makes the level integrals monotone.  A `branch` restricts the
    triple as in `first_identity`.
    """
    if p < 3:
        raise ValueError("asserted for p >= 3")
    if branch is not None:
        triple = triple.on_branch(branch)

    def weighted_boundary(tau: float) -> float:
        t = t_of_s(tau, triple.lambda_sign)
        total = 0.0
        for sp in level_spheres(triple, t):
            total += sp.area_g * sp.gamma * (
                sp.W ** ((p - 1) / 2.0) * sp.H_g
                - sp.W ** ((p - 2) / 2.0) * sp.lap_phi)
        return total

    lhs = weighted_boundary(s) - weighted_boundary(S)

    def integrand(x: float) -> float:
        sp = sphere_data(triple, x)
        core = (sp.hess_phi_norm2 + (p - 3) * sp.hess_phi_nn ** 2
                + triple.n * sp.u ** 2 * sp.W * (1.0 - sp.W))
        try:
            return (sp.gamma * sp.W ** ((p - 3) / 2.0) * core
                    * _volume_density(sp) / sp.D ** (triple.n / 2.0))
        except ZeroDivisionError:  # D^(n/2) underflowed: NaN fails the check
            return math.nan

    rhs, evals = _integrate(integrand, _conformal_region(triple, s, S), panels)
    return identity_report(
        name=f"second_integral_identity(p={p}, s={s}, S={S})",
        lhs=lhs, rhs=rhs, tolerance=tolerance,
        assumptions=assumption_flags(triple),
        description="weighted Bochner divergence identity on a conformal "
                    "slab",
        extra={"evaluations": evals, "branch": triple.branch or "full"})


def _deficit_flux(triple: StaticTriple, t: float) -> float:
    """Flux integrand of the curvature-deficit identity on {u = t}:
    sum over the level of (1/u)(|Du|^2 H - ((n-1)/n) |Du| lap u)."""
    n = triple.n
    total = 0.0
    for x in level_radii(triple, t):
        sp = sphere_data(triple, x)
        total += sp.area / sp.u * (sp.du ** 2 * sp.H
                                   - (n - 1) / n * sp.grad_u * sp.lap_u)
    return total


def curvature_deficit_identity(triple: StaticTriple, t: float,
                 t_upper: Optional[float] = None,
                 panels: Optional[int] = None,
                 tolerance: float = IDENTITY_TOL) -> IdentityReport:
    """Curvature-deficit flux identity (no assumptions needed):

        sum_{u=t} (1/u)(|Du|^2 H - ((n-1)/n)|Du| lap u)
            =  +- integral over the enclosed region of
               (1/u)(|D2u|^2 - (lap u)^2 / n),

    with + over {u > t} (positive constant; the region crosses the extremal
    sphere, where the integrand stays finite) and - over {u < t} (negative
    constant).  With t_upper given, the truncated version over
    {t < u < t_upper} subtracts the upper flux instead.
    """
    n = triple.n

    def integrand(x: float) -> float:
        sp = sphere_data(triple, x)
        return (1.0 / sp.u) * (sp.hess_u_norm2 - sp.lap_u ** 2 / n) \
            * _volume_density(sp)

    lhs = _deficit_flux(triple, t)
    radii = level_radii(triple, t)
    sign = 1.0 if t_upper is not None or triple.lambda_sign > 0 else -1.0
    if t_upper is not None:
        lhs -= _deficit_flux(triple, t_upper)
        radii_up = level_radii(triple, t_upper)
        if len(radii) != len(radii_up):
            raise ValueError("levels straddle the extremal sphere unevenly")
        if len(radii) == 2:  # one sub-annulus per monotone branch
            intervals = [(radii[0], radii_up[0]), (radii_up[1], radii[1])]
        else:
            intervals = [tuple(sorted((radii[0], radii_up[0])))]
    elif len(radii) == 2:
        intervals = [radii]
    else:
        # region between the level and the extremum-side end of the domain
        (x0,) = radii
        lo_dom, hi_dom = triple.domain
        inset = 1e-9 * (hi_dom - lo_dom)
        a, b = sorted((x0, triple.extremum.location))
        intervals = [(max(a, lo_dom + inset), min(b, hi_dom - inset))]
    rhs, evals = _integrate(integrand, intervals, panels)
    return identity_report(
        name=f"curvature_deficit_identity(t={t}"
             + (f", t_upper={t_upper})" if t_upper is not None else ")"),
        lhs=lhs, rhs=sign * rhs, tolerance=tolerance,
        assumptions=assumption_flags(triple),
        description="flux of the trace-free Hessian deficit field against "
                    "its bulk integral",
        extra={"evaluations": evals})


def boundary_curvature_inequality(triple: StaticTriple) -> IdentityReport:
    """Boundary form of the curvature-deficit identity.

    Positive constant:  integral over the horizon of
    |Du| [(n-1)(n-2) - R_bdry] <= 0, i.e. the weighted boundary scalar
    curvature dominates its round value; equality exactly in the round
    rigid case.  Negative constant: the conformal-boundary counterpart
    integral of [(n-1)(n-2) - R_g_bdry] >= 0 under the vanishing gradient
    limit, with equality in the rigid case.
    """
    n = triple.n
    flags = assumption_flags(triple)
    if triple.lambda_sign > 0:
        if not triple.boundaries:
            raise ValueError("triple has no boundary")
        lhs = rhs = 0.0
        for c in triple.boundaries:
            area = sphere_area(n, c.sphere_radius)
            lhs += c.surface_gravity * (n - 1) * (n - 2) * area
            rhs += c.surface_gravity * boundary_scalar_curvature(n, c) * area
        applicable, where = True, "horizon-weighted boundary"
    else:
        bdry = conformal_boundary_data(triple)
        lhs = bdry.scalar_g_boundary * bdry.area_g
        rhs = (n - 1) * (n - 2) * bdry.area_g
        applicable = flags.get("gradient_limit_zero", False)
        where = "conformal-boundary"
    return inequality_report(
        name="boundary_curvature_inequality", lhs=lhs, rhs=rhs,
        tolerance=INEQ_TOL, assumptions=flags, applicable=applicable,
        description=f"{where} scalar curvature vs its round value",
        extra={"value": rhs - lhs})
