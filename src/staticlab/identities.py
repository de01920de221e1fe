"""Quadrature verification of the integral identities.

Each identity equates boundary flux terms on level spheres with a bulk
integral over the region between them.  In the rotationally symmetric
setting the flux terms are closed-form sphere values and the bulk
integral is one call of `quadrature.adaptive` (Gauss-Kronrod) over one
radial interval, against the sphere-area density with its arclength
Jacobian, never in the conformal level coordinate (whose parametrization
degenerates at the extremal sphere).

The first and second identities share one slab body, `_slab_identity`,
which locates each end level once, takes both fluxes and the radial
interval from its records, and shares one record per quadrature node with
the other identities on that slab (`StaticTriple.slab_records`).  The
curvature-deficit identity reads no such table: its interval runs between
the level's two spheres, or from its one sphere to the extremum, 1e-9 of
the domain inside its ends.  Every identity is judged at `IDENTITY_TOL`.

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
    level_states,
    sphere_data,
    t_of_s,
)
from .quadrature import QuadratureConfig, adaptive
from .report import (IDENTITY_TOL, INEQ_TOL, IdentityReport,
                     identity_report, inequality_report)

DEFAULT_QUAD = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=100_000)


def _inv_sinh_n(triple: StaticTriple, u: float) -> float:
    if triple.lambda_sign > 0:
        return (1.0 - u * u) ** (triple.n / 2.0) / u ** triple.n
    return (u * u - 1.0) ** (triple.n / 2.0)


def _volume_density(sp: SphereData) -> float:
    """g0 volume per unit radial coordinate: |S^(n-1)| h^(n-1) drho/dx."""
    return sp.area * sp.arclength_jacobian


def _slab_identity(triple: StaticTriple, s: float, S: float,
                   branch: Optional[str], name: str, description: str,
                   flux: Callable[[Sequence[SphereData]], float],
                   integrand: Callable[[SphereData], float]
                   ) -> IdentityReport:
    """flux(S) - flux(s) against the integral of `integrand`, on the records
    of the triple's slab table, over {s < phi < S} on `branch`, each end
    located once; both may read n and lambda_sign, which a view shares."""
    if branch is not None:
        triple = triple.on_branch(branch)
    t_s, t_S = (t_of_s(tau, triple.lambda_sign) for tau in (s, S))
    if not 0.0 < s < S:
        raise ValueError("need 0 < s < S")
    at_s, at_S = level_states(triple, t_s), level_states(triple, t_S)
    if len(at_s) != 1 or len(at_S) != 1:
        raise ValueError("conformal slab must meet a single monotone branch; "
                         "pass branch='inner' or 'outer'")
    lhs = flux(at_S) - flux(at_s)
    a, b = sorted((at_s[0].x, at_S[0].x))
    records = triple.slab_records(a, b)

    def guarded(x: float) -> float:
        sp = records.get(x) or records.setdefault(x, sphere_data(triple, x))
        weighted = integrand(sp) * _volume_density(sp)
        try:
            return weighted / sp.D ** (triple.n / 2.0)
        except ZeroDivisionError:  # D^(n/2) underflowed: NaN fails the check
            return math.nan

    quad = adaptive(guarded, a, b, DEFAULT_QUAD)
    return identity_report(
        name=name, lhs=lhs, rhs=quad.value, tolerance=IDENTITY_TOL,
        assumptions=assumption_flags(triple), description=description,
        extra={"evaluations": quad.evaluations,
               "branch": triple.branch or "full"})


def _first_flux(triple: StaticTriple, p: float,
                spheres: Sequence[SphereData]) -> float:
    """Flux term of the first identity on a level's records: the integral of
    W^(p/2) / sinh(phi)^n w.r.t. the conformal area element.  Finite
    arbitrarily close to the extremal value: it reads nothing that refuses
    the band around it."""
    return sum(sp.W ** (p / 2.0) * sp.area_g * _inv_sinh_n(triple, sp.u)
               for sp in spheres)


def first_identity(triple: StaticTriple, p: float, s: float, S: float,
                   branch: Optional[str] = None) -> IdentityReport:
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

    def integrand(sp: SphereData) -> float:
        coth_phi = 1.0 / sp.u if triple.lambda_sign > 0 else sp.u
        core = ((p - 1) * (sp.W * sp.hess_phi_nn) + sp.W * sp.lap_phi
                - triple.n * coth_phi * sp.W ** 2)
        return sp.W ** ((p - 3) / 2.0) * core * _inv_sinh_n(triple, sp.u)

    return _slab_identity(
        triple, s, S, branch, f"first_integral_identity(p={p}, s={s}, S={S})",
        "weighted gradient-flux divergence identity on a conformal slab",
        lambda spheres: _first_flux(triple, p, spheres), integrand)


def second_identity(triple: StaticTriple, p: float, s: float, S: float,
                    branch: Optional[str] = None) -> IdentityReport:
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

    def minus_weighted_boundary(spheres: Sequence[SphereData]) -> float:
        # gamma first: it refuses the band around u = 1 before D is read
        return -sum(sp.gamma * sp.area_g * (
            sp.W ** ((p - 1) / 2.0) * sp.H_g
            - sp.W ** ((p - 2) / 2.0) * sp.lap_phi) for sp in spheres)

    def integrand(sp: SphereData) -> float:
        core = (sp.hess_phi_norm2 + (p - 3) * sp.hess_phi_nn ** 2
                + triple.n * sp.u ** 2 * sp.W * (1.0 - sp.W))
        return sp.gamma * sp.W ** ((p - 3) / 2.0) * core

    return _slab_identity(
        triple, s, S, branch,
        f"second_integral_identity(p={p}, s={s}, S={S})",
        "weighted Bochner divergence identity on a conformal slab",
        minus_weighted_boundary, integrand)


def curvature_deficit_identity(triple: StaticTriple,
                               t: float) -> IdentityReport:
    """Curvature-deficit flux identity (no assumptions needed):

        sum_{u=t} (1/u)(|Du|^2 H - ((n-1)/n)|Du| lap u)
            =  +- integral over the enclosed region of
               (1/u)(|D2u|^2 - (lap u)^2 / n),

    with + over {u > t} (positive constant; the region crosses the extremal
    sphere, where the integrand stays finite) and - over {u < t} (negative
    constant): the sign is `lambda_sign`.  The level is located once, and
    its records give the flux and the ends of the region.
    """
    n, spheres = triple.n, level_states(triple, t)

    def integrand(x: float) -> float:
        sp = sphere_data(triple, x)
        return (1.0 / sp.u) * (sp.hess_u_norm2 - sp.lap_u ** 2 / n) \
            * _volume_density(sp)

    lhs = sum(sp.area / sp.u * (sp.du ** 2 * sp.H
                                - (n - 1) / n * sp.grad_u * sp.lap_u)
              for sp in spheres)
    if len(spheres) == 2:
        a, b = (sp.x for sp in spheres)
    else:  # the one sphere and the extremum, inset from the domain's ends
        (sp0,) = spheres
        lo_dom, hi_dom = triple.domain
        inset = 1e-9 * (hi_dom - lo_dom)
        a, b = sorted((sp0.x, triple.extremum.location))
        a, b = max(a, lo_dom + inset), min(b, hi_dom - inset)
    quad = adaptive(integrand, a, b, DEFAULT_QUAD)
    return identity_report(
        name=f"curvature_deficit_identity(t={t})", lhs=lhs,
        rhs=triple.lambda_sign * quad.value, tolerance=IDENTITY_TOL,
        assumptions=assumption_flags(triple),
        description="flux of the trace-free Hessian deficit field against "
                    "its bulk integral",
        extra={"evaluations": quad.evaluations})


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
