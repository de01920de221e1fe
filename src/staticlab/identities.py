"""Quadrature verification of the integral identities.

Each identity equates boundary flux terms on level spheres with a bulk
integral over the region between them.  In the rotationally symmetric
setting the flux terms are closed-form sphere values and the bulk
integral is one call of `quadrature.adaptive` (Gauss-Kronrod) over one
radial interval, against the sphere-area density with its arclength
Jacobian, never in the conformal level coordinate (whose parametrization
degenerates at the extremal sphere).

The first and second identities share one slab body, `_slab_identity`,
which takes both fluxes and the radial interval from the records of the
two end levels.  The identities on one slab share its table, kept for
the last slab only in the `__dict__` of the triple the caller passed
(under "_slab", with its key (t_s, t_S, branch of the view), known before
any location).  The first report locates the ends and takes the
assumption flags, and by quadrature node builds the record, its volume
weight and D^(n/2); each identity reads its own terms of a node's record
once, into a tuple of floats that its reports share, computed in one
body from the record's fields and D (`_first_terms`, `_second_terms`,
which repeat W, lap phi and gamma inline).  The
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

from .geometry import (SphereData, StaticTriple, _hess_phi_nn, _hess_phi_norm2,
                       boundary_scalar_curvature, check_window)
from .levelset import (
    assumption_flags,
    conformal_boundary_data,
    horizon_integral,
    level_states,
    sphere_data,
    t_of_s,
)
from .quadrature import QuadratureConfig, QuadratureError, adaptive
from .report import (IDENTITY_TOL, INEQ_TOL, IdentityReport, Refused,
                     identity_report, inequality_report)

DEFAULT_QUAD = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=100_000)


def _inv_sinh_n(sp: SphereData) -> float:
    if sp.lambda_sign > 0:
        return (1.0 - sp.u * sp.u) ** (sp.n / 2.0) / sp.u ** sp.n
    return (sp.u * sp.u - 1.0) ** (sp.n / 2.0)


def _volume_density(sp: SphereData) -> float:
    """g0 volume per unit radial coordinate: |S^(n-1)| h^(n-1) drho/dx."""
    return sp.area * sp.arclength_jacobian


def _bulk(integrand: Callable, a: float, b: float) -> tuple[float, dict]:
    """The integral over [a, b] and the report's extra entry; where the
    budget runs out, NaN, which fails the report, and the reason."""
    try:
        quad = adaptive(integrand, a, b, DEFAULT_QUAD)
    except QuadratureError as exc:
        return math.nan, {"reason": str(exc)}
    return quad.value, {"evaluations": quad.evaluations}


def _slab_identity(triple: StaticTriple, s: float, S: float,
                   branch: Optional[str], name: str, description: str,
                   flux: Callable[[Sequence[SphereData]], float],
                   terms: Callable[[SphereData], tuple],
                   integrand: Callable[..., float]) -> IdentityReport:
    """flux(S) - flux(s) against the integral of `integrand(*terms)`, over
    {s < phi < S} on `branch`, from the slab's table: the first report on
    the slab locates its ends, builds each node's record and weights and
    takes the flags, and the first report that reads `terms` of a node
    keeps them under `terms` for the others.  The table holds plain data,
    no triple: `flux` and `terms` read n and lambda_sign from the
    records."""
    view = triple if branch is None else triple.on_branch(branch)
    t_s, t_S = (t_of_s(tau, triple.lambda_sign) for tau in (s, S))
    if not 0.0 < s < S:
        raise Refused("need 0 < s < S")
    key, kept = (t_s, t_S, view.branch), triple.__dict__.get("_slab")
    if kept is None or kept[0] != key:
        kept = triple.__dict__["_slab"] = key, {}
    table = kept[1]
    at_s, at_S = table.get("ends") or (level_states(view, t_s),
                                       level_states(view, t_S))
    if len(at_s) != 1 or len(at_S) != 1:
        raise Refused("conformal slab must meet a single monotone branch; "
                      "pass branch='inner' or 'outer'")
    table["ends"] = at_s, at_S
    lhs = flux(at_S) - flux(at_s)
    nodes, half_n = table.setdefault("nodes", {}), triple.n / 2.0
    read = table.setdefault(terms, {})

    def guarded(x: float) -> float:
        at_x = read.get(x)  # (terms of the record, volume weight, D^(n/2))
        if at_x is None:
            node = nodes.get(x)  # (record, volume weight, D^(n/2))
            sp = sphere_data(view, x) if node is None else node[0]
            values = terms(sp)  # the terms refuse before the weights
            if node is None:
                node = nodes[x] = sp, _volume_density(sp), sp.D ** half_n
            at_x = read[x] = values, node[1], node[2]
        values, weight, d_half_n = at_x
        value = integrand(*values)
        try:
            return value * weight / d_half_n
        except ZeroDivisionError:  # D^(n/2) underflowed: NaN fails the check
            return math.nan

    rhs, extra = _bulk(guarded, *sorted((at_s[0].x, at_S[0].x)))
    if "flags" not in table:
        table["flags"] = assumption_flags(view)
    return identity_report(
        name=name, lhs=lhs, rhs=rhs, tolerance=IDENTITY_TOL,
        assumptions=dict(table["flags"]), description=description,
        extra={**extra, "branch": view.branch or "full"})


def _first_flux(p: float, spheres: Sequence[SphereData]) -> float:
    """Flux term of the first identity on a level's records: the integral of
    W^(p/2) / sinh(phi)^n w.r.t. the conformal area element.  Finite
    arbitrarily close to the extremal value: it reads nothing that refuses
    the band around it."""
    return sum(sp.W ** (p / 2.0) * sp.area_g * _inv_sinh_n(sp)
               for sp in spheres)


def _first_terms(sp: SphereData) -> tuple:
    """What the first integrand reads of a node's record, from its fields:
    coth(phi), W (so D refuses first), hess phi(nu_g, nu_g), lap phi (after
    the band) and 1/sinh(phi)^n."""
    u = sp.u
    coth_phi, du2, d = 1.0 / u if sp.lambda_sign > 0 else u, sp.du ** 2, sp.D
    w_norm = du2 / d  # `SphereData.W`
    hess_nn = _hess_phi_nn(sp, d)
    check_window(u)  # then `SphereData.lap_phi`
    return (coth_phi, w_norm, hess_nn, -sp.n * u * (1.0 - w_norm),
            _inv_sinh_n(sp))


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
        raise Refused("asserted for p >= 1")

    n, exponent = triple.n, (p - 3) / 2.0

    def integrand(coth_phi: float, w_norm: float, hess_nn: float,
                  lap_phi: float, inv_sinh_n: float) -> float:
        core = ((p - 1) * (w_norm * hess_nn) + w_norm * lap_phi
                - n * coth_phi * w_norm ** 2)
        return w_norm ** exponent * core * inv_sinh_n

    return _slab_identity(
        triple, s, S, branch, f"first_integral_identity(p={p}, s={s}, S={S})",
        "weighted gradient-flux divergence identity on a conformal slab",
        lambda spheres: _first_flux(p, spheres), _first_terms,
        integrand)


def _second_terms(sp: SphereData) -> tuple:
    """What the second integrand reads of a node's record, from its fields:
    |hess phi|^2 (so the band refuses first, then D), hess phi(nu_g, nu_g),
    u, W and gamma."""
    u = sp.u
    check_window(u)
    du2, d = sp.du ** 2, sp.D
    w_norm = du2 / d  # `SphereData.W`
    return (_hess_phi_norm2(sp, w_norm), _hess_phi_nn(sp, d), u, w_norm,
            d ** ((sp.n + 2) / 2.0) / u)  # `SphereData.gamma`


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
        raise Refused("asserted for p >= 3")

    def minus_weighted_boundary(spheres: Sequence[SphereData]) -> float:
        # gamma first: it refuses the band around u = 1 before D is read
        return -sum(sp.gamma * sp.area_g * (
            sp.W ** ((p - 1) / 2.0) * sp.H_g
            - sp.W ** ((p - 2) / 2.0) * sp.lap_phi) for sp in spheres)

    def integrand(hess_norm2: float, hess_nn: float, u: float, w_norm: float,
                  gamma: float) -> float:
        core = (hess_norm2 + (p - 3) * hess_nn ** 2
                + triple.n * u ** 2 * w_norm * (1.0 - w_norm))
        return gamma * w_norm ** ((p - 3) / 2.0) * core

    return _slab_identity(
        triple, s, S, branch,
        f"second_integral_identity(p={p}, s={s}, S={S})",
        "weighted Bochner divergence identity on a conformal slab",
        minus_weighted_boundary, _second_terms, integrand)


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
    rhs, extra = _bulk(integrand, a, b)
    return identity_report(
        name=f"curvature_deficit_identity(t={t})", lhs=lhs,
        rhs=triple.lambda_sign * rhs, tolerance=IDENTITY_TOL,
        assumptions=assumption_flags(triple),
        description="flux of the trace-free Hessian deficit field against "
                    "its bulk integral",
        extra=extra)


def boundary_curvature_inequality(triple: StaticTriple) -> IdentityReport:
    """Boundary form of the curvature-deficit identity.

    Positive constant: the `horizon_integral` over every horizon of the
    solution (on a view too) of |Du| [(n-1)(n-2) - R_bdry] <= 0, i.e. the
    weighted boundary scalar curvature dominates its round value; equality
    exactly in the round rigid case.  Negative constant: the
    conformal-boundary counterpart integral of [(n-1)(n-2) - R_g_bdry] >= 0
    under the vanishing gradient limit, with equality in the rigid case.
    """
    n = triple.n
    flags = assumption_flags(triple)
    if triple.lambda_sign > 0:
        lhs = horizon_integral(n, triple.boundaries, lambda c: (
            c.surface_gravity * (n - 1) * (n - 2)))
        rhs = horizon_integral(n, triple.boundaries, lambda c: (
            c.surface_gravity * boundary_scalar_curvature(n, c)))
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
