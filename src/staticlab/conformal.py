"""The cylindrical conformal change and its pointwise identities.

For a solution with positive cosmological constant set

    g = g0 / (1 - u^2),    phi = (1/2) log((1+u)/(1-u)),    u = tanh(phi),

and for negative

    g = g0 / (u^2 - 1),    phi = (1/2) log((u+1)/(u-1)),    u = coth(phi).

Writing D = |1 - u^2| for the conformal denominator and W = |Du|^2 / D, the
dictionaries used below are

    |grad phi|_g^2      = W
    |hess phi|_g^2      = |D2u|^2 + n u^2 W (W - 2)
    lap_g phi           = -n u (1 - W)                     (on solutions)
    R_g / (n-1)         = (n-2) + (n u^2 + 2)(1 - W)
    H_g                 = sqrt(D) [ +-H + (n-1) u |Du| / D ]

with the upper sign for positive constant.  In both cases du/dphi = 1 - u^2,
beta(phi) = D and gamma(phi) = D^((n+2)/2) / u, which is what makes the
weighted divergence identities take one common form.

Everything is computed from g0-side quantities through these dictionaries;
no second metric representation is ever stored.  The dictionary entries
are properties of the pointwise record `geometry.SphereData`, next to D, W
and the curvature of g0, computed on each read from its fields, the radial
state (u, u', u'', h, h', h''); each refuses the band |u - 1| <
EXTREMUM_BAND, and `to_conformal` returns the record of a point outside it.

This module holds the conformal identities that read the record.  The five
pointwise residuals (quasi-Einstein, Bochner, drift equation for w, trace
identity, mean-curvature relation) each read one record and evaluate no
profile again; `sample_points_off_extremum` returns the sample's records.
The radial derivatives W', W'', w' and w'' are closed forms in u, u', u''
and u''' (`_radial_derivatives`), with u''' from the potential equation
differentiated once.  They and Ric_g's components are computed by each
residual that reads them: two residuals read each, and a record keeps
nothing.
"""

from __future__ import annotations

import math

from .geometry import (  # the record's names stay bound here for readers
    EXTREMUM_BAND,
    INTERIOR_PAD,
    SphereData,
    StaticTriple,
    check_window,
    linspace,
    sphere_data,
)
from .roots import find_root

U_CAP = 20.0  # the conformal checkers sample u <= U_CAP when u grows
SAMPLE_MIN_GAP = 1e-5  # sample points keep |u - 1| >= this


# --------------------------------------------------------------------------
# thin reads of the record

def to_conformal(triple: StaticTriple, x: float) -> SphereData:
    """The record at radial coordinate x, refused in the extremal band."""
    sp = sphere_data(triple, x)
    check_window(sp.u)
    return sp


def mean_curvature_g0(triple: StaticTriple, x: float) -> float:
    """Mean curvature of the level sphere through x w.r.t. g0 and the unit
    normal nu = Du/|Du|."""
    return sphere_data(triple, x).H


def hess_phi_radial(triple: StaticTriple, x: float) -> float:
    """hess_g phi(nu_g, nu_g) for the g-unit normal nu_g."""
    return sphere_data(triple, x).hess_phi_nn


# --------------------------------------------------------------------------
# pointwise identities

def _ricci_g_components(sp: SphereData) -> tuple[float, float]:
    """Orthonormal (radial, tangential) components of Ric_g via the conformal
    transformation law; uses only the Laplace equation of the system."""
    n, d, s = sp.n, sp.D, sp.lambda_sign
    u, du2 = sp.u, sp.du ** 2
    common = (u * sp.lap_u / d
              + s * ((n - 1) * u * u + 1.0) * du2 / d ** 2)
    ric_rr = (sp.ric_rr - s * (n - 2) * u * sp.hess_u_rr / d
              - (n - 2) * du2 / d ** 2 - s * common)
    ric_tt = sp.ric_tan - s * (n - 2) * u * sp.hess_u_tan / d - s * common
    return ric_rr, ric_tt


def quasi_einstein_residual(sp: SphereData) -> float:
    """Residual of the drifted Einstein equation satisfied by g,

        Ric_g = (1/u - (n-1)u) hess phi - (n-2) dphi (x) dphi
                + (n - 2 + 2(1 - W)) g,

    as the max over the two independent orthonormal components."""
    n, u = sp.n, sp.u
    check_window(u)
    d, w_norm = sp.D, sp.W
    ric_rr, ric_tt = _ricci_g_components(sp)
    hp_rr, hp_tt = sp.hess_phi_components
    coeff = 1.0 / u - (n - 1) * u
    dphi2_rr = sp.du ** 2 / d ** 2
    metric_term = (n - 2.0 + 2.0 * (1.0 - w_norm)) / d
    rhs_rr = coeff * hp_rr - (n - 2) * dphi2_rr + metric_term
    rhs_tt = coeff * hp_tt + metric_term
    return max(abs(ric_rr - rhs_rr), abs(ric_tt - rhs_tt))


def _radial_derivatives(sp: SphereData) -> tuple[float, float, float, float]:
    """(W', W'', w', w'') in arclength, in closed form from the record:
    with q = u'^2 and D = sign (1 - u^2), W = q / D and w = D - q.

    u''' comes from differentiating the potential equation
    u'' + (n-1)(h'/h) u' = -sign n u once, so like `_ricci_g_components` and
    the dictionary's lap_phi this holds on solutions."""
    s, n = sp.lambda_sign, sp.n
    u, u1, u2 = sp.u, sp.du, sp.d2u
    k = sp.dh / sp.h
    u3 = -(n - 1) * ((sp.d2h / sp.h - k * k) * u1 + k * u2) - s * n * u1
    d = sp.D
    d1 = -2.0 * s * u * u1
    d2 = -2.0 * s * (u1 * u1 + u * u2)
    q = u1 * u1
    q1 = 2.0 * u1 * u2
    q2 = 2.0 * (u2 * u2 + u1 * u3)
    W1 = (q1 * d - q * d1) / d ** 2
    W2 = (q2 * d - q * d2) / d ** 2 - 2.0 * d1 * W1 / d
    return W1, W2, d1 - q1, d2 - q2


def _laplacian_g_radial(sp: SphereData, p1: float, p2: float) -> float:
    """lap_g of a radial function psi with psi' = p1 and psi'' = p2 (in
    arclength) at the point of the record:

        lap_g psi = sign * [ (1 - u^2) lap_0 psi + (n-2) u <Du, Dpsi>_0 ].
    """
    n, u = sp.n, sp.u
    lap0 = p2 + (n - 1) * (sp.dh / sp.h) * p1
    return sp.lambda_sign * ((1.0 - u ** 2) * lap0
                             + (n - 2) * u * sp.du * p1)


def _drifted_laplacian(sp: SphereData, p1: float, p2: float,
                       c: int) -> float:
    """lap_g psi - (1/u + c u) <grad psi, grad phi>_g for a radial psi with
    psi' = p1 and psi'' = p2; <grad psi, grad phi>_g = sign psi' u'."""
    u = sp.u
    pairing = sp.lambda_sign * p1 * sp.du
    return _laplacian_g_radial(sp, p1, p2) - (1.0 / u + c * u) * pairing


def bochner_residual(sp: SphereData) -> float:
    """Residual of the drifted Bochner identity for W = |grad phi|_g^2:

        lap_g W - (1/u + (n+1)u) <grad W, grad phi>_g
            - 2 |hess phi|^2 - 2 n u^2 W (1 - W)  =  0.
    """
    n, u = sp.n, sp.u
    w1, w2, _, _ = _radial_derivatives(sp)
    return abs(_drifted_laplacian(sp, w1, w2, n + 1)
               - 2.0 * sp.hess_phi_norm2
               - 2.0 * n * u * u * sp.W * (1.0 - sp.W))


def w_equation_residual(sp: SphereData) -> float:
    """Residual of the elliptic equation for w = beta (1 - |grad phi|^2):

        lap_g w - (1/u + (n-3)u) <grad w, grad phi>_g
            + 2 beta (|hess phi|^2 - (lap phi)^2 / n)  =  0.
    """
    n = sp.n
    _, _, w1, w2 = _radial_derivatives(sp)
    return abs(_drifted_laplacian(sp, w1, w2, n - 3) + 2.0 * sp.D
               * (sp.hess_phi_norm2 - sp.lap_phi ** 2 / n))


def trace_identity_residual(sp: SphereData) -> float:
    """Residual of the scalar-curvature trace identity

        R_g / (n-1) = (n-2) + (n u^2 + 2)(1 - W),

    with R_g computed independently through the conformal transformation law
    for the Ricci tensor."""
    ric_rr, ric_tt = _ricci_g_components(sp)
    scalar_direct = sp.D * (ric_rr + (sp.n - 1) * ric_tt)
    return abs(scalar_direct - sp.scalar_g)


def sample_points_off_extremum(triple: StaticTriple,
                               count: int) -> list[SphereData]:
    """The records of the interior sample points for the conformal-side
    checkers, each point evaluated once.

    Filters the degenerate band around the extremal set, and on an
    unbounded negative-constant triple restricts to the window u <= U_CAP:
    the dictionary quantities grow polynomially in u, so absolute residual
    targets are meaningful on a compact exhaustion, not at the far end of
    the numerical domain."""
    lo, hi = triple.domain
    span = hi - lo
    if triple.lambda_sign < 0 and triple.u.value(hi - 1e-9 * span) > U_CAP:
        def excess(x: float) -> tuple[float, float]:  # u rises outward
            val, slope, _ = triple.u(x)
            return val - U_CAP, slope

        hi = find_root(excess, lo + 1e-12 * span, hi - 1e-12 * span)
        span = hi - lo
    pad = INTERIOR_PAD * span  # the inset of `StaticTriple.interior_points`
    records = [sphere_data(triple, x)
               for x in linspace(lo + pad, hi - pad, count)]
    return [sp for sp in records if abs(sp.u - 1.0) >= SAMPLE_MIN_GAP]


def mean_curvature_relations(sp: SphereData) -> float:
    """Residual of the conformal mean-curvature relation

        H_g = sqrt(D) [ +-H + (n-1) u |Du| / D ]

    against H_g computed independently from the conformal Hessian and
    Laplacian dictionaries (no field equation is used on that side)."""
    u, du = sp.u, sp.du
    # direct side: H_g = (lap_g phi - hess_g phi(nu_g, nu_g)) / |grad phi|_g,
    # with lap_g phi from the conformal Laplacian of phi(u)
    phi1 = du / (1.0 - u ** 2)
    phi2 = (sp.d2u * (1.0 - u ** 2) + 2.0 * u * du ** 2) / (1.0 - u ** 2) ** 2
    lap_g_phi = _laplacian_g_radial(sp, phi1, phi2)
    direct = (lap_g_phi - sp.hess_phi_nn) / math.sqrt(sp.W)
    return abs(direct - sp.H_g)
