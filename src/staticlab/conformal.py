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
no second metric representation is ever stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CurvatureData, StaticTriple, warped_curvature
from .report import IdentityReport, identity_report
from .roots import find_root

EXTREMUM_BAND = 1e-6


@dataclass(frozen=True)
class ConformalState:
    """All conformal-side quantities at one point of a level sphere."""

    phi: float
    grad_phi_norm2: float      # W = |grad phi|_g^2
    hess_phi_norm2: float      # |hess_g phi|_g^2
    lap_phi: float             # lap_g phi
    w: float                   # beta(phi) (1 - W)
    beta: float
    gamma: float
    scalar_g: float
    H_g: float
    u_of_phi: float


def conformal_denominator(triple: StaticTriple, u: float) -> float:
    d = triple.lambda_sign * (1.0 - u * u)
    if d <= 0.0:
        raise ValueError(f"conformal factor degenerate at u={u}")
    return d


def _check_window(u: float, eps_ext: float) -> None:
    if abs(u - 1.0) < eps_ext:
        raise ValueError(
            f"point with u={u} lies in the excluded band |u-1| < {eps_ext} "
            "around the extremal set; the conformal metric degenerates there")


def mean_curvature_g0(triple: StaticTriple, x: float) -> float:
    """Mean curvature of the level sphere through x w.r.t. g0 and the unit
    normal nu = Du/|Du|: H = Delta u / |Du| - D2u(nu, nu)/|Du|."""
    st = triple.radial_state(x)
    curv = warped_curvature(triple, x)
    if st.du == 0.0:
        raise ValueError(f"singular level at x={x}")
    return (curv.lap_u - curv.hess_u_rr) / abs(st.du)


def to_conformal(triple: StaticTriple, x: float,
                 eps_ext: float = EXTREMUM_BAND) -> ConformalState:
    """Evaluate the conformal-side dictionary at radial coordinate x."""
    st = triple.radial_state(x)
    _check_window(st.u, eps_ext)
    n = triple.n
    u = st.u
    d = conformal_denominator(triple, u)
    w_norm = st.du ** 2 / d
    curv = warped_curvature(triple, x)
    if triple.lambda_sign > 0:
        phi = 0.5 * math.log((1.0 + u) / (1.0 - u))
        u_of_phi = math.tanh(phi)
        h_g = math.sqrt(d) * (mean_curvature_g0(triple, x)
                              + (n - 1) * u * abs(st.du) / d)
    else:
        phi = 0.5 * math.log((u + 1.0) / (u - 1.0))
        u_of_phi = 1.0 / math.tanh(phi)
        h_g = math.sqrt(d) * (-mean_curvature_g0(triple, x)
                              + (n - 1) * u * abs(st.du) / d)
    return ConformalState(
        phi=phi,
        grad_phi_norm2=w_norm,
        hess_phi_norm2=curv.hess_u_norm2 + n * u * u * w_norm * (w_norm - 2.0),
        lap_phi=-n * u * (1.0 - w_norm),
        w=d * (1.0 - w_norm),
        beta=d,
        gamma=d ** ((n + 2) / 2.0) / u,
        scalar_g=(n - 1) * ((n - 2) + (n * u * u + 2.0) * (1.0 - w_norm)),
        H_g=h_g,
        u_of_phi=u_of_phi,
    )


def _ricci_g_components(triple: StaticTriple, st, curv: CurvatureData,
                        d: float) -> tuple[float, float]:
    """Orthonormal (radial, tangential) components of Ric_g via the conformal
    transformation law; uses only the Laplace equation of the system."""
    n = triple.n
    u, du2 = st.u, st.du ** 2
    if triple.lambda_sign > 0:
        common = (u * curv.lap_u / d
                  + ((n - 1) * u * u + 1.0) * du2 / d ** 2)
        ric_rr = (curv.ric_rr - (n - 2) * u * curv.hess_u_rr / d
                  - (n - 2) * du2 / d ** 2 - common)
        ric_tt = (curv.ric_tan - (n - 2) * u * curv.hess_u_tan / d - common)
    else:
        common = (u * curv.lap_u / d
                  - ((n - 1) * u * u + 1.0) * du2 / d ** 2)
        ric_rr = (curv.ric_rr + (n - 2) * u * curv.hess_u_rr / d
                  - (n - 2) * du2 / d ** 2 + common)
        ric_tt = (curv.ric_tan + (n - 2) * u * curv.hess_u_tan / d + common)
    return ric_rr, ric_tt


def _hess_phi_components(triple: StaticTriple, st, curv: CurvatureData,
                         d: float) -> tuple[float, float]:
    """Orthonormal components of hess_g phi (as a (0,2)-tensor wrt the
    g0-orthonormal frame)."""
    u, du2 = st.u, st.du ** 2
    s = float(triple.lambda_sign)
    return (s * curv.hess_u_rr / d + u * du2 / d ** 2,
            s * curv.hess_u_tan / d + u * du2 / d ** 2)


def quasi_einstein_residual(triple: StaticTriple, x: float) -> float:
    """Residual of the drifted Einstein equation satisfied by g,

        Ric_g = (1/u - (n-1)u) hess phi - (n-2) dphi (x) dphi
                + (n - 2 + 2(1 - W)) g,

    as the max over the two independent orthonormal components."""
    st = triple.radial_state(x)
    _check_window(st.u, EXTREMUM_BAND)
    n = triple.n
    u = st.u
    d = conformal_denominator(triple, u)
    w_norm = st.du ** 2 / d
    curv = warped_curvature(triple, x)
    ric_rr, ric_tt = _ricci_g_components(triple, st, curv, d)
    hp_rr, hp_tt = _hess_phi_components(triple, st, curv, d)
    coeff = 1.0 / u - (n - 1) * u
    dphi2_rr = st.du ** 2 / d ** 2
    metric_term = (n - 2.0 + 2.0 * (1.0 - w_norm)) / d
    rhs_rr = coeff * hp_rr - (n - 2) * dphi2_rr + metric_term
    rhs_tt = coeff * hp_tt + metric_term
    return max(abs(ric_rr - rhs_rr), abs(ric_tt - rhs_tt))


def _arclength_fd(triple: StaticTriple, fn, x: float, rel_step: float = 1e-4) -> float:
    """d(fn)/drho at x by a five-point difference taken in arclength.

    Near a horizon the composition fn(r) loses smoothness in r while staying
    smooth in rho, so the stencil points sit at equal arclength offsets via
    the cubic expansion r(rho0 + e) = r + e sqrt(f) + e^2 f'/4
    + e^3 f'' sqrt(f)/12 + O(e^4)."""
    lo, hi = triple.domain
    step = rel_step * (hi - lo)

    if triple.chart == "arclength":
        def place(e: float) -> float:
            return x + e
        reach = step
    else:
        fval, f1, f2 = triple.f(x)
        sf = math.sqrt(fval)

        def place(e: float) -> float:
            return x + e * sf + e * e * f1 / 4.0 + e ** 3 * f2 * sf / 12.0

        reach = 2.0 * step * sf + (2.0 * step) ** 2 * abs(f1) / 4.0 \
            + (2.0 * step) ** 3 * abs(f2) * sf / 12.0
    while not (lo < x - reach and x + reach < hi):
        step *= 0.5
        reach *= 0.5
    return (fn(place(-2 * step)) - 8.0 * fn(place(-step))
            + 8.0 * fn(place(step)) - fn(place(2 * step))) / (12.0 * step)


def grad_w_arclength(triple: StaticTriple, x: float) -> float:
    """d/drho of W = |Du|^2 / D, in closed form from the profile derivatives."""
    st = triple.radial_state(x)
    d = conformal_denominator(triple, st.u)
    # dD/drho = -sign * 2 u u'
    dd = -2.0 * triple.lambda_sign * st.u * st.du
    return (2.0 * st.du * st.d2u * d - st.du ** 2 * dd) / d ** 2


def _laplacian_g_radial(triple: StaticTriple, x: float, value_d1_d2) -> float:
    """lap_g of a radial function given (value, d/drho, d2/drho2) at x:

        lap_g psi = sign * [ (1 - u^2) lap_0 psi + (n-2) u <Du, Dpsi>_0 ].
    """
    st = triple.radial_state(x)
    _, p1, p2 = value_d1_d2
    lap0 = p2 + (triple.n - 1) * (st.dh / st.h) * p1
    return triple.lambda_sign * ((1.0 - st.u ** 2) * lap0
                                 + (triple.n - 2) * st.u * st.du * p1)


def bochner_residual(triple: StaticTriple, x: float) -> float:
    """Residual of the drifted Bochner identity for W = |grad phi|_g^2:

        lap_g W - (1/u + (n+1)u) <grad W, grad phi>_g
            - 2 |hess phi|^2 - 2 n u^2 W (1 - W)  =  0.

    All terms reduce to radial derivatives of W; the second derivative is a
    central difference of the closed-form first derivative.
    """
    st = triple.radial_state(x)
    _check_window(st.u, EXTREMUM_BAND)
    n = triple.n
    u = st.u
    state = to_conformal(triple, x)
    w1 = grad_w_arclength(triple, x)
    w2 = _arclength_fd(triple, lambda y: grad_w_arclength(triple, y), x)
    lap_g_w = _laplacian_g_radial(triple, x, (state.grad_phi_norm2, w1, w2))
    # <grad W, grad phi>_g = sign * W' u'  (phi' = u'/(1 - u^2))
    pairing = triple.lambda_sign * w1 * st.du
    drift = (1.0 / u + (n + 1) * u) * pairing
    return abs(lap_g_w - drift - 2.0 * state.hess_phi_norm2
               - 2.0 * n * u * u * state.grad_phi_norm2
               * (1.0 - state.grad_phi_norm2))


def w_grad_arclength(triple: StaticTriple, x: float) -> float:
    """d/drho of w = beta (1 - W) = D (1 - W), in closed form."""
    st = triple.radial_state(x)
    d = conformal_denominator(triple, st.u)
    w_norm = st.du ** 2 / d
    dd = -2.0 * triple.lambda_sign * st.u * st.du
    return dd * (1.0 - w_norm) - d * grad_w_arclength(triple, x)


def w_equation_residual(triple: StaticTriple, x: float) -> float:
    """Residual of the elliptic equation for w = beta (1 - |grad phi|^2):

        lap_g w - (1/u + (n-3)u) <grad w, grad phi>_g
            + 2 beta (|hess phi|^2 - (lap phi)^2 / n)  =  0.
    """
    st = triple.radial_state(x)
    _check_window(st.u, EXTREMUM_BAND)
    n = triple.n
    u = st.u
    state = to_conformal(triple, x)
    w1 = w_grad_arclength(triple, x)
    w2 = _arclength_fd(triple, lambda y: w_grad_arclength(triple, y), x)
    lap_g_w = _laplacian_g_radial(triple, x, (state.w, w1, w2))
    pairing = triple.lambda_sign * w1 * st.du
    drift = (1.0 / u + (n - 3) * u) * pairing
    return abs(lap_g_w - drift + 2.0 * state.beta
               * (state.hess_phi_norm2 - state.lap_phi ** 2 / n))


def trace_identity_residual(triple: StaticTriple, x: float) -> float:
    """Residual of the scalar-curvature trace identity

        R_g / (n-1) = (n-2) + (n u^2 + 2)(1 - W),

    with R_g computed independently through the conformal transformation law
    for the Ricci tensor."""
    st = triple.radial_state(x)
    _check_window(st.u, EXTREMUM_BAND)
    d = conformal_denominator(triple, st.u)
    curv = warped_curvature(triple, x)
    ric_rr, ric_tt = _ricci_g_components(triple, st, curv, d)
    scalar_direct = d * (ric_rr + (triple.n - 1) * ric_tt)
    return abs(scalar_direct - to_conformal(triple, x).scalar_g)


def sample_points_off_extremum(triple: StaticTriple, count: int,
                               pad: float = 0.01,
                               min_gap: float = 1e-5,
                               u_cap: float = 20.0):
    """Interior sample points for the conformal-side checkers.

    Filters the degenerate band around the extremal set, and on an
    unbounded negative-constant triple restricts to the window u <= u_cap:
    the dictionary quantities grow polynomially in u, so absolute residual
    targets are meaningful on a compact exhaustion, not at the far end of
    the numerical domain."""
    lo, hi = triple.domain
    span = hi - lo
    if triple.lambda_sign < 0 and triple.u.value(hi - 1e-9 * span) > u_cap:
        def excess(x: float) -> tuple[float, float]:  # u rises outward
            val, slope, _ = triple.u(x)
            return val - u_cap, slope

        hi = find_root(excess, lo + 1e-12 * span, hi - 1e-12 * span)
        span = hi - lo
    pts = np.linspace(lo + pad * span, hi - pad * span, count)
    return [x for x in pts if abs(triple.u.value(x) - 1.0) >= min_gap]


def hess_phi_radial(triple: StaticTriple, x: float) -> float:
    """hess_g phi(nu_g, nu_g) for the g-unit normal nu_g."""
    st = triple.radial_state(x)
    d = conformal_denominator(triple, st.u)
    curv = warped_curvature(triple, x)
    hp_rr, _ = _hess_phi_components(triple, st, curv, d)
    return d * hp_rr


def mean_curvature_relations(triple: StaticTriple, x: float,
                             tolerance: float = 1e-8) -> IdentityReport:
    """Check the conformal mean-curvature relation

        H_g = sqrt(D) [ +-H + (n-1) u |Du| / D ]

    against H_g computed independently from the conformal Hessian and
    Laplacian dictionaries (no field equation is used on that side)."""
    st = triple.radial_state(x)
    _check_window(st.u, EXTREMUM_BAND)
    if st.du == 0.0:
        raise ValueError(f"singular level at x={x}")
    n = triple.n
    d = conformal_denominator(triple, st.u)
    w_norm = st.du ** 2 / d

    # direct side: H_g = (lap_g phi - hess_g phi(nu_g, nu_g)) / |grad phi|_g,
    # with lap_g phi from the conformal Laplacian of phi(u)
    phi1 = st.du / (1.0 - st.u ** 2)
    phi2 = (st.d2u * (1.0 - st.u ** 2) + 2.0 * st.u * st.du ** 2) \
        / (1.0 - st.u ** 2) ** 2
    lap_g_phi = _laplacian_g_radial(triple, x, (0.0, phi1, phi2))
    direct = (lap_g_phi - hess_phi_radial(triple, x)) / math.sqrt(w_norm)

    via_h = to_conformal(triple, x).H_g
    return identity_report(
        name="mean_curvature_relation", lhs=direct, rhs=via_h,
        tolerance=tolerance,
        description="conformal vs warped-product evaluation of the level "
                    "mean curvature H_g")
