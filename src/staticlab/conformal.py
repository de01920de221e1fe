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
are lazy properties of the pointwise record `SphereData`, next to D and W;
each refuses the band |u - 1| < EXTREMUM_BAND, and `to_conformal` returns
the record of a point outside it.

The five pointwise residuals (quasi-Einstein, Bochner, drift equation for
w, trace identity, mean-curvature relation) each read one `SphereData`
record and evaluate no profile again.  The radial derivatives W', W'', w'
and w'' are closed forms in u, u', u'' and u''' (`_radial_derivatives`),
with u''' from the potential equation differentiated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .geometry import (
    CurvatureData,
    RadialState,
    StaticTriple,
    linspace,
    radial_geometry,
    sphere_area,
)
from .roots import find_root

EXTREMUM_BAND = 1e-6  # |u - 1| below which the conformal metric is refused
U_CAP = 20.0          # the conformal checkers sample u <= U_CAP when u grows


def check_window(u: float) -> None:
    if abs(u - 1.0) < EXTREMUM_BAND:
        raise ValueError(
            f"point with u={u} lies in the excluded band |u-1| < "
            f"{EXTREMUM_BAND} around the extremal set; the conformal metric "
            "degenerates there")


# --------------------------------------------------------------------------
# the pointwise record

@dataclass(frozen=True)
class SphereData:
    """Everything known at radial point x, i.e. on the level sphere through x.

    `st` and `curv` come from one evaluation of the profiles; every other
    quantity is derived from them on first use, then kept.  Lazy, because
    the curvature-deficit integrand reaches the extremal sphere, where W, H
    and the dictionary are singular; only the dictionary entries refuse the
    band around it (the level-set readers do in `levelset.level_spheres`).
    """

    triple: StaticTriple
    x: float
    st: RadialState
    curv: CurvatureData

    @property
    def u(self) -> float:
        return self.st.u

    @property
    def grad_u(self) -> float:
        """|Du|."""
        return abs(self.st.du)

    @cached_property
    def area(self) -> float:
        """Sphere area w.r.t. g0."""
        return sphere_area(self.triple.n, self.st.h)

    @cached_property
    def D(self) -> float:
        """|1 - u^2| = sign (1 - u^2), the conformal denominator (the
        dictionary's beta), refused where it is not positive."""
        u = self.st.u
        d = self.triple.lambda_sign * (1.0 - u * u)
        if d <= 0.0:
            raise ValueError(f"conformal factor degenerate at u={u}")
        return d

    @cached_property
    def area_g(self) -> float:
        """Sphere area w.r.t. the conformal metric."""
        return self.area / self.D ** ((self.triple.n - 1) / 2.0)

    @cached_property
    def W(self) -> float:
        """|Du|^2 / |1 - u^2|."""
        return self.st.du ** 2 / self.D

    @cached_property
    def H(self) -> float:
        """Mean curvature w.r.t. g0 and the unit normal nu = Du/|Du|:
        H = Delta u / |Du| - D2u(nu, nu)/|Du|."""
        if self.st.du == 0.0:
            raise ValueError(f"singular level at x={self.x}")
        return (self.curv.lap_u - self.curv.hess_u_rr) / abs(self.st.du)

    @cached_property
    def hess_phi_nn(self) -> float:
        """hess_g phi(nu_g, nu_g) for the g-unit normal nu_g."""
        return self.D * _hess_phi_components(self)[0]

    @cached_property
    def _D_off_band(self) -> float:
        """D, refused in the extremal band; read by every entry below."""
        check_window(self.st.u)
        return self.D

    @cached_property
    def phi(self) -> float:
        """The conformal level coordinate artanh u or arcoth u."""
        self._D_off_band
        u = self.st.u
        if self.triple.lambda_sign > 0:
            return 0.5 * math.log((1.0 + u) / (1.0 - u))
        return 0.5 * math.log((u + 1.0) / (u - 1.0))

    @cached_property
    def H_g(self) -> float:
        """Mean curvature of the level w.r.t. g."""
        d, n, u = self._D_off_band, self.triple.n, self.st.u
        h = self.H if self.triple.lambda_sign > 0 else -self.H
        return math.sqrt(d) * (h + (n - 1) * u * abs(self.st.du) / d)

    @cached_property
    def hess_phi_norm2(self) -> float:
        """|hess_g phi|_g^2."""
        self._D_off_band
        n, u, w_norm = self.triple.n, self.st.u, self.W
        return self.curv.hess_u_norm2 + n * u * u * w_norm * (w_norm - 2.0)

    @cached_property
    def lap_phi(self) -> float:
        """lap_g phi (on solutions)."""
        self._D_off_band
        return -self.triple.n * self.st.u * (1.0 - self.W)

    @cached_property
    def gamma(self) -> float:
        """gamma(phi) = D^((n+2)/2) / u."""
        return self._D_off_band ** ((self.triple.n + 2) / 2.0) / self.st.u

    @cached_property
    def scalar_g(self) -> float:
        """R_g, from the trace identity."""
        self._D_off_band
        n, u = self.triple.n, self.st.u
        return (n - 1) * ((n - 2) + (n * u * u + 2.0) * (1.0 - self.W))


def sphere_data(triple: StaticTriple, x: float) -> SphereData:
    """The pointwise record at radial coordinate x, built from one radial
    state and one curvature evaluation."""
    return SphereData(triple, x, *radial_geometry(triple, x))


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
    n, curv, d = sp.triple.n, sp.curv, sp.D
    u, du2 = sp.st.u, sp.st.du ** 2
    if sp.triple.lambda_sign > 0:
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


def _hess_phi_components(sp: SphereData) -> tuple[float, float]:
    """Orthonormal components of hess_g phi (as a (0,2)-tensor wrt the
    g0-orthonormal frame)."""
    u, du2, d = sp.st.u, sp.st.du ** 2, sp.D
    s = float(sp.triple.lambda_sign)
    return (s * sp.curv.hess_u_rr / d + u * du2 / d ** 2,
            s * sp.curv.hess_u_tan / d + u * du2 / d ** 2)


def quasi_einstein_residual(sp: SphereData) -> float:
    """Residual of the drifted Einstein equation satisfied by g,

        Ric_g = (1/u - (n-1)u) hess phi - (n-2) dphi (x) dphi
                + (n - 2 + 2(1 - W)) g,

    as the max over the two independent orthonormal components."""
    st, n, u = sp.st, sp.triple.n, sp.st.u
    d, w_norm = sp._D_off_band, sp.W
    ric_rr, ric_tt = _ricci_g_components(sp)
    hp_rr, hp_tt = _hess_phi_components(sp)
    coeff = 1.0 / u - (n - 1) * u
    dphi2_rr = st.du ** 2 / d ** 2
    metric_term = (n - 2.0 + 2.0 * (1.0 - w_norm)) / d
    rhs_rr = coeff * hp_rr - (n - 2) * dphi2_rr + metric_term
    rhs_tt = coeff * hp_tt + metric_term
    return max(abs(ric_rr - rhs_rr), abs(ric_tt - rhs_tt))


def _radial_derivatives(sp: SphereData) -> tuple[float, float, float, float]:
    """(W', W'', w', w'') in arclength, in closed form from the radial state:
    with q = u'^2 and D = sign (1 - u^2), W = q / D and w = D - q.

    u''' comes from differentiating the potential equation
    u'' + (n-1)(h'/h) u' = -sign n u once, so like `_ricci_g_components` and
    the dictionary's lap_phi this holds on solutions."""
    st, s, n = sp.st, sp.triple.lambda_sign, sp.triple.n
    u, u1, u2 = st.u, st.du, st.d2u
    k = st.dh / st.h
    u3 = -(n - 1) * ((st.d2h / st.h - k * k) * u1 + k * u2) - s * n * u1
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
    st, n = sp.st, sp.triple.n
    lap0 = p2 + (n - 1) * (st.dh / st.h) * p1
    return sp.triple.lambda_sign * ((1.0 - st.u ** 2) * lap0
                                    + (n - 2) * st.u * st.du * p1)


def _drifted_laplacian(sp: SphereData, p1: float, p2: float,
                       c: int) -> float:
    """lap_g psi - (1/u + c u) <grad psi, grad phi>_g for a radial psi with
    psi' = p1 and psi'' = p2; <grad psi, grad phi>_g = sign psi' u'."""
    u = sp.st.u
    pairing = sp.triple.lambda_sign * p1 * sp.st.du
    return _laplacian_g_radial(sp, p1, p2) - (1.0 / u + c * u) * pairing


def bochner_residual(sp: SphereData) -> float:
    """Residual of the drifted Bochner identity for W = |grad phi|_g^2:

        lap_g W - (1/u + (n+1)u) <grad W, grad phi>_g
            - 2 |hess phi|^2 - 2 n u^2 W (1 - W)  =  0.
    """
    n, u = sp.triple.n, sp.st.u
    w1, w2, _, _ = _radial_derivatives(sp)
    return abs(_drifted_laplacian(sp, w1, w2, n + 1)
               - 2.0 * sp.hess_phi_norm2
               - 2.0 * n * u * u * sp.W * (1.0 - sp.W))


def w_equation_residual(sp: SphereData) -> float:
    """Residual of the elliptic equation for w = beta (1 - |grad phi|^2):

        lap_g w - (1/u + (n-3)u) <grad w, grad phi>_g
            + 2 beta (|hess phi|^2 - (lap phi)^2 / n)  =  0.
    """
    n = sp.triple.n
    _, _, w1, w2 = _radial_derivatives(sp)
    return abs(_drifted_laplacian(sp, w1, w2, n - 3) + 2.0 * sp.D
               * (sp.hess_phi_norm2 - sp.lap_phi ** 2 / n))


def trace_identity_residual(sp: SphereData) -> float:
    """Residual of the scalar-curvature trace identity

        R_g / (n-1) = (n-2) + (n u^2 + 2)(1 - W),

    with R_g computed independently through the conformal transformation law
    for the Ricci tensor."""
    ric_rr, ric_tt = _ricci_g_components(sp)
    scalar_direct = sp.D * (ric_rr + (sp.triple.n - 1) * ric_tt)
    return abs(scalar_direct - sp.scalar_g)


def sample_points_off_extremum(triple: StaticTriple, count: int,
                               pad: float = 0.01,
                               min_gap: float = 1e-5):
    """Interior sample points for the conformal-side checkers.

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
    pts = linspace(lo + pad * span, hi - pad * span, count)
    return [x for x in pts if abs(triple.u.value(x) - 1.0) >= min_gap]


def mean_curvature_relations(sp: SphereData) -> float:
    """Residual of the conformal mean-curvature relation

        H_g = sqrt(D) [ +-H + (n-1) u |Du| / D ]

    against H_g computed independently from the conformal Hessian and
    Laplacian dictionaries (no field equation is used on that side)."""
    st = sp.st
    # direct side: H_g = (lap_g phi - hess_g phi(nu_g, nu_g)) / |grad phi|_g,
    # with lap_g phi from the conformal Laplacian of phi(u)
    phi1 = st.du / (1.0 - st.u ** 2)
    phi2 = (st.d2u * (1.0 - st.u ** 2) + 2.0 * st.u * st.du ** 2) \
        / (1.0 - st.u ** 2) ** 2
    lap_g_phi = _laplacian_g_radial(sp, phi1, phi2)
    direct = (lap_g_phi - sp.hess_phi_nn) / math.sqrt(sp.W)
    return abs(direct - sp.H_g)
