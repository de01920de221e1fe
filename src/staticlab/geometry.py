"""Curvature and field-equation residuals for warped-product static metrics.

A rotationally symmetric static triple carries a metric of one of two forms:

* arclength chart:  g0 = drho (x) drho + h(rho)^2 g_{S^(n-1)}
* areal chart:      g0 = dr (x) dr / f(r) + r^2 g_{S^(n-1)}

Every curvature formula below is written in arclength-normalised variables
(u, u', u'', h, h', h''), where a prime is d/drho.  The areal chart supplies
them through u' = sqrt(f) du/dr, u'' = f d2u/dr2 + f' du/dr / 2, h = r,
h' = sqrt(f), h'' = f'/2, so the two charts share one code path and the
areal chart never divides by f at a horizon.

The field equations verified here are, with the cosmological constant
normalised to sign * n(n-1)/2,

    u Ric = D2u + sign * n * u * g0,      Delta u = -sign * n * u,

whose residuals `static_residual` reports componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .quadrature import QuadratureConfig, adaptive


BRANCH_INSET = 1e-13  # fraction of the domain span kept clear of branch ends


def unit_sphere_area(n: int) -> float:
    """Hypersurface area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_euler_characteristic(n: int) -> int:
    """Euler characteristic of the level sphere S^(n-1): 2 when n-1 is
    even, 0 when it is odd."""
    return 2 if (n - 1) % 2 == 0 else 0


@dataclass(frozen=True)
class RadialProfile:
    """A radial function with its first two derivatives in the native chart.

    `fn(x)` returns (value, d/dx, d2/dx2).  Evaluation is contractually
    restricted to the open interior of `domain`; closed-form profiles may
    blow up or lose precision exactly at the endpoints.
    """

    domain: tuple[float, float]
    fn: Callable[[float], tuple[float, float, float]]
    kind: str = "closed-form"

    def __call__(self, x: float) -> tuple[float, float, float]:
        return self.fn(x)

    def value(self, x: float) -> float:
        return self.fn(x)[0]

    @staticmethod
    def from_samples(xs: np.ndarray, ys: np.ndarray) -> "RadialProfile":
        """Cubic interpolant of sampled values; derivatives are those of the
        interpolant itself."""
        spline = CubicSpline(xs, ys)
        d1 = spline.derivative(1)
        d2 = spline.derivative(2)

        def fn(x: float) -> tuple[float, float, float]:
            return float(spline(x)), float(d1(x)), float(d2(x))

        return RadialProfile(domain=(float(xs[0]), float(xs[-1])), fn=fn,
                             kind="sampled-with-interpolation")


@dataclass(frozen=True)
class BoundaryComponent:
    location: float
    sphere_radius: float
    surface_gravity: float
    euler_characteristic: int


def boundary_scalar_curvature(n: int, component: BoundaryComponent) -> float:
    """Intrinsic scalar curvature of a round-sphere boundary component."""
    return (n - 1) * (n - 2) / component.sphere_radius ** 2


@dataclass(frozen=True)
class Extremum:
    """Where u attains its normalised extremum (max for sign=+1, min for -1).

    For the model families the extremal set is either a single point
    (discrete=True, count=1) or a whole sphere of radius `sphere_radius`
    (discrete=False, count=None); checks that assume a discrete extremal set
    must refuse in the latter case rather than guess a count.
    """

    location: float
    discrete: bool
    count: Optional[int] = None
    sphere_radius: float = 0.0


@dataclass(frozen=True)
class RadialState:
    """Arclength-normalised pointwise data (u, u', u'', h, h', h'')."""

    u: float
    du: float
    d2u: float
    h: float
    dh: float
    d2h: float


@dataclass(frozen=True)
class Branch:
    """A maximal interval of the radial domain on which u is monotone, and
    the range of u over it, taken BRANCH_INSET * span inside its ends."""

    lo: float
    hi: float
    increasing: bool
    u_lo: float
    u_hi: float


@dataclass(frozen=True)
class StaticTriple:
    """A rotationally symmetric static solution (M, g0, u).

    lambda_sign is +1 for positive cosmological constant (u normalised to
    max 1, u = 0 on the boundary) and -1 for negative (u normalised to
    min 1, empty boundary, possibly conformally compact).
    """

    n: int
    lambda_sign: int
    chart: str  # "arclength" | "areal"
    u: RadialProfile
    h: RadialProfile
    f: Optional[RadialProfile]
    boundaries: tuple[BoundaryComponent, ...]
    extremum: Extremum
    normalization_factor: float = 1.0
    conformally_compact: bool = False
    name: str = ""

    @property
    def domain(self) -> tuple[float, float]:
        return self.u.domain

    def radial_state(self, x: float) -> RadialState:
        u, du, d2u = self.u(x)
        if self.chart == "arclength":
            h, dh, d2h = self.h(x)
            return RadialState(u, du, d2u, h, dh, d2h)
        if self.chart == "areal":
            fval, f1, _ = self.f(x)
            sf = math.sqrt(max(fval, 0.0))
            return RadialState(u, sf * du, fval * d2u + 0.5 * f1 * du,
                               x, sf, 0.5 * f1)
        raise ValueError(f"unknown chart {self.chart!r}")

    def arclength_jacobian(self, x: float) -> float:
        """d(rho)/dx at x: 1 in the arclength chart, 1/sqrt(f) in the areal."""
        if self.chart == "arclength":
            return 1.0
        fval = self.f(x)[0]
        if fval <= 0.0:
            raise ValueError(f"metric function non-positive at x={x}")
        return 1.0 / math.sqrt(fval)

    def interior_points(self, count: int, pad: float = 0.01) -> np.ndarray:
        """Uniform sample of the interior, inset by `pad` * span per side."""
        lo, hi = self.domain
        span = hi - lo
        return np.linspace(lo + pad * span, hi - pad * span, count)

    def branches(self) -> tuple[Branch, ...]:
        """Monotone branches of u, split at an interior extremum."""
        return self._branches

    @cached_property
    def _branches(self) -> tuple[Branch, ...]:
        # held on the instance: every level location needs the branches,
        # and `dataclasses.replace` builds a triple that starts afresh
        lo, hi = self.domain
        span = hi - lo
        xstar = self.extremum.location
        cuts: list[tuple[float, float]]
        if xstar - lo < 1e-12 * span or hi - xstar < 1e-12 * span:
            cuts = [(lo, hi)]
        else:
            cuts = [(lo, xstar), (xstar, hi)]
        out = []
        for a, b in cuts:
            du = self.radial_state(0.5 * (a + b)).du
            ua = self.u.value(a + BRANCH_INSET * span)
            ub = self.u.value(b - BRANCH_INSET * span)
            out.append(Branch(a, b, increasing=du > 0,
                              u_lo=min(ua, ub), u_hi=max(ua, ub)))
        return tuple(out)

    def u_range(self) -> tuple[float, float]:
        """Open range of u over the interior (excluding the extremum value)."""
        lo, hi = self.domain
        span = hi - lo
        vals = [self.u.value(lo + 1e-9 * span), self.u.value(hi - 1e-9 * span)]
        if self.lambda_sign > 0:
            return (min(vals), 1.0)
        return (1.0, max(vals))


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise curvature of g0 and derivatives of u, orthonormal components.

    ric_rr and ric_tan are the Ricci eigenvalues in the radial and sphere
    directions; hess_u_rr/hess_u_tan the matching Hessian eigenvalues.
    """

    ric_rr: float
    ric_tan: float
    scalar: float
    hess_u_rr: float
    hess_u_tan: float
    lap_u: float
    hess_u_norm2: float
    grad_u_norm2: float


def warped_curvature(triple: StaticTriple, x: float) -> CurvatureData:
    """Curvature of g0 = drho^2 + h^2 g_S at radial coordinate x.

    Uses Ric_rr = -(n-1) h''/h and
    Ric_tan = -[h h'' + (n-2)(h'^2 - 1)] / h^2.
    """
    lo, hi = triple.domain
    if not (lo < x < hi):
        raise ValueError(f"x={x} outside the open interior ({lo}, {hi})")
    st = triple.radial_state(x)
    if st.h <= 0.0:
        raise ValueError(f"degenerate warping radius h={st.h} at x={x}")
    n = triple.n
    ric_rr = -(n - 1) * st.d2h / st.h
    ric_tan = -(st.h * st.d2h + (n - 2) * (st.dh ** 2 - 1.0)) / st.h ** 2
    hess_rr = st.d2u
    hess_tan = (st.dh / st.h) * st.du
    return CurvatureData(
        ric_rr=ric_rr,
        ric_tan=ric_tan,
        scalar=ric_rr + (n - 1) * ric_tan,
        hess_u_rr=hess_rr,
        hess_u_tan=hess_tan,
        lap_u=hess_rr + (n - 1) * hess_tan,
        hess_u_norm2=hess_rr ** 2 + (n - 1) * hess_tan ** 2,
        grad_u_norm2=st.du ** 2,
    )


def static_residual(triple: StaticTriple, x: float) -> tuple[float, float]:
    """Residuals of the two field equations at x.

    Returns (tensor_residual, laplace_residual): the max over the two
    independent components of |u Ric - D2u - sign*n*u g0| and
    |Delta u + sign*n*u|.  Both vanish (to float noise) iff the triple
    solves the system at x.
    """
    st = triple.radial_state(x)
    curv = warped_curvature(triple, x)
    eps_n = triple.lambda_sign * triple.n
    t_rr = st.u * curv.ric_rr - curv.hess_u_rr - eps_n * st.u
    t_tan = st.u * curv.ric_tan - curv.hess_u_tan - eps_n * st.u
    lap = curv.lap_u + eps_n * st.u
    return max(abs(t_rr), abs(t_tan)), abs(lap)


def surface_gravity(triple: StaticTriple, component: BoundaryComponent) -> float:
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


def to_arclength(triple: StaticTriple, samples: int = 8000,
                 margin: float = 1e-4) -> tuple[StaticTriple, Callable[[float], float]]:
    """Re-express an areal-chart triple in arclength, via rho = int dr/sqrt(f).

    The domain is inset by `margin` * span per side so the 1/sqrt(f)
    integrand stays finite, and the profiles become cubic interpolants of
    the sampled values.  Boundary data is not carried over: the converted
    triple is meant for interior curvature evaluation and cross-checks.

    Returns (converted triple, rho_of_r callable).
    """
    if triple.chart != "areal":
        raise ValueError("to_arclength expects an areal-chart triple")
    lo, hi = triple.domain
    span = hi - lo
    a, b = lo + margin * span, hi - margin * span
    # Chebyshev-extrema clustering resolves the near-horizon stretching
    s = np.linspace(0.0, 1.0, samples)
    r_grid = a + (b - a) * 0.5 * (1.0 - np.cos(math.pi * s))
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_evals=20_000)
    rho = np.empty_like(r_grid)
    rho[0] = 0.0
    for i in range(1, len(r_grid)):
        seg = adaptive(lambda r: triple.arclength_jacobian(r),
                       r_grid[i - 1], r_grid[i], cfg)
        rho[i] = rho[i - 1] + seg.value
    u_vals = np.array([triple.u.value(r) for r in r_grid])
    u_prof = RadialProfile.from_samples(rho, u_vals)
    h_prof = RadialProfile.from_samples(rho, r_grid)
    xstar = triple.extremum.location
    rho_of_r = CubicSpline(r_grid, rho)
    ext = replace(triple.extremum,
                  location=float(rho_of_r(min(max(xstar, a), b))))
    converted = StaticTriple(
        n=triple.n, lambda_sign=triple.lambda_sign, chart="arclength",
        u=u_prof, h=h_prof, f=None, boundaries=(), extremum=ext,
        normalization_factor=triple.normalization_factor,
        conformally_compact=triple.conformally_compact,
        name=triple.name + "[arclength]")
    return converted, lambda r: float(rho_of_r(r))
