"""The pointwise record and field equations of warped-product static metrics.

A rotationally symmetric static triple carries a metric of one of two forms:

* arclength chart:  g0 = drho (x) drho + h(rho)^2 g_{S^(n-1)}
* areal chart:      g0 = dr (x) dr / f(r) + r^2 g_{S^(n-1)}

Every curvature formula below is written in arclength-normalised variables
(u, u', u'', h, h', h''), where a prime is d/drho.  The areal chart supplies
them through u' = sqrt(f) du/dr, u'' = f d2u/dr2 + f' du/dr / 2, h = r,
h' = sqrt(f), h'' = f'/2, so the two charts share one code path and the
areal chart never divides by f at a horizon.

`sphere_data(triple, x)` builds the one pointwise record, `SphereData`,
from one profile evaluation at x; the curvature of g0, the derivatives of
u and the conformal dictionary (see `conformal`) are read from it on
demand.

The field equations verified here are, with the cosmological constant
normalised to sign * n(n-1)/2,

    u Ric = D2u + sign * n * u * g0,      Delta u = -sign * n * u,

whose residuals `static_residual` reports componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

from .quadrature import QuadratureConfig, _kronrod_panel, adaptive


BRANCH_INSET = 1e-13  # fraction of the domain span kept clear of branch ends
INTERIOR_PAD = 0.01  # fraction of the span interior_points drops per side
ARCLENGTH_MARGIN = 1e-4  # fraction of the span to_arclength drops per side
EXTREMUM_BAND = 1e-6  # |u - 1| below which the conformal metric is refused


def unit_sphere_area(n: int) -> float:
    """Hypersurface area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_area(n: int, r: float) -> float:
    """Area of the round sphere S^(n-1) of radius r."""
    return unit_sphere_area(n) * r ** (n - 1)


def sphere_euler_characteristic(n: int) -> int:
    """Euler characteristic of the level sphere S^(n-1): 2 when n-1 is
    even, 0 when it is odd."""
    return 2 if (n - 1) % 2 == 0 else 0


def linspace(a: float, b: float, num: int) -> list[float]:
    """`num` evenly spaced floats from a to b inclusive, bit for bit those of
    numpy.linspace: point i is i*step + a, and the last point is b."""
    if num < 2:
        return [a] * num
    step = (b - a) / (num - 1)
    if step == 0.0:  # (b - a) / (num - 1) underflowed: scale i first
        pts = [i / (num - 1) * (b - a) + a for i in range(num)]
    else:
        pts = [i * step + a for i in range(num)]
    pts[-1] = b
    return pts


@dataclass(frozen=True)
class RadialProfile:
    """A radial function with its first two derivatives in the native chart.

    `fn(x)` returns (value, d/dx, d2/dx2).  Evaluation is contractually
    restricted to the open interior of `domain`; closed-form profiles may
    blow up or lose precision exactly at the endpoints.  `to_arclength`
    evaluates an areal triple's `f` elementwise on numpy arrays, so its
    closed form uses arithmetic, not `math.*`.
    """

    domain: tuple[float, float]
    fn: Callable[[float], tuple[float, float, float]]

    def __call__(self, x: float) -> tuple[float, float, float]:
        return self.fn(x)

    def value(self, x: float) -> float:
        return self.fn(x)[0]

    @staticmethod
    def from_samples(xs: Sequence[float],
                     ys: Sequence[float]) -> "RadialProfile":
        """Cubic interpolant of sampled values; derivatives are those of the
        interpolant itself."""
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(xs, ys)
        d1 = spline.derivative(1)
        d2 = spline.derivative(2)

        def fn(x: float) -> tuple[float, float, float]:
            return float(spline(x)), float(d1(x)), float(d2(x))

        return RadialProfile(domain=(float(xs[0]), float(xs[-1])), fn=fn)


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
    min 1, empty boundary, possibly conformally compact).  `branch` is None
    for the whole solution, and "inner" or "outer" on a view made by
    `on_branch`.
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
    branch: Optional[str] = None

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
        if not fval > 0.0:
            raise ValueError(f"metric function not positive at x={x}")
        return 1.0 / math.sqrt(fval)

    def interior_points(self, count: int) -> list[float]:
        """Uniform sample of the interior, inset by INTERIOR_PAD * span per
        side."""
        lo, hi = self.domain
        pad = INTERIOR_PAD * (hi - lo)
        return linspace(lo + pad, hi - pad, count)

    def on_branch(self, which: str) -> "StaticTriple":
        """The same solution on one side of its extremum, "inner" or
        "outer": `branches()` and `horizons()` keep only the innermost or
        outermost one where there are two.  The view shares this triple's
        branches, so nothing is derived again."""
        if which not in ("inner", "outer"):
            raise ValueError(f"unknown branch designator {which!r}")
        view = replace(self, branch=which)
        view.__dict__["_branches"] = self._branches
        return view

    def _on_side(self, ordered: Sequence) -> tuple:
        """`ordered`, innermost first, cut to the side of a view."""
        if self.branch is None or len(ordered) < 2:
            return tuple(ordered)
        return (ordered[0],) if self.branch == "inner" else (ordered[-1],)

    def branches(self) -> tuple[Branch, ...]:
        """Monotone branches of u, split at an interior extremum, innermost
        first."""
        return self._on_side(self._branches)

    def horizons(self) -> tuple[BoundaryComponent, ...]:
        """The boundary components, innermost first; on a view, the one on
        its side."""
        return self._on_side(sorted(self.boundaries, key=lambda c: c.location))

    @cached_property
    def _branches(self) -> tuple[Branch, ...]:
        # held on the instance: every level location needs the branches;
        # `dataclasses.replace` builds a triple that starts afresh, and
        # `on_branch` hands its view these
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


def check_window(u: float) -> None:
    if abs(u - 1.0) < EXTREMUM_BAND:
        raise ValueError(
            f"point with u={u} lies in the excluded band |u-1| < "
            f"{EXTREMUM_BAND} around the extremal set; the conformal metric "
            "degenerates there")


@dataclass(frozen=True)
class SphereData:
    """Everything known at radial point x, i.e. on the level sphere through x.

    `st` comes from one evaluation of the profiles, and every other quantity
    is read from it: the curvature of g0 and the derivatives of u, in
    orthonormal (radial, sphere) components, on each read; the rest once,
    on first use.  Lazy, because the curvature-deficit integrand reaches the
    extremal sphere, where W, H and the conformal dictionary are singular;
    only the dictionary entries refuse the band around it (the level-set
    readers do in `levelset.level_spheres`).
    """

    triple: StaticTriple
    x: float
    st: RadialState

    @property
    def u(self) -> float:
        return self.st.u

    @property
    def grad_u(self) -> float:
        """|Du|."""
        return abs(self.st.du)

    @property
    def arclength_jacobian(self) -> float:
        """d(rho)/dx: 1 in the arclength chart, 1/sqrt(f) = 1/h' in the
        areal."""
        if self.triple.chart == "arclength":
            return 1.0
        if not self.st.dh > 0.0:
            raise ValueError(f"metric function not positive at x={self.x}")
        return 1.0 / self.st.dh

    @property
    def ric_rr(self) -> float:
        return -(self.triple.n - 1) * self.st.d2h / self.st.h

    @property
    def ric_tan(self) -> float:
        st = self.st
        return -(st.h * st.d2h + (self.triple.n - 2) * (st.dh ** 2 - 1.0)) \
            / st.h ** 2

    @property
    def scalar(self) -> float:
        return self.ric_rr + (self.triple.n - 1) * self.ric_tan

    @property
    def hess_u_rr(self) -> float:
        return self.st.d2u

    @property
    def hess_u_tan(self) -> float:
        return (self.st.dh / self.st.h) * self.st.du

    @property
    def lap_u(self) -> float:
        return self.st.d2u + (self.triple.n - 1) * self.hess_u_tan

    @property
    def hess_u_norm2(self) -> float:
        return self.st.d2u ** 2 + (self.triple.n - 1) * self.hess_u_tan ** 2

    @property
    def grad_u_norm2(self) -> float:
        return self.st.du ** 2

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
        return (self.lap_u - self.hess_u_rr) / abs(self.st.du)

    @property
    def hess_phi_components(self) -> tuple[float, float]:
        """hess_g phi as a (0,2)-tensor in the g0-orthonormal frame."""
        u, du2, d = self.st.u, self.st.du ** 2, self.D
        s = float(self.triple.lambda_sign)
        return (s * self.hess_u_rr / d + u * du2 / d ** 2,
                s * self.hess_u_tan / d + u * du2 / d ** 2)

    @cached_property
    def hess_phi_nn(self) -> float:
        """hess_g phi(nu_g, nu_g) for the g-unit normal nu_g."""
        return self.D * self.hess_phi_components[0]

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
        return self.hess_u_norm2 + n * u * u * w_norm * (w_norm - 2.0)

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
    """The pointwise record at an interior point x, built from one profile
    evaluation."""
    lo, hi = triple.domain
    if not (lo < x < hi):
        raise ValueError(f"x={x} outside the open interior ({lo}, {hi})")
    st = triple.radial_state(x)
    if st.h <= 0.0:
        raise ValueError(f"degenerate warping radius h={st.h} at x={x}")
    return SphereData(triple, x, st)


def warped_curvature(triple: StaticTriple, x: float) -> SphereData:
    """The record at radial coordinate x, read for the curvature of g0."""
    return sphere_data(triple, x)


def static_residual(triple: StaticTriple, x: float) -> tuple[float, float]:
    """Residuals of the two field equations at x.

    Returns (tensor_residual, laplace_residual): the max over the two
    independent components of |u Ric - D2u - sign*n*u g0| and
    |Delta u + sign*n*u|.  Both vanish (to float noise) iff the triple
    solves the system at x.
    """
    sp = sphere_data(triple, x)
    u, eps_n = sp.u, triple.lambda_sign * triple.n
    t_rr = u * sp.ric_rr - sp.hess_u_rr - eps_n * u
    t_tan = u * sp.ric_tan - sp.hess_u_tan - eps_n * u
    lap = sp.lap_u + eps_n * u
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


def to_arclength(triple: StaticTriple,
                 samples: int = 8000) -> tuple[StaticTriple, Callable[[float], float]]:
    """Re-express an areal-chart triple in arclength, via rho = int dr/sqrt(f).

    The domain is inset by ARCLENGTH_MARGIN * span per side so the 1/sqrt(f)
    integrand stays finite, and the profiles become cubic interpolants of
    the sampled values.  `f` is evaluated elementwise on numpy arrays of
    quadrature nodes (arithmetic, not `math.*`); a node where it is not
    positive or is NaN raises ValueError.  Boundary data is not carried
    over: the converted triple is meant for interior curvature evaluation
    and cross-checks.

    Returns (converted triple, rho_of_r callable).
    """
    if triple.chart != "areal":
        raise ValueError("to_arclength expects an areal-chart triple")
    import numpy as np
    from scipy.interpolate import CubicSpline
    lo, hi = triple.domain
    span = hi - lo
    a, b = lo + ARCLENGTH_MARGIN * span, hi - ARCLENGTH_MARGIN * span
    # Chebyshev-extrema clustering resolves the near-horizon stretching
    s = np.linspace(0.0, 1.0, samples)
    r_grid = a + (b - a) * 0.5 * (1.0 - np.cos(math.pi * s))
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_evals=20_000)

    def jacobian(r):  # 1/sqrt(f) on an array of nodes
        fval = triple.f.fn(r)[0]
        if not np.all(fval > 0.0):
            bad = r[~(fval > 0.0)][0]
            raise ValueError(f"metric function not positive at x={bad}")
        return 1.0 / np.sqrt(fval)

    # one Gauss-Kronrod panel per segment, all segments at once; only those
    # it does not resolve go through `adaptive`, which starts from that panel
    seg, err, _ = _kronrod_panel(jacobian, r_grid[:-1], r_grid[1:])
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(seg))
    for i in np.flatnonzero(err > tol):
        seg[i] = adaptive(triple.arclength_jacobian, r_grid[i],
                          r_grid[i + 1], cfg).value
    rho = np.concatenate(([0.0], np.cumsum(seg)))
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
