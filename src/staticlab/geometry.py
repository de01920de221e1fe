"""The pointwise record and field equations of warped-product static metrics.

A rotationally symmetric static triple carries a metric of one of two forms:

* arclength chart:  g0 = drho (x) drho + h(rho)^2 g_{S^(n-1)}
* areal chart:      g0 = dr (x) dr / f(r) + r^2 g_{S^(n-1)}

A triple is in the areal chart exactly when it has a metric function f,
and then it has no h profile and u = c sqrt(f), c = `normalization_factor`
(Birkhoff), which `areal_potential` alone derives: an areal record
evaluates f once and no `u`.  Every curvature formula below is written in
arclength-normalised variables (u, u', u'', h, h', h''), where a prime is
d/drho.  The areal chart supplies them through u' = sqrt(f) du/dr,
u'' = f d2u/dr2 + f' du/dr / 2, h = r, h' = sqrt(f), h'' = f'/2, so the
two charts share one code path.

`sphere_data(triple, x)` builds the one pointwise record, `SphereData`,
refused in the areal chart where f is not positive: plain data, the
triple's n and sign, d(rho)/dx and the state from one profile evaluation
at x, from which the curvature of g0, the derivatives of u and the
conformal dictionary (see `conformal`) are computed on each read.

The field equations verified here are, with the cosmological constant
normalised to sign * n(n-1)/2,

    u Ric = D2u + sign * n * u * g0,      Delta u = -sign * n * u,

whose residuals `static_residual` reports componentwise.

A value derived from a triple and read again is kept in that triple's
`__dict__` by the module that derives it: the monotone branches here (a
`functools.cached_property`), the conformal boundary limits in `levelset`,
the last slab's table in `identities`.  Nothing is kept when the derivation
raises, `dataclasses.replace` starts afresh, and a record keeps nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Optional, Sequence


BRANCH_INSET = 1e-13  # fraction of the domain span kept clear of branch ends
INTERIOR_PAD = 0.01  # fraction of the span interior_points drops per side
ARCLENGTH_MARGIN = 1e-4  # fraction of the span to_arclength drops per side
EXTREMUM_BAND = 1e-6  # |u - 1| below which the conformal metric is refused
MAX_DIMENSION = 438  # |S^(n-1)| is subnormal from n = 439 on, 0.0 from 456
BIRKHOFF_TOL = 1e-12  # |u - c sqrt(f)|/u at to_arclength's checks: <= 1.8e-14


def check_dimension(n: int) -> None:
    """Refuse a dimension below 3, or above MAX_DIMENSION, where the area
    of the unit sphere leaves the normal double range."""
    if not 3 <= n <= MAX_DIMENSION:
        raise ValueError(
            f"dimension must be from 3 to {MAX_DIMENSION}, got {n}")


@cache  # the level integrals read it once per sphere term
def unit_sphere_area(n: int) -> float:
    """Hypersurface area of the unit sphere S^(n-1) in R^n, through
    logarithms: pi^(n/2) and Gamma(n/2) overflow from n = 344 on."""
    return sphere_area_from_log(n, 0.0)


def sphere_area_from_log(n: int, log_r: float) -> float:
    """Area of the round sphere S^(n-1) of radius exp(log_r), combined in
    logarithms before one `exp`, and inf past the double range."""
    try:
        return 2.0 * math.exp((n / 2.0) * math.log(math.pi)
                              - math.lgamma(n / 2.0) + (n - 1) * log_r)
    except OverflowError:
        return math.inf


def sphere_area(n: int, r: float) -> float:
    """Area of the round sphere S^(n-1) of radius r."""
    return unit_sphere_area(n) * r ** (n - 1)


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
    closed form uses arithmetic, not `math.*`.  `hermite` builds a profile
    from values and derivatives at knots.
    """

    domain: tuple[float, float]
    fn: Callable[[float], tuple[float, float, float]]

    def __call__(self, x: float) -> tuple[float, float, float]:
        return self.fn(x)

    def value(self, x: float) -> float:
        return self.fn(x)[0]

    @staticmethod
    def hermite(xs: list[float], ys: list[float], d1s: list[float],
                d2s: list[float]) -> "RadialProfile":
        """The C^2 piecewise quintic through the knots xs (increasing) with
        value, first and second derivative ys, d1s and d2s at each: exact at
        the knots, and with no linear solve, as each piece is built from its
        two knots when it is evaluated.  Takes plain lists of floats; outside
        [xs[0], xs[-1]] the end pieces extrapolate."""
        last = len(xs) - 2

        def fn(x: float) -> tuple[float, float, float]:
            i = min(max(bisect_right(xs, x) - 1, 0), last)
            # y = y0 + s d0 + s^2 a0/2 + c3 s^3 + c4 s^4 + c5 s^5 with
            # s = x - x0; r0, r1, r2 are what the quadratic misses at the
            # right knot in value, slope*step and curvature*step^2
            x0, y0, d0, a0 = xs[i], ys[i], d1s[i], d2s[i]
            step = xs[i + 1] - x0
            r0 = ys[i + 1] - y0 - step * (d0 + 0.5 * step * a0)
            r1 = step * (d1s[i + 1] - d0 - step * a0)
            r2 = step * step * (d2s[i + 1] - a0)
            c3 = (10.0 * r0 - 4.0 * r1 + 0.5 * r2) / step ** 3
            c4 = (7.0 * r1 - 15.0 * r0 - r2) / step ** 4
            c5 = (6.0 * r0 - 3.0 * r1 + 0.5 * r2) / step ** 5
            s = x - x0
            return (
                y0 + s * (d0 + s * (0.5 * a0 + s * (c3 + s * (c4 + s * c5)))),
                d0 + s * (a0 + s * (3.0 * c3 + s * (4.0 * c4 + s * 5 * c5))),
                a0 + s * (6.0 * c3 + s * (12.0 * c4 + s * 20.0 * c5)))

        return RadialProfile(domain=(xs[0], xs[-1]), fn=fn)


def areal_potential(c: float, fval: float, f1: float,
                    f2: float) -> tuple[float, float, float]:
    """u = c sqrt(f), du/dr and d2u/dr2 from f, f', f'' at one radius, f
    clipped at 0.  Both derivatives divide by sqrt(f) kept off 0 at 1e-100,
    whose cube is a normal float, for level location, which reads u where f
    rounds to 0 or below, next to a horizon: there u is 0 and the
    derivatives are finite but meaningless.  A record refuses such an x."""
    fv = max(fval, 0.0)
    sf = math.sqrt(fv)
    g = sf if sf > 1e-100 else 1e-100
    return (sf * c, c * f1 / (2.0 * g),
            c * (2.0 * fv * f2 - f1 ** 2) / (4.0 * g ** 3))


@dataclass(frozen=True)
class BoundaryComponent:
    location: float
    sphere_radius: float
    surface_gravity: float


def boundary_scalar_curvature(n: int, component: BoundaryComponent) -> float:
    """Intrinsic scalar curvature of a round-sphere boundary component."""
    return (n - 1) * (n - 2) / component.sphere_radius ** 2


@dataclass(frozen=True)
class Extremum:
    """Where u attains its normalised extremum (max for sign=+1, min for -1).

    For the model families the extremal set is either a single point
    (count=1) or a whole sphere (count=None, not discrete); checks that
    assume a discrete extremal set must refuse in the latter case rather
    than guess a count.
    """

    location: float
    count: Optional[int]

    @property
    def discrete(self) -> bool:
        return self.count is not None


@dataclass(frozen=True)
class Branch:
    """The bracket on which a level of u is sought: a maximal interval of
    the radial domain on which u is monotone, with its ends a < b taken
    BRANCH_INSET * span inside, and u_a, u_b the values of u there."""

    a: float
    b: float
    u_a: float
    u_b: float

    def meets(self, t: float) -> bool:
        """Whether the level t lies in the range of u on the bracket, its
        ends included."""
        return self.u_a <= t <= self.u_b or self.u_b <= t <= self.u_a


@dataclass(frozen=True)
class StaticTriple:
    """A rotationally symmetric static solution (M, g0, u).

    lambda_sign is +1 for positive cosmological constant (u normalised to
    max 1, u = 0 on the boundary) and -1 for negative (u normalised to
    min 1, empty boundary, possibly conformally compact).  The chart
    follows `f`; in the areal chart `h` is None and u, if given as None,
    is f's `areal_potential`, as a given u must be.  `branch` is None for
    the whole solution, and "inner" or "outer" on a view made by `on_branch`.
    """

    n: int
    lambda_sign: int
    u: Optional[RadialProfile]
    h: Optional[RadialProfile]
    f: Optional[RadialProfile]
    boundaries: tuple[BoundaryComponent, ...]
    extremum: Extremum
    normalization_factor: float = 1.0
    conformally_compact: bool = False
    name: str = ""
    branch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.u is None:  # areal: the `u` that level location reads
            f, c = self.f.fn, self.normalization_factor
            object.__setattr__(self, "u", RadialProfile(
                self.f.domain, lambda r: areal_potential(c, *f(r))))

    @property
    def domain(self) -> tuple[float, float]:
        return self.u.domain

    @property
    def chart(self) -> str:
        return "arclength" if self.f is None else "areal"

    def radial_state(self, x: float) -> "SphereData":
        """The record at x from one evaluation of u and h, or of f alone,
        refused where f is not positive or is NaN."""
        if self.f is None:
            return SphereData(self.n, self.lambda_sign, 1.0, x,
                              *self.u.fn(x), *self.h.fn(x))
        fval, f1, f2 = self.f.fn(x)
        if not fval > 0.0:
            raise ValueError(f"metric function not positive at x={x}")
        u, du, d2u = areal_potential(self.normalization_factor, fval, f1, f2)
        sf = math.sqrt(fval)
        return SphereData(self.n, self.lambda_sign, 1.0 / sf, x, u, sf * du,
                          fval * d2u + 0.5 * f1 * du, x, sf, 0.5 * f1)

    def interior_points(self, count: int) -> list[float]:
        """Uniform sample of the interior, inset by INTERIOR_PAD * span per
        side."""
        lo, hi = self.domain
        pad = INTERIOR_PAD * (hi - lo)
        return linspace(lo + pad, hi - pad, count)

    def on_branch(self, which: str) -> "StaticTriple":
        """The same solution on one side of its extremum, "inner" or
        "outer": `branches()` and `horizons()` keep only the innermost or
        outermost one where there are two.  The view gets this triple's
        branches, not derived again, and none of its other kept values."""
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

    @cached_property  # every level location reads the branches
    def _branches(self) -> tuple[Branch, ...]:
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
            a, b = a + BRANCH_INSET * span, b - BRANCH_INSET * span
            out.append(Branch(a, b, self.u.value(a), self.u.value(b)))
        return tuple(out)


def check_window(u: float) -> None:
    if abs(u - 1.0) < EXTREMUM_BAND:
        raise ValueError(
            f"point with u={u} lies in the excluded band |u-1| < "
            f"{EXTREMUM_BAND} around the extremal set; the conformal metric "
            "degenerates there")


@dataclass
class SphereData:
    """Everything known at radial point x, i.e. on the level sphere through x.

    Plain data from `StaticTriple.radial_state`: the triple's n, lambda_sign
    and d(rho)/dx (1, or 1/sqrt(f) = 1/h' in the areal chart), not the
    triple, and the arclength-normalised state (u, u', u'', h, h', h'')
    from one profile evaluation.  Every other entry,
    in orthonormal (radial, sphere) components, is computed from them on
    each read and kept nowhere, and refuses only when read: the
    curvature-deficit integrand reaches the extremal sphere, where W, H and
    the dictionary are singular (only its entries refuse that band).
    """

    n: int
    lambda_sign: int
    arclength_jacobian: float
    x: float
    u: float
    du: float
    d2u: float
    h: float
    dh: float
    d2h: float

    @property
    def grad_u(self) -> float:
        """|Du|."""
        return abs(self.du)

    @property
    def ric_rr(self) -> float:
        return -(self.n - 1) * self.d2h / self.h

    @property
    def ric_tan(self) -> float:
        h, n = self.h, self.n
        return -(h * self.d2h + (n - 2) * (self.dh ** 2 - 1.0)) / h ** 2

    @property
    def hess_u_rr(self) -> float:
        return self.d2u

    @property
    def hess_u_tan(self) -> float:
        return (self.dh / self.h) * self.du

    @property
    def lap_u(self) -> float:
        return self.d2u + (self.n - 1) * self.hess_u_tan

    @property
    def hess_u_norm2(self) -> float:
        return self.d2u ** 2 + (self.n - 1) * self.hess_u_tan ** 2

    @property
    def area(self) -> float:
        """Sphere area w.r.t. g0."""
        return sphere_area(self.n, self.h)

    @property
    def D(self) -> float:
        """|1 - u^2| = sign (1 - u^2), the conformal denominator (the
        dictionary's beta), refused where it is not positive."""
        u = self.u
        d = self.lambda_sign * (1.0 - u * u)
        if d <= 0.0:
            raise ValueError(f"conformal factor degenerate at u={u}")
        return d

    @property
    def area_g(self) -> float:
        """Sphere area w.r.t. the conformal metric, of radius h/sqrt(D):
        scale-free, so it does not overflow where h^(n-1) would, and inf
        past the double range."""
        n, radius = self.n, self.h / math.sqrt(self.D)
        try:
            return unit_sphere_area(n) * radius ** (n - 1)
        except OverflowError:
            return math.inf

    @property
    def W(self) -> float:
        """|Du|^2 / |1 - u^2|."""
        return self.du ** 2 / self.D

    @property
    def H(self) -> float:
        """Mean curvature w.r.t. g0 and the unit normal nu = Du/|Du|:
        H = Delta u / |Du| - D2u(nu, nu)/|Du|."""
        if self.du == 0.0:
            raise ValueError(f"singular level at x={self.x}")
        return (self.lap_u - self.hess_u_rr) / abs(self.du)

    @property
    def hess_phi_components(self) -> tuple[float, float]:
        """hess_g phi as a (0,2)-tensor in the g0-orthonormal frame."""
        u, du2, d = self.u, self.du ** 2, self.D
        s = float(self.lambda_sign)
        return (s * self.hess_u_rr / d + u * du2 / d ** 2,
                s * self.hess_u_tan / d + u * du2 / d ** 2)

    @property
    def hess_phi_nn(self) -> float:
        """hess_g phi(nu_g, nu_g) for the g-unit normal nu_g: D times the
        radial entry of `hess_phi_components`, formed alone."""
        d = self.D
        return d * (float(self.lambda_sign) * self.d2u / d
                    + self.u * self.du ** 2 / d ** 2)

    @property
    def H_g(self) -> float:
        """Mean curvature of the level w.r.t. g."""
        check_window(self.u)
        d, n, u = self.D, self.n, self.u
        mean = self.H if self.lambda_sign > 0 else -self.H
        return math.sqrt(d) * (mean + (n - 1) * u * abs(self.du) / d)

    @property
    def hess_phi_norm2(self) -> float:
        """|hess_g phi|_g^2."""
        check_window(self.u)
        n, u, w_norm = self.n, self.u, self.W
        return self.hess_u_norm2 + n * u * u * w_norm * (w_norm - 2.0)

    @property
    def lap_phi(self) -> float:
        """lap_g phi (on solutions)."""
        check_window(self.u)
        return -self.n * self.u * (1.0 - self.W)

    @property
    def gamma(self) -> float:
        """gamma(phi) = D^((n+2)/2) / u."""
        check_window(self.u)
        return self.D ** ((self.n + 2) / 2.0) / self.u

    @property
    def scalar_g(self) -> float:
        """R_g, from the trace identity."""
        check_window(self.u)
        n, u = self.n, self.u
        return (n - 1) * ((n - 2) + (n * u * u + 2.0) * (1.0 - self.W))


def sphere_data(triple: StaticTriple, x: float) -> SphereData:
    """The pointwise record at an interior point x, built from one profile
    evaluation."""
    lo, hi = triple.u.domain
    if not (lo < x < hi):
        raise ValueError(f"x={x} outside the open interior ({lo}, {hi})")
    sp = triple.radial_state(x)
    if sp.h <= 0.0:
        raise ValueError(f"degenerate warping radius h={sp.h} at x={x}")
    return sp


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


def to_arclength(triple: StaticTriple,
                 samples: int = 8000) -> tuple[StaticTriple, Callable[[float], float]]:
    """Re-express an areal-chart triple in arclength, via rho = int dr/sqrt(f).

    The domain is inset by ARCLENGTH_MARGIN * span per side so the 1/sqrt(f)
    integrand stays finite.  rho is integrated on a grid of `samples` radii,
    and u(rho), h(rho) and rho(r) become quintic Hermite interpolants
    (`RadialProfile.hermite`) of the exact state at the grid points, all
    from `f`, f' and f'' on numpy arrays (arithmetic, not `math.*`): on the
    quadrature nodes and on the grid.  As u = c sqrt(f), u' = c f'/2 and
    u'' = c f'' sqrt(f)/2 divide by nothing at a horizon; h = r,
    h' = sqrt(f), h'' = f'/2; d(rho)/dr = 1/sqrt(f), d2(rho)/dr2 =
    -f'/(2 f^(3/2)).  A point where f is not positive or is NaN raises
    ValueError, as does any of three interior knots where `u` is read and
    is not c sqrt(f) to BIRKHOFF_TOL.  Boundary data is not carried over:
    the converted triple is for interior curvature and cross-checks.

    Returns (converted triple, rho_of_r callable).
    """
    if triple.chart != "areal":
        raise ValueError("to_arclength expects an areal-chart triple")
    import numpy as np

    # here, so that the commands, which convert nothing, do not compile it
    from .quadrature import QuadratureConfig, _kronrod_panel, adaptive
    lo, hi = triple.domain
    span = hi - lo
    a, b = lo + ARCLENGTH_MARGIN * span, hi - ARCLENGTH_MARGIN * span
    # Chebyshev-extrema clustering resolves the near-horizon stretching
    s = np.linspace(0.0, 1.0, samples)
    r_grid = a + (b - a) * 0.5 * (1.0 - np.cos(math.pi * s))
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_evals=20_000)

    def metric(r):  # f, f' and f'' on one node or an array of nodes, f > 0
        values = triple.f.fn(r)
        if not np.all(values[0] > 0.0):
            bad = np.atleast_1d(r)[~np.atleast_1d(values[0] > 0.0)][0]
            raise ValueError(f"metric function not positive at x={bad}")
        return values

    def jacobian(r):  # 1/sqrt(f)
        return 1.0 / np.sqrt(metric(r)[0])

    # one Gauss-Kronrod panel per segment, all segments at once; only those
    # it does not resolve go through `adaptive`, which starts from that panel
    seg, err, _ = _kronrod_panel(jacobian, r_grid[:-1], r_grid[1:])
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(seg))
    for i in np.flatnonzero(err > tol):
        seg[i] = adaptive(jacobian, r_grid[i], r_grid[i + 1], cfg).value
    rho = np.concatenate(([0.0], np.cumsum(seg)))
    fval, f1, f2 = np.broadcast_arrays(r_grid, *metric(r_grid))[1:]
    sf, c, r_list = np.sqrt(fval), triple.normalization_factor, r_grid.tolist()
    u, knots = c * sf, [samples // 4, samples // 2, 3 * samples // 4]
    for x, want in zip(r_grid[knots].tolist(), u[knots].tolist()):
        if not abs(triple.u.fn(x)[0] - want) <= BIRKHOFF_TOL * want:
            raise ValueError(f"u is not normalization_factor*sqrt(f) at x={x}")
    rho_list = rho.tolist()
    u_prof = RadialProfile.hermite(rho_list, u.tolist(),
                                   (0.5 * c * f1).tolist(),
                                   (0.5 * f2 * u).tolist())
    h_prof = RadialProfile.hermite(rho_list, r_list, sf.tolist(),
                                   (0.5 * f1).tolist())
    rho_prof = RadialProfile.hermite(r_list, rho_list, (1.0 / sf).tolist(),
                                     (-0.5 * f1 / (fval * sf)).tolist())
    xstar = triple.extremum.location
    ext = replace(triple.extremum,
                  location=rho_prof.value(min(max(xstar, a), b)))
    return StaticTriple(
        n=triple.n, lambda_sign=triple.lambda_sign,
        u=u_prof, h=h_prof, f=None, boundaries=(), extremum=ext,
        normalization_factor=c,
        conformally_compact=triple.conformally_compact,
        name=triple.name + "[arclength]"), rho_prof.value
