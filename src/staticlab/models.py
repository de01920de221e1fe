"""Closed-form static solution families.

All constructors normalise the potential so that max u = 1 (positive
cosmological constant) or min u = 1 (negative), and record horizon data.
The constant is itself normalised to sign * n(n-1)/2 throughout.
An areal family gives f and c; its u is `geometry.areal_potential`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .geometry import (BoundaryComponent, Extremum, RadialProfile,
                       StaticTriple, check_dimension)
from .report import Refused
from .roots import find_root

ADS_R_MAX = 500.0  # where anti-de Sitter's numerical domain ends


def admissible_mass_bound(n: int) -> float:
    """Largest mass for which the f(r) = 1 - r^2 - 2m r^(2-n) profile has two
    positive roots (the extremal limit where the horizons merge)."""
    return math.sqrt((n - 2) ** (n - 2) / n ** n)


def _inner_start(n: int) -> float:
    """Where the inner SdS horizon is sought from: 1e-12, or where r^(1-n)
    in f' is at most 1e300.  It lies above only for m > r^(n-2)(1-r^2)/2."""
    return max(1e-12, 1e-300 ** (1.0 / (n - 1)))


@dataclass(frozen=True)
class SdSParams:
    n: int
    m: float

    def __post_init__(self) -> None:
        check_dimension(self.n)
        r_min = _inner_start(self.n)
        floor = r_min ** (self.n - 2) * (1.0 - r_min * r_min) / 2.0
        bound = admissible_mass_bound(self.n)
        if not floor < self.m < bound:
            raise Refused(f"mass m={self.m} outside the admissible "
                          f"interval ({floor:.6g}, {bound})")


def bracketed_root(fn: Callable[[float], float], lo: float, hi: float,
                   dfn: Callable[[float], float] | None = None) -> float:
    """Root of fn on [lo, hi] by the package's bracketed solver: Newton
    steps from `dfn` when given, false position and bisection otherwise."""
    return find_root(lambda x: (fn(x), dfn(x) if dfn else None), lo, hi,
                     fn(lo), fn(hi))


def de_sitter(n: int) -> StaticTriple:
    """Round-hemisphere solution: f(r) = 1 - r^2, u = sqrt(1 - r^2) on [0, 1],
    single horizon at r = 1 with unit surface gravity."""
    check_dimension(n)

    def f_fn(r: float) -> tuple[float, float, float]:
        return 1.0 - r * r, -2.0 * r, -2.0

    return StaticTriple(
        n=n, lambda_sign=+1, u=None, h=None, f=RadialProfile((0.0, 1.0), f_fn),
        boundaries=(BoundaryComponent(location=1.0, sphere_radius=1.0,
                                      surface_gravity=1.0),),
        extremum=Extremum(location=0.0, count=1),
        name="de_sitter",
    )


def anti_de_sitter(n: int) -> StaticTriple:
    """Hyperbolic solution: f(r) = 1 + r^2, u = sqrt(1 + r^2), empty boundary,
    conformally compact with defining function 1/sqrt(u^2 - 1) = 1/r.

    The manifold is unbounded; ADS_R_MAX only truncates the numerical domain
    and is chosen so every sampled field-equation term stays well inside
    double precision (the tensor terms grow like u)."""
    check_dimension(n)

    def f_fn(r: float) -> tuple[float, float, float]:
        return 1.0 + r * r, 2.0 * r, 2.0

    return StaticTriple(
        n=n, lambda_sign=-1, u=None, h=None,
        f=RadialProfile((0.0, ADS_R_MAX), f_fn), boundaries=(),
        extremum=Extremum(location=0.0, count=1),
        conformally_compact=True,
        name="anti_de_sitter",
    )


def schwarzschild_de_sitter(params: SdSParams) -> StaticTriple:
    """Two-horizon family: f(r) = 1 - r^2 - 2m r^(2-n) on [r1, r2], potential
    u = sqrt(f / f(r0)) with r0 = (m(n-2))^(1/n) the interior maximiser.

    The extremal set is the whole sphere r = r0, so it is flagged
    non-discrete; the inner surface gravity exceeds 1 for every mass.
    """
    n, m = params.n, params.m

    def f_val(r: float) -> float:
        return 1.0 - r * r - 2.0 * m * r ** (2 - n)

    def f_d1(r: float) -> float:
        return -2.0 * r + 2.0 * m * (n - 2) * r ** (1 - n)

    def f_d2(r: float) -> float:
        return -2.0 - 2.0 * m * (n - 2) * (n - 1) * r ** (-n)

    r0 = (m * (n - 2)) ** (1.0 / n)
    r1 = bracketed_root(f_val, _inner_start(n), r0, dfn=f_d1)
    r2 = bracketed_root(f_val, r0, 1.0, dfn=f_d1)
    f0 = f_val(r0)
    inv_sqrt_f0 = 1.0 / math.sqrt(f0)

    def f_fn(r: float) -> tuple[float, float, float]:
        return f_val(r), f_d1(r), f_d2(r)

    kappas = tuple(abs(f_d1(r)) / (2.0 * math.sqrt(f0)) for r in (r1, r2))
    boundaries = tuple(
        BoundaryComponent(location=r, sphere_radius=r, surface_gravity=k)
        for r, k in zip((r1, r2), kappas))
    return StaticTriple(
        n=n, lambda_sign=+1, u=None, h=None, f=RadialProfile((r1, r2), f_fn),
        boundaries=boundaries,
        extremum=Extremum(location=r0, count=None),
        normalization_factor=inv_sqrt_f0,
        name=f"schwarzschild_de_sitter(n={n}, m={m})",
    )


def nariai(n: int) -> StaticTriple:
    """Product solution: constant warping radius sqrt((n-2)/n) and potential
    u = sin(sqrt(n) rho) on [0, pi/sqrt(n)], surface gravity sqrt(n) at both
    horizons; the extremal set is a whole sphere."""
    check_dimension(n)
    h0 = math.sqrt((n - 2) / n)
    sn = math.sqrt(n)
    length = math.pi / sn

    def u_fn(rho: float) -> tuple[float, float, float]:
        return (math.sin(sn * rho), sn * math.cos(sn * rho),
                -n * math.sin(sn * rho))

    boundaries = tuple(
        BoundaryComponent(location=loc, sphere_radius=h0, surface_gravity=sn)
        for loc in (0.0, length))
    return StaticTriple(
        n=n, lambda_sign=+1, u=RadialProfile((0.0, length), u_fn),
        h=RadialProfile((0.0, length), lambda rho: (h0, 0.0, 0.0)),
        f=None,
        boundaries=boundaries,
        extremum=Extremum(location=0.5 * length, count=None),
        name=f"nariai(n={n})",
    )


def by_name(name: str, n: int, m: float) -> StaticTriple:
    """Constructor lookup by the command-line model name."""
    if name == "desitter":
        return de_sitter(n)
    if name == "antidesitter":
        return anti_de_sitter(n)
    if name == "sds":
        return schwarzschild_de_sitter(SdSParams(n=n, m=m))
    if name == "nariai":
        return nariai(n)
    raise Refused(f"unknown model {name!r}")
