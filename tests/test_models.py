import math

import pytest

from staticlab import (
    SdSParams,
    admissible_mass_bound,
    anti_de_sitter,
    by_name,
    de_sitter,
    nariai,
    schwarzschild_de_sitter,
    static_residual,
)
from staticlab.cli import _parse_grid
from staticlab.geometry import linspace
from staticlab.models import bracketed_root
from staticlab.roots import MAX_ITERATIONS, find_root

from oracles import bisect, sds_horizon_data


def test_mass_bound_values():
    assert admissible_mass_bound(3) == pytest.approx(math.sqrt(1 / 27))
    assert admissible_mass_bound(4) == pytest.approx(0.125)


def test_sds_params_validation():
    with pytest.raises(ValueError):
        SdSParams(n=3, m=0.0)
    with pytest.raises(ValueError):
        SdSParams(n=3, m=-0.1)
    with pytest.raises(ValueError):
        SdSParams(n=3, m=admissible_mass_bound(3))  # rejects the bound itself
    with pytest.raises(ValueError):
        SdSParams(n=2, m=0.1)
    SdSParams(n=3, m=admissible_mass_bound(3) - 1e-6)


@pytest.mark.parametrize("build", [
    de_sitter, anti_de_sitter, nariai,
    lambda n: schwarzschild_de_sitter(SdSParams(n=n, m=1e-80)),
], ids=["desitter", "antidesitter", "nariai", "sds"])
def test_dimension_from_3_to_438(build):
    # |S^(n-1)| = 3.2e-308 at n = 438 and subnormal from 439 on
    assert build(438).n == 438
    for n in (2, 439):
        with pytest.raises(ValueError,
                           match=f"dimension must be from 3 to 438, got {n}"):
            build(n)


def test_bracketed_root_basic():
    root = bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0,
                          dfn=lambda x: 2 * x)
    assert root == pytest.approx(math.sqrt(2), abs=1e-14)
    with pytest.raises(ValueError):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    # without a derivative the steps are false position and bisection
    root = bracketed_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-14)


@pytest.mark.parametrize("m", [0.05, 0.1, 0.15])
def test_sds_roots_against_oracle(m):
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=m))
    r0_o, r1_o, r2_o, f0_o, k1_o, k2_o = sds_horizon_data(3, m)
    r1, r2 = tr.domain
    assert r1 == pytest.approx(r1_o, abs=1e-10)
    assert r2 == pytest.approx(r2_o, abs=1e-10)
    assert tr.extremum.location == pytest.approx(r0_o, abs=1e-12)
    inner, outer = sorted(tr.boundaries, key=lambda b: b.location)
    assert inner.surface_gravity == pytest.approx(k1_o, rel=1e-10)
    assert outer.surface_gravity == pytest.approx(k2_o, rel=1e-10)


def test_sds_root_finder_precision():
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=0.1))
    f = tr.f
    r1, r2 = tr.domain
    assert abs(f(r1)[0]) <= 1e-12
    assert abs(f(r2)[0]) <= 1e-12
    assert abs(f(tr.extremum.location)[1]) <= 1e-12


@pytest.mark.parametrize("n", [420, 430, 438])
def test_sds_inner_horizon_at_tiny_mass_in_high_dimension(n):
    # from the left end of its bracket f' ~ 2m(n-2) r^(1-n) is so steep
    # that each Newton step moves r by about r/n: the solver bisects where
    # its steps stop shrinking, instead of stopping 200 steps short with
    # f(r1) = -187 at n = 420
    tr = schwarzschild_de_sitter(SdSParams(n=n, m=1e-20))
    for r in tr.domain:
        fval, f1, _ = tr.f(r)
        assert abs(fval) <= 1e-12 * abs(f1) * r


@pytest.mark.parametrize("n, floor", [(3, 5e-13), (4, 5e-25)])
def test_sds_mass_floor(n, floor):
    # below r^(n-2)(1 - r^2)/2 at r = 1e-12, where the search for the inner
    # horizon starts, f has no root above it: refused with the interval
    # the family can build
    with pytest.raises(ValueError, match=rf"\({floor:g}, "):
        SdSParams(n=n, m=0.98 * floor)
    tr = schwarzschild_de_sitter(SdSParams(n=n, m=1.02 * floor))
    assert 1e-12 < tr.domain[0] < 1.1e-12


def test_find_root_that_runs_out_of_iterations_raises():
    # a slope 100 times too large makes every Newton step a hundredth of
    # the one needed; the steps keep shrinking and stay inside the bracket
    calls = []

    def g(x):
        calls.append(x)
        return x * x - 2.0, 100.0 * 2.0 * x

    with pytest.raises(ValueError, match=r"no root located on \[0.0, 2.0\]"
                                         r" in 200 iterations; smallest"):
        find_root(g, 0.0, 2.0)
    assert len(calls) == MAX_ITERATIONS + 2  # the two ends, then the loop
    assert find_root(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0) == \
        pytest.approx(math.sqrt(2.0), rel=1e-15)


def _inner_horizon(n, m):
    """f = 1 - r^2 - 2m r^(2-n) and its slope, and r0, where f peaks: from
    below r0, Newton crawls up to the inner horizon in high dimension."""
    r0 = (m * (n - 2)) ** (1.0 / n)
    return (lambda r: (1 - r * r - 2 * m * r ** (2 - n),
                       -2 * r + 2 * m * (n - 2) * r ** (1 - n))), r0


_G20, _R20 = _inner_horizon(20, 1e-3)
_G60, _R60 = _inner_horizon(60, 1e-4)


@pytest.mark.parametrize("g, lo, hi, evaluations", [
    pytest.param(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, 8, id="slope"),
    pytest.param(lambda x: (x * x - 2.0, None), 1.0, 2.0, 11, id="no-slope"),
    pytest.param(lambda x: (math.sqrt(x) - 1e-3, None), 0.0, 1.0, 13,
                 id="no-slope-concave"),
    pytest.param(lambda x: (math.sqrt(1.0 - x) - 0.3,
                            -0.5 / math.sqrt(1.0 - x) if x < 1.0 else None),
                 0.0, 1.0, 9, id="sqrt-horizon"),
    pytest.param(lambda x: (math.sqrt(1.0 - x) - 0.3, None), 0.0, 1.0, 26,
                 id="sqrt-horizon-no-slope"),
    pytest.param(_G20, 0.5 * _R20, _R20, 21, id="crawl-n20"),
    pytest.param(_G60, 1e-3 * _R60, _R60, 27, id="crawl-n60"),
    # the first iterate replaces the upper end, so no end is halved yet
    pytest.param(lambda x: (math.sqrt(x) - 0.3, None), 0.0, 1.0, 13,
                 id="upper-end-first"),
    # a slope 64 |g| makes every Newton step exactly 1/64 long: a move as
    # long as the last one counts as not shrinking
    pytest.param(lambda x: (math.sqrt(x) - 0.3,
                            64.0 * abs(math.sqrt(x) - 0.3)),
                 0.0, 1.0, 19, id="equal-moves"),
])
def test_find_root_evaluation_counts(g, lo, hi, evaluations):
    # the count pins each rule of the solver on a fixed bracket: the Newton
    # step and its stop, the Illinois halving of either end (and of neither
    # after the first iterate), the false position fallback, and the crawl
    # counter (which fires once at n = 20 and twice at n = 60, and counts a
    # move of the same length as the last)
    calls = []

    def counted(x):
        calls.append(x)
        return g(x)

    x = find_root(counted, lo, hi)
    assert len(calls) == evaluations
    assert abs(g(x)[0]) == min(abs(g(y)[0]) for y in calls)
    assert x == pytest.approx(bisect(lambda y: g(y)[0], lo, hi), rel=1e-15)


def test_sds_example_roots_m01():
    # frozen from the bisection oracle
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=0.1))
    assert tr.domain[0] == pytest.approx(0.209148848441317, abs=1e-12)
    assert tr.domain[1] == pytest.approx(0.878885066249973, abs=1e-12)
    inner = min(tr.boundaries, key=lambda b: b.location)
    assert inner.surface_gravity == pytest.approx(3.49237298163734, rel=1e-12)


def test_sds_kappa_exceeds_one_on_mass_grid():
    for m in _parse_grid("0.01:0.19:0.01"):
        tr = schwarzschild_de_sitter(SdSParams(n=3, m=m))
        inner = min(tr.boundaries, key=lambda b: b.location)
        assert inner.surface_gravity > 1.0, f"m={m}"


def test_all_constructors_solve_field_equations():
    triples = [de_sitter(3), de_sitter(5), anti_de_sitter(3),
               anti_de_sitter(4), nariai(3), nariai(4), nariai(5),
               schwarzschild_de_sitter(SdSParams(3, 0.05)),
               schwarzschild_de_sitter(SdSParams(3, 0.15)),
               schwarzschild_de_sitter(SdSParams(4, 0.08))]
    for tr in triples:
        worst = max(max(static_residual(tr, x))
                    for x in tr.interior_points(100))
        assert worst <= 1e-9, tr.name


def test_de_sitter_gradient_identity(ds3):
    # |Du|^2 = 1 - u^2 exactly on the hemisphere
    for r in linspace(0.05, 0.95, 30):
        st = ds3.radial_state(r)
        assert st.du ** 2 == pytest.approx(1 - st.u ** 2, abs=1e-14)
        assert st.du ** 2 == pytest.approx(r * r, abs=1e-14)


def test_de_sitter_extremum(ds3):
    assert ds3.u.value(0.0) == 1.0
    assert abs(ds3.u(1e-12)[1]) < 1e-9
    assert ds3.extremum.discrete and ds3.extremum.count == 1
    assert ds3.boundaries[0].sphere_radius == 1.0
    # boundary sphere area 4 pi for n = 3
    from staticlab import unit_sphere_area
    assert unit_sphere_area(3) * ds3.boundaries[0].sphere_radius ** 2 \
        == pytest.approx(4 * math.pi)


def test_anti_de_sitter_gradient_identity(ads3):
    for r in linspace(0.1, 50, 30):
        st = ads3.radial_state(r)
        assert st.u ** 2 - 1 - st.du ** 2 == pytest.approx(0.0, abs=1e-10)
    assert ads3.u.value(0.0) == 1.0
    assert ads3.extremum.discrete and ads3.extremum.count == 1


def test_anti_de_sitter_conformal_boundary_area(ads3):
    # area of {u = t} w.r.t. g approaches 4 pi
    from staticlab.levelset import conformal_boundary_data
    bdry = conformal_boundary_data(ads3)
    assert bdry.area_g == pytest.approx(4 * math.pi, rel=1e-12)
    assert bdry.gradient_limit == pytest.approx(0.0, abs=1e-10)


def test_nariai_structure(nariai3):
    # constant warp, gravity sqrt(n) at both ends, full extremal sphere
    for rho in nariai3.interior_points(20):
        st = nariai3.radial_state(rho)
        assert st.dh == 0.0
        assert st.h == pytest.approx(math.sqrt(1 / 3))
    for b in nariai3.boundaries:
        assert b.surface_gravity == pytest.approx(math.sqrt(3), rel=1e-14)
    assert not nariai3.extremum.discrete
    assert nariai3.h(nariai3.extremum.location)[0] == \
        pytest.approx(math.sqrt(1 / 3))


def test_small_mass_limit_approaches_de_sitter():
    ds = de_sitter(3)
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=1e-6))
    hi = min(tr.domain[1], 0.999)
    for r in linspace(0.2, hi, 50):
        assert abs(tr.f(r)[0] - ds.f(r)[0]) <= 1e-4


def test_small_mass_outer_kappa_near_one():
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=1e-5))
    outer = max(tr.boundaries, key=lambda b: b.location)
    assert outer.surface_gravity > 1.0
    assert outer.surface_gravity == pytest.approx(1.0, abs=1e-2)


def test_by_name_lookup():
    assert by_name("desitter", n=4, m=0.1).name == "de_sitter"
    assert by_name("antidesitter", n=3, m=0.1).lambda_sign == -1
    assert by_name("sds", n=3, m=0.05).name.startswith("schwarzschild")
    assert by_name("nariai", n=3, m=0.1).name == "nariai(n=3)"
    for name in ("mystery", "ds", "de-sitter", "SdS"):
        with pytest.raises(ValueError):
            by_name(name, n=3, m=0.1)


def test_normalization_factor_recoverable(sds01):
    # u * (1/factor) reproduces the unnormalised sqrt(f)
    for r in sds01.interior_points(10):
        u = sds01.u.value(r)
        f = sds01.f(r)[0]
        assert u / sds01.normalization_factor == pytest.approx(
            math.sqrt(f), rel=1e-12)
