import math

import numpy as np
import pytest

from staticlab import (
    Extremum,
    RadialProfile,
    SdSParams,
    StaticTriple,
    anti_de_sitter,
    boundary_scalar_curvature,
    de_sitter,
    geometry,
    nariai,
    schwarzschild_de_sitter,
    sphere_euler_characteristic,
    static_residual,
    surface_gravity,
    to_arclength,
    unit_sphere_area,
    warped_curvature,
)
from staticlab.quadrature import adaptive

from oracles import arclength_reference, numeric_curvature, sds_horizon_data


def make_arclength_triple(n, h_fn, u_fn, domain):
    """Bare triple for curvature evaluation (not necessarily a solution)."""
    return StaticTriple(
        n=n, lambda_sign=+1, chart="arclength",
        u=RadialProfile(domain, u_fn), h=RadialProfile(domain, h_fn), f=None,
        boundaries=(), extremum=Extremum(location=domain[0], discrete=True,
                                         count=1))


def test_unit_sphere_area_values():
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_sphere_euler_characteristic():
    assert [sphere_euler_characteristic(n) for n in (3, 4, 5, 6)] == [2, 0, 2, 0]
    # S^4 bounds the n = 5 hemisphere: chi = 2, like S^2 at n = 3
    for tr in (de_sitter(5), nariai(5),
               schwarzschild_de_sitter(SdSParams(n=5, m=0.01))):
        assert {c.euler_characteristic for c in tr.boundaries} == {2}
    assert {c.euler_characteristic for c in nariai(4).boundaries} == {0}


def test_round_sphere_slice_curvature():
    # unit round sphere: h = sin(rho), Ric = (n-1) g
    tr = make_arclength_triple(
        3, lambda r: (math.sin(r), math.cos(r), -math.sin(r)),
        lambda r: (1.0, 0.0, 0.0), (0.0, math.pi))
    c = warped_curvature(tr, 1.0)
    assert c.ric_rr == pytest.approx(2.0, abs=1e-12)
    assert c.ric_tan == pytest.approx(2.0, abs=1e-12)
    assert c.scalar == pytest.approx(6.0, abs=1e-12)


def test_flat_slice_curvature():
    tr = make_arclength_triple(3, lambda r: (r, 1.0, 0.0),
                               lambda r: (1.0, 0.0, 0.0), (0.0, 10.0))
    c = warped_curvature(tr, 2.0)
    assert abs(c.ric_rr) < 1e-14 and abs(c.ric_tan) < 1e-14
    assert abs(c.scalar) < 1e-14


def test_cylinder_curvature():
    tr = make_arclength_triple(3, lambda r: (1.0, 0.0, 0.0),
                               lambda r: (1.0, 0.0, 0.0), (0.0, 10.0))
    c = warped_curvature(tr, 1.0)
    assert c.ric_rr == pytest.approx(0.0, abs=1e-14)
    assert c.ric_tan == pytest.approx(1.0, abs=1e-14)


def test_curvature_data_internal_relations(sds01):
    for x in sds01.interior_points(20):
        c = warped_curvature(sds01, x)
        assert c.scalar == pytest.approx(c.ric_rr + 2 * c.ric_tan, rel=1e-13)
        assert c.lap_u == pytest.approx(c.hess_u_rr + 2 * c.hess_u_tan,
                                        rel=1e-13)
        assert c.hess_u_norm2 == pytest.approx(
            c.hess_u_rr ** 2 + 2 * c.hess_u_tan ** 2, rel=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_finite_difference_curvature_oracle(n):
    """Library curvature against FD of the metric in explicit coordinates."""
    rng = np.random.default_rng(7)
    tr = de_sitter(n)
    arc, rho_of_r = to_arclength(tr, samples=4000)

    def h_of_rho(rho):
        return arc.h(rho)[0]

    def u_of_rho(rho):
        return arc.u(rho)[0]

    lo, hi = arc.domain
    for _ in range(4):
        rho = lo + (0.2 + 0.6 * rng.random()) * (hi - lo)
        thetas = 0.8 + 0.4 * rng.random(n - 1)
        got = warped_curvature(arc, rho)
        want = numeric_curvature(n, h_of_rho, u_of_rho, rho, thetas)
        for key in ("ric_rr", "ric_tan", "scalar", "hess_u_rr", "hess_u_tan",
                    "lap_u", "hess_u_norm2"):
            assert getattr(got, key) == pytest.approx(
                want[key], rel=1e-5, abs=1e-5), key


def test_finite_difference_oracle_on_sds(sds01):
    rng = np.random.default_rng(11)
    arc, rho_of_r = to_arclength(sds01)
    lo, hi = arc.domain
    for _ in range(8):
        rho = lo + (0.15 + 0.7 * rng.random()) * (hi - lo)
        thetas = 0.8 + 0.4 * rng.random(2)
        got = warped_curvature(arc, rho)
        want = numeric_curvature(3, lambda r: arc.h(r)[0],
                                 lambda r: arc.u(r)[0], rho, thetas)
        for key in ("ric_rr", "ric_tan", "scalar", "lap_u"):
            assert getattr(got, key) == pytest.approx(
                want[key], rel=1e-5, abs=1e-5), key


def test_static_residual_on_solutions(all_models):
    for tr in all_models:
        for x in tr.interior_points(100):
            tensor, laplace = static_residual(tr, x)
            assert tensor <= 1e-9 and laplace <= 1e-9, tr.name


def test_static_residual_tight_on_closed_forms(ds3, nariai3):
    # the hemisphere and the product solution are exact at float level
    for tr in (ds3, nariai3):
        for x in tr.interior_points(100):
            tensor, laplace = static_residual(tr, x)
            assert tensor <= 1e-10 and laplace <= 1e-10, tr.name


def test_static_residual_detects_perturbation(ds3):
    import dataclasses

    def u_pert(r):
        v, d1, d2 = ds3.u.fn(r)
        return v + 0.01, d1, d2

    bad = dataclasses.replace(ds3, u=dataclasses.replace(ds3.u, fn=u_pert))
    tensor, laplace = static_residual(bad, 0.5)
    assert tensor > 1e-3 and laplace > 1e-3


def test_profile_derivatives_match_finite_differences(all_models):
    rng = np.random.default_rng(3)
    for tr in all_models:
        lo, hi = tr.domain
        span = hi - lo
        for x in lo + span * (0.05 + 0.9 * rng.random(10)):
            h = 1e-6 * span
            v0, d1, d2 = tr.u(x)
            fd1 = (tr.u(x + h)[0] - tr.u(x - h)[0]) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-8), tr.name


def test_surface_gravity_examples(ds3, nariai3):
    assert surface_gravity(ds3, ds3.boundaries[0]) == pytest.approx(1.0, abs=1e-9)
    for b in nariai3.boundaries:
        assert surface_gravity(nariai3, b) == pytest.approx(
            math.sqrt(3), abs=1e-9)
    nar5 = nariai(5)
    for b in nar5.boundaries:
        assert surface_gravity(nar5, b) == pytest.approx(
            math.sqrt(5), abs=1e-9)


def test_surface_gravity_sds_matches_bisection_oracle(sds01):
    _, _, _, _, k1, k2 = sds_horizon_data(3, 0.1)
    inner, outer = sorted(sds01.boundaries, key=lambda b: b.location)
    assert surface_gravity(sds01, inner) == pytest.approx(k1, abs=1e-7)
    assert surface_gravity(sds01, outer) == pytest.approx(k2, abs=1e-7)
    assert k1 == pytest.approx(3.47, abs=0.03)  # frozen magnitude check
    assert k1 > 1.0


def test_boundary_scalar_curvature_round_sphere(ds3, sds01):
    assert boundary_scalar_curvature(3, ds3.boundaries[0]) == pytest.approx(2.0)
    for b in sds01.boundaries:
        expect = 2.0 / b.sphere_radius ** 2
        assert boundary_scalar_curvature(3, b) == pytest.approx(expect)


def test_chart_independence(sds01):
    """Areal vs numerically integrated arclength representation."""
    arc, rho_of_r = to_arclength(sds01)
    lo, hi = sds01.domain
    for r in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 20):
        c1 = warped_curvature(sds01, r)
        c2 = warped_curvature(arc, rho_of_r(r))
        for key in ("ric_rr", "ric_tan", "scalar", "hess_u_rr", "hess_u_tan",
                    "lap_u", "hess_u_norm2", "grad_u_norm2"):
            a, b = getattr(c1, key), getattr(c2, key)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), key


def test_converted_triple_still_solves(sds01):
    arc, _ = to_arclength(sds01)
    lo, hi = arc.domain
    span = hi - lo
    for x in geometry.linspace(lo + 0.05 * span, hi - 0.05 * span, 100):
        tensor, laplace = static_residual(arc, x)
        assert tensor <= 1e-6 and laplace <= 1e-6


def test_warped_curvature_domain_checks(ds3):
    with pytest.raises(ValueError):
        warped_curvature(ds3, 1.5)
    with pytest.raises(ValueError):
        warped_curvature(ds3, 0.0)  # h = 0 at the centre


def test_branches(ds3, ads3, sds01, nariai3):
    assert len(ds3.branches()) == 1 and not ds3.branches()[0].increasing
    assert len(ads3.branches()) == 1 and ads3.branches()[0].increasing
    brs = sds01.branches()
    assert len(brs) == 2
    assert brs[0].increasing and not brs[1].increasing
    assert len(nariai3.branches()) == 2


def _converted_rho(tr, samples):
    """to_arclength's rho on its grid: its spline returns the sampled value
    at every knot but the last, where the converted domain ends."""
    r_grid, _, _ = arclength_reference(tr, samples)
    arc, rho_of_r = to_arclength(tr, samples=samples)
    return np.array([rho_of_r(r) for r in r_grid[:-1]] + [arc.domain[1]])


@pytest.mark.parametrize("make", [de_sitter, anti_de_sitter])
@pytest.mark.parametrize("n", [3, 4])
def test_batched_arclength_equals_per_segment_loop(make, n):
    tr = make(n)
    _, _, want = arclength_reference(tr, 2000)
    assert np.array_equal(_converted_rho(tr, 2000), want)


@pytest.mark.parametrize("n, m", [(3, 0.1), (4, 0.05), (5, 0.02)])
def test_batched_arclength_on_sds_within_an_ulp(n, m):
    # numpy's array power and libm's pow may differ by an ulp on r**(2-n)
    tr = schwarzschild_de_sitter(SdSParams(n=n, m=m))
    _, _, want = arclength_reference(tr, 2000)
    assert np.max(np.abs(_converted_rho(tr, 2000) - want)) <= 1e-15


def test_unresolved_segments_are_refined_like_the_loop(monkeypatch, sds01):
    # at 100 samples the first panel does not meet the 1e-13 target on six
    # SdS segments; those go through `adaptive` as in the loop
    refined = {}

    def spy(f, a, b, config=None):
        res = adaptive(f, a, b, config)
        refined[a] = res.value
        return res

    monkeypatch.setattr(geometry, "adaptive", spy)
    to_arclength(sds01, samples=100)
    r_grid, seg, _ = arclength_reference(sds01, 100)
    assert len(refined) == 6
    assert refined == {r: v for r, v in zip(r_grid[:-1], seg) if r in refined}


def _areal(f_fn, domain=(0.0, 1.0)):
    return StaticTriple(
        n=3, lambda_sign=+1, chart="areal",
        u=RadialProfile(domain, lambda r: (1.0, 0.0, 0.0)),
        h=RadialProfile(domain, lambda r: (r, 1.0, 0.0)),
        f=RadialProfile(domain, f_fn), boundaries=(),
        extremum=Extremum(location=domain[0], discrete=True, count=1))


@pytest.mark.parametrize("f_fn", [
    lambda r: (0.5 - r, -1.0, 0.0),                        # negative past 0.5
    lambda r: (np.where(r > 0.7, np.nan, 1.0), 0.0, 0.0),  # NaN past 0.7
])
def test_arclength_refuses_a_bad_metric_function(f_fn):
    with pytest.raises(ValueError, match="metric function"):
        to_arclength(_areal(f_fn), samples=50)
