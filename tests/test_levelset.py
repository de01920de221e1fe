import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticlab import (
    SdSParams,
    admissible_mass_bound,
    anti_de_sitter,
    de_sitter,
    nariai,
    schwarzschild_de_sitter,
)
from staticlab import levelset as LS
from staticlab.geometry import (BRANCH_INSET, StaticTriple, linspace,
                                sphere_area, unit_sphere_area)

from oracles import (bisect_bracket, five_point_derivative,
                     sds_horizon_data, sds_outer_up_reference)

S3_AREA = 4 * math.pi


# --------------------------------------------------------------------------
# level location and level data

def test_level_radii_de_sitter(ds3):
    for t in (0.1, 0.5, 0.9):
        (r,) = LS.level_radii(ds3, t)
        assert r == pytest.approx(math.sqrt(1 - t * t), abs=1e-12)


def test_level_radii_sds_two_spheres(sds01):
    radii = LS.level_radii(sds01, 0.5)
    assert len(radii) == 2
    for r in radii:
        assert sds01.u.value(r) == pytest.approx(0.5, abs=1e-12)
    (inner,) = LS.level_radii(sds01.on_branch("inner"), 0.5)
    (outer,) = LS.level_radii(sds01.on_branch("outer"), 0.5)
    assert inner == radii[0] and outer == radii[1]


def test_level_zero_is_the_boundary(sds01):
    radii = LS.level_radii(sds01, 0.0)
    assert radii == tuple(sorted(b.location for b in sds01.boundaries))


def test_branch_view_sees_one_side(sds01):
    inner, outer = sds01.on_branch("inner"), sds01.on_branch("outer")
    for t in (0.05, 0.5, 0.95):
        radii = LS.level_radii(sds01, t)
        assert LS.level_radii(inner, t) == radii[:1]
        assert LS.level_radii(outer, t) == radii[1:]
    # at t = 0 a view sees only its own horizon
    near, far = sorted(sds01.boundaries, key=lambda c: c.location)
    for view, comp in ((inner, near), (outer, far)):
        assert LS.level_radii(view, 0.0) == (comp.location,)
        assert LS.up_value(view, 3, 0.0) == (
            sphere_area(3, comp.sphere_radius) * comp.surface_gravity ** 3)
    assert LS.up_value(sds01, 3, 0.0) == (LS.up_value(inner, 3, 0.0)
                                         + LS.up_value(outer, 3, 0.0))


def test_branch_view_shares_the_branches(monkeypatch):
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=0.1))
    full = tr.branches()
    calls = [0]
    radial_state = StaticTriple.radial_state

    def counted_state(self, x):
        calls[0] += 1
        return radial_state(self, x)

    monkeypatch.setattr(StaticTriple, "radial_state", counted_state)
    inner, outer = tr.on_branch("inner"), tr.on_branch("outer")
    assert inner.branches() == full[:1] and outer.branches() == full[1:]
    assert inner.branch == "inner" and tr.branch is None
    assert calls[0] == 0


def test_unknown_branch_designator_is_refused(sds01):
    with pytest.raises(ValueError, match="unknown branch designator"):
        sds01.on_branch("middle")


def test_level_out_of_range(ds3):
    with pytest.raises(ValueError):
        LS.level_radii(ds3, 1.5)


def _model(kind: str, n: int, mass_fraction: float):
    if kind == "sds":
        m = mass_fraction * admissible_mass_bound(n)
        return schwarzschild_de_sitter(SdSParams(n=n, m=m))
    return {"desitter": de_sitter, "antidesitter": anti_de_sitter,
            "nariai": nariai}[kind](n)


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(["desitter", "antidesitter", "sds", "nariai"]),
       n=st.integers(3, 6),
       mass_fraction=st.floats(0.01, 0.99),
       which=st.integers(0, 1),
       level_fraction=st.floats(0.0, 1.0))
def test_level_radii_as_good_as_bisection(kind, n, mass_fraction, which,
                                          level_fraction):
    # the located radius lies in its branch, and its level residual is
    # within a factor two (plus rounding of t) of what plain bisection
    # guarantees: the residual at the worse end of its final bracket of
    # adjacent floats.  (Its midpoint can land on a lucky float: close to
    # the extremal mass, u = sqrt(f / f(r0)) takes values in steps of
    # about 2e-14, from rounding in f.)
    tr = _model(kind, n, mass_fraction)
    branches = tr.branches()
    br = branches[which % len(branches)]
    view = (tr if len(branches) == 1
            else tr.on_branch(("inner", "outer")[which]))
    t = br.u_lo + level_fraction * (br.u_hi - br.u_lo)
    (x,) = LS.level_radii(view, t)
    assert br.lo < x < br.hi
    inset = BRANCH_INSET * (tr.domain[1] - tr.domain[0])
    ref = max(abs(tr.u.value(y) - t) for y in bisect_bracket(
        lambda y: tr.u.value(y) - t, br.lo + inset, br.hi - inset))
    eps = sys.float_info.epsilon
    assert abs(tr.u.value(x) - t) <= 2 * ref + 4 * eps * abs(t)


@pytest.mark.parametrize("tr, grid", [
    (schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
     linspace(0.05, 0.95, 1000)),
    (de_sitter(3), linspace(0.0, 0.99, 1000)[1:]),
])
def test_level_location_cost(tr, grid):
    # the benchmark's curve grids; plain bisection spends 54-58
    # evaluations of u per located level here
    calls = [0]
    fn = tr.u.fn

    def counted(x):
        calls[0] += 1
        return fn(x)

    tr = dataclasses.replace(tr, u=dataclasses.replace(tr.u, fn=counted))
    located = sum(len(LS.level_radii(tr, t)) for t in grid)
    assert calls[0] / located <= 20


def test_level_data_fields(sds01):
    spheres = LS.level_spheres(sds01, 0.5)
    radii = [sp.x for sp in spheres]
    assert len(radii) == 2
    assert LS.s_of_t(0.5) == pytest.approx(0.5 * math.log(3.0))
    # area = |S^2| * sum r^2
    expect = S3_AREA * sum(r * r for r in radii)
    assert sum(sp.area for sp in spheres) == pytest.approx(expect, rel=1e-12)
    assert sum(sp.area_g for sp in spheres) == pytest.approx(
        S3_AREA * sum(r * r for r in radii) / (1 - 0.25) ** 1.0,
        rel=1e-12)


def test_s_t_maps_roundtrip():
    for t in (0.2, 0.7, 0.95):
        assert LS.t_of_s(LS.s_of_t(t), +1) == pytest.approx(t, rel=1e-13)
    for t in (1.2, 2.0, 9.0):
        assert LS.t_of_s(LS.s_of_t(t), -1) == pytest.approx(t, rel=1e-13)


# --------------------------------------------------------------------------
# the level integrals: constancy on the round models

@pytest.mark.parametrize("p", [0, 1, 3, 5])
def test_up_constant_on_de_sitter(ds3, p):
    for t in linspace(0.0, 0.99, 100):
        val = LS.up_value(ds3, p, t)
        assert abs(val - S3_AREA) <= 1e-8 * S3_AREA


@pytest.mark.parametrize("p", [0, 1, 3, 5])
def test_up_constant_on_anti_de_sitter(ads3, p):
    for t in linspace(1.01, 10.0, 100):
        val = LS.up_value(ads3, p, t)
        assert abs(val - S3_AREA) <= 1e-8 * S3_AREA


def test_up_boundary_value_sds_oracle(sds01):
    _, r1, r2, _, k1, k2 = sds_horizon_data(3, 0.1)
    for p in (0, 1, 3, 5):
        expect = S3_AREA * (k1 ** p * r1 ** 2 + k2 ** p * r2 ** 2)
        assert LS.up_value(sds01, p, 0.0) == pytest.approx(expect, rel=1e-9)
    # frozen value for the p = 3 case
    assert LS.up_value(sds01, 3, 0.0) == pytest.approx(42.8394233695438,
                                                       rel=1e-10)


# --------------------------------------------------------------------------
# derivative formulas

def test_up_derivative_zero_on_round_models(ds3, ads3):
    for t in (0.2, 0.5, 0.8):
        for v in LS.up_derivative(ds3, 3, t):
            assert abs(v) <= 1e-12
    for t in (1.5, 2.0, 5.0):
        for v in LS.up_derivative(ads3, 3, t):
            assert abs(v) <= 1e-11


def test_up_derivative_forms_agree_sds(sds01):
    for view in (sds01.on_branch("inner"), sds01.on_branch("outer"), sds01):
        for t in linspace(0.05, 0.9, 25):
            f1, f2, _ = LS.up_derivative(view, 3, t)
            assert abs(f1 - f2) <= 1e-8 * max(1.0, abs(f1))


def test_up_derivative_matches_finite_differences(sds01):
    outer = sds01.on_branch("outer")
    for t in linspace(0.05, 0.9, 25):
        f1, _, _ = LS.up_derivative(outer, 3, t)
        fd = five_point_derivative(lambda tt: LS.up_value(outer, 3, tt), t,
                                   1e-4)
        assert abs(f1 - fd) <= 1e-5


def test_up_derivative_rejects_small_p(ds3):
    with pytest.raises(ValueError):
        LS.up_derivative(ds3, 2, 0.5)


def test_up_derivative_sign_matches_monotonicity(sds01, ads3):
    # wherever the gradient bound holds pointwise on the level, the bound
    # line is <= 0 for positive constant (and >= 0 for negative)
    _, _, bound = LS.up_derivative(ads3, 3, 2.0)
    assert bound >= -1e-12


# --------------------------------------------------------------------------
# the conformal-side curve

def test_phi_p_equals_up(ds3, sds01, ads3, nariai3):
    for tr, ts in ((ds3, (0.2, 0.5, 0.9)), (sds01, (0.2, 0.5, 0.9)),
                   (nariai3, (0.2, 0.5, 0.9)), (ads3, (1.5, 2.0, 5.0))):
        for t in ts:
            s = LS.s_of_t(t)
            assert LS.phi_p(tr, 3, s) == pytest.approx(
                LS.up_value(tr, 3, t), rel=1e-10), tr.name


def test_phi_0_is_conformal_area(sds01):
    s = LS.s_of_t(0.5)
    area_g = sum(sp.area_g for sp in LS.level_spheres(sds01, 0.5))
    assert LS.phi_p(sds01, 0, s) == pytest.approx(area_g, rel=1e-12)


def test_phi_p_constant_on_round_models(ds3, ads3):
    for tr in (ds3, ads3):
        for s in linspace(0.3, 4.0, 20):
            assert LS.phi_p(tr, 3, s) == pytest.approx(
                S3_AREA, rel=1e-9)
            assert abs(LS.phi_p_derivative(tr, 3, s)) <= 1e-9


def test_derivative_relation_up_phi(sds01, ads3, nariai3):
    """U_p'(t) (1 - t^2) = Phi_p'(s(t)): the two sides run through entirely
    different formulas (level mean curvature vs conformal mean curvature)."""
    for tr in (sds01, nariai3):
        for t in linspace(0.1, 0.9, 15):
            lhs = LS.up_derivative(tr, 3, t)[0] * (1 - t * t)
            rhs = LS.phi_p_derivative(tr, 3, LS.s_of_t(t))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)), tr.name
    for t in (1.5, 2.5):
        lhs = LS.up_derivative(ads3, 3, t)[0] * (1 - t * t)
        rhs = LS.phi_p_derivative(ads3, 3, LS.s_of_t(t))
        assert abs(lhs - rhs) <= 1e-8


def test_second_derivative_relation_up_phi(sds01):
    """U_p''(t) = [2t Phi_p'(s) + Phi_p''(s)] / (1-t^2)^2, with both second
    derivatives taken by Richardson finite differences of the analytic
    first derivatives."""
    p = 3.0

    def d_up(t, h=1e-4):
        two = (LS.up_derivative(sds01, p, t + h)[0]
               - LS.up_derivative(sds01, p, t - h)[0]) / (2 * h)
        one = (LS.up_derivative(sds01, p, t + h / 2)[0]
               - LS.up_derivative(sds01, p, t - h / 2)[0]) / h
        return (4 * one - two) / 3

    def d_phi(s, h=1e-4):
        two = (LS.phi_p_derivative(sds01, p, s + h)
               - LS.phi_p_derivative(sds01, p, s - h)) / (2 * h)
        one = (LS.phi_p_derivative(sds01, p, s + h / 2)
               - LS.phi_p_derivative(sds01, p, s - h / 2)) / h
        return (4 * one - two) / 3

    for t in (0.3, 0.6):
        s = LS.s_of_t(t)
        lhs = d_up(t)
        rhs = (2 * t * LS.phi_p_derivative(sds01, p, s) + d_phi(s)) \
            / (1 - t * t) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-6)


# --------------------------------------------------------------------------
# boundary second derivative

@pytest.mark.parametrize("p", [3, 4, 5])
def test_second_derivative_zero_on_round_models(ds3, ads3, p):
    assert abs(LS.up_second_derivative_at_boundary(ds3, p)) <= 1e-8
    assert abs(LS.up_second_derivative_bound(ds3, p)) <= 1e-8
    assert abs(LS.up_second_derivative_at_boundary(ads3, p)) <= 1e-8
    assert abs(LS.up_second_derivative_bound(ads3, p)) <= 1e-8


def test_second_derivative_sds_matches_derivative_limit(sds01):
    """The boundary-integral formula against the limit of U_p'(t)/t."""
    for p in (3, 5):
        formula = LS.up_second_derivative_at_boundary(sds01, p)
        h = 1e-3
        two = LS.up_derivative(sds01, p, h)[0] / h
        one = LS.up_derivative(sds01, p, h / 2)[0] / (h / 2)
        limit = (4 * one - two) / 3
        assert formula == pytest.approx(limit, rel=1e-6), p


def test_vp_second_derivative_limit_ads(ads3):
    # lim -t^3 U_p'(t) as t grows reproduces the conformal-boundary formula
    for p in (3, 4):
        formula = LS.up_second_derivative_at_boundary(ads3, p)
        probe = -200.0 ** 3 * LS.up_derivative(ads3, p, 200.0)[0]
        assert formula == pytest.approx(0.0, abs=1e-8)
        assert probe == pytest.approx(0.0, abs=1e-6)


# --------------------------------------------------------------------------
# curves, scans, limits

def test_up_curve_analytic_vs_numeric(sds01):
    # the transport derivative reads no field equation, `d_analytic`
    # rewrites with them; measured agreement on t in [0.05, 0.95] (four
    # models, n = 3, 4, 5): <= 1.1e-13 of the curve's largest value
    outer = sds01.on_branch("outer")
    for curve in (LS.up_curve(outer, 3, linspace(0.05, 0.9, 20)),
                  LS.phi_curve(outer, 3, linspace(0.05, 2.5, 20))):
        scale = max(abs(v) for v in curve.values)
        for ana, num in zip(curve.d_analytic, curve.d_numeric):
            assert abs(ana - num) <= 1e-11 * scale


def test_up_curve_skips_analytic_below_p3(ds3):
    curve = LS.up_curve(ds3, 1, linspace(0.1, 0.9, 5))
    assert curve.d_analytic is None
    assert all(abs(d) < 1e-12 for d in curve.d_numeric)


@pytest.mark.parametrize("p", [1, 2])
def test_transport_derivative_below_p3_against_mpmath(sds01, p):
    # no analytic derivative below p = 3: the transport one against a
    # 50-digit U_p'(t) (measured 7.6e-14 and 1.4e-13 of the largest value)
    grid = linspace(0.05, 0.95, 7)
    curve = LS.up_curve(sds01.on_branch("outer"), p, grid)
    scale = max(abs(v) for v in curve.values)
    for t, value, num in zip(grid, curve.values, curve.d_numeric):
        ref_value, ref_slope = sds_outer_up_reference(3, 0.1, p, t)
        assert abs(value - float(ref_value)) <= 1e-12 * scale
        assert abs(num - float(ref_slope)) <= 1e-12 * scale


def test_transport_derivative_on_nariai(nariai3):
    # U_1 = k |S| h0^(n-1) sqrt(n) (1-t^2)^(-(n-1)/2) over the k spheres
    # of the view, whence U_1' = k |S| h0^(n-1) sqrt(n) (n-1) t
    # (1-t^2)^(-(n+1)/2)
    n = 3
    h0 = math.sqrt((n - 2) / n)
    grid = linspace(0.05, 0.95, 7)
    for view, k in ((nariai3, 2), (nariai3.on_branch("outer"), 1)):
        curve = LS.up_curve(view, 1, grid)
        scale = max(abs(v) for v in curve.values)
        for t, num in zip(grid, curve.d_numeric):
            exact = (k * unit_sphere_area(n) * h0 ** (n - 1) * math.sqrt(n)
                     * (n - 1) * t * (1 - t * t) ** (-(n + 1) / 2))
            assert abs(num - exact) <= 1e-12 * scale


def test_monotonicity_scan_round_models(ds3, ads3):
    rep = LS.monotonicity_scan(ds3, 1, linspace(0.0, 0.99, 40))
    assert rep.classification == "constant"
    assert not rep.informational
    assert rep.violations == ()
    rep = LS.monotonicity_scan(ads3, 1, linspace(1.01, 10.0, 40))
    assert rep.classification == "constant"
    assert rep.violations == ()


def test_monotonicity_scan_sds_informational(sds01):
    rep = LS.monotonicity_scan(sds01, 1, linspace(0.05, 0.9, 30))
    assert rep.informational  # the gravity bound fails, so no verdict
    assert rep.violations == ()
    assert not rep.assumption_flags["surface_gravity_le_1"]


@pytest.mark.parametrize("make,n,p,expect", [
    (de_sitter, 3, 1, S3_AREA),
    (de_sitter, 3, 2, S3_AREA),
    (de_sitter, 4, 3, 2 * math.pi ** 2),
    (anti_de_sitter, 4, 3, 2 * math.pi ** 2),
    (anti_de_sitter, 3, 2, S3_AREA),
])
def test_liminf_round_models(make, n, p, expect):
    tr = make(n)
    res = LS.liminf_check(tr, p)
    assert res.status == "ok"
    assert res.limit == pytest.approx(expect, rel=1e-6)
    assert res.satisfied


def test_liminf_refuses_non_discrete(sds01, nariai3):
    for tr in (sds01, nariai3):
        res = LS.liminf_check(tr, 1)
        assert res.status == "non-discrete extremum set"
        assert res.satisfied is None


def test_liminf_rejects_large_p(ds3):
    with pytest.raises(ValueError):
        LS.liminf_check(ds3, 3)  # p must be <= n-1


# --------------------------------------------------------------------------
# assumption flags

def test_assumption_flags(ds3, ads3, sds01, nariai3):
    f = LS.assumption_flags(ds3)
    assert f["normalization"] and f["surface_gravity_le_1"] \
        and f["discrete_extremum"]
    f = LS.assumption_flags(sds01)
    assert f["normalization"] and not f["surface_gravity_le_1"] \
        and not f["discrete_extremum"]
    f = LS.assumption_flags(nariai3)
    assert not f["surface_gravity_le_1"]
    f = LS.assumption_flags(ads3)
    assert f["conformally_compact"] and f["gradient_limit_nonneg"] \
        and f["gradient_limit_zero"]


def test_conformal_boundary_scalar_curvature(ads3):
    bdry = LS.conformal_boundary_data(ads3)
    # unit round conformal boundary: R = (n-1)(n-2)
    assert bdry.scalar_g_boundary == pytest.approx(2.0, abs=1e-10)


def test_conformal_boundary_requires_negative_constant(ds3):
    with pytest.raises(ValueError):
        LS.conformal_boundary_data(ds3)
