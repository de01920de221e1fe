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
from staticlab import identities as ID
from staticlab import inequalities as IQ
from staticlab import levelset as LS
from staticlab.conformal import U_CAP, sample_points_off_extremum
from staticlab.geometry import (BRANCH_INSET, EXTREMUM_BAND, INTERIOR_PAD,
                                Extremum, RadialProfile, StaticTriple,
                                boundary_scalar_curvature, linspace,
                                sphere_area, unit_sphere_area)
from staticlab.odegen import HorizonData, shoot_from_horizon

from oracles import (bisect, bisect_bracket, five_point_derivative,
                     hemisphere_in_arclength, s_of_t, sds_horizon_data,
                     sds_outer_up_reference)

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
    # a view takes its parent's branches as they are: the very objects, and
    # no u read or record to derive them again
    sds = schwarzschild_de_sitter(SdSParams(n=3, m=0.1))
    reads, records = [], []

    def counted_u(x):
        reads.append(x)
        return sds.u.fn(x)

    tr = dataclasses.replace(sds, u=RadialProfile(sds.domain, counted_u))
    full = tr.branches()
    assert len(full) == 2 and len(reads) == 4
    reads.clear()
    monkeypatch.setattr(StaticTriple, "radial_state",
                        lambda self, x: records.append(x))
    inner, outer = tr.on_branch("inner"), tr.on_branch("outer")
    assert inner.branches()[0] is full[0] and outer.branches()[0] is full[1]
    assert inner.branches() == full[:1] and outer.branches() == full[1:]
    assert inner.branch == "inner" and tr.branch is None
    assert reads == [] and records == []


BRACKET_TRIPLES = {
    "desitter": lambda: de_sitter(3),
    "antidesitter": lambda: anti_de_sitter(3),
    "sds": lambda: schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
    "nariai": lambda: nariai(3),
    "shot": lambda: shoot_from_horizon(HorizonData(3, +1, 0.8, 1.0)),
    "sds-inner": lambda: schwarzschild_de_sitter(
        SdSParams(n=3, m=0.1)).on_branch("inner"),
    "sds-outer": lambda: schwarzschild_de_sitter(
        SdSParams(n=3, m=0.1)).on_branch("outer"),
}


@pytest.mark.parametrize("name", list(BRACKET_TRIPLES))
def test_each_branch_is_a_bracket_with_u_at_both_ends(name):
    # every level is sought on a branch as it stands: its ends sit
    # BRANCH_INSET * span inside a monotone interval (the domain, cut at an
    # interior extremum), u_a and u_b are u there bit for bit, and the
    # range that `meets` tests takes in both ends and nothing past them
    tr = BRACKET_TRIPLES[name]()
    lo, hi = tr.domain
    inset, xstar = BRANCH_INSET * (hi - lo), tr.extremum.location
    cuts = [lo, xstar, hi] if lo < xstar < hi else [lo, hi]
    intervals = list(zip(cuts, cuts[1:]))
    if tr.branch is not None:
        intervals = intervals[:1] if tr.branch == "inner" else intervals[-1:]
    branches = tr.branches()
    assert [(br.a, br.b) for br in branches] == [
        (a + inset, b - inset) for a, b in intervals]
    for br in branches:
        assert br.u_a == tr.u.value(br.a) and br.u_b == tr.u.value(br.b)
        low, high = sorted((br.u_a, br.u_b))
        assert low < high and br.meets(low) and br.meets(high)
        assert not br.meets(math.nextafter(low, -math.inf))
        assert not br.meets(math.nextafter(high, math.inf))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conformal_sample_edge_is_the_level_u_cap(n):
    # the window u <= U_CAP of the conformal sample on anti-de Sitter ends
    # where level location puts the level U_CAP, bit for bit: both search
    # the one branch's bracket from u at its ends
    tr = anti_de_sitter(n)
    (edge,) = LS.level_radii(tr, U_CAP)
    lo = tr.domain[0]
    pad = INTERIOR_PAD * (edge - lo)
    assert [sp.x for sp in sample_points_off_extremum(tr, 9)] == linspace(
        lo + pad, edge - pad, 9)


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
    u_lo, u_hi = sorted((br.u_a, br.u_b))
    t = u_lo + level_fraction * (u_hi - u_lo)
    (x,) = LS.level_radii(view, t)
    assert br.a <= x <= br.b
    ref = max(abs(tr.u.value(y) - t) for y in bisect_bracket(
        lambda y: tr.u.value(y) - t, br.a, br.b))
    eps = sys.float_info.epsilon
    assert abs(tr.u.value(x) - t) <= 2 * ref + 4 * eps * abs(t)


def _sds_view(which):
    return schwarzschild_de_sitter(SdSParams(n=3, m=0.1)).on_branch(which)


def _counting(tr):
    """`tr` counting evaluations of u: of its `u` profile, and of f, from
    which an areal record reads u.  An areal `u` keeps the uncounted f, so
    no evaluation is counted twice."""
    calls = [0]

    def counting(prof):
        def counted(x, fn=prof.fn):
            calls[0] += 1
            return fn(x)
        return dataclasses.replace(prof, fn=counted)

    return dataclasses.replace(tr, u=counting(tr.u),
                               f=tr.f and counting(tr.f)), calls


@pytest.mark.parametrize("tr, grid", [
    (schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
     linspace(0.05, 0.95, 1000)),
    (de_sitter(3), linspace(0.0, 0.99, 1000)[1:]),
])
def test_level_location_cost(tr, grid):
    # the benchmark's curve grids; plain bisection spends 54-58
    # evaluations of u per located level here
    tr, calls = _counting(tr)
    located = sum(len(LS.level_radii(tr, t)) for t in grid)
    assert calls[0] / located <= 20


# The curves benchmark grids at seed 0 (1000 levels, p = 3), each on the
# triple the command line walks (the outer branch where there are two),
# and the inner branch of SdS.  Cold location (`level_radii`, then the
# record) spends 9.22, 5.52, 9.02, 6.91, 9.56, 9.77 and 10.31 evaluations
# of u per level on them, in this order.
WALKED_CURVES = {
    "up-desitter": ("up", de_sitter(3), (0.0, 0.99)),
    "up-antidesitter": ("up", anti_de_sitter(3), (1.01, 20.0)),
    "up-sds": ("up", _sds_view("outer"), (0.05, 0.95)),
    "up-nariai": ("up", nariai(3).on_branch("outer"), (0.05, 0.95)),
    "phi-desitter": ("phi", de_sitter(3), (0.1, 2.5)),
    "phi-sds": ("phi", _sds_view("outer"), (0.1, 2.5)),
    "up-sds-inner": ("up", _sds_view("inner"), (0.05, 0.95)),
}


def _walked_levels(kind, tr, ends):
    grid = linspace(*ends, 1000)
    if kind == "phi":
        return grid, [LS.t_of_s(s, tr.lambda_sign) for s in grid]
    return grid, grid


def _counting_u(tr):
    """`_counting`'s `tr` with its branches built."""
    tr, calls = _counting(tr)
    tr.branches()
    calls[0] = 0
    return tr, calls


def _level_walk(tr, levels):
    """The radii `levelset._curve` walks to on `levels`."""
    return [row[1] for row in LS._curve(
        tr, lambda t, states, spheres: (tuple(st[0] for st in states),),
        0.0, levels, lambda t: t)]


@pytest.mark.parametrize("name", WALKED_CURVES)
def test_level_walk_matches_cold_location(name):
    kind, tr, ends = WALKED_CURVES[name]
    _, levels = _walked_levels(kind, tr, ends)
    walked = list(_level_walk(tr, levels))
    assert len(walked) == len(levels)
    for t, radii in zip(levels, walked):
        cold = LS.level_radii(tr, t)
        assert len(radii) == len(cold)
        for x, y in zip(radii, cold):
            assert abs(x - y) <= 1e-14 * abs(y)


@pytest.mark.parametrize("ends", [(0.5, 0.5 + 1e-4), (0.9, 0.9 + 1e-5)])
def test_level_walk_on_a_dense_grid(ends):
    # levels 1e-8 and 1e-9 apart: each predictor step is below sqrt(EPS) x,
    # so a walk that took it without evaluating u would go on from the
    # first level's slope and drift from cold location by about 1e-9
    levels = linspace(*ends, 10_000)
    tr = de_sitter(3)
    for t, radii in zip(levels, _level_walk(tr, levels)):
        assert radii == pytest.approx(LS.level_radii(tr, t), rel=1e-14)


@pytest.mark.parametrize("name", WALKED_CURVES)
def test_level_walk_cost(name, monkeypatch):
    kind, tr, ends = WALKED_CURVES[name]
    grid, _ = _walked_levels(kind, tr, ends)
    tr, calls = _counting_u(tr)
    cold = []
    level_radii = LS.level_radii
    monkeypatch.setattr(LS, "level_radii",
                        lambda tr, t: cold.append(t) or level_radii(tr, t))
    (LS.up_curve if kind == "up" else LS.phi_curve)(tr, 3, grid)
    # one cold start (on de Sitter's grid, after its t = 0 horizon row),
    # and about one evaluation of u to step each level and one to read it
    assert len(cold) == (2 if grid[0] == 0.0 else 1)
    assert calls[0] / len(grid) <= 2.25


@pytest.mark.parametrize("tr, levels, cold_rows", [
    # the horizon row is answered from its data, and the row after it cold
    (de_sitter(3), [0.0, 0.3, 0.31], [0, 1]),
    (de_sitter(3), [0.3, 0.31, 0.0, 0.31], [0, 2, 3]),
    # Newton stalls on the way to the extremal band
    (de_sitter(3), linspace(0.5, 1.0 - 2.0 * EXTREMUM_BAND, 3), [0, 2]),
    # steps across most of each branch: the Taylor first step lands each
    # SdS sphere where Newton converges; on de Sitter the predictor of
    # t = 0.01 from t = 0.99 lies outside the hemisphere
    (schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
     linspace(0.05, 0.95, 3), [0]),
    (de_sitter(3), [0.99, 0.01], [0, 1]),
    # u reaches 6e-7 on the outer branch only (the inner one starts at
    # 8.9e-7), so the levels have 1, 1, 2, 2 and 1 spheres
    (schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
     [6e-7, 7e-7, 1e-6, 1.1e-6, 7e-7], [0, 2, 4]),
], ids=["from-horizon", "through-horizon", "to-band", "jumps",
        "jump-out", "sphere-count"])
def test_level_walk_falls_back_to_cold_location(tr, levels, cold_rows,
                                                monkeypatch):
    tr, calls = _counting_u(tr)
    cold = []
    level_radii = LS.level_radii
    monkeypatch.setattr(LS, "level_radii",
                        lambda tr, t: cold.append(t) or level_radii(tr, t))
    walked = list(_level_walk(tr, levels))
    walk_cost, calls[0] = calls[0], 0
    assert cold == [levels[i] for i in cold_rows]
    for i, (t, radii) in enumerate(zip(levels, walked)):
        if i in cold_rows:
            assert radii == level_radii(tr, t)
        else:
            assert radii == pytest.approx(level_radii(tr, t), rel=1e-14)
    # Newton gives up early: a walk, its records included, costs at most 3
    # evaluations of u per sphere more than cold location (22 against 18
    # on the de Sitter jump out; 42 against 54 on the SdS jumps)
    assert walk_cost <= calls[0] + 3 * sum(map(len, walked))


def test_a_coarse_walk_costs_no_more_than_cold_location():
    # 3 levels across both SdS branches: the Taylor first step keeps every
    # level walked, and level location alone costs 6.0 evaluations of u
    # per sphere, against 9.0 cold
    tr, calls = _counting_u(schwarzschild_de_sitter(SdSParams(n=3, m=0.1)))
    levels = linspace(0.05, 0.95, 3)
    spheres = sum(map(len, _level_walk(tr, levels)))
    walk_cost, calls[0] = calls[0] - spheres, 0  # less one record a sphere
    for t in levels:
        LS.level_radii(tr, t)
    assert walk_cost <= calls[0]


def test_level_walk_through_an_inflection():
    # u = x + (x - 1)^3 has u'' = 0 at the root x = 1 of the first level,
    # so |u''/(2u')| step^2 reads 0 for any step there: only the bound on
    # the step keeps Newton from returning its predictor 1.1, where
    # u = 1.101
    def u_fn(x):
        return x + (x - 1.0) ** 3, 1.0 + 3.0 * (x - 1.0) ** 2, 6.0 * (x - 1.0)

    tr = StaticTriple(
        n=3, lambda_sign=-1, u=RadialProfile((0.0, 2.0), u_fn),
        h=RadialProfile((0.0, 2.0), lambda x: (1.0, 0.0, 0.0)), f=None,
        boundaries=(), extremum=Extremum(location=0.0, count=1))
    levels = [1.0, 1.1, 1.2]
    for t, radii in zip(levels, _level_walk(tr, levels)):
        assert radii == pytest.approx(LS.level_radii(tr, t), rel=1e-14)


def test_level_data_fields(sds01):
    spheres = LS.level_spheres(sds01, 0.5)
    radii = [sp.x for sp in spheres]
    assert len(radii) == 2
    assert s_of_t(0.5) == pytest.approx(0.5 * math.log(3.0))
    # area = |S^2| * sum r^2
    expect = S3_AREA * sum(r * r for r in radii)
    assert sum(sp.area for sp in spheres) == pytest.approx(expect, rel=1e-12)
    assert sum(sp.area_g for sp in spheres) == pytest.approx(
        S3_AREA * sum(r * r for r in radii) / (1 - 0.25) ** 1.0,
        rel=1e-12)


def test_s_t_maps_roundtrip():
    for t in (0.2, 0.7, 0.95):
        assert LS.t_of_s(s_of_t(t), +1) == pytest.approx(t, rel=1e-13)
    for t in (1.2, 2.0, 9.0):
        assert LS.t_of_s(s_of_t(t), -1) == pytest.approx(t, rel=1e-13)


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


def test_up_derivative_bound_form_closed_form(sds01):
    """The `bound` form on the outer SdS branch against its closed form:
    -(p-1) t times the sphere weight |S^2| r^2 |Du|^(p-2) d^(-(p+2)/2),
    d = 1 - t^2, times n/(p-1) (1 - W), with r(t) from f(r) = t^2 f(r0)
    and |Du| = |f'(r)| / (2 sqrt(f(r0)))."""
    n, m = 3, 0.1
    r0, _, r2, f0, _, _ = sds_horizon_data(n, m)
    outer = sds01.on_branch("outer")
    for p in (3.0, 5.0):
        for t in (0.3, 0.6, 0.9):
            d = 1.0 - t * t
            r = bisect(lambda x: 1 - x * x - 2 * m / x - t * t * f0, r0, r2)
            grad = abs(-2 * r + 2 * m / r ** 2) / (2 * math.sqrt(f0))
            weight = (S3_AREA * r ** 2 * grad ** (p - 2)
                      * d ** (-(n + p - 1) / 2))
            want = -(p - 1) * t * weight * n / (p - 1) * (1 - grad ** 2 / d)
            assert LS.up_derivative(outer, p, t)[2] == pytest.approx(
                want, rel=1e-9), (p, t)


def test_up_derivative_matches_finite_differences(sds01):
    outer = sds01.on_branch("outer")
    for t in linspace(0.05, 0.9, 25):
        f1, _, _ = LS.up_derivative(outer, 3, t)
        fd = five_point_derivative(lambda tt: LS.up_value(outer, 3, tt), t,
                                   1e-4)
        assert abs(f1 - fd) <= 1e-5


def test_curves_refuse_what_they_cannot_evaluate(ds3, ads3):
    # the command line takes its curve refusals from these ValueErrors
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="exponent p must be a finite"):
            LS.up_curve(ds3, p, [0.5])
        with pytest.raises(ValueError, match="exponent p must be a finite"):
            LS.phi_curve(ds3, p, [0.5])
    # U_p divides by 1 - t^2 at the extremal value (p < 3 reads no W)
    for tr, p in ((ds3, 1), (ds3, 3), (ads3, 1)):
        with pytest.raises(ValueError, match="singular at the extremal"):
            LS.up_curve(tr, p, [1.0])
    # coth(0) divides by zero; s < 0 is no level of a positive constant
    for tr in (ds3, ads3):
        for s in (0.0, -0.5):
            with pytest.raises(ValueError, match="s must be positive"):
                LS.phi_curve(tr, 3, [s])


def test_sphere_terms_past_the_double_range_are_refused(sds01):
    # |Du| / sqrt(1 - t^2) is about 3.5 on the inner branch and the inner
    # surface gravity 3.5: their 1000th power is past 1.8e308
    inner = sds01.on_branch("inner")
    for call in (lambda: LS.up_value(inner, 1e3, 0.1),
                 lambda: LS.up_value(inner, 1e3, 0.0),
                 lambda: LS.up_curve(inner, 1e3, [0.3, 0.1]),
                 lambda: LS.phi_p(inner, 1e3, 0.1),
                 lambda: LS.phi_curve(inner, 1e3, [0.3, 0.1])):
        with pytest.raises(ValueError, match="at p=1000 leaves the double "
                                             "range at the level u=0"):
            call()


def test_derivatives_past_the_double_range_are_refused(sds01, ds3):
    # each sphere term is finite, but the weighted sums are not (U_p' would
    # be -inf, Phi_p' nan), or a weight of U_(p-2) overflows: the refusal
    # names the p of the call, not p - 2
    inner, u = sds01.on_branch("inner"), LS.t_of_s(0.1, +1)
    for call, p, level in ((LS.up_derivative, 567, 0.1),
                           (LS.up_derivative, 575, 0.1),
                           (LS.phi_p_derivative, 566, u),
                           (LS.phi_p_derivative, 1e3, u)):
        with pytest.raises(ValueError) as exc:
            call(inner, p, 0.1)
        assert str(exc.value) == LS.OUT_OF_RANGE.format(p, level)
    # the weights refuse t = 1 before the prefactor divides by 1 - t^2
    with pytest.raises(ValueError, match="singular at the extremal level"):
        LS.up_derivative(ds3, 3, 1.0)


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
            s = s_of_t(t)
            assert LS.phi_p(tr, 3, s) == pytest.approx(
                LS.up_value(tr, 3, t), rel=1e-10), tr.name


def test_phi_0_is_conformal_area(sds01):
    s = s_of_t(0.5)
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
            rhs = LS.phi_p_derivative(tr, 3, s_of_t(t))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)), tr.name
    for t in (1.5, 2.5):
        lhs = LS.up_derivative(ads3, 3, t)[0] * (1 - t * t)
        rhs = LS.phi_p_derivative(ads3, 3, s_of_t(t))
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
        s = s_of_t(t)
        lhs = d_up(t)
        rhs = (2 * t * LS.phi_p_derivative(sds01, p, s) + d_phi(s)) \
            / (1 - t * t) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-6)


# --------------------------------------------------------------------------
# integrals over the horizons

def _horizon_triples():
    """Triples with horizons: round, product, two-horizon and shot."""
    return [de_sitter(3), de_sitter(5), nariai(3), nariai(4),
            *(schwarzschild_de_sitter(SdSParams(n=n, m=m))
              for n, m in ((3, 0.1), (4, 0.05), (5, 0.02))),
            shoot_from_horizon(HorizonData(3, +1, 0.8, 1.0))]


def test_horizon_integrals_keep_the_bits_of_the_written_out_sums():
    # each sum as its caller wrote it before `horizon_integral`, term for
    # term and in the same order, so every bit of U_p(0), both sides of the
    # boundary curvature inequality and the scalar average is pinned
    for tr in _horizon_triples():
        n = tr.n
        for p in (0, 1, 3):
            spheres = [(c, sphere_area(n, c.sphere_radius))
                       for c in tr.horizons()]
            assert LS.up_value(tr, p, 0.0) == sum(
                a * c.surface_gravity ** p for c, a in spheres), (tr.name, p)
        lhs = rhs = 0.0
        for c in tr.boundaries:
            area = sphere_area(n, c.sphere_radius)
            lhs += c.surface_gravity * (n - 1) * (n - 2) * area
            rhs += c.surface_gravity * boundary_scalar_curvature(n, c) * area
        report = ID.boundary_curvature_inequality(tr)
        assert (report.lhs, report.rhs) == (lhs, rhs), tr.name
        assert IQ.scalar_average_bound(tr).rhs == sum(
            boundary_scalar_curvature(n, c) / ((n - 1) * (n - 2))
            * sphere_area(n, c.sphere_radius) for c in tr.boundaries), tr.name


def test_a_view_integrates_its_horizon_and_the_checks_the_solution(sds01):
    # U_p(0) on a view reads its side's horizon; the two boundary checks
    # state a property of the whole solution, so they read both horizons
    inner = sds01.on_branch("inner")
    near = min(sds01.boundaries, key=lambda c: c.location)
    assert LS.up_value(inner, 1, 0.0) == \
        sphere_area(3, near.sphere_radius) * near.surface_gravity
    assert LS.up_value(inner, 1, 0.0) < LS.up_value(sds01, 1, 0.0)
    for check in (ID.boundary_curvature_inequality, IQ.scalar_average_bound):
        # by repr, since a refused count keeps a NaN left side
        assert repr(check(inner)) == repr(check(sds01)), check


# --------------------------------------------------------------------------
# boundary second derivative

@pytest.mark.parametrize("p", [3, 4, 5])
def test_second_derivative_zero_on_round_models(ds3, ads3, p):
    display, bound = LS.up_second_derivative_at_boundary(ds3, p)
    assert abs(display) <= 1e-8
    assert abs(bound) <= 1e-8
    display, bound = LS.up_second_derivative_at_boundary(ads3, p)
    assert abs(display) <= 1e-8
    assert abs(bound) <= 1e-8


def test_second_derivative_sds_matches_derivative_limit(sds01):
    """The boundary-integral formula against the limit of U_p'(t)/t."""
    for p in (3, 5):
        formula, _ = LS.up_second_derivative_at_boundary(sds01, p)
        h = 1e-3
        two = LS.up_derivative(sds01, p, h)[0] / h
        one = LS.up_derivative(sds01, p, h / 2)[0] / (h / 2)
        limit = (4 * one - two) / 3
        assert formula == pytest.approx(limit, rel=1e-6), p


def test_vp_second_derivative_limit_ads(ads3):
    # lim -t^3 U_p'(t) as t grows reproduces the conformal-boundary formula
    for p in (3, 4):
        formula, _ = LS.up_second_derivative_at_boundary(ads3, p)
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
    for rows in (LS.up_curve(outer, 3, linspace(0.05, 0.9, 20)),
                 LS.phi_curve(outer, 3, linspace(0.05, 2.5, 20))):
        scale = max(abs(value) for _, value, _, _ in rows)
        for _, _, ana, num in rows:
            assert abs(ana - num) <= 1e-11 * scale


@pytest.mark.parametrize("model", ["desitter", "antidesitter", "sds",
                                   "nariai"])
@pytest.mark.parametrize("branch", [None, "inner", "outer"])
@pytest.mark.parametrize("p", [1, 3, 4])
def test_a_curve_row_is_the_single_level_functions(model, branch, p):
    # a row reads one pass over its level's walked records; the functions
    # of one level locate it cold and read their own records.  The radii
    # agree to about 1e-14 relative, which moves U_p by up to 5.3e-15
    # relative and Phi_p by up to 4.4e-14 (W = |Du|^2 / |1 - u^2|)
    tr = {"desitter": de_sitter, "antidesitter": anti_de_sitter,
          "nariai": nariai,
          "sds": lambda n: schwarzschild_de_sitter(SdSParams(n=n, m=0.1))
          }[model](3)
    tr = tr if branch is None else tr.on_branch(branch)
    t_grid = (linspace(1.01, 20.0, 20) if tr.lambda_sign < 0
              else linspace(0.0, 0.95, 20))  # t = 0: both derivatives 0
    for rows, rel, value_at, slope_at in (
            (LS.up_curve(tr, p, t_grid), 1e-14, LS.up_value,
             lambda tr, p, t: LS.up_derivative(tr, p, t)[0]),
            (LS.phi_curve(tr, p, linspace(0.1, 2.5, 20)), 1e-13, LS.phi_p,
             LS.phi_p_derivative)):
        scale = max(abs(value) for _, value, _, _ in rows)
        for point, value, ana, _ in rows:
            assert value == pytest.approx(value_at(tr, p, point), rel=rel)
            if p >= 3:
                assert abs(ana - slope_at(tr, p, point)) <= 1e-12 * scale
            elif not (tr.lambda_sign > 0 and point == 0.0):
                assert math.isnan(ana)


def test_up_curve_skips_analytic_below_p3(ds3):
    rows = LS.up_curve(ds3, 1, linspace(0.1, 0.9, 5))
    assert len(rows) == 5
    assert all(math.isnan(ana) for _, _, ana, _ in rows)
    assert all(abs(num) < 1e-12 for _, _, _, num in rows)


@pytest.mark.parametrize("p", [1, 2])
def test_transport_derivative_below_p3_against_mpmath(sds01, p):
    # no analytic derivative below p = 3: the transport one against a
    # 50-digit U_p'(t) (measured 7.6e-14 and 1.4e-13 of the largest value)
    grid = linspace(0.05, 0.95, 7)
    rows = LS.up_curve(sds01.on_branch("outer"), p, grid)
    assert [t for t, _, _, _ in rows] == grid
    scale = max(abs(value) for _, value, _, _ in rows)
    for t, value, _, num in rows:
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
        rows = LS.up_curve(view, 1, grid)
        scale = max(abs(value) for _, value, _, _ in rows)
        for t, _, _, num in rows:
            exact = (k * unit_sphere_area(n) * h0 ** (n - 1) * math.sqrt(n)
                     * (n - 1) * t * (1 - t * t) ** (-(n + 1) / 2))
            assert abs(num - exact) <= 1e-12 * scale


def test_monotonicity_scan_round_models(ds3, ads3):
    rep = LS.monotonicity_scan(ds3, 1, linspace(0.0, 0.99, 40))
    assert rep.extra["classification"] == "constant"
    assert rep.status == "pass"
    assert rep.extra["violations"] == ()
    rep = LS.monotonicity_scan(ads3, 1, linspace(1.01, 10.0, 40))
    assert rep.extra["classification"] == "constant"
    assert rep.extra["violations"] == ()


def test_monotonicity_scan_sds_informational(sds01):
    rep = LS.monotonicity_scan(sds01, 1, linspace(0.05, 0.9, 30))
    assert rep.status == "inapplicable"  # the gravity bound fails
    assert rep.extra["violations"] == ()
    assert not rep.assumption_status["surface_gravity_le_1"]


def _scaled_hemisphere(ds3, eps):
    """The hemisphere's potential times 1 + eps r^2, with its horizon data
    kept: not a static solution, but every assumption flag still holds."""
    def fn(rho):  # cos(rho) k with k = 1 + eps r^2, r = sin(rho)
        s, c = math.sin(rho), math.cos(rho)
        k, dk = 1.0 + eps * s * s, 2.0 * eps * s * c
        d2k = 2.0 * eps * (c * c - s * s)
        return c * k, c * dk - s * k, c * d2k - 2.0 * s * dk - c * k
    return hemisphere_in_arclength(ds3, fn)


@pytest.mark.parametrize("eps,cls,count", [(0.3, "nondecreasing", 29),
                                           (-0.3, "mixed", 23)])
def test_monotonicity_scan_flags_violations(ds3, eps, cls, count):
    grid = linspace(0.05, 0.95, 30)
    rep = LS.monotonicity_scan(_scaled_hemisphere(ds3, eps), 1, grid)
    assert all(rep.assumption_status.values())
    assert rep.status == "fail"
    assert rep.extra["classification"] == cls
    assert len(rep.extra["violations"]) == count
    assert rep.lhs > rep.tolerance and rep.rhs == 0.0


def test_monotonicity_scan_fails_exactly_on_violations(ds3, ads3, sds01,
                                                       nariai3):
    grid = linspace(0.05, 0.95, 30)
    scans = [LS.monotonicity_scan(tr, p, grid)
             for tr in (ds3, sds01, nariai3, _scaled_hemisphere(ds3, 0.3),
                        _scaled_hemisphere(ds3, -0.3)) for p in (1, 3)]
    scans.append(LS.monotonicity_scan(ads3, 1, linspace(1.01, 10.0, 30)))
    scans.append(LS.monotonicity_scan(ds3, 1, [0.5]))  # no increment
    assert {rep.status for rep in scans} == {"pass", "fail", "inapplicable"}
    for rep in scans:
        assert (rep.status == "fail") == bool(rep.extra["violations"])


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
    assert res.status == "pass"
    assert res.lhs == pytest.approx(expect, rel=1e-6)
    assert res.rhs == pytest.approx(expect, rel=1e-14)


def test_liminf_refuses_non_discrete(sds01, nariai3):
    for tr in (sds01, nariai3):
        res = LS.liminf_check(tr, 1)
        assert res.status == "inapplicable"
        assert res.extra["reason"] == "non-discrete extremum set"
        assert res.tolerance == 1e-6
        assert math.isnan(res.lhs) and math.isnan(res.rhs)


def test_liminf_verdict_follows_the_tolerance(ads3, monkeypatch):
    for p in (1, 2):
        assert LS.liminf_check(ads3, p).status == "pass"
    monkeypatch.setattr(LS, "IDENTITY_TOL", 1e-13)
    for p in (1, 2):
        assert LS.liminf_check(ads3, p).status == "fail"


def test_liminf_aitken_step_is_exact_on_a_geometric_sequence(ds3, ads3,
                                                             monkeypatch):
    # U_p = 4 pi + (1 - t) on t = 1 -+ 2^-k is geometric in k with ratio
    # 1/2, so one Aitken step on the last three samples lands on 4 pi
    monkeypatch.setattr(LS, "up_value", lambda tr, p, t: S3_AREA + 1.0 - t)
    for tr in (ds3, ads3):
        rep = LS.liminf_check(tr, 1)
        assert rep.lhs == pytest.approx(S3_AREA, abs=1e-12), tr.name


def test_liminf_sums_only_the_three_levels_its_aitken_step_reads(
        ds3, ads3, monkeypatch):
    # k = 22, 23 and 24, each level once: no sample is thrown away
    levels = []
    up_value = LS.up_value

    def counted(tr, p, t):
        levels.append(t)
        return up_value(tr, p, t)

    monkeypatch.setattr(LS, "up_value", counted)
    for tr in (ds3, ads3):
        for p in (1, 2):
            levels.clear()
            assert LS.liminf_check(tr, p).status == "pass"
            assert levels == [1.0 - tr.lambda_sign * 2.0 ** -k
                              for k in (22, 23, 24)]


def _nondegenerate_cap(n: int, a: float) -> StaticTriple:
    """Not static: u = cos(sqrt(a) rho), h = sin rho on (0, pi/(2 sqrt a)),
    a nondegenerate maximum u ~ 1 - a rho^2/2 with h ~ rho, of which the
    round hemisphere is a = 1.  There 1 - u^2 ~ a rho^2 and |Du| ~ a rho,
    so U_p tends to |S^(n-1)| a^((p-n+1)/2) at the maximum."""
    k = math.sqrt(a)
    domain = (0.0, math.pi / (2.0 * k))
    return StaticTriple(
        n=n, lambda_sign=+1,
        u=RadialProfile(domain, lambda x: (math.cos(k * x),
                                           -k * math.sin(k * x),
                                           -a * math.cos(k * x))),
        h=RadialProfile(domain, lambda x: (math.sin(x), math.cos(x),
                                           -math.sin(x))),
        f=None, boundaries=(), extremum=Extremum(location=0.0, count=1))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
def test_liminf_on_a_nondegenerate_maximum(n, a):
    # the two sides differ unless p = n-1: the Aitken limit against the
    # closed form (measured <= 1.1e-8 relative; the last sample alone is
    # up to 6e-8 off, so a broken Aitken step fails), and the verdict
    tr = _nondegenerate_cap(n, a)
    for p in range(1, n):
        rep = LS.liminf_check(tr, p)
        assert rep.lhs == pytest.approx(
            unit_sphere_area(n) * a ** ((p - n + 1) / 2), rel=3e-8)
        assert rep.rhs == pytest.approx(unit_sphere_area(n), rel=1e-14)
        assert rep.status == ("pass" if p == n - 1 else "fail"), p


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
