import dataclasses
import math

import pytest

from staticlab import (BoundaryComponent, Extremum, SdSParams, cli,
                       de_sitter, nariai, schwarzschild_de_sitter)
from staticlab import identities as ID
from staticlab import inequalities as IQ
from staticlab import levelset as LS
from staticlab.geometry import unit_sphere_area
from staticlab.levelset import assumption_flags, conformal_boundary_data
from staticlab.models import ADS_R_MAX
from staticlab.report import inequality_report

from oracles import in_arclength

S3_AREA = 4 * math.pi


@pytest.fixture(scope="module")
def ads3_gradient_limit_half(ads3):
    """Not static: anti-de Sitter's potential u = sqrt(1 + r^2) on the
    metric dr^2 / (r^2 + 1/2) + r^2 g_S, in its arclength chart
    r = sinh(rho) / sqrt(2).  It is conformally compact with a discrete
    extremum at 0, and lim (u^2 - 1 - |Du|^2) = lim r^2 / (2 (1 + r^2)) is
    1/2: nonnegative, but not zero."""
    k = math.sqrt(0.5)

    def radius(rho: float) -> tuple[float, float, float]:
        return k * math.sinh(rho), k * math.cosh(rho), k * math.sinh(rho)

    def potential(rho: float) -> tuple[float, float, float]:
        r, dr, d2r = radius(rho)
        v, d1, d2 = ads3.u.fn(r)
        return v, d1 * dr, d2 * dr * dr + d1 * d2r

    return in_arclength(ads3, math.asinh(ADS_R_MAX / k), radius, potential)


@pytest.fixture(scope="module")
def ds3_two_horizons(ds3):
    """Not static: the round hemisphere with its unit horizon listed twice,
    a discrete extremum with two boundary components."""
    (b,) = ds3.boundaries
    return dataclasses.replace(ds3, boundaries=(b, b))


def test_all_equalities_on_de_sitter(ds3):
    reports = [
        IQ.area_bound(ds3),
        IQ.willmore_bound(ds3),
        IQ.scalar_average_bound(ds3),
        IQ.mon_glob_bound(ds3, 1),
        IQ.n3_uniqueness_inequality(ds3),
    ]
    for rep in reports:
        assert rep.status == "pass", rep.name
        assert rep.equality, rep.name
        assert abs(rep.lhs - rep.rhs) <= 1e-9, rep.name
    over = IQ.overdetermined_condition(ds3, 0.5)
    assert over.status == "pass" and over.abs_residual <= 1e-9
    grad = IQ.gradient_bound(ds3)
    assert grad.status == "pass" and abs(grad.extra["min_margin"]) <= 1e-12


def test_lambda_negative_equalities_on_anti_de_sitter(ads3):
    for rep in (IQ.area_bound(ads3), IQ.willmore_bound(ads3),
                IQ.mon_glob_bound(ads3, 1)):
        assert rep.status == "pass", rep.name
        assert rep.equality, rep.name
        assert abs(rep.lhs - rep.rhs) <= 1e-9, rep.name
    over = IQ.overdetermined_condition(ads3, 2.0)
    assert over.status == "pass" and over.abs_residual <= 1e-9
    grad = IQ.gradient_bound(ads3)
    assert grad.status == "pass"


def test_de_sitter_n4_scalar_average(ds4):
    rep = IQ.scalar_average_bound(ds4)
    assert rep.equality
    assert rep.lhs == pytest.approx(2 * math.pi ** 2, rel=1e-12)
    assert rep.rhs == pytest.approx(2 * math.pi ** 2, rel=1e-12)


def test_lp_bound_equality_on_round_models(ds3, ads3):
    rep = IQ.lp_gradient_bound(ds3, 3, 0.5)
    assert rep.status == "pass" and rep.equality
    rep = IQ.lp_gradient_bound(ads3, 3, 2.0)
    assert rep.status == "pass" and rep.equality
    with pytest.raises(ValueError):
        IQ.lp_gradient_bound(ds3, 2, 0.5)


def test_gradient_bound_sds_locates_violation(sds01):
    rep = IQ.gradient_bound(sds01)
    assert rep.status == "inapplicable"  # gravity bound fails, not a failure
    assert rep.extra["min_margin"] < 0.0
    lo, hi = rep.extra["violation_interval"]
    assert lo == pytest.approx(sds01.domain[0], abs=1e-6)
    assert hi == pytest.approx(sds01.domain[1], abs=1e-6)


def test_gradient_bound_locates_an_interior_violation(ds3):
    # u = 0.5 + 0.6 sin(rho) on the round sphere h = sin(rho), rho in
    # (0, pi): the margin 1 - u^2 - u'^2 = 0.39 - 0.6 sin(rho) is positive
    # at both ends, so each end of the interval is a root of the margin
    tr = in_arclength(
        ds3, math.pi,
        lambda rho: (math.sin(rho), math.cos(rho), -math.sin(rho)),
        lambda rho: (0.5 + 0.6 * math.sin(rho), 0.6 * math.cos(rho),
                     -0.6 * math.sin(rho)),
        extremum=Extremum(0.5 * math.pi, 1))
    lo, hi = IQ.gradient_bound(tr).extra["violation_interval"]
    assert lo == pytest.approx(math.asin(0.65), rel=0.0, abs=1e-12)
    assert hi == pytest.approx(math.pi - math.asin(0.65), rel=0.0, abs=1e-12)


def test_no_fail_verdicts_when_assumptions_violated(sds01, nariai3):
    """Counterexample families must never produce a 'fail'."""
    for tr in (sds01, nariai3):
        reports = [
            IQ.gradient_bound(tr),
            IQ.area_bound(tr),
            IQ.willmore_bound(tr),
            IQ.scalar_average_bound(tr),
            IQ.lp_gradient_bound(tr, 3, 0.5),
            IQ.overdetermined_condition(tr, 0.5),
            IQ.n3_uniqueness_inequality(tr),
            IQ.mon_glob_bound(tr, 1),
        ]
        for rep in reports:
            assert rep.status == "inapplicable", (tr.name, rep.name)


def test_non_discrete_refusals_keep_their_right_side():
    # every check refused on a non-discrete extremal set prints the right
    # side it computed, in `rhs` and in `extra["rhs"]`
    for tr in (schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
               schwarzschild_de_sitter(SdSParams(n=4, m=0.05)),
               nariai(3), nariai(4)):
        reports = [
            IQ.gradient_bound(tr),
            IQ.area_bound(tr),
            IQ.willmore_bound(tr),
            IQ.scalar_average_bound(tr),
            IQ.lp_gradient_bound(tr, 3, 0.5),
            IQ.overdetermined_condition(tr, 0.5),
            IQ.n3_uniqueness_inequality(tr),
            IQ.mon_glob_bound(tr, 1 if tr.n == 3 else 3),
        ]
        refused = [rep for rep in reports
                   if rep.extra.get("reason") == "non-discrete extremum set"]
        # the five extremal-count checks; at n = 4 the n = 3 count is out
        # of scope
        assert len(refused) == (5 if tr.n == 3 else 4), tr.name
        for rep in refused:
            assert math.isfinite(rep.rhs), (tr.name, tr.n, rep.name)
            assert rep.rhs == rep.extra["rhs"], (tr.name, tr.n, rep.name)


def test_sds_informational_values(sds01):
    # the two-horizon family still produces the right side numerically
    will = IQ.willmore_bound(sds01)
    assert will.extra["rhs"] == pytest.approx(303.54414315058636, rel=1e-9)
    assert will.extra["rhs"] > S3_AREA
    uni = IQ.n3_uniqueness_inequality(sds01)
    kappas = sorted(b.surface_gravity for b in sds01.boundaries)
    assert uni.extra["rhs"] == pytest.approx(2 * sum(kappas), rel=1e-12)
    over = IQ.overdetermined_condition(sds01, 0.5)
    assert max(abs(v) for v in over.extra["per_sphere"]) > 1e-3


def test_overdetermined_condition_nariai(nariai3):
    # the product solution happens to satisfy the overdetermining relation
    # pointwise; the verdict is still gated on the gravity bound
    rep = IQ.overdetermined_condition(nariai3, 0.5)
    assert rep.status == "inapplicable"
    assert rep.abs_residual <= 1e-9


@pytest.mark.parametrize("t, message", [
    (1.0, "singular at the extremal level t=1"),
    (-1.0, "outside the range of u"),
])
def test_overdetermined_condition_refuses_t_squared_one(ds3, ads3, t,
                                                        message):
    # the level is located first: t = -1 is no level of u > 0, and t = +1
    # is the extremal level, where the target t/(1-t^2) is singular
    for tr in (ds3, ads3):
        with pytest.raises(ValueError, match=message):
            IQ.overdetermined_condition(tr, t)


def test_n3_uniqueness_two_boundary_arithmetic(ds3_two_horizons):
    """Synthetic two-component boundary with unit gravities: 2 < 4."""
    rep = IQ.n3_uniqueness_inequality(ds3_two_horizons)
    assert rep.lhs == 2.0 and rep.rhs == 4.0
    assert rep.status == "pass"
    assert not rep.equality  # disconnected boundary: no rigidity claim
    assert rep.extra["connected_boundary"] is False


@pytest.mark.parametrize("n, radius", [(6, 1.0540925533894598),
                                       (7, 1.0350983390135313),
                                       (11, 1.0112997936948631)])
def test_willmore_bound_reads_a_horizon_term_of_radius_zero(n, radius):
    # at this horizon radius R_bdry = (n-1)(n-2)/r^2 rounds to n(n-3), so
    # the horizon term is the area of a sphere of radius 0, which is 0 (its
    # logarithm raised a math domain error)
    tr = dataclasses.replace(de_sitter(n), boundaries=(
        BoundaryComponent(1.0, radius, 1.0),))
    rep = IQ.willmore_bound(tr)
    assert rep.rhs == 0.0 and rep.lhs == unit_sphere_area(n)
    assert rep.status == "fail" and all(rep.assumption_status.values())


def test_vanishing_gradient_limit_gates(ads3_gradient_limit_half):
    """The negative-constant Willmore and boundary-curvature statements ask
    for a gradient limit of zero; a nonnegative one is not enough."""
    tr = ads3_gradient_limit_half
    flags = assumption_flags(tr)
    assert flags["gradient_limit_nonneg"] and not flags["gradient_limit_zero"]
    assert conformal_boundary_data(tr).gradient_limit == pytest.approx(
        0.5, abs=1e-9)
    for rep in (IQ.willmore_bound(tr), ID.boundary_curvature_inequality(tr)):
        assert rep.status == "inapplicable", rep.name


def test_boundary_limits_are_computed_once_per_triple(monkeypatch, ads3):
    # the identities and inequalities suites read the conformal boundary
    # limits from the flags and from three statements; a fresh triple
    # computes them once, and a failed call keeps nothing
    built, data = [], LS.ConformalBoundaryData

    def counted(*limits):
        built.append(limits)
        return data(*limits)

    monkeypatch.setattr(LS, "ConformalBoundaryData", counted)
    tr = dataclasses.replace(ads3)
    reports = (cli.suite_identities(tr, 1e-6)
               + cli.suite_inequalities(tr, 1e-6))
    assert {rep.status for rep in reports} <= {"pass", "inapplicable"}
    assert len(built) == 1
    assert conformal_boundary_data(tr) is conformal_boundary_data(tr)
    assert conformal_boundary_data(dataclasses.replace(tr)) is not \
        conformal_boundary_data(tr)
    assert len(built) == 2
    ds = de_sitter(3)
    with pytest.raises(ValueError, match="exists only for negative constant"):
        conformal_boundary_data(ds)
    assert "_conformal_boundary_data" not in vars(ds)


def test_n3_uniqueness_requires_dimension_three(ds4):
    rep = IQ.n3_uniqueness_inequality(ds4)
    assert rep.status == "inapplicable"


def test_mon_glob_admissible_exponents(ds3, ds4):
    assert IQ.mon_glob_bound(ds3, 0.5).status == "pass"
    assert IQ.mon_glob_bound(ds3, 2).status == "inapplicable"  # n=3 caps at 1
    assert IQ.mon_glob_bound(ds4, 3).status == "pass"
    assert IQ.mon_glob_bound(ds4, 4).status == "inapplicable"


def test_mon_glob_chain_n5():
    # constant potential data in dimension five: the whole chain collapses
    # to the area of the round S^4
    tr = de_sitter(5)
    rep = IQ.mon_glob_bound(tr, 3)
    from staticlab import unit_sphere_area
    s4 = unit_sphere_area(5)
    assert rep.status == "pass" and rep.equality
    assert rep.lhs == pytest.approx(s4, rel=1e-12)
    assert rep.rhs == pytest.approx(s4, rel=1e-12)
    assert rep.extra["upper"] == pytest.approx(s4, rel=1e-12)


def test_mon_glob_chain_values(ds3):
    rep = IQ.mon_glob_bound(ds3, 1)
    assert rep.lhs == pytest.approx(S3_AREA, rel=1e-12)
    assert rep.rhs == pytest.approx(S3_AREA, rel=1e-12)
    assert rep.extra["upper"] == pytest.approx(S3_AREA, rel=1e-12)
    assert rep.extra["chain_holds"]


def test_mon_glob_second_step_fails_alone(ds3):
    # a horizon gravity of 1 + 5e-10 keeps the gate (at most 1 + 1e-9) and
    # the first step, and puts U_1(0) 6.3e-9 above U_0(0), past INEQ_TOL
    tr = dataclasses.replace(
        ds3, boundaries=(BoundaryComponent(1.0, 1.0, 1.0 + 5e-10),))
    rep = IQ.mon_glob_bound(tr, 1)
    assert rep.rhs - rep.extra["upper"] > IQ.INEQ_TOL
    assert rep.status == "fail" and not rep.extra["chain_holds"]


def test_implication_chain(all_models):
    """Whenever the global chain bound passes, the boundary-curvature
    bounds pass as well, across the model set."""
    for tr in all_models:
        p = 1 if tr.n == 3 else 3
        glob = IQ.mon_glob_bound(tr, p)
        if glob.status == "pass":
            assert IQ.willmore_bound(tr).status == "pass", tr.name
            if tr.lambda_sign > 0:
                assert IQ.scalar_average_bound(tr).status == "pass", tr.name


def test_scalar_average_refused_for_negative_constant(ads3):
    assert IQ.scalar_average_bound(ads3).status == "inapplicable"


def test_nan_side_never_passes():
    for lhs, rhs in ((math.nan, 1.0), (1.0, math.nan)):
        assert inequality_report("x", lhs, rhs, 1e-9, {}, True,
                                 "").status == "fail"
        gated = inequality_report("x", lhs, rhs, 1e-9, {}, False, "")
        assert gated.status == "inapplicable"


def test_relative_residual_divides_by_the_larger_side():
    assert inequality_report("x", 2.0, 1.0, 1e-9, {}, True,
                             "").rel_residual == 0.5
