import dataclasses
import hashlib
import math
import re
import sys

import pytest

from staticlab import anti_de_sitter, de_sitter
from staticlab import identities as ID
from staticlab import levelset as LS
from staticlab.cli import suite_conformal, suite_identities
from staticlab.models import by_name
from staticlab.quadrature import QuadratureConfig, adaptive

from oracles import composite_simpson

S3_AREA = 4 * math.pi


def _first_flux(tr, p, tau):
    """The first identity's flux at {phi = tau}, from the level's records."""
    return ID._first_flux(p, LS.level_states(tr,
                                             LS.t_of_s(tau, tr.lambda_sign)))


# the benchmark's identities op at its seed-0 masses: 19 reports per
# (model, n), hashed in order by their reprs (a float's repr is its bits),
# so that a change which means to move no output keeps every report
PASS_SHA256 = "95642102a3047e10d421ed9185239a323b3d767784ff7caccefc17907da5f496"


def test_an_identities_pass_keeps_its_bits():
    digest = hashlib.sha256()
    for model in ("desitter", "antidesitter", "sds", "nariai"):
        for n in (3, 4, 5):
            tr = by_name(model, n, 0.1 if n == 3 else 0.05)
            branch = "outer" if len(tr.branches()) == 2 else None
            reports = []
            for s, S in ((0.3, 1.5), (0.5, 2.5), (0.8, 3.0)):
                reports += [ID.first_identity(tr, p, s, S, branch)
                            for p in (1, 3)]
                reports += [ID.second_identity(tr, p, s, S, branch)
                            for p in (3, 5)]
            reports += [ID.curvature_deficit_identity(tr, t) for t in (
                (0.3, 0.6) if tr.lambda_sign > 0 else (2.0, 4.0))]
            reports += suite_conformal(tr, 1e-6)
            assert len(reports) == 19
            for rep in reports:
                digest.update(repr(rep).encode())
    assert digest.hexdigest() == PASS_SHA256


# --------------------------------------------------------------------------
# first identity

def test_first_identity_de_sitter_closed_form(ds3):
    """On the hemisphere the slab weight integrates in closed form:
    both sides equal |S^2| (sinh(S)^-3 - sinh(s)^-3)."""
    s, S = 0.5, 3.0
    rep = ID.first_identity(ds3, 3, s, S)
    exact = S3_AREA * (math.sinh(S) ** -3 - math.sinh(s) ** -3)
    assert rep.lhs == pytest.approx(exact, rel=1e-12)
    assert rep.rhs == pytest.approx(exact, rel=1e-10)
    assert rep.status == "pass"
    # independent 1-d quadrature oracle for the bulk side
    oracle = -3 * S3_AREA * adaptive(
        lambda tau: math.cosh(tau) / math.sinh(tau) ** 4, s, S,
        QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12,
                         max_evals=100_000)).value
    assert rep.rhs == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_first_identity_all_p(ds3, p):
    rep = ID.first_identity(ds3, p, 0.5, 3.0)
    assert rep.status == "pass"
    assert rep.abs_residual <= 1e-7


def test_first_identity_rejects_p_below_one(ds3):
    with pytest.raises(ValueError):
        ID.first_identity(ds3, 0.5, 0.5, 3.0)


def test_first_identity_anti_de_sitter(ads3):
    rep = ID.first_identity(ads3, 3, 0.5, 3.0)
    exact = S3_AREA * (math.sinh(3.0) ** -3 - math.sinh(0.5) ** -3)
    assert rep.lhs == pytest.approx(exact, rel=1e-12)
    assert rep.status == "pass"


@pytest.mark.parametrize("branch", ["inner", "outer"])
def test_first_identity_sds_branches(sds01, branch):
    rep = ID.first_identity(sds01, 3, 0.5, 2.5, branch=branch)
    assert rep.status == "pass"
    assert rep.abs_residual <= 1e-6
    assert rep.extra["evaluations"] <= 100_000


def test_first_identity_needs_branch_on_sds(sds01):
    with pytest.raises(ValueError):
        ID.first_identity(sds01, 3, 0.5, 2.5)


def test_first_identity_flux_decays(ds3, ads3):
    """The far flux vanishes at the rate fixed by the sinh^-n weight, which
    is what turns the truncated identity into the half-infinite one."""
    for tr in (ds3, ads3):
        fluxes = [abs(_first_flux(tr, 3, S))
                  for S in (2.0, 4.0, 6.0, 8.0)]
        for a, b in zip(fluxes, fluxes[1:]):
            assert b < a
        # |flux| ~ sinh(S)^-n up to the bounded gradient factor
        for S, f in zip((2.0, 4.0, 6.0, 8.0), fluxes):
            assert f <= 1.5 * S3_AREA * math.sinh(S) ** -3


def test_first_identity_truncation_consistency(ds3):
    # as S grows, lhs(S) converges to the s-term alone
    s = 0.5
    target = -_first_flux(ds3, 3, s)
    gaps = []
    for S in (3.0, 5.0, 7.0):
        rep = ID.first_identity(ds3, 3, s, S)
        gaps.append(abs(rep.lhs - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= S3_AREA * math.sinh(7.0) ** -3 * 1.5


# --------------------------------------------------------------------------
# second identity

def test_second_identity_trivial_on_round_models(ds3, ads3):
    for tr in (ds3, ads3):
        rep = ID.second_identity(tr, 3, 0.5, 2.5)
        assert rep.status == "pass"
        assert abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_second_identity_sds(sds01, p):
    rep = ID.second_identity(sds01, p, 0.5, 2.5, branch="outer")
    assert rep.status == "pass"
    assert abs(rep.lhs) > 0.1  # genuinely non-trivial
    assert rep.abs_residual <= 1e-6
    assert rep.extra["evaluations"] <= 100_000


def test_second_identity_rejects_p_below_three(ds3):
    with pytest.raises(ValueError):
        ID.second_identity(ds3, 2, 0.5, 2.5)


def test_second_identity_far_boundary_vanishes(sds01):
    """As the far level runs off to the conformal end, its weighted
    boundary term dies out and the truncated identity becomes the
    half-infinite one."""
    import math
    from staticlab.levelset import level_radii, sphere_data, t_of_s

    def weighted_boundary(tau):
        t = t_of_s(tau, +1)
        total = 0.0
        for x in level_radii(sds01.on_branch("outer"), t):
            sp = sphere_data(sds01, x)
            total += sp.area_g * sp.gamma * (
                sp.W * sp.H_g - math.sqrt(sp.W) * sp.lap_phi)
        return total

    terms = [abs(weighted_boundary(S)) for S in (2.0, 4.0, 6.0)]
    assert terms[0] > terms[1] > terms[2]
    assert terms[2] <= 1e-8
    # with the far term negligible, truncation level no longer matters
    r_a = ID.second_identity(sds01, 3, 0.5, 6.0, branch="outer")
    r_b = ID.second_identity(sds01, 3, 0.5, 7.0, branch="outer")
    assert r_a.status == "pass" and r_b.status == "pass"
    assert r_a.lhs == pytest.approx(r_b.lhs, abs=1e-8)


# --------------------------------------------------------------------------
# curvature-deficit (flux) identity

def test_deficit_identity_trivial_on_round_models(ds3, ads3):
    # D2u = -+ u g0 makes the deficit integrand vanish identically
    for tr, t in ((ds3, 0.3), (ds3, 0.7), (ads3, 1.5), (ads3, 3.0)):
        rep = ID.curvature_deficit_identity(tr, t)
        assert abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12
        assert rep.status == "pass"


def test_deficit_identity_sds_crosses_extremal_sphere(sds01):
    rep = ID.curvature_deficit_identity(sds01, 0.3)
    assert rep.status == "pass"
    assert rep.abs_residual <= 1e-6
    assert rep.lhs > 1.0  # non-trivial and positive for positive constant
    assert rep.extra["evaluations"] <= 100_000


def test_deficit_identity_nariai(nariai3):
    rep = ID.curvature_deficit_identity(nariai3, 0.4)
    assert rep.status == "pass"
    assert rep.abs_residual <= 1e-6


# --------------------------------------------------------------------------
# refusals and level location

@pytest.mark.parametrize("identity", [ID.first_identity, ID.second_identity])
@pytest.mark.parametrize("s, S, branch, message", [
    (0.0, 2.5, "outer", "conformal level s must be positive, got 0$"),
    (2.5, 2.5, "outer", "need 0 < s < S"),
    (2.5, 0.5, "outer", "need 0 < s < S"),
    (0.5, 2.5, None, "conformal slab must meet a single monotone branch"),
])
def test_slab_refusals(sds01, identity, s, S, branch, message):
    # s > 0 first, then the order of the ends, then one branch: the whole
    # two-branch triple meets each level twice
    with pytest.raises(ValueError, match=message):
        identity(sds01, 3, s, S, branch)


BAND = "point with u={} lies in the excluded band"


@pytest.mark.parametrize("S, first_refusal, u_second", [
    (8, None, 0.9999997749296758),
    (10, None, 0.9999999958776927),
    (20, "conformal factor degenerate at u=1.0", 1.0),
])
@pytest.mark.parametrize("second_first", [False, True])
def test_slab_refusals_at_the_band(S, first_refusal, u_second, second_first):
    # de Sitter slabs that end at u = tanh(S): the first identity reads its
    # nodes and fluxes up to the extremal value, the second identity's flux
    # refuses the band, and neither outcome depends on which report set up
    # the slab table
    tr = de_sitter(3)

    def first():
        if first_refusal is None:
            assert ID.first_identity(tr, 3, 0.5, S).status == "pass"
        else:
            with pytest.raises(ValueError, match=re.escape(first_refusal)):
                ID.first_identity(tr, 3, 0.5, S)

    def second():
        with pytest.raises(ValueError,
                           match=re.escape(BAND.format(u_second))):
            ID.second_identity(tr, 3, 0.5, S)

    for check in ((second, first) if second_first else (first, second)):
        check()


def test_a_u_power_that_underflows_refuses_only_the_first_identity():
    # from s = 1e-3 on de Sitter at n = 300, u^n underflows to 0 at the
    # nodes next to u = tanh(s): the first identity divides by it,
    # and the second, which does not read it, reports the same whichever
    # identity set up the slab table
    seconds = []
    for second_first in (False, True):
        tr = de_sitter(300)
        if second_first:
            seconds.append(repr(ID.second_identity(tr, 3, 1e-3, 0.01)))
        with pytest.raises(ZeroDivisionError):
            ID.first_identity(tr, 3, 1e-3, 0.01)
        if not second_first:
            seconds.append(repr(ID.second_identity(tr, 3, 1e-3, 0.01)))
    assert seconds[0] == seconds[1]
    assert "status='pass'" in seconds[0]


def test_a_gamma_that_overflows_refuses_only_the_second_identity():
    # from s = 0.029 on anti-de Sitter at n = 200, D^((n+2)/2) overflows at
    # the nodes next to the lower end where D^(n/2) does not: the second
    # identity raises, and the first, which does not read gamma, fails with
    # an infinite bulk integral whichever identity set up the slab table
    firsts = []
    for second_first in (False, True):
        tr = anti_de_sitter(200)
        if second_first:
            with pytest.raises(OverflowError):
                ID.second_identity(tr, 3, 0.029, 0.5)
        firsts.append(ID.first_identity(tr, 3, 0.029, 0.5))
        if not second_first:
            with pytest.raises(OverflowError):
                ID.second_identity(tr, 3, 0.029, 0.5)
    assert repr(firsts[0]) == repr(firsts[1])
    assert firsts[0].status == "fail" and firsts[0].rhs == -math.inf
    assert firsts[0].lhs == -3.582940943415684e+201


@pytest.mark.parametrize("report, located", [
    (lambda sds: ID.first_identity(sds, 3, 0.5, 2.5, "outer"), 2),
    (lambda sds: ID.second_identity(sds, 3, 0.5, 2.5, "outer"), 2),
    (lambda sds: ID.curvature_deficit_identity(sds, 0.3), 1),
], ids=["first", "second", "deficit"])
def test_each_level_is_located_once(monkeypatch, sds01, report, located):
    # the fluxes and the radial intervals read the records of one location
    # per level; a fresh triple, as the shared fixture may hold the slab
    levels = _counted(monkeypatch, "level_radii")
    assert report(dataclasses.replace(sds01)).status == "pass"
    assert len(levels) == located


def _counted(monkeypatch, name):
    """The calls of `levelset.<name>`, counted wherever a staticlab module
    binds it."""
    calls, original = [], getattr(LS, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for key, module in list(sys.modules.items()):
        if (key.startswith("staticlab")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_slab_is_set_up_once(monkeypatch, sds01):
    # the four slab identities on one slab locate its two ends and take the
    # assumption flags once among them, and each report gets its own flags
    levels = _counted(monkeypatch, "level_radii")
    flags = _counted(monkeypatch, "assumption_flags")
    tr = dataclasses.replace(sds01)
    reports = [ID.first_identity(tr, 1, 0.5, 2.5, "outer"),
               ID.first_identity(tr, 3, 0.5, 2.5, "outer"),
               ID.second_identity(tr, 3, 0.5, 2.5, "outer"),
               ID.second_identity(tr, 5, 0.5, 2.5, "outer")]
    assert [rep.status for rep in reports] == ["pass"] * 4
    assert (len(levels), len(flags)) == (2, 1)
    assert len({id(rep.assumption_status) for rep in reports}) == 4


def test_the_slab_table_is_kept_on_the_triple_passed(sds01):
    # under the key (t_s, t_S, branch of the view), in the caller's triple;
    # a branch view gets the branches and no table
    tr = dataclasses.replace(sds01)
    assert ID.first_identity(tr, 1, 0.5, 2.5, "outer").status == "pass"
    key, table = vars(tr)["_slab"]
    assert key == (LS.t_of_s(0.5, 1), LS.t_of_s(2.5, 1), "outer")
    assert {"ends", "nodes", "flags"} <= set(table)
    view = tr.on_branch("outer")
    assert "_slab" not in vars(view) and "_branches" in vars(view)


def test_the_identities_suite_locates_each_slab_end_once(monkeypatch,
                                                          sds01):
    # the four slab reports share one view, so one table: the two slab ends
    # and the deficit identity's level are each located once
    levels = _counted(monkeypatch, "level_radii")
    reports = suite_identities(dataclasses.replace(sds01), 1e-6)
    assert [rep.status for rep in reports] == ["pass"] * 6
    located = [args[1] for args in levels]
    assert sorted(located) == sorted({*located}) and len(located) == 3


# --------------------------------------------------------------------------
# boundary inequality

def test_boundary_inequality_round_models(ds3, ads3):
    for tr in (ds3, ads3):
        rep = ID.boundary_curvature_inequality(tr)
        assert rep.status == "pass"
        assert rep.equality


def test_boundary_inequality_sds_oracle(sds01):
    from oracles import sds_horizon_data
    _, r1, r2, _, k1, k2 = sds_horizon_data(3, 0.1)
    rep = ID.boundary_curvature_inequality(sds01)
    expect = S3_AREA * (k1 * (2 - 2 * r1 ** 2) + k2 * (2 - 2 * r2 ** 2))
    assert rep.extra["value"] == pytest.approx(expect, rel=1e-9)
    assert rep.extra["value"] == pytest.approx(91.14064351600192, rel=1e-10)
    assert rep.status == "pass" and not rep.equality


def test_boundary_inequality_nariai_positive(nariai3):
    rep = ID.boundary_curvature_inequality(nariai3)
    assert rep.status == "pass"
    assert rep.extra["value"] > 0.0


# --------------------------------------------------------------------------
# quadrature behaviour of the identity suite

@pytest.mark.parametrize("maker", [
    lambda sds01: ID.first_identity(sds01, 3, 0.5, 2.5, branch="outer"),
    lambda sds01: ID.second_identity(sds01, 3, 0.5, 2.5, branch="outer"),
    lambda sds01: ID.curvature_deficit_identity(sds01, 0.3),
])
def test_identity_budgets(sds01, maker):
    rep = maker(sds01)
    assert rep.extra["evaluations"] <= 100_000
    assert rep.status == "pass"


def test_grid_doubling_reduces_residual(sds01, monkeypatch):
    """Composite Simpson panels at N and 2N in place of the adaptive rule: at
    least fourfold error reduction."""
    cases = [
        lambda: ID.first_identity(sds01, 3, 0.5, 2.5, branch="outer"),
        lambda: ID.second_identity(sds01, 5, 0.5, 2.5, branch="outer"),
        lambda: ID.curvature_deficit_identity(sds01, 0.3),
    ]

    def residual(case, panels):
        monkeypatch.setattr(ID, "adaptive", lambda f, a, b, cfg:
                            composite_simpson(f, a, b, panels))
        return case().abs_residual

    for case in cases:
        r1, r2 = residual(case, 8), residual(case, 16)
        assert r1 > 1e-13  # above the float floor, so the ratio means something
        assert r1 / r2 >= 4.0
