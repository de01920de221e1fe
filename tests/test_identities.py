import math
import sys

import pytest

from staticlab import identities as ID
from staticlab import levelset as LS
from staticlab.quadrature import QuadratureConfig, adaptive

from oracles import composite_simpson

S3_AREA = 4 * math.pi


def _first_flux(tr, p, tau):
    """The first identity's flux at {phi = tau}, from the level's records."""
    return ID._first_flux(tr, p,
                          LS.level_states(tr, LS.t_of_s(tau, tr.lambda_sign)))


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


@pytest.mark.parametrize("report, located", [
    (lambda sds: ID.first_identity(sds, 3, 0.5, 2.5, "outer"), 2),
    (lambda sds: ID.second_identity(sds, 3, 0.5, 2.5, "outer"), 2),
    (lambda sds: ID.curvature_deficit_identity(sds, 0.3), 1),
], ids=["first", "second", "deficit"])
def test_each_level_is_located_once(monkeypatch, sds01, report, located):
    # counted wherever a staticlab module binds level_radii; the fluxes and
    # the radial intervals read the records of one location per level
    levels, level_radii = [], LS.level_radii

    def counted(triple, t):
        levels.append(t)
        return level_radii(triple, t)

    for name, module in list(sys.modules.items()):
        if (name.startswith("staticlab")
                and getattr(module, "level_radii", None) is level_radii):
            monkeypatch.setattr(module, "level_radii", counted)
    assert report(sds01).status == "pass"
    assert len(levels) == located


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
