import dataclasses
import math

import numpy as np
import pytest

from staticlab import SdSParams, cli, schwarzschild_de_sitter
from staticlab import conformal as CF
from staticlab.geometry import StaticTriple

from oracles import sds_horizon_data


def test_de_sitter_state_is_cylindrical(ds3):
    # the conformal picture of the hemisphere is a round cylinder
    for r in np.linspace(0.05, 0.95, 20):
        st = CF.to_conformal(ds3, r)
        assert st.W == pytest.approx(1.0, abs=1e-12)
        assert st.hess_phi_norm2 == pytest.approx(0.0, abs=1e-12)
        assert st.lap_phi == pytest.approx(0.0, abs=1e-12)
        assert st.D * (1 - st.W) == pytest.approx(0.0, abs=1e-12)
        assert st.scalar_g == pytest.approx(2.0, abs=1e-12)  # (n-1)(n-2)
        assert st.H_g == pytest.approx(0.0, abs=1e-12)


def test_anti_de_sitter_state(ads3):
    for r in np.linspace(0.2, 10, 20):
        st = CF.to_conformal(ads3, r)
        assert st.W == pytest.approx(1.0, abs=1e-12)
        # trace identity with W = 1 kills the u^2 term entirely
        assert st.scalar_g == pytest.approx(2.0, abs=1e-10)
        assert 1 / math.tanh(st.phi) == pytest.approx(ads3.u.value(r),
                                                      rel=1e-12)


def test_phi_u_dictionary(ds3, ads3):
    st = CF.to_conformal(ds3, 0.5)
    u = ds3.u.value(0.5)
    assert st.phi == pytest.approx(0.5 * math.log((1 + u) / (1 - u)))
    assert math.tanh(st.phi) == pytest.approx(u, rel=1e-14)
    assert st.D == pytest.approx(1 - u * u, rel=1e-14)
    st = CF.to_conformal(ads3, 2.0)
    u = ads3.u.value(2.0)
    assert st.phi == pytest.approx(0.5 * math.log((u + 1) / (u - 1)))
    assert st.D == pytest.approx(u * u - 1, rel=1e-14)
    # gamma = D^((n+2)/2)/u in both cases
    assert st.gamma == pytest.approx((u * u - 1) ** 2.5 / u, rel=1e-14)


def test_du_dphi_relation(all_models):
    """du/dphi = 1 - u^2, checked by finite differences along phi (one
    Richardson level removes the quadratic stencil error)."""
    for tr in all_models:
        pts = [x for x in CF.sample_points_off_extremum(tr, 12)
               if abs(tr.u.value(x) - 1.0) >= 1e-3]
        lo, hi = tr.domain

        def ratio(x, h):
            du = tr.u.value(x + h) - tr.u.value(x - h)
            dphi = CF.to_conformal(tr, x + h).phi - CF.to_conformal(tr, x - h).phi
            return du / dphi

        for x in pts[::3]:
            h = 1e-5 * (hi - lo)
            est = (4.0 * ratio(x, h / 2) - ratio(x, h)) / 3.0
            u_mid = tr.u.value(x)
            assert est == pytest.approx(1 - u_mid ** 2,
                                        rel=1e-8, abs=1e-8), tr.name


def test_sds_grad_phi_closed_form(sds01):
    # W = f'^2 / (4 f(r0) (1 - u^2)), from the profile of the two-horizon family
    _, _, _, f0, _, _ = sds_horizon_data(3, 0.1)
    r = 0.5
    st = sds01.radial_state(r)
    fprime = sds01.f(r)[1]
    expect = fprime ** 2 / (4 * f0 * (1 - st.u ** 2))
    got = CF.to_conformal(sds01, r).W
    assert got == pytest.approx(expect, rel=1e-12)


def test_quasi_einstein_tight_on_hemisphere(ds3):
    for r in (0.2, 0.5, 0.8):
        assert CF.quasi_einstein_residual(CF.sphere_data(ds3, r)) <= 1e-10


def test_quasi_einstein_residual_on_solutions(all_models):
    for tr in all_models:
        pts = CF.sample_points_off_extremum(tr, 50)
        worst = max(CF.quasi_einstein_residual(CF.sphere_data(tr, x))
                    for x in pts)
        assert worst <= 1e-8, tr.name


def test_quasi_einstein_residual_sds_inner_region(sds01):
    lo = sds01.domain[0]
    r0 = sds01.extremum.location
    for r in np.linspace(lo + 0.01, r0 - 0.01, 50):
        assert CF.quasi_einstein_residual(CF.sphere_data(sds01, r)) <= 1e-8


def test_quasi_einstein_detects_perturbation(ds3):
    def u_pert(r):
        v, d1, d2 = ds3.u.fn(r)
        return v + 0.01, d1, d2

    bad = dataclasses.replace(ds3, u=dataclasses.replace(ds3.u, fn=u_pert))
    assert CF.quasi_einstein_residual(CF.sphere_data(bad, 0.5)) > 1e-3


def test_bochner_residual(all_models):
    # measured maximum over these four models: 5.7e-13 (anti-de Sitter)
    for tr in all_models:
        pts = CF.sample_points_off_extremum(tr, 50)
        worst = max(CF.bochner_residual(CF.sphere_data(tr, x)) for x in pts)
        assert worst <= 1e-12, tr.name


def test_w_equation_residual(all_models):
    # measured maximum over these four models: 1.8e-10 (anti-de Sitter at
    # u = 19.8, where beta = 391 multiplies |hess phi|^2 = 0 formed from
    # terms of size n u^2, so rounding leaves 2.3e-13 of it)
    for tr in all_models:
        pts = CF.sample_points_off_extremum(tr, 50)
        worst = max(CF.w_equation_residual(CF.sphere_data(tr, x))
                    for x in pts)
        assert worst <= 1e-9, tr.name


@pytest.mark.parametrize("m", [0.04, 0.02, 0.01, 0.005])
def test_closed_form_residuals_at_small_sds_mass(m):
    # a five-point stencil for W'' read 2.6e-8, 1.0e-6, 3.9e-4 and 2.3e-3
    # at these masses; the closed form reads at most 2.3e-10
    tr = schwarzschild_de_sitter(SdSParams(n=3, m=m))
    for x in CF.sample_points_off_extremum(tr, 50):
        sp = CF.sphere_data(tr, x)
        assert CF.bochner_residual(sp) <= 1e-9, (m, x)
        assert CF.w_equation_residual(sp) <= 1e-9, (m, x)


def test_closed_form_residuals_detect_perturbation(ds3):
    # u''' is taken from the potential equation, so a u that does not solve
    # it must still show in both residuals
    def u_pert(r):
        v, d1, d2 = ds3.u.fn(r)
        return v + 0.01 * r ** 3, d1 + 0.03 * r ** 2, d2 + 0.06 * r

    bad = dataclasses.replace(ds3, u=dataclasses.replace(ds3.u, fn=u_pert))
    sp = CF.sphere_data(bad, 0.5)
    assert CF.bochner_residual(sp) > 1e-3
    assert CF.w_equation_residual(sp) > 1e-3


def test_suite_conformal_builds_one_record_per_point(all_models, monkeypatch):
    calls = []
    radial_state = StaticTriple.radial_state

    def counted(triple, x):
        calls.append(x)
        return radial_state(triple, x)

    monkeypatch.setattr(StaticTriple, "radial_state", counted)
    for tr in all_models:
        pts = CF.sample_points_off_extremum(tr, 50)
        calls.clear()
        cli.suite_conformal(tr, 1e-6)
        assert calls == pts, tr.name


def test_trace_identity_residual(all_models):
    for tr in all_models:
        pts = CF.sample_points_off_extremum(tr, 50)
        worst = max(CF.trace_identity_residual(CF.sphere_data(tr, x))
                    for x in pts)
        assert worst <= 1e-8, tr.name


def test_mean_curvature_relation_reports(all_models):
    for tr in all_models:
        pts = CF.sample_points_off_extremum(tr, 25)
        for x in pts[::5]:
            assert CF.mean_curvature_relations(CF.sphere_data(tr, x)) <= 1e-8


def test_de_sitter_level_mean_curvature_convention(ds3):
    # with nu = Du/|Du| (pointing toward the centre) the level spheres curve
    # away from nu: H = -(n-1) sqrt(1-r^2)/r
    for r in (0.3, 0.5, 0.7):
        got = CF.mean_curvature_g0(ds3, r)
        assert got == pytest.approx(-2 * math.sqrt(1 - r * r) / r, rel=1e-12)


def test_sds_mean_curvatures_across_extremal_sphere(sds01):
    # crossing the extremal sphere swaps the increasing/decreasing branches
    # of u, so the g0 mean curvature (normal nu = Du/|Du|) flips sign, while
    # H_g tends to the finite limit (n-1)sqrt(n) from both sides: the
    # conformal end of the two-horizon family is expanding, not cylindrical
    r0 = sds01.extremum.location
    for eps in (5e-3, 2e-3):
        h_in = CF.mean_curvature_g0(sds01, r0 - eps)
        h_out = CF.mean_curvature_g0(sds01, r0 + eps)
        assert h_in > 0.0 > h_out
        assert abs(abs(h_in) - abs(h_out)) < 0.1
    limit = 2 * math.sqrt(3)
    assert CF.to_conformal(sds01, r0 - 1e-3).H_g == pytest.approx(limit, abs=0.05)
    assert CF.to_conformal(sds01, r0 + 1e-3).H_g == pytest.approx(limit, abs=0.05)


def test_gradient_lemma_on_round_models(ds3, ads3):
    # 1 - |grad phi|^2 >= 0 holds with equality on the rigid models
    for tr in (ds3, ads3):
        pts = CF.sample_points_off_extremum(tr, 100)
        for x in pts:
            assert 1 - CF.to_conformal(tr, x).W >= -1e-12


def test_sds_violates_gradient_lemma(sds01):
    # the two-horizon family sits outside the lemma's hypotheses
    pts = CF.sample_points_off_extremum(sds01, 100)
    ws = [CF.to_conformal(sds01, x).W for x in pts]
    assert max(ws) > 1.0


def test_extremum_band_refused(sds01):
    r0 = sds01.extremum.location
    with pytest.raises(ValueError):
        CF.to_conformal(sds01, r0)


def test_conformal_state_vs_up_integrand_consistency(ds3):
    # |grad phi|^2 = |Du|^2/(1-u^2) pointwise
    for r in (0.2, 0.6, 0.9):
        st = ds3.radial_state(r)
        got = CF.to_conformal(ds3, r).W
        assert got == pytest.approx(st.du ** 2 / (1 - st.u ** 2), rel=1e-13)
