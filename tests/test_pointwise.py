"""The pointwise record: one profile evaluation per radial point, and the
quantities that are singular at the extremal sphere derived only on demand."""

import dataclasses
import math

import pytest

from staticlab import identities as ID
from staticlab import levelset as LS
from staticlab.conformal import EXTREMUM_BAND
from staticlab.geometry import (SphereData, StaticTriple, static_residual,
                                warped_curvature)
from staticlab.inequalities import lp_gradient_bound
from staticlab.levelset import sphere_data


DICTIONARY = ("phi", "H_g", "hess_phi_norm2", "lap_phi", "gamma", "scalar_g")
CURVATURE = ("ric_rr", "ric_tan", "scalar", "hess_u_rr", "hess_u_tan", "lap_u",
             "hess_u_norm2", "grad_u_norm2")


def _counting_u(tr):
    calls = [0]
    fn = tr.u.fn

    def counted(x):
        calls[0] += 1
        return fn(x)

    u = dataclasses.replace(tr.u, fn=counted)
    return dataclasses.replace(tr, u=u), calls


def test_sphere_data_evaluates_the_profile_once(all_models):
    for tr in all_models:
        tr, calls = _counting_u(tr)
        lo, hi = tr.domain
        x = lo + 0.3 * (hi - lo)
        sp = sphere_data(tr, x)
        read = (sp.u, sp.grad_u, sp.area, sp.D, sp.area_g, sp.W, sp.H,
                sp.hess_phi_nn, *(getattr(sp, e) for e in DICTIONARY),
                *(getattr(sp, c) for c in CURVATURE))
        assert all(math.isfinite(v) for v in read), tr.name
        assert calls[0] == 1, tr.name


def test_warped_curvature_is_the_record(all_models, monkeypatch):
    calls = [0]
    radial_state = StaticTriple.radial_state

    def counted_state(self, x):
        calls[0] += 1
        return radial_state(self, x)

    for tr in all_models:
        for x in tr.interior_points(5):
            sp = warped_curvature(tr, x)
            assert isinstance(sp, SphereData), tr.name
            ref = sphere_data(tr, x)
            assert [getattr(sp, c) for c in CURVATURE] == \
                [getattr(ref, c) for c in CURVATURE], tr.name
    monkeypatch.setattr(StaticTriple, "radial_state", counted_state)
    for tr in all_models:
        for x in tr.interior_points(5):
            before = calls[0]
            static_residual(tr, x)
            assert calls[0] - before == 1, tr.name


@pytest.mark.parametrize("check", [
    lambda tr, br: ID.first_identity(tr, 3, 0.5, 2.5, br),
    lambda tr, br: ID.second_identity(tr, 3, 0.5, 2.5, br),
    lambda tr, br: ID.curvature_deficit_identity(tr, 0.3 if tr.lambda_sign > 0
                                                 else 2.0),
], ids=["first", "second", "deficit"])
def test_quadrature_node_builds_one_radial_state(all_models, check,
                                                 monkeypatch):
    calls = [0]
    per_node = []
    radial_state = StaticTriple.radial_state
    adaptive = ID.adaptive

    def counted_state(self, x):
        calls[0] += 1
        return radial_state(self, x)

    def counted_adaptive(f, a, b, config=None):
        def node(x):
            before = calls[0]
            value = f(x)
            per_node.append(calls[0] - before)
            return value
        return adaptive(node, a, b, config)

    monkeypatch.setattr(StaticTriple, "radial_state", counted_state)
    monkeypatch.setattr(ID, "adaptive", counted_adaptive)
    for tr in all_models:
        branch = "outer" if len(tr.branches()) == 2 else None
        assert check(tr, branch).status == "pass", tr.name
    assert per_node and set(per_node) == {1}


@pytest.mark.parametrize("check", [
    lambda tr: ID.first_identity(tr, 3, 0.5, 2.5, "outer"),
    lambda tr: ID.second_identity(tr, 3, 0.5, 2.5, "outer"),
    lambda tr: ID.curvature_deficit_identity(tr, 0.3),
], ids=["first", "second", "deficit"])
def test_quadrature_node_evaluates_f_once(sds01, check, monkeypatch):
    # on an areal triple the record's h' = sqrt(f) gives the arclength
    # Jacobian, so a node evaluates the metric function only for its state
    calls = [0]
    fn = sds01.f.fn

    def counted_f(x):
        calls[0] += 1
        return fn(x)

    tr = dataclasses.replace(sds01, f=dataclasses.replace(sds01.f,
                                                          fn=counted_f))
    per_node = []
    adaptive = ID.adaptive

    def counted_adaptive(f, a, b, config):
        def node(x):
            before = calls[0]
            value = f(x)
            per_node.append(calls[0] - before)
            return value
        return adaptive(node, a, b, config)

    monkeypatch.setattr(ID, "adaptive", counted_adaptive)
    assert check(tr).status == "pass"
    assert per_node and set(per_node) == {1}


def test_areal_jacobian_refuses_nonpositive_f(sds01):
    x = sds01.interior_points(3)[1]
    st = sds01.radial_state(x)
    assert SphereData(sds01, x, st).arclength_jacobian == \
        sds01.arclength_jacobian(x)
    for dh in (0.0, math.nan):  # sqrt(max(f, 0)) where f <= 0 or is NaN
        sp = SphereData(sds01, x, dataclasses.replace(st, dh=dh))
        with pytest.raises(ValueError, match="metric function not positive"):
            sp.arclength_jacobian


def test_singular_quantities_are_lazy(nariai3):
    # the deficit integrand reaches the extremal sphere u = 1, where the
    # record still builds; only the conformal dictionary refuses
    sp = sphere_data(nariai3, nariai3.extremum.location)
    assert sp.u == pytest.approx(1.0, abs=1e-15)
    assert math.isfinite(sp.area) and math.isfinite(sp.hess_u_norm2)
    with pytest.raises(ValueError, match="excluded band"):
        sp.phi


@pytest.mark.parametrize("entry", DICTIONARY)
def test_each_dictionary_entry_refuses_the_band(ds3, entry):
    # 1 - u is about 5e-9 here: inside the band, but off u = 1
    sp = sphere_data(ds3, 1e-4)
    assert 0.0 < 1.0 - sp.u < EXTREMUM_BAND
    with pytest.raises(ValueError, match="excluded band"):
        getattr(sp, entry)
    # the first-identity flux reads these up to the extremal value
    assert all(math.isfinite(v) for v in (sp.D, sp.W, sp.area_g))


def test_level_readers_refuse_the_extremal_band(ds3):
    # W = |Du|^2 / |1-u^2| keeps no significant digit within 1e-6 of u = 1
    t = 1.0 - 1e-7
    for read in (lambda: LS.up_derivative(ds3, 3, t),
                 lambda: LS.phi_p(ds3, 3, LS.s_of_t(t)),
                 lambda: LS.phi_p_derivative(ds3, 3, LS.s_of_t(t)),
                 lambda: LS.level_spheres(ds3, t),
                 lambda: lp_gradient_bound(ds3, 3, t)):
        with pytest.raises(ValueError, match="excluded band"):
            read()
    # U_p and the first-identity flux stay finite up to the extremal value
    assert math.isfinite(LS.up_value(ds3, 3, t))
    assert math.isfinite(ID.first_identity_flux(ds3, 3, LS.s_of_t(t)))
