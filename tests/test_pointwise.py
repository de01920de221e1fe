"""The pointwise record: one profile evaluation per radial point, and the
quantities that are singular at the extremal sphere derived only on demand."""

import dataclasses
import gc
import math
import weakref

import pytest

from staticlab import (SdSParams, admissible_mass_bound, anti_de_sitter,
                       de_sitter, schwarzschild_de_sitter)
from staticlab import conformal
from staticlab import identities as ID
from staticlab import levelset as LS
from staticlab.conformal import EXTREMUM_BAND
from staticlab.geometry import (SphereData, StaticTriple, static_residual,
                                warped_curvature)
from staticlab.inequalities import lp_gradient_bound
from staticlab.levelset import sphere_data

from oracles import s_of_t


DICTIONARY = ("H_g", "hess_phi_norm2", "lap_phi", "gamma", "scalar_g")
CURVATURE = ("ric_rr", "ric_tan", "hess_u_rr", "hess_u_tan", "lap_u",
             "hess_u_norm2")


def _counting(tr, which):
    """`tr` with its `which` profile ("u" or "f") counting its calls."""
    calls = [0]
    prof = getattr(tr, which)
    fn = prof.fn

    def counted(x):
        calls[0] += 1
        return fn(x)

    return dataclasses.replace(
        tr, **{which: dataclasses.replace(prof, fn=counted)}), calls


def test_sphere_data_evaluates_the_profile_once(all_models):
    # u in the arclength chart; an areal record reads f alone (below)
    for tr in all_models:
        tr, calls = _counting(tr, "u" if tr.f is None else "f")
        lo, hi = tr.domain
        x = lo + 0.3 * (hi - lo)
        sp = sphere_data(tr, x)
        read = (sp.u, sp.grad_u, sp.area, sp.D, sp.area_g, sp.W, sp.H,
                sp.hess_phi_nn, *(getattr(sp, e) for e in DICTIONARY),
                *(getattr(sp, c) for c in CURVATURE))
        assert all(math.isfinite(v) for v in read), tr.name
        assert calls[0] == 1, tr.name


def test_an_areal_record_reads_f_once():
    # u = c sqrt(f) is derived from f in one place, for the record and for
    # the `u` profile that level location reads alike: the two agree bit for
    # bit, and a record evaluates f once and u never
    for tr in (de_sitter(3), anti_de_sitter(3),
               schwarzschild_de_sitter(SdSParams(n=3, m=0.1)),
               schwarzschild_de_sitter(SdSParams(n=4, m=0.05))):
        points = tr.interior_points(50)
        assert [tr.u.fn(x)[0] for x in points] == \
            [sphere_data(tr, x).u for x in points], tr.name
        counted, f_calls = _counting(tr, "f")
        counted, u_calls = _counting(counted, "u")
        for x in points:
            sphere_data(counted, x)
        assert (f_calls[0], u_calls[0]) == (len(points), 0), tr.name


def test_radial_state_is_the_record(all_models):
    # one object per radial point: the state is the record itself
    for tr in all_models:
        for x in tr.interior_points(5):
            sp, ref = tr.radial_state(x), sphere_data(tr, x)
            assert isinstance(sp, SphereData), tr.name
            assert [getattr(sp, f.name) for f in dataclasses.fields(sp)] == \
                [getattr(ref, f.name) for f in dataclasses.fields(ref)], \
                tr.name


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


def slab_identities(s, big_s):
    """The four slab identities of the identities suite on {s < phi < S}:
    the first at p = 1 and 3, the second at p = 3 and 5."""
    return {
        "first1": lambda tr, br: ID.first_identity(tr, 1, s, big_s, br),
        "first3": lambda tr, br: ID.first_identity(tr, 3, s, big_s, br),
        "second3": lambda tr, br: ID.second_identity(tr, 3, s, big_s, br),
        "second5": lambda tr, br: ID.second_identity(tr, 5, s, big_s, br),
    }


def _branch(tr):
    return "outer" if len(tr.branches()) == 2 else None


@pytest.mark.parametrize("lead", ["first", "second", "deficit"])
def test_quadrature_node_builds_one_radial_state(all_models, lead,
                                                 monkeypatch):
    # the four slab identities on one slab build one record per node among
    # them: in the suite's order (the first identity leading) the first
    # integration builds them all; a different slab replaces them.  The
    # deficit identity reads no table and builds one per node.
    calls = [0]
    runs = []  # (node, records built there), one list per identity
    radial_state = StaticTriple.radial_state
    adaptive = ID.adaptive

    def counted_state(self, x):
        calls[0] += 1
        return radial_state(self, x)

    def counted_adaptive(f, a, b, config=None):
        def node(x):
            before = calls[0]
            value = f(x)
            runs[-1].append((x, calls[0] - before))
            return value
        return adaptive(node, a, b, config)

    def built(check, tr, branch):
        runs.append([])
        assert check(tr, branch).status == "pass", tr.name
        assert runs[-1], tr.name
        return {count for _, count in runs[-1]}

    def deficit(tr, _):
        return ID.curvature_deficit_identity(
            tr, 0.3 if tr.lambda_sign > 0 else 2.0)

    monkeypatch.setattr(StaticTriple, "radial_state", counted_state)
    monkeypatch.setattr(ID, "adaptive", counted_adaptive)
    for tr in all_models:
        tr, branch = dataclasses.replace(tr), _branch(tr)
        slab = slab_identities(0.5, 2.5)
        if lead == "deficit":
            for check in slab.values():
                built(check, tr, branch)
            assert built(deficit, tr, branch) == {1}, tr.name
            continue
        order = sorted(slab, key=lambda name: not name.startswith(lead))
        runs.clear()
        assert built(slab[order[0]], tr, branch) == {1}, tr.name
        for name in order[1:]:
            later = built(slab[name], tr, branch)
            if lead == "first":  # the order of the identities suite
                assert later == {0}, (tr.name, name)
        per_node: dict[float, int] = {}
        for x, count in (node for run in runs for node in run):
            per_node[x] = per_node.get(x, 0) + count
        assert set(per_node.values()) == {1}, tr.name
        other = slab_identities(0.3, 1.5)[order[0]]
        assert built(other, tr, branch) == {1}, tr.name
        assert built(slab[order[0]], tr, branch) == {1}, tr.name


def _bits(report):
    return report.lhs.hex(), report.rhs.hex(), report.extra["evaluations"]


def test_slab_reports_keep_their_bits_with_shared_records(all_models):
    # a report reads the same records whether it builds them or finds them
    # in the table, or finds that a different slab replaced them
    for tr in all_models:
        branch = _branch(tr)
        slab = slab_identities(0.5, 2.5)
        for name, check in slab.items():
            others = [c for key, c in slab.items() if key != name]
            alone = _bits(check(dataclasses.replace(tr), branch))
            after, between = dataclasses.replace(tr), dataclasses.replace(tr)
            for other in others:
                other(after, branch)
                other(between, branch)
            slab_identities(0.3, 1.5)[name](between, branch)
            assert _bits(check(after, branch)) == alone, (tr.name, name)
            assert _bits(check(between, branch)) == alone, (tr.name, name)


def test_slab_reports_equal_those_of_a_fresh_triple(all_models):
    # a report that reads its slab's ends, flags and node weights from the
    # table is the report of a fresh triple, on every branch that takes the
    # slab, after a switch to another slab and back, and for "inner" after
    # "outer" on the same triple: the branch is in the key, so "inner"
    # never reads the ends of "outer"
    for tr in all_models:
        fresh = {}

        def alone(slab, name, branch):
            key = slab, name, branch
            if key not in fresh:
                check = slab_identities(*slab)[name]
                fresh[key] = repr(check(dataclasses.replace(tr),
                                        branch).as_dict())
            return fresh[key]

        shared, names = dataclasses.replace(tr), list(slab_identities(0, 0))
        two = len(tr.branches()) == 2
        for branch in ("outer", "inner") if two else (None, "outer", "inner"):
            # the suite's order, another slab, then back in reverse order
            for slab, order in (((0.5, 2.5), names), ((0.3, 1.5), names[:1]),
                                ((0.5, 2.5), names[::-1])):
                for name in order:
                    check = slab_identities(*slab)[name]
                    assert repr(check(shared, branch).as_dict()) == \
                        alone(slab, name, branch), (tr.name, branch, name)


def test_triple_with_slab_records_is_freed_by_reference_counts(all_models):
    # a record holds no reference to its triple, so triple -> table ->
    # record is no cycle: the triple and its views die with their last name
    enabled = gc.isenabled()
    gc.disable()
    try:
        for tr in all_models:
            tr, branch = dataclasses.replace(tr), _branch(tr)
            view = tr.on_branch(branch or "outer")
            for check in slab_identities(0.5, 2.5).values():
                check(tr, branch)
                check(view, None)
            refs = weakref.ref(tr), weakref.ref(view)
            del tr, view
            assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


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


def test_areal_jacobian_refuses_nonpositive_f(sds01, nariai3):
    # the record carries d(rho)/dx, set where it is built: 1/sqrt(f) in the
    # areal chart, 1 in the arclength chart; an areal record is refused
    # where f is not positive or is NaN
    x = sds01.interior_points(3)[1]
    sp = sds01.radial_state(x)
    assert sp.arclength_jacobian == 1.0 / math.sqrt(sds01.f(x)[0])
    rho = nariai3.interior_points(3)[0]
    assert nariai3.radial_state(rho).arclength_jacobian == 1.0
    for fval in (0.0, -1e-300, math.nan):
        bad = dataclasses.replace(sds01, f=dataclasses.replace(
            sds01.f, fn=lambda r, fval=fval: (fval, *sds01.f(r)[1:])))
        with pytest.raises(ValueError, match="metric function not positive"):
            bad.radial_state(x)


def test_a_record_is_refused_where_f_rounds_to_zero():
    # the first float inside the inner horizon at 0.999 of the mass bound,
    # where f reads 0.0: u and u' would read 0 and u'' about 8e98
    m = 0.999 * admissible_mass_bound(3)
    tr, x = schwarzschild_de_sitter(SdSParams(3, m)), 0.5623782995114497
    assert tr.domain[0] < x and tr.f(x)[0] == 0.0
    with pytest.raises(ValueError, match="metric function not positive"):
        sphere_data(tr, x)


def test_singular_quantities_are_lazy(nariai3):
    # the deficit integrand reaches the extremal sphere u = 1, where the
    # record still builds; the conformal dictionary is computed only when
    # read, and refuses there
    sp = sphere_data(nariai3, nariai3.extremum.location)
    assert sp.u == pytest.approx(1.0, abs=1e-15)
    assert math.isfinite(sp.area) and math.isfinite(sp.hess_u_norm2)
    with pytest.raises(ValueError, match="excluded band"):
        sp.H_g


def test_a_record_holds_no_memo(sds01):
    # every entry is computed from the ten state fields on each read: a
    # second read gives the same bits, and nothing is kept on the record,
    # neither by its entries nor by the conformal residuals that read it
    sp = sphere_data(sds01, sds01.interior_points(5)[1])
    entries = [name for name, attr in vars(SphereData).items()
               if isinstance(attr, property)]
    first = [getattr(sp, name) for name in entries]
    second = [getattr(sp, name) for name in entries]
    assert repr(second) == repr(first)  # floats repr to their bits
    for residual in (conformal.quasi_einstein_residual,
                     conformal.bochner_residual,
                     conformal.w_equation_residual,
                     conformal.trace_identity_residual,
                     conformal.mean_curvature_relations):
        assert math.isfinite(residual(sp))
    assert list(sp.__dict__) == [f.name for f in dataclasses.fields(sp)]
    assert len(sp.__dict__) == 10


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
                 lambda: LS.phi_p(ds3, 3, s_of_t(t)),
                 lambda: LS.phi_p_derivative(ds3, 3, s_of_t(t)),
                 lambda: lp_gradient_bound(ds3, 3, t)):
        with pytest.raises(ValueError, match="excluded band"):
            read()
    # U_p and the first-identity flux stay finite up to the extremal value
    assert math.isfinite(LS.up_value(ds3, 3, t))
    assert math.isfinite(ID._first_flux(3, LS.level_states(ds3, t)))
