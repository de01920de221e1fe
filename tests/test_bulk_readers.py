"""The bulk readers of the pointwise record compute its conformal values
once, from its fields, in one function body each: `conformal._shared`,
which the five conformal residuals read, and the slab terms
`identities._first_terms` and `_second_terms`.

What they repeat inline is the record's property of that name bit for bit,
they refuse as the properties they replaced did, and each keeps its
Python-level calls (`sys.setprofile` "call" events, its own included)
under a ceiling, pinned as `tests/test_counts.py` pins lines:
CALLS_PER_POINT_CEILING for `_shared` and the five residuals at one sample
point, and CALLS_PER_NODE_CEILING for each slab-terms reader at one
quadrature node.  When each reader read the record's properties, they
made 75 calls per sample point, and 10 and 14 per node; now 22, and 5 and
5.  A ceiling rises only with its reason in CHANGES.md.
"""

import sys

import pytest

from staticlab import conformal as CF
from staticlab import identities as ID
from staticlab.geometry import SphereData, check_window
from staticlab.models import by_name
from staticlab.report import Refused

CALLS_PER_POINT_CEILING = 30
CALLS_PER_NODE_CEILING = 5

RESIDUALS = (CF.quasi_einstein_residual, CF.bochner_residual,
             CF.w_equation_residual, CF.trace_identity_residual,
             CF.mean_curvature_relations)


@pytest.fixture(scope="module")
def records():
    """For each (model, n) triple of the benchmark's identities workload at
    seed 0: the triple's view, the records of its conformal sample and the
    records of the quadrature nodes of its slab {0.5 < phi < 2.5}."""
    out = []
    adaptive = ID.adaptive
    for model in ("desitter", "antidesitter", "sds", "nariai"):
        for n in (3, 4, 5):
            tr = by_name(model, n, 0.1 if n == 3 else 0.05)
            branch = "outer" if len(tr.branches()) == 2 else None
            view = tr if branch is None else tr.on_branch(branch)
            nodes = []

            def recording(f, a, b, config):
                def node(x):
                    nodes.append(x)
                    return f(x)
                return adaptive(node, a, b, config)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ID, "adaptive", recording)
                ID.first_identity(tr, 3, 0.5, 2.5, branch)
            assert nodes, tr.name
            out.append((view, CF.sample_points_off_extremum(tr, 50),
                        [CF.sphere_data(view, x) for x in nodes]))
    return out


def bits(*values):
    return [value.hex() for value in values]


def test_inline_copies_are_the_properties_they_name(records):
    # D, W, lap phi and gamma are formed inline next to what the reader
    # shares with them; H_g is read as the property, by the mean-curvature
    # residual alone.  hess phi(nu_g, nu_g) of both slab terms is that of
    # `hess_phi_radial`
    for view, sample, nodes in records:
        for sp in sample:
            shared = CF._shared(sp)
            assert bits(shared[0], shared[1], shared[9]) == \
                bits(sp.D, sp.W, sp.lap_phi), (view.name, sp.x)
        for sp in nodes:
            first, second = ID._first_terms(sp), ID._second_terms(sp)
            radial = CF.hess_phi_radial(view, sp.x)
            assert bits(first[1], first[2], first[3]) == \
                bits(sp.W, radial, sp.lap_phi), (view.name, sp.x)
            assert bits(second[1], second[3], second[4]) == \
                bits(radial, sp.W, sp.gamma), (view.name, sp.x)


def _first_refusal(*reads):
    """The message of the first of `reads` that refuses."""
    for read in reads:
        try:
            read()
        except Refused as exc:
            return str(exc)
    raise AssertionError("no read refused")


@pytest.mark.parametrize("sign, u", [
    (1, 1 + 2 ** -52), (1, 1 - 2 ** -52), (-1, 1 + 2 ** -52),
    (-1, 1 - 2 ** -52), (1, 1.5), (-1, 0.5)])
def test_bulk_readers_refuse_as_the_properties_did(sign, u):
    # u = 1 +- 2^-52 lies in the band, with D <= 0 on the side of 1 that
    # the sign does not take; u = 1.5 and 0.5 give D <= 0 outside it.  Each
    # reader refuses as the properties it replaced, read in their order: the
    # first terms W (D) before lap phi (the band), the second |hess phi|^2
    # (the band, then D), and the quasi-Einstein residual, the suite's
    # first, the band and then D
    sp = SphereData(3, sign, 1.0, 0.5, u, 0.3, -0.2, 0.5, 0.8, -0.5)
    band, d = (lambda: check_window(sp.u)), (lambda: sp.D)
    for reader, reads in ((ID._first_terms, (d, band)),
                          (ID._second_terms, (band, d)),
                          (CF._shared, (band, d))):
        with pytest.raises(Refused) as refused:
            reader(sp)
        assert str(refused.value) == _first_refusal(*reads), reader.__name__


def _calls(fn, *args):
    """The Python-level calls that fn(*args) makes, its own included."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls[0]


def test_calls_per_sample_point_stay_under_the_ceiling(records):
    for view, sample, _ in records:
        for sp in sample:
            shared = CF._shared(sp)
            calls = _calls(CF._shared, sp) + sum(
                _calls(residual, sp, shared) for residual in RESIDUALS)
            assert calls <= CALLS_PER_POINT_CEILING, (view.name, sp.x)


def test_calls_per_slab_node_stay_under_the_ceiling(records):
    for view, _, nodes in records:
        for sp in nodes:
            for terms in (ID._first_terms, ID._second_terms):
                assert _calls(terms, sp) <= CALLS_PER_NODE_CEILING, \
                    (view.name, sp.x, terms.__name__)
