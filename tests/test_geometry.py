import dataclasses
import math

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
    quadrature,
    schwarzschild_de_sitter,
    static_residual,
    to_arclength,
    unit_sphere_area,
    warped_curvature,
)
from staticlab.quadrature import adaptive

from oracles import (arclength_reference, hemisphere_in_arclength,
                     numeric_curvature, sds_horizon_data, surface_gravity)

np = pytest.importorskip("numpy")


def make_arclength_triple(n, h_fn, u_fn, domain):
    """Bare triple for curvature evaluation (not necessarily a solution)."""
    return StaticTriple(
        n=n, lambda_sign=+1,
        u=RadialProfile(domain, u_fn), h=RadialProfile(domain, h_fn), f=None,
        boundaries=(), extremum=Extremum(location=domain[0], count=1))


def curvature(sp, key):
    """A curvature entry of the record; "scalar" is the trace of Ric."""
    if key == "scalar":
        return sp.ric_rr + (sp.n - 1) * sp.ric_tan
    return getattr(sp, key)


def test_unit_sphere_area_values():
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_chart_and_euler_characteristic_are_derived(all_models):
    from staticlab import odegen
    from staticlab.inequalities import n3_uniqueness_inequality
    shot = odegen.shoot_from_horizon(odegen.HorizonData(3, +1, 0.3, 1.0))
    for tr in (*all_models, shot):
        # an areal triple has h = r, so it keeps no h profile
        assert (tr.h is None) == (tr.f is not None), tr.name
        # each horizon of an n = 3 triple is an S^2, of chi = 2
        if tr.boundaries:
            assert n3_uniqueness_inequality(tr).rhs == pytest.approx(
                2 * sum(c.surface_gravity for c in tr.boundaries),
                rel=1e-15), tr.name
    # the chart follows f: areal exactly where the metric function is set
    assert [tr.chart for tr in all_models] == ["areal"] * 3 + ["arclength"]
    assert shot.chart == "arclength"


def _quintic(x):
    c = (0.3, -1.2, 0.7, 2.1, -0.4, 0.9)
    return (sum(ck * x ** k for k, ck in enumerate(c)),
            sum(k * ck * x ** (k - 1) for k, ck in enumerate(c) if k),
            sum(k * (k - 1) * ck * x ** (k - 2) for k, ck in enumerate(c) if k > 1))


def _wave(x):
    return math.sin(3.0 * x), 3.0 * math.cos(3.0 * x), -9.0 * math.sin(3.0 * x)


def _hermite_through(fn, count, seed):
    # random knots on [-1, 1], at least 0.4 / count apart
    rng = np.random.default_rng(seed)
    xs = (-1.0 + 2.0 * (np.arange(count) + 0.8 * rng.random(count))
          / count).tolist()
    ys, d1s, d2s = (list(col) for col in zip(*map(fn, xs)))
    return xs, ys, RadialProfile.hermite(xs, ys, d1s, d2s)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermite_reproduces_a_quintic(seed):
    # each piece is the quintic through its two knots' value, slope and
    # curvature, so a quintic comes back to rounding; the k-th derivative
    # divides that by about step^k (steps here >= 0.01; measured on seeds
    # 0-5: 7.8e-16, 1.6e-14 and 1.9e-12 relative)
    xs, ys, prof = _hermite_through(_quintic, 40, seed)
    assert prof.domain == (xs[0], xs[-1])
    assert [prof.value(x) for x in xs[:-1]] == ys[:-1]
    for x in np.linspace(xs[0], xs[-1], 301).tolist():
        for got, want, tol in zip(prof(x), _quintic(x), (1e-14, 1e-13, 1e-11)):
            assert got == pytest.approx(want, rel=tol, abs=tol)


def test_hermite_pieces_join_with_two_derivatives():
    # approached from the left, each interior knot is the end of the piece
    # before it: value, slope and curvature agree with the piece after it
    # (measured on seeds 0-5: 3.3e-16, 1.1e-15 and 9.8e-15; 5.1e-15 here)
    xs, _, prof = _hermite_through(_wave, 40, 3)
    for x in xs[1:-1]:
        left, right = prof(math.nextafter(x, -math.inf)), prof(x)
        for a, b in zip(left, right):
            assert a == pytest.approx(b, rel=1e-14, abs=1e-14)


def test_branches_are_derived_once_and_not_on_failure(sds01, monkeypatch):
    # one record per monotone branch, on the first read of a triple only;
    # nothing is kept when the derivation raises, so a later read retries
    calls, want = [], sds01.branches()
    radial_state = StaticTriple.radial_state

    def counted_state(self, x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("refused")
        return radial_state(self, x)

    monkeypatch.setattr(StaticTriple, "radial_state", counted_state)
    tr = dataclasses.replace(sds01)  # starts afresh
    with pytest.raises(ValueError, match="refused"):
        tr.branches()
    assert "_branches" not in vars(tr) and len(calls) == 1
    assert tr.branches() == want and len(calls) == 3
    assert tr.branches() == want and len(calls) == 3
    assert vars(tr)["_branches"] == want


def test_round_sphere_slice_curvature():
    # unit round sphere: h = sin(rho), Ric = (n-1) g
    tr = make_arclength_triple(
        3, lambda r: (math.sin(r), math.cos(r), -math.sin(r)),
        lambda r: (1.0, 0.0, 0.0), (0.0, math.pi))
    c = warped_curvature(tr, 1.0)
    assert c.ric_rr == pytest.approx(2.0, abs=1e-12)
    assert c.ric_tan == pytest.approx(2.0, abs=1e-12)
    assert curvature(c, "scalar") == pytest.approx(6.0, abs=1e-12)


def test_flat_slice_curvature():
    tr = make_arclength_triple(3, lambda r: (r, 1.0, 0.0),
                               lambda r: (1.0, 0.0, 0.0), (0.0, 10.0))
    c = warped_curvature(tr, 2.0)
    assert abs(c.ric_rr) < 1e-14 and abs(c.ric_tan) < 1e-14
    assert abs(curvature(c, "scalar")) < 1e-14


def test_cylinder_curvature():
    tr = make_arclength_triple(3, lambda r: (1.0, 0.0, 0.0),
                               lambda r: (1.0, 0.0, 0.0), (0.0, 10.0))
    c = warped_curvature(tr, 1.0)
    assert c.ric_rr == pytest.approx(0.0, abs=1e-14)
    assert c.ric_tan == pytest.approx(1.0, abs=1e-14)


def test_curvature_data_internal_relations(sds01):
    for x in sds01.interior_points(20):
        c = warped_curvature(sds01, x)
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
            assert curvature(got, key) == pytest.approx(
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
            assert curvature(got, key) == pytest.approx(
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
    def u_pert(rho):
        return math.cos(rho) + 0.01, -math.sin(rho), -math.cos(rho)

    bad = hemisphere_in_arclength(ds3, u_pert)  # r = 0.5 at rho = asin(0.5)
    tensor, laplace = static_residual(bad, math.asin(0.5))
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
                    "lap_u", "hess_u_norm2"):
            a, b = curvature(c1, key), curvature(c2, key)
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
    """to_arclength's rho on its grid: its interpolant returns the sampled
    value at every knot but the last, where the converted domain ends."""
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

    monkeypatch.setattr(quadrature, "adaptive", spy)
    to_arclength(sds01, samples=100)
    r_grid, seg, _ = arclength_reference(sds01, 100)
    assert len(refined) == 6
    assert refined == {r: v for r, v in zip(r_grid[:-1], seg) if r in refined}


def _areal(f_fn, domain=(0.0, 1.0)):
    return StaticTriple(
        n=3, lambda_sign=+1,
        u=RadialProfile(domain, lambda r: (1.0, 0.0, 0.0)), h=None,
        f=RadialProfile(domain, f_fn), boundaries=(),
        extremum=Extremum(location=domain[0], count=1))


@pytest.mark.parametrize("f_fn", [
    lambda r: (0.5 - r, -1.0, 0.0),                        # negative past 0.5
    lambda r: (np.where(r > 0.7, np.nan, 1.0), 0.0, 0.0),  # NaN past 0.7
])
def test_arclength_refuses_a_bad_metric_function(f_fn):
    with pytest.raises(ValueError, match="metric function"):
        to_arclength(_areal(f_fn), samples=50)


def test_arclength_refuses_a_bad_node_of_a_refinement(monkeypatch):
    # f is positive at every node of the first panels and negative within
    # 1e-4 of r = 0.4237, where only `adaptive`, node by node, reaches
    refined = []

    def spy(f, a, b, config):
        refined.append(a)
        return adaptive(f, a, b, config)

    monkeypatch.setattr(quadrature, "adaptive", spy)
    with pytest.raises(ValueError, match="metric function not positive"):
        to_arclength(_areal(lambda r: (100.0 * abs(r - 0.4237) - 0.01,
                                       0.0, 0.0)), samples=50)
    assert refined


@pytest.mark.parametrize("samples", [200, 8000])
def test_arclength_reads_u_only_at_its_check_points(sds01, samples):
    # the converted state comes from one array call of f; a scalar u loop
    # over the grid would read u.fn `samples` times
    calls = []

    def counted(r):
        calls.append(r)
        return sds01.u.fn(r)

    tr = dataclasses.replace(sds01, u=dataclasses.replace(sds01.u, fn=counted))
    to_arclength(tr, samples=samples)
    assert len(calls) == 3


def test_arclength_refuses_a_u_that_is_not_c_sqrt_f():
    # u = 1 against sqrt(2 - r): f is positive, so only the u check refuses
    with pytest.raises(ValueError, match=r"u is not normalization_factor"
                                         r"\*sqrt\(f\) at x=0\.\d+"):
        to_arclength(_areal(lambda r: (2.0 - r, -1.0, 0.0)), samples=50)


@pytest.mark.parametrize("make, asin, tol", [
    # parent and this version both measured 1.6e-15, 1.1e-11 and 1.5e-6
    (de_sitter, math.asin, (1e-14, 1e-10, 1e-5)),
    # both measured 1.2e-14, 1.2e-11 and 1.3e-6
    (anti_de_sitter, math.asinh, (1e-13, 1e-10, 1e-5)),
])
@pytest.mark.parametrize("n", [3, 4])
def test_converted_round_models_match_closed_forms(make, asin, tol, n):
    """u, u' and u'' of the conversion against cos or cosh(rho + rho_a),
    rho_a the arclength from the centre to where the grid starts; errors
    relative to max(1, |exact|)."""
    tr = make(n)
    arc, _ = to_arclength(tr)
    lo, hi = tr.domain
    rho_a = asin(lo + geometry.ARCLENGTH_MARGIN * (hi - lo))
    xs = np.linspace(*arc.domain, 3003)[1:-1]
    got = np.array([arc.u(x) for x in xs.tolist()])
    if make is de_sitter:
        want = np.stack([np.cos(xs + rho_a), -np.sin(xs + rho_a),
                         -np.cos(xs + rho_a)], axis=1)
    else:
        want = np.stack([np.cosh(xs + rho_a), np.sinh(xs + rho_a),
                         np.cosh(xs + rho_a)], axis=1)
    err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), axis=0)
    assert np.all(err <= tol), err
