import math
from bisect import bisect_left

import pytest

from staticlab import SdSParams, schwarzschild_de_sitter, static_residual
from staticlab import odegen as OG
from staticlab.geometry import linspace
from staticlab.report import Refused

from extremes import shot_argvs
from oracles import arclength_from_horizon


def test_reduce_system_validates():
    for n in (2, 439):
        with pytest.raises(ValueError, match="dimension must be from 3"):
            OG.reduce_system(n, +1)
    OG.reduce_system(438, +1)
    with pytest.raises(ValueError):
        OG.reduce_system(3, 0)


def test_reduction_on_hemisphere_closed_form():
    """(h, h', u, u') = (sin, cos, cos, -sin) satisfies the reduction."""
    system = OG.reduce_system(3, +1)
    for rho in (0.3, 0.8, 1.2):
        y = (math.sin(rho), math.cos(rho), math.cos(rho), -math.sin(rho))
        d2h, d2u = system.second_derivatives(*y)
        assert d2h == pytest.approx(-math.sin(rho), abs=1e-13)
        assert d2u == pytest.approx(-math.cos(rho), abs=1e-13)
        assert system.monitor(y) == pytest.approx(0.0, abs=1e-13)


def test_reduction_constant_warp_forces_product_radius():
    """h' = 0 propagates only at h^2 = (n-2)/n, the product-solution radius."""
    for n in (3, 4, 5):
        system = OG.reduce_system(n, +1)
        h0 = math.sqrt((n - 2) / n)
        d2h, _ = system.second_derivatives(h0, 0.0, 0.5, 0.3)
        assert d2h == pytest.approx(0.0, abs=1e-13)
        d2h, _ = system.second_derivatives(1.1 * h0, 0.0, 0.5, 0.3)
        assert abs(d2h) > 1e-3


def test_reduction_flat_limit_is_schwarzschild():
    """Dropping the constant term reproduces the mass-only reduction:
    u = sqrt(1 - 2m/r), h = r in arclength variables satisfy it."""
    n, m = 3, 0.2

    def state(r):
        f = 1.0 - 2.0 * m / r
        u = math.sqrt(f)
        fp = 2.0 * m / r ** 2
        return r, math.sqrt(f), u, fp / 2.0

    for r in (0.9, 1.5, 3.0):
        h, dh, u, du = state(r)
        # the reduction with the constant-curvature term deleted
        d2h = (-(n - 2) * (dh * dh - 1.0) - h * dh * du / u) / h
        d2u = -(n - 1) * u * d2h / h
        # arclength second derivatives of the closed form: d2h = f'/2,
        # d2u = f u_rr + f' u_r / 2
        f = 1.0 - 2.0 * m / r
        fp = 2.0 * m / r ** 2
        fpp = -4.0 * m / r ** 3
        u_r = fp / (2.0 * math.sqrt(f))
        u_rr = (2 * f * fpp - fp * fp) / (4.0 * f ** 1.5)
        assert d2h == pytest.approx(fp / 2.0, rel=1e-12)
        assert d2u == pytest.approx(f * u_rr + fp * u_r / 2.0, rel=1e-12)


def test_horizon_data_validation():
    for n in (2, 439):
        with pytest.raises(ValueError, match="dimension must be from 3"):
            OG.HorizonData(n, +1, 1.0, 1.0)
    with pytest.raises(ValueError):
        OG.HorizonData(3, +1, -1.0, 1.0)
    with pytest.raises(ValueError):
        OG.HorizonData(3, +1, 1.0, 0.0)
    with pytest.raises(ValueError):
        OG.shoot_from_horizon(OG.HorizonData(3, -1, 1.0, 1.0))
    # a series start SERIES_HANDOFF h0 not below MAX_ARCLENGTH is refused
    # by name before the series is read, which overflows from h0 ~ 6e105
    for h0 in (2.1e4, 1e120, 1.4e154, 1e300):
        with pytest.raises(ValueError, match=r"^h0=.* is too large to shoot: "
                                             r"from h0 = 20000 "):
            OG.shoot_from_horizon(OG.HorizonData(3, +1, h0, 1.0))


def test_series_coefficients_match_models():
    # hemisphere: h''(0) = -1, u'''(0) = -kappa
    d2h0, d3u0 = OG.horizon_series_coefficients(OG.HorizonData(3, +1, 1.0, 1.0))
    assert d2h0 == pytest.approx(-1.0)
    assert d3u0 == pytest.approx(-1.0)
    # product branch: h''(0) = 0
    d2h0, _ = OG.horizon_series_coefficients(
        OG.HorizonData(3, +1, math.sqrt(1 / 3), 0.7))
    assert d2h0 == pytest.approx(0.0, abs=1e-15)


def test_shoot_reproduces_hemisphere():
    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, 1.0, 1.0))
    rhos = linspace(1e-3, tr.domain[1] - 1e-9, 400)
    sup_u = max(abs(tr.u(r)[0] / tr.normalization_factor - math.sin(r))
                for r in rhos)
    sup_h = max(abs(tr.h(r)[0] - math.cos(r)) for r in rhos)
    assert sup_u <= 1e-6
    assert sup_h <= 1e-6
    assert tr.extremum.discrete and tr.extremum.count == 1
    assert len(tr.boundaries) == 1


def test_shoot_reproduces_two_horizon_family(sds01):
    m = 0.1
    r1 = sds01.domain[0]

    def f(r):
        return 1.0 - r * r - 2.0 * m / r

    def fp(r):
        return -2.0 * r + 2.0 * m / r ** 2

    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, r1, fp(r1) / 2.0))
    # profiles against the closed form, matched through the arclength map
    sup_u = sup_h = 0.0
    for r in linspace(r1 + 0.005, sds01.domain[1] - 0.005, 80):
        rho = arclength_from_horizon(f, fp, r1, r)
        sup_u = max(sup_u, abs(tr.u(rho)[0] / tr.normalization_factor
                               - math.sqrt(f(r))))
        sup_h = max(sup_h, abs(tr.h(rho)[0] - r))
    assert sup_u <= 1e-6
    assert sup_h <= 1e-6
    # horizon bookkeeping
    assert len(tr.boundaries) == 2
    inner, outer = tr.boundaries
    exact = sorted(sds01.boundaries, key=lambda b: b.location)
    assert outer.sphere_radius == pytest.approx(exact[1].sphere_radius,
                                                abs=1e-8)
    # normalised gravities match the closed-form family
    assert inner.surface_gravity == pytest.approx(
        exact[0].surface_gravity, rel=1e-7)
    assert outer.surface_gravity == pytest.approx(
        exact[1].surface_gravity, rel=1e-7)
    # extremal sphere flagged non-discrete at the right radius
    assert not tr.extremum.discrete
    assert tr.h(tr.extremum.location)[0] == pytest.approx(
        sds01.extremum.location, abs=1e-8)


def test_shoot_constant_warp_branch():
    h0 = math.sqrt(1 / 3)
    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, h0, 0.7))
    rhos = linspace(1e-3, tr.domain[1] - 1e-6, 300)
    assert max(abs(tr.h(r)[0] - h0) for r in rhos) <= 1e-8
    assert tr.domain[1] == pytest.approx(math.pi / math.sqrt(3), abs=1e-6)


def test_monitor_stays_small():
    system = OG.reduce_system(3, +1)
    for h0, kappa in ((1.0, 1.0), (0.209148848441317, 2.07691862546),
                      (math.sqrt(1 / 3), 0.7)):
        tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, h0, kappa))
        assert OG.monitor_drift(tr, system) <= 1e-8, (h0, kappa)


def test_shot_triple_passes_field_equations():
    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, 1.0, 1.0))
    worst = max(max(static_residual(tr, x)) for x in tr.interior_points(100))
    assert worst <= 1e-6


def test_integrate_stops_after_max_steps(monkeypatch):
    """Every Dormand-Prince step tried counts against MAX_STEPS, a rejected
    one too, so an error estimate that keeps rejecting steps fails the shot
    instead of hanging it."""
    data = OG.HorizonData(3, +1, 0.5, 1.0)  # 24 of its 280 tries rejected
    tried = []
    step = OG._dopri_step

    def counted(*args):
        tried.append(None)
        return step(*args)

    monkeypatch.setattr(OG, "_dopri_step", counted)
    OG.shoot_from_horizon(data)
    count = len(tried)
    assert 0 < count <= OG.MAX_STEPS // 10
    monkeypatch.setattr(OG, "MAX_STEPS", count)
    OG.shoot_from_horizon(data)
    monkeypatch.setattr(OG, "MAX_STEPS", count - 1)
    with pytest.raises(RuntimeError, match=f"integration failed: "
                                           f"{count - 1} steps tried"):
        OG.shoot_from_horizon(data)


def test_integrate_refuses_a_start_that_is_not_finite(monkeypatch):
    def step(*args):  # the start is refused before any step is tried
        raise AssertionError("a step was tried from a start not finite")

    monkeypatch.setattr(OG, "_dopri_step", step)
    system = OG.reduce_system(3, +1)
    for y0 in ((1.0, 0.0, math.nan, 1.0), (1.0, 0.0, 0.5, math.inf)):
        with pytest.raises(Refused, match="the start state or first "
                                          "step is not finite"):
            OG.integrate(system.rhs, 1e-3, y0, 1.0, ())


def test_integrate_floors_the_first_step_of_a_constant_solution():
    # y' = 0 along the whole first trial step, so the starting step is the
    # floor of 1e-6, not 1e-3 of the trial step (1e-9)
    sol, end, _ = OG.integrate(lambda t, y: (0.0,) * 4, 0.0, (1.0,) * 4,
                               1.0, ())
    assert sol.steps[0][1] == 1e-6
    assert end == 1.0
    assert sol(0.5) == (1.0,) * 4


def test_a_step_that_divides_by_zero_is_rejected():
    """A stage that divides by zero (the reduction meeting h or u at 0)
    rejects its step as an infinite error estimate would, shrinking it
    fivefold, and the integration goes on."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) == 3:  # the first stage of the first step tried
            raise ZeroDivisionError("float division by zero")
        return (0.0,) * 4

    sol, end, _ = OG.integrate(rhs, 0.0, (1.0,) * 4, 1.0, ())
    assert sol.steps[0][1] == 1e-6 * OG.MIN_FACTOR
    assert end == 1.0
    # two calls start the integration, the rejected step made one, and
    # each accepted step six
    assert len(calls) == 3 + 6 * len(sol.steps)


def test_a_shot_ends_at_a_second_horizon_or_a_smooth_pole():
    """Each static solution that a shot from a horizon builds is locally
    de Sitter, SdS or Nariai, so a shot that returns ends at a second
    horizon, with u' changing sign at a non-discrete extremal sphere
    inside, or at a smooth pole, which is its extremum; any other shot is
    refused."""
    ends = []
    for argv in shot_argvs():
        n, h0 = int(argv[2]), float(argv[4])
        try:
            tr = OG.shoot_from_horizon(OG.HorizonData(n, +1, h0, 1.0))
        except Refused:
            ends.append("refused")
            continue
        lo, hi = tr.domain
        rho = tr.extremum.location
        if len(tr.boundaries) == 2:
            ends.append("second horizon")
            assert tr.boundaries[1].location == hi
            assert tr.extremum.count is None and lo < rho < hi, (n, h0)
            step = 1e-4 * (hi - lo)
            assert tr.u(rho - step)[1] > 0.0 > tr.u(rho + step)[1], (n, h0)
        else:
            ends.append("pole")
            assert len(tr.boundaries) == 1
            assert rho == hi and tr.extremum.count == 1, (n, h0)
            assert abs(tr.h(hi)[1] + 1.0) <= OG.POLE_TOL, (n, h0)
            assert abs(tr.u(hi)[1]) <= OG.POLE_TOL, (n, h0)
    assert (ends.count("second horizon"), ends.count("pole"),
            ends.count("refused")) == (22, 1, 25)


def test_shooting_grid_lands_on_known_families():
    """The horizon radius fixes the mass (the gravity parameter is pure
    scaling of u), so every shot lands on the two-horizon family or the
    product branch."""
    for h0, kappa in ((0.3, 0.5), (0.15, 1.2), (0.5, 0.2), (0.3, 2.0)):
        m = h0 * (1.0 - h0 * h0) / 2.0
        tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, h0, kappa))
        sds = schwarzschild_de_sitter(SdSParams(3, m))

        def f(r):
            return 1.0 - r * r - 2.0 * m / r

        def fp(r):
            return -2.0 * r + 2.0 * m / r ** 2

        f0 = f(sds.extremum.location)
        sup = 0.0
        for r in linspace(h0 + 0.02, sds.domain[1] - 0.02, 25):
            rho = arclength_from_horizon(f, fp, h0, r)
            sup = max(sup, abs(tr.u(rho)[0] - math.sqrt(f(r) / f0)))
        assert sup <= 1e-5, (h0, kappa)


SCIPY_SHOTS = ([(3, h0) for h0 in (0.6, 0.7, 0.8, 0.9, 1.0)]
               + [(4, 0.75), (4, 0.8), (4, 0.9), (5, 0.8), (5, 0.9)])


@pytest.mark.parametrize("n, h0", SCIPY_SHOTS)
def test_shot_matches_scipy_rk45(monkeypatch, n, h0):
    """The package's Dormand-Prince integrator against scipy's RK45 with the
    same start, tolerances and events: the same shot, packaged by the same
    code, agrees at 201 interior points, at the domain end and in the
    gravities and the normalisation."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def scipy_integrate(rhs, t0, y0, t_bound, events):
        def event(component, level, terminal):
            def g(t, y):
                return y[component] - level
            g.terminal, g.direction = terminal, -1.0
            return g

        sol = solve_ivp(rhs, (t0, t_bound), y0, method="RK45",
                        dense_output=True, rtol=OG.RTOL, atol=OG.ATOL,
                        events=[event(*e) for e in events])
        assert sol.success, sol.message
        return (lambda t: tuple(float(v) for v in sol.sol(t)),
                float(sol.t[-1]), [[float(t) for t in ts]
                                   for ts in sol.t_events])

    data = OG.HorizonData(n, +1, h0, 1.0)
    ours = OG.shoot_from_horizon(data)
    monkeypatch.setattr(OG, "integrate", scipy_integrate)
    oracle = OG.shoot_from_horizon(data)

    assert len(ours.boundaries) == len(oracle.boundaries)
    assert ours.extremum.discrete == oracle.extremum.discrete
    bound = 1e-10
    assert abs(ours.domain[1] - oracle.domain[1]) <= bound
    assert abs(ours.normalization_factor
               - oracle.normalization_factor) <= bound
    for a, b in zip(ours.boundaries, oracle.boundaries):
        assert abs(a.surface_gravity - b.surface_gravity) <= bound
        assert abs(a.sphere_radius - b.sphere_radius) <= bound
    for rho in ours.interior_points(201):
        got = ours.h(rho)[:2] + ours.u(rho)[:2]
        want = oracle.h(rho)[:2] + oracle.u(rho)[:2]
        assert max(abs(g - w) for g, w in zip(got, want)) <= bound, rho


# repr of (domain, boundaries, extremum, normalization_factor,
# monitor_drift) of the five reconstruct-workload shots, n = 3, kappa = 1
RECONSTRUCT_SHOTS = {
    0.6: (
        '((0.0, 1.8135634295323229), (BoundaryComponent(location=0.0, '
        'sphere_radius=0.6, surface_gravity=1.68802612804574), '
        'BoundaryComponent(location=1.8135634295323229, '
        'sphere_radius=0.5544003745317797, '
        'surface_gravity=1.7793837261085894)), '
        'Extremum(location=0.9219912572549399, count=None), '
        '1.68802612804574, 1.2500001034254637e-12)'),
    0.7: (
        '((0.0, 1.806227022517338), (BoundaryComponent(location=0.0, '
        'sphere_radius=0.7, surface_gravity=1.5177182113627063), '
        'BoundaryComponent(location=1.806227022517338, '
        'sphere_radius=0.44529868602893924, '
        'surface_gravity=2.0565125293523727)), '
        'Extremum(location=0.9897539686497171, count=None), '
        '1.5177182113627063, 2.94588242688576e-11)'),
    0.8: (
        '((0.0, 1.784819903906891), (BoundaryComponent(location=0.0, '
        'sphere_radius=0.8, surface_gravity=1.3713594791051513), '
        'BoundaryComponent(location=1.784819903906891, '
        'sphere_radius=0.32111025509248614, '
        'surface_gravity=2.5648767533891483)), '
        'Extremum(location=1.0647285033128902, count=None), '
        '1.3713594791051513, 4.9640513921644924e-11)'),
    0.9: (
        '((0.0, 1.7356337550748377), (BoundaryComponent(location=0.0, '
        'sphere_radius=0.9, surface_gravity=1.2291298168869769), '
        'BoundaryComponent(location=1.7356337550748377, '
        'sphere_radius=0.17649820430760782, '
        'surface_gravity=3.973318454949691)), '
        'Extremum(location=1.1628694462024358, count=None), '
        '1.2291298168869769, 9.13111808387157e-11)'),
    1.0: (
        '((0.0, 1.5706963268027625), (BoundaryComponent(location=0.0, '
        'sphere_radius=1.0, surface_gravity=1.000000014255343),), '
        'Extremum(location=1.5706963268027625, count=1), 1.000000014255343,'
        ' 4.0613304386205584e-11)'),
}


@pytest.mark.parametrize("h0", sorted(RECONSTRUCT_SHOTS))
def test_reconstruct_shots_keep_their_bits(h0):
    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, h0, 1.0))
    drift = OG.monitor_drift(tr, OG.reduce_system(3, +1))
    assert repr((tr.domain, tr.boundaries, tr.extremum,
                 tr.normalization_factor, drift)) == RECONSTRUCT_SHOTS[h0]


def test_profile_reads_in_any_order_keep_their_bits():
    """u and h share the evaluation of the point read last: each read, in
    any order, gives the tuple a fresh shot gives."""
    data = OG.HorizonData(3, +1, 0.8, 1.0)
    a, b, c = 0.3, 1.1, 4e-4  # c is on the horizon series, up to 8e-4

    def fresh(which, rho):
        return repr(getattr(OG.shoot_from_horizon(data), which)(rho))

    orders = ([("u", a), ("h", a)], [("h", b), ("u", b)],
              [("u", a), ("u", a), ("h", a), ("h", a)],
              [("u", a), ("h", b), ("u", a), ("h", b), ("u", c), ("h", a)],
              [("h", c), ("u", c), ("u", b), ("h", c)])
    want = {read: fresh(*read) for order in orders for read in order}
    for order in orders:
        tr = OG.shoot_from_horizon(data)
        got = [repr(getattr(tr, which)(rho)) for which, rho in order]
        assert got == [want[read] for read in order], order


def test_quartics_are_built_for_the_steps_read(monkeypatch):
    """After a shot and its drift, the dense output holds the quartics of
    the steps a point was read in and of the steps an event crossed in, and
    of no other step."""
    sols, crossed, read = [], [], []
    integrate, crossing = OG.integrate, OG._crossing
    call = OG.DenseSolution.__call__

    def kept(*args):
        sols.append(integrate(*args))
        return sols[-1]

    def located(piece, *args):
        crossed.append(piece[0])
        return crossing(piece, *args)

    def reading(sol, t):
        read.append(t)
        return call(sol, t)

    monkeypatch.setattr(OG, "integrate", kept)
    monkeypatch.setattr(OG, "_crossing", located)
    monkeypatch.setattr(OG.DenseSolution, "__call__", reading)
    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, 0.8, 1.0))
    OG.monitor_drift(tr, OG.reduce_system(3, +1))
    ((sol, _, _),) = sols
    last = len(sol.steps) - 1
    want = ({min(max(bisect_left(sol.starts, t) - 1, 0), last) for t in read}
            | {sol.starts.index(t0) for t0 in crossed})
    built = {i for i, piece in enumerate(sol.pieces) if piece is not None}
    assert crossed and built == want
    assert len(built) < len(sol.steps)
    assert all(sol.pieces[i] == OG._quartic(*sol.steps[i]) for i in built)
