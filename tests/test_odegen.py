import math

import pytest

from staticlab import SdSParams, schwarzschild_de_sitter, static_residual
from staticlab import odegen as OG
from staticlab.geometry import linspace

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
        with pytest.raises(RuntimeError, match="the start state or first "
                                               "step is not finite"):
            OG.integrate(system.rhs, 1e-3, y0, 1.0, ())


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
