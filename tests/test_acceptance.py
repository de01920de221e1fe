"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
each test also asserts, so the suite is red if any criterion fails.
"""

import math
import time

import numpy as np
import pytest

from staticlab import (
    SdSParams,
    anti_de_sitter,
    de_sitter,
    nariai,
    schwarzschild_de_sitter,
    static_residual,
    unit_sphere_area,
)
from staticlab import identities as ID
from staticlab import inequalities as IQ
from staticlab import levelset as LS
from staticlab import odegen as OG

from oracles import (arclength_from_horizon, composite_simpson,
                     five_point_derivative)

S3_AREA = 4 * math.pi


def report(index: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def test_criterion_1_model_residuals():
    t0 = time.monotonic()
    triples = [de_sitter(3), anti_de_sitter(3),
               schwarzschild_de_sitter(SdSParams(3, 0.05)),
               schwarzschild_de_sitter(SdSParams(3, 0.1)),
               schwarzschild_de_sitter(SdSParams(3, 0.15)),
               nariai(3), nariai(4), nariai(5)]
    worst = 0.0
    for tr in triples:
        for x in tr.interior_points(100):
            worst = max(worst, *static_residual(tr, x))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"field-equation residuals <= 1e-9 on all models "
                  f"(worst {worst:.2e}, {elapsed:.2f}s)")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_constancy_on_round_models():
    t0 = time.monotonic()
    ds, ads = de_sitter(3), anti_de_sitter(3)
    worst = 0.0
    for p in (0, 1, 3, 5):
        for t in np.linspace(0.0, 0.99, 100):
            worst = max(worst, abs(LS.up_value(ds, p, float(t)) / S3_AREA - 1))
        for t in np.linspace(1.01, 10.0, 100):
            worst = max(worst, abs(LS.up_value(ads, p, float(t)) / S3_AREA - 1))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(2, ok, f"level integrals constant on the round models "
                  f"(worst rel dev {worst:.2e}, {elapsed:.2f}s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_3_derivative_consistency():
    t0 = time.monotonic()
    sds = schwarzschild_de_sitter(SdSParams(3, 0.1)).on_branch("outer")
    worst_forms = worst_fd = 0.0
    for t in np.linspace(0.05, 0.9, 50):
        f1, f2, _ = LS.up_derivative(sds, 3, float(t))
        fd = five_point_derivative(lambda tt: LS.up_value(sds, 3, tt),
                                   float(t), 1e-4)
        worst_forms = max(worst_forms, abs(f1 - f2))
        worst_fd = max(worst_fd, abs(f1 - fd), abs(f2 - fd))
    elapsed = time.monotonic() - t0
    ok = worst_forms <= 1e-8 and worst_fd <= 1e-5 and elapsed < 5.0
    report(3, ok, f"derivative forms agree (forms {worst_forms:.2e}, "
                  f"fd {worst_fd:.2e}, {elapsed:.2f}s)")
    assert worst_forms <= 1e-8
    assert worst_fd <= 1e-5
    assert elapsed < 5.0


def test_criterion_4_boundary_second_derivative():
    ds, ads = de_sitter(3), anti_de_sitter(3)
    worst = 0.0
    for p in (3, 4, 5):
        for tr in (ds, ads):
            worst = max(worst,
                        abs(LS.up_second_derivative_at_boundary(tr, p)),
                        abs(LS.up_second_derivative_bound(tr, p)))
    ok = worst <= 1e-8
    report(4, ok, f"boundary second derivative vanishes on the round models "
                  f"(worst {worst:.2e})")
    assert worst <= 1e-8


def test_criterion_5_integral_identities(monkeypatch):
    t0 = time.monotonic()
    ds, ads = de_sitter(3), anti_de_sitter(3)
    sds = schwarzschild_de_sitter(SdSParams(3, 0.1))
    ok = True

    # non-trivial and trivial identities at tolerance 1e-6, budget 1e5
    for tr, kw in ((ds, {}), (ads, {}), (sds, {"branch": "outer"})):
        for rep in (ID.first_identity(tr, 3, 0.5, 2.5, **kw),
                    ID.second_identity(tr, 3, 0.5, 2.5, **kw)):
            ok &= rep.status == "pass" and rep.abs_residual <= 1e-6
            ok &= rep.extra["evaluations"] <= 100_000
        rep = ID.curvature_deficit_identity(tr, 0.3 if tr.lambda_sign > 0 else 2.0)
        ok &= rep.status == "pass" and rep.abs_residual <= 1e-6
        ok &= rep.extra["evaluations"] <= 100_000

    # the rigid cases are exactly 0 = 0 for the Bochner and deficit flux
    for tr, t in ((ds, 0.3), (ads, 2.0)):
        rep = ID.second_identity(tr, 3, 0.5, 2.5)
        ok &= abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12
        rep = ID.curvature_deficit_identity(tr, t)
        ok &= abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12

    # order-2+ convergence: doubling composite Simpson panels, substituted
    # for the adaptive rule, gains >= 4x
    def residual(case, panels):
        monkeypatch.setattr(ID, "adaptive", lambda f, a, b, cfg:
                            composite_simpson(f, a, b, panels))
        return case().abs_residual

    ratios = []
    for case in (lambda: ID.first_identity(sds, 3, 0.5, 2.5, branch="outer"),
                 lambda: ID.second_identity(sds, 5, 0.5, 2.5, branch="outer"),
                 lambda: ID.curvature_deficit_identity(sds, 0.3)):
        r1, r2 = residual(case, 8), residual(case, 16)
        ratios.append(r1 / r2)
        ok &= r1 > 1e-13 and r1 / r2 >= 4.0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(5, ok, f"integral identities pass at 1e-6 within budget; "
                  f"doubling ratios {[f'{r:.1f}' for r in ratios]}, "
                  f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 30.0


def test_criterion_6_surface_gravity_scan():
    rows = []
    for m in np.arange(0.01, 0.1951, 0.01):
        tr = schwarzschild_de_sitter(SdSParams(3, float(m)))
        inner, outer = sorted(tr.boundaries, key=lambda b: b.location)
        rows.append((float(m), inner.surface_gravity, outer.surface_gravity))
    all_above = all(k1 > 1.0 and k2 > 1.0 for _, k1, k2 in rows)
    # the de Sitter limit: the outer (cosmological) horizon gravity tends to
    # 1 from above as the mass vanishes; the inner one diverges
    outer_small_m = max(
        b.surface_gravity
        for b in [max(schwarzschild_de_sitter(SdSParams(3, 1e-5)).boundaries,
                      key=lambda b: b.location)])
    limit_ok = 1.0 < outer_small_m < 1.0 + 1e-2
    ok = all_above and limit_ok
    report(6, ok, f"horizon gravities exceed 1 on the mass grid; outer "
                  f"gravity at m=1e-5 is {outer_small_m:.6f}")
    assert all_above
    assert limit_ok


def test_criterion_7_liminf():
    results = []
    for make, n in ((de_sitter, 3), (de_sitter, 4), (anti_de_sitter, 3),
                    (anti_de_sitter, 4)):
        tr = make(n)
        for p in range(1, n):
            res = LS.liminf_check(tr, p)
            results.append(abs(res.lhs - unit_sphere_area(n))
                           / unit_sphere_area(n))
    worst = max(results)
    refused = (
        LS.liminf_check(schwarzschild_de_sitter(SdSParams(3, 0.1)), 1),
        LS.liminf_check(nariai(3), 1))
    refusals_ok = all(r.status == "inapplicable"
                      and r.extra["reason"] == "non-discrete extremum set"
                      for r in refused)
    ok = worst <= 1e-6 and refusals_ok
    report(7, ok, f"extremal limits equal the round-sphere area "
                  f"(worst rel dev {worst:.2e}); non-discrete families "
                  f"refused")
    assert worst <= 1e-6
    assert refusals_ok


def test_criterion_8_inequality_equalities():
    ds, ads = de_sitter(3), anti_de_sitter(3)
    checks = [
        IQ.area_bound(ds), IQ.willmore_bound(ds),
        IQ.scalar_average_bound(ds), IQ.mon_glob_bound(ds, 1),
        IQ.n3_uniqueness_inequality(ds), IQ.overdetermined_condition(ds, 0.5),
        IQ.area_bound(ads), IQ.willmore_bound(ads),
        IQ.mon_glob_bound(ads, 1), IQ.overdetermined_condition(ads, 2.0),
    ]
    ok = True
    worst = 0.0
    for rep in checks:
        residual = abs(rep.lhs - rep.rhs) if rep.equality is not None \
            else rep.abs_residual
        worst = max(worst, residual)
        ok &= rep.status == "pass" and residual <= 1e-9
        if rep.equality is not None:
            ok &= rep.equality
    report(8, ok, f"sharp inequalities attain equality on the round models "
                  f"(worst residual {worst:.2e})")
    assert ok


def test_criterion_9_ode_cross_check():
    t0 = time.monotonic()
    system = OG.reduce_system(3, +1)

    tr = OG.shoot_from_horizon(OG.HorizonData(3, +1, 1.0, 1.0))
    rhos = np.linspace(1e-3, tr.domain[1] - 1e-9, 400)
    sup_ds = max(max(abs(tr.u(r)[0] / tr.normalization_factor - math.sin(r)),
                     abs(tr.h(r)[0] - math.cos(r))) for r in rhos)
    mon_ds = OG.monitor_drift(tr, system)

    m = 0.1
    sds = schwarzschild_de_sitter(SdSParams(3, m))
    r1 = sds.domain[0]

    def f(r):
        return 1.0 - r * r - 2.0 * m / r

    def fp(r):
        return -2.0 * r + 2.0 * m / r ** 2

    tr2 = OG.shoot_from_horizon(OG.HorizonData(3, +1, r1, fp(r1) / 2.0))
    sup_sds = 0.0
    for r in np.linspace(r1 + 0.005, sds.domain[1] - 0.005, 60):
        rho = arclength_from_horizon(f, fp, r1, r)
        sup_sds = max(sup_sds,
                      abs(tr2.u(rho)[0] / tr2.normalization_factor
                          - math.sqrt(f(r))),
                      abs(tr2.h(rho)[0] - r))
    mon_sds = OG.monitor_drift(tr2, system)
    elapsed = time.monotonic() - t0
    ok = (sup_ds <= 1e-6 and sup_sds <= 1e-6
          and mon_ds <= 1e-8 and mon_sds <= 1e-8 and elapsed < 10.0)
    report(9, ok, f"shooting reproduces the closed forms (sup "
                  f"{max(sup_ds, sup_sds):.2e}, monitor "
                  f"{max(mon_ds, mon_sds):.2e}, {elapsed:.2f}s)")
    assert sup_ds <= 1e-6 and sup_sds <= 1e-6
    assert mon_ds <= 1e-8 and mon_sds <= 1e-8
    assert elapsed < 10.0


def test_criterion_10_extremum_expansion():
    worst = 0.0
    for n in (3, 4, 5):
        tr = de_sitter(n)
        rs = np.linspace(1e-3, 5e-3, 50)
        us = np.array([tr.u.value(r) for r in rs])
        # u = 1 - (c/2) r^2 + O(r^4); each principal direction carries the
        # same coefficient by symmetry, so the coefficient sum is n*c
        c = np.polyfit(rs ** 2, 2.0 * (1.0 - us), 1)[0]
        worst = max(worst, abs(n * c - n))
    ok = worst <= 1e-4
    report(10, ok, f"quadratic expansion at the maximum has coefficient sum "
                   f"n (worst dev {worst:.2e})")
    assert worst <= 1e-4
