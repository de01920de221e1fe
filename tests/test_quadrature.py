import math
from fractions import Fraction

import pytest

from staticlab.quadrature import (
    _WG,
    _WGK,
    _XGK,
    QuadratureConfig,
    QuadratureError,
    adaptive,
)

from oracles import composite_simpson, gauss_kronrod_15

CONFIG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10, max_evals=100_000)


def test_adaptive_polynomial_exact():
    res = adaptive(lambda x: x ** 4, 0.0, 1.0, CONFIG)
    assert res.value == pytest.approx(0.2, abs=1e-14)


def test_adaptive_oscillatory():
    res = adaptive(lambda x: math.sin(10 * x), 0.0, math.pi, CONFIG)
    exact = (1 - math.cos(10 * math.pi)) / 10
    assert res.value == pytest.approx(exact, abs=1e-10)
    assert res.evaluations <= 100_000


def test_adaptive_near_singular_endpoint():
    res = adaptive(lambda x: 1.0 / math.sqrt(x), 1e-10, 1.0, CONFIG)
    assert res.value == pytest.approx(2.0 * (1 - 1e-5), rel=1e-8)


def test_adaptive_budget_enforced():
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, max_evals=500)
    with pytest.raises(QuadratureError):
        adaptive(lambda x: math.exp(-x * x), 0.0, 5.0, cfg)


def test_adaptive_counts_evaluations():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return x * x

    res = adaptive(f, 0.0, 1.0, CONFIG)
    assert res.evaluations == calls


def test_composite_simpson_order():
    # the oracle rule that the identities' convergence-order tests substitute
    exact = 1.0 - math.cos(1.0)
    err = [abs(composite_simpson(math.sin, 0.0, 1.0, p).value - exact)
           for p in (4, 8, 16)]
    assert err[0] / err[1] > 4.0
    assert err[1] / err[2] > 4.0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive(lambda x: x, 1.0, 1.0, CONFIG)


def test_kronrod_constants_are_correctly_rounded():
    import mpmath
    xgk, wgk, wg = gauss_kronrod_15(dps=50)
    for got, want in ((_XGK, xgk), (_WGK, wgk), (_WG, wg)):
        assert list(got) == [float(mpmath.nstr(v, 40)) for v in want]


def _rule_error(weights, nodes, k):
    """sum_j w_j x_j^k over the symmetric nodes (the last one is 0) minus
    2/(k+1), in exact rational arithmetic, so only the constants err."""
    total = sum((1 if x == 0.0 else 2) * Fraction(w) * Fraction(x) ** k
                for w, x in zip(weights, nodes))
    return float(total - Fraction(2, k + 1))


@pytest.mark.parametrize("k", range(0, 23, 2))
def test_kronrod_rule_integrates_monomials(k):
    # the 15-point rule is exact to degree 22, the embedded 7-point to 12;
    # k = 0 checks that the weights sum to 2.
    # Rounding node x_j to a double moves the x^k sum by up to
    # w_j k x_j^(k-1) ulp(x_j)/2: 8.6 ulp of 2/23 in all at k = 22 (first
    # order), and 2.8-3.7 ulp on these doubles at k = 16..22, hence 4 there
    ulp = math.ulp(2.0 / (k + 1))
    assert abs(_rule_error(_WGK, _XGK, k)) <= (2 if k <= 14 else 4) * ulp
    if k <= 12:
        assert abs(_rule_error(_WG, _XGK[1::2], k)) <= 2 * ulp
