"""One-dimensional quadrature for the integral identities and the
arclength conversion.

`adaptive` is a Gauss-Kronrod (7, 15) scheme with worst-interval-first
subdivision, absolute and relative targets, and a hard budget on integrand
evaluations.  It is the one rule of the package.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .report import Refused


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved within the budget."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float
    rel_tol: float
    max_evals: int


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    evaluations: int


# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights sitting on abscissae 1, 3, 5, 7.  The Kronrod
# abscissae are the roots of the Stieltjes polynomial E_8, and the weights
# solve the moment equations; both computed at 50 digits and given to 33,
# so each literal is the correctly rounded double.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _kronrod_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, int]:
    """Return (kronrod value, error estimate, evaluations) on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        f1 = f(mid - x)
        f2 = f(mid + x)
        kron += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            gauss += _WG[j // 2] * (f1 + f2)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss), 15


def adaptive(f: Callable[[float], float], a: float, b: float,
             config: QuadratureConfig) -> QuadResult:
    """Adaptively integrate f over [a, b] to the targets of `config`.

    Raises QuadratureError if the evaluation budget is exhausted before the
    error estimate meets max(abs_tol, rel_tol * |value|).
    """
    if not b > a:
        raise Refused(f"empty integration interval [{a}, {b}]")

    val, err, evals = _kronrod_panel(f, a, b)
    # heap of (-error, lo, hi, value, error); worst interval first
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    while total_err > max(config.abs_tol, config.rel_tol * abs(total_val)):
        if evals + 30 > config.max_evals:
            raise QuadratureError(
                f"budget of {config.max_evals} evaluations exhausted; "
                f"error estimate {total_err:.3e} on value {total_val:.6e}")
        neg_err, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution: accept its estimate; if
            # it has none, neither has any other, and total_err is rounding
            if e == 0.0:
                break
            heapq.heappush(heap, (0.0, lo, hi, v, 0.0))
            total_err -= e
            continue
        v1, e1, k1 = _kronrod_panel(f, lo, mid)
        v2, e2, k2 = _kronrod_panel(f, mid, hi)
        evals += k1 + k2
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    return QuadResult(total_val, total_err, evals)

