"""The one bracketed root finder of the package.

Cold level location (curves walk by `levelset._walk_sphere`, a Newton with
its own stop, and come here when it gives up), the horizon radii and the
window edge of the conformal sample solve g(x) = 0 on [lo, hi], given
with g at both ends (a `geometry.Branch` holds u at its ends), where the
signs differ.  `find_root` keeps that bracket and at each iterate tries

1. the Newton step, from the slope that the same evaluation returned;
2. Illinois false position, when the Newton step would leave the bracket
   or no slope is known (near a horizon u ~ sqrt(distance), so Newton
   overshoots from the far side of the root);
3. bisection, when the false-position point is not strictly inside the
   bracket, or after CRAWL_STEPS moves in a row that did not shrink (as
   Newton crawls to the inner SdS horizon in high dimension).

It stops when a Newton step no longer moves the iterate (the step is below
half an ulp of it) or the bracket closes to about one ulp, and returns the
iterate with the smallest |g| (one of the last two, once the steps
converge).  No stop within MAX_ITERATIONS is a ValueError.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .report import Refused

EPS = 2.0 ** -52
MAX_ITERATIONS = 200
CRAWL_STEPS = 8


def find_root(g: Callable[[float], tuple[float, Optional[float]]],
              lo: float, hi: float, fa: float, fb: float) -> float:
    """Root of g on [lo, hi]; `g(x)` returns (value, slope or None), and fa
    and fb are its values at lo and hi.  Raises Refused when they do not
    change sign."""
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise Refused(f"no sign change on [{lo}, {hi}]")
    floor = EPS * EPS * (hi - lo)  # lets a bracket around x = 0 close
    a, b = lo, hi
    last_side = 0  # which end the previous iterate replaced
    x = a - fa * (b - a) / (fb - fa)
    if not a < x < b:
        x = 0.5 * (a + b)
    best, best_res = x, math.inf
    last_move, crawl = math.inf, 0  # crawl: moves in a row that did not shrink
    for _ in range(MAX_ITERATIONS):
        gx, slope = g(x)
        if gx == 0.0:
            return x
        if abs(gx) <= best_res:
            best, best_res = x, abs(gx)
        # fa and fb keep the signs of g at a and b; Illinois halves the
        # value at an end that two iterates in a row left standing
        if (gx > 0.0) == (fa > 0.0):
            a, fa = x, gx
            if last_side < 0:
                fb *= 0.5
            last_side = -1
        else:
            b, fb = x, gx
            if last_side > 0:
                fa *= 0.5
            last_side = 1
        if b - a <= EPS * abs(x) + floor:
            return best
        nxt = x - gx / slope if slope else math.nan
        if nxt == x:  # the Newton step is below half an ulp of x
            return best
        if not a < nxt < b:
            nxt = a - fa * (b - a) / (fb - fa)
            if not a < nxt < b:
                nxt = 0.5 * (a + b)
        move = abs(nxt - x)
        crawl, last_move = (crawl + 1 if move >= last_move else 0), move
        if crawl == CRAWL_STEPS:  # no move is >= inf: the next resets crawl
            nxt, last_move = 0.5 * (a + b), math.inf
        x = nxt
    raise ValueError(f"no root located on [{lo}, {hi}] in {MAX_ITERATIONS} "
                     f"iterations; smallest |g| {best_res:.3g}")
