"""The fixed list of extreme command lines, read by
`tests/test_cli.py::test_extreme_inputs_print_json_csv_or_one_line` and by
`tools/golden_bytes.py`, and the near-Nariai commands among them that
refuse a valid input today, read by that test and by
`tests/test_known_defects.py`.  It imports no pytest, so the tool reads
the list that the test does.

SdS at n = 3, 8 and 438, at 10 times its mass floor, half its mass bound
and 0.999999 of it, through every suite and both curves; the round models
where areas and weights leave the double range; and SdS next to the
Nariai limit, m = (1 - eps) times the mass bound for eps = 1e-10, 1e-12
and 1e-14 at n = 4 and 200, through every suite but identities and both
curves: 123 argvs.

`shot_argvs` lists 48 `shoot` argvs, n in {3, 4, 5, 8} times twelve
horizon radii from 1e-6 to 2e4, read by `tools/golden_bytes.py` and by
`tests/test_odegen.py`: each ends at a second horizon, at a smooth pole,
or is refused.
"""

from __future__ import annotations

from staticlab import admissible_mass_bound, cli
from staticlab.models import _inner_start

CURVES = {"up-curve": ("--p", "3", "--t0", "0.1", "--t1", "0.5"),
          "phi-curve": ("--p", "3", "--s0", "0.1", "--s1", "2")}

# (n, eps, suite or curve) of the near-Nariai commands that exit 2 today,
# as f rounds to 0 or below at a sample point, or u above 1 (conformal at
# n = 200 and eps = 1e-12): ROADMAP item 17
NARIAI_REFUSALS = (
    *((n, eps, "inequalities") for n in (4, 200)
      for eps in (1e-10, 1e-12, 1e-14)),
    (200, 1e-12, "conformal"), (200, 1e-14, "conformal"),
    (200, 1e-14, "static"), (4, 1e-14, "phi-curve"), (200, 1e-14, "up-curve"))


def _near_nariai(n: int, eps: float) -> tuple[str, ...]:
    """The SdS model flags at m = (1 - eps) times the mass bound."""
    return ("--model", "sds", "--n", str(n), "--m",
            repr((1.0 - eps) * admissible_mass_bound(n)))


def _argv(what: str, model: tuple[str, ...]) -> tuple[str, ...]:
    """The check of the suite `what`, or the curve `what`, on `model`."""
    if what in CURVES:
        return (what, *model, *CURVES[what], "--steps", "3")
    return ("check", *model, "--suite", what)


def nariai_refusals():
    """The argvs of NARIAI_REFUSALS, each a tuple of strings."""
    return [_argv(what, _near_nariai(n, eps))
            for n, eps, what in NARIAI_REFUSALS]


def extreme_argvs():
    """The argvs, each a tuple of strings."""
    for n in (3, 8, 438):
        r, bound = _inner_start(n), admissible_mass_bound(n)
        for m in (5.0 * r ** (n - 2) * (1.0 - r * r), bound / 2,
                  0.999999 * bound):
            model = ("--model", "sds", "--n", str(n), "--m", repr(m))
            yield from (_argv(what, model) for what in (*cli.SUITES, *CURVES))
    for model in ("desitter", "antidesitter", "nariai"):
        for n in ("393", "416", "425", "438"):
            for suite in ("identities", "inequalities"):
                yield ("check", "--model", model, "--n", n, "--suite", suite)
    for n in (4, 200):
        for eps in (1e-10, 1e-12, 1e-14):
            yield from (_argv(what, _near_nariai(n, eps)) for what in (
                "static", "conformal", "inequalities", "liminf", *CURVES))


def shot_argvs():
    """The `shoot` argvs, each a tuple of strings."""
    return [("shoot", "--n", str(n), "--h0", h0, "--kappa", "1", "--steps",
             "5") for n in (3, 4, 5, 8)
            for h0 in ("1e-6", "0.01", "0.3", "0.5", "0.577", "0.8", "1",
                       "1.01", "1.5", "3", "100", "2e4")]
