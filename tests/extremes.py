"""The fixed list of extreme command lines, read by
`tests/test_cli.py::test_extreme_inputs_print_json_csv_or_one_line` and by
`tools/golden_bytes.py`.  It imports no pytest, so the tool reads the list
that the test does.

SdS at n = 3, 8 and 438, at 10 times its mass floor, half its mass bound
and 0.999999 of it, through every suite and both curves, and the round
models where areas and weights leave the double range: 87 argvs.
"""

from __future__ import annotations

from staticlab import admissible_mass_bound, cli
from staticlab.models import _inner_start


def extreme_argvs():
    """The argvs, each a tuple of strings."""
    curves = (("up-curve", "--p", "3", "--t0", "0.1", "--t1", "0.5"),
              ("phi-curve", "--p", "3", "--s0", "0.1", "--s1", "2"))
    for n in (3, 8, 438):
        r, bound = _inner_start(n), admissible_mass_bound(n)
        for m in (5.0 * r ** (n - 2) * (1.0 - r * r), bound / 2,
                  0.999999 * bound):
            model = ("--model", "sds", "--n", str(n), "--m", repr(m))
            for suite in cli.SUITES:
                yield ("check", *model, "--suite", suite)
            for name, *flags in curves:
                yield (name, *model, *flags, "--steps", "3")
    for model in ("desitter", "antidesitter", "nariai"):
        for n in ("393", "416", "425", "438"):
            for suite in ("identities", "inequalities"):
                yield ("check", "--model", model, "--n", n, "--suite", suite)
