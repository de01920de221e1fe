"""Golden outputs of a fixed set of CLI commands.

Each file under tests/golden/ holds one command's exit status on its first
line (`exit N`) and its stdout after that.  Every token that is not a float
must match exactly; floats must agree to rel 1e-9 or to an absolute floor
set by the noise the number carries, so that a libm that rounds a last bit
differently does not fail the test:

- in a `check` record, the record's own `tolerance`: a check declares
  differences below it meaningless, and its residual lines print rounding
  noise (`gradient_bound` on anti-de Sitter prints one ulp of 1.6e5,
  2.9e-11, against 1e-10); `status` still has to match;
- on a curve row, for the two derivative columns, 1e-9 max(1, |value|):
  both are sums over the level's records, next to values of that size, and
  the recorded `d_numeric` of the files recorded before it became the
  transport derivative are five-point or centred differences that sit up
  to 4.5e-10 |value| from it (`phi-curve-antidesitter`);
- on a `shoot` row, 1e-9: the rows are an ODE solution to rtol 1e-12, atol
  1e-13, the last one 1e-6 inside a horizon located to that accuracy;
- anywhere else, 1e-12.

The `monitor` cell of the last `shoot` row is integration error, not
signal.  The closed-form solution through the same horizon data satisfies
the trace equation identically (40-digit mpmath gives below 1e-41 there),
and the row lies 1e-6 inside the second horizon, where the u'/u term of the
reduction magnifies the state's error to about 1.8e-6.  Moving the start
state of the shot by one ulp moves that cell by up to 9.4e-9 (3.4e-9 with
scipy's RK45, which recorded it first).  It was recorded again, alone, when
the shot moved to the package's own Dormand-Prince integrator
(1.76835367347e-06 -> 1.76706122464e-06); its floor stays 1e-9, so any
change of integrator shows there first.

To record the files again from the current source tree, all of them or
only the named ones (an unknown name exits 2 and writes nothing):

    PYTHONPATH=src python tests/test_golden.py [NAME...]

Re-record by name, so that files whose command did not change keep their
bytes: a full run also rewrites the last digits of residuals that are
rounding noise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

MODELS = ("desitter", "antidesitter", "sds", "nariai")
SUITES = ("static", "conformal", "identities", "inequalities", "liminf")

COMMANDS = {
    **{f"check-{model}-{suite}": ["check", "--model", model, "--n", "3",
                                  "--suite", suite]
       for model in MODELS for suite in SUITES},
    "models": ["models", "--n", "3"],
    "up-curve-desitter": ["up-curve", "--model", "desitter", "--p", "3",
                          "--t0", "0", "--t1", "0.9", "--steps", "5"],
    "up-curve-antidesitter": ["up-curve", "--model", "antidesitter", "--p",
                              "3", "--t0", "1.5", "--t1", "20", "--steps", "5"],
    "up-curve-sds": ["up-curve", "--model", "sds", "--p", "3", "--t0", "0.1",
                     "--t1", "0.9", "--steps", "5"],
    "up-curve-sds-inner": ["up-curve", "--model", "sds", "--p", "4", "--t0",
                           "0.2", "--t1", "0.8", "--steps", "5", "--branch",
                           "inner"],
    "up-curve-nariai": ["up-curve", "--model", "nariai", "--p", "1", "--t0",
                        "0.1", "--t1", "0.9", "--steps", "5"],
    "phi-curve-antidesitter": ["phi-curve", "--model", "antidesitter", "--p",
                               "3", "--s0", "0.2", "--s1", "3", "--steps", "5"],
    "phi-curve-sds": ["phi-curve", "--model", "sds", "--p", "3", "--s0",
                      "0.2", "--s1", "2", "--steps", "5"],
    "phi-curve-desitter": ["phi-curve", "--model", "desitter", "--n", "4",
                           "--p", "4", "--s0", "0.3", "--s1", "2.5",
                           "--steps", "5"],
    "phi-curve-nariai": ["phi-curve", "--model", "nariai", "--p", "3",
                         "--s0", "0.2", "--s1", "2", "--steps", "5"],
    "scan-sds": ["scan-sds", "--n", "3", "--m-grid", "0.05:0.15:0.05"],
    "scan-sds-n4": ["scan-sds", "--n", "4", "--m-grid", "0.02:0.08:0.03"],
    "shoot": ["shoot", "--n", "3", "--h0", "0.8", "--kappa", "1.0",
              "--steps", "5"],
}

FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
REL = 1e-9
ABS = 1e-12
DERIVATIVE_FLOOR = 1e-9
SHOOT_FLOOR = 1e-9


def run(argv: list[str]) -> str:
    """`exit N` and the command's stdout, as the golden files hold them."""
    from staticlab.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def same_json(got, want, floor: float = ABS, where: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        if isinstance(want.get("tolerance"), float):
            floor = want["tolerance"]
        for key in want:
            same_json(got[key], want[key], floor, f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            same_json(g, w, floor, f"{where}/{i}")
    elif isinstance(want, float):
        assert isinstance(got, float), (where, got)
        assert math.isclose(got, want, rel_tol=REL, abs_tol=floor), \
            (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def csv_floor(command: str, column: str, row: dict[str, str]) -> float:
    if column in ("d_analytic", "d_numeric"):
        return DERIVATIVE_FLOOR * max(1.0, abs(float(row["value"])))
    if command == "shoot":
        return SHOOT_FLOOR
    return ABS


def same_csv(command: str, got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    assert got_lines[0] == want_lines[0]
    header = want_lines[0].split(",")
    for i, (g_line, w_line) in enumerate(zip(got_lines[1:], want_lines[1:])):
        g_row, w_row = g_line.split(","), w_line.split(",")
        assert len(g_row) == len(w_row), i
        w_named = dict(zip(header, w_row))
        for column, g, w in zip(header, g_row, w_row):
            if not FLOAT.fullmatch(w):
                assert g == w, (i, column, g, w)
                continue
            assert FLOAT.fullmatch(g), (i, column, g)
            floor = csv_floor(command, column, w_named)
            assert math.isclose(float(g), float(w), rel_tol=REL,
                                abs_tol=floor), (i, column, g, w)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    want_status, want = (GOLDEN / f"{name}.txt").read_text().split("\n", 1)
    got_status, got = run(COMMANDS[name]).split("\n", 1)
    assert got_status == want_status
    if want.startswith(("{", "[")):
        same_json(json.loads(got), json.loads(want))
    else:
        same_csv(COMMANDS[name][0], got, want)


def _golden_bytes():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "golden_bytes", Path(__file__).parent.parent / "tools"
        / "golden_bytes.py")
    golden_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_bytes)
    return golden_bytes


def test_golden_bytes_runs_these_commands():
    # tools/golden_bytes.py reads COMMANDS from this file without pytest,
    # then the 23 commands of the seed-0 cli benchmark workload, then the
    # 123 extreme argvs and the 48 shots of tests/extremes.py, each under
    # its own name
    from extremes import extreme_argvs
    commands = list(_golden_bytes().commands().items())
    assert commands[:len(COMMANDS)] == list(COMMANDS.items())
    assert [argv for _, argv in commands[len(COMMANDS):]] == [
        *(["check", "--model", model, "--n", "3", "--m", "0.1", "--suite",
           suite] for model in MODELS for suite in SUITES),
        ["scan-sds", "--n", "3", "--m-grid", "0.01:0.19:0.01"],
        ["shoot", "--n", "3", "--h0", "1", "--kappa", "1"],
        ["models", "--n", "3", "--m", "0.1"],
        *(list(argv) for argv in extreme_argvs()),
        *(["shoot", "--n", n, "--h0", h0, "--kappa", "1", "--steps", "5"]
          for n in ("3", "4", "5", "8")
          for h0 in ("1e-6", "0.01", "0.3", "0.5", "0.577", "0.8", "1",
                     "1.01", "1.5", "3", "100", "2e4")),
    ]
    assert len(commands) == len(COMMANDS) + 23 + 123 + 48 == 227


def test_golden_bytes_names_the_cells_that_differ():
    cell_diff = _golden_bytes().cell_diff
    curve = "level,value,d_analytic\n0.1,4,1e-14\n0.2,5,2e-14\n"
    assert cell_diff(curve, curve) == []
    assert cell_diff(curve, curve.replace("2e-14", "3e-14")) == [
        "row 2, d_analytic: 2e-14 -> 3e-14"]
    assert cell_diff(curve, curve + "0.3,6,0\n") == ["2 rows -> 3 rows"]
    report = '{"checks": [{"name": "a", "residual": 1e-12}], "n": 3}'
    assert cell_diff(report, report.replace("1e-12", "2e-12")) == [
        "checks[0].residual: 1e-12 -> 2e-12"]


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        print(f"unknown golden file(s): {', '.join(unknown)}", file=sys.stderr)
        sys.exit(2)
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.txt").write_text(run(COMMANDS[name]),
                                            encoding="utf-8")
    sys.exit(0)
