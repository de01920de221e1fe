import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from staticlab import cli
from staticlab.cli import main

from extremes import extreme_argvs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_models_listing(capsys):
    code, out = run(capsys, "models", "--n", "3")
    assert code == 0
    rows = json.loads(out)
    assert {r["model"] for r in rows} == {"desitter", "antidesitter", "sds",
                                          "nariai"}


def test_up_curve_constant_on_hemisphere(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _ = run(capsys, "up-curve", "--model", "desitter", "--n", "3",
                  "--p", "3", "--t0", "0", "--t1", "0.99", "--steps", "100",
                  "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "level,value,d_analytic,d_numeric,assumption_flags"
    assert len(lines) == 101
    for line in lines[1:]:
        value = float(line.split(",")[1])
        assert abs(value - 4 * math.pi) <= 1e-9
    assert lines[1].endswith(
        "discrete_extremum=true;normalization=true;surface_gravity_le_1=true")


def test_phi_curve(tmp_path, capsys):
    path = tmp_path / "phi.csv"
    code, _ = run(capsys, "phi-curve", "--model", "antidesitter", "--p", "3",
                  "--s0", "0.2", "--s1", "3.0", "--steps", "10",
                  "--out", str(path))
    assert code == 0
    for line in path.read_text().splitlines()[1:]:
        assert abs(float(line.split(",")[1]) - 4 * math.pi) <= 1e-8


def test_up_curve_just_above_lowest_level(capsys):
    # de Sitter's lowest locatable level is about 4.5e-7: the derivative
    # stencil at t = 6e-7 must stay above it
    code, out = run(capsys, "up-curve", "--model", "desitter", "--p", "3",
                    "--t0", "6e-7", "--t1", "0.5", "--steps", "3")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(float(tok)) for tok in row.split(",")[:4])


@pytest.mark.parametrize("s0, s1", [
    # the stencil at s0 must stay above de Sitter's lowest level, ~4.5e-7
    ("5e-7", "0.5"),
    # s1 + 1e-4 would read inside the band |u - 1| < 1e-6
    ("0.5", "7.2543"),
])
def test_phi_curve_stencil_stays_inside_the_levels(capsys, s0, s1):
    code, out = run(capsys, "phi-curve", "--model", "desitter", "--p", "3",
                    "--s0", s0, "--s1", s1, "--steps", "3")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(float(tok)) for tok in row.split(",")[:4])


def test_up_curve_without_derivative_reaches_the_band(capsys):
    # for p < 3 only U_p is printed, which is defined up to t = 1
    code, out = run(capsys, "up-curve", "--model", "desitter", "--p", "1",
                    "--t0", "0.5", "--t1", "0.9999999", "--steps", "3")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_up_curve_at_large_p_does_not_overflow(capsys):
    # |Du|^(p-2) alone overflows at p = 300 on anti-de Sitter; U_p' weighs
    # each sphere by its scale-free term instead.  U_p = 4 pi, U_p' = 0
    code, out = run(capsys, "up-curve", "--model", "antidesitter", "--p",
                    "300", "--t0", "1.5", "--t1", "20", "--steps", "3")
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert len(rows) == 3
    for _, value, d_ana, d_num, _ in rows:
        assert float(value) == pytest.approx(4 * math.pi, rel=1e-9)
        assert abs(float(d_ana)) <= 1e-9 * 4 * math.pi
        assert abs(float(d_num)) <= 1e-9 * 4 * math.pi


def test_check_suites_pass(capsys):
    for model, suite in (("desitter", "static"), ("desitter", "identities"),
                         ("sds", "identities"), ("sds", "inequalities"),
                         ("antidesitter", "conformal"),
                         ("desitter", "liminf"), ("nariai", "liminf")):
        code, out = run(capsys, "check", "--model", model, "--suite", suite)
        assert code == 0, (model, suite, out)
        payload = json.loads(out)
        assert payload["suite"] == suite
        assert all(c["status"] in ("pass", "inapplicable")
                   for c in payload["checks"])


def test_check_inapplicable_statuses(capsys):
    code, out = run(capsys, "check", "--model", "sds", "--suite",
                    "inequalities")
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "inapplicable" for c in payload["checks"])


def test_check_exit_code_on_failure(capsys, monkeypatch):
    # an absurdly tight tolerance forces real failures and exit status 1
    monkeypatch.setattr(cli, "IDENTITY_TOL", 1e-30)
    code, out = run(capsys, "check", "--model", "desitter", "--suite",
                    "static")
    assert code == 1
    assert any(c["status"] == "fail" for c in json.loads(out)["checks"])


def test_scan_sds(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _ = run(capsys, "scan-sds", "--n", "3", "--m-grid", "0.01:0.19:0.01",
                  "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "m,r1,r2,kappa1,kappa2"
    assert len(lines) == 20  # 0.01 ... 0.19 inclusive
    for line in lines[1:]:
        m, r1, r2, k1, k2 = (float(tok) for tok in line.split(","))
        assert k1 > 1.0
        assert r1 < r2


def test_sds_builds_in_high_dimension(capsys):
    # the inner-horizon bracket starts where r^(1-n) in f' is finite
    code, out = run(capsys, "check", "--model", "sds", "--n", "30",
                    "--m", "0.001", "--suite", "static")
    assert code == 0
    assert {c["status"] for c in json.loads(out)["checks"]} == {"pass"}


def test_scan_sds_in_high_dimension(capsys):
    code, out = run(capsys, "scan-sds", "--n", "30",
                    "--m-grid", "1e-6:2e-6:1e-6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        m, r1, r2, k1, k2 = (float(tok) for tok in line.split(","))
        assert 0.0 < r1 < r2 < 1.0 and k1 > 1.0


@pytest.mark.parametrize("n, m", [("420", "1e-20"), ("430", "1e-20"),
                                  ("438", "1e-10")])
def test_sds_at_tiny_mass_in_high_dimension(capsys, n, m):
    # the inner horizon used to come back 200 Newton steps short of the
    # root, and u'' divided by a g^3 that underflowed to 0 where f < 0
    code, out = run(capsys, "check", "--model", "sds", "--n", n, "--m", m,
                    "--suite", "static")
    assert code == 0
    checks = json.loads(out, parse_constant=_reject)["checks"]
    assert {c["status"] for c in checks} == {"pass"}


@pytest.mark.parametrize("model", ["desitter", "antidesitter"])
def test_liminf_in_high_dimension(capsys, model):
    # U_p sums scale-free terms: |1 - t^2|^(-(n+p-1)/2) alone overflows at
    # t = 1 - 2^-24 from n = 46
    code, out = run(capsys, "check", "--model", model, "--n", "46",
                    "--suite", "liminf")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 45
    assert {c["status"] for c in checks} == {"pass"}


@pytest.mark.parametrize("n", ["144", "150", "438"])
def test_models_in_high_dimension(capsys, n):
    # the mass bound divides exact integers: float(n) ** n overflows from
    # n = 144; 438 is the largest dimension accepted
    code, out = run(capsys, "models", "--n", n, "--m", "1e-80")
    assert code == 0
    assert len(json.loads(out)) == 4


@pytest.mark.parametrize("suite", ["identities", "inequalities"])
def test_sphere_area_in_high_dimension(capsys, suite):
    # |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2): Gamma(n/2) alone overflows from
    # n = 344
    code, out = run(capsys, "check", "--model", "desitter", "--n", "344",
                    "--suite", suite)
    assert code == 0
    checks = json.loads(out)["checks"]
    statuses = {c["status"] for c in checks}
    assert "pass" in statuses and statuses <= {"pass", "inapplicable"}


@pytest.mark.parametrize("argv", [
    ("models", "--n", "200", "--m", "1e-80"),
    ("models", "--n", "400", "--m", "1e-80"),
    *(("check", "--model", "antidesitter", "--n", "200", "--suite", suite)
      for suite in ("identities", "inequalities", "liminf")),
], ids=["models-200", "models-400", "identities", "inequalities", "liminf"])
def test_conformal_area_in_high_dimension(capsys, argv):
    # A_g = |S^(n-1)| (h / sqrt(D))^(n-1): h^(n-1) alone overflows at the
    # boundary level t = 100 of anti-de Sitter (h ~ 100) from n = 156
    code, out = run(capsys, *argv)
    assert code == 0
    if argv[0] == "check":
        checks = json.loads(out)["checks"]
        assert "fail" not in {c["status"] for c in checks}
    else:
        assert len(json.loads(out)) == 4


@pytest.mark.parametrize("argv, rhs", [
    (("--model", "nariai", "--n", "144"), 4.77223969803e+242),
    (("--model", "sds", "--n", "60", "--m", "1e-80"), 1.14096178289e+256),
    (("--model", "nariai", "--n", "400"), None),
], ids=["nariai-144", "sds-60", "nariai-400"])
def test_willmore_bound_in_high_dimension(capsys, argv, rhs):
    # a horizon term is |S^(n-1)| (|R - n(n-3)| r / 2)^(n-1): its power
    # alone overflows from n = 144 on Nariai, and past the double range the
    # term is inf, printed as null
    code, out = run(capsys, "check", *argv, "--suite", "inequalities")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    got = checks["willmore_bound"]["rhs"]
    assert got == (rhs if rhs is None else pytest.approx(rhs, rel=1e-11))


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("argv", [
    ("--model", "nariai", "--n", "393"),
    ("--model", "desitter", "--n", "416"),
    ("--model", "antidesitter", "--n", "425"),
    ("--model", "sds", "--n", "425", "--m", "1e-80"),
], ids=["nariai-393", "desitter-416", "antidesitter-425", "sds-425"])
def test_identities_in_high_dimension(capsys, argv):
    # (h/sqrt(D))^(n-1) overflows on Nariai from n = 393, and D^(n/2) of
    # the slab integrands underflows to 0 from n = 416: the area is inf,
    # the integrand NaN, and a check that reads either fails, with no
    # traceback
    code, out = run(capsys, "check", *argv, "--suite", "identities")
    assert code in (0, 1)
    checks = json.loads(out, parse_constant=_reject)["checks"]
    assert len(checks) == 6
    for c in checks:
        if c["lhs"] is None or c["rhs"] is None:
            assert c["status"] == "fail"


NEAR_BOUND = ("--model", "sds", "--n", "3", "--m", "0.192431")


@pytest.mark.parametrize("argv", [
    ("check", *NEAR_BOUND, "--suite", "identities"),
    ("check", *NEAR_BOUND, "--suite", "inequalities"),
    ("up-curve", *NEAR_BOUND, "--p", "3", "--t0", "0.1", "--t1", "0.5",
     "--steps", "3"),
    ("phi-curve", *NEAR_BOUND, "--p", "3", "--s0", "0.1", "--s1", "2",
     "--steps", "3"),
], ids=["identities", "inequalities", "up-curve", "phi-curve"])
def test_sds_near_the_mass_bound(capsys, argv):
    # m is 0.9999 of the bound at n = 3: f rounds to 0 next to the inner
    # horizon, where d2u/dr2 once divided by a floor whose cube was 0
    code, out = run(capsys, *argv)
    assert code == 0
    if argv[0] == "check":
        assert json.loads(out, parse_constant=_reject)["checks"]
    else:
        rows = [line.split(",")[:4] for line in out.splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_extreme_inputs_print_json_csv_or_one_line(capsys):
    # nothing escapes `main` but SystemExit: a record refused inside a
    # command would show here as a traceback
    argvs = list(extreme_argvs())
    assert len(argvs) == 87
    for argv in argvs:
        code = main(list(argv))
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and captured.err.count("\n") == 1, argv
        elif argv[0] == "check":
            assert code in (0, 1) and captured.err == "", argv
            assert json.loads(captured.out, parse_constant=_reject)["checks"]
        else:
            assert code == 0 and captured.err == "", argv
            rows = [line.split(",")[:4]
                    for line in captured.out.splitlines()[1:]]
            assert len(rows) == 3, argv
            assert all(math.isfinite(float(v)) for row in rows
                       for v in row), argv


def test_a_spent_quadrature_budget_fails_its_report(capsys, monkeypatch):
    # a report whose bulk integral runs out of evaluations fails with rhs
    # null and the reason, and the other reports still print: the first
    # identities and the deficit identity need more than one bisection,
    # the second identities converge on their first panel
    from staticlab import identities
    from staticlab.quadrature import QuadratureConfig
    monkeypatch.setattr(identities, "DEFAULT_QUAD",
                        QuadratureConfig(1e-9, 1e-9, 45))
    code, out = run(capsys, "check", "--model", "sds", "--suite",
                    "identities")
    assert code == 1
    checks = json.loads(out, parse_constant=_reject)["checks"]
    assert [c["status"] for c in checks] == ["fail", "fail", "pass", "pass",
                                             "fail", "pass"]
    for c in (checks[0], checks[1], checks[4]):
        assert c["rhs"] is None and "evaluations" not in c["extra"]
        assert c["extra"]["reason"].startswith(
            "budget of 45 evaluations exhausted"), c["name"]


@pytest.mark.parametrize("argv", [
    ("check", "--model", "desitter", "--n", "600", "--suite", "inequalities"),
    ("models", "--n", "1000000"),
    ("models", "--n", "439"),
    ("scan-sds", "--n", "2", "--m-grid", "0.1:0.1:0.1"),
    ("shoot", "--n", "439", "--h0", "1", "--kappa", "1"),
], ids=["check-600", "models-1e6", "models-439", "scan-sds-2", "shoot-439"])
def test_dimension_outside_3_to_438_exits_2_with_one_line(capsys, argv):
    # |S^(n-1)| is subnormal from n = 439 and 0.0 from 456, where the area
    # checks would compare zeros; the refusal comes before the mass bound,
    # which takes seconds at n = 10^6
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"staticlab {argv[0]}: error: dimension must be "
                            f"from 3 to 438, got {argv[argv.index('--n') + 1]}"
                            "\n")


def test_shoot_csv(tmp_path, capsys):
    path = tmp_path / "shot.csv"
    code, _ = run(capsys, "shoot", "--n", "3", "--h0", "1.0", "--kappa",
                  "1.0", "--steps", "50", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,h,u,dh,du,monitor"
    mons = [abs(float(line.split(",")[5])) for line in lines[1:-1]]
    assert max(mons) <= 1e-7


def test_byte_identical_reruns(tmp_path, capsys):
    args = ("check", "--model", "sds", "--suite", "identities")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["up-curve", "--model", "desitter"])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["check", "--model", "desitter", "--suite", "nonsense"])
    assert err.value.code == 2


def test_float_formatting_12_digits(capsys):
    code, out = run(capsys, "scan-sds", "--m-grid", "0.1:0.1:0.1")
    row = out.splitlines()[1].split(",")
    assert row[3] == "3.49237298164"  # 12 significant digits


# each bad curve argv, and the start of its one stderr line after
# "staticlab <command>: error: ": a refused end names its flag and value,
# then the reason the curve gave
BAD_CURVE = {
    ("phi-curve", "--model", "desitter", "--p", "3", "--s0", "0",
     "--s1", "1"): "--s0 0: conformal level s must be positive",
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0",
     "--t1", "1.5"): "--t1 1.5: level t=1.5 outside the range of u",
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0",
     "--t1", "0.5", "--steps", "0"): "--steps must be at least 1",
    ("phi-curve", "--model", "antidesitter", "--p", "3", "--s0", "1e-4",
     "--s1", "1"): "--s0 0.0001: level t=10000.0000333",
    ("up-curve", "--model", "sds", "--m", "0.5", "--p", "3", "--t0", "0.1",
     "--t1", "0.5"): "mass m=0.5 outside the admissible interval",
    # ends within 1e-6 of the extremal value, where U_p' and Phi_p refuse
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0.5",
     "--t1", "0.9999999", "--steps", "3"):
        "--t1 0.9999999: point with u=0.9999999 lies in the excluded band",
    ("phi-curve", "--model", "sds", "--p", "3", "--s0", "0.5", "--s1", "8",
     "--steps", "3"): "--s1 8: point with u=0.99999977",
    # a non-finite exponent printed rows of nan, or 4 pi as 1 ** nan
    ("up-curve", "--model", "desitter", "--p", "nan", "--t0", "0",
     "--t1", "0.5"): "--t0 0: exponent p must be a finite number, got nan",
    ("up-curve", "--model", "desitter", "--p", "inf", "--t0", "0",
     "--t1", "0.5"): "--t0 0: exponent p must be a finite number, got inf",
    ("phi-curve", "--model", "desitter", "--p", "nan", "--s0", "0.5",
     "--s1", "1"): "--s0 0.5: exponent p must be a finite number",
    ("phi-curve", "--model", "desitter", "--p", "inf", "--s0", "0.5",
     "--s1", "1"): "--s0 0.5: exponent p must be a finite number",
    # one step reads only --t0, yet a bad --t1 is still refused
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0.5",
     "--t1", "1.5", "--steps", "1"): "--t1 1.5: level t=1.5 outside",
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0.5",
     "--t1", "0.9999999", "--steps", "1"): "--t1 0.9999999: point with",
    # U_p is singular at t = 1 for every p; coth(0) divides by zero
    ("up-curve", "--model", "desitter", "--p", "1", "--t0", "0.5",
     "--t1", "1"): "--t1 1: U_p is singular at the extremal level t=1",
    ("up-curve", "--model", "antidesitter", "--p", "1", "--t0", "1",
     "--t1", "2"): "--t0 1: U_p is singular at the extremal level t=1",
    ("phi-curve", "--model", "antidesitter", "--p", "3", "--s0", "0",
     "--s1", "1"): "--s0 0: conformal level s must be positive, got 0",
    # a sphere term past the double range ended in an OverflowError
    ("up-curve", "--model", "sds", "--p", "1e3", "--t0", "0.1", "--t1",
     "0.5", "--steps", "2", "--branch", "inner"):
        "--t0 0.1: a sphere term at p=1000 leaves the double range at the "
        "level u=0.1",
    ("up-curve", "--model", "sds", "--p", "1e6", "--t0", "0", "--t1",
     "0.5", "--steps", "2", "--branch", "inner"):
        "--t0 0: a sphere term at p=1000000 leaves the double range",
    ("phi-curve", "--model", "sds", "--p", "1e3", "--s0", "0.1", "--s1",
     "0.5", "--steps", "2", "--branch", "inner"):
        "--s0 0.1: a sphere term at p=1000 leaves the double range",
    # finite sphere terms whose derivative sums left it printed -inf or nan
    ("up-curve", "--model", "sds", "--p", "567", "--t0", "0.1", "--t1",
     "0.5", "--steps", "2", "--branch", "inner"):
        "--t0 0.1: a sphere term at p=567 leaves the double range at the "
        "level u=0.1",
    ("phi-curve", "--model", "sds", "--p", "566", "--s0", "0.1", "--s1",
     "0.5", "--steps", "2", "--branch", "inner"):
        "--s0 0.1: a sphere term at p=566 leaves the double range at the "
        "level u=0.0996679946",
}


@pytest.mark.parametrize("argv", list(BAD_CURVE))
def test_bad_curve_input_exits_2_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        f"staticlab {argv[0]}: error: {BAD_CURVE[argv]}")


@pytest.mark.parametrize("command, ends", [("up-curve", ("--t0", "--t1")),
                                            ("phi-curve", ("--s0", "--s1"))])
def test_a_level_refused_inside_the_grid_exits_2_with_one_line(
        capsys, monkeypatch, command, ends):
    # no closed-form family is known to fail between two ends that pass, so
    # a curve that refuses every grid of more than one level stands in
    from staticlab import levelset
    name = command.replace("-", "_")
    curve = getattr(levelset, name)

    def refuse_inside(tr, p, grid):
        if len(grid) > 1:
            raise ValueError(levelset.OUT_OF_RANGE.format(p, grid[1]))
        return curve(tr, p, grid)

    monkeypatch.setattr(levelset, name, refuse_inside)
    code = main([command, "--model", "desitter", "--p", "3", ends[0], "0.1",
                 ends[1], "0.5", "--steps", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"staticlab {command}: error: a sphere term at "
                            "p=3 leaves the double range at the level u=0.3\n")


# a short argv of each command that takes --out
OUT_COMMANDS = {
    "up-curve": ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0.1",
                 "--t1", "0.5", "--steps", "2"),
    "phi-curve": ("phi-curve", "--model", "desitter", "--p", "3", "--s0",
                  "0.1", "--s1", "0.5", "--steps", "2"),
    "check": ("check", "--model", "desitter", "--suite", "static"),
    "scan-sds": ("scan-sds", "--m-grid", "0.1:0.1:0.1"),
    "shoot": ("shoot", "--h0", "1", "--kappa", "1", "--steps", "2"),
}


# a shot of arclength 3e-111, shorter than the 2e-6 its rows keep from its
# ends: its rows lay outside the shot, printed inf and then divided by u = 0
TINY_SHOT = ("--n", "300", "--h0", "1e-113", "--kappa", "1", "--steps", "3")


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
@pytest.mark.parametrize("missing", [True, False])
def test_out_that_cannot_be_written_exits_2_with_one_line(
        capsys, tmp_path, command, missing):
    # a file in a directory that does not exist, and a directory
    path = tmp_path / "missing" / "x.csv" if missing else tmp_path
    code = main([*OUT_COMMANDS[command], "--out", str(path)])
    captured = capsys.readouterr()
    reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"staticlab {command}: error: cannot write "
                            f"--out {path}: {reason}\n")


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_a_refused_command_opens_no_out_file(capsys, tmp_path, command):
    path = tmp_path / "out.csv"
    refusals = [([*OUT_COMMANDS[command], "--n", "2"],
                 "dimension must be from 3 to 438")]
    if command == "shoot":
        refusals.append((["shoot", *TINY_SHOT], "the shot's arclength "))
    for argv, reason in refusals:
        assert main([*argv, "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"staticlab {command}: error: {reason}")
        assert not path.exists()


@pytest.mark.parametrize("n, floor", [("3", "5e-13"), ("4", "5e-25")])
def test_sds_below_its_mass_floor_exits_2_naming_the_interval(capsys, n,
                                                              floor):
    below, above = (f"{f * float(floor):g}" for f in (0.98, 1.02))
    code = main(["check", "--model", "sds", "--n", n, "--m", below,
                 "--suite", "static"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"staticlab check: error: mass m={below} outside the admissible "
        f"interval ({floor}, ")
    assert len(captured.err.splitlines()) == 1
    code, out = run(capsys, "check", "--model", "sds", "--n", n, "--m",
                    above, "--suite", "static")
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])


@pytest.mark.parametrize("spec", ["0.1:x", "0.1:0.2:0", "0:inf:0.1",
                                  "nan:1:0.1"])
def test_bad_grid_exits_2_with_one_line(capsys, spec):
    code = main(["scan-sds", "--m-grid", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("staticlab scan-sds: error: bad grid")
    assert len(captured.err.splitlines()) == 1


# each row count outside 1..MAX_ROWS, and its one stderr line after
# "staticlab <command>: error: ": these ran for as long as building 10^12
# curve levels or 10^298 masses took, or printed a header alone and exit 0
BAD_ROW_COUNT = {
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0", "--t1",
     "0.5", "--steps", "1000000000000"):
        "--steps must be at most 1000000, got 1000000000000",
    ("phi-curve", "--model", "desitter", "--p", "3", "--s0", "0.5", "--s1",
     "1", "--steps", "1000001"):
        "--steps must be at most 1000000, got 1000001",
    ("shoot", "--h0", "0.8", "--kappa", "1", "--steps", "1000000000000"):
        "--steps must be at most 1000000, got 1000000000000",
    ("scan-sds", "--n", "3", "--m-grid", "0.01:0.02:1e-300"):
        "bad grid specification '0.01:0.02:1e-300': more than 1000000 "
        "points",
    ("scan-sds", "--m-grid", "0.2:0.1:0.01"):
        "the mass count of --m-grid 0.2:0.1:0.01 must be at least 1, got 0",
}


@pytest.mark.parametrize("argv", list(BAD_ROW_COUNT))
def test_bad_row_count_exits_2_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"staticlab {argv[0]}: error: "
                            f"{BAD_ROW_COUNT[argv]}\n")


def test_grid_of_max_rows_is_built_and_one_more_refused():
    # the bound is checked on the count, before the grid is built
    assert len(cli._parse_grid(f"0:{cli.MAX_ROWS - 1}:1")) == cli.MAX_ROWS
    with pytest.raises(cli.UsageError, match="more than 1000000 points"):
        cli._parse_grid(f"0:{cli.MAX_ROWS}:1")


@pytest.mark.parametrize("suite", ["static", "identities", "liminf"])
def test_check_reads_no_tolerance_from_the_environment(capsys, monkeypatch,
                                                       suite):
    # a verdict has no hidden input: STATICLAB_TOL=1e300 would pass every
    # check of these suites, and it changes no byte and no exit status
    argv = ["check", "--model", "desitter", "--suite", suite]
    monkeypatch.delenv("STATICLAB_TOL", raising=False)
    plain = main(argv), capsys.readouterr()
    monkeypatch.setenv("STATICLAB_TOL", "1e300")
    assert (main(argv), capsys.readouterr()) == plain


def test_tolerance_env_var_leaves_the_inequality_tolerances(capsys):
    # no variable is read: each suite judges at report.IDENTITY_TOL, and
    # the inequalities at INEQ_TOL (gradient_bound at GRAD_TOL)
    def tolerances(suite):
        code, out = run(capsys, "check", "--model", "desitter", "--suite",
                        suite)
        assert code == 0
        return [c["tolerance"] for c in json.loads(out)["checks"]]

    assert tolerances("static") == [1e-6] * 2
    assert tolerances("inequalities") == [1e-10] + [1e-9] * 7
    # boundary_curvature_inequality is the last of the identities suite
    assert tolerances("identities") == [1e-6] * 5 + [1e-9]


@pytest.mark.parametrize("flags", [
    ("--h0", "-1", "--kappa", "1"),
    ("--h0", "nan", "--kappa", "1"),
    ("--h0", "1", "--kappa", "inf"),
    ("--n", "2", "--h0", "1", "--kappa", "1"),
    ("--h0", "1e120", "--kappa", "1"),  # past the arclength budget
    ("--h0", "1e300", "--kappa", "1"),
    TINY_SHOT,
])
def test_bad_shoot_input_exits_2_with_one_line(capsys, flags):
    code = main(["shoot", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("staticlab shoot: error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("h0", ["2.1e4", "1e6", "1e105", "1e120", "1e300"])
def test_shoot_from_a_horizon_too_large_exits_2_naming_the_bound(capsys, h0):
    # the series starts at SERIES_HANDOFF h0, which from h0 = 20000 is not
    # below MAX_ARCLENGTH; one refusal for all, before the series is read
    code, out, err = _shoot(capsys, "--h0", h0, "--kappa", "1")
    assert code == 2
    assert out == ""
    assert err == (f"staticlab shoot: error: h0={float(h0):g} is too large to "
                   "shoot: from h0 = 20000 the series starts at 0.001 h0, "
                   "not below the arclength budget 20\n")


def _shoot(capsys, *flags):
    code = main(["shoot", "--steps", "3", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shoot_at_extreme_kappa_prints_the_unit_shot(capsys):
    # (u, u') enter the reduced system homogeneously, so the normalised shot
    # does not depend on kappa; at 1e300 it overflowed to rows of u = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = _shoot(capsys, "--h0", "1", "--kappa", "1")
        for kappa in ("1e300", "1e-300"):
            assert _shoot(capsys, "--h0", "1", "--kappa", kappa) == unit
    code, out, err = unit
    assert code == 0 and err == "" and "nan" not in out


def test_shoot_with_monitor_drift_above_the_bound_exits_1(capsys):
    # the rows print, then the drift (1.3e-7 here, on a small black hole
    # with two horizons) is held against DRIFT_TOL
    code, out, err = _shoot(capsys, "--h0", "0.01", "--kappa", "1")
    assert code == 1
    assert len(out.splitlines()) == 4
    assert err.startswith("staticlab shoot: monitor drift ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flags", [
    ("--h0", "1.01"),  # h' = -14.2 and u' = 6.2e4 at the end
    ("--h0", "1.5"),
    ("--h0", "100"),
    ("--n", "4", "--h0", "1"),  # h' = -1, but u' = -1.77
])
def test_shoot_that_closes_at_a_singular_pole_exits_2(capsys, flags):
    # a smooth pole ends with h' = -1 and u' = 0, as the n = 3, h0 = 1
    # shot does (h' = -0.99999999, u' = 7.4e-6)
    code, out, err = _shoot(capsys, *flags, "--kappa", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("staticlab shoot: error: the shot closes at a "
                          "singular pole")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("h0", ["1e-6", "1e6"])
def test_shoot_that_cannot_integrate_exits_2_with_one_line(capsys, h0):
    # 1e-6: the step size underflows; 1e6: the series start is past the
    # arclength budget
    reason = {"1e-6": "integration failed",
              "1e6": "h0=1e+06 is too large to shoot"}[h0]
    code, out, err = _shoot(capsys, "--h0", h0, "--kappa", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"staticlab shoot: error: {reason}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("h0", ["1e-300", "1e-200"])
def test_shoot_from_a_tiny_horizon_exits_2_with_one_line(h0):
    # 1/h0^2 overflows the horizon series to -inf, so the start state is
    # NaN; a child with a timeout fails cleanly if the shot hangs
    proc = subprocess.run(
        [sys.executable, "-m", "staticlab.cli", "shoot", "--h0", h0,
         "--kappa", "1", "--steps", "3"],
        capture_output=True, text=True, env=_child_env(), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("staticlab shoot: error: integration "
                                  "failed: the start state or first step "
                                  "is not finite")
    assert len(proc.stderr.splitlines()) == 1


def test_check_emits_strict_json_at_12_digits(capsys):
    for model, suite in (("sds", "inequalities"), ("nariai", "liminf"),
                         ("desitter", "identities")):
        code, out = run(capsys, "check", "--model", model, "--suite", suite)
        assert code == 0
        floats = []
        json.loads(out, parse_constant=_reject, parse_float=floats.append)
        assert floats
        for tok in floats:
            digits = tok.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
            assert len(digits) <= 12, tok
    checks = json.loads(run(capsys, "check", "--model", "sds", "--suite",
                            "liminf")[1])["checks"]
    assert all(c["lhs"] is None and c["status"] == "inapplicable"
               for c in checks)


def _child_env() -> dict:
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_exits_1_without_traceback():
    # the reader went away before the report was written, as with
    # `staticlab check ... | head -c 100`
    proc = subprocess.Popen(
        [sys.executable, "-m", "staticlab.cli", "check", "--model", "sds",
         "--n", "3", "--m", "0.02", "--suite", "conformal"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == 1
    assert err == b""


# run in an interpreter of its own: a child forked or vforked from pytest
# carries pytest's resident pages into its ru_maxrss until it execs
PEAK = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_a_long_curve_holds_no_copy_of_its_text(tmp_path):
    # each child's ru_maxrss from os.wait4 is its own peak; a curve's above
    # that of `models` (interpreter and imports) is what its rows cost:
    # 1.9x the CSV here, where they are formatted one at a time as they are
    # written; holding the rows, their strings and the joined text at once
    # took 4.9x
    def peak(*argv):
        out = subprocess.run(
            [sys.executable, "-c", PEAK, sys.executable, "-m", "staticlab.cli",
             *argv], env=_child_env(), stdout=subprocess.PIPE, text=True,
            check=True).stdout
        code, maxrss = map(int, out.split())
        assert code == 0, argv
        return maxrss * (1 if sys.platform == "darwin" else 1024)

    path = tmp_path / "curve.csv"
    curve = peak("up-curve", "--model", "desitter", "--p", "3", "--t0", "0",
                 "--t1", "0.9", "--steps", "100000", "--out", str(path))
    assert curve - peak("models", "--n", "3") <= 3 * path.stat().st_size
