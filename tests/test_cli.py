import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from staticlab.cli import main


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
    monkeypatch.setenv("STATICLAB_TOL", "1e-30")
    code, out = run(capsys, "check", "--model", "desitter", "--suite",
                    "static")
    assert code == 1
    assert any(c["status"] == "fail" for c in json.loads(out)["checks"])


def test_scan_sds(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _ = run(capsys, "scan-sds", "--n", "3", "--m-grid", "0.01:0.19:0.01",
                  "--emit", "kappa", "--out", str(path))
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


@pytest.mark.parametrize("n", ["144", "150"])
def test_models_in_high_dimension(capsys, n):
    # the mass bound divides exact integers: float(n) ** n overflows from
    # n = 144
    code, out = run(capsys, "models", "--n", n, "--m", "1e-80")
    assert code == 0
    assert len(json.loads(out)) == 4


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


@pytest.mark.parametrize("argv", [
    ("phi-curve", "--model", "desitter", "--p", "3", "--s0", "0",
     "--s1", "1"),
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0",
     "--t1", "1.5"),
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0",
     "--t1", "0.5", "--steps", "0"),
    ("phi-curve", "--model", "antidesitter", "--p", "3", "--s0", "1e-4",
     "--s1", "1"),
    ("up-curve", "--model", "sds", "--m", "0.5", "--p", "3", "--t0", "0.1",
     "--t1", "0.5"),
    # ends within 1e-6 of the extremal value, where U_p' and Phi_p refuse
    ("up-curve", "--model", "desitter", "--p", "3", "--t0", "0.5",
     "--t1", "0.9999999", "--steps", "3"),
    ("phi-curve", "--model", "sds", "--p", "3", "--s0", "0.5", "--s1", "8",
     "--steps", "3"),
    # a non-finite exponent printed rows of nan, or 4 pi as 1 ** nan
    ("up-curve", "--model", "desitter", "--p", "nan", "--t0", "0",
     "--t1", "0.5"),
    ("up-curve", "--model", "desitter", "--p", "inf", "--t0", "0",
     "--t1", "0.5"),
    ("phi-curve", "--model", "desitter", "--p", "nan", "--s0", "0.5",
     "--s1", "1"),
    ("phi-curve", "--model", "desitter", "--p", "inf", "--s0", "0.5",
     "--s1", "1"),
])
def test_bad_curve_input_exits_2_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"staticlab {argv[0]}: error: ")


@pytest.mark.parametrize("spec", ["0.1:x", "0.1:0.2:0", "0:inf:0.1",
                                  "nan:1:0.1"])
def test_bad_grid_exits_2_with_one_line(capsys, spec):
    code = main(["scan-sds", "--m-grid", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("staticlab scan-sds: error: bad grid")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_bad_tolerance_exits_2_with_one_line(capsys, monkeypatch, value):
    monkeypatch.setenv("STATICLAB_TOL", value)
    code = main(["check", "--model", "desitter", "--suite", "static"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("staticlab check: error: STATICLAB_TOL")
    assert len(captured.err.splitlines()) == 1


def test_tolerance_env_var_leaves_the_inequality_tolerances(capsys,
                                                            monkeypatch):
    monkeypatch.setenv("STATICLAB_TOL", "1e-3")

    def tolerances(suite):
        code, out = run(capsys, "check", "--model", "desitter", "--suite",
                        suite)
        assert code == 0
        return [c["tolerance"] for c in json.loads(out)["checks"]]

    assert tolerances("inequalities") == [1e-10] + [1e-9] * 7
    # boundary_curvature_inequality is the last of the identities suite
    assert tolerances("identities") == [1e-3] * 5 + [1e-9]


@pytest.mark.parametrize("flags", [
    ("--h0", "-1", "--kappa", "1"),
    ("--h0", "nan", "--kappa", "1"),
    ("--h0", "1", "--kappa", "inf"),
    ("--n", "2", "--h0", "1", "--kappa", "1"),
])
def test_bad_shoot_input_exits_2_with_one_line(capsys, flags):
    code = main(["shoot", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("staticlab shoot: error: ")
    assert len(captured.err.splitlines()) == 1


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
    code, out, err = _shoot(capsys, "--h0", h0, "--kappa", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("staticlab shoot: error: integration failed")
    assert len(err.splitlines()) == 1


def test_check_emits_strict_json_at_12_digits(capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for model, suite in (("sds", "inequalities"), ("nariai", "liminf"),
                         ("desitter", "identities")):
        code, out = run(capsys, "check", "--model", model, "--suite", suite)
        assert code == 0
        floats = []
        json.loads(out, parse_constant=reject, parse_float=floats.append)
        assert floats
        for tok in floats:
            digits = tok.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
            assert len(digits) <= 12, tok
    checks = json.loads(run(capsys, "check", "--model", "sds", "--suite",
                            "liminf")[1])["checks"]
    assert all(c["lhs"] is None and c["status"] == "inapplicable"
               for c in checks)


def test_closed_stdout_exits_1_without_traceback():
    # the reader went away before the report was written, as with
    # `staticlab check ... | head -c 100`
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "staticlab.cli", "check", "--model", "sds",
         "--n", "3", "--m", "0.02", "--suite", "conformal"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == 1
    assert err == b""
