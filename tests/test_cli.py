import json
import math

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
])
def test_bad_curve_input_exits_2_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"staticlab {argv[0]}: error: ")


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
