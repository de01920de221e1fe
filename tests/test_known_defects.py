"""The register of known defects: one case per open FOUND line of
CHANGES.md that names a defect of the program, each asserting the correct
behaviour, never today's output.

Every case is marked `xfail(strict=True)`: its `reason` names the FOUND
and the ROADMAP item that mends it, and `raises` pins the type of today's
failure, so a case that starts failing another way fails the run.  A mend
makes its case pass, which a strict mark reports as a failure: the mending
change drops the mark and keeps the assertion as an ordinary test.  The
FOUNDs without a case (costs, the benchmark's texts and metrics) have no
pass/fail form in `src/`; CHANGES.md lists them.  Every case runs in this
process and needs neither numpy nor scipy.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys

import pytest

from staticlab import RadialProfile, de_sitter
from staticlab import identities as ID
from staticlab import levelset as LS
from staticlab import odegen
from staticlab.cli import main
from staticlab.geometry import linspace
from staticlab.models import admissible_mass_bound
from staticlab.report import Refused

from extremes import NARIAI_REFUSALS, nariai_refusals

FOUR_PI = 4 * math.pi


def known(found: str, item: int, raises=AssertionError):
    """The strict mark of a case: `found` quotes its CHANGES.md FOUND."""
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"CHANGES.md FOUND: {found}; "
                                    f"ROADMAP item {item}")


def _run(*argv: str) -> tuple[int, str]:
    """Exit status and stdout of one command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _checks(out: str) -> list[dict]:
    return json.loads(out)["checks"]


def _sides_agree(check: dict) -> bool:
    """The two sides of a report within IDENTITY_TOL of the larger one."""
    lhs, rhs = check["lhs"], check["rhs"]
    return abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))


# --------------------------------------------------------------------------
# level location at the extremal value

@known("up-curve at p < 3 prints noise next to the extremal value", 3)
def test_up_curve_next_to_the_extremum_is_4pi_and_flat():
    # the rows that `up-curve --model desitter --p 1 --t0 0.5
    # --t1 0.9999999 --steps 3` prints, at full precision
    *_, (_, value, _, d_numeric) = LS.up_curve(
        de_sitter(3), 1, linspace(0.5, 0.9999999, 3))
    assert value == pytest.approx(FOUR_PI, rel=1e-13, abs=0.0)
    assert abs(d_numeric) <= 1e-8


@known("phi-curve rows next to the band print noise", 3)
def test_phi_curve_next_to_the_extremum_is_4pi():
    # the rows of `phi-curve --model desitter --p 3 --s0 0.5 --s1 7.2543
    # --steps 3`, at full precision
    *_, (_, value, _, _) = LS.phi_curve(
        de_sitter(3), 3, linspace(0.5, 7.2543, 3))
    assert value == pytest.approx(FOUR_PI, rel=1e-13, abs=0.0)


# --------------------------------------------------------------------------
# horizon shots

@known("shoot_from_horizon misreads the hemisphere at n >= 4 (n = 4 "
       "closes at a singular pole)", 4, raises=Refused)
def test_hemisphere_shot_in_dimension_4_has_one_horizon_and_a_pole():
    tr = odegen.shoot_from_horizon(odegen.HorizonData(4, +1, 1.0, 1.0))
    assert len(tr.boundaries) == 1 and tr.extremum.discrete


@known("shoot_from_horizon misreads the hemisphere at n >= 4 (n = 5 "
       "gives a false second horizon of gravity 12,484)", 4)
def test_hemisphere_shot_in_dimension_5_has_one_horizon_and_a_pole():
    tr = odegen.shoot_from_horizon(odegen.HorizonData(5, +1, 1.0, 1.0))
    assert len(tr.boundaries) == 1 and tr.extremum.discrete


@known("shoot prints rows whose monitor is far past DRIFT_TOL and still "
       "exits 0", 4)
def test_shoot_prints_no_row_past_the_drift_bound_unless_it_fails():
    code, out = _run("shoot", "--n", "3", "--h0", "0.8", "--kappa", "1.0",
                     "--steps", "5")
    monitor = max(abs(float(line.split(",")[5]))
                  for line in out.splitlines()[1:])
    assert code == 1 or monitor <= odegen.DRIFT_TOL


@known("shoot_from_horizon returns a false two-horizon triple for tiny "
       "horizons in high dimension instead of refusing", 4,
       raises=pytest.fail.Exception)
def test_tiny_horizon_in_high_dimension_is_refused():
    with pytest.raises(ValueError):
        odegen.shoot_from_horizon(odegen.HorizonData(300, +1, 1e-113, 1.0))


# --------------------------------------------------------------------------
# verdicts on the scale of the sides

@known("the conformal suite fails on valid SdS solutions in high "
       "dimension", 5)
def test_conformal_suite_passes_sds_in_dimension_300():
    code, _ = _run("check", "--model", "sds", "--n", "300", "--m", "1e-80",
                   "--suite", "conformal")
    assert code == 0


@known("from n = 416 D^(n/2) underflows, so the slab identities report "
       "NaN (fail) where the integrand is finite", 5)
def test_identities_pass_de_sitter_in_dimension_416():
    code, _ = _run("check", "--model", "desitter", "--n", "416", "--suite",
                   "identities")
    assert code == 0


@known("an absolute quadrature floor above the integral (also fails the "
       "deficit identity of SdS n = 3 at m = 1e-10 after one panel)", 5)
def test_identities_pass_sds_at_a_tiny_mass():
    code, _ = _run("check", "--model", "sds", "--n", "3", "--m", "1e-10",
                   "--suite", "identities")
    assert code == 0


@known("checks with an absolute tolerance pass on subnormal sides", 5)
def test_identities_pass_sds_in_dimension_425_and_never_on_subnormals():
    code, out = _run("check", "--model", "sds", "--n", "425", "--m",
                     "1e-80", "--suite", "identities")
    tiny = [c["name"] for c in _checks(out) if c["status"] == "pass"
            and max(abs(c["lhs"]), abs(c["rhs"])) < sys.float_info.min]
    assert tiny == []
    assert code == 0


@known("checks with an absolute tolerance pass on subnormal sides (and on "
       "sides far apart below the tolerance, de Sitter n = 40)", 5)
def test_every_identity_pass_in_dimension_40_has_agreeing_sides():
    _, out = _run("check", "--model", "desitter", "--n", "40", "--suite",
                  "identities")
    apart = [c["name"] for c in _checks(out)
             if c["status"] == "pass" and not _sides_agree(c)]
    assert apart == []


@known("an absolute quadrature floor above the integral passes a wrong "
       "identity", 5)
def test_first_identity_in_dimension_100_passes_only_on_agreeing_sides():
    rep = ID.first_identity(de_sitter(100), 1, 0.5, 2.5)
    assert rep.status != "pass" or _sides_agree(vars(rep))


# --------------------------------------------------------------------------
# SdS near the mass bound

@pytest.mark.parametrize("n, m", [
    pytest.param("5", "0.0929515073573777", marks=known(
        "check --model sds --n 5 --m 0.0929515073573777 --suite identities "
        "fails second_integral_identity(p=5) on a valid solution", 17)),
    *(pytest.param(n, m, marks=known(
        f"the stalled error estimate of the n = 5 FOUND above is not alone "
        f"(n = {n})", 17))
      for n, m in (("8", "0.052734322265625"), ("10", "0.04095995904"),
                   ("50", "0.007508257426277113"))),
], ids=["n5", "n8", "n10", "n50"])
def test_identities_pass_sds_near_the_mass_bound(n, m):
    code, out = _run("check", "--model", "sds", "--n", n, "--m", m,
                     "--suite", "identities")
    assert [c["status"] for c in _checks(out)] == ["pass"] * 6
    assert code == 0


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"n{n}-{eps:g}-{what}", marks=known(
        "next to the Nariai limit check and the curves refuse valid SdS "
        "solutions: "
        + ("u rounds above 1" if (n, eps, what) == (200, 1e-12, "conformal")
           else "f rounds to 0 or below at a sample point")
        + f" (n = {n}, m = (1 - {eps:g}) m_max, {what})", 17))
    for (n, eps, what), argv in zip(NARIAI_REFUSALS, nariai_refusals())])
def test_sds_next_to_the_nariai_limit_is_read(argv):
    # every near-Nariai argv of tests/extremes.py that is refused today,
    # among them `check --model sds --n 4 --m 0.1249999999875 --suite
    # inequalities` and `--n 200 --m 0.0018486481882467854 --suite conformal`
    code, _ = _run(*argv)
    assert code == 0


@known("SdS one ulp below the mass bound: models --n 7 --m "
       "0.06160016433881316 ends in ZeroDivisionError, as f(r0) rounds to 0",
       17, raises=ZeroDivisionError)
def test_sds_one_ulp_below_the_mass_bound_is_listed():
    m = math.nextafter(admissible_mass_bound(7), 0)  # 0.06160016433881316
    code, _ = _run("models", "--n", "7", "--m", repr(m))
    assert code == 0


@known("SdS one ulp below the mass bound: check --model sds --n 14 --m "
       "0.028326389757426143 --suite static is refused with no sign change",
       17)
def test_sds_one_ulp_below_the_mass_bound_is_checked():
    m = math.nextafter(admissible_mass_bound(14), 0)  # 0.028326389757426143
    code, _ = _run("check", "--model", "sds", "--n", "14", "--m", repr(m),
                   "--suite", "static")
    assert code == 0


# --------------------------------------------------------------------------
# an areal triple is its metric function

@known("a u given to an areal triple is trusted to equal c sqrt(f), and "
       "dataclasses.replace(tr, f=...) keeps the old u", 14)
def test_replacing_f_replaces_the_potential_that_levels_read():
    tr = dataclasses.replace(de_sitter(3), f=RadialProfile(
        (0.0, 1.0), lambda r: (4 * (1 - r * r), -8 * r, -8.0)))
    assert tr.u.fn(0.5)[0] == tr.radial_state(0.5).u
