"""Refusals that no other test reaches, each by a public call on a small
fixture.  The fixtures are not static solutions: each breaks the one
hypothesis whose refusal it exercises.  A gate on the source holds every
`raise` under src/ to `Refused` or to a failure of the method listed in
NOT_REFUSALS."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from staticlab import (Extremum, RadialProfile, StaticTriple, anti_de_sitter,
                       de_sitter, nariai)
from staticlab import geometry as G
from staticlab import identities as ID
from staticlab import inequalities as IQ
from staticlab import levelset as LS
from staticlab import odegen
from staticlab.cli import main
from staticlab.report import Refused

SRC = Path(__file__).parent.parent / "src" / "staticlab"

# (module, type, start of the message): why the one raise it names is a
# failure of the method, which shows as a traceback, not a refused input
NOT_REFUSALS = {
    ("roots", "ValueError", "no root located on "):
        "the bracket has a sign change, yet the iteration did not close it",
    ("odegen", "RuntimeError", "integration failed: {} steps tried"):
        "MAX_STEPS step attempts did not reach the end of the interval",
    ("odegen", "RuntimeError",
     "reached a second horizon without an interior extremum"):
        "the integrated trajectory is not a static solution",
    ("quadrature", "QuadratureError", "budget of "):
        "the error estimate did not settle; identities reports it as fail",
}


def _plateau_u(x: float) -> tuple[float, float, float]:
    # u = 1/2 on [0.9, 1.1], quadratic off it: C^1 and nondecreasing
    q, side = max(abs(x - 1.0) - 0.1, 0.0), math.copysign(1.0, x - 1.0)
    return 0.5 + 0.25 * side * q * q, 0.5 * q, 0.5 * side if q else 0.0


# Not static: u is flat on the level {u = 1/2}, so Du = 0 on every sphere of
# it, where the level's normal, mean curvature and flow are undefined
PLATEAU = StaticTriple(
    n=3, lambda_sign=+1, u=RadialProfile((0.0, 2.0), _plateau_u),
    h=RadialProfile((0.0, 2.0), lambda x: (x, 1.0, 0.0)), f=None,
    boundaries=(), extremum=Extremum(location=2.0, count=1))

# de Sitter without its horizon data: no boundary to integrate over
NO_BOUNDARY = dataclasses.replace(de_sitter(3), boundaries=())

NARIAI3 = nariai(3)
ZERO_WARP = dataclasses.replace(NARIAI3, h=RadialProfile(
    NARIAI3.domain, lambda x: (0.0, 0.0, 0.0)))


@pytest.mark.parametrize("call, message", [
    # Nariai is in the arclength chart already
    (lambda: G.to_arclength(NARIAI3),
     "to_arclength expects an areal-chart triple"),
    # a warp that vanishes on the whole domain
    (lambda: LS.up_value(ZERO_WARP, 1, 0.5),
     "degenerate warping radius h=0.0 at x="),
    (lambda: LS.up_curve(ZERO_WARP, 1, [0.5]),
     "degenerate warping radius h=0.0 at x="),
    (lambda: LS.phi_curve(ZERO_WARP, 1, [0.5]),
     "degenerate warping radius h=0.0 at x="),
    # de Sitter's u < 1 read with the sign of a negative constant
    (lambda: G.sphere_data(dataclasses.replace(de_sitter(3), lambda_sign=-1),
                           0.5).D,
     "conformal factor degenerate at u=0.866025403784"),
    (lambda: G.sphere_data(PLATEAU, 1.0).H, r"singular level at x=1\.0$"),
    (lambda: IQ.overdetermined_condition(PLATEAU, 0.5),
     "singular level at t=0.5"),
    (lambda: LS.up_curve(PLATEAU, 1, [0.5]), "singular level at x="),
    (lambda: ID.boundary_curvature_inequality(NO_BOUNDARY),
     "triple has no boundary"),
    (lambda: LS.up_second_derivative_at_boundary(NO_BOUNDARY, 3),
     "triple has no boundary"),
    (lambda: LS.up_value(NO_BOUNDARY, 1, 0.0), "triple has no boundary"),
    (lambda: IQ.scalar_average_bound(NO_BOUNDARY), "triple has no boundary"),
    (lambda: LS.up_second_derivative_at_boundary(de_sitter(3), 2),
     r"asserted for p >= 3 only"),
    (lambda: LS.conformal_boundary_data(dataclasses.replace(
        anti_de_sitter(3), conformally_compact=False)),
     "triple is not conformally compact"),
], ids=["to-arclength-chart", "zero-warp", "zero-warp-up-curve",
        "zero-warp-phi-curve", "conformal-factor",
        "mean-curvature-singular", "overdetermined-singular",
        "transport-singular", "boundary-inequality-no-boundary",
        "boundary-second-derivative-no-boundary", "up-value-no-boundary",
        "scalar-average-no-boundary", "boundary-second-derivative-p",
        "not-conformally-compact"])
def test_refusal(call, message):
    with pytest.raises(Refused, match=message):
        call()


def _message(node: ast.expr) -> str:
    """A message literal, each formatted field of it as {}."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                   for part in node.values)


def test_every_raise_is_a_refusal_or_a_listed_failure():
    listed = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            where = f"{path.name}:{node.lineno}"
            assert isinstance(node.exc, ast.Call), f"{where} names no type"
            kind = node.exc.func.id
            if kind == "Refused":
                continue
            message = _message(node.exc.args[0])
            entry = [key for key in NOT_REFUSALS if key[:2] == (
                path.stem, kind) and message.startswith(key[2])]
            assert entry, f"{where} raises {kind}, neither Refused nor listed"
            listed += entry
    assert sorted(listed) == sorted(NOT_REFUSALS)  # each entry names one raise


def test_shot_past_the_arclength_budget_exits_2_with_one_line(capsys,
                                                               monkeypatch):
    # every closed form closes well inside MAX_ARCLENGTH, so a shorter
    # budget stands in for a trajectory that meets no stop condition
    monkeypatch.setattr(odegen, "MAX_ARCLENGTH", 0.1)
    code = main(["shoot", "--h0", "1", "--kappa", "1", "--steps", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("staticlab shoot: error: no stop condition met "
                            "within the arclength budget; the trajectory may "
                            "be blowing up\n")
