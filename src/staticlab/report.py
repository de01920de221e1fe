"""Machine-readable check results.

Every identity and inequality checker returns an IdentityReport.  For an
identity, abs_residual is |lhs - rhs|.  For a one-sided inequality
lhs <= rhs, abs_residual is the violation max(0, lhs - rhs), and the
`equality` flag records whether the two sides agree to tolerance (the
rigidity case).  A check whose hypotheses are not met by the triple is
reported with status "inapplicable" rather than "fail": the two-horizon and
product families are legitimate solutions that simply sit outside the
assumptions, and must not raise false alarms.  A guard that refuses its
input raises Refused, the one exception that the command line reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

IDENTITY_TOL = 1e-6  # the static, conformal, liminf and identity checks
INEQ_TOL = 1e-9  # fixed tolerance of the inequality checks
_NON_DISCRETE = "non-discrete extremum set"  # refusal reason: no count


class Refused(ValueError):
    """An input out of range, or out of what double precision can carry."""


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    status: str  # "pass" | "fail" | "inapplicable"
    assumption_status: dict[str, bool]
    description: str
    extra: dict
    equality: Optional[bool] = None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "description": self.description,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.abs_residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "assumption_status": dict(sorted(self.assumption_status.items())),
        }
        if self.equality is not None:
            out["equality"] = self.equality
        if self.extra:
            out["extra"] = self.extra
        return out


def identity_report(name: str, lhs: float, rhs: float, tolerance: float,
                    description: str, applicable: bool = True,
                    assumptions: dict[str, bool] | None = None,
                    extra: dict | None = None) -> IdentityReport:
    """Report for a two-sided identity lhs = rhs."""
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(abs(lhs), abs(rhs), 1e-300)
    status = "pass" if abs_res <= tolerance or rel_res <= tolerance else "fail"
    if not applicable:
        status = "inapplicable"
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, abs_residual=abs_res,
                          rel_residual=rel_res, tolerance=tolerance,
                          status=status, assumption_status=assumptions or {},
                          description=description, extra=extra or {})


def inequality_report(name: str, lhs: float, rhs: float, tolerance: float,
                      assumptions: dict[str, bool], applicable: bool,
                      description: str,
                      extra: dict | None = None) -> IdentityReport:
    """Report for a one-sided inequality lhs <= rhs; residual is the
    violation and `equality` marks the rigidity case.  The caller states
    whether the hypotheses hold: no inequality passes by omission."""
    gap = lhs - rhs
    violation = gap if math.isnan(gap) else max(0.0, gap)  # NaN never passes
    rel = violation / max(abs(lhs), abs(rhs), 1e-300)
    status = "pass" if violation <= tolerance else "fail"
    if not applicable:
        status = "inapplicable"
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, abs_residual=violation,
                          rel_residual=rel, tolerance=tolerance, status=status,
                          assumption_status=assumptions,
                          equality=abs(lhs - rhs) <= tolerance,
                          description=description, extra=extra or {})


def refusal_report(name: str, reason: str, assumptions: dict[str, bool],
                   description: str = "") -> IdentityReport:
    """Report for a check whose preconditions the triple does not meet."""
    return IdentityReport(name=name, lhs=float("nan"), rhs=float("nan"),
                          abs_residual=float("nan"), rel_residual=float("nan"),
                          tolerance=float("nan"), status="inapplicable",
                          assumption_status=assumptions,
                          description=description, extra={"reason": reason})
