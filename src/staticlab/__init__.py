"""staticlab: numerical checks for rotationally symmetric static vacuum
metrics with non-zero cosmological constant.

The package constructs the closed-form solution families, evaluates the
weighted level-set integrals that are monotone along the potential, and
verifies the pointwise and integral identities and sharp inequalities those
quantities satisfy, including the rigid round cases.
"""

from .geometry import (
    BoundaryComponent,
    Branch,
    Extremum,
    RadialProfile,
    SphereData,
    StaticTriple,
    boundary_scalar_curvature,
    static_residual,
    to_arclength,
    unit_sphere_area,
    warped_curvature,
)
from .models import (
    SdSParams,
    admissible_mass_bound,
    anti_de_sitter,
    by_name,
    de_sitter,
    nariai,
    schwarzschild_de_sitter,
)
from .report import IdentityReport

__all__ = [
    "BoundaryComponent",
    "Branch",
    "Extremum",
    "IdentityReport",
    "RadialProfile",
    "SdSParams",
    "SphereData",
    "StaticTriple",
    "admissible_mass_bound",
    "anti_de_sitter",
    "boundary_scalar_curvature",
    "by_name",
    "de_sitter",
    "nariai",
    "schwarzschild_de_sitter",
    "static_residual",
    "to_arclength",
    "unit_sphere_area",
    "warped_curvature",
]
