"""Series solution for a doubly-periodic hexagonally perforated elastic plane.

Modules:
    lattice     hexagonal geometry, chiral angle, point folding, lattice sums
    elliptic    Weierstrass p / zeta and the Natanzon function: oracles, not imported here
    solver      truncated linear systems for the potential coefficients
    fields      total stresses and displacements, boundary checks
    homogenize  bond <-> effective moduli conversion
    cli         batch front end (`hexlat` command)
"""

__version__ = "1.0.0"

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    HexlatError,
    InvalidArgumentError,
    NumericalError,
    PoleError,
    PrecisionError,
)
from .lattice import (
    LatticeSpec,
    LatticeSums,
    build_lattice,
    chiral_angle,
    compute_lattice_sums,
    lattice_from_alpha,
)
from .solver import (
    LoadCase,
    PotentialCoefficients,
    ProblemSpec,
    SeriesTables,
    series_tables,
    solve_coefficients,
    unit_load_coefficients,
)
from .fields import (
    CellGeometry,
    FieldSample,
    boundary_residual,
    isolated_hole_reference,
    total_displacement,
    total_stress,
)
from .homogenize import (
    HomogenizationData,
    bond_from_effective,
    effective_from_bond,
    homogenization_data,
    isotropy_check,
)

__all__ = [
    "__version__",
    "HexlatError",
    "InvalidArgumentError",
    "ConfigurationError",
    "DomainError",
    "PoleError",
    "PrecisionError",
    "NumericalError",
    "ConsistencyError",
    "LatticeSpec",
    "LatticeSums",
    "build_lattice",
    "lattice_from_alpha",
    "chiral_angle",
    "compute_lattice_sums",
    "LoadCase",
    "ProblemSpec",
    "SeriesTables",
    "PotentialCoefficients",
    "series_tables",
    "solve_coefficients",
    "unit_load_coefficients",
    "FieldSample",
    "CellGeometry",
    "total_stress",
    "total_displacement",
    "boundary_residual",
    "isolated_hole_reference",
    "HomogenizationData",
    "homogenization_data",
    "bond_from_effective",
    "effective_from_bond",
    "isotropy_check",
]
