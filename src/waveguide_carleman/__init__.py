"""Numerical laboratory for a waveguide heat equation with a potential of
the form q(t, x2) f(x1): forward solves, singular-weight systems, the
u -> v -> w -> z reduction chain, and quadrature-based checks of the
weighted inequalities that drive the stability analysis."""

from .grid import (
    FULL,
    WaveguideDomain,
    SpaceTimeGrid,
    ScalarField,
    build_grid,
    gradient,
    laplacian,
    time_derivative,
    normal_derivative,
    prefix_integral_x1,
    save_field,
    load_field,
)
from .weights import WeightParams, WeightSystem, make_psi1, make_psi2, assemble_weight
from .forward import PotentialSpec, BoundaryData, solve_heat, manufacture_pair, measurement
from .transform import TransformBundle, build_bundle
from .carleman import InequalityReport
from .stability import StabilityReport, assemble_stability, perturbation_sweep

__all__ = [
    "FULL",
    "WaveguideDomain",
    "SpaceTimeGrid",
    "ScalarField",
    "build_grid",
    "gradient",
    "laplacian",
    "time_derivative",
    "normal_derivative",
    "prefix_integral_x1",
    "save_field",
    "load_field",
    "WeightParams",
    "WeightSystem",
    "make_psi1",
    "make_psi2",
    "assemble_weight",
    "PotentialSpec",
    "BoundaryData",
    "solve_heat",
    "manufacture_pair",
    "measurement",
    "TransformBundle",
    "build_bundle",
    "InequalityReport",
    "StabilityReport",
    "assemble_stability",
    "perturbation_sweep",
]

__version__ = "0.1.0"
