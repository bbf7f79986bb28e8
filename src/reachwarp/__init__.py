"""Directional reachable-set growth analysis for linear time-invariant systems.

The package computes boundary points of reachable sets through the
closed-form adjoint of linear dynamics, measures how far controls push the
set along a chosen direction, and selects the input matrix from an
admissible Frobenius ball that extremizes that growth.
"""

import os

# One BLAS thread: every product here is small, and on a 2-vCPU host the
# hand-off to a second OpenBLAS thread costs milliseconds per call (a 2x2
# expm takes about 8 ms instead of 20 us).  setdefault keeps a value the
# caller set, and it takes effect only if numpy and scipy are not loaded yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (ConfigError, DimensionError, DomainError, GeometryError,
                     NumericError, PreconditionError, ReachwarpError)
from .linalg import SpectrumReport, eigvec_residual, mat_exp, spectrum, unit_direction
from .model import (ControlPolytope, FrobeniusBall, LinearSystem, ball_argmax,
                    ball_contains, box_polytope, vertex_polytope)
from .reach import (BoundaryPoint, CostatePath, GrowthReport, boundary_point,
                    boundary_sweep, costate_path, direction_fan, growth_metric,
                    support_oracle, zero_input_endpoint)
from .warp import (AssumptionReport, Candidate, WarpResult, check_assumptions,
                   initial_costate, optimize_B)
from .verify import SampleVerdict, sample_ball, verify_optimality
from .config import ProblemConfig, Tolerances, load_config, parse_config
from .fixtures import fixture_config, fixture_description, fixture_names

__version__ = "0.1.0"

__all__ = [
    "ReachwarpError", "DimensionError", "DomainError", "GeometryError",
    "PreconditionError", "NumericError", "ConfigError",
    "SpectrumReport", "mat_exp", "spectrum", "eigvec_residual",
    "LinearSystem", "ControlPolytope", "FrobeniusBall", "box_polytope",
    "vertex_polytope", "ball_argmax", "ball_contains", "unit_direction",
    "CostatePath", "costate_path", "BoundaryPoint", "GrowthReport",
    "boundary_point", "boundary_sweep",
    "zero_input_endpoint", "growth_metric", "direction_fan", "support_oracle",
    "AssumptionReport", "Candidate", "WarpResult", "initial_costate",
    "check_assumptions", "optimize_B",
    "SampleVerdict", "sample_ball", "verify_optimality",
    "ProblemConfig", "Tolerances", "load_config", "parse_config",
    "fixture_names", "fixture_description", "fixture_config",
    "__version__",
]
