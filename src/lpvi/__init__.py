"""Variational inequalities VI(C, B) on finite-dimensional lp spaces.

Find u in C with <Bu, j(v - u)> >= 0 for all v in C, via Picard iteration
of x -> Q(x - lambda * Bx) where Q is the sunny nonexpansive retraction
onto C and j the normalized duality map of (R^n, |.|_p), 1 < p < inf.
"""

from .errors import (ConfigError, DivergenceError, EstimationError,
                     EvaluationError, InvalidInputError, LpviError,
                     ResourceError, ShapeError, UnsupportedOracleError,
                     UnsupportedRetractionError, UnsupportedSpaceError)
from .maps import (Affine, BlackBox, Certificate, Feasibility,
                   FeasibilityReport, LipschitzEstimate, Mapping, PairSample,
                   ResidualOfContraction, SlackReport, certificate_feasibility,
                   check_relaxed_cocoercive, check_strongly_monotone,
                   draw_pairs, estimate_lipschitz, evaluate)
from .oracle import (GridSolution, GridSpec, PairingSweep,
                     check_pairing_inequality, grid_bounds, grid_vi_solve,
                     pairing_inequality_sweep)
from .sets import (Ball, Box, ConvexSet, Halfspace, RetractionMode,
                   RetractionSupport, WholeSpace, bounding_box, contains,
                   retract, retraction_support, sample_in_set,
                   verify_characterization, verify_sunny)
from .solver import (Certification, Problem, SolveReport, SolveStatus,
                     hilbert_factor_sq, hilbert_rule_factor,
                     hilbert_step_interval, picard_solve, select_lambda, solve,
                     strict_step_intervals, vi_residual)
from .spaces import (SpaceSpec, dual_exponent, duality_map, p_norm, pairing)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
