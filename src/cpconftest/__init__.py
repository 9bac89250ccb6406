"""Conformance testing for constraint programs.

Parse a reference model and a program under test, ground them on an
instance, and either search for a non-conformity witness or certify the
program for that instance under one of four relations (one, all, bounds,
best).
"""

from .conformity import (
    CheckOptions,
    ValidationReport,
    Verdict,
    check,
    expand_witness,
    ground_pair,
    validate_witness,
)
from .errors import (
    CpconfError,
    EvaluationError,
    GroundingError,
    ParseError,
    UsageError,
)
from .grounding import build_instance, evaluate_ground, ground
from .parser import parse_data, parse_data_file, parse_model, parse_model_file, pretty_print
from .solver import SearchConfig, solve, solve_optimal
from .transform import ac_equal, canonical_key, negate

__version__ = "0.1.0"

__all__ = [
    "CheckOptions",
    "CpconfError",
    "EvaluationError",
    "GroundingError",
    "ParseError",
    "SearchConfig",
    "UsageError",
    "ValidationReport",
    "Verdict",
    "ac_equal",
    "build_instance",
    "canonical_key",
    "check",
    "evaluate_ground",
    "expand_witness",
    "ground",
    "ground_pair",
    "negate",
    "parse_data",
    "parse_data_file",
    "parse_model",
    "parse_model_file",
    "pretty_print",
    "solve",
    "solve_optimal",
    "validate_witness",
    "__version__",
]
