"""Rank-reversal manipulation analysis for pairwise comparison matrices.

Given a pairwise comparison matrix, this package finds the closest
matrix (in Frobenius distance) whose induced weights tie two chosen
alternatives, measures the ease of that manipulation, and produces the
arbitrarily small extra perturbation that tips the tie either way.
"""

from .core import (
    AdditivePcm,
    DEFAULT_TOLERANCES,
    MultiplicativePcm,
    Ranking,
    Tolerances,
    additive_weights,
    frobenius_distance,
    gmm_weights,
    normalize_weights,
    ranking_of,
    to_additive,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)
from .errors import PcmError
from .manipulation import (
    ManipulationReport,
    ManipulationVerdict,
    PairScanTable,
    TipResult,
    abs_difference,
    emi,
    max_changed_entries,
    pair_report,
    scan_all_pairs,
    tip_pair,
    verify_manipulation,
)
from .projection import (
    ProjectionResult,
    hyperplane_oracle_project,
    project_to_tie,
    relabel_pair,
)
from .tiespace import (
    AlternativePair,
    is_tie_equating,
    tie_gap,
    tie_space_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "AdditivePcm",
    "AlternativePair",
    "DEFAULT_TOLERANCES",
    "ManipulationReport",
    "ManipulationVerdict",
    "MultiplicativePcm",
    "PairScanTable",
    "PcmError",
    "ProjectionResult",
    "Ranking",
    "TipResult",
    "Tolerances",
    "abs_difference",
    "additive_weights",
    "emi",
    "frobenius_distance",
    "gmm_weights",
    "hyperplane_oracle_project",
    "is_tie_equating",
    "max_changed_entries",
    "normalize_weights",
    "pair_report",
    "project_to_tie",
    "ranking_of",
    "relabel_pair",
    "scan_all_pairs",
    "tie_gap",
    "tie_space_dimension",
    "tip_pair",
    "to_additive",
    "to_multiplicative",
    "validate_additive",
    "validate_multiplicative",
    "verify_manipulation",
]
