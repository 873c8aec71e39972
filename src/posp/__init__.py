"""Shortest paths under partially ordered weights.

The package models path weights drawn from an arbitrary partial order: an
instance pairs a digraph (loops allowed, parallel arcs not) with a weight
space — a comparator, an arc-indexed update function, and an initial weight.
Solvers compute, per vertex, the frontier of efficient source paths; checkers
probe the structural conditions the correctness guarantees rest on; the
selection table maps declared conditions to the algorithms they justify.
"""

from .core import (
    ALL_PROPERTIES,
    ARC_INCREASING,
    Arc,
    BudgetExceededError,
    ComparisonResult,
    CYCLE_INCREASING,
    CYCLE_NON_DECREASING,
    DomainMismatchError,
    EQUAL,
    FIRST,
    GREATER,
    HISTORY_FREE,
    INCOMPARABLE,
    INDEPENDENT,
    Instance,
    Label,
    LEO_MONOTONE,
    LESS,
    LeoMonotonicityError,
    MissingUpdateEntryError,
    MU_BOUNDED,
    NoLeoError,
    PARTIAL_ORDER,
    PospError,
    QUASI_TRANSITIVE,
    SECOND,
    SUBPATH_OPTIMAL,
    ValidationError,
    WEAKLY_INDEPENDENT,
    WEAKLY_SUBPATH_OPTIMAL,
    WELL_POSED,
    WeightSpace,
    build_instance,
    fold_weight,
    leo_pick,
    reconstruct_path,
)
from .algorithms import (
    CONVERGED,
    GUARD_HIT,
    SolveMode,
    SolveResult,
    SolveStats,
    bellman_solve,
    brute_force_frontier,
    enumerate_source_paths,
    enumeration_budget,
    mda_solve,
    merge,
    nondominated_weights,
)
from .conditions import (
    ConditionReport,
    DEFAULT_DEPTH,
    IMPLICATIONS,
    PropertySet,
    RowEvaluation,
    TABLE_ROWS,
    TableRow,
    check_history_free,
    check_independence,
    check_linear_extension,
    check_monotonicity,
    check_subpath_optimality,
    evaluate_table,
    mda_leo_justified,
    permitted_algorithms,
    recommend_algorithm,
)
from .cli import main, parse_instance

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled example instance document."""
    from importlib.resources import files

    return files(__name__).joinpath("fixtures", name)
