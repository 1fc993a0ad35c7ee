"""Selective lambda lifting on a small STG-like ANF calculus.

The package is a small compiler laboratory: a textual calculus with
thunks and entry-cardinality annotations, a decision engine that lifts
nested function groups to top level only when a conservative heap
estimate says it cannot increase allocation, and an interpreter whose
exact word counts check those predictions program by program.
"""

__version__ = "0.1.0"

from .analysis import cardinality, split_groups
from .lifter import (
    Decision,
    LiftConfig,
    LiftError,
    lift_program,
    liftable_sites,
    predicted_growth,
)
from .machine import (
    AllocStats,
    DEFAULT_FUEL,
    EvalError,
    SubsetTooLarge,
    enumerate_lift_subsets,
    evaluate,
    minimal_subset,
    render_value,
    value_key,
)
from .skeleton import closure_growth, skeleton_sexpr
from .syntax import (
    INF,
    Cardinality,
    ParseError,
    Program,
    ScopeError,
    Violation,
    freshen,
    parse,
    print_program,
    validate,
)
