"""Budget-feasible multi-unit procurement mechanisms with exact verification."""

from .core import (
    Instance,
    MalformedValuation,
    NoThreshold,
    Outcome,
    ProcurementError,
    Rat,
    SearchSpaceTooLarge,
    Seller,
    WrongValuationClass,
    format_rat,
    is_budget_feasible,
    parse_rat,
    unit_vector,
    utility,
)
from .valuations import (
    Additive,
    BoundedKnapsack,
    ConcaveAdditive,
    Explicit,
    Symmetric,
    classify,
    demand,
)

__all__ = [
    "Additive",
    "BoundedKnapsack",
    "ConcaveAdditive",
    "Explicit",
    "Instance",
    "MalformedValuation",
    "NoThreshold",
    "Outcome",
    "ProcurementError",
    "Rat",
    "SearchSpaceTooLarge",
    "Seller",
    "Symmetric",
    "WrongValuationClass",
    "classify",
    "demand",
    "format_rat",
    "is_budget_feasible",
    "parse_rat",
    "unit_vector",
    "utility",
]

__version__ = "0.1.0"
