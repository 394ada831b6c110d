"""Exact domain types for procurement games.

A procurement game has m sellers, each offering up to ``units`` copies of
their item at a private per-unit cost, one buyer with a hard ``budget``,
and a valuation over allocations.  Every cost, value, payment, and
threshold in this package is an exact rational; floating point appears
only in lottery probabilities (which involve logarithms).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import log

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat


class ProcurementError(Exception):
    """Base class for domain errors raised by this package."""


class MalformedValuation(ProcurementError):
    """A valuation table or margin list violates its invariants."""


class WrongValuationClass(ProcurementError):
    """A mechanism was handed a valuation outside its supported class."""


class SearchSpaceTooLarge(ProcurementError):
    """An exhaustive enumeration or DP would exceed the desk-scale guard."""


class NoThreshold(ProcurementError):
    """Threshold queried for a unit the allocation rule never buys."""


_RAT_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rat(text: str):
    """Parse ``"p/q"`` or ``"p"`` into an exact rational.

    The sign may appear on the numerator only; the denominator must be a
    positive integer.  Anything else (floats, whitespace inside, signs on
    the denominator) and any non-string input are rejected with ValueError.
    """
    m = _RAT_RE.match(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.group(1), m.group(2)
    return Rat(int(num), int(den) if den else 1)


def format_rat(q) -> str:
    """Format an exact rational as ``"p/q"``, or ``"p"`` when integral."""
    return str(Rat(q))


def ifloor(q) -> int:
    """Exact floor of a rational, as a Python int."""
    return int(q.numerator // q.denominator)


def harmonic_factor(n: int) -> float:
    """1 + ln n, the float bound on the harmonic number H_n."""
    return 1.0 + log(n)


# An allocation is a tuple of per-seller unit counts.
Alloc = tuple


def join(a: Alloc, b: Alloc) -> Alloc:
    """Item-wise max of two allocations of equal length."""
    if len(a) != len(b):
        raise ValueError(f"allocation length mismatch: {len(a)} vs {len(b)}")
    return tuple(x if x >= y else y for x, y in zip(a, b))


def meet(a: Alloc, b: Alloc) -> Alloc:
    """Item-wise min of two allocations of equal length."""
    if len(a) != len(b):
        raise ValueError(f"allocation length mismatch: {len(a)} vs {len(b)}")
    return tuple(x if x <= y else y for x, y in zip(a, b))


def unit_vector(m: int, i: int, count: int = 1) -> Alloc:
    """Allocation taking ``count`` units from seller ``i`` and nothing else."""
    return tuple(count if j == i else 0 for j in range(m))


@dataclass(frozen=True)
class Seller:
    """One seller: a supply cap and a true per-unit cost."""

    units: int
    cost: object

    def __post_init__(self):
        object.__setattr__(self, "cost", Rat(self.cost))
        if self.units < 1:
            raise ValueError(f"seller units must be >= 1, got {self.units}")
        if self.cost < 0:
            raise ValueError(f"seller cost must be >= 0, got {self.cost}")


@dataclass(frozen=True)
class Instance:
    """A complete procurement game: sellers, budget, and valuation.

    The valuation must be defined on every allocation within the sellers'
    unit caps; this is checked at construction.  Instances are immutable
    and safe to share across threads.
    """

    sellers: tuple
    budget: object
    valuation: object

    def __post_init__(self):
        object.__setattr__(self, "sellers", tuple(self.sellers))
        object.__setattr__(self, "budget", Rat(self.budget))
        if len(self.sellers) < 1:
            raise ValueError("instance needs at least one seller")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        self.valuation.check_units(self.units)

    @property
    def m(self) -> int:
        return len(self.sellers)

    @property
    def units(self) -> tuple:
        return tuple(s.units for s in self.sellers)

    @property
    def costs(self) -> tuple:
        return tuple(s.cost for s in self.sellers)

    @property
    def total_units(self) -> int:
        return sum(s.units for s in self.sellers)

    def validate_allocation(self, alloc: Alloc) -> None:
        if len(alloc) != self.m:
            raise ValueError(
                f"allocation length {len(alloc)} != seller count {self.m}"
            )
        for i, (a, s) in enumerate(zip(alloc, self.sellers)):
            if not 0 <= a <= s.units:
                raise ValueError(
                    f"allocation[{i}] = {a} outside [0, {s.units}]"
                )

    def value(self, alloc: Alloc):
        """Exact valuation of an allocation, validated against unit caps."""
        self.validate_allocation(alloc)
        return self.valuation.value(alloc)

    def empty_outcome(self) -> "Outcome":
        zero = Rat(0)
        return Outcome((0,) * self.m, (zero,) * self.m)


@dataclass(frozen=True)
class Outcome:
    """An allocation paired with a payment profile.

    Payments are non-negative and a seller with no allocated units is paid
    nothing; both invariants hold for every mechanism in this package and
    are enforced at construction.
    """

    allocation: tuple
    payments: tuple

    def __post_init__(self):
        if len(self.allocation) != len(self.payments):
            raise ValueError("allocation/payment length mismatch")
        for i, (a, p) in enumerate(zip(self.allocation, self.payments)):
            if a < 0:
                raise ValueError(f"allocation[{i}] negative")
            if p < 0:
                raise ValueError(f"payment[{i}] negative")
            if a == 0 and p != 0:
                raise ValueError(f"payment[{i}] nonzero without allocation")

    @property
    def total_payment(self):
        return sum(self.payments, Rat(0))


def checked_bids(inst: Instance, bids):
    """A bid profile as exact rationals; None stands for truthful bids."""
    if bids is None:
        return inst.costs
    bids = tuple(Rat(b) for b in bids)
    if len(bids) != inst.m:
        raise ValueError("bid profile length mismatch")
    if any(b < 0 for b in bids):
        raise ValueError("bids must be >= 0")
    return bids


def utility(outcome: Outcome, true_costs, i: int):
    """Seller i's exact utility: payment minus incurred cost."""
    if not 0 <= i < len(outcome.allocation):
        raise IndexError(f"seller index {i} out of range")
    return outcome.payments[i] - outcome.allocation[i] * true_costs[i]


def is_budget_feasible(outcome: Outcome, budget) -> bool:
    """True iff the total payment does not exceed the budget (exact)."""
    return outcome.total_payment <= budget
