"""Exact domain types for procurement games.

A procurement game has m sellers, each offering up to ``units`` copies of
their item at a private per-unit cost, one buyer with a hard ``budget``,
and a valuation over allocations.  Every cost, value, payment, and
threshold in this package is an exact rational.  Floating point appears
in three places: the lottery probabilities; the harmonic payment caps and
the expected-payment check, both checked with ``verify.BUDGET_SLACK``; and
``m_rand``'s acceptance factor, checked with
``mech_subadditive.ACCEPT_EPS``.  Deciding these exactly is ROADMAP item 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm, log

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


def refuse_over(count: int, limit: int, message: str) -> None:
    """The rule of every work guard: SearchSpaceTooLarge when ``count``
    exceeds ``limit``, with ``message`` formatted with both.  A count below
    10^100 is written in full and a larger one as ``over 10^100``, so no
    message writes out an unbounded count (str() refuses past 4,300 digits).
    """
    if count > limit:
        written = str(count) if count < 10**100 else "over 10^100"
        raise SearchSpaceTooLarge(message.format(count=written, limit=limit))


class NoThreshold(ProcurementError):
    """Threshold queried for a unit the allocation rule never buys."""


class InvalidField(ValueError):
    """An Instance field breaks its invariant; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


# Largest total unit count an Instance accepts.  The greedy ranks a bid
# profile once, one object per unit, and prices every unit from that ranking
# in O(n log n) integer steps.  The guard bounds what stays quadratic in n:
# greedy_breakpoints forms one rank crossing per (own unit, rival unit), at
# most (10^4 / 2)^2 = 2.5 * 10^7 rationals, and the deviation grid on them.
MAX_TOTAL_UNITS = 10**4

# Literals must stay below this in magnitude, so that every float taken of a
# budget, a harmonic cap, or a value or payment sum over MAX_TOTAL_UNITS
# units stays finite (floats overflow near 1.8e308).
RAT_LITERAL_LIMIT = 10**300

_RAT_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rat(text: str):
    """Parse ``"p/q"`` or ``"p"`` into an exact rational.

    The sign may appear on the numerator only; the denominator must be a
    positive integer.  Anything else (floats, whitespace inside, signs on
    the denominator), any non-string input, and any literal of magnitude
    RAT_LITERAL_LIMIT or more are rejected with ValueError.
    """
    m = _RAT_RE.match(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = int(m.group(1)), int(m.group(2) or 1)
    if abs(num) >= RAT_LITERAL_LIMIT * den:
        raise ValueError("rational literal too large: magnitude must be below 10^300")
    return Rat(num, den)


def format_rat(q) -> str:
    """Format an exact rational as ``"p/q"``, or ``"p"`` when integral."""
    return str(Rat(q))


def scaled(values) -> tuple:
    """``(scale, ints)``: the rationals as integers over one scale.

    ``scale`` is the lcm of their denominators, the smallest scale that
    makes every one an integer, and ``ints[k]`` is ``values[k] * scale``.
    This is the package's one exact-integer rule.  Scaling every side of a
    comparison, sum or ratio by the same positive constant keeps its
    outcome, so any common scale decides it as the rationals would.
    ``math.lcm`` takes ``gmpy2`` denominators too (``mpz``).
    """
    values = tuple(values)
    scale = lcm(*(q.denominator for q in values))
    return scale, [q.numerator * (scale // q.denominator) for q in values]


def harmonic_factor(n: int) -> float:
    """1 + ln n, the float bound on the harmonic number H_n."""
    return 1.0 + log(n)


def affordable_count(units: int, budget, bid) -> int:
    """min(units, floor(budget / bid)); a zero bid affords the full supply.

    Exact for rationals and for ints; ``int`` keeps a ``gmpy2`` ``mpz``
    out of allocations.
    """
    return units if bid == 0 else min(units, int(budget // bid))


# An allocation is a tuple of per-seller unit counts.
Alloc = tuple


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
    unit caps; this is checked at construction.  ``units``, ``costs`` and
    ``total_units`` are derived from the sellers once, at construction.
    ``_unit_values``, the same sellers and budget with every unit worth 1,
    is built on first use and kept on the instance; like the valuations'
    integer forms it is a ``functools.cached_property``, not a field, so
    equality, hash, repr and serialization ignore it.
    Instances are immutable and safe to share across threads.
    """

    sellers: tuple
    budget: object
    valuation: object
    units: tuple = field(init=False, repr=False, compare=False)
    costs: tuple = field(init=False, repr=False, compare=False)
    total_units: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sellers = tuple(self.sellers)
        object.__setattr__(self, "sellers", sellers)
        object.__setattr__(self, "budget", Rat(self.budget))
        object.__setattr__(self, "units", tuple(s.units for s in sellers))
        object.__setattr__(self, "costs", tuple(s.cost for s in sellers))
        object.__setattr__(self, "total_units", sum(self.units))
        if len(self.sellers) < 1:
            raise InvalidField("sellers", "instance needs at least one seller")
        if self.budget <= 0:
            raise InvalidField("budget", "budget must be positive")
        refuse_over(
            self.total_units, MAX_TOTAL_UNITS, "{count} units in total exceed the limit {limit}"
        )
        self.valuation.check_units(self.units)

    @property
    def m(self) -> int:
        return len(self.sellers)

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
        """Exact valuation of an allocation, validated against unit caps.

        The caps lie in the valuation's downward-closed domain (checked at
        construction), so a validated allocation needs no second check.
        """
        self.validate_allocation(alloc)
        valuation = self.valuation
        return Rat(valuation.ivalue(tuple(alloc)), valuation.scale)

    @cached_property
    def _unit_values(self) -> "Instance":
        from .valuations import BoundedKnapsack  # valuations imports core

        return Instance(self.sellers, self.budget, BoundedKnapsack((1,) * self.m))

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
            # Sign tests on the numerator: an int comparison, not a rational one.
            if p.numerator < 0:
                raise ValueError(f"payment[{i}] negative")
            if a == 0 and p.numerator != 0:
                raise ValueError(f"payment[{i}] nonzero without allocation")

    @property
    def total_payment(self):
        return sum(self.payments, Rat(0))


def checked_bids(inst: Instance, bids):
    """A bid profile as exact rationals; None stands for truthful bids."""
    if bids is None:
        return inst.costs
    bids = tuple(b if type(b) is Rat else Rat(b) for b in bids)
    if len(bids) != inst.m:
        raise ValueError("bid profile length mismatch")
    if any(b.numerator < 0 for b in bids):
        raise ValueError("bids must be >= 0")
    return bids


def utility(outcome: Outcome, true_costs, i: int):
    """Seller i's exact utility: payment minus incurred cost.

    A seller with no units has no cost, and ``Outcome`` holds its payment
    at zero, so that payment is its utility, with no rational arithmetic.
    """
    if not 0 <= i < len(outcome.allocation):
        raise IndexError(f"seller index {i} out of range")
    a = outcome.allocation[i]
    if a == 0:
        return outcome.payments[i]
    # Rational times int takes the rational's forward operator.
    return outcome.payments[i] - true_costs[i] * a


def is_budget_feasible(outcome: Outcome, budget) -> bool:
    """True iff the total payment does not exceed the budget (exact)."""
    return outcome.total_payment <= budget
