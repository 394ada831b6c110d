"""Greedy value-rate lottery mechanism for concave additive valuations.

The greedy branch ranks (seller, unit) pairs by marginal value per unit of
bid, buys the longest prefix whose last pair still satisfies the
proportional budget-share inequality, and pays each bought unit its exact
critical bid.  A three-way lottery mixes this branch with buying one unit
from the highest-margin seller at the full budget, and buying nothing.

The symmetric-valuation variant is the same greedy with every unit worth 1:
it ranks units by bid alone, buys the longest prefix with bid <= budget/rank,
and pays the same closed-form thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Instance,
    NoThreshold,
    Outcome,
    Rat,
    WrongValuationClass,
    checked_bids,
    unit_vector,
)
from .valuations import BoundedKnapsack, ConcaveAdditive, Symmetric


@dataclass(frozen=True)
class RankedPair:
    """One unit of one seller in the greedy ranking."""

    seller: int  # 0-based
    unit: int  # 1-based
    value: object  # marginal value of this unit
    bid: object  # the seller's announced per-unit cost

    def sort_key(self):
        # Infinite-rate pairs first, then rate decreasing, ties by (i, j).
        if self.bid == 0:
            return (0, 0, self.seller, self.unit)
        return (1, -(self.value / self.bid), self.seller, self.unit)


def _require_additive(inst: Instance):
    if not isinstance(inst.valuation, (BoundedKnapsack, ConcaveAdditive)):
        raise WrongValuationClass(
            "mechanism requires a concave additive or bounded-knapsack valuation"
        )


def _positive_margins(inst: Instance):
    """Per-seller margin lists with zero-value units stripped.

    Requires a concave additive (or bounded-knapsack) valuation, where
    zero margins always form a suffix of each item's list.
    """
    _require_additive(inst)
    return [[x for x in mm if x > 0] for mm in inst.valuation.margins(inst.units)]


def ranked_pairs(inst: Instance, bids=None, exclude=None):
    """All positive-value (seller, unit) pairs in greedy rank order."""
    bids = checked_bids(inst, bids)
    margs = _positive_margins(inst)
    pairs = [
        RankedPair(i, j, mm[j - 1], bids[i])
        for i, mm in enumerate(margs)
        if i != exclude
        for j in range(1, len(mm) + 1)
    ]
    pairs.sort(key=RankedPair.sort_key)
    return pairs


def greedy_allocate(inst: Instance, bids=None):
    """Allocation bought by the greedy branch under the given bids."""
    bids = checked_bids(inst, bids)
    pairs = ranked_pairs(inst, bids)
    budget = inst.budget
    prefix = Rat(0)
    k = 0
    for rank, pr in enumerate(pairs, start=1):
        prefix += pr.value
        # bid/value <= B/prefix, cross-multiplied to stay exact.
        if pr.bid * prefix <= budget * pr.value:
            k = rank
    counts = [0] * inst.m
    for pr in pairs[:k]:
        counts[pr.seller] += 1
    return tuple(counts)


def threshold(inst: Instance, i: int, j: int, bids=None):
    """Exact critical bid for seller i's j-th unit in the greedy branch.

    Bidding below the returned value keeps the unit bought, bidding above
    loses it.  Raises NoThreshold when the unit is not bought under the
    given bids (including zero-value units stripped before ranking).
    """
    bids = checked_bids(inst, bids)
    margs = _positive_margins(inst)
    if not 0 <= i < inst.m:
        raise IndexError(f"seller index {i} out of range")
    if not 1 <= j <= len(margs[i]):
        raise NoThreshold(f"unit {j} of seller {i} is never bought")
    if greedy_allocate(inst, bids)[i] < j:
        raise NoThreshold(
            f"unit {j} of seller {i} is not bought under these bids"
        )
    v_ij = margs[i][j - 1]
    own_prefix = sum(margs[i][:j], Rat(0))
    others = ranked_pairs(inst, bids, exclude=i)
    count = len(others)
    others_prefix = [Rat(0)]
    for pr in others:
        others_prefix.append(others_prefix[-1] + pr.value)

    def crossing(alpha):
        # Largest bid placing the unit after the alpha-th foreign pair.
        pr = others[alpha - 1]
        return v_ij * pr.bid / pr.value

    budget = inst.budget
    for alpha in range(count, -1, -1):
        t_in = v_ij * budget / (own_prefix + others_prefix[alpha])
        t_rank = crossing(alpha) if alpha >= 1 else Rat(0)
        if t_in < t_rank:
            continue
        t_next = crossing(alpha + 1) if alpha + 1 <= count else None
        if t_next is None or t_in <= t_next:
            return t_in
        return t_next
    raise AssertionError("threshold scan fell through")  # pragma: no cover


def greedy_payments(inst: Instance, bids=None):
    """Threshold payments for the greedy-branch allocation."""
    bids = checked_bids(inst, bids)
    alloc = greedy_allocate(inst, bids)
    return alloc, tuple(
        sum((threshold(inst, i, j, bids) for j in range(1, a + 1)), Rat(0))
        for i, a in enumerate(alloc)
    )


def star_seller(inst: Instance) -> int:
    """Seller whose first unit has the highest marginal value (lowest index wins)."""
    _require_additive(inst)
    firsts = [mm[0] for mm in inst.valuation.margins(inst.units)]
    best = 0
    for i, x in enumerate(firsts):
        if x > firsts[best]:
            best = i
    return best


def _posted_branch(inst: Instance, branch: str) -> Outcome:
    """The branches that ignore bids: star buys the star seller's first unit
    at price B, bot buys nothing."""
    if branch == "star":
        i = star_seller(inst)
        payments = [Rat(0)] * inst.m
        payments[i] = inst.budget
        return Outcome(unit_vector(inst.m, i), tuple(payments))
    if branch == "bot":
        return inst.empty_outcome()
    raise ValueError(f"unknown branch {branch!r}")


def run_m_add(inst: Instance, bids, branch: str) -> Outcome:
    """One deterministic branch of the concave-additive lottery mechanism."""
    _require_additive(inst)  # class check even on the branches ignoring bids
    if branch == "greedy":
        return Outcome(*greedy_payments(inst, bids))
    return _posted_branch(inst, branch)


# Symmetric variant: units are interchangeable, so the greedy runs on the
# instance with every unit worth 1.  The rate order is then bid ascending,
# ties by (seller, unit), and the prefix value is the rank: keep a unit while
# bid * rank <= B.


def unit_values(inst: Instance) -> Instance:
    """The symmetric instance with every unit of every seller worth 1."""
    if not isinstance(inst.valuation, Symmetric):
        raise WrongValuationClass("mechanism requires a symmetric valuation")
    return Instance(inst.sellers, inst.budget, BoundedKnapsack((1,) * inst.m))


def sym_allocate(inst: Instance, bids=None):
    """Buy the longest cheap prefix: rank units by bid, keep while bid <= B/rank."""
    return greedy_allocate(unit_values(inst), bids)


def sym_threshold(inst: Instance, i: int, j: int, bids=None):
    """Critical bid for seller i's j-th unit under the symmetric rule."""
    return threshold(unit_values(inst), i, j, bids)


def sym_payments(inst: Instance, bids=None):
    bids = checked_bids(inst, bids)
    alloc = sym_allocate(inst, bids)
    return alloc, tuple(
        sum((sym_threshold(inst, i, j, bids) for j in range(1, a + 1)), Rat(0))
        for i, a in enumerate(alloc)
    )


def run_m_sym(inst: Instance, bids, branch: str) -> Outcome:
    """One deterministic branch of the symmetric-valuation lottery mechanism."""
    view = unit_values(inst)  # class check even on the branches ignoring bids
    if branch == "greedy":
        return Outcome(*sym_payments(inst, bids))
    return _posted_branch(view, branch)
