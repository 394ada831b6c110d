"""Greedy value-rate lottery mechanism for concave additive valuations.

The greedy branch ranks (seller i, unit j) pairs ascending by (rho, i, j),
where rho = bid / marginal value (zero bids first), buys the longest prefix
whose last pair still satisfies the proportional budget-share inequality
bid * prefix <= B * value, and pays each bought unit its exact critical
bid.  A three-way lottery mixes this branch with buying one unit from the
highest-margin seller at the full budget, and buying nothing.

rho and the value prefix both grow along the ranking, so a pair is
bought iff its own inequality holds.  A bought unit of value v, whose
seller's units up to it are worth s, has critical bid
v * min over alpha of max(rho_alpha, B / (s + W_alpha)), where rho_alpha
is the bid/value of the alpha-th rival pair (rho_0 = 0, never decreasing)
and W_alpha is the value of the first alpha rival pairs.  The first term
rises with alpha and the second falls, so the minimum sits at the first
alpha where rho_alpha * (s + W_alpha) >= B or just before it, and a
bisection finds it: one ranking prices all of a seller's units in
O(n + units * log n) rational operations.

The symmetric-valuation variant is the same greedy on the instance with
every unit worth 1: it ranks units by bid, ties by (seller, unit), buys the
longest prefix whose last unit has bid * rank <= budget, and pays the same
closed-form thresholds.
"""

from __future__ import annotations

from typing import NamedTuple

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


class RankedPair(NamedTuple):
    """One unit of one seller in the greedy ranking; tuple order is rank order."""

    rho: object  # bid / value, exact
    seller: int  # 0-based
    unit: int  # 1-based
    value: object  # marginal value of this unit
    bid: object  # the seller's announced per-unit cost


def additive_reason(inst: Instance) -> str | None:
    """None if the greedy lottery applies to the valuation, else why not."""
    if isinstance(inst.valuation, (BoundedKnapsack, ConcaveAdditive)):
        return None
    return "requires a concave additive or bounded-knapsack valuation"


def symmetric_reason(inst: Instance) -> str | None:
    """None if the symmetric lottery applies to the valuation, else why not."""
    if isinstance(inst.valuation, Symmetric):
        return None
    return "requires a symmetric valuation"


def _require(reason: str | None) -> None:
    if reason is not None:
        raise WrongValuationClass(f"mechanism {reason}")


def ranked_pairs(inst: Instance, bids=None):
    """All positive-value (seller, unit) pairs in greedy rank order.

    Zero margins form a suffix of each list in the additive classes, so
    dropping them keeps every unit its number.
    """
    bids = checked_bids(inst, bids)
    _require(additive_reason(inst))
    pairs = [
        RankedPair(bids[i] / x, i, j, x, bids[i])
        for i, mm in enumerate(inst.valuation.margins(inst.units))
        for j, x in enumerate(mm, start=1)
        if x > 0
    ]
    pairs.sort()
    return pairs


def _bought(pairs, budget, m: int):
    """Units bought from each of the m sellers: the longest prefix of the
    ranked pairs whose last pair meets the budget-share inequality."""
    prefix = Rat(0)
    k = 0
    for rank, pr in enumerate(pairs, start=1):
        prefix += pr.value
        # bid/value <= B/prefix, cross-multiplied to stay exact.
        if pr.bid * prefix <= budget * pr.value:
            k = rank
    counts = [0] * m
    for pr in pairs[:k]:
        counts[pr.seller] += 1
    return tuple(counts)


def greedy_allocate(inst: Instance, bids=None):
    """Allocation bought by the greedy branch under the given bids."""
    return _bought(ranked_pairs(inst, bids), inst.budget, inst.m)


def _seller_thresholds(pairs, i: int, count: int, budget):
    """Critical bids of seller i's first ``count`` units, from one ranking."""
    if count == 0:
        return []
    rates, prefixes = [], [Rat(0)]  # rho_alpha for alpha >= 1, W_alpha for alpha >= 0
    for pr in pairs:
        if pr.seller != i:
            rates.append(pr.rho)
            prefixes.append(prefixes[-1] + pr.value)
    out = []
    share = Rat(0)
    for pr in pairs:
        if pr.seller != i:
            continue
        share += pr.value
        # Bisect for the first alpha with rho_alpha * (s + W_alpha) >= B;
        # lo ends at alpha - 1, or at len(rates) if no rival crosses.
        lo, hi = 0, len(rates)
        while lo < hi:
            mid = (lo + hi) // 2
            if rates[mid] * (share + prefixes[mid + 1]) >= budget:
                hi = mid
            else:
                lo = mid + 1
        best = budget / (share + prefixes[lo])
        if lo < len(rates):
            best = min(best, rates[lo])
        out.append(pr.value * best)
        if len(out) == count:
            break
    return out


def threshold(inst: Instance, i: int, j: int, bids=None):
    """Exact critical bid for seller i's j-th unit in the greedy branch.

    Bidding below the returned value keeps the unit bought, bidding above
    loses it.  Raises NoThreshold when the unit is not bought under the
    given bids (including zero-value units stripped before ranking).
    """
    pairs = ranked_pairs(inst, bids)
    if not 0 <= i < inst.m:
        raise IndexError(f"seller index {i} out of range")
    if not any(pr.seller == i and pr.unit == j for pr in pairs):
        raise NoThreshold(f"unit {j} of seller {i} is never bought")
    if _bought(pairs, inst.budget, inst.m)[i] < j:
        raise NoThreshold(f"unit {j} of seller {i} is not bought under these bids")
    return _seller_thresholds(pairs, i, j, inst.budget)[-1]


def greedy_payments(inst: Instance, bids=None):
    """Threshold payments for the greedy-branch allocation."""
    pairs = ranked_pairs(inst, bids)
    alloc = _bought(pairs, inst.budget, inst.m)
    return alloc, tuple(
        sum(_seller_thresholds(pairs, i, a, inst.budget), Rat(0))
        for i, a in enumerate(alloc)
    )


def greedy_breakpoints(inst: Instance, bids, seller: int) -> set:
    """Bids besides B/rank where the seller's greedy allocation can change:
    its rank crossings with every rival pair, and its bought units' critical
    bids."""
    pairs = ranked_pairs(inst, bids)
    rival_rates = [pr.rho for pr in pairs if pr.seller != seller]
    points = {
        po.value * rho for po in pairs if po.seller == seller for rho in rival_rates
    }
    bought = _bought(pairs, inst.budget, inst.m)[seller]
    points.update(_seller_thresholds(pairs, seller, bought, inst.budget))
    return points


def star_seller(inst: Instance) -> int:
    """Seller whose first unit has the highest marginal value (lowest index wins)."""
    _require(additive_reason(inst))
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
    _require(additive_reason(inst))  # class check even on the branches ignoring bids
    if branch == "greedy":
        return Outcome(*greedy_payments(inst, bids))
    return _posted_branch(inst, branch)


def unit_values(inst: Instance) -> Instance:
    """The symmetric instance with every unit of every seller worth 1."""
    _require(symmetric_reason(inst))
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
