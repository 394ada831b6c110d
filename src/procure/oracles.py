"""Non-strategic benchmarks: exact budget-constrained optima and worst-case instances.

The optimum oracle solves max V(A) subject to sum(a_i * c_i) <= B exactly,
in integers: costs and budget go through ``core.scaled``, values are the
valuation's own integer form, and only the optimum's value is rational.
Additive families go through a grouped knapsack DP on ``imargins`` that
keeps one row of best values and, per seller, the fewest units that reach
each cell's best, so the allocation is read back from those choices.
Other families enumerate the capped domain.  Both paths break ties toward
the lexicographically smallest allocation, so they are comparable in tests.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .core import Instance, Rat, Seller, refuse_over, scaled
from .valuations import ADDITIVE_FAMILIES, BoundedKnapsack, domain, recall, remember

DP_CELL_LIMIT = 4 * 10**6


def optimal_allocation(inst: Instance):
    """Exact optimum (allocation, value) of the budget-constrained problem.

    Memoised in the valuation memo (see ``valuations.recall``) under the
    budget, units and costs, so mechanisms measured on one instance share
    one optimum.
    """
    valuation = inst.valuation
    key = ("optimum", inst.budget, inst.units, inst.costs)
    best = recall(valuation, key)
    if best is None:
        if isinstance(valuation, ADDITIVE_FAMILIES):
            best = _optimal_additive_dp(inst)
        else:
            best = _optimal_enum(inst)
        remember(valuation, key, best)
    return best


def _optimal_enum(inst: Instance):
    _, (budget, *costs) = scaled((inst.budget, *inst.costs))
    ivalue = inst.valuation.ivalue
    best, best_v = None, None
    for alloc in domain(inst.units):
        if sum(map(mul, alloc, costs)) > budget:
            continue
        v = ivalue(alloc)
        if best is None or v > best_v:
            best, best_v = alloc, v
    return best, Rat(best_v, inst.valuation.scale)


def _optimal_additive_dp(inst: Instance):
    m = inst.m
    _, (cap, *weights) = scaled((inst.budget, *inst.costs))
    refuse_over(
        (m + 1) * (cap + 1), DP_CELL_LIMIT, "knapsack DP table of {count} cells exceeds the guard"
    )
    margs = inst.valuation.imargins(inst.units)

    # best[b]: best scaled value from sellers i.. with integerized budget b.
    # picks[i][b]: the fewest units of seller i that reach it, so reading the
    # picks forward from seller 0 gives the lexicographically smallest optimum.
    best = [0] * (cap + 1)
    picks = [None] * m
    for i in range(m - 1, -1, -1):
        w, pref = weights[i], list(accumulate(margs[i], initial=0))
        cur, pick = best[:], [0] * (cap + 1)
        for b in range(cap + 1):
            top = cur[b]
            for a in range(1, len(pref)):
                spend = a * w
                if spend > b:
                    break
                cand = pref[a] + best[b - spend]
                if cand > top:
                    top, pick[b] = cand, a
            cur[b] = top
        best, picks[i] = cur, pick

    counts, b = [], cap
    for w, pick in zip(weights, picks):
        counts.append(pick[b])
        b -= pick[b] * w
    return tuple(counts), Rat(best[cap], inst.valuation.scale)


def adversarial_single_seller(n: int, budget, k: int) -> Instance:
    """Single-seller worst-case family: n unit-value units at cost B/k.

    No universally truthful budget-feasible mechanism beats a ln(n) ratio
    on this family, which makes it the standard bracket for measured ratios.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    b = Rat(budget)
    if b <= 0:
        raise ValueError("budget must be positive")
    return Instance(
        (Seller(n, b / k),),
        b,
        BoundedKnapsack((Rat(1),)),
    )
