"""Non-strategic benchmarks: exact budget-constrained optima and worst-case instances.

The optimum oracle solves max V(A) subject to sum(a_i * c_i) <= B exactly.
Additive families go through a grouped knapsack DP over integer-scaled
costs; other families enumerate the capped domain.  Both paths break ties
toward the lexicographically smallest allocation, so they are directly
comparable in tests.
"""

from __future__ import annotations

from math import lcm

from .core import Instance, Rat, SearchSpaceTooLarge, Seller
from .valuations import (
    ADDITIVE_FAMILIES,
    BoundedKnapsack,
    domain,
    domain_size,
    recall,
    remember,
)

ENUM_LIMIT = 10**6
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
    units = inst.units
    size = domain_size(units)
    if size > ENUM_LIMIT:
        raise SearchSpaceTooLarge(
            f"optimum enumeration over {size} allocations exceeds the guard"
        )
    costs, budget = inst.costs, inst.budget
    best, best_v = None, None
    for alloc in domain(units):
        if sum((a * c for a, c in zip(alloc, costs)), Rat(0)) > budget:
            continue
        v = inst.valuation.value(alloc)
        if best is None or v > best_v:
            best, best_v = alloc, v
    return best, best_v


def _optimal_additive_dp(inst: Instance):
    units = inst.units
    margs = inst.valuation.margins(units)
    costs, budget = inst.costs, inst.budget
    m = inst.m
    scale = lcm(budget.denominator, *(c.denominator for c in costs))
    weights = []
    for c in costs:
        q = c * scale
        weights.append(int(q.numerator))
    cap_q = budget * scale
    cap = int(cap_q.numerator // cap_q.denominator)
    if (m + 1) * (cap + 1) > DP_CELL_LIMIT:
        raise SearchSpaceTooLarge(
            f"knapsack DP table of {(m + 1) * (cap + 1)} cells exceeds the guard"
        )

    prefix = []
    for i in range(m):
        row = [Rat(0)]
        for v in margs[i][: units[i]]:
            row.append(row[-1] + v)
        prefix.append(row)

    zero = Rat(0)
    # suffix[i][b]: best value from sellers i.. with integerized budget b.
    suffix = [[zero] * (cap + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        nxt, cur = suffix[i + 1], suffix[i]
        w, pref = weights[i], prefix[i]
        top = units[i]
        for b in range(cap + 1):
            best = nxt[b]
            for a in range(1, top + 1):
                spend = a * w
                if spend > b:
                    break
                cand = pref[a] + nxt[b - spend]
                if cand > best:
                    best = cand
            cur[b] = best

    opt = suffix[0][cap]
    counts = []
    b = cap
    got = zero
    for i in range(m):
        for a in range(units[i] + 1):
            spend = a * weights[i]
            if spend > b:
                break
            if got + prefix[i][a] + suffix[i + 1][b - spend] == opt:
                counts.append(a)
                got += prefix[i][a]
                b -= spend
                break
        else:  # pragma: no cover - DP reconstruction always succeeds
            raise AssertionError("knapsack reconstruction failed")
    return tuple(counts), opt


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
