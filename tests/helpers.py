"""Independent oracles used to cross-check mechanism internals."""

from itertools import product

from procure.core import NoThreshold, Rat, checked_bids
from procure.mech_additive import greedy_allocate, ranked_pairs


def threshold_by_search(sold, candidates):
    """Exact threshold of a monotone sold-below/lost-above bid predicate.

    ``candidates`` must contain every bid at which the predicate can flip;
    probes run strictly between consecutive candidates so ties never bite.
    """
    cands = sorted({Rat(c) for c in candidates if c > 0})
    if not cands or not sold(cands[0] / 2):
        raise NoThreshold("not sold at any positive bid")

    def sold_above(t: int) -> bool:
        probe = (
            cands[t] + 1 if t == len(cands) - 1 else (cands[t] + cands[t + 1]) / 2
        )
        return sold(probe)

    if sold_above(len(cands) - 1):
        raise AssertionError("candidate set misses a breakpoint")
    lo, hi = 0, len(cands) - 1  # invariant: sold_above(hi) is False
    while lo < hi:
        mid = (lo + hi) // 2
        if sold_above(mid):
            lo = mid + 1
        else:
            hi = mid
    return cands[lo]


def independent_threshold(inst, seller, unit, bids=None):
    """Exact critical bid for a greedy-branch unit, by probing the
    allocation rule over its breakpoint set.

    Candidates are the bids where the unit's rank can cross a rival pair
    and where its own prefix-share inequality can become tight; the rule is
    probed strictly between candidates, so no case analysis is shared with
    the closed-form threshold algorithm under test.
    """
    bids = inst.costs if bids is None else tuple(Rat(b) for b in bids)
    rivals = ranked_pairs(inst, bids, exclude=seller)
    own = [p for p in ranked_pairs(inst, bids) if p.seller == seller]
    v_unit = next(p.value for p in own if p.unit == unit)
    own_prefix = sum((p.value for p in own if p.unit <= unit), Rat(0))
    candidates = set()
    running = Rat(0)
    candidates.add(v_unit * inst.budget / own_prefix)
    for pr in rivals:
        running += pr.value
        candidates.add(v_unit * inst.budget / (own_prefix + running))
        candidates.add(v_unit * pr.bid / pr.value)

    def sold(bid):
        probe = bids[:seller] + (bid,) + bids[seller + 1 :]
        return greedy_allocate(inst, probe)[seller] >= unit

    return threshold_by_search(sold, candidates)


def cheapest_prefix_allocate(inst, bids=None):
    """The symmetric rule stated directly: rank units by bid, ties by
    (seller, unit), and buy the longest prefix whose last unit has
    bid * rank <= B."""
    bids = checked_bids(inst, bids)
    pairs = sorted(
        (bids[i], i, j) for i in range(inst.m) for j in range(1, inst.units[i] + 1)
    )
    k = 0
    for rank, (bid, _, _) in enumerate(pairs, start=1):
        if bid * rank <= inst.budget:
            k = rank
    counts = [0] * inst.m
    for _, i, _ in pairs[:k]:
        counts[i] += 1
    return tuple(counts)


def cheapest_prefix_threshold(inst, seller, unit, bids=None):
    """Critical bid of a unit under cheapest_prefix_allocate, by search over
    the rule's breakpoints: B/rank for every rank and every positive rival
    bid."""
    bids = checked_bids(inst, bids)
    if cheapest_prefix_allocate(inst, bids)[seller] < unit:
        raise NoThreshold(f"unit {unit} of seller {seller} is not bought")
    candidates = {inst.budget / rank for rank in range(1, inst.total_units + 1)}
    candidates |= {b for i, b in enumerate(bids) if i != seller and b > 0}

    def sold(bid):
        probe = bids[:seller] + (bid,) + bids[seller + 1 :]
        return cheapest_prefix_allocate(inst, probe)[seller] >= unit

    return threshold_by_search(sold, candidates)


def brute_force_optimum(inst):
    """Exhaustive budget-constrained optimum, lexicographically smallest."""
    best = None
    for alloc in product(*(range(n + 1) for n in inst.units)):
        cost = sum(
            (a * c for a, c in zip(alloc, inst.costs)), Rat(0)
        )
        if cost > inst.budget:
            continue
        v = inst.valuation.value(alloc)
        if best is None or v > best[1]:
            best = (alloc, v)
    return best


def brute_force_demand(valuation, prices, caps):
    """Exhaustive demand maximizer, lexicographically smallest."""
    best = None
    for alloc in product(*(range(c + 1) for c in caps)):
        obj = valuation.value(alloc) - sum(
            (a * p for a, p in zip(alloc, prices)), Rat(0)
        )
        if best is None or obj > best[1]:
            best = (alloc, obj)
    return best[0]
