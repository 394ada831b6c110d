"""Test-side helpers: independent oracles that cross-check mechanism
internals, and the analysis devices of the paper's proofs.

The oracles restate a rule directly (exhaustive optimum and demand, the
greedy rank order, the cheapest-prefix rule, thresholds by search over
breakpoints), or keep an earlier implementation as the reference (the
greedy's bought rule and thresholds in rational arithmetic, the demand
oracle's closed form and ``a_max``'s loop in rational arithmetic, and the
knapsack optimum's rational suffix tables).  The analysis helpers are not
mechanisms: the per-rank pick-up test of the greedy, the marginal
value-rate greedy and its non-monotonicity, the sample-group dominance
event of the random-sampling argument (with the optimum over a seller
subset), and explicit tables materialized from any valuation for the
classifier cross-check.  The rest are conveniences the package does not
need: the allocation lattice's join and meet, expected payments, and
replaying a DST witness.
"""

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from procure import mech_single_item, mech_subadditive
from procure.core import (
    Alloc,
    Instance,
    NoThreshold,
    Rat,
    SearchSpaceTooLarge,
    Seller,
    affordable_count,
    checked_bids,
    format_rat,
    parse_rat,
    scaled,
    unit_vector,
    utility,
)
from procure.mech_additive import greedy_allocate
from procure.mech_subadditive import group_from_mask, phi
from procure.oracles import DP_CELL_LIMIT, optimal_allocation
from procure.valuations import ADDITIVE_FAMILIES, Explicit, domain
from procure.verify import (
    BUDGET_SLACK,
    GROUP_ENUM_MAX_SELLERS,
    run_scenario,
    scenario_outcomes,
)


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
    bids = checked_bids(inst, bids)
    pairs = reference_pairs(inst, bids)
    rivals = [p for p in pairs if p.seller != seller]
    own = [p for p in pairs if p.seller == seller]
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


class ReferencePair(NamedTuple):
    """One unit of one seller in the rational reference ranking."""

    seller: int  # 0-based
    unit: int  # 1-based
    value: object  # marginal value of this unit
    bid: object  # the seller's announced per-unit cost

    @property
    def rho(self):
        """bid / value, exact."""
        return self.bid / self.value


def reference_rank_key(pair):
    """Sort key of the greedy rank order stated directly: zero bids first,
    then value per unit of bid decreasing, ties by (seller, unit)."""
    if pair.bid == 0:
        return (0, 0, pair.seller, pair.unit)
    return (1, -(pair.value / pair.bid), pair.seller, pair.unit)


def reference_pairs(inst, bids=None):
    """The greedy ranking in rationals, built apart from ranked_pairs: every
    positive-margin (seller, unit) pair, sorted by reference_rank_key."""
    bids = checked_bids(inst, bids)
    margins = inst.valuation.margins(inst.units)
    pairs = [
        ReferencePair(i, j, x, bids[i])
        for i, mm in enumerate(margins)
        for j, x in enumerate(mm, start=1)
        if x > 0
    ]
    return sorted(pairs, key=reference_rank_key)


def reference_bought(pairs, budget, m: int):
    """The greedy's bought units, compared in rationals: the longest prefix
    of the ranked pairs whose last pair meets the budget-share inequality."""
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


def reference_seller_thresholds(pairs, i: int, count: int, budget):
    """Critical bids of seller i's first ``count`` units, in rationals."""
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


def reference_greedy_payments(inst, bids=None):
    """greedy_payments from the rational ranking, bought rule and thresholds."""
    pairs = reference_pairs(inst, bids)
    alloc = reference_bought(pairs, inst.budget, inst.m)
    return alloc, tuple(
        sum(reference_seller_thresholds(pairs, i, a, inst.budget), Rat(0))
        for i, a in enumerate(alloc)
    )


def reference_greedy_breakpoints(inst, bids, seller: int) -> set:
    """greedy_breakpoints from the rational ranking, bought rule and
    thresholds."""
    pairs = reference_pairs(inst, bids)
    rival_rates = [pr.rho for pr in pairs if pr.seller != seller]
    points = {
        po.value * rho for po in pairs if po.seller == seller for rho in rival_rates
    }
    bought = reference_bought(pairs, inst.budget, inst.m)[seller]
    points.update(reference_seller_thresholds(pairs, seller, bought, inst.budget))
    return points


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


def reference_optimal_additive_dp(inst: Instance):
    """The knapsack optimum with rational (m+1)-row suffix tables and a
    second search for the allocation: the reference for the integer DP."""
    units = inst.units
    margs = inst.valuation.margins(units)
    costs, budget = inst.costs, inst.budget
    m = inst.m
    _, (cap, *weights) = scaled((budget, *costs))
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


def reference_demand(valuation, prices, caps):
    """demand in rationals and without the memo: the per-item closed form
    for the additive families, exhaustive enumeration for the others."""
    prices = tuple(Rat(p) for p in prices)
    caps = tuple(caps)
    if not isinstance(valuation, ADDITIVE_FAMILIES):
        return brute_force_demand(valuation, prices, caps)
    return tuple(
        _reference_best_prefix(mm, p) for mm, p in zip(valuation.margins(caps), prices)
    )


def _reference_best_prefix(margins, price) -> int:
    # Smallest prefix length maximizing the prefix sum of (margin - price).
    best_a, best_obj, run = 0, Rat(0), Rat(0)
    for a, v in enumerate(margins, start=1):
        run += v - price
        if run > best_obj:
            best_a, best_obj = a, run
    return best_a


def reference_a_max(valuation, budget, units, costs, members):
    """a_max's loop in rationals, asking reference_demand, without the memo."""
    budget = Rat(budget)
    members = tuple(sorted(set(members)))
    m = len(units)
    zero = Rat(0)
    winner, winner_value = (0,) * m, zero
    if not members:
        return mech_subadditive.MaxRun(winner, winner_value)
    capped = [0] * m
    for i in members:
        capped[i] = affordable_count(units[i], budget, costs[i])
    anchor = max(valuation.value(unit_vector(m, i, capped[i])) for i in members)
    if anchor == 0:
        grid = (zero,)
    else:
        grid = tuple(k * anchor for k in range(len(members), 0, -1))
    for target in grid:
        prices = tuple(
            target * costs[i] / (2 * budget) if i in members else zero
            for i in range(m)
        )
        asked = reference_demand(valuation, prices, capped)
        counts = [0] * m
        if valuation.value(asked) >= target / 2:
            cum = zero
            for neg_cost, i in sorted((-(asked[i] * costs[i]), i) for i in members):
                cum -= neg_cost
                if cum > budget:
                    break
                counts[i] = asked[i]
        candidate = tuple(counts)
        v = valuation.value(candidate)
        if v > winner_value:
            winner, winner_value = candidate, v
    return mech_subadditive.MaxRun(winner, winner_value)


def explicit_from_function(caps, fn) -> Explicit:
    """The explicit table of ``fn`` over every allocation within ``caps``."""
    caps = tuple(caps)
    entries = tuple(
        (alloc, fn(alloc)) for alloc in domain(caps)
    )
    return Explicit(caps, entries)


def as_explicit(valuation, caps) -> Explicit:
    """Materialize any valuation as an explicit table over ``caps``."""
    return explicit_from_function(caps, valuation.value)


def restricted_optimum(inst: Instance, members):
    """Exact optimum (allocation, value) buying only from ``members``: every
    other seller is priced at budget + 1, so not one of its units fits."""
    allowed = set(members)
    sellers = tuple(
        s if i in allowed else Seller(s.units, inst.budget + 1)
        for i, s in enumerate(inst.sellers)
    )
    return optimal_allocation(Instance(sellers, inst.budget, inst.valuation))


def expected_payment(mech: str, inst: Instance, bids=None) -> float:
    return sum(
        s.probability * float(out.total_payment)
        for s, out in scenario_outcomes(mech, inst, bids)
    )


def replay_witness(mech: str, inst: Instance, witness: dict) -> bool:
    """Re-run a DST witness; True iff it reproduces the recorded violation."""
    bids = tuple(parse_rat(b) for b in witness["bids"])
    seller = witness["seller"]
    branch = witness["scenario"]
    dev = parse_rat(witness["deviation"])
    u_true = utility(run_scenario(mech, inst, bids, branch), inst.costs, seller)
    profile = bids[:seller] + (dev,) + bids[seller + 1 :]
    u_dev = utility(run_scenario(mech, inst, profile, branch), inst.costs, seller)
    return (
        u_dev > u_true
        and format_rat(u_true) == witness["u_true"]
        and format_rat(u_dev) == witness["u_dev"]
    )


def pickup_flags(inst: Instance, bids=None):
    """Per-rank pick-up test: each pair against its own prefix inequality.

    Equivalent to the longest-prefix rule of greedy_allocate; exposed so
    tests can check the equivalence directly.
    """
    flags = []
    prefix = Rat(0)
    for pr in reference_pairs(inst, bids):
        prefix += pr.value
        flags.append((pr, pr.bid * prefix <= inst.budget * pr.value))
    return flags


@dataclass(frozen=True)
class GreedyStep:
    """One step of the marginal value-rate greedy: state, marginals, pick."""

    before: tuple
    marginals: tuple
    chosen: int
    after: tuple


def greedy_marginal(inst: Instance, bids=None) -> list:
    """Marginal value-rate greedy trace (value-oracle only).

    Repeatedly buys one unit of the affordable, uncapped item with the
    highest marginal value per unit of bid (rate ties go to the lowest
    index) until nothing affordable remains.  Not monotone in bids; the
    regression suite pins the canonical counterexample.
    """
    bids = checked_bids(inst, bids)
    units = inst.units
    alloc = (0,) * inst.m
    remaining = inst.budget
    steps = []
    while True:
        marginals = []
        base = inst.value(alloc)
        for i in range(inst.m):
            if alloc[i] >= units[i]:
                marginals.append(Rat(0))
            else:
                bumped = alloc[:i] + (alloc[i] + 1,) + alloc[i + 1 :]
                marginals.append(inst.value(bumped) - base)
        afford = [
            i
            for i in range(inst.m)
            if alloc[i] < units[i] and bids[i] <= remaining
        ]
        if not afford:
            break
        best = afford[0]
        for i in afford[1:]:
            # rate comparison marg/bid done by cross-multiplication
            if marginals[i] * bids[best] > marginals[best] * bids[i]:
                best = i
        after = alloc[:best] + (alloc[best] + 1,) + alloc[best + 1 :]
        steps.append(GreedyStep(alloc, tuple(marginals), best, after))
        alloc = after
        remaining -= bids[best]
    return steps


def _dominance_events(inst: Instance) -> list:
    """Per sample group T: (T, whether opt(complement) >= opt(T) >= opt/8)."""
    if inst.m > GROUP_ENUM_MAX_SELLERS:
        raise SearchSpaceTooLarge("too many sellers for group enumeration")
    opt = optimal_allocation(inst)[1]
    events = []
    for mask in range(1 << inst.m):
        group = group_from_mask(mask, inst.m)
        rest = tuple(i for i in range(inst.m) if i not in set(group))
        v_group = restricted_optimum(inst, group)[1]
        v_rest = restricted_optimum(inst, rest)[1]
        events.append((group, v_rest >= v_group and 8 * v_group >= opt))
    return events


def partition_success_frequency(inst: Instance):
    """Exact fraction of sample groups where the kept half dominates.

    Counts groups T with opt(complement) >= opt(T) >= opt/8, over all 2^m
    equiprobable groups; returned as an exact rational.
    """
    hits = sum(1 for _, event in _dominance_events(inst) if event)
    return Rat(hits, 1 << inst.m)


def partition_chain_records(inst: Instance):
    """Per-group record of the two-stage sampling argument.

    For every sample group: whether the dominance event holds (kept half's
    optimum at least the sampled half's, itself at least opt/8), and whether
    the realized value plus the single-item benchmark clears the acceptance
    factor times the calibrated value.  The second flag is what makes the
    whole mechanism's expectation chain go through when the first holds.
    """
    events = _dominance_events(inst)
    plan = mech_single_item.plan_m_one(inst)
    single = inst.value(unit_vector(inst.m, plan.winner, plan.count))
    factor = phi(inst.total_units)
    records = []
    for group, event in events:
        detail = mech_subadditive.m_rand_detail(inst, None, group)
        realized = inst.value(detail.outcome.allocation)
        chain_ok = (
            float(realized + single)
            >= factor * float(detail.sample_value) - BUDGET_SLACK
        )
        records.append((event, chain_ok))
    return records
