"""Test-side helpers: independent oracles that cross-check mechanism
internals, and the analysis devices of the paper's proofs.

The oracles restate a rule directly (exhaustive optimum and demand, the
greedy rank order, the cheapest-prefix rule, thresholds by search over
breakpoints), or keep an earlier implementation as the reference (each
valuation family's value as a rational sum, the greedy's bought rule and
thresholds in rational arithmetic, the additive families' rational margin
lists, the demand oracle's closed form and ``a_max``'s loop in rational
arithmetic, ``m_rand``'s rounds with the target calibrated before the
first one, ``m_one``'s crossover scan over every rank, the knapsack
optimum's rational suffix tables, and the deviation grid's rational
straddle and sort).  The analysis helpers are not
mechanisms: the per-rank pick-up test of the greedy, the marginal
value-rate greedy and its non-monotonicity, the sample-group dominance
event of the random-sampling argument (with the optimum over a seller
subset), and explicit tables materialized from any valuation for the
classifier cross-check.  The rest are conveniences the package does not
need: the allocation lattice's join and meet, expected payments,
``m_rand``'s calibrated target, a seller's grid against every cut of a
mechanism's rules, replaying a DST witness, testing the rules' cut
declarations, and testing each rule's one-seller outcome against ``run``.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from procure import mech_single_item, mech_subadditive
from procure.core import (
    Alloc,
    Instance,
    NoThreshold,
    Outcome,
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
from procure.valuations import (
    ADDITIVE_FAMILIES,
    Additive,
    BoundedKnapsack,
    Explicit,
    Symmetric,
    domain,
)
from procure.verify import (
    BUDGET_SLACK,
    GRID,
    GROUP_ENUM_MAX_SELLERS,
    MECHANISMS,
    deviation_grid,
    run_scenario,
    scenario_outcomes,
    seller_outcome,
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
    margins = reference_margins(inst.valuation, inst.units)
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
    """greedy_breakpoints from the rational ranking and thresholds: every
    positive-value unit's critical bid."""
    pairs = reference_pairs(inst, bids)
    own = sum(1 for pr in pairs if pr.seller == seller)
    return set(reference_seller_thresholds(pairs, seller, own, inst.budget))


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


def reference_value(valuation, alloc):
    """The valuation's value as a rational sum, for an allocation within its
    caps: the reference for the families' integer ``value``.  An Explicit
    table is its own definition, so it is looked up in the sorted
    ``entries``."""
    zero = Rat(0)
    if isinstance(valuation, BoundedKnapsack):
        return sum((a * v for a, v in zip(alloc, valuation.values)), zero)
    if isinstance(valuation, Additive):
        return sum((sum(mm[:a], zero) for a, mm in zip(alloc, valuation.per_item)), zero)
    if isinstance(valuation, Symmetric):
        return sum(valuation.margins[: sum(alloc)], zero)
    entries, alloc = valuation.entries, tuple(alloc)
    at = bisect_left(entries, alloc, key=itemgetter(0))
    if at == len(entries) or entries[at][0] != alloc:
        raise ValueError("allocation out of range")
    return entries[at][1]


def reference_margins(valuation, units):
    """The additive families' margin lists, truncated to ``units``, as
    rationals: the reference for their integer ``imargins``."""
    if isinstance(valuation, BoundedKnapsack):
        return [[v] * n for v, n in zip(valuation.values, units)]
    return [list(mm[:n]) for mm, n in zip(valuation.per_item, units)]


def brute_force_optimum(inst):
    """Exhaustive budget-constrained optimum, lexicographically smallest."""
    best = None
    for alloc in product(*(range(n + 1) for n in inst.units)):
        cost = sum(
            (a * c for a, c in zip(alloc, inst.costs)), Rat(0)
        )
        if cost > inst.budget:
            continue
        v = reference_value(inst.valuation, alloc)
        if best is None or v > best[1]:
            best = (alloc, v)
    return best


def reference_optimal_additive_dp(inst: Instance):
    """The knapsack optimum with rational (m+1)-row suffix tables and a
    second search for the allocation: the reference for the integer DP."""
    units = inst.units
    margs = reference_margins(inst.valuation, units)
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
        obj = reference_value(valuation, alloc) - sum(
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
        _reference_best_prefix(mm, p)
        for mm, p in zip(reference_margins(valuation, caps), prices)
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
    anchor = max(reference_value(valuation, unit_vector(m, i, capped[i])) for i in members)
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
        if reference_value(valuation, asked) >= target / 2:
            cum = zero
            for neg_cost, i in sorted((-(asked[i] * costs[i]), i) for i in members):
                cum -= neg_cost
                if cum > budget:
                    break
                counts[i] = asked[i]
        candidate = tuple(counts)
        v = reference_value(valuation, candidate)
        if v > winner_value:
            winner, winner_value = candidate, v
    return mech_subadditive.MaxRun(winner, winner_value)


def calibrated_target(inst: Instance, bids, sample_group):
    """m_rand's calibrated target: the ``a_max`` value of the sample group
    at ``bids``, through ``mech_subadditive.a_max`` as it is bound now."""
    bids = checked_bids(inst, bids)
    return mech_subadditive.a_max(
        inst.valuation, inst.budget, inst.units, bids, sample_group
    ).winner_value


def grid_profiles(instances):
    """(instance, bids, group) for every deviation-grid bid of every
    seller, at resolution 16, under every sample group."""
    profiles = []
    for inst in instances:
        groups = [group_from_mask(mask, inst.m) for mask in range(1 << inst.m)]
        for seller in range(inst.m):
            for bid in seller_grid("m_rand", inst, inst.costs, seller, 16):
                bids = inst.costs[:seller] + (bid,) + inst.costs[seller + 1 :]
                profiles += [(inst, bids, g) for g in groups]
    return profiles


def reference_m_rand_detail(inst: Instance, bids, sample_group):
    """m_rand's rounds with the target calibrated first: ``a_max`` runs on
    the sample group before round 1, every round is tested against that
    target, and a round with nobody posted is skipped, not the last one.
    Returns (calibrated target, accepted round, outcome), to compare with
    ``(calibrated_target(...), *m_rand_detail(...))``."""
    bids = checked_bids(inst, bids)
    sampled = set(sample_group)
    rest = tuple(i for i in range(inst.m) if i not in sampled)
    a_max = mech_subadditive.a_max
    target = calibrated_target(inst, bids, sample_group)
    factor = phi(inst.total_units)
    for k in range(1, sum(inst.units[i] for i in rest) + 1):
        price = inst.budget / k
        posted = tuple(i for i in rest if bids[i] <= price)
        if not posted:
            continue
        run = a_max(inst.valuation, inst.budget, inst.units, (price,) * inst.m, posted)
        value = run.winner_value
        if value <= 0:
            accepted = False
        elif target == 0:
            accepted = True
        else:
            accepted = float(value) >= factor * float(target) - mech_subadditive.ACCEPT_EPS
        if accepted:
            payments = tuple(price * x for x in run.winner)
            return target, k, Outcome(run.winner, payments)
    return target, None, inst.empty_outcome()


def reference_plan_m_one(inst: Instance, bids=None):
    """plan_m_one in rationals: the single-item values through ``inst.value``
    and the crossover by a scan of every rank from 1, without bisection.
    Returns the plan's (winner, count, crossover, thresholds), each
    threshold built as B / max(rank, crossover)."""
    bids = checked_bids(inst, bids)
    units, budget = inst.units, inst.budget
    values = tuple(
        inst.value(unit_vector(inst.m, i, affordable_count(units[i], budget, b)))
        for i, b in enumerate(bids)
    )
    winner = max(range(inst.m), key=values.__getitem__)
    count = affordable_count(inst.units[winner], inst.budget, bids[winner])
    rivals = (i for i in range(inst.m) if i != winner)
    rival = max(rivals, key=values.__getitem__, default=None)

    def first_at(k: int) -> bool:
        if rival is None:
            return True
        v = inst.value(unit_vector(inst.m, winner, k))
        return v > values[rival] or (v == values[rival] and winner < rival)

    crossover = next((k for k in range(1, count + 1) if first_at(k)), 0)
    thresholds = tuple(inst.budget / max(rank, crossover) for rank in range(1, count + 1))
    return winner, count, crossover, thresholds


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


def expected_payment(mech: str, inst: Instance) -> float:
    return sum(
        s.probability * float(out.total_payment)
        for s, out in scenario_outcomes(mech, inst)
    )


def seller_cuts(mech: str, inst: Instance, bids, seller: int) -> frozenset:
    """B/rank for every rank and every cut, for this seller, of every rule
    that ``mech`` lists, each from the rule's owner."""
    cuts = {inst.budget / rank for rank in range(1, inst.total_units + 1)}
    for s in MECHANISMS[mech].scenarios(inst):
        cuts |= s.owner.cuts(inst, bids, seller, s.rule)
    return frozenset(cuts)


def seller_grid(mech: str, inst: Instance, bids, seller: int, resolution: int = GRID):
    """The seller's deviation grid against ``seller_cuts``: every point any
    rule of ``mech`` is swept at, and B/rank whatever the rules declare."""
    return deviation_grid(inst, bids, seller, seller_cuts(mech, inst, bids, seller), resolution)


def reference_deviation_grid(inst: Instance, bids, seller: int, cuts, resolution: int = GRID):
    """``verify.deviation_grid`` in rational arithmetic: each straddle point
    as bp -+ bp/10^6 and the grid sorted by rational comparison."""
    budget = inst.budget
    grid = {bids[seller]}
    for bp in cuts:
        if bp > 0:
            delta = bp / 10**6
            grid |= {bp - delta, bp, bp + delta}
    grid |= {budget * t / resolution for t in range(1, resolution + 1)}
    return sorted(grid)


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


def first_read(inst: Instance, scen, seller: int, grid):
    """The first bid of 0, the seller's deviation ``grid`` and 2 * max(B,
    cost) (a sweep with no cuts tries 0 and that bid) at which the
    scenario's rule gives the seller another allocation or payment than
    under its truthful bid; None if there is none."""
    costs = inst.costs

    def own(bid):
        bids = costs[:seller] + (bid,) + costs[seller + 1 :]
        out = run_scenario(scen.owner.name, inst, bids, scen.rule)
        return out.allocation[seller], out.payments[seller]

    truthful = own(costs[seller])
    past = 2 * max(inst.budget, costs[seller])
    return next((b for b in (Rat(0), *grid, past) if own(b) != truthful), None)


def declaration_faults(mech: str, instances):
    """Faults in the cut declarations (``Lottery.cuts``) of the rules that
    ``mech`` lists, each (rule, seller) pair tried at ``first_read``'s
    points over ``seller_grid``.  Yields each (instance index, branch,
    seller, bid) where a pair declared to have no cuts reads the seller's
    bid, then each (owner, rule kind) declared with cuts that reads no
    seller's bid on any of the instances."""
    reading, read = set(), set()
    for n, inst in enumerate(instances):
        costs = inst.costs
        grids = [seller_grid(mech, inst, costs, i) for i in range(inst.m)]
        for s in MECHANISMS[mech].scenarios(inst):
            rule = (s.owner.name, s.rule.partition(":")[0])
            for i, grid in enumerate(grids):
                declared = bool(s.owner.cuts(inst, costs, i, s.rule))
                if declared:
                    reading.add(rule)
                    if rule in read:
                        continue
                bid = first_read(inst, s, i, grid)
                if bid is not None and declared:
                    read.add(rule)
                elif bid is not None:
                    yield n, s.branch, i, bid
    yield from sorted(reading - read)


def piece_faults(mech: str, instances):
    """Faults in the cut sets (``Lottery.cuts``) of the rules that ``mech``
    lists: each (rule, seller) pair with cuts splits (0, 2 * max(B, cost,
    top cut)] at its cuts, and the seller's allocation and payment must be
    their value at the piece's midpoint at 1/3 and 2/3 of each piece and at
    every point of ``seller_grid`` strictly inside it.  A cut itself is not
    compared: at a greedy threshold a unit can go either way.  Yields each
    (instance index, branch, seller, bid) where they differ."""
    for n, inst in enumerate(instances):
        costs = inst.costs
        grids = [seller_grid(mech, inst, costs, i) for i in range(inst.m)]
        for s in MECHANISMS[mech].scenarios(inst):
            for i, grid in enumerate(grids):
                cuts = sorted(c for c in s.owner.cuts(inst, costs, i, s.rule) if c > 0)
                if not cuts:
                    continue

                def own(bid):
                    bids = costs[:i] + (bid,) + costs[i + 1 :]
                    out = run_scenario(s.owner.name, inst, bids, s.rule)
                    return out.allocation[i], out.payments[i]

                ends = [Rat(0), *cuts, 2 * max(inst.budget, costs[i], cuts[-1])]
                for lo, hi in zip(ends, ends[1:]):
                    mid = own((lo + hi) / 2)
                    thirds = (lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3)
                    for bid in (*thirds, *(b for b in grid if lo < b < hi)):
                        if own(bid) != mid:
                            yield n, s.branch, i, bid


def seller_outcome_faults(mech: str, instances):
    """Faults in the one-seller outcomes (``Lottery.seller_outcome``) of
    the rules that ``mech`` lists, with ``run`` as the reference: at every
    point of each (rule, seller) pair's sweep, its grid or, with no cuts,
    0 and 2 * max(B, cost), and at the truthful bid, the rule's owner must
    give the seller its entries of ``run``.  Yields each (instance index,
    branch, seller, bid) where they differ."""
    for n, inst in enumerate(instances):
        costs = inst.costs
        for s in MECHANISMS[mech].scenarios(inst):
            owner = s.owner.name
            for i, cost in enumerate(costs):
                cuts = s.owner.cuts(inst, costs, i, s.rule)
                if cuts:
                    points = deviation_grid(inst, costs, i, cuts)
                else:
                    points = (Rat(0), 2 * max(inst.budget, cost))
                for bid in (cost, *points):
                    bids = costs[:i] + (bid,) + costs[i + 1 :]
                    out = run_scenario(owner, inst, bids, s.rule)
                    got = seller_outcome(owner, inst, bids, i, s.rule)
                    if got != (out.allocation[i], out.payments[i]):
                        yield n, s.branch, i, bid


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
            >= factor * float(calibrated_target(inst, None, group)) - BUDGET_SLACK
        )
        records.append((event, chain_ok))
    return records
