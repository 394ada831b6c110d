"""Demand-oracle mechanisms for sub-additive valuations.

``a_max`` approximates the best budget-feasible allocation over a seller
subset to within a factor of 8: it anchors a value grid on the best
affordable single-item bundle, prices each grid point proportionally to
cost, asks the demand oracle, and keeps the most valuable budget-feasible
prefix of the answer.

``run_m_rand`` samples half the sellers to calibrate a value target, then
posts uniform unit prices B/k to the other half for k = 1, 2, ... and
accepts the first round whose a_max allocation clears the target scaled by
loglog(n)/(64 log(n)).  Mixing it 1:1 with the best-single-seller
mechanism gives the sub-additive mechanism proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .core import Instance, Outcome, Rat, affordable_count, checked_bids
from .valuations import demand, recall, remember

ACCEPT_EPS = 1e-12


def phi(total_units: int) -> float:
    """Acceptance factor loglog/64log in base 2, floored at n=4.

    Below n=4 the raw formula is non-positive and would accept anything;
    the guard keeps it positive and is recorded in verification reports.
    """
    n = max(total_units, 4)
    return log2(log2(n)) / (64.0 * log2(n))


@dataclass(frozen=True)
class MaxRun:
    """One a_max execution: caps, value grid, and winner."""

    capped_units: tuple
    anchor_value: object
    grid: tuple
    winner: tuple
    winner_value: object


def a_max(valuation, budget, units, costs, members) -> MaxRun:
    """Deterministic 8-approximation of the budget-feasible optimum on a subset.

    ``units`` and ``costs`` are full-length profiles; sellers outside
    ``members`` are ignored.  Zero costs get the +inf floor convention
    (capped at the full supply).

    Runs are memoised in the valuation memo (see ``valuations.recall``:
    the most recent valuation only, by identity, at most MEMO_LIMIT
    entries) under the budget, the units and the members' costs, which are
    all it reads: a non-member's cost never changes the result.
    """
    budget = Rat(budget)
    members = tuple(sorted(set(members)))
    units = tuple(units)
    key = ("a_max", budget, units, tuple((i, costs[i]) for i in members))
    run = recall(valuation, key)
    if run is None:
        run = remember(valuation, key, _a_max(valuation, budget, units, costs, members))
    return run


def _a_max(valuation, budget, units, costs, members) -> MaxRun:
    m = len(units)
    zero_alloc = (0,) * m
    capped = [0] * m
    for i in members:
        capped[i] = affordable_count(units[i], budget, costs[i])
    capped = tuple(capped)
    if not members:
        return MaxRun(capped, Rat(0), (), zero_alloc, Rat(0))

    anchor = Rat(0)
    for i in members:
        v = valuation.value(tuple(capped[i] if j == i else 0 for j in range(m)))
        if v > anchor:
            anchor = v
    if anchor == 0:
        grid = (Rat(0),)
    else:
        grid = tuple(k * anchor for k in range(len(members), 0, -1))

    zero = Rat(0)
    winner, winner_value = zero_alloc, zero
    for target in grid:
        prices = tuple(
            target * costs[i] / (2 * budget) if i in members else zero
            for i in range(m)
        )
        asked = demand(valuation, prices, capped)
        candidate = zero_alloc
        if valuation.value(asked) >= target / 2:
            spend = sorted(
                ((-(asked[i] * costs[i]), i) for i in members),
            )
            chosen = []
            cum = zero
            for neg_cost, i in spend:
                cum -= neg_cost
                if cum > budget:
                    break
                chosen.append(i)
            counts = [0] * m
            for i in chosen:
                counts[i] = asked[i]
            candidate = tuple(counts)
        v = valuation.value(candidate)
        if v > winner_value:
            winner, winner_value = candidate, v
    return MaxRun(capped, anchor, grid, winner, winner_value)


@dataclass(frozen=True)
class RandRun:
    """One realization of the random-sampling mechanism."""

    sample_value: object
    accepted_round: int | None
    outcome: Outcome


def m_rand_detail(inst: Instance, bids, sample_group) -> RandRun:
    """Run the posted-price rounds for a fixed sample-group realization.

    ``sample_group`` is the set of sellers sampled away for calibration;
    only its complement can sell.  When the calibrated value is zero, a
    round is accepted only for a strictly positive allocation value.
    """
    bids = checked_bids(inst, bids)
    group = tuple(sorted(set(sample_group)))
    if any(not 0 <= i < inst.m for i in group):
        raise ValueError("sample group indices out of range")
    rest = tuple(i for i in range(inst.m) if i not in set(group))
    calib = a_max(inst.valuation, inst.budget, inst.units, bids, group)
    target = calib.winner_value
    factor = phi(inst.total_units)
    rounds = sum(inst.units[i] for i in rest)
    for k in range(1, rounds + 1):
        price = inst.budget / k
        posted = tuple(i for i in rest if bids[i] <= price)
        if not posted:
            continue
        posted_set = set(posted)
        costs_k = tuple(
            price if i in posted_set else bids[i] for i in range(inst.m)
        )
        run = a_max(inst.valuation, inst.budget, inst.units, costs_k, posted)
        value = run.winner_value
        # A zero-value allocation never accepts: with a positive target the
        # exact inequality would require a positive value anyway, and with a
        # zero target acceptance is defined as strictly positive value.
        if value <= 0:
            accepted = False
        elif target == 0:
            accepted = True
        else:
            accepted = float(value) >= factor * float(target) - ACCEPT_EPS
        if accepted:
            payments = tuple(x * price for x in run.winner)
            return RandRun(target, k, Outcome(run.winner, payments))
    return RandRun(target, None, inst.empty_outcome())


def run_m_rand(inst: Instance, bids, sample_group) -> Outcome:
    return m_rand_detail(inst, bids, sample_group).outcome


def group_from_mask(mask: int, m: int) -> tuple:
    """Decode a sample-group bitmask: bit i set means seller i is sampled away."""
    if not 0 <= mask < (1 << m):
        raise ValueError(f"mask {mask:#b} out of range for {m} sellers")
    return tuple(i for i in range(m) if mask >> i & 1)
