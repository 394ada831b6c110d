"""Demand-oracle mechanisms for sub-additive valuations.

``a_max`` approximates the best budget-feasible allocation over a seller
subset to within a factor of 8: it anchors a value grid on the best
affordable single-item bundle, prices each grid point proportionally to
cost, asks the demand oracle, and keeps the most valuable budget-feasible
prefix of the answer.

``m_rand_detail`` runs the random-sampling mechanism for one sample group:
the sampled half of the sellers calibrates a value target, then the other
half is posted uniform unit prices B/k for k = 1, 2, ... and the mechanism
accepts the first round whose a_max allocation clears the target scaled by
loglog(n)/(64 log(n)).  Mixing it 1:1 with the best-single-seller
mechanism gives the sub-additive mechanism proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .core import Instance, Outcome, Rat, checked_bids, scaled, unit_vector
from .valuations import demand, recall, remember, scaled_values

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
    """One a_max execution: the winning allocation and its value."""

    winner: tuple
    winner_value: object


def a_max(valuation, budget, units, costs, members) -> MaxRun:
    """Deterministic 8-approximation of the budget-feasible optimum on a subset.

    ``units`` and ``costs`` are full-length profiles; sellers outside
    ``members`` are ignored, and so is their cost, which may be anything.
    Zero costs get the +inf floor convention (capped at the full supply).

    The loop compares scaled integers: values times S_V (the valuation's
    ``scaled_values`` scale), and the budget and members' costs times S_c,
    their ``core.scaled`` scale.  Each grid price is handed to ``demand``
    as one exact rational, and the winner's value leaves as one.

    Runs are memoised in the valuation memo (see ``valuations.recall``:
    the most recent valuation only, by identity, at most MEMO_LIMIT
    entries) under ``("a_max", budget, units, members' costs)``, which is
    all a run reads; the rationals are keyed as (numerator, denominator)
    pairs, which are canonical and cheaper to hash.
    """
    budget = Rat(budget)
    members = tuple(sorted(set(members)))
    units = tuple(units)
    key = (
        "a_max",
        (budget.numerator, budget.denominator),
        units,
        tuple((i, costs[i].numerator, costs[i].denominator) for i in members),
    )
    run = recall(valuation, key)
    if run is None:
        run = remember(valuation, key, _a_max(valuation, budget, units, costs, members))
    return run


def _a_max(valuation, budget, units, costs, members) -> MaxRun:
    m = len(units)
    if not members:
        return MaxRun((0,) * m, Rat(0))
    view = scaled_values(valuation)
    ivalue = view.value
    _, (ibudget, *imembers) = scaled((budget, *(costs[i] for i in members)))
    icosts = [0] * m
    capped = [0] * m
    for i, icost in zip(members, imembers):
        icosts[i] = icost
        capped[i] = min(units[i], ibudget // icost) if icost else units[i]

    # Values are non-negative, so the anchor is at least 0.  Targets are
    # k * anchor, and prices k * anchor * c_i / (2B), all times S_V.
    anchor = max(ivalue(unit_vector(m, i, capped[i])) for i in members)
    grid = range(len(members), 0, -1) if anchor else (0,)
    denom = 2 * view.scale * ibudget
    zero = Rat(0)
    winner, winner_value = (0,) * m, 0
    for k in grid:
        target = k * anchor
        prices = [zero] * m
        for i in members:
            prices[i] = Rat(target * icosts[i], denom)
        asked = demand(valuation, prices, capped)
        counts = [0] * m
        if 2 * ivalue(asked) >= target:
            # Keep the longest prefix, costliest bundle first, within budget.
            spent = 0
            for neg_cost, i in sorted((-asked[i] * icosts[i], i) for i in members):
                spent -= neg_cost
                if spent > ibudget:
                    break
                counts[i] = asked[i]
        candidate = tuple(counts)
        v = ivalue(candidate)
        if v > winner_value:
            winner, winner_value = candidate, v
    return MaxRun(winner, Rat(winner_value, view.scale))


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
    sampled = set(sample_group)
    group = tuple(sorted(sampled))
    if any(not 0 <= i < inst.m for i in group):
        raise ValueError("sample group indices out of range")
    rest = tuple(i for i in range(inst.m) if i not in sampled)
    calib = a_max(inst.valuation, inst.budget, inst.units, bids, group)
    target = calib.winner_value
    factor = phi(inst.total_units)
    rounds = sum(inst.units[i] for i in rest)
    for k in range(1, rounds + 1):
        price = inst.budget / k
        posted = tuple(i for i in rest if bids[i] <= price)
        if not posted:
            continue
        # a_max reads members' costs only: every posted seller costs price.
        costs_k = (price,) * inst.m
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


def group_from_mask(mask: int, m: int) -> tuple:
    """Decode a sample-group bitmask: bit i set means seller i is sampled away."""
    if not 0 <= mask < (1 << m):
        raise ValueError(f"mask {mask:#b} out of range for {m} sellers")
    return tuple(i for i in range(m) if mask >> i & 1)
