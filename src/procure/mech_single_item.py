"""Best-single-seller mechanism: buy as many units as possible from the
seller whose affordable single-item bundle is worth the most.

The plan is computed from bids alone and needs only the single-item values
V(count * e_i); the valuation just has to be non-decreasing across units of
the same item.  The threshold of the winner's r-th unit is B / max(r, k),
where k is the smallest rank at which the winner would still be ranked
first bidding B/k: the harmonic shape B/k, ..., B/k, B/(k+1), ...,
B/count.  The whole plan fires with probability 1/(1 + ln n) and otherwise
buys nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, Outcome, Rat, affordable_count, checked_bids, unit_vector


@dataclass(frozen=True)
class OneLottery:
    """A resolved plan: winner, unit count, crossover rank, and thresholds."""

    winner: int
    count: int
    crossover: int
    thresholds: tuple

    @property
    def total_payment(self):
        return sum(self.thresholds, Rat(0))


def single_item_values(inst: Instance, bids=None):
    """Value of each seller's affordable single-item bundle under the bids."""
    bids = checked_bids(inst, bids)
    units, budget = inst.units, inst.budget
    return tuple(
        inst.value(unit_vector(inst.m, i, affordable_count(units[i], budget, b)))
        for i, b in enumerate(bids)
    )


def plan_m_one(inst: Instance, bids=None) -> OneLottery:
    bids = checked_bids(inst, bids)
    values = single_item_values(inst, bids)
    # max returns the first maximal item: ties go to the lowest index.
    winner = max(range(inst.m), key=values.__getitem__)
    count = affordable_count(inst.units[winner], inst.budget, bids[winner])

    # Rivals' values are fixed while the winner's bid is replaced, so the
    # first-place test only needs the best rival (lowest index on ties).
    rivals = (i for i in range(inst.m) if i != winner)
    rival = max(rivals, key=values.__getitem__, default=None)

    def first_at(k: int) -> bool:
        if rival is None:
            return True
        v = inst.value(unit_vector(inst.m, winner, k))
        return v > values[rival] or (v == values[rival] and winner < rival)

    # At k = count the winner is worth values[winner], the first maximum;
    # with no affordable unit there is no rank, and no threshold.
    crossover = next((k for k in range(1, count + 1) if first_at(k)), 0)
    thresholds = tuple(inst.budget / max(rank, crossover) for rank in range(1, count + 1))
    return OneLottery(winner, count, crossover, thresholds)


def run_m_one(inst: Instance, bids, branch: str) -> Outcome:
    """One deterministic branch: fire buys the plan, skip buys nothing."""
    if branch == "skip":
        return inst.empty_outcome()
    if branch != "fire":
        raise ValueError(f"unknown branch {branch!r}")
    plan = plan_m_one(inst, bids)
    payments = [Rat(0)] * inst.m
    payments[plan.winner] = plan.total_payment
    return Outcome(unit_vector(inst.m, plan.winner, plan.count), tuple(payments))
