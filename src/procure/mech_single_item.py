"""Best-single-seller mechanism: buy as many units as possible from the
seller whose affordable single-item bundle is worth the most.

The plan is computed from bids alone and needs only the single-item values
V(count * e_i); the valuation just has to be non-decreasing across units of
the same item.  Unit thresholds have the harmonic shape B/k, ..., B/k,
B/(k+1), ..., B/count, where k is the smallest rank at which the winner
would still be ranked first bidding B/k.  The whole plan fires with
probability 1/(1 + ln n) and otherwise buys nothing.
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
    winner = 0
    for i, v in enumerate(values):
        if v > values[winner]:
            winner = i
    count = affordable_count(inst.units[winner], inst.budget, bids[winner])
    if count == 0:
        return OneLottery(winner, 0, 0, ())

    # Rivals' values are fixed while the winner's bid is replaced, so the
    # first-place test only needs the best rival (lowest index on ties).
    rival = None
    for i, v in enumerate(values):
        if i != winner and (rival is None or v > values[rival]):
            rival = i

    def first_at(k: int) -> bool:
        if rival is None:
            return True
        v = inst.value(unit_vector(inst.m, winner, k))
        return v > values[rival] or (v == values[rival] and winner < rival)

    # At k = count the winner is worth values[winner], the first maximum.
    crossover = next(k for k in range(1, count + 1) if first_at(k))
    budget = inst.budget
    thresholds = tuple(budget / crossover for _ in range(crossover)) + tuple(
        budget / rank for rank in range(crossover + 1, count + 1)
    )
    return OneLottery(winner, count, crossover, thresholds)


def run_m_one(inst: Instance, bids, branch: str) -> Outcome:
    """One deterministic branch: fire buys the plan, skip buys nothing."""
    if branch == "skip":
        return inst.empty_outcome()
    if branch != "fire":
        raise ValueError(f"unknown branch {branch!r}")
    plan = plan_m_one(inst, bids)
    if plan.count == 0:
        return inst.empty_outcome()
    payments = [Rat(0)] * inst.m
    payments[plan.winner] = plan.total_payment
    return Outcome(unit_vector(inst.m, plan.winner, plan.count), tuple(payments))
