"""Best-single-seller mechanism: buy as many units as possible from the
seller whose affordable single-item bundle is worth the most.

The plan is computed from bids alone and compares integers only: the
budget and bids through ``core.scaled``, and the single-item values
V(count * e_i) as the valuation's ``ivalue``, which just has to be
non-decreasing across units of the same item.  The threshold of the
winner's r-th unit is B / max(r, k), where k, found by bisection, is the
smallest rank at which the winner would still be ranked first bidding
B/k: the harmonic shape B/k, ..., B/k, B/(k+1), ..., B/count.  The whole
plan fires with probability 1/(1 + ln n) and otherwise buys nothing.

A plan keeps only (count, crossover, B); its thresholds are derived from
them on demand.  Their sum, the winner's payment, is in closed form:
k * B/k + B/(k+1) + ... + B/count = B * (1 + H_count - H_k), with H_r the
r-th harmonic number, and 0 when count = 0.  The exact prefix sums H_0,
H_1, ... are kept for the life of the process, up to ``HARMONIC_KEPT``, so
a plan's payment is one subtraction and one product, not a count-term sum.
The kept tuple is replaced whole in one store, never changed in place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import Instance, Outcome, Rat, affordable_count, checked_bids, scaled, unit_vector


# H_0, H_1, ..., up to H_HARMONIC_KEPT: exact harmonic prefix sums, extended
# as plans need them.  H_r has about 0.87 r decimal digits, so all of them to
# 4,096 take about 3.4 MB.
HARMONIC_KEPT = 4096
_harmonic = (Rat(0),)


def harmonic(n: int):
    """The n-th harmonic number 1 + 1/2 + ... + 1/n, exactly.  Past
    HARMONIC_KEPT the sum goes on from the last kept one, unkept."""
    global _harmonic
    kept = _harmonic
    if n < len(kept):
        return kept[n]
    h, more = kept[-1], []
    for r in range(len(kept), n + 1):
        h += Rat(1, r)
        if r <= HARMONIC_KEPT:
            more.append(h)
    if more:
        _harmonic = kept + tuple(more)
    return h


@dataclass(frozen=True)
class OneLottery:
    """A resolved plan: winner, unit count, crossover rank, and the budget
    its thresholds B / max(rank, crossover) are drawn from."""

    winner: int
    count: int
    crossover: int
    budget: object

    @property
    def thresholds(self) -> tuple:
        return tuple(self.budget / max(r, self.crossover) for r in range(1, self.count + 1))

    @property
    def total_payment(self):
        if not self.count:
            return Rat(0)
        return self.budget * (1 + harmonic(self.count) - harmonic(self.crossover))


def _single_items(inst: Instance, bids):
    """Each seller's affordable count, and the ``ivalue`` of that bundle."""
    _, (ibudget, *ibids) = scaled((inst.budget, *bids))
    counts = [affordable_count(n, ibudget, b) for n, b in zip(inst.units, ibids)]
    ivalue = inst.valuation.ivalue
    return counts, [ivalue(unit_vector(inst.m, i, c)) for i, c in enumerate(counts)]


def single_item_values(inst: Instance, bids=None):
    """Rational value of each seller's affordable single-item bundle."""
    _, ivalues = _single_items(inst, checked_bids(inst, bids))
    return tuple(Rat(v, inst.valuation.scale) for v in ivalues)


def plan_m_one(inst: Instance, bids=None) -> OneLottery:
    counts, values = _single_items(inst, checked_bids(inst, bids))
    # max returns the first maximal item: ties go to the lowest index.
    winner = max(range(inst.m), key=values.__getitem__)
    count = counts[winner]

    # Rivals' values are fixed while the winner's bid is replaced, so the
    # first-place test only needs the best rival (lowest index on ties).
    rivals = (i for i in range(inst.m) if i != winner)
    rival = max(rivals, key=values.__getitem__, default=None)

    # The winner is first at rank k when its value there beats the rival's,
    # or ties it from a lower index: the first rank worth >= the rival
    # (bisect_left) or > it (bisect_right); with no rival, rank 1.  At
    # k = count it is worth values[winner], the first maximum; with no
    # affordable unit there is no rank, and no threshold.
    find = bisect_right if rival is not None and rival < winner else bisect_left
    target = 0 if rival is None else values[rival]
    ivalue, ranks = inst.valuation.ivalue, range(1, count + 1)
    k = find(ranks, target, key=lambda r: ivalue(unit_vector(inst.m, winner, r)))
    return OneLottery(winner, count, min(count, 1 + k), inst.budget)


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
