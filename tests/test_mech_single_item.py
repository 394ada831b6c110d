import random

import pytest

from procure.core import Instance, Rat, Seller, affordable_count, utility
from procure.mech_single_item import (
    OneLottery,
    harmonic,
    plan_m_one,
    run_m_one,
    single_item_values,
)
from procure.oracles import adversarial_single_seller
from procure.valuations import Additive, BoundedKnapsack, ConcaveAdditive

from corpora import dst_corpora, gen_explicit_monotone, greedy_at_scale, m_one_corpus
from helpers import reference_plan_m_one, seller_grid


def resolved(plan):
    """A plan as ``reference_plan_m_one`` restates it."""
    return plan.winner, plan.count, plan.crossover, plan.thresholds


@pytest.fixture
def tie_blocked():
    # at B/2 the winner's value ties the rival's 7 and loses on index
    return Instance(
        (Seller(3, Rat(1)), Seller(4, Rat(1))),
        Rat(3),
        ConcaveAdditive(
            ((Rat(5), Rat(1), Rat(1)), (Rat(4), Rat(3), Rat(2), Rat(1)))
        ),
    )


def test_plan_example(tie_blocked):
    plan = plan_m_one(tie_blocked)
    assert (plan.winner, plan.count, plan.crossover) == (1, 3, 3)
    assert plan.thresholds == (Rat(1), Rat(1), Rat(1))


def test_plan_harmonic_single_seller():
    inst = adversarial_single_seller(5, 5, 5)  # cost 1 = B/5
    plan = plan_m_one(inst)
    assert (plan.winner, plan.count, plan.crossover) == (0, 5, 1)
    b = inst.budget
    assert plan.thresholds == (b, b / 2, b / 3, b / 4, b / 5)
    fire = run_m_one(inst, None, "fire")
    assert fire.allocation == (5,)
    assert fire.payments[0] == b * Rat(137, 60)


def test_plan_empty_when_unaffordable():
    inst = Instance(
        (Seller(2, Rat(9)), Seller(1, Rat(8))),
        Rat(7),
        BoundedKnapsack((Rat(1), Rat(1))),
    )
    plan = plan_m_one(inst)
    assert plan.count == 0 and plan.thresholds == ()
    assert run_m_one(inst, None, "fire").allocation == (0, 0)


def test_plan_and_fire_at_zero_count():
    # No seller affords a unit: the plan is all zeros and firing it buys
    # exactly the empty outcome.
    inst = Instance(
        (Seller(2, Rat(9)), Seller(1, Rat(8))),
        Rat(7),
        BoundedKnapsack((Rat(1), Rat(1))),
    )
    assert plan_m_one(inst) == OneLottery(0, 0, 0, inst.budget)
    assert plan_m_one(inst).thresholds == () and plan_m_one(inst).total_payment == 0
    assert run_m_one(inst, None, "fire") == inst.empty_outcome()


def test_rival_tie_goes_to_lower_index():
    # Sellers 0 and 2 tie as the winner's rival at value 4.  The first of
    # them, seller 0, has a lower index than the winner, so the winner needs
    # all 5 units to beat it; seller 2 as rival would give crossover 4.
    inst = Instance(
        (Seller(2, Rat(5)), Seller(5, Rat(2)), Seller(2, Rat(5))),
        Rat(10),
        BoundedKnapsack((Rat(2), Rat(1), Rat(2))),
    )
    plan = plan_m_one(inst)
    assert (plan.winner, plan.count, plan.crossover) == (1, 5, 5)
    assert plan.thresholds == (Rat(2),) * 5


def test_run_m_one_skip(tie_blocked):
    out = run_m_one(tie_blocked, None, "skip")
    assert out.allocation == (0, 0) and out.total_payment == 0
    with pytest.raises(ValueError):
        run_m_one(tie_blocked, None, "nope")


def test_thresholds_non_increasing_and_ir():
    for inst in m_one_corpus()[:80]:
        plan = plan_m_one(inst)
        th = plan.thresholds
        assert all(x >= y for x, y in zip(th, th[1:]))
        c = inst.costs[plan.winner]
        assert all(t >= c for t in th)
        assert plan.total_payment >= plan.count * c


def test_threshold_flip_semantics():
    for inst in m_one_corpus()[:40]:
        plan = plan_m_one(inst)
        if plan.count == 0:
            continue
        bids = list(inst.costs)
        for rank in (1, plan.crossover, plan.count):
            theta = plan.thresholds[rank - 1]
            delta = theta / 10**6
            bids[plan.winner] = theta - delta
            low = plan_m_one(inst, tuple(bids))
            assert low.winner == plan.winner and low.count >= rank
            bids[plan.winner] = theta + delta
            high = plan_m_one(inst, tuple(bids))
            sold = high.count if high.winner == plan.winner else 0
            assert sold < rank
            bids[plan.winner] = inst.costs[plan.winner]


def test_monotone_in_winner_bid():
    rng = random.Random(3)
    for inst in m_one_corpus()[:40]:
        plan = plan_m_one(inst)
        bid = inst.costs[plan.winner]
        if bid == 0:
            continue
        bids = list(inst.costs)
        bids[plan.winner] = bid * Rat(rng.randint(1, 9), 10)
        lower = plan_m_one(inst, tuple(bids))
        assert lower.winner == plan.winner
        assert lower.count >= plan.count


def test_ordering_tie_goes_to_lower_index():
    inst = Instance(
        (Seller(2, Rat(1)), Seller(2, Rat(1))),
        Rat(2),
        BoundedKnapsack((Rat(3), Rat(3))),
    )
    assert plan_m_one(inst).winner == 0


def test_zero_cost_winner():
    inst = Instance(
        (Seller(3, Rat(0)),), Rat(2), BoundedKnapsack((Rat(1),))
    )
    plan = plan_m_one(inst)
    assert (plan.winner, plan.count) == (0, 3)
    assert plan.total_payment >= 0
    assert utility(run_m_one(inst, None, "fire"), inst.costs, 0) >= 0


class _PerItemMonotone:
    """Monotone along each item's axis but not globally monotone."""

    scale = 1

    def __init__(self):
        b = {
            (0, 0): Rat(0),
            (1, 0): Rat(6),
            (2, 0): Rat(8),
            (0, 1): Rat(5),
            (1, 1): Rat(4),  # mixing items destroys value
            (2, 1): Rat(5),
        }
        self.table = b

    def check_units(self, units):
        assert units == (2, 1)

    def value(self, alloc):
        return self.table[tuple(alloc)]

    def ivalue(self, alloc):
        return int(self.table[tuple(alloc)])


def test_plan_needs_only_per_item_monotonicity():
    inst = Instance(
        (Seller(2, Rat(1)), Seller(1, Rat(1))),
        Rat(2),
        _PerItemMonotone(),
    )
    plan = plan_m_one(inst)
    assert (plan.winner, plan.count) == (0, 2)
    values = single_item_values(inst)
    assert values == (Rat(8), Rat(5))
    out = run_m_one(inst, None, "fire")
    assert out.allocation == (2, 0)
    # posted thresholds stay a dominant strategy on a bid grid
    truth_u = utility(out, inst.costs, 0)
    for dev in (Rat(1, 2), Rat(3, 2), Rat(2), Rat(3)):
        dev_out = run_m_one(inst, (dev, Rat(1)), "fire")
        assert utility(dev_out, inst.costs, 0) <= truth_u


def test_affordable_count_floor():
    inst = Instance(
        (Seller(5, Rat(3)),), Rat(10), BoundedKnapsack((Rat(1),))
    )
    assert affordable_count(inst.units[0], inst.budget, Rat(3)) == 3
    assert affordable_count(inst.units[0], inst.budget, Rat(0)) == 5
    assert affordable_count(inst.units[0], inst.budget, Rat(11)) == 0


def test_explicit_nonconcave_corpus_members_work():
    inst = gen_explicit_monotone(123)
    plan = plan_m_one(inst)
    assert 0 <= plan.count <= inst.units[plan.winner]


def _harmonic(n):
    # Winner margins 1, 1/2, ..., 1/n; the rival is worth just under the
    # winner's whole bundle, so the crossover is the last rank.
    margins = tuple(Rat(1, k) for k in range(1, n + 1))
    rival = sum(margins, Rat(0)) - Rat(1, 2 * n)
    return Instance(
        (Seller(n, Rat(1)), Seller(1, Rat(1))), Rat(n), ConcaveAdditive((margins, (rival,)))
    )


def _plateau_tie(winner):
    # The winner's values 2, 4, 4, 5, 6 tie the rival's 4 at ranks 2 and 3:
    # from a lower index it is first at rank 2, from a higher one at rank 4.
    per_item = [(Rat(4),)] * 2
    per_item[winner] = (Rat(2), Rat(2), Rat(0), Rat(1), Rat(1))
    sellers = [Seller(1, Rat(1))] * 2
    sellers[winner] = Seller(5, Rat(1))
    return Instance(tuple(sellers), Rat(5), Additive(tuple(per_item)))


_HAND_BUILT = {
    "tie-rival-lower-index": (lambda: _plateau_tie(1), 4),
    "tie-rival-higher-index": (lambda: _plateau_tie(0), 2),
    "count-0": (
        lambda: Instance(
            (Seller(2, Rat(9)), Seller(1, Rat(8))), Rat(7), BoundedKnapsack((Rat(1), Rat(1)))
        ),
        0,
    ),
    "single-seller": (lambda: adversarial_single_seller(5, 5, 5), 1),
    "harmonic-4000-units": (lambda: _harmonic(4000), 4000),
}


@pytest.mark.parametrize("case", _HAND_BUILT)
def test_bisected_crossover_matches_rational_scan_on_hand_built_cases(case):
    build, crossover = _HAND_BUILT[case]
    inst = build()
    plan = plan_m_one(inst)
    assert resolved(plan) == reference_plan_m_one(inst)
    assert plan.crossover == crossover


def test_bisected_crossover_matches_rational_scan_on_deviation_grids():
    # Every grid-16 deviation point of every seller of the m_one corpus and
    # the m_sub criterion-8 corpus.
    profiles = 0
    for inst in m_one_corpus() + dst_corpora()["m_sub"]:
        for seller in range(inst.m):
            for bid in seller_grid("m_one", inst, inst.costs, seller, 16):
                bids = inst.costs[:seller] + (bid,) + inst.costs[seller + 1 :]
                plan = plan_m_one(inst, bids)
                assert resolved(plan) == reference_plan_m_one(inst, bids), (inst, bids)
                profiles += 1
    assert profiles >= 19_452 + 3_096


def test_total_payment_is_the_exact_sum_of_the_thresholds():
    # B * (1 + H_count - H_crossover) is the rational sum of the thresholds,
    # below and past the kept harmonic prefix sums (HARMONIC_KEPT = 4,096).
    instances = [
        *m_one_corpus(),
        greedy_at_scale(300),
        *(adversarial_single_seller(n, n, n) for n in (1, 2, 400, 10**4)),
    ]
    for inst in instances:
        plan = plan_m_one(inst)
        assert plan.total_payment == sum(plan.thresholds, Rat(0)), inst
    assert plan.count == 10**4 and plan.total_payment == 10**4 * harmonic(10**4)
