import pytest

from procure.core import Instance, Rat, SearchSpaceTooLarge, Seller, unit_vector
from procure.instances import gen_bounded_knapsack, gen_concave_additive
from procure.mech_single_item import plan_m_one
from procure.oracles import (
    DP_CELL_LIMIT,
    _optimal_additive_dp,
    adversarial_single_seller,
    optimal_allocation,
)
from procure.valuations import Additive, BoundedKnapsack, ConcaveAdditive

from corpora import concave_corpus, gen_additive, greedy_nonmonotone_instance
from helpers import (
    brute_force_optimum,
    reference_optimal_additive_dp,
    restricted_optimum,
)


def test_optimum_examples():
    inst = adversarial_single_seller(5, 5, 5)  # unit cost B/5
    assert optimal_allocation(inst) == ((5,), 5)
    pricey = Instance(
        (Seller(2, Rat(9)), Seller(1, Rat(8))),
        Rat(7),
        BoundedKnapsack((Rat(1), Rat(1))),
    )
    assert optimal_allocation(pricey) == ((0, 0), 0)
    inst2 = Instance(
        (Seller(2, Rat(2)), Seller(1, Rat(3))),
        Rat(10),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5),))),
    )
    assert optimal_allocation(inst2) == ((2, 1), 15)


def test_dp_matches_enumeration():
    for i in range(150):
        gen = (gen_concave_additive, gen_bounded_knapsack, gen_additive)[i % 3]
        inst = gen(9000 + i, max_sellers=4, max_total_units=8)
        assert optimal_allocation(inst) == brute_force_optimum(inst)


def test_dp_matches_rational_reference():
    instances = [
        *concave_corpus(),
        *(gen_bounded_knapsack(8000 + s) for s in range(200)),
        *(gen_additive(8500 + s) for s in range(100)),
        *(
            adversarial_single_seller(n, n, k)
            for n in (1, 2, 7, 100)
            for k in (1, n)
        ),
    ]
    for inst in instances:
        alloc, value = _optimal_additive_dp(inst)
        assert (alloc, value) == reference_optimal_additive_dp(inst)
        assert type(value) is Rat


@pytest.mark.parametrize(
    "inst, expected",
    [
        # Equal sellers and a budget for one unit: the later seller's unit.
        (
            Instance(
                (Seller(1, Rat(2)), Seller(1, Rat(2))),
                Rat(3),
                BoundedKnapsack((Rat(4), Rat(4))),
            ),
            ((0, 1), 4),
        ),
        # A zero margin at the end of the list is never bought.
        (
            Instance(
                (Seller(3, Rat(1)),),
                Rat(10),
                Additive(((Rat(3), Rat(1, 2), Rat(0)),)),
            ),
            ((2,), Rat(7, 2)),
        ),
        # A free seller with margins (5, 0) buys one unit.
        (
            Instance(
                (Seller(2, Rat(0)), Seller(1, Rat(1))),
                Rat(1),
                Additive(((Rat(5), Rat(0)), (Rat(2),))),
            ),
            ((1, 1), 7),
        ),
        # The budget exactly affords the optimum, at fractional costs.
        (
            Instance(
                (Seller(2, Rat(1, 3)), Seller(1, Rat(1, 2))),
                Rat(7, 6),
                ConcaveAdditive(((Rat(3, 2), Rat(1)), (Rat(2),))),
            ),
            ((2, 1), Rat(9, 2)),
        ),
    ],
)
def test_dp_tie_break(inst, expected):
    assert optimal_allocation(inst) == expected
    assert brute_force_optimum(inst) == expected


def test_dp_guard_refuses_before_building():
    # One seller and an integer budget of DP_CELL_LIMIT / 2: (m + 1) * (cap + 1)
    # is two cells over the guard.
    inst = adversarial_single_seller(4, DP_CELL_LIMIT // 2, 4)
    with pytest.raises(
        SearchSpaceTooLarge,
        match=r"^knapsack DP table of \d+ cells exceeds the guard$",
    ):
        optimal_allocation(inst)


def test_dp_guard_names_a_count_too_long_to_write():
    # Budget 10^299 / (10^4200 + 1) and cost 1 / (10^4200 + 3) scale the
    # budget to about 10^4499 cells, more digits than str() writes.
    inst = Instance(
        (Seller(1, Rat(1, 10**4200 + 3)),),
        Rat(10**299, 10**4200 + 1),
        BoundedKnapsack((Rat(1),)),
    )
    with pytest.raises(
        SearchSpaceTooLarge,
        match=r"^knapsack DP table of over 10\^100 cells exceeds the guard$",
    ):
        optimal_allocation(inst)


def test_restricted_optimum():
    inst = gen_concave_additive(77)
    full = optimal_allocation(inst)[1]
    nothing = restricted_optimum(inst, ())
    assert nothing == ((0,) * inst.m, 0)
    for members in ((0,), tuple(range(inst.m))):
        alloc, v = restricted_optimum(inst, members)
        assert v <= full
        assert all(a == 0 for i, a in enumerate(alloc) if i not in members)
    assert restricted_optimum(inst, tuple(range(inst.m)))[1] == full


def optimal_single_item(inst):
    """Best single-seller purchase (seller, unit count, value), read off the
    m_one plan under truthful bids."""
    plan = plan_m_one(inst)
    value = inst.value(unit_vector(inst.m, plan.winner, plan.count))
    return plan.winner, plan.count, value


def test_optimal_single_item_examples():
    inst = Instance(
        (Seller(3, Rat(1)), Seller(4, Rat(1))),
        Rat(3),
        ConcaveAdditive(((Rat(5), Rat(1), Rat(1)), (Rat(4), Rat(3), Rat(2), Rat(1)))),
    )
    assert optimal_single_item(inst) == (1, 3, 9)
    solo = adversarial_single_seller(5, 10, 2)
    assert optimal_single_item(solo) == (0, 2, 2)
    pricey = Instance(
        (Seller(2, Rat(9)), Seller(1, Rat(8))),
        Rat(7),
        BoundedKnapsack((Rat(1), Rat(1))),
    )
    assert optimal_single_item(pricey) == (0, 0, 0)


def test_optimal_single_item_zero_cost():
    inst = Instance(
        (Seller(3, Rat(0)), Seller(1, Rat(1))),
        Rat(2),
        BoundedKnapsack((Rat(1), Rat(9))),
    )
    assert optimal_single_item(inst) == (1, 1, 9)
    inst2 = Instance(
        (Seller(3, Rat(0)),),
        Rat(2),
        BoundedKnapsack((Rat(1),)),
    )
    assert optimal_single_item(inst2) == (0, 3, 3)


def test_single_item_below_optimum():
    for i in range(60):
        inst = gen_concave_additive(9500 + i, max_sellers=4, max_total_units=8)
        _, _, v = optimal_single_item(inst)
        assert v <= optimal_allocation(inst)[1]


def test_adversarial_family():
    inst = adversarial_single_seller(4, 4, 4)
    assert inst.costs == (1,)
    assert optimal_allocation(inst)[1] == 4
    worst = adversarial_single_seller(4, 4, 1)
    assert worst.costs == (4,)
    assert optimal_allocation(worst)[1] == 1
    tiny = adversarial_single_seller(1, Rat(7, 2), 1)
    assert tiny.total_units == 1
    with pytest.raises(ValueError):
        adversarial_single_seller(4, 4, 5)
    with pytest.raises(ValueError):
        adversarial_single_seller(4, 4, 0)


def test_explicit_optimum_via_enumeration():
    inst = greedy_nonmonotone_instance()
    alloc, value = optimal_allocation(inst)
    assert (alloc, value) == ((0, 1, 2), Rat(1607, 100))
