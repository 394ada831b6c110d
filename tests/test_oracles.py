import pytest

from procure.core import Instance, Rat, Seller, unit_vector
from procure.instances import (
    gen_additive,
    gen_bounded_knapsack,
    gen_concave_additive,
    greedy_nonmonotone_instance,
)
from procure.mech_single_item import plan_m_one
from procure.oracles import (
    adversarial_single_seller,
    optimal_allocation,
    optimal_allocation_bruteforce,
)
from procure.valuations import BoundedKnapsack, ConcaveAdditive

from helpers import brute_force_optimum


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
        assert optimal_allocation(inst) == optimal_allocation_bruteforce(inst)


def test_restricted_optimum():
    inst = gen_concave_additive(77)
    full = optimal_allocation(inst)[1]
    nothing = optimal_allocation(inst, members=())
    assert nothing == ((0,) * inst.m, 0)
    for members in ((0,), tuple(range(inst.m))):
        alloc, v = optimal_allocation(inst, members=members)
        assert v <= full
        assert all(a == 0 for i, a in enumerate(alloc) if i not in members)
    assert optimal_allocation(inst, members=tuple(range(inst.m)))[1] == full


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
