import random

import pytest

from procure.core import (
    Instance,
    NoThreshold,
    Rat,
    Seller,
    WrongValuationClass,
    utility,
)
from procure.instances import gen_concave_additive, gen_symmetric
from procure.mech_additive import (
    greedy_allocate,
    greedy_payments,
    pickup_flags,
    ranked_pairs,
    run_m_add,
    run_m_sym,
    star_seller,
    sym_allocate,
    sym_payments,
    sym_threshold,
    threshold,
)
from procure.valuations import Additive, BoundedKnapsack, ConcaveAdditive, Symmetric

from corpora import symmetric_corpus
from helpers import (
    cheapest_prefix_allocate,
    cheapest_prefix_threshold,
    independent_threshold,
)


@pytest.fixture
def two_seller():
    return Instance(
        (Seller(2, Rat(2)), Seller(1, Rat(3))),
        Rat(10),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5),))),
    )


def test_greedy_example(two_seller):
    assert greedy_allocate(two_seller) == (2, 1)
    flags = pickup_flags(two_seller)
    order = [(p.seller, p.unit) for p, _ in flags]
    assert order == [(0, 1), (0, 2), (1, 1)]
    assert all(ok for _, ok in flags)


def test_greedy_single_seller_full_budget():
    inst = Instance(
        (Seller(3, Rat(10)),), Rat(10), BoundedKnapsack((Rat(1),))
    )
    assert greedy_allocate(inst) == (1,)
    # the sole pair satisfies bid/value = B <= B/1 with equality
    assert threshold(inst, 0, 1) == 10


def test_greedy_unaffordable_is_empty():
    inst = Instance(
        (Seller(2, Rat(25)),), Rat(10), BoundedKnapsack((Rat(1),))
    )
    assert greedy_allocate(inst) == (0, )


def test_pickup_rule_matches_prefix_rule():
    for i in range(80):
        inst = gen_concave_additive(11000 + i, max_sellers=4, max_total_units=9)
        alloc = greedy_allocate(inst)
        flags = pickup_flags(inst)
        k = sum(1 for _, ok in flags if ok)
        assert sum(alloc) == k
        taken = [ok for _, ok in flags]
        # picked pairs are exactly the longest satisfying prefix
        assert taken == sorted(taken, reverse=True)


def test_threshold_examples(two_seller):
    assert threshold(two_seller, 1, 1) == Rat(10, 3)
    assert threshold(two_seller, 0, 1) == Rat(60, 11)
    assert threshold(two_seller, 0, 2) == Rat(8, 3)


def test_threshold_matches_search_oracle(two_seller):
    for seller, unit in ((0, 1), (0, 2), (1, 1)):
        assert threshold(two_seller, seller, unit) == independent_threshold(
            two_seller, seller, unit
        )


def test_threshold_single_seller_closed_form():
    margins = (Rat(7), Rat(5), Rat(2))
    inst = Instance(
        (Seller(3, Rat(1)),), Rat(12), ConcaveAdditive((margins,))
    )
    prefix = Rat(0)
    for j, v in enumerate(margins, start=1):
        prefix += v
        assert threshold(inst, 0, j) == v * inst.budget / prefix


def test_threshold_limited_by_rank_crossing():
    # The budget-share inequality alone would allow bids up to 10, but any
    # bid above 2 drops the unit behind a huge low-rate rival pair where
    # the inequality fails, so the crossing is the binding threshold.
    inst = Instance(
        (Seller(1, Rat(1)), Seller(1, Rat(50))),
        Rat(10),
        ConcaveAdditive(((Rat(4),), (Rat(100),))),
    )
    assert greedy_allocate(inst) == (1, 0)
    assert threshold(inst, 0, 1) == 2
    assert independent_threshold(inst, 0, 1) == 2
    assert greedy_allocate(inst, (Rat(19, 10), Rat(50)))[0] == 1
    assert greedy_allocate(inst, (Rat(21, 10), Rat(50)))[0] == 0


def test_threshold_errors(two_seller):
    with pytest.raises(NoThreshold):
        threshold(two_seller, 1, 1, bids=(Rat(2), Rat(9)))  # unit not bought
    zeromargin = Instance(
        (Seller(2, Rat(1)),), Rat(4), ConcaveAdditive(((Rat(3), Rat(0)),))
    )
    with pytest.raises(NoThreshold):
        threshold(zeromargin, 0, 2)  # stripped zero-value unit
    with pytest.raises(IndexError):
        threshold(two_seller, 5, 1)


def test_threshold_flip_behavior(two_seller):
    for seller, unit in ((0, 1), (0, 2), (1, 1)):
        theta = threshold(two_seller, seller, unit)
        delta = theta / 10**6
        bids = list(two_seller.costs)
        bids[seller] = theta - delta
        assert greedy_allocate(two_seller, tuple(bids))[seller] >= unit
        bids[seller] = theta + delta
        assert greedy_allocate(two_seller, tuple(bids))[seller] < unit


def test_monotone_allocation_rule():
    rng = random.Random(5)
    for i in range(60):
        inst = gen_concave_additive(12000 + i, max_sellers=4, max_total_units=9)
        bids = list(inst.costs)
        seller = rng.randrange(inst.m)
        before = greedy_allocate(inst, tuple(bids))[seller]
        if bids[seller] == 0:
            continue
        bids[seller] = bids[seller] * Rat(rng.randint(1, 9), 10)
        after = greedy_allocate(inst, tuple(bids))[seller]
        assert after >= before


def test_greedy_payments_cover_costs():
    for i in range(40):
        inst = gen_concave_additive(13000 + i, max_sellers=4, max_total_units=8)
        alloc, payments = greedy_payments(inst)
        for a, p, c in zip(alloc, payments, inst.costs):
            assert p >= a * c


def test_greedy_plus_star_is_half_of_optimum():
    from procure.core import unit_vector
    from procure.oracles import optimal_allocation

    for i in range(60):
        inst = gen_concave_additive(16000 + i, max_sellers=4, max_total_units=9)
        got = inst.value(greedy_allocate(inst))
        star = inst.value(unit_vector(inst.m, star_seller(inst)))
        opt = optimal_allocation(inst)[1]
        assert 2 * (got + star) >= opt


def test_run_m_add_branches(two_seller):
    greedy = run_m_add(two_seller, None, "greedy")
    assert greedy.allocation == (2, 1)
    assert greedy.payments == (Rat(268, 33), Rat(10, 3))
    star = run_m_add(two_seller, None, "star")
    assert star.allocation == (1, 0)
    assert star.payments == (Rat(10), Rat(0))
    bot = run_m_add(two_seller, None, "bot")
    assert bot.allocation == (0, 0)
    assert bot.total_payment == 0
    with pytest.raises(ValueError):
        run_m_add(two_seller, None, "nope")


def test_star_seller_tie_break():
    inst = Instance(
        (Seller(1, Rat(1)), Seller(1, Rat(1))),
        Rat(5),
        BoundedKnapsack((Rat(3), Rat(3))),
    )
    assert star_seller(inst) == 0
    inst2 = Instance(
        (Seller(1, Rat(1)), Seller(1, Rat(1))),
        Rat(5),
        BoundedKnapsack((Rat(2), Rat(3))),
    )
    assert star_seller(inst2) == 1


def test_zero_cost_seller_ranks_first():
    inst = Instance(
        (Seller(1, Rat(2)), Seller(2, Rat(0))),
        Rat(4),
        ConcaveAdditive(((Rat(9),), (Rat(1), Rat(1)))),
    )
    pairs = ranked_pairs(inst)
    assert (pairs[0].seller, pairs[0].unit) == (1, 1)
    alloc, payments = greedy_payments(inst)
    assert alloc[1] == 2
    assert payments[1] >= 0
    assert utility(run_m_add(inst, None, "greedy"), inst.costs, 1) >= 0


def test_wrong_valuation_class():
    nonconcave = Instance(
        (Seller(2, Rat(1)),), Rat(4), Additive(((Rat(1), Rat(5)),))
    )
    with pytest.raises(WrongValuationClass):
        greedy_allocate(nonconcave)
    sym = gen_symmetric(3)
    with pytest.raises(WrongValuationClass):
        greedy_allocate(sym)
    conc = gen_concave_additive(3)
    with pytest.raises(WrongValuationClass):
        sym_allocate(conc)


def test_lottery_probabilities():
    from procure.verify import MECHANISMS

    def probs(inst):
        return {s.branch: s.probability for s in MECHANISMS["m_add"].scenarios(inst)}

    lot = probs(gen_concave_additive(17))
    assert lot["greedy"] + lot["star"] + lot["bot"] == pytest.approx(1.0, abs=1e-12)
    single = Instance((Seller(1, Rat(1)),), Rat(2), BoundedKnapsack((Rat(1),)))
    lot1 = probs(single)
    assert lot1["greedy"] == pytest.approx(0.5)
    assert lot1["bot"] == pytest.approx(0.0, abs=1e-12)


# Symmetric variant


@pytest.fixture
def sym_inst():
    return Instance(
        (Seller(2, Rat(1)), Seller(2, Rat(4))),
        Rat(8),
        Symmetric((Rat(10), Rat(6), Rat(3), Rat(1))),
    )


def test_sym_allocate_example(sym_inst):
    # seller 2's first unit would need cost <= 8/3; it bids 4
    assert sym_allocate(sym_inst) == (2, 0)


def test_sym_allocate_edges():
    full = Instance(
        (Seller(4, Rat(2)),), Rat(8), Symmetric((Rat(5),) * 4)
    )
    assert sym_allocate(full) == (4,)
    pricey = Instance(
        (Seller(2, Rat(9)),), Rat(8), Symmetric((Rat(5), Rat(5)))
    )
    assert sym_allocate(pricey) == (0,)


def test_sym_thresholds_flip(sym_inst):
    alloc = sym_allocate(sym_inst)
    for i in range(sym_inst.m):
        for j in range(1, alloc[i] + 1):
            theta = sym_threshold(sym_inst, i, j)
            delta = theta / 10**6
            bids = list(sym_inst.costs)
            bids[i] = theta - delta
            assert sym_allocate(sym_inst, tuple(bids))[i] >= j
            bids[i] = theta + delta
            assert sym_allocate(sym_inst, tuple(bids))[i] < j


def _symmetric_bid_profiles(inst, rng, count=3):
    """Truthful bids, then random profiles mixing zero, tied and B/k bids."""
    yield inst.costs
    budget = inst.budget
    for _ in range(count):
        bids = []
        for _ in range(inst.m):
            kind = rng.randrange(4)
            if kind == 0:
                bids.append(Rat(0))
            elif kind == 1:
                bids.append(budget / rng.randint(1, inst.total_units))
            elif kind == 2 and bids:
                bids.append(rng.choice(bids))
            else:
                bids.append(budget * Rat(rng.randint(1, 40), 32))
        yield tuple(bids)


def test_sym_rule_matches_cheapest_prefix_reference():
    # sym_allocate and sym_threshold against the rule stated directly (rank
    # by bid, keep while bid * rank <= B) and a search over its breakpoints.
    rng = random.Random(31)
    queries = 0
    for inst in symmetric_corpus():
        for bids in _symmetric_bid_profiles(inst, rng):
            alloc = sym_allocate(inst, bids)
            assert alloc == cheapest_prefix_allocate(inst, bids)
            for i in range(inst.m):
                for j in range(1, alloc[i] + 1):
                    expected = cheapest_prefix_threshold(inst, i, j, bids)
                    assert sym_threshold(inst, i, j, bids) == expected
                    queries += 1
                for j in range(alloc[i] + 1, inst.units[i] + 1):
                    with pytest.raises(NoThreshold):
                        sym_threshold(inst, i, j, bids)
                    with pytest.raises(NoThreshold):
                        cheapest_prefix_threshold(inst, i, j, bids)
    assert queries > 500


def test_sym_payments_cover_costs():
    for i in range(30):
        inst = gen_symmetric(14000 + i, max_sellers=4, max_total_units=8)
        alloc, payments = sym_payments(inst)
        for a, p, c in zip(alloc, payments, inst.costs):
            assert p >= a * c


def test_run_m_sym_branches(sym_inst):
    greedy = run_m_sym(sym_inst, None, "greedy")
    assert greedy.allocation == (2, 0)
    star = run_m_sym(sym_inst, None, "star")
    assert star.allocation == (1, 0)
    assert star.payments[0] == sym_inst.budget
    assert run_m_sym(sym_inst, None, "bot").allocation == (0, 0)
