import copy

import pytest

from procure import mech_subadditive, valuations
from procure.core import Instance, Rat, Seller, utility
from procure.instances import gen_explicit_subadditive
from procure.mech_subadditive import (
    a_max,
    group_from_mask,
    m_rand_detail,
    phi,
    run_m_rand,
)
from procure.oracles import adversarial_single_seller
from procure.valuations import ConcaveAdditive, Explicit
from procure.verify import MECHANISMS

from corpora import greedy_nonmonotone_instance
from helpers import brute_force_optimum


def test_phi_guard():
    assert phi(4) == pytest.approx(1 / 128)
    assert phi(16) == pytest.approx(1 / 128)
    for n in (1, 2, 3):
        assert phi(n) == phi(4) > 0
    assert phi(64) == pytest.approx((2.584962500721156 / 384), rel=1e-12)


def test_a_max_zero_costs_buys_caps():
    strict = Explicit.from_mapping(
        (1, 1),
        {(0, 0): Rat(0), (1, 0): Rat(2), (0, 1): Rat(3), (1, 1): Rat(4)},
    )
    inst = Instance(
        (Seller(1, Rat(0)), Seller(1, Rat(0))), Rat(5), strict
    )
    run = a_max(inst.valuation, inst.budget, inst.units, inst.costs, (0, 1))
    assert run.winner == (1, 1)
    assert run.capped_units == (1, 1)


def test_a_max_single_seller_factor():
    inst = adversarial_single_seller(6, 6, 3)  # cost 2, six units
    run = a_max(inst.valuation, inst.budget, inst.units, inst.costs, (0,))
    assert run.grid == (run.anchor_value,)
    opt = brute_force_optimum(inst)[1]
    assert 8 * run.winner_value >= opt


def test_a_max_factor_eight_on_example_table():
    inst = greedy_nonmonotone_instance()
    run = a_max(inst.valuation, inst.budget, inst.units, inst.costs, (0, 1, 2))
    opt = brute_force_optimum(inst)[1]
    assert opt == Rat(1607, 100)
    assert 8 * run.winner_value >= opt
    # determinism across reruns
    again = a_max(inst.valuation, inst.budget, inst.units, inst.costs, (0, 1, 2))
    assert again == run


def test_a_max_prefix_respects_budget():
    for i in range(25):
        inst = gen_explicit_subadditive(15000 + i)
        run = a_max(inst.valuation, inst.budget, inst.units, inst.costs,
                    tuple(range(inst.m)))
        spend = sum(
            (x * c for x, c in zip(run.winner, inst.costs)), Rat(0)
        )
        assert spend <= inst.budget


def test_a_max_empty_members():
    inst = greedy_nonmonotone_instance()
    run = a_max(inst.valuation, inst.budget, inst.units, inst.costs, ())
    assert run.winner == (0, 0, 0) and run.winner_value == 0


def test_m_rand_all_sampled_away_buys_nothing():
    inst = greedy_nonmonotone_instance()
    detail = m_rand_detail(inst, None, (0, 1, 2))
    assert detail.accepted_round is None
    assert detail.outcome.allocation == (0, 0, 0)
    assert detail.outcome.total_payment == 0


def test_m_rand_empty_sample_group_accepts_first_positive_round():
    inst = adversarial_single_seller(5, 5, 5)
    detail = m_rand_detail(inst, None, ())
    assert detail.sample_value == 0
    assert detail.accepted_round == 1
    assert detail.outcome.allocation == (1,)
    assert detail.outcome.payments == (Rat(5),)


def test_m_rand_posted_price_payment_identity():
    inst = greedy_nonmonotone_instance()
    for mask in range(8):
        group = group_from_mask(mask, 3)
        detail = m_rand_detail(inst, None, group)
        out = detail.outcome
        assert out.total_payment <= inst.budget
        for i in group:
            assert out.allocation[i] == 0 and out.payments[i] == 0
        if detail.accepted_round is not None:
            price = inst.budget / detail.accepted_round
            for i, x in enumerate(out.allocation):
                assert out.payments[i] == x * price


def test_m_rand_overbid_excludes_from_round():
    inst = adversarial_single_seller(4, 4, 4)
    base = m_rand_detail(inst, None, ())
    assert base.accepted_round == 1
    # bidding above every B/k price forfeits all rounds
    out = run_m_rand(inst, (Rat(5),), ())
    assert out.allocation == (0,)
    assert utility(out, inst.costs, 0) == 0


def test_m_rand_ir_per_realization():
    inst = greedy_nonmonotone_instance()
    for mask in range(8):
        out = run_m_rand(inst, None, group_from_mask(mask, 3))
        for i in range(3):
            assert utility(out, inst.costs, i) >= 0


def test_scenario_descriptors():
    from procure.mech_single_item import run_m_one

    m_sub = MECHANISMS["m_sub"]
    inst = greedy_nonmonotone_instance()
    assert m_sub.run(inst, None, "one:fire") == run_m_one(inst, None, "fire")
    assert m_sub.run(inst, None, "one:skip") == run_m_one(inst, None, "skip")
    assert m_sub.run(inst, None, "rand:0b101") == run_m_rand(inst, None, (0, 2))
    assert m_sub.run(inst, None, "rand:5") == run_m_rand(inst, None, (0, 2))
    assert group_from_mask(0, 3) == ()
    with pytest.raises(ValueError):
        m_sub.run(inst, None, "rand:0b1000")
    with pytest.raises(ValueError):
        m_sub.run(inst, None, "both:fire")
    with pytest.raises(ValueError):
        m_sub.run(inst, None, "rand:xyz")


def test_run_m_sub_dispatch():
    m_sub = MECHANISMS["m_sub"]
    inst = adversarial_single_seller(5, 5, 5)
    assert m_sub.run(inst, None, "one:skip").allocation == (0,)
    fire = m_sub.run(inst, None, "one:fire")
    assert fire.payments[0] == Rat(137, 12)  # 5 * H_5
    assert m_sub.run(inst, None, "rand:0b1").allocation == (0,)
    assert m_sub.run(inst, None, "rand:0b0").allocation == (1,)


def test_m_rand_concave_demand_path():
    inst = Instance(
        (Seller(2, Rat(2)), Seller(2, Rat(1)), Seller(1, Rat(3))),
        Rat(6),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5), Rat(2)), (Rat(7),))),
    )
    for mask in range(8):
        out = run_m_rand(inst, None, group_from_mask(mask, 3))
        assert out.total_payment <= inst.budget
        for i in group_from_mask(mask, 3):
            assert out.allocation[i] == 0


# The valuation memo: a shallow copy of a valuation is equal to it but is
# another object, so a call on the copy starts from a cold memo.
def cold_a_max(valuation, *args):
    return a_max(copy.copy(valuation), *args)


def test_a_max_memo_ignores_non_member_costs():
    inst = greedy_nonmonotone_instance()
    v, b, u = inst.valuation, inst.budget, inst.units
    run = a_max(v, b, u, (Rat(1), Rat(2), Rat(1)), (0, 2))
    again = a_max(v, b, u, (Rat(1), Rat(7, 3), Rat(1)), (0, 2))
    assert again is run
    assert again == cold_a_max(v, b, u, (Rat(1), Rat(7, 3), Rat(1)), (0, 2))


def test_a_max_memo_member_cost_change_matches_cold_call():
    inst = greedy_nonmonotone_instance()
    v, b, u = inst.valuation, inst.budget, inst.units
    a_max(v, b, u, (Rat(1), Rat(2), Rat(1)), (0, 1, 2))
    for c in (Rat(1, 2), Rat(3, 2), Rat(3)):
        costs = (Rat(1), c, Rat(1))
        assert a_max(v, b, u, costs, (0, 1, 2)) == cold_a_max(v, b, u, costs, (0, 1, 2))


def test_a_max_memo_alternating_valuations_match_cold_calls():
    x, y = gen_explicit_subadditive(15000), gen_explicit_subadditive(15001)
    calls = [
        (inst, tuple(inst.budget / k for _ in range(inst.m)))
        for k in range(1, 7)
        for inst in (x, y)
    ]
    for inst, costs in calls + calls:
        args = (inst.budget, inst.units, costs, tuple(range(inst.m)))
        assert a_max(inst.valuation, *args) == cold_a_max(inst.valuation, *args)


def test_a_max_memo_bounded_table(monkeypatch):
    inst = gen_explicit_subadditive(15002)
    groups = [group_from_mask(mask, inst.m) for mask in range(1 << inst.m)]
    twin = Instance(inst.sellers, inst.budget, copy.copy(inst.valuation))
    expected = [m_rand_detail(twin, None, g) for g in groups]
    monkeypatch.setattr(valuations, "MEMO_LIMIT", 4)
    real_demand, sizes = mech_subadditive.demand, []

    def demand(valuation, prices, caps):
        result = real_demand(valuation, prices, caps)
        sizes.append(len(valuations._demand_caches.get(valuation)))
        return result

    monkeypatch.setattr(mech_subadditive, "demand", demand)
    got = []
    for g in groups:
        got.append(m_rand_detail(inst, None, g))
        sizes.append(len(valuations._demand_caches.get(inst.valuation)))
    assert got == expected
    assert max(sizes) == 4


def test_memo_keeps_only_the_latest_valuation():
    x, y = gen_explicit_subadditive(15000), gen_explicit_subadditive(15001)
    for inst in (x, y):
        a_max(inst.valuation, inst.budget, inst.units, inst.costs, range(inst.m))
    assert valuations._demand_caches.get(x.valuation) is None
    assert valuations._demand_caches.get(y.valuation) is not None
