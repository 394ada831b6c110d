import copy
import pickle

import pytest

from procure import mech_subadditive, valuations
from procure.core import Instance, Outcome, Rat, Seller, utility
from procure.instances import gen_concave_additive, gen_explicit_subadditive
from procure.mech_additive import ranked_pairs
from procure.mech_subadditive import (
    RandRun,
    a_max,
    group_from_mask,
    m_rand_detail,
    phi,
)
from procure.oracles import adversarial_single_seller
from procure.valuations import ConcaveAdditive, Explicit
from procure.verify import MECHANISMS

from corpora import calibration_corpus, dst_corpora, greedy_nonmonotone_instance, two_units
from helpers import (
    brute_force_optimum,
    calibrated_target,
    grid_profiles,
    reference_a_max,
    reference_m_rand_detail,
)


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


def test_a_max_single_seller_factor():
    inst = adversarial_single_seller(6, 6, 3)  # cost 2, six units
    run = a_max(inst.valuation, inst.budget, inst.units, inst.costs, (0,))
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
    assert calibrated_target(inst, None, ()) == 0
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
    out = m_rand_detail(inst, (Rat(5),), ()).outcome
    assert out.allocation == (0,)
    assert utility(out, inst.costs, 0) == 0


def test_m_rand_ir_per_realization():
    inst = greedy_nonmonotone_instance()
    for mask in range(8):
        out = m_rand_detail(inst, None, group_from_mask(mask, 3)).outcome
        for i in range(3):
            assert utility(out, inst.costs, i) >= 0


def test_scenario_descriptors():
    from procure.mech_single_item import run_m_one

    m_sub = MECHANISMS["m_sub"]
    inst = greedy_nonmonotone_instance()
    assert m_sub.run(inst, None, "one:fire") == run_m_one(inst, None, "fire")
    assert m_sub.run(inst, None, "one:skip") == run_m_one(inst, None, "skip")
    rand = m_rand_detail(inst, None, (0, 2)).outcome
    assert m_sub.run(inst, None, "rand:0b101") == rand
    assert m_sub.run(inst, None, "rand:5") == rand
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
        out = m_rand_detail(inst, None, group_from_mask(mask, 3)).outcome
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


def test_a_max_int_budget_matches_equal_rat():
    for inst in (gen_concave_additive(0), gen_explicit_subadditive(15003)):
        assert inst.budget.denominator == 1
        args = (inst.units, inst.costs, tuple(range(inst.m)))
        as_int = cold_a_max(inst.valuation, int(inst.budget), *args)
        assert as_int == cold_a_max(inst.valuation, inst.budget, *args)
        assert type(as_int.winner_value) is Rat


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


def _sampling_corpus():
    """The criterion-8 corpora of m_rand and m_sub, each instance once."""
    seen, out = set(), []
    for mech in ("m_rand", "m_sub"):
        for inst in dst_corpora()[mech]:
            if id(inst) not in seen:
                seen.add(id(inst))
                out.append(inst)
    return out


def test_a_max_matches_rational_reference_on_every_sample_group():
    for n, inst in enumerate(_sampling_corpus()):
        v, b, u = inst.valuation, inst.budget, inst.units
        for mask in range(1 << inst.m):
            group = group_from_mask(mask, inst.m)
            rest = tuple(i for i in range(inst.m) if i not in group)
            # Zero costs for every other member, and non-members' costs that
            # a run must not read.
            odd = tuple(
                (Rat(0) if i % 2 == n % 2 else c) if i in group else Rat(10**9 + 7, i + 2)
                for i, c in enumerate(inst.costs)
            )
            calls = [(inst.costs, group), (odd, group)]
            calls += [((b / k,) * inst.m, rest) for k in (1, 2, inst.total_units)]
            for costs, members in calls:
                got = cold_a_max(v, b, u, costs, members)
                assert got == reference_a_max(v, b, u, costs, members), (n, costs, members)


def decided(inst, bids, group):
    """What ``m_rand_detail`` decided on a profile, after its calibrated
    target, as ``reference_m_rand_detail`` returns them."""
    return (calibrated_target(inst, bids, group), *m_rand_detail(inst, bids, group))


def test_m_rand_detail_matches_rational_reference_on_deviation_grids(monkeypatch):
    # A prefix of each family keeps this near 10 s: the reference has no memo.
    corpus = _sampling_corpus()
    tables = [inst for inst in corpus if isinstance(inst.valuation, Explicit)]
    concave = [inst for inst in corpus if isinstance(inst.valuation, ConcaveAdditive)]
    profiles = grid_profiles(concave[:20] + tables[:20])
    # Every profile's production calibration is computed before the patch;
    # after it, calibrated_target would run the reference on both sides.
    got = [decided(*p) for p in profiles]
    monkeypatch.setattr(mech_subadditive, "a_max", reference_a_max)
    assert [decided(*p) for p in profiles] == got


def test_m_rand_detail_matches_eager_calibration_on_deviation_grids():
    # The reference calibrates before the first round and tries every
    # round.  A prefix of each criterion-8 corpus keeps this near 10 s;
    # m_sub's starts with m_rand's first 40 instances, each run once.
    corpora = dst_corpora()
    prefix = {id(inst): inst for inst in corpora["m_rand"][:200] + corpora["m_sub"][:60]}
    profiles = grid_profiles(prefix.values())
    assert [decided(*p) for p in profiles] == [
        reference_m_rand_detail(*p) for p in profiles
    ]


@pytest.mark.parametrize("limit", [1, 2])
def test_m_rand_detail_matches_cold_runs_at_tiny_memo_limits(monkeypatch, limit):
    # At these limits the memo clears its a_max and demand entries between
    # one run's own calls.  A clear cannot drop an integer form: each
    # valuation keeps its own.
    concave = Instance(
        (Seller(2, Rat(2)), Seller(2, Rat(1)), Seller(1, Rat(3))),
        Rat(6),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5), Rat(2)), (Rat(7),))),
    )
    for inst in (gen_explicit_subadditive(15002), concave):
        groups = [group_from_mask(mask, inst.m) for mask in range(1 << inst.m)]
        twin = Instance(inst.sellers, inst.budget, copy.copy(inst.valuation))
        expected = [decided(twin, None, g) for g in groups]
        with monkeypatch.context() as patch:
            patch.setattr(valuations, "MEMO_LIMIT", limit)
            assert [decided(inst, None, g) for g in groups] == expected


def test_memo_keeps_only_the_latest_valuation():
    x, y = gen_explicit_subadditive(15000), gen_explicit_subadditive(15001)
    for inst in (x, y):
        a_max(inst.valuation, inst.budget, inst.units, inst.costs, range(inst.m))
    assert valuations._demand_caches.get(x.valuation) is None
    table = valuations._demand_caches.get(y.valuation)
    assert table is not None
    # The greedy reads only its valuation's own integer form, so y keeps
    # the memo.
    size = len(table)
    ranked_pairs(gen_concave_additive(15003))
    assert valuations._demand_caches.get(y.valuation) is table and len(table) == size


@pytest.mark.parametrize(
    "top, bid, group, accepted_round, calibrations",
    [
        # Sampled seller 0's full supply gives U = 1,000, and seller 1's
        # round value 1 is below U/128: the round calibrates.
        (1000, Rat(1), (0,), None, 1),  # target 1,000 rejects round 1
        (1000, Rat(11), (0,), 1, 1),  # seller 0 bids over B: target 0 accepts
        # Decided by the bound alone: no calibration.
        (1000, Rat(1), (1,), 1, 0),  # round value 1,000 clears U/128 = 1/128
        (1000, Rat(11), (1,), None, 0),  # nobody is posted at B/1, so no round
        # The bound at its edge: round value 1 clears 128/128, not 129/128.
        (128, Rat(1), (0,), 1, 0),
        (129, Rat(1), (0,), None, 1),
    ],
)
def test_m_rand_calibrates_only_when_the_bound_test_fails(
    monkeypatch, top, bid, group, accepted_round, calibrations
):
    inst = two_units(top)
    bids = (bid, Rat(0))
    calls = []
    real = mech_subadditive.a_max

    def counted(valuation, budget, units, costs, members):
        if tuple(members) == group:
            calls.append(members)
        return real(valuation, budget, units, costs, members)

    monkeypatch.setattr(mech_subadditive, "a_max", counted)
    run = m_rand_detail(inst, bids, group)
    assert run.accepted_round == accepted_round
    assert len(calls) == calibrations
    assert (calibrated_target(inst, bids, group), *run) == reference_m_rand_detail(
        inst, bids, group
    )


def test_rand_run_is_a_plain_value(monkeypatch):
    assert RandRun._fields == ("accepted_round", "outcome")
    # One run accepted after a calibration (zero target), one decided by
    # the bound test alone.
    cases = [
        ((Rat(11), Rat(0)), (0,), RandRun(1, Outcome((0, 1), (Rat(0), Rat(10))))),
        ((Rat(1), Rat(0)), (1,), RandRun(1, Outcome((1, 0), (Rat(10), Rat(0))))),
    ]
    inst = two_units(1000)
    runs = [m_rand_detail(inst, bids, group) for bids, group, _ in cases]
    calls = []
    monkeypatch.setattr(mech_subadditive, "a_max", lambda *args: calls.append(args))
    for run, (_, _, want) in zip(runs, cases):
        assert run == want and hash(run) == hash(want)
        assert copy.copy(run) == copy.deepcopy(run) == pickle.loads(pickle.dumps(run)) == run
        assert (run.accepted_round, run.outcome) == tuple(run) == tuple(run._asdict().values())
    assert len({*runs, *(want for _, _, want in cases)}) == 2
    assert calls == []


def test_m_rand_detail_matches_eager_calibration_where_the_target_decides(monkeypatch):
    # On this corpus the bound test fails in some rounds, so the calibrated
    # target decides them: it rejects a round, or, when zero, accepts one.
    profiles = grid_profiles(calibration_corpus())
    real = mech_subadditive.a_max
    calls = []

    def recorded(valuation, budget, units, costs, members):
        run = real(valuation, budget, units, costs, members)
        calls.append((tuple(members), run.winner_value))
        return run

    monkeypatch.setattr(mech_subadditive, "a_max", recorded)
    rejected = zero_accepted = 0
    for inst, bids, group in profiles:
        calls.clear()
        run = m_rand_detail(inst, bids, group)
        # Each round before the calibration made one a_max call, and the
        # group, disjoint from every posted set, names the calibration.
        made = [(n, value) for n, (members, value) in enumerate(calls) if members == group]
        assert len(made) <= 1
        if made:
            (trigger, target), = made
            rejected += run.accepted_round != trigger
            zero_accepted += target == 0 and run.accepted_round == trigger
    assert rejected and zero_accepted, (rejected, zero_accepted)
    assert [decided(*p) for p in profiles] == [reference_m_rand_detail(*p) for p in profiles]
