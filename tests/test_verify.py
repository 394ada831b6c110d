import json
import random
from math import log

import pytest

from procure.core import Instance, Rat, Seller
from procure.instances import instance_digest
from procure.oracles import adversarial_single_seller
from procure.valuations import BoundedKnapsack, ConcaveAdditive
from procure.verify import (
    CSV_HEADER,
    MECHANISMS,
    check_budget,
    check_dst,
    check_ir,
    deviation_grid,
    expected_value,
    measure_ratio,
    run_scenario,
    verify_instance,
)

from corpora import greedy_nonmonotone_instance
from helpers import (
    expected_payment,
    greedy_marginal,
    partition_chain_records,
    partition_success_frequency,
    replay_witness,
)


@pytest.fixture
def two_seller():
    return Instance(
        (Seller(2, Rat(2)), Seller(1, Rat(3))),
        Rat(10),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5),))),
    )


def test_scenario_probabilities_m_add():
    inst = adversarial_single_seller(5, 5, 5)
    scens = MECHANISMS["m_add"].scenarios(inst)
    probs = {s.branch: s.probability for s in scens}
    assert probs["greedy"] == pytest.approx(1 / (2 * (1 + log(5))), abs=1e-12)
    assert probs["star"] == 0.5
    assert probs["greedy"] == pytest.approx(0.19157, abs=1e-4)
    assert probs["bot"] == pytest.approx(0.30843, abs=1e-4)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_scenario_probabilities_m_one_single_unit():
    inst = adversarial_single_seller(1, 2, 1)
    scens = MECHANISMS["m_one"].scenarios(inst)
    assert scens[0].branch == "fire"
    assert scens[0].probability == pytest.approx(1.0)
    assert scens[1].probability == pytest.approx(0.0, abs=1e-12)


def _registry_instance(mech, two_seller):
    if MECHANISMS[mech].applicable(two_seller) is None:
        return two_seller
    from procure.instances import gen_symmetric

    return gen_symmetric(5, max_sellers=2, max_total_units=4)


def test_scenario_spaces_and_sums(two_seller):
    inst3 = greedy_nonmonotone_instance()
    assert len(MECHANISMS["m_rand"].scenarios(inst3)) == 8
    assert all(
        s.probability == pytest.approx(1 / 8)
        for s in MECHANISMS["m_rand"].scenarios(inst3)
    )
    assert len(MECHANISMS["m_sub"].scenarios(inst3)) == 10
    for mech, lottery in MECHANISMS.items():
        for inst in (inst3, _registry_instance(mech, two_seller)):
            if lottery.applicable(inst) is not None:
                continue
            scens = lottery.scenarios(inst)
            total = sum(s.probability for s in scens)
            assert total == pytest.approx(1.0, abs=1e-9), mech
            branches = {s.branch for s in scens}
            assert len(branches) == len(scens), mech
            for seed in range(20):
                assert lottery.sample(inst, random.Random(seed)) in branches


def test_scenario_guard_many_sellers():
    from procure.core import SearchSpaceTooLarge

    wide = Instance(
        tuple(Seller(1, Rat(1)) for _ in range(17)),
        Rat(5),
        BoundedKnapsack((Rat(1),) * 17),
    )
    message = r"^2\^17 sample groups exceed the enumeration guard$"
    with pytest.raises(SearchSpaceTooLarge, match=message):
        MECHANISMS["m_rand"].scenarios(wide)
    reason = "sample-group enumeration needs m <= 16"
    assert MECHANISMS["m_rand"].applicable(wide) == reason
    assert MECHANISMS["m_sub"].applicable(wide) == reason


def test_check_dst_passes_and_fixture_fails(two_seller):
    checks = check_dst("m_add", two_seller)
    assert checks and all(c.passed for c in checks)
    broken = check_dst("m_add_firstprice", two_seller)
    bad = [c for c in broken if not c.passed]
    assert bad, "pay-as-bid fixture must fail the DST check"
    witness = bad[0].witness
    assert replay_witness("m_add_firstprice", two_seller, witness)


@pytest.mark.parametrize("resolution", [0, -4])
def test_grid_resolution_below_one_raises(two_seller, resolution):
    with pytest.raises(ValueError, match="resolution"):
        deviation_grid("m_add", two_seller, two_seller.costs, 0, resolution)
    with pytest.raises(ValueError, match="resolution"):
        check_dst("m_add", two_seller, resolution=resolution)


def test_check_dst_strict_mode(two_seller):
    checks = check_dst("m_add", two_seller, resolution=16, strict=True)
    assert any(c.name.startswith("dst-strict") for c in checks)
    assert all(c.passed for c in checks)


def test_check_dst_strict_pinned(two_seller):
    # Every verdict and witness of both sweeps, as recorded before the
    # strict sweep shared check_dst's loop.
    names = [
        f"{sweep}:{branch}:seller{i}"
        for sweep in ("dst", "dst-strict")
        for branch in ("greedy", "star", "bot")
        for i in range(2)
    ]

    def verdicts(mech):
        checks = check_dst(mech, two_seller, resolution=16, strict=True)
        return [(c.name, c.passed, c.witness) for c in checks]

    assert verdicts("m_add") == [(name, True, None) for name in names]

    def witness(seller, bids, deviation, u_dev):
        return {
            "scenario": "greedy",
            "seller": seller,
            "bids": bids,
            "deviation": deviation,
            "u_true": "0",
            "u_dev": u_dev,
        }

    failed = {
        "dst:greedy:seller0": witness(
            0, ["2", "3"], "2999997/1250000", "499997/625000"
        ),
        "dst:greedy:seller1": witness(1, ["2", "3"], "25/8", "1/8"),
        "dst-strict:greedy:seller0": witness(
            0, ["2", "5/4"], "2999997/1250000", "499997/625000"
        ),
        "dst-strict:greedy:seller1": witness(
            1, ["5/4", "3"], "333333/100000", "33333/100000"
        ),
    }
    assert verdicts("m_add_firstprice") == [
        (name, name not in failed, failed.get(name)) for name in names
    ]


def test_check_dst_m_add_on_bounded_knapsack():
    from procure.instances import gen_bounded_knapsack

    for i in range(30):
        inst = gen_bounded_knapsack(18000 + i, max_sellers=4, max_total_units=8)
        assert all(c.passed for c in check_dst("m_add", inst, resolution=32))
        assert all(c.passed for c in check_ir("m_add", inst))
        assert all(c.passed for c in check_budget("m_add", inst))


def test_check_ir_and_budget(two_seller):
    assert all(c.passed for c in check_ir("m_add", two_seller))
    checks = {c.name: c for c in check_budget("m_add", two_seller)}
    assert checks["budget:star"].passed
    assert checks["budget:greedy"].passed
    assert checks["budget:expected"].passed


def test_expected_payment_below_budget(two_seller):
    assert expected_payment("m_add", two_seller) <= float(two_seller.budget) + 1e-9


def test_measure_ratio_brackets():
    inst = adversarial_single_seller(4, 4, 4)
    rep = measure_ratio("m_add", inst)
    assert log(4) - 1e-6 <= rep.ratio <= 4 * (1 + log(4)) + 1e-6
    one = measure_ratio("m_one", inst)
    assert one.benchmark == "single-item-optimum"
    assert one.ratio == pytest.approx(1 + log(4), abs=1e-9)


def test_measure_ratio_shares_one_optimum_per_instance(monkeypatch):
    from procure import oracles

    real_dp, solved = oracles._optimal_additive_dp, []

    def dp(inst):
        solved.append(inst)
        return real_dp(inst)

    monkeypatch.setattr(oracles, "_optimal_additive_dp", dp)
    inst = adversarial_single_seller(6, 6, 6)
    add, sub = measure_ratio("m_add", inst), measure_ratio("m_sub", inst)
    assert add.optimum == sub.optimum == 6
    assert solved == [inst]


def test_expected_value_m_one_wiring():
    inst = adversarial_single_seller(5, 5, 5)
    ev = expected_value("m_one", inst)
    assert ev == pytest.approx(5 / (1 + log(5)), abs=1e-9)


def test_greedy_marginal_regression_high_bid():
    inst = greedy_nonmonotone_instance()
    e = Rat(1, 100)
    steps = greedy_marginal(inst)
    assert [s.chosen for s in steps] == [0, 1, 1]
    assert steps[-1].after == (1, 2, 0)
    assert steps[0].marginals == (Rat(10), 10 + e, 10 - e)
    assert steps[1].marginals == (Rat(0), 5 + 5 * e, 5 - e)
    assert steps[2].marginals == (Rat(0), 1 + e, 1 - e)


def test_greedy_marginal_regression_low_bid():
    inst = greedy_nonmonotone_instance()
    e = Rat(1, 100)
    bids = (Rat(1), 1 - e, Rat(1))
    steps = greedy_marginal(inst, bids)
    assert [s.chosen for s in steps] == [1, 2, 2]
    assert steps[-1].after == (0, 1, 2)
    assert steps[1].marginals == (5 + 4 * e, 5 - 5 * e, 5 + 5 * e)
    assert steps[2].marginals == (1 - 2 * e, 1 - e, 1 + e)
    # lowering the bid strictly decreased seller 2's sold units: 2 -> 1
    high = greedy_marginal(inst)[-1].after
    assert high[1] == 2 and steps[-1].after[1] == 1


def test_greedy_marginal_single_item_exhausts():
    inst = adversarial_single_seller(4, 4, 4)
    steps = greedy_marginal(inst)
    assert steps[-1].after == (4,)


def test_partition_success_frequency_spread_instance():
    spread = Instance(
        tuple(Seller(2, Rat(1)) for _ in range(4)),
        Rat(8),
        BoundedKnapsack((Rat(1),) * 4),
    )
    assert partition_success_frequency(spread) == Rat(5, 8)


def test_partition_chain_conditional_inequality():
    from procure.instances import gen_explicit_subadditive

    spread = Instance(
        tuple(Seller(2, Rat(1)) for _ in range(4)),
        Rat(8),
        BoundedKnapsack((Rat(1),) * 4),
    )
    cases = [spread, greedy_nonmonotone_instance()]
    cases += [gen_explicit_subadditive(7000 + i) for i in range(10)]
    for inst in cases:
        records = partition_chain_records(inst)
        assert all(chain for event, chain in records if event)


def test_verify_instance_reports(two_seller):
    digest = instance_digest(two_seller)
    reports = verify_instance(
        two_seller, ("m_add", "m_sym", "m_one"), resolution=16, digest=digest
    )
    by_mech = {r.mechanism: r for r in reports}
    assert by_mech["m_add"].fail_count == 0
    assert by_mech["m_add"].ratio is not None
    assert by_mech["m_sym"].notes == {"skipped":
        "requires a symmetric valuation"}
    lines = by_mech["m_add"].json_lines()
    parsed = [json.loads(line) for line in lines]
    assert all(p["instance"] == digest for p in parsed)
    assert parsed[-1]["check"] == "measured"
    row = by_mech["m_add"].csv_row()
    assert len(row) == len(CSV_HEADER)


def test_run_scenario_dispatch(two_seller):
    inst3 = greedy_nonmonotone_instance()
    assert run_scenario("m_add", two_seller, None, "bot").total_payment == 0
    assert run_scenario("m_sub", inst3, None, "one:skip").total_payment == 0
    out = run_scenario("m_rand", inst3, None, "rand:0b111")
    assert out.allocation == (0, 0, 0)
    with pytest.raises(ValueError):
        run_scenario("m_rand", inst3, None, "one:fire")
    for mech, lottery in MECHANISMS.items():
        inst = _registry_instance(mech, two_seller)
        for scen in lottery.scenarios(inst):
            out = run_scenario(mech, inst, None, scen.branch)
            assert out == lottery.run(inst, None, scen.branch)
            assert scen.within_cap(out.total_payment), (mech, scen.branch)
    for call in (
        lambda: run_scenario("nope", inst3, None, "bot"),
        lambda: check_dst("nope", inst3),
        lambda: verify_instance(inst3, ["nope"]),
    ):
        with pytest.raises(ValueError):
            call()


def test_witness_replay_soundness(two_seller):
    broken = check_dst("m_add_firstprice", two_seller)
    for c in broken:
        if not c.passed:
            assert replay_witness("m_add_firstprice", two_seller, c.witness)
