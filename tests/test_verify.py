import json
import random
import time
from collections import Counter
from math import log

import pytest

from procure import mech_additive
from procure.core import Instance, Outcome, Rat, Seller, utility
from procure.instances import gen_concave_additive, gen_symmetric, instance_digest
from procure.oracles import DP_CELL_LIMIT, adversarial_single_seller
from procure.valuations import BoundedKnapsack, ConcaveAdditive
from procure.verify import (
    CSV_HEADER,
    MECHANISM_IDS,
    MECHANISMS,
    check_budget,
    check_dst,
    check_ir,
    deviation_grid,
    expected_value,
    measure_ratio,
    run_scenario,
    seller_sweep,
    verify_instance,
)

from corpora import (
    DECLARATION_WINDOW,
    dst_corpora,
    greedy_at_scale,
    greedy_nonmonotone_instance,
    late_round,
)
from helpers import (
    declaration_faults,
    expected_payment,
    greedy_marginal,
    partition_chain_records,
    partition_success_frequency,
    piece_faults,
    reference_deviation_grid,
    replay_witness,
    seller_cuts,
    seller_grid,
    seller_outcome_faults,
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
        deviation_grid(two_seller, two_seller.costs, 0, frozenset(), resolution)
    with pytest.raises(ValueError, match="resolution"):
        check_dst("m_add", two_seller, resolution=resolution)


def _near_prime_costs():
    # Four unit-value sellers whose costs 1/(p + d) lie about 10^-18 apart,
    # with p = 10^9 + 7, and a budget of 3/p, which three units at those
    # costs about exhaust: each seller's unit thresholds bind at its rivals'
    # costs, so a grid holds points far closer than 1 / D, D its largest
    # denominator (about 10^16).  A key num * D // den ties them.
    p = 10**9 + 7
    return Instance(
        tuple(Seller(2, Rat(1, p + d)) for d in (0, 2, 6, 12)),
        Rat(3, p),
        BoundedKnapsack((1, 1, 1, 1)),
    )


@pytest.mark.parametrize("mech", ["m_add", "m_sym", "m_one", "m_rand"])
def test_deviation_grid_matches_rational_reference(mech):
    # The integer-keyed grid is the rational one as a list, order included,
    # for every seller of the criterion-8 corpus at two resolutions, against
    # every cut of the mechanism's rules.
    corpus = list(dst_corpora()[mech])
    if mech == "m_add":
        corpus.append(_near_prime_costs())
    for inst in corpus:
        for seller in range(inst.m):
            cuts = seller_cuts(mech, inst, inst.costs, seller)
            for resolution in (16, 64):
                got = deviation_grid(inst, inst.costs, seller, cuts, resolution)
                want = reference_deviation_grid(inst, inst.costs, seller, cuts, resolution)
                assert got == want, (mech, inst, seller, resolution)


def _grid_edge_cases():
    # (id, budget, truthful bid, cuts) for grids whose extra points meet the
    # uniform ones B * t / R or each other.  B = 10 and the uniform points
    # B * t / 8 are also uniform at R = 64.
    budget = Rat(10)
    mil = 10**6
    on_grid = budget * 3 / 8
    below = on_grid * mil / (mil - 1)  # its lower straddle is on_grid
    above = on_grid * mil / (mil + 1)  # its upper straddle is on_grid
    low = Rat(7, 3)
    high = low * (mil + 1) / (mil - 1)  # its lower straddle is low's upper
    assert below * (mil - 1) / mil == on_grid == above * (mil + 1) / mil
    assert high * (mil - 1) / mil == low * (mil + 1) / mil
    near = _near_prime_costs()
    near_cases = [
        (f"near-prime-seller{i}", near.budget, cost, seller_cuts("m_add", near, near.costs, i))
        for i, cost in enumerate(near.costs)
    ]
    return [
        *near_cases,
        ("bid-zero", budget, Rat(0), frozenset({Rat(3)})),
        ("bid-on-uniform", budget, budget * 5 / 8, frozenset({Rat(3)})),
        ("bid-at-budget", budget, budget, frozenset({Rat(3)})),
        ("bid-negative", budget, Rat(-1), frozenset({Rat(3)})),
        ("cut-on-uniform", budget, Rat(1, 3), frozenset({on_grid})),
        ("straddle-on-uniform", budget, Rat(1, 3), frozenset({below, above})),
        ("cut-at-budget", budget, Rat(1, 3), frozenset({budget})),
        ("cut-above-budget", budget, Rat(1, 3), frozenset({budget * 3, budget + Rat(1, 7)})),
        ("cut-zero", budget, Rat(1, 3), frozenset({Rat(0), Rat(1)})),
        ("straddles-coincide", budget, Rat(1, 3), frozenset({low, high})),
        ("no-cuts", budget, Rat(2), frozenset()),
        ("many-cuts", budget, Rat(1, 3), frozenset(budget / k for k in range(1, 200))),
        ("odd-budget", Rat(22, 7), Rat(11, 28), frozenset(Rat(22, 7 * k) for k in range(1, 9))),
    ]


@pytest.mark.parametrize("resolution", [1, 8, 64])
@pytest.mark.parametrize("case", _grid_edge_cases(), ids=lambda case: case[0])
def test_deviation_grid_edge_cases_match_rational_reference(case, resolution):
    # Where an extra point equals a uniform point, another extra point, or
    # lies at or past B, the placed grid is the rational one, order
    # included, and the shared uniform grid gives the same list.
    _, budget, bid, cuts = case
    inst = Instance((Seller(1, abs(bid)),), budget, BoundedKnapsack((1,)))
    bids = (bid,)
    want = reference_deviation_grid(inst, bids, 0, cuts, resolution)
    got = deviation_grid(inst, bids, 0, cuts, resolution)
    assert got == want
    assert all(a < b for a, b in zip(got, got[1:]))
    uniform = [budget * t / resolution for t in range(1, resolution + 1)]
    assert deviation_grid(inst, bids, 0, cuts, resolution, uniform=uniform) == want


@pytest.mark.parametrize("mech", sorted(dst_corpora()))
def test_dst_sweep_points_are_the_truthful_bid_then_the_reference_grid(monkeypatch, mech):
    # Every sweep check_dst hands to seller_sweep is the truthful bid, then
    # the rest of the rational reference grid of the owner's cuts, or 0 and
    # 2 * max(B, cost) where there are none.  The recorder answers with a
    # constant outcome, so no sweep finds a gain and every pair is swept.
    from procure import verify

    swept = []

    def record(owner, inst, bids, seller, rule, points):
        swept.append((owner, seller, rule, points))
        return [(0, 0)] * len(points)

    monkeypatch.setattr(verify, "seller_sweep", record)
    for inst in dst_corpora()[mech]:
        costs = inst.costs
        rules = {(s.owner.name, s.rule) for s in MECHANISMS[mech].scenarios(inst)}
        swept.clear()
        check_dst(mech, inst)
        assert len(swept) == len(rules) * inst.m
        for owner, seller, rule, points in swept:
            cost = costs[seller]
            cuts = MECHANISMS[owner].cuts(inst, costs, seller, rule)
            if cuts:
                rest = reference_deviation_grid(inst, costs, seller, cuts)
            else:
                rest = [Rat(0), 2 * max(inst.budget, cost)]
            assert points == (cost, *[d for d in rest if d != cost]), (mech, inst, seller, rule)


def test_utility_is_payment_minus_cost_on_sweep_outcomes():
    # Every seller's utility in every branch outcome, at truthful bids and
    # at the lowest, middle and highest point of each seller's grid.
    for mech, corpus in dst_corpora().items():
        lottery = MECHANISMS[mech]
        for inst in corpus[:20]:
            costs = inst.costs
            profiles = [costs]
            for i in range(inst.m):
                grid = seller_grid(mech, inst, costs, i)
                for dev in (grid[0], grid[len(grid) // 2], grid[-1]):
                    profiles.append(costs[:i] + (dev,) + costs[i + 1 :])
            for scen in lottery.scenarios(inst):
                for bids in profiles:
                    out = run_scenario(mech, inst, bids, scen.branch)
                    for j in range(inst.m):
                        u = utility(out, costs, j)
                        assert type(u) is Rat, (mech, inst, scen.branch, bids, j)
                        assert u == out.payments[j] - costs[j] * out.allocation[j]


def test_check_dst_strict_mode(two_seller):
    checks = check_dst("m_add", two_seller, resolution=16, strict=True)
    assert any(c.name.startswith("dst-strict") for c in checks)
    assert all(c.passed for c in checks)


def test_check_dst_strict_pinned(two_seller):
    # Every verdict and witness of both sweeps.
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
        "dst:greedy:seller0": witness(0, ["2", "3"], "5/2", "1"),
        "dst:greedy:seller1": witness(1, ["2", "3"], "25/8", "1/8"),
        "dst-strict:greedy:seller0": witness(0, ["2", "5/4"], "5/2", "1"),
        "dst-strict:greedy:seller1": witness(
            1, ["5/4", "3"], "333333/100000", "33333/100000"
        ),
    }
    assert verdicts("m_add_firstprice") == [
        (name, name not in failed, failed.get(name)) for name in names
    ]


def test_strict_opponents_bid_past_their_grid():
    # In gen_concave_additive(9402) (B = 26) pay-as-bid lets seller 1 profit
    # only while seller 0 bids high enough to rank behind seller 1's first
    # unit, above B and every point of seller 0's own grid; the sweep finds
    # it at the bid past that grid, twice its top point B * (1 + 10^-6).
    inst = gen_concave_additive(9402)
    assert all(c.passed for c in check_dst("m_add", inst, resolution=16, strict=True))
    checks = {c.name: c for c in check_dst("m_add_firstprice", inst, resolution=16, strict=True)}
    check = checks["dst-strict:greedy:seller1"]
    assert not check.passed
    assert check.witness["bids"] == ["13000013/250000", "6"]
    assert replay_witness("m_add_firstprice", inst, check.witness)


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

    solved = []

    def counted(solve):
        def solve_counted(inst):
            solved.append(inst)
            return solve(inst)

        return solve_counted

    for name in ("_optimal_additive_dp", "_optimal_enum"):
        monkeypatch.setattr(oracles, name, counted(getattr(oracles, name)))
    inst = adversarial_single_seller(6, 6, 6)
    add, sub = measure_ratio("m_add", inst), measure_ratio("m_sub", inst)
    assert add.optimum == sub.optimum == 6
    assert solved == [inst]
    # An m_sym run reads a fresh unit-value valuation, which must not evict
    # the symmetric valuation's optimum between the mechanisms.
    solved.clear()
    sym = gen_symmetric(9100)
    first = measure_ratio("m_sym", sym)
    check_dst("m_sym", sym, 16)
    assert measure_ratio("m_rand", sym).optimum == first.optimum
    assert solved == [sym]


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


def _runs(monkeypatch, mechanisms, inst, **kwargs):
    """verify_instance's reports, and a count of its runs by (mechanism,
    branch, bids): its run_scenario calls, the truthful runs, and each
    point its seller_sweep calls price, the deviation sweep's runs."""
    from procure import verify

    runs = Counter()
    real_run, real_sweep = verify.run_scenario, verify.seller_sweep

    def counted_run(mech, inst, bids, branch):
        runs[mech, branch, tuple(bids)] += 1
        return real_run(mech, inst, bids, branch)

    def counted_sweep(mech, inst, bids, seller, branch, points):
        points = tuple(points)
        swept = real_sweep(mech, inst, bids, seller, branch, points)
        for bid, got in zip(points, swept):
            runs[mech, branch, tuple(bids[:seller]) + (bid,) + tuple(bids[seller + 1 :])] += 1
            yield got

    with monkeypatch.context() as patch:
        patch.setattr(verify, "run_scenario", counted_run)
        patch.setattr(verify, "seller_sweep", counted_sweep)
        reports = verify_instance(inst, mechanisms, 16, **kwargs)
    return reports, runs


def test_verify_instance_runs_m_subs_rules_once(monkeypatch):
    inst = greedy_nonmonotone_instance()
    alone = {mech: _runs(monkeypatch, [mech], inst) for mech in ("m_one", "m_rand", "m_sub")}
    reports, runs = _runs(monkeypatch, ["m_one", "m_rand", "m_sub"], inst)
    # The sweep's deviation runs are counted, and every rule of both owners
    # is run.
    assert any(bids != inst.costs for _, _, bids in runs)
    assert {b.partition(":")[0] for _, b, _ in runs} == {"fire", "skip", "rand"}
    # m_sub alone makes exactly m_one's and m_rand's runs; beside them it
    # adds none, its ratio's truthful runs included.
    assert alone["m_sub"][1] == alone["m_one"][1] + alone["m_rand"][1]
    assert runs == alone["m_one"][1] + alone["m_rand"][1]
    assert [r.json_lines() for r in reports] == [
        alone[mech][0][0].json_lines() for mech in ("m_one", "m_rand", "m_sub")
    ]


def test_verify_instance_never_serves_m_adds_greedy_to_the_fixture(monkeypatch, two_seller):
    def deviations(runs, mech, branch):
        return sum(
            n for (m, b, bids), n in runs.items()
            if (m, b) == (mech, branch) and bids != two_seller.costs
        )

    add = _runs(monkeypatch, ["m_add"], two_seller, strict=True)[1]
    fixture = _runs(monkeypatch, ["m_add_firstprice"], two_seller, strict=True)[1]
    reports, runs = _runs(monkeypatch, ["m_add", "m_add_firstprice"], two_seller, strict=True)

    def fixtures_own(runs):
        return {key: n for key, n in runs.items() if key[0] == "m_add_firstprice"}

    # star and bot are swept once, as m_add's rules; each greedy is swept,
    # and run truthfully, as if it were checked alone.
    for branch in ("star", "bot", "greedy"):
        assert deviations(runs, "m_add", branch) == deviations(add, "m_add", branch) > 0
    assert deviations(fixture, "m_add", "star") == deviations(add, "m_add", "star")
    assert fixtures_own(runs) == fixtures_own(fixture)
    assert {b for _, b, _ in fixtures_own(runs)} == {"greedy"}
    add_checks, fixture_checks = ({c.name: c for c in r.checks} for r in reports)
    for sweep in ("dst", "dst-strict"):
        assert add_checks[f"{sweep}:greedy:seller0"].passed
        check = fixture_checks[f"{sweep}:greedy:seller0"]
        assert not check.passed
        assert check.witness["scenario"] == "greedy"
        assert replay_witness("m_add_firstprice", two_seller, check.witness)
    for name, check in add_checks.items():
        if ":star" in name or ":bot" in name:
            assert fixture_checks[name] == check


def test_a_shared_verdict_names_each_lotterys_branch(monkeypatch, two_seller):
    # With a pay-as-bid fire branch, m_one fails dst; m_sub's copy of each
    # failure names m_sub's branch, in the check and in the witness that
    # replays it through m_sub.
    from procure import mech_single_item

    real = mech_single_item.run_m_one

    def pay_as_bid(inst, bids, branch):
        alloc = real(inst, bids, branch).allocation
        bids = inst.costs if bids is None else bids
        return Outcome(alloc, tuple(Rat(b) * a for a, b in zip(alloc, bids)))

    monkeypatch.setattr(mech_single_item, "run_m_one", pay_as_bid)
    one, sub = verify_instance(two_seller, ["m_one", "m_sub"], 16)
    failed = [c for c in one.checks if not c.passed]
    assert failed and all(c.name.startswith("dst:fire:") for c in failed)
    copies = {c.name: c for c in sub.checks}
    for check in failed:
        copy = copies[check.name.replace(":fire:", ":one:fire:")]
        assert not copy.passed
        assert copy.witness == {**check.witness, "scenario": "one:fire"}
        assert replay_witness("m_sub", two_seller, copy.witness)


def test_verdicts_do_not_depend_on_the_order_of_mechanisms(two_seller):
    # A verdict is kept under its rule's owner and built from that owner's
    # cuts and rivals only, so each mechanism's report is the same whichever
    # mechanism swept a shared rule first, --strict included.
    instances = [two_seller] + [inst for inst in dst_corpora()["m_add"][:12] if inst.m <= 2]
    orders = [
        (["m_sub", "m_one", "m_rand"], ["m_one", "m_rand", "m_sub"]),
        (["m_add_firstprice", "m_add"], ["m_add", "m_add_firstprice"]),
    ]
    failed = 0
    for inst in instances:
        for first, second in orders:
            reports = [verify_instance(inst, order, 16, strict=True) for order in (first, second)]
            by_mech = [{r.mechanism: r.json_lines() for r in rs} for rs in reports]
            assert by_mech[0] == by_mech[1], (inst, first)
            failed += sum(r.fail_count for r in reports[0])
    assert len(instances) > 2 and failed > 0  # the fixture's failures are compared too


@pytest.mark.parametrize("mech", MECHANISM_IDS)
def test_rules_read_exactly_the_bids_their_owners_declare(mech):
    # check_dst sweeps a pair with no cuts at two points and trusts its
    # declaration.  On a prefix of the criterion-8 corpus, no pair declared
    # with no cuts moves its seller's allocation or payment at any point of
    # the seller's full grid, and every rule declared with cuts reads a bid.
    corpus = dst_corpora()[mech][:DECLARATION_WINDOW]
    assert list(declaration_faults(mech, corpus)) == []


@pytest.mark.parametrize("mech", MECHANISM_IDS)
def test_cuts_are_complete_on_every_piece(mech):
    # Each owner states the whole cut set of its rules: on a prefix of the
    # criterion-8 corpus, no (rule, seller) pair's outcome moves between two
    # consecutive cuts, at a third and two thirds of each piece or at any
    # point of the seller's full grid, B/rank for every rank included.
    corpus = dst_corpora()[mech][:DECLARATION_WINDOW]
    assert list(piece_faults(mech, corpus)) == []


@pytest.mark.parametrize("mech", MECHANISM_IDS)
def test_a_posted_rules_cuts_are_its_prices(mech):
    # Wherever a rule posts prices B/k to a seller, its cuts are exactly
    # those prices, k up to the posted supply, on a prefix of the
    # criterion-8 corpus; the lottery listing the rule gives its owner's
    # supply under the branch's name.
    lottery = MECHANISMS[mech]
    posted = 0
    for inst in dst_corpora()[mech][:DECLARATION_WINDOW]:
        for s in lottery.scenarios(inst):
            for i in range(inst.m):
                supply = s.owner.posted(inst, i, s.rule)
                assert lottery.posted(inst, i, s.branch) == supply
                if supply is not None:
                    prices = {inst.budget / k for k in range(1, supply + 1)}
                    assert s.owner.cuts(inst, inst.costs, i, s.rule) == prices, (s.branch, i)
                    posted += 1
    assert posted or mech in ("m_add", "m_sym")


@pytest.mark.parametrize("mech", (*MECHANISM_IDS, "m_add_firstprice"))
def test_seller_outcome_is_runs_entries(mech):
    # check_dst reads one seller's outcome, and run is its reference: on a
    # prefix of the criterion-8 corpus, every rule's owner gives every
    # seller its entries of run at every point of the seller's sweep.  So
    # it does on late_round, where m_rand accepts a round past a seller's
    # own supply, for each mechanism that applies to it.
    corpus = dst_corpora()["m_add" if mech == "m_add_firstprice" else mech][:DECLARATION_WINDOW]
    late = late_round()
    if MECHANISMS[mech].applicable(late) is None:
        corpus += (late,)
    assert list(seller_outcome_faults(mech, corpus)) == []


@pytest.mark.parametrize("mech", (*MECHANISM_IDS, "m_add_firstprice"))
def test_seller_sweep_over_unsorted_and_repeated_points(mech):
    # A sweep shares state across its points (the greedy's ranking, the
    # posted-price outcomes by count), so it must not depend on their order:
    # each pair's grid swept downward, then shuffled, with every point twice,
    # gives the seller its entries of run at every point.  A negative point
    # gets run's error, or none where run reads no bids, and a seller out of
    # range an IndexError when the sweep is asked for.
    corpus = dst_corpora()["m_add" if mech == "m_add_firstprice" else mech][:4]
    rng = random.Random(45)
    swept = 0
    for inst in corpus:
        costs = inst.costs
        for s in MECHANISMS[mech].scenarios(inst):
            owner = s.owner.name
            for i, cost in enumerate(costs):
                grid = seller_grid(mech, inst, costs, i, 8)
                points = grid[::-1] + rng.sample(grid, len(grid)) + [cost, cost]
                got = list(seller_sweep(owner, inst, costs, i, s.rule, points))
                want = []
                for bid in points:
                    out = run_scenario(owner, inst, costs[:i] + (bid,) + costs[i + 1 :], s.rule)
                    want.append((out.allocation[i], out.payments[i]))
                assert got == want, (s.branch, i)
                swept += len(points)
                negative = costs[:i] + (Rat(-1),) + costs[i + 1 :]
                assert _raised(
                    lambda: list(seller_sweep(owner, inst, costs, i, s.rule, (cost, Rat(-1))))
                ) == _raised(lambda: run_scenario(owner, inst, negative, s.rule))
        for bad in (-1, inst.m):
            with pytest.raises(IndexError, match=f"seller index {bad} out of range"):
                seller_sweep(mech, inst, costs, bad, s.branch, (costs[0],))
    assert swept


def _raised(call):
    """The type and message of what ``call`` raises, or None."""
    try:
        call()
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return None


def test_posted_gives_each_rules_supply(two_seller):
    # fire posts B/k to a seller up to its units, and m_rand up to the total
    # units to a seller it did not sample; every other rule, and a sampled
    # seller, gets None.  Every rule of every lottery is pinned.
    inst = two_seller
    greedy = {rule: [None, None] for rule in ("greedy", "star", "bot")}
    one = {"fire": [2, 1], "skip": [None, None]}
    rand = {
        "rand:0b0": [3, 3],
        "rand:0b1": [None, 3],
        "rand:0b10": [3, None],
        "rand:0b11": [None, None],
    }
    want = {
        "m_add": greedy,
        "m_sym": greedy,
        "m_one": one,
        "m_rand": rand,
        "m_sub": {**{f"one:{rule}": got for rule, got in one.items()}, **rand},
        "m_add_firstprice": greedy,
    }
    assert list(want) == list(MECHANISMS)
    for mech, rules in want.items():
        lottery = MECHANISMS[mech]
        assert list(rules) == [s.branch for s in lottery.scenarios(inst)]
        got = {rule: [lottery.posted(inst, i, rule) for i in range(inst.m)] for rule in rules}
        assert got == rules, mech


def test_reads_parses_a_sample_group_as_run_does(two_seller):
    # A rule reads a seller's bid iff its owner gives it cuts there, and the
    # owner states them all: the greedy's own thresholds, B/k for k up to
    # the seller's units for m_one's fire, B/k for k up to the total units
    # for a seller m_rand posts to.  Each owner parses a rule's name as run
    # does, with run's errors.
    inst, bids = two_seller, two_seller.costs
    ranks = frozenset(inst.budget / rank for rank in range(1, inst.total_units + 1))
    none = frozenset()
    add, one, rand, sub = (MECHANISMS[m] for m in ("m_add", "m_one", "m_rand", "m_sub"))
    assert [rand.cuts(inst, bids, i, "rand:0b10") for i in range(2)] == [ranks, none]
    fire = [one.cuts(inst, bids, i, "fire") for i in range(2)]
    assert fire == [frozenset({inst.budget, inst.budget / 2}), frozenset({inst.budget})]
    assert one.cuts(inst, bids, 0, "skip") == none
    greedy = mech_additive.greedy_breakpoints(inst, bids, 0)
    assert greedy and not greedy & ranks
    cuts = [add.cuts(inst, bids, 0, rule) for rule in ("greedy", "star", "bot")]
    assert cuts == [greedy, none, none]
    bad_names = [
        (rand, "one:fire", "bad m_rand scenario"),
        (rand, "rand:0bx", "bad sample-group mask"),
        (rand, "rand:0b100", "out of range for 2 sellers"),
        (add, "nope", "unknown branch 'nope'"),
        (one, "bogus", "unknown branch 'bogus'"),
        (sub, "one:bogus", "unknown branch 'bogus'"),
    ]
    for owner, bad, message in bad_names:
        for call in (
            lambda: owner.run(inst, None, bad),
            lambda: owner.posted(inst, 0, bad),
            lambda: owner.cuts(inst, bids, 0, bad),
            lambda: list(owner.seller_sweep(inst, bids, 0, bad, (bids[0],))),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def test_m_sub_resolves_a_branch_to_its_owners_rule(two_seller):
    # One resolver serves m_sub's run and posted, so its cuts and
    # seller_sweep: one:<rule> is m_one's rule, any other name m_rand's, and
    # a bad name gets run's error from each.  A seller's outcome is its entries of the owner's run.
    inst, bids = two_seller, two_seller.costs
    sub, one, rand = (MECHANISMS[m] for m in ("m_sub", "m_one", "m_rand"))
    for i in range(inst.m):
        for rule in ("fire", "skip"):
            assert sub.cuts(inst, bids, i, f"one:{rule}") == one.cuts(inst, bids, i, rule)
            out = one.run(inst, bids, rule)
            assert sub.run(inst, bids, f"one:{rule}") == out
            got = sub.seller_sweep(inst, bids, i, f"one:{rule}", (bids[i],))
            assert list(got) == [(out.allocation[i], out.payments[i])]
        for mask in range(1 << inst.m):
            branch = f"rand:{mask:#b}"
            assert sub.cuts(inst, bids, i, branch) == rand.cuts(inst, bids, i, branch)
            out = rand.run(inst, bids, branch)
            got = sub.seller_sweep(inst, bids, i, branch, (bids[i],))
            assert list(got) == [(out.allocation[i], out.payments[i])]
    bad_names = [
        ("one:bogus", "unknown branch 'bogus'"),
        ("nope", "bad m_rand scenario"),
        ("rand:0bx", "bad sample-group mask"),
        ("rand:0b100", "out of range for 2 sellers"),
    ]
    for bad, message in bad_names:
        for call in (
            lambda: sub.run(inst, bids, bad),
            lambda: sub.posted(inst, 0, bad),
            lambda: sub.cuts(inst, bids, 0, bad),
            lambda: list(sub.seller_sweep(inst, bids, 0, bad, (bids[0],))),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def test_posted_price_sweeps_at_scale_pass():
    # fire and m_rand read a seller's bid only through its posted count, so
    # each sweep runs the rule once per count: on 1,000 units, m_one,
    # m_rand and m_sub each pass every dst check.
    inst = greedy_at_scale(500)
    for mech in ("m_one", "m_rand", "m_sub"):
        start = time.perf_counter()
        checks = check_dst(mech, inst)
        elapsed = time.perf_counter() - start
        print(f"{mech}: {len(checks)} dst checks on greedy_at_scale(500) in {elapsed:.2f}s")
        assert checks and all(c.passed for c in checks), mech


def test_check_budget_formats_only_a_failing_branch(monkeypatch):
    # Seller 0's greedy payment has 4,526 denominator digits here; a
    # passing branch writes none of them.
    from procure import verify

    formatted = []
    monkeypatch.setattr(verify, "format_rat", lambda q: formatted.append(q) or str(q))
    checks = check_budget("m_add", greedy_at_scale(2000))
    assert [c.name for c in checks] == [
        "budget:greedy", "budget:star", "budget:bot", "budget:expected"
    ]
    assert all(c.passed for c in checks) and formatted == []


def test_optimum_guard_skips_before_the_sweep(monkeypatch):
    # 20 one-unit sellers: the optimum would enumerate 2^20 allocations, so
    # the mechanism is skipped before any deviation is tried.
    from procure import verify
    from procure.valuations import Symmetric

    def no_sweep(*args, **kwargs):
        raise AssertionError("the DST sweep ran")

    monkeypatch.setattr(verify, "check_dst", no_sweep)
    inst = Instance(
        tuple(Seller(1, Rat(i % 7 + 1, 2)) for i in range(20)),
        Rat(30),
        Symmetric(tuple(Rat(20 - k, 2) for k in range(20))),
    )
    (report,) = verify_instance(inst, ["m_sym"])
    assert report.checks == [] and report.ratio is None
    assert report.notes == {
        "skipped": "1048576 allocations exceed the enumeration guard of 1000000"
    }


def test_dp_guard_skips_the_mechanism():
    inst = adversarial_single_seller(4, DP_CELL_LIMIT // 2, 4)
    (report,) = verify_instance(inst, ["m_add"])
    assert report.checks == [] and report.ratio is None
    assert report.notes == {
        "skipped": f"knapsack DP table of {DP_CELL_LIMIT + 2} cells exceeds the guard"
    }


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
