import copy
import pickle
import random

import pytest

from procure import mech_additive
from procure.core import (
    MAX_TOTAL_UNITS,
    Instance,
    NoThreshold,
    Outcome,
    Rat,
    Seller,
    WrongValuationClass,
    scaled,
    utility,
)
from procure.instances import (
    gen_bounded_knapsack,
    gen_concave_additive,
    gen_symmetric,
    serialize_instance,
)
from procure.mech_additive import (
    greedy_allocate,
    greedy_breakpoints,
    greedy_payments,
    greedy_sweep,
    ranked_pairs,
    run_m_add,
    run_m_sym,
    star_seller,
    sym_allocate,
    sym_payments,
    sym_threshold,
    threshold,
    unit_values,
)
from procure.oracles import adversarial_single_seller, optimal_allocation
from procure.valuations import (
    Additive,
    BoundedKnapsack,
    ConcaveAdditive,
    Symmetric,
)
from procure.verify import MECHANISMS, deviation_grid

from corpora import concave_corpus, greedy_at_scale, symmetric_corpus
from helpers import (
    cheapest_prefix_allocate,
    cheapest_prefix_threshold,
    independent_threshold,
    pickup_flags,
    reference_greedy_breakpoints,
    reference_greedy_payments,
    reference_margins,
    reference_optimal_additive_dp,
    reference_bought,
    reference_pairs,
    reference_seller_thresholds,
    seller_grid,
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


def _probe_profiles(inst, seed):
    """Truthful bids plus three seeded profiles mixing zero bids, one bid
    shared by several sellers, budget shares B/k and true costs."""
    rng = random.Random(seed)
    n = inst.total_units
    profiles = [inst.costs]
    for _ in range(3):
        tie = inst.budget / rng.randint(1, n)
        profiles.append(tuple(
            rng.choice((Rat(0), tie, tie, inst.budget / rng.randint(1, n), cost))
            for cost in inst.costs
        ))
    return profiles


def test_threshold_pinned_to_allocation_rule():
    # For every unit index 0..units+1: a bought unit's threshold equals the
    # search oracle's, and NoThreshold is raised exactly for the others.
    corpus = (
        list(concave_corpus()[:250])
        + [gen_bounded_knapsack(52000 + s) for s in range(30)]
        + [unit_values(inst) for inst in symmetric_corpus()]
    )
    for n, inst in enumerate(corpus):
        for bids in _probe_profiles(inst, 53000 + n):
            alloc = greedy_allocate(inst, bids)
            for i in range(inst.m):
                for j in range(inst.units[i] + 2):
                    if 1 <= j <= alloc[i]:
                        assert threshold(inst, i, j, bids) == independent_threshold(
                            inst, i, j, bids
                        )
                    else:
                        with pytest.raises(NoThreshold):
                            threshold(inst, i, j, bids)


def test_greedy_payments_equal_summed_thresholds():
    # Each seller's greedy payment is the sum of its bought units' single-unit
    # thresholds, on corpora with many sellers and on single-seller ladders.
    # Both sides read one kept ranking, so each is compared with the rational
    # reference ranking, bought rule and thresholds on its own.
    corpus = (
        list(concave_corpus()[:200])
        + [gen_bounded_knapsack(52000 + s) for s in range(30)]
        + [unit_values(inst) for inst in symmetric_corpus()]
        + [adversarial_single_seller(n, n, n) for n in (1, 2, 3, 50, 400)]
    )
    for n, inst in enumerate(corpus):
        for bids in _probe_profiles(inst, 54000 + n):
            pairs = reference_pairs(inst, bids)
            alloc = reference_bought(pairs, inst.budget, inst.m)
            thresholds = [
                reference_seller_thresholds(pairs, i, a, inst.budget)
                for i, a in enumerate(alloc)
            ]
            for i, a in enumerate(alloc):
                for j in range(1, a + 1):
                    assert threshold(inst, i, j, bids) == thresholds[i][j - 1]
            summed = tuple(sum(ts, Rat(0)) for ts in thresholds)
            assert greedy_payments(inst, bids) == (alloc, summed)


def test_greedy_payments_rank_once(monkeypatch):
    # One ranking per call, whatever the size.  greedy_payments and
    # greedy_breakpoints price every unit from their one ranked_pairs call.
    # sym_payments and run_m_sym's greedy keep one ranked_pairs call per
    # bought unit (the traced bench counts them), but only the first builds
    # a ranking: a ranking is built where ``scaled`` runs, and the memo
    # serves the rest.  Consecutive instances differ, so each first call
    # ranks anew; a repeated call builds nothing.
    calls = dict.fromkeys(("ranked_pairs", "greedy_allocate", "threshold", "scaled"), 0)

    def counted(name):
        inner = getattr(mech_additive, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mech_additive, name, counted(name))

    def run(fn, *args):
        calls.update(dict.fromkeys(calls, 0))
        return fn(*args), dict(calls)

    corpus = [adversarial_single_seller(n, n, n) for n in (1, 2, 50, 400)]
    corpus += list(concave_corpus()[:20])
    for inst in corpus:
        _, counts = run(greedy_payments, inst)
        assert counts == {"ranked_pairs": 1, "greedy_allocate": 0, "threshold": 0, "scaled": 1}
        for seller in range(inst.m):
            _, counts = run(greedy_breakpoints, inst, None, seller)
            assert counts == {"ranked_pairs": 1, "greedy_allocate": 0, "threshold": 0, "scaled": 0}
    wide = Instance(
        (Seller(300, Rat(1)), Seller(300, Rat(3, 2))), Rat(600), Symmetric((Rat(1),) * 600)
    )

    def sym_payments_alloc(inst):
        return sym_payments(inst)[0]

    def run_m_sym_alloc(inst):
        return run_m_sym(inst, None, "greedy").allocation

    for greedy in (sym_payments_alloc, run_m_sym_alloc):
        for inst in list(symmetric_corpus()[:20]) + [wide]:
            for built in (1, 0):
                alloc, counts = run(greedy, inst)
                assert counts == {
                    "ranked_pairs": 1 + sum(alloc),
                    "greedy_allocate": 1,
                    "threshold": sum(alloc),
                    "scaled": built,
                }
        assert alloc == (300, 100)


def test_every_positive_value_units_threshold_is_a_breakpoint():
    # A seller's greedy breakpoints are exactly the search oracle's critical
    # bids of its positive-value units, bought at truthful bids or not: no
    # threshold is missing, and no other point (such as a rank crossing with
    # a rival pair) is added.  In concave_corpus()[2], seller 0 (cost 75/4)
    # buys none of its units, whose thresholds are 168/11, 425/47 and 225/103.
    for inst in concave_corpus()[:100]:
        pairs = reference_pairs(inst)
        for i in range(inst.m):
            expected = {
                independent_threshold(inst, i, pr.unit) for pr in pairs if pr.seller == i
            }
            assert greedy_breakpoints(inst, inst.costs, i) == expected, (inst, i)


def _order(pairs):
    return [(p.seller, p.unit) for p in pairs]


def test_ranking_matches_reference_order():
    # Tuple order of the ranked pairs is the reference order: zero bids
    # first, value per unit of bid decreasing, ties by (seller, unit).
    corpus = (
        list(concave_corpus()[:200])
        + [gen_bounded_knapsack(52000 + s) for s in range(30)]
        + [unit_values(inst) for inst in symmetric_corpus()]
    )
    for n, inst in enumerate(corpus):
        for bids in _probe_profiles(inst, 55000 + n):
            assert _order(ranked_pairs(inst, bids)) == _order(reference_pairs(inst, bids))


def _first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def _near_tie_profiles():
    """(instance, bids) pairs whose rank order a float key gets wrong or ties."""
    tiny = Rat(1, 10**40)
    one_each = ConcaveAdditive(((Rat(1),), (Rat(1),), (Rat(1),)))
    yield (
        Instance((Seller(1, 1 + tiny), Seller(1, Rat(1)), Seller(1, Rat(1))), Rat(3), one_each),
        None,
    )
    primes = _first_primes(20)
    sellers = tuple(
        Seller(2, (1 + (20 - i) * Rat(1, 10**30)) / p) for i, p in enumerate(primes)
    )
    margins = ConcaveAdditive(tuple((Rat(1, p), Rat(1, p)) for p in primes))
    for budget in (Rat(1, 10), Rat(1, 3), Rat(1)):
        yield Instance(sellers, budget, margins), None
    equal_rates = Instance(
        (Seller(2, Rat(3)), Seller(1, Rat(1)), Seller(1, Rat(3, 2) + tiny)),
        Rat(12),
        ConcaveAdditive(((Rat(6), Rat(2)), (Rat(2),), (Rat(3),))),
    )
    yield equal_rates, None
    yield equal_rates, (Rat(1), Rat(1, 2), Rat(3, 2))
    zero_bids = Instance(
        (Seller(2, Rat(0)), Seller(1, Rat(1)), Seller(2, Rat(0))),
        Rat(2),
        ConcaveAdditive(((Rat(1, 7), Rat(1, 9)), (Rat(5),), (Rat(3), Rat(1, 11)))),
    )
    yield zero_bids, None
    yield zero_bids, (Rat(0), Rat(0), tiny)


def test_rank_key_exact_at_near_ties():
    # Ratios 1 and 1 + 10^-40, ratios 1 + k*10^-30 over a 20-prime value scale,
    # equal ratios written differently (1/2 and 3/6), and zero bids: the rank
    # order is the reference order, and the integer greedy pays as the
    # rational one does.
    float_misorders = 0
    for inst, bids in _near_tie_profiles():
        order = _order(ranked_pairs(inst, bids))
        reference = reference_pairs(inst, bids)
        assert order == _order(reference)
        by_float = sorted(reference, key=lambda p: (float(p.rho), p.seller, p.unit))
        float_misorders += order != _order(by_float)
        assert greedy_payments(inst, bids) == reference_greedy_payments(inst, bids)
        for seller in range(inst.m):
            assert greedy_breakpoints(inst, bids, seller) == reference_greedy_breakpoints(
                inst, bids, seller
            )
    assert float_misorders >= 4  # the profiles do defeat a float key


def test_greedy_matches_rational_reference_on_deviation_grids():
    # Every seller of every instance, on its grid-16 deviation grid: the rank
    # order, payments and breakpoints equal the rational ranking, bought rule
    # and thresholds of tests/helpers.py.  Every fourth grid point, offset by
    # the seller, keeps the sweep near 15 s; all 53,504 points take about
    # 42 s on a 2-core host.
    corpus = list(concave_corpus()[:60]) + [unit_values(inst) for inst in symmetric_corpus()]
    profiles = 0
    for inst in corpus:
        for seller in range(inst.m):
            for dev in seller_grid("m_add", inst, inst.costs, seller)[seller % 4 :: 4]:
                bids = inst.costs[:seller] + (dev,) + inst.costs[seller + 1 :]
                assert _order(ranked_pairs(inst, bids)) == _order(reference_pairs(inst, bids))
                assert greedy_payments(inst, bids) == reference_greedy_payments(inst, bids)
                assert greedy_breakpoints(inst, bids, seller) == reference_greedy_breakpoints(
                    inst, bids, seller
                )
                profiles += 1
    assert profiles > 12_000


def _matches_reference(inst, bids, breakpoints_first):
    """Every greedy query on one profile equals the rational reference,
    with the breakpoints asked before the payments or after them."""
    pairs = reference_pairs(inst, bids)
    alloc, payments = reference_greedy_payments(inst, bids)

    def breakpoints():
        for seller in range(inst.m):
            assert greedy_breakpoints(inst, bids, seller) == reference_greedy_breakpoints(
                inst, bids, seller
            )

    if breakpoints_first:
        breakpoints()
    for i, a in enumerate(alloc):
        assert [threshold(inst, i, j, bids) for j in range(1, a + 1)] == (
            reference_seller_thresholds(pairs, i, a, inst.budget)
        )
    assert greedy_payments(inst, bids) == (alloc, payments)
    if not breakpoints_first:
        breakpoints()
    assert greedy_allocate(inst, bids) == alloc


def test_ranking_memo_never_serves_a_stale_profile():
    # The memo keeps the last instance and its last ranking.  Each instance
    # runs truthful bids, one deviation-grid point of one seller, then
    # truthful bids again.  Pairs of instances alternate between running
    # their profiles interleaved, so that every query follows a switch of
    # instance, and one instance after the other, so that every profile
    # follows another profile of the same instance.  The order of queries
    # alternates too.
    concave = concave_corpus()[:40]
    views = [unit_values(inst) for inst in symmetric_corpus()[:40]]
    checked = 0
    for k, pair in enumerate(zip(concave, views)):
        runs = []
        for inst in pair:
            seller = k % inst.m
            grid = seller_grid("m_add", inst, inst.costs, seller)
            grid.remove(inst.costs[seller])
            dev = grid[(k * 7) % len(grid)]
            deviated = inst.costs[:seller] + (dev,) + inst.costs[seller + 1 :]
            runs.append([(inst, bids) for bids in (None, deviated, inst.costs)])
        order = zip(*runs) if k % 2 else runs
        for step, (inst, bids) in enumerate(run for group in order for run in group):
            _matches_reference(inst, bids, (k + step) % 2 == 0)
            checked += 1
    assert checked == 240


def test_threshold_errors_under_the_memo():
    # Seller 0's third unit has zero margin and is stripped before ranking;
    # its second is ranked but not bought at these bids.  Each error keeps
    # its order and message whatever the memo holds.
    inst = Instance(
        (Seller(3, Rat(2)), Seller(1, Rat(1))),
        Rat(6),
        ConcaveAdditive(((Rat(5), Rat(1), Rat(0)), (Rat(4),))),
    )
    alloc = reference_greedy_payments(inst)[0]
    assert alloc == (1, 1)
    for _ in range(2):
        assert threshold(inst, 0, 1) == reference_seller_thresholds(
            reference_pairs(inst), 0, 1, inst.budget
        )[0]
        for j in (0, 3, 4):
            with pytest.raises(NoThreshold, match=f"unit {j} of seller 0 is never bought"):
                threshold(inst, 0, j)
        with pytest.raises(NoThreshold, match="unit 2 of seller 0 is not bought under these bids"):
            threshold(inst, 0, 2)
        with pytest.raises(IndexError, match="seller index 2 out of range"):
            threshold(inst, 2, 0)
        with pytest.raises(ValueError, match="bid profile length mismatch"):
            threshold(inst, 2, 0, (Rat(1),))


def test_ranked_pair_integers_are_exact_scalings():
    # ibid / S_b is the seller's bid, ibudget / S_b the budget, and every
    # pair's ivalue is its margin times one common scale.
    for inst in concave_corpus()[:40]:
        pairs = ranked_pairs(inst)
        margins = reference_margins(inst.valuation, inst.units)
        assert Rat(pairs.ibudget, pairs.bid_scale) == inst.budget
        scales = set()
        for pr in pairs:
            assert Rat(pr.ibid, pairs.bid_scale) == inst.costs[pr.seller]
            scales.add(pr.ivalue / margins[pr.seller][pr.unit - 1])
        assert len(scales) == 1 and min(scales) > 0


def test_ranking_copies_and_pickles():
    # A ranking that has priced its units copies and pickles with its pairs
    # and scales.
    inst = concave_corpus()[3]
    greedy_payments(inst)
    pairs = ranked_pairs(inst)
    for twin in (copy.copy(pairs), copy.deepcopy(pairs), pickle.loads(pickle.dumps(pairs))):
        assert type(twin) is type(pairs) and twin == pairs
        assert (twin.ibudget, twin.bid_scale, twin.positive) == (
            pairs.ibudget,
            pairs.bid_scale,
            pairs.positive,
        )


def _with_unoffered_tail(inst):
    """The instance with two more margins per seller, past its units, whose
    denominators 999,983 and 10^9 + 7 enlarge the valuation's value scale
    without changing any offered margin."""
    per_item = tuple(
        (*mm, min(mm[-1], Rat(1, 999_983)), min(mm[-1], Rat(1, 10**9 + 7)))
        for mm in reference_margins(inst.valuation, inst.units)
    )
    return Instance(inst.sellers, inst.budget, ConcaveAdditive(per_item))


def test_greedy_and_optimum_ignore_the_value_scale():
    # Ranks, payments, breakpoints, the star seller and the knapsack optimum
    # depend on values only through their ratios, so a value scale enlarged
    # by margins no seller offers gives the rational references' results.
    enlarged = 0
    for n, base in enumerate(concave_corpus()[:120]):
        inst = _with_unoffered_tail(base)
        offered = reference_margins(inst.valuation, inst.units)
        enlarged += inst.valuation.scale != scaled(sum(offered, []))[0]
        firsts = [mm[0] for mm in offered]
        assert star_seller(inst) == firsts.index(max(firsts))
        assert optimal_allocation(inst) == reference_optimal_additive_dp(inst)
        for bids in _probe_profiles(inst, 56000 + n):
            assert _order(ranked_pairs(inst, bids)) == _order(reference_pairs(inst, bids))
            assert greedy_payments(inst, bids) == reference_greedy_payments(inst, bids)
            for seller in range(inst.m):
                assert greedy_breakpoints(inst, bids, seller) == reference_greedy_breakpoints(
                    inst, bids, seller
                )
    assert enlarged >= 100


def test_greedy_payments_at_unit_cap():
    inst = adversarial_single_seller(MAX_TOTAL_UNITS, MAX_TOTAL_UNITS, MAX_TOTAL_UNITS)
    alloc, payments = greedy_payments(inst)
    assert alloc == (MAX_TOTAL_UNITS,)
    for a, p, b in zip(alloc, payments, inst.costs):
        assert p >= a * b


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


def test_sym_breakpoints_are_the_sellers_thresholds():
    # m_sym's greedy cuts stated directly: the threshold of each of the
    # seller's units, and nothing else, no B/rank among them; a rival's bid
    # is a cut only where it is such a threshold.  A threshold does not
    # depend on the seller's own bid, so each is taken at bid 0, where the
    # seller sells every unit.
    lottery = MECHANISMS["m_sym"]
    rng = random.Random(37)
    for inst in symmetric_corpus():
        for bids in _symmetric_bid_profiles(inst, rng):
            for i in range(inst.m):
                free = bids[:i] + (Rat(0),) + bids[i + 1 :]
                expected = {sym_threshold(inst, i, j, free) for j in range(1, inst.units[i] + 1)}
                assert lottery.cuts(inst, bids, i, "greedy") == expected


def test_sym_payments_cover_costs():
    for i in range(30):
        inst = gen_symmetric(14000 + i, max_sellers=4, max_total_units=8)
        alloc, payments = sym_payments(inst)
        for a, p, c in zip(alloc, payments, inst.costs):
            assert p >= a * c


def test_one_seller_outcomes_refuse_a_seller_out_of_range(two_seller, sym_inst):
    # A negative index would otherwise read another seller's entry.
    sym = MECHANISMS["m_sym"]
    sweeps = (
        (lambda inst, seller: greedy_sweep(inst, None, seller, ()), two_seller),
        (lambda inst, seller: sym.seller_sweep(inst, None, seller, "greedy", ()), sym_inst),
    )
    for sweep, inst in sweeps:
        for seller in (-1, inst.m):
            with pytest.raises(IndexError, match=f"seller index {seller} out of range"):
                sweep(inst, seller)


def _with_bid(bids, seller, bid):
    return bids[:seller] + (bid,) + bids[seller + 1 :]


def _assert_seller_entries(inst, bids, seller):
    """greedy_sweep gives the seller's entries of greedy_payments at
    ``bids``, swept from a profile where the seller bids another bid: 0,
    and 1/7, whose denominator moves the bid scale S_b, so the own bid is
    placed into a ranking built at a different scale."""
    alloc, payments = greedy_payments(inst, bids)
    for ranked_at in (Rat(0), Rat(1, 7)):
        got = greedy_sweep(inst, _with_bid(bids, seller, ranked_at), seller, (bids[seller],))
        assert got == [(alloc[seller], payments[seller])]


def test_greedy_seller_at_each_threshold():
    # At its threshold a unit is still bought; each threshold is the bid at
    # which the walk's bought rule or rank comparison is an equality.
    for inst in concave_corpus()[:40]:
        for seller in range(inst.m):
            for cut in greedy_breakpoints(inst, inst.costs, seller):
                _assert_seller_entries(inst, _with_bid(inst.costs, seller, cut), seller)


def test_greedy_seller_at_rate_ties_with_rivals_on_both_sides():
    # Seller 1's rate equals seller 0's and seller 2's (bid / value = 1/2 for
    # every pair), so each own pair ties a rival of lower index, which ranks
    # first, and one of higher index, which ranks after it.  Budgets from 1
    # to 24 put the end of the bought prefix at every rank of the tie.
    margins = ((Rat(6), Rat(2)), (Rat(4), Rat(2)), (Rat(8), Rat(2)))
    sellers = (Seller(2, Rat(3)), Seller(2, Rat(2)), Seller(2, Rat(4)))
    for budget in range(1, 25):
        inst = Instance(sellers, Rat(budget), ConcaveAdditive(margins))
        for seller in range(inst.m):
            for own in (Rat(1), Rat(2), Rat(3), Rat(4)):
                _assert_seller_entries(inst, _with_bid(inst.costs, seller, own), seller)


def test_greedy_seller_at_zero_bids():
    # A zero own bid ranks before every positive rival and is always bought;
    # zero rival bids tie it, and the lower seller index ranks first.
    for inst in concave_corpus()[:40]:
        for seller in range(inst.m):
            zero = (Rat(0),) * inst.m
            for bids in (_with_bid(inst.costs, seller, Rat(0)), _with_bid(zero, seller, inst.costs[seller]), zero):
                _assert_seller_entries(inst, bids, seller)


def test_greedy_seller_with_a_zero_margin_suffix_and_alone():
    # Seller 0's third unit has zero margin and is never ranked; a lone
    # seller has no rival to place its pairs among.
    suffix = Instance(
        (Seller(3, Rat(2)), Seller(1, Rat(1))),
        Rat(6),
        ConcaveAdditive(((Rat(5), Rat(1), Rat(0)), (Rat(4),))),
    )
    alone = Instance((Seller(3, Rat(2)),), Rat(6), ConcaveAdditive(((Rat(5), Rat(2), Rat(1)),)))
    for inst in (suffix, alone):
        grid = {Rat(0), Rat(1, 3), *(Rat(k, 2) for k in range(1, 16))}
        for seller in range(inst.m):
            grid |= greedy_breakpoints(inst, inst.costs, seller)
        for seller in range(inst.m):
            for bid in sorted(grid):
                _assert_seller_entries(inst, _with_bid(inst.costs, seller, bid), seller)


def test_sym_seller_is_sym_payments_entries():
    # m_sym's sweep is the greedy's on unit values; the reference is m_sym's
    # own sym_payments, priced unit by unit, at every point of the sweep.
    sym = MECHANISMS["m_sym"]
    for inst in symmetric_corpus()[:30]:
        for seller in range(inst.m):
            grid = seller_grid("m_sym", inst, inst.costs, seller)
            swept = sym.seller_sweep(inst, inst.costs, seller, "greedy", grid)
            for bid, got in zip(grid, swept, strict=True):
                alloc, payments = sym_payments(inst, _with_bid(inst.costs, seller, bid))
                assert got == (alloc[seller], payments[seller])


def test_greedy_seller_over_a_sweep_at_scale():
    # Every point of seller 0's greedy grid at 150 units per seller, in
    # sweep order, from one greedy_sweep, so every point after the first is
    # walked into the ranking the first one built.
    inst = greedy_at_scale(150)
    costs = inst.costs
    grid = deviation_grid(inst, costs, 0, greedy_breakpoints(inst, costs, 0))
    assert len(grid) == 515
    for bid, got in zip(grid, greedy_sweep(inst, costs, 0, grid), strict=True):
        alloc, payments = greedy_payments(inst, _with_bid(costs, 0, bid))
        assert got == (alloc[0], payments[0])


def test_greedy_sweep_never_serves_another_instance_or_seller():
    # Sweeps alternate between two instances with equal bids and between two
    # sellers of one instance, each from a deviation of its own, so every
    # sweep follows one for another key and the ranking memo must not serve
    # it.  Each point is checked against the rational reference greedy.
    first, second = concave_corpus()[:2]
    twin = Instance(first.sellers, first.budget, first.valuation)
    assert twin == first and twin is not first
    checked = 0
    for a, b in ((first, second), (first, twin)):
        for step in range(12):
            inst = (a, b)[step % 2]
            seller = (step // 2) % inst.m
            grid = seller_grid("m_add", inst, inst.costs, seller)
            points = (grid[(5 * step) % len(grid)], grid[(7 * step + 3) % len(grid)])
            bids = _with_bid(inst.costs, seller, points[0])
            for bid, got in zip(points, greedy_sweep(inst, bids, seller, points), strict=True):
                alloc, payments = reference_greedy_payments(inst, _with_bid(bids, seller, bid))
                assert got == (alloc[seller], payments[seller])
                checked += 1
    for inst in (first, second):
        for step in range(2 * inst.m):
            seller = step % inst.m
            bid = inst.costs[seller] * (1 + step)
            alloc, payments = reference_greedy_payments(inst, _with_bid(inst.costs, seller, bid))
            assert greedy_sweep(inst, inst.costs, seller, (bid,)) == [
                (alloc[seller], payments[seller])
            ]
            checked += 1
    assert checked == 48 + 2 * (first.m + second.m)


def test_greedy_sweep_checks_every_argument(two_seller, sym_inst, monkeypatch):
    # Each call below finds its ranking kept by the ranking memo, so it
    # ranks nothing; each must still fail as a cold call does.
    costs = two_seller.costs
    greedy_sweep(two_seller, costs, 0, ())
    with pytest.raises(ValueError, match="bids must be >= 0"):
        greedy_sweep(two_seller, (Rat(-1), costs[1]), 0, ())
    with pytest.raises(ValueError, match="bid profile length mismatch"):
        greedy_sweep(two_seller, costs + (Rat(1),), 0, ())
    for seller in (-1, two_seller.m):
        with pytest.raises(IndexError, match=f"seller index {seller} out of range"):
            greedy_sweep(two_seller, costs, seller, ())
    # Bad bids come first, as ranked_pairs checks them first, and a bad
    # point is refused where the sweep reaches it.
    with pytest.raises(ValueError, match="bids must be >= 0"):
        greedy_sweep(two_seller, (Rat(-1), costs[1]), 5, ())
    with pytest.raises(ValueError, match="bids must be >= 0"):
        greedy_sweep(two_seller, costs, 0, (Rat(1), Rat(-1, 3)))
    # A kept ranking under a symmetric instance, as if it had been ranked.
    owner, skeleton, ranked_bids, ranking = mech_additive._memo
    assert owner is two_seller
    monkeypatch.setattr(mech_additive, "_memo", (sym_inst, skeleton, ranked_bids, ranking))
    with pytest.raises(WrongValuationClass):
        greedy_sweep(sym_inst, ranked_bids, 0, ())
    assert greedy_sweep(two_seller, costs, 0, (costs[0],)) == [(2, greedy_payments(two_seller)[1][0])]


def test_run_m_sym_branches(sym_inst):
    greedy = run_m_sym(sym_inst, None, "greedy")
    assert greedy.allocation == (2, 0)
    star = run_m_sym(sym_inst, None, "star")
    assert star.allocation == (1, 0)
    assert star.payments[0] == sym_inst.budget
    assert run_m_sym(sym_inst, None, "bot").allocation == (0, 0)


def test_m_sym_is_m_add_on_unit_values():
    # Every seller of every symmetric instance, on each point of its grid-16
    # m_sym deviation grid (about 14,600 profiles): the symmetric greedy,
    # priced unit by unit, equals the m_add greedy on unit values.  Both read
    # one kept ranking, so each is compared with the rational reference
    # greedy on unit values on its own.  The bid-free branches are m_add's
    # on unit values by construction.
    profiles = 0
    for inst in symmetric_corpus():
        view = unit_values(inst)
        for branch in ("star", "bot"):
            assert run_m_sym(inst, None, branch) == run_m_add(view, None, branch)
        for seller in range(inst.m):
            for dev in seller_grid("m_sym", inst, inst.costs, seller, 16):
                bids = inst.costs[:seller] + (dev,) + inst.costs[seller + 1 :]
                want = Outcome(*reference_greedy_payments(view, bids))
                assert run_m_sym(inst, bids, "greedy") == want
                assert run_m_add(view, bids, "greedy") == want
                profiles += 1
    assert profiles > 14_000


def test_unit_values_view_is_built_once_per_instance():
    # The view is kept on the instance it comes from: every call returns the
    # same object, and keeping it changes nothing that reads the instance.
    inst = gen_symmetric(2507)
    fresh = Instance(inst.sellers, inst.budget, inst.valuation)

    def readings(x):
        return x == fresh, fresh == x, hash(x), repr(x), serialize_instance(x)

    before = readings(inst)
    view = unit_values(inst)
    assert unit_values(inst) is view
    assert view == Instance(inst.sellers, inst.budget, BoundedKnapsack((1,) * inst.m))
    assert readings(inst) == before
    for twin in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert readings(twin) == before
        assert unit_values(twin) == view
    concave = gen_concave_additive(2507)
    for _ in range(2):
        with pytest.raises(WrongValuationClass):
            unit_values(concave)
