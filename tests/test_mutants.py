"""Mechanism mutants that the verifier's checks must catch.

Each mutant rebinds one mechanism function through ``monkeypatch`` and
must fail the check named for it within a prefix of a corpus.  The
greedy (``m_add``) mutants and ``m_rand``'s price mutant must fail some
``dst`` check of their mechanism within the first 100 and the first 60
instances of its criterion-8 corpus; the greedy's ranking memo and its
seller memo are emptied first, so no ranking, threshold or payment
computed by the real greedy serves a mutant.  ``m_one``'s crossover
mutants must fail some ``dst`` check of ``m_one`` within the first 100
instances of its corpus.  Every mutant of ``m_rand_detail`` or
``plan_m_one`` starts with the posted-count memo (``verify.posted_outcome``)
emptied, so no outcome of the real mechanism serves it.  ``m_rand``'s
calibration-side mutants cannot fail ``dst``: a sampled seller is never
paid, and its bid moves only the target, so any target rule stays
truthful.  Their kill criterion is the eager-reference
equivalence on ``calibration_corpus()``, where the target decides rounds:
some grid profile's accepted round or outcome differs from
``reference_m_rand_detail``'s.  The bid-reading mutants, a ``star`` branch
that reads the star seller's bid and a greedy declared with no cuts, must
be caught by the declaration test (``helpers.declaration_faults``) on the
first ``DECLARATION_WINDOW`` instances of ``m_add``'s corpus.  The cut-set
mutants, a greedy without the seller's largest threshold and an ``m_one``
fire without B/units, must be caught by the completeness test
(``helpers.piece_faults``) on the first ``DECLARATION_WINDOW`` instances of
their mechanism's corpus.  The pay-as-bid fixture given the greedy's
one-seller outcome, which ``check_dst`` reads, must be caught by the
one-seller equivalence test (``helpers.seller_outcome_faults``) on the
first ``DECLARATION_WINDOW`` instances of ``m_add``'s corpus.  So must the
bought-rule mutants, with both greedy memos emptied: ``greedy_seller``'s
walk sending a rate tie to the higher seller index or buying an own pair
only on strict inequality, and ``_bought`` buying a pair only on strict
inequality.  Two bought rules exist, the walk's and ``_bought``'s for
``run``, so a change to either one shows where they part.  So must the
posted-count mutants, with the posted-count memo emptied, on ``m_rand``:
the memo's key rounded up to min(supply, ceil(B / bid)) on
``calibration_corpus()``, and ``m_rand``'s count capped at the seller's
own units on ``corpora.late_round()``.  The star
seller paid B + 10^-12 must fail ``budget:star`` within the first 100
instances of ``m_add``'s corpus: its payment does not read its bid, so
``dst`` cannot see it.  The search stops at the first kill, and
``monkeypatch`` puts the real function back afterwards.
"""

from dataclasses import replace
from itertools import accumulate

import pytest

from procure import mech_additive, mech_single_item, mech_subadditive, verify
from procure.core import Outcome, Rat, checked_bids
from procure.mech_subadditive import RandRun, phi
from procure.verify import (
    FirstPriceLottery,
    GreedyLottery,
    Lottery,
    SamplingLottery,
    SingleItemLottery,
    _mask,
    check_budget,
    check_dst,
)

from corpora import (
    DECLARATION_WINDOW,
    calibration_corpus,
    concave_corpus,
    dst_corpora,
    first_price_probe,
    late_round,
)
from helpers import (
    declaration_faults,
    grid_profiles,
    piece_faults,
    reference_m_rand_detail,
    seller_outcome_faults,
)

KILL_WINDOW = 100
RAND_KILL_WINDOW = 60


def mutant_thresholds(rho_branch: bool = True, late: int = 0):
    """``_seller_thresholds`` restated: each unit's min taken at the first
    rival pair whose share inequality binds, moved ``late`` pairs on, with
    or without the rho branch.  It prices every unit and keeps nothing."""

    def thresholds(pairs, i, count):
        rivals = [pr for pr in pairs if pr.seller != i]
        prefixes = list(accumulate((pr.ivalue for pr in rivals), initial=0))
        out, share = [], 0
        for pr in pairs:
            if pr.seller != i:
                continue
            share += pr.ivalue
            lo = next(
                (
                    a
                    for a, r in enumerate(rivals)
                    if r.ibid * (share + prefixes[a + 1]) >= pairs.ibudget * r.ivalue
                ),
                len(rivals),
            )
            lo = min(lo + late, len(rivals))
            num, den = pairs.ibudget, share + prefixes[lo]
            if rho_branch and lo < len(rivals):
                rival = rivals[lo]
                if rival.ibid * den < num * rival.ivalue:
                    num, den = rival.ibid, rival.ivalue
            out.append((pr.ivalue * num, den))
        return tuple(out)

    return thresholds


def mutant_walk(tie_to_higher: bool = False, strict_own: bool = False):
    """``_walk`` restated, with at most one change: a rate tie between an
    own pair and a rival's sent to the higher seller index, or an own pair
    bought only when its inequality is strict."""

    def walk(pairs, rivals, own, seller, bid):
        p_scaled, q = bid.numerator * pairs.bid_scale, bid.denominator
        units = r = iprefix = 0
        for own_value in own:
            while r < len(rivals):
                ibid, ivalue, rival, budget_share = rivals[r]
                mine, theirs = p_scaled * ivalue, q * ibid * own_value
                first = seller > rival if tie_to_higher else seller < rival
                if mine < theirs or (mine == theirs and first):
                    break
                iprefix += ivalue
                if ibid * iprefix > budget_share:
                    return units
                r += 1
            iprefix += own_value
            mine, limit = p_scaled * iprefix, q * pairs.ibudget * own_value
            if mine > limit or (strict_own and mine == limit):
                return units
            units += 1
        return units

    return walk


def strictly_bought():
    """``_bought`` buying a pair only when its inequality is strict; it
    keeps nothing on the ranking."""

    def bought(pairs):
        iprefix = k = 0
        for rank, pr in enumerate(pairs, start=1):
            iprefix += pr.ivalue
            if pr.ibid * iprefix < pairs.ibudget * pr.ivalue:
                k = rank
        counts = [0] * len(pairs.positive)
        for pr in pairs[:k]:
            counts[pr.seller] += 1
        return tuple(counts)

    return bought


def shifted_payment(delta):
    """``_payment`` with each bought unit paid its threshold plus ``delta``."""
    payment = mech_additive._payment

    def shifted(pairs, i, count):
        return payment(pairs, i, count) + count * delta

    return shifted


def next_round_price():
    """``m_rand_detail`` paying B/(k + 1), not B/k, in accepted round k."""
    detail = mech_subadditive.m_rand_detail

    def underpaid(inst, bids, sample_group):
        run = detail(inst, bids, sample_group)
        if run.accepted_round is None:
            return run
        price = inst.budget / (run.accepted_round + 1)
        alloc = run.outcome.allocation
        return run._replace(outcome=Outcome(alloc, tuple(price * x for x in alloc)))

    return underpaid


def calibration_mutant(bound_scale=1, true_costs=False, target_scale=1, zero_accepts=True):
    """``m_rand_detail`` restated, with at most one calibration-side change:
    the bound test against ``bound_scale`` times U, the target calibrated
    at the true costs rather than the bids, the target times
    ``target_scale``, or a zero target rejecting the round it accepts."""

    def detail(inst, bids, sample_group):
        a_max, eps = mech_subadditive.a_max, mech_subadditive.ACCEPT_EPS
        bids = checked_bids(inst, bids)
        group = tuple(sorted(sample_group))
        rest = [i for i in range(inst.m) if i not in group]
        valuation, factor = inst.valuation, phi(inst.total_units)
        full = tuple(u if i in group else 0 for i, u in enumerate(inst.units))
        bound = factor * float(Rat(valuation.ivalue(full), valuation.scale) * bound_scale) - eps
        target = None
        for k in range(1, sum(inst.units[i] for i in rest) + 1):
            price = inst.budget / k
            posted = tuple(i for i in rest if bids[i] <= price)
            if not posted:
                break
            run = a_max(valuation, inst.budget, inst.units, (price,) * inst.m, posted)
            if run.winner_value <= 0:
                continue
            value = float(run.winner_value)
            if value < bound:
                if target is None:
                    at = inst.costs if true_costs else bids
                    target = a_max(valuation, inst.budget, inst.units, at, group).winner_value
                    target *= target_scale
                if target == 0 and not zero_accepts:
                    continue
                if target != 0 and value < factor * float(target) - eps:
                    continue
            return RandRun(k, Outcome(run.winner, tuple(price * x for x in run.winner)))
        return RandRun(None, inst.empty_outcome())

    return detail


def star_paying_twice_the_bid():
    """``run_m_add`` with the star seller paid min(B, 2 * its bid)."""
    run = mech_additive.run_m_add

    def reads_the_bid(inst, bids, branch):
        out = run(inst, bids, branch)
        if branch != "star":
            return out
        i = mech_additive.star_seller(inst)
        payments = list(out.payments)
        payments[i] = min(inst.budget, 2 * checked_bids(inst, bids)[i])
        return Outcome(out.allocation, tuple(payments))

    return reads_the_bid


def star_overpaid(delta):
    """``run_m_add`` with the star seller paid B + ``delta``."""
    run = mech_additive.run_m_add

    def overpaid(inst, bids, branch):
        out = run(inst, bids, branch)
        if branch != "star":
            return out
        payments = tuple(p + delta if a else p for a, p in zip(out.allocation, out.payments))
        return Outcome(out.allocation, payments)

    return overpaid


def shifted_crossover(shift: int):
    """``plan_m_one`` with the crossover moved by ``shift``, clamped to
    [1, count]; the thresholds B / max(rank, crossover) follow it."""
    plan_m_one = mech_single_item.plan_m_one

    def shifted(inst, bids=None):
        plan = plan_m_one(inst, bids)
        return replace(plan, crossover=min(max(plan.crossover + shift, 1), plan.count))

    return shifted


def greedy_without_largest_threshold():
    """``GreedyLottery.cuts`` without the seller's largest threshold."""
    cuts = GreedyLottery.cuts

    def fewer(self, inst, bids, seller, rule):
        found = cuts(self, inst, bids, seller, rule)
        return found - {max(found)} if found else found

    return fewer


def fire_without_full_supply_price():
    """``SingleItemLottery.cuts`` without B/units[seller], the bid at which
    fire's affordable count reaches the seller's whole supply."""
    cuts = SingleItemLottery.cuts

    def fewer(self, inst, bids, seller, rule):
        return cuts(self, inst, bids, seller, rule) - {inst.budget / inst.units[seller]}

    return fewer


def count_rounded_up():
    """``affordable_count`` as the posted-count memo reads it, rounded up:
    min(units, ceil(B / bid)), so two bids with different posted counts
    can share one kept outcome."""

    def rounded_up(units, budget, bid):
        return units if bid == 0 else min(units, -(-budget // bid))

    return rounded_up


def rand_count_capped_at_own_units():
    """``SamplingLottery.seller_outcome`` with a seller's posted count capped
    at its own units, as fire's is, not at the total units."""

    def capped(self, inst, bids, seller, rule):
        if _mask(rule) >> seller & 1:
            return Lottery.seller_outcome(self, inst, bids, seller, rule)
        return verify.posted_outcome(self, inst, bids, seller, rule, inst.units[seller])

    return capped


# Cut-set mutants, each an owner's cuts with one cut left out; killed by
# the completeness test on their mechanism's corpus.
PIECE_MUTANTS = {
    "greedy_without_largest_threshold": (GreedyLottery, "m_add", greedy_without_largest_threshold),
    "fire_without_full_supply_price": (SingleItemLottery, "m_one", fire_without_full_supply_price),
}

# Calibration-side mutants of m_rand_detail, each one change of
# calibration_mutant; killed by the eager-reference equivalence.
CALIBRATION_MUTANTS = {
    "bound_against_quarter_U": {"bound_scale": Rat(1, 4)},
    "target_from_true_costs": {"true_costs": True},
    "halved_target": {"target_scale": Rat(1, 2)},
    "zero_target_rejects": {"zero_accepts": False},
}

# Bought-rule mutants, each one change to the walk or to _bought; killed by
# the one-seller equivalence test on m_add's corpus.
BOUGHT_MUTANTS = {
    "rate_tie_to_higher_index": ("_walk", lambda: mutant_walk(tie_to_higher=True)),
    "own_pair_bought_strictly": ("_walk", lambda: mutant_walk(strict_own=True)),
    "bought_strictly": ("_bought", strictly_bought),
}

# Posted-count mutants, each one change to how the posted-count memo keys a
# seller's outcome; killed by the one-seller equivalence test on m_rand's
# corpus named with it.
POSTED_MUTANTS = {
    "count_rounded_up": ((verify, "affordable_count"), count_rounded_up, calibration_corpus),
    "rand_count_capped_at_own_units": (
        (SamplingLottery, "seller_outcome"),
        rand_count_capped_at_own_units,
        lambda: (late_round(),),
    ),
}

MUTANTS = {
    "underpay": ("_payment", lambda: shifted_payment(Rat(-1, 10**9))),
    "no_rho_branch": ("_seller_thresholds", lambda: mutant_thresholds(rho_branch=False)),
    "min_one_rival_late": ("_seller_thresholds", lambda: mutant_thresholds(late=1)),
}


def test_restated_thresholds_are_the_greedys():
    # Unmutated, the restatement gives the greedy's own thresholds, so each
    # threshold mutant differs from the greedy by its one change.
    restated = mutant_thresholds()
    for inst in concave_corpus()[:KILL_WINDOW]:
        pairs = mech_additive.ranked_pairs(inst)
        for i, count in enumerate(pairs.positive):
            assert restated(pairs, i, count) == mech_additive._seller_thresholds(
                pairs, i, count
            )


def empty_greedy_memos(monkeypatch):
    """Start the greedy with no kept ranking and no kept seller walk."""
    monkeypatch.setattr(mech_additive, "_memo", (None, None, None, None))
    monkeypatch.setattr(mech_additive, "_seller_memo", (None, None, None, None))


def empty_posted_memo(monkeypatch):
    """Start the posted-count sweeps (fire and m_rand) with no kept outcome."""
    monkeypatch.setattr(verify, "_posted_memo", (None,) * 6)


def assert_killed(mutant, mech, window):
    """Some ``dst`` check of ``mech`` fails on the first ``window``
    instances of its criterion-8 corpus; stops at the first kill."""
    for n, inst in enumerate(dst_corpora()[mech][:window]):
        failed = [c.name for c in check_dst(mech, inst) if not c.passed]
        if failed:
            print(f"{mutant}: killed on instance {n} by {failed[0]}")
            return
    pytest.fail(f"{mutant} survives check_dst on {window} instances")


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_greedy_mutant_is_killed_by_dst(monkeypatch, mutant):
    name, make = MUTANTS[mutant]
    empty_greedy_memos(monkeypatch)
    monkeypatch.setattr(mech_additive, name, make())
    assert_killed(mutant, "m_add", KILL_WINDOW)


def test_m_rand_paying_the_next_rounds_price_is_killed_by_dst(monkeypatch):
    empty_posted_memo(monkeypatch)
    monkeypatch.setattr(mech_subadditive, "m_rand_detail", next_round_price())
    assert_killed("m_rand_pays_next_round", "m_rand", RAND_KILL_WINDOW)


@pytest.mark.parametrize("shift", [1, -1], ids=["crossover_late", "crossover_early"])
def test_m_one_crossover_mutant_is_killed_by_dst(monkeypatch, shift):
    empty_posted_memo(monkeypatch)
    monkeypatch.setattr(mech_single_item, "plan_m_one", shifted_crossover(shift))
    assert_killed(f"crossover_shift_{shift:+d}", "m_one", KILL_WINDOW)


def test_restated_m_rand_detail_is_m_rand_detail():
    # Unmutated, the restatement decides as m_rand_detail does, so each
    # calibration mutant differs from it by its one change.
    restated = calibration_mutant()
    for profile in grid_profiles(calibration_corpus()):
        assert restated(*profile) == mech_subadditive.m_rand_detail(*profile)


@pytest.mark.parametrize("mutant", sorted(CALIBRATION_MUTANTS))
def test_calibration_mutant_is_killed_by_the_eager_reference(monkeypatch, mutant):
    empty_posted_memo(monkeypatch)
    monkeypatch.setattr(
        mech_subadditive, "m_rand_detail", calibration_mutant(**CALIBRATION_MUTANTS[mutant])
    )
    for n, profile in enumerate(grid_profiles(calibration_corpus())):
        if tuple(mech_subadditive.m_rand_detail(*profile)) != reference_m_rand_detail(*profile)[1:]:
            print(f"{mutant}: killed at profile {n} by the eager reference")
            return
    pytest.fail(f"{mutant} survives the eager reference on calibration_corpus()")


def assert_declaration_killed(mutant):
    """The declaration test finds a fault on the first DECLARATION_WINDOW
    instances of m_add's criterion-8 corpus; stops at the first."""
    corpus = dst_corpora()["m_add"][:DECLARATION_WINDOW]
    fault = next(declaration_faults("m_add", corpus), None)
    if fault is None:
        pytest.fail(f"{mutant} survives the declaration test")
    print(f"{mutant}: killed by the declaration test at {fault}")


def test_star_reading_its_bid_is_killed_by_the_declaration(monkeypatch):
    # dst kills it too: a star seller costing under B/2 gains at
    # 2 * max(B, cost), the second bid of a sweep with no cuts, where it is
    # paid B.
    monkeypatch.setattr(mech_additive, "run_m_add", star_paying_twice_the_bid())
    assert_declaration_killed("star_pays_twice_the_bid")
    assert_killed("star_pays_twice_the_bid", "m_add", KILL_WINDOW)


def test_greedy_declared_bid_blind_is_killed(monkeypatch):
    # Declared with no cuts, the greedy is swept at two points, where the
    # pay-as-bid fixture gains nothing: criterion 8's probe no longer fails.
    monkeypatch.setattr(GreedyLottery, "cuts", lambda self, inst, bids, seller, rule: frozenset())
    assert_declaration_killed("greedy_declared_bid_blind")
    assert all(c.passed for c in check_dst("m_add_firstprice", first_price_probe()))


@pytest.mark.parametrize("mutant", sorted(PIECE_MUTANTS))
def test_missing_cut_is_killed_by_the_completeness_test(monkeypatch, mutant):
    owner, mech, make = PIECE_MUTANTS[mutant]
    monkeypatch.setattr(owner, "cuts", make())
    corpus = dst_corpora()[mech][:DECLARATION_WINDOW]
    fault = next(piece_faults(mech, corpus), None)
    if fault is None:
        pytest.fail(f"{mutant} survives the completeness test")
    print(f"{mutant}: killed by the completeness test at {fault}")


def test_fixture_given_the_greedys_seller_outcome_is_killed(monkeypatch):
    # The sweep reads a seller's outcome from seller_outcome alone.  Given
    # the greedy's, the pay-as-bid fixture is swept as the truthful greedy:
    # criterion 8's probe no longer fails, and only the equivalence with
    # run tells.
    monkeypatch.setattr(FirstPriceLottery, "seller_outcome", GreedyLottery.seller_outcome)
    assert all(c.passed for c in check_dst("m_add_firstprice", first_price_probe()))
    corpus = dst_corpora()["m_add"][:DECLARATION_WINDOW]
    fault = next(seller_outcome_faults("m_add_firstprice", corpus), None)
    if fault is None:
        pytest.fail("fixture_given_greedy_seller_outcome survives the equivalence test")
    print(f"fixture_given_greedy_seller_outcome: killed by the equivalence test at {fault}")


def test_star_overpaid_is_killed_by_budget(monkeypatch):
    monkeypatch.setattr(mech_additive, "run_m_add", star_overpaid(Rat(1, 10**12)))
    for n, inst in enumerate(dst_corpora()["m_add"][:KILL_WINDOW]):
        failed = [c.name for c in check_budget("m_add", inst) if not c.passed]
        if failed:
            assert failed == ["budget:star"]
            print(f"star_overpaid: killed on instance {n} by {failed[0]}")
            return
    pytest.fail(f"star_overpaid survives check_budget on {KILL_WINDOW} instances")


def test_restated_walk_is_the_walks(monkeypatch):
    # Unmutated, the restated walk and _bought pass the equivalence test, so
    # each bought-rule mutant differs from the greedy by its one change.
    corpus = dst_corpora()["m_add"][:DECLARATION_WINDOW]
    for name, restated in (("_walk", mutant_walk()), ("_bought", None)):
        empty_greedy_memos(monkeypatch)
        if restated is not None:
            monkeypatch.setattr(mech_additive, name, restated)
        assert next(seller_outcome_faults("m_add", corpus), None) is None


@pytest.mark.parametrize("mutant", sorted(BOUGHT_MUTANTS))
def test_bought_rule_mutant_is_killed_by_the_equivalence_test(monkeypatch, mutant):
    # Criterion 8's sweeps (tests/test_acceptance.py) pass under each of
    # these, so this equivalence is their one kill.
    name, make = BOUGHT_MUTANTS[mutant]
    empty_greedy_memos(monkeypatch)
    monkeypatch.setattr(mech_additive, name, make())
    corpus = dst_corpora()["m_add"][:DECLARATION_WINDOW]
    fault = next(seller_outcome_faults("m_add", corpus), None)
    if fault is None:
        pytest.fail(f"{mutant} survives the equivalence test")
    print(f"{mutant}: killed by the equivalence test at {fault}")


@pytest.mark.parametrize("mutant", sorted(POSTED_MUTANTS))
def test_posted_count_mutant_is_killed_by_the_equivalence_test(monkeypatch, mutant):
    # check_dst passes on every criterion-8 corpus under each of these, so
    # this equivalence is their one kill.  At truthful bids an accepted
    # m_rand round there is round 1, so a cap at the seller's own units
    # shows only on a late round.
    (owner, name), make, corpus = POSTED_MUTANTS[mutant]
    empty_posted_memo(monkeypatch)
    monkeypatch.setattr(owner, name, make())
    fault = next(seller_outcome_faults("m_rand", corpus()), None)
    if fault is None:
        pytest.fail(f"{mutant} survives the equivalence test")
    print(f"{mutant}: killed by the equivalence test at {fault}")
