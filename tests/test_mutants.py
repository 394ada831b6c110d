"""Mechanism mutants that the DST check must catch.

Each mutant rebinds one mechanism function through ``monkeypatch`` and
must fail some ``dst`` check of its mechanism within a prefix of that
mechanism's criterion-8 corpus: the first 100 instances for the greedy
(``m_add``), the first 60 for ``m_rand``.  The search stops at the first
kill.  The greedy's ranking memo is emptied first, so no ranking
computed by the real greedy serves a mutant, and ``monkeypatch`` puts
the real entry back afterwards.
"""

from itertools import accumulate

import pytest

from procure import mech_additive, mech_subadditive
from procure.core import Outcome, Rat
from procure.verify import check_dst

from corpora import concave_corpus, dst_corpora

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
    monkeypatch.setattr(mech_additive, "_memo", (None, None, None, None))
    monkeypatch.setattr(mech_additive, name, make())
    assert_killed(mutant, "m_add", KILL_WINDOW)


def test_m_rand_paying_the_next_rounds_price_is_killed_by_dst(monkeypatch):
    monkeypatch.setattr(mech_subadditive, "m_rand_detail", next_round_price())
    assert_killed("m_rand_pays_next_round", "m_rand", RAND_KILL_WINDOW)
