"""Greedy mutants that the DST check must catch.

Each mutant rebinds one ``mech_additive`` function through ``monkeypatch``
and must fail some ``dst`` check of ``m_add`` within the first 100
``concave_corpus()`` instances; the search stops at the first kill.  The
ranking memo is emptied first, so no ranking computed by the real greedy
serves a mutant, and ``monkeypatch`` puts the real entry back afterwards.
"""

from itertools import accumulate

import pytest

from procure import mech_additive
from procure.core import Rat
from procure.verify import check_dst

from corpora import concave_corpus

KILL_WINDOW = 100


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


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_greedy_mutant_is_killed_by_dst(monkeypatch, mutant):
    name, make = MUTANTS[mutant]
    monkeypatch.setattr(mech_additive, "_memo", (None, None, None, None))
    monkeypatch.setattr(mech_additive, name, make())
    for n, inst in enumerate(concave_corpus()[:KILL_WINDOW]):
        failed = [c.name for c in check_dst("m_add", inst) if not c.passed]
        if failed:
            print(f"{mutant}: killed on instance {n} by {failed[0]}")
            return
    pytest.fail(f"{mutant} survives check_dst on {KILL_WINDOW} instances")
