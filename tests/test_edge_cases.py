"""Hand-built boundary instances: zero costs, heavy ties, degenerate budgets."""

import pytest

from procure.core import Instance, Rat, Seller
from procure.valuations import BoundedKnapsack, ConcaveAdditive, Symmetric
from procure.verify import (
    MECHANISM_IDS,
    MECHANISMS,
    check_budget,
    check_dst,
    check_ir,
)

CASES = {
    "all-zero-costs": Instance(
        (Seller(2, Rat(0)), Seller(2, Rat(0))),
        Rat(5),
        ConcaveAdditive(((Rat(4), Rat(2)), (Rat(3), Rat(3)))),
    ),
    "identical-twins": Instance(
        (Seller(2, Rat(2)), Seller(2, Rat(2))),
        Rat(9),
        ConcaveAdditive(((Rat(4), Rat(4)), (Rat(4), Rat(4)))),
    ),
    "zero-tail-zero-cost": Instance(
        (Seller(3, Rat(0)), Seller(2, Rat(1))),
        Rat(4),
        ConcaveAdditive(((Rat(2), Rat(0), Rat(0)), (Rat(5), Rat(1)))),
    ),
    "nonmonotone-symmetric-margins": Instance(
        (Seller(2, Rat(1)), Seller(2, Rat(2))),
        Rat(6),
        Symmetric((Rat(1), Rat(5), Rat(0), Rat(4))),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundary_instances_stay_clean(name):
    inst = CASES[name]
    for mech in MECHANISM_IDS:
        if MECHANISMS[mech].applicable(inst):
            continue
        checks = (
            check_dst(mech, inst, resolution=32)
            + check_ir(mech, inst)
            + check_budget(mech, inst)
        )
        failed = [c.name for c in checks if not c.passed]
        assert not failed, (name, mech, failed)


def test_star_branch_ir_boundary_is_reported():
    # The posted branch pays the full budget for one unit, so on instances
    # where every cost exceeds the budget it is not individually rational;
    # the harness must say so rather than paper over it.  Generators keep
    # costs within the budget, so corpora stay inside the guaranteed regime.
    pricey = Instance(
        (Seller(2, Rat(9)), Seller(1, Rat(8))),
        Rat(3),
        BoundedKnapsack((Rat(1), Rat(2))),
    )
    failed = [c for c in check_ir("m_add", pricey) if not c.passed]
    assert [c.name for c in failed] == ["ir:star"]
    assert failed[0].witness["utility"] == "-5"
    # every other branch and mechanism stays individually rational
    assert all(c.passed for c in check_ir("m_one", pricey))
    assert all(c.passed for c in check_ir("m_rand", pricey))
    assert all(c.passed for c in check_ir("m_sub", pricey))
