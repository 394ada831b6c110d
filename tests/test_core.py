import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from procure.core import (
    MAX_TOTAL_UNITS,
    Instance,
    Outcome,
    Rat,
    SearchSpaceTooLarge,
    Seller,
    checked_bids,
    format_rat,
    is_budget_feasible,
    parse_rat,
    refuse_over,
    unit_vector,
    utility,
)
from procure.valuations import BoundedKnapsack

from corpora import dst_corpora
from helpers import join, meet


def test_parse_rat_forms():
    assert parse_rat("3/4") == Rat(3, 4)
    assert parse_rat("-3/4") == Rat(-3, 4)
    assert parse_rat("5") == Rat(5)
    assert parse_rat("0") == 0


@pytest.mark.parametrize("bad", ["3/-4", "1.5", "3/0", "a", "", "1/2/3", "+1"])
def test_parse_rat_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


@given(st.fractions())
def test_rat_round_trip(q):
    assert parse_rat(format_rat(Rat(q))) == q


def test_join_meet_examples():
    assert join((1, 2, 0), (0, 1, 2)) == (1, 2, 2)
    assert meet((1, 2, 0), (0, 1, 2)) == (0, 1, 0)
    a = (2, 0, 1)
    assert join(a, a) == a
    assert meet(a, a) == a
    assert join((0, 0, 0), a) == a
    assert meet((0, 0, 0), a) == (0, 0, 0)


def test_join_meet_length_mismatch():
    with pytest.raises(ValueError):
        join((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        meet((1,), ())


allocs = st.lists(st.integers(0, 5), min_size=1, max_size=5)


@given(allocs, allocs, allocs)
def test_lattice_properties(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    lo, hi = meet(a, b), join(a, b)
    assert all(x <= y <= z for x, y, z in zip(lo, a, hi))


def test_utility_examples():
    out = Outcome((2, 0), (Rat(5), Rat(0)))
    assert utility(out, (Rat(2), Rat(9)), 0) == 1
    assert utility(out, (Rat(2), Rat(9)), 1) == 0
    out2 = Outcome((1,), (Rat(10, 3),))
    assert utility(out2, (Rat(3),), 0) == Rat(1, 3)
    with pytest.raises(IndexError):
        utility(out, (Rat(1), Rat(1)), 2)


@given(
    st.fractions(min_value=0, max_value=100),
    st.integers(0, 5),
    st.fractions(min_value=0, max_value=100),
    st.fractions(min_value=Fraction(1, 10), max_value=10),
)
def test_utility_scales_linearly(pay, units, cost, lam):
    pay, cost, lam = Rat(pay), Rat(cost), Rat(lam)
    if units == 0:
        pay = Rat(0)
    base = utility(Outcome((units,), (pay,)), (cost,), 0)
    scaled = utility(Outcome((units,), (lam * pay,)), (lam * cost,), 0)
    assert scaled == lam * base


def test_budget_feasibility_examples():
    out = Outcome((1, 1), (Rat(3), Rat(4)))
    assert is_budget_feasible(out, Rat(7))
    assert not is_budget_feasible(out, Rat(699, 100))
    assert is_budget_feasible(Outcome((0, 0), (Rat(0), Rat(0))), Rat(1, 1000))


def test_outcome_invariants():
    with pytest.raises(ValueError):
        Outcome((0,), (Rat(1),))  # payment without allocation
    with pytest.raises(ValueError):
        Outcome((1,), (Rat(-1),))
    with pytest.raises(ValueError):
        Outcome((1, 0), (Rat(1),))
    # The sign tests read the numerator, so the smallest nonzero payments
    # still count.
    with pytest.raises(ValueError, match=r"^payment\[0\] negative$"):
        Outcome((1,), (Rat(-1, 10**40),))
    assert Outcome((0,), (Rat(0),)).total_payment == 0
    with pytest.raises(ValueError, match=r"^payment\[0\] nonzero without allocation$"):
        Outcome((0,), (Rat(1, 10**40),))


def test_checked_bids():
    inst = Instance(
        (Seller(2, Rat(1)), Seller(1, Rat(3, 2))), Rat(5), BoundedKnapsack((1, 1))
    )
    assert checked_bids(inst, None) is inst.costs
    for bids in ((1, 2), (Rat(1), Rat(2)), (Rat(1), 2)):
        got = checked_bids(inst, bids)
        assert got == (Rat(1), Rat(2))
        assert all(type(b) is Rat for b in got)
    with pytest.raises(ValueError, match=r"^bids must be >= 0$"):
        checked_bids(inst, (Rat(1), Rat(-1, 10**40)))
    with pytest.raises(ValueError, match=r"^bid profile length mismatch$"):
        checked_bids(inst, (Rat(1),))


def test_instance_value_is_the_valuations_value():
    # Instance.value checks the caps and reads the integer form once; on
    # every criterion-8 corpus it agrees with the valuation's own value.
    rng = random.Random(25)
    for corpus in dst_corpora().values():
        for inst in corpus:
            some = tuple(rng.randint(0, u) for u in inst.units)
            for alloc in ((0,) * inst.m, inst.units, some):
                assert inst.value(alloc) == inst.valuation.value(alloc), (inst, alloc)


def test_instance_value_messages():
    inst = Instance(
        (Seller(2, Rat(1)), Seller(1, Rat(1))), Rat(5), BoundedKnapsack((1, 3))
    )
    assert inst.value((2, 1)) == 5
    for alloc, message in (
        ((3, 0), "allocation[0] = 3 outside [0, 2]"),
        ((0, -1), "allocation[1] = -1 outside [0, 1]"),
        ((1,), "allocation length 1 != seller count 2"),
        ((1, 0, 0), "allocation length 3 != seller count 2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            inst.value(alloc)


def test_instance_validation():
    v = BoundedKnapsack((Rat(1),))
    with pytest.raises(ValueError):
        Instance((), Rat(1), v)
    with pytest.raises(ValueError):
        Instance((Seller(1, Rat(1)),), Rat(0), v)
    with pytest.raises(ValueError):
        Seller(0, Rat(1))
    with pytest.raises(ValueError):
        Seller(1, Rat(-1))
    inst = Instance((Seller(2, Rat(1)),), Rat(5), v)
    inst.validate_allocation((2,))
    with pytest.raises(ValueError):
        inst.validate_allocation((3,))
    with pytest.raises(ValueError):
        inst.validate_allocation((1, 0))


def test_instance_total_units_guard():
    v = BoundedKnapsack((Rat(1), Rat(1)))
    half = MAX_TOTAL_UNITS // 2
    at_limit = Instance((Seller(half, 1), Seller(MAX_TOTAL_UNITS - half, 1)), 5, v)
    assert at_limit.total_units == MAX_TOTAL_UNITS
    with pytest.raises(SearchSpaceTooLarge, match="exceed the limit"):
        Instance((Seller(half, 1), Seller(MAX_TOTAL_UNITS - half + 1, 1)), 5, v)


def test_refuse_over_writes_long_counts_as_a_bound():
    refuse_over(10, 10, "{count} of {limit}")
    with pytest.raises(SearchSpaceTooLarge, match=r"^11 of 10$"):
        refuse_over(11, 10, "{count} of {limit}")
    with pytest.raises(SearchSpaceTooLarge, match=r"^9{100} of 10$"):
        refuse_over(10**100 - 1, 10, "{count} of {limit}")
    for count in (10**100, 10**5000):
        with pytest.raises(SearchSpaceTooLarge, match=r"^over 10\^100 of 10$"):
            refuse_over(count, 10, "{count} of {limit}")


def test_unit_vector():
    assert unit_vector(3, 1) == (0, 1, 0)
    assert unit_vector(2, 0, 4) == (4, 0)
