import random
import sys
import threading

import pytest

from procure.core import MalformedValuation, Rat, SearchSpaceTooLarge
from procure.valuations import (
    Additive,
    BoundedKnapsack,
    ConcaveAdditive,
    Explicit,
    Symmetric,
    classify,
    demand,
    valuation_from_json,
    valuation_to_json,
)
from corpora import greedy_nonmonotone_instance
from helpers import as_explicit, brute_force_demand, explicit_from_function

CHAIN = (
    "bounded-knapsack",
    "concave-additive",
    "diminishing-return",
    "submodular",
    "subadditive",
)


def test_value_examples():
    assert BoundedKnapsack((Rat(1),)).value((5,)) == 5
    table = greedy_nonmonotone_instance().valuation
    assert table.value((1, 2, 0)) == Rat(803, 50)  # 16 + 6/100
    assert table.value((0, 0, 0)) == 0
    assert Symmetric((Rat(3), Rat(2))).value((1, 1)) == 5


def test_value_range_errors():
    v = ConcaveAdditive(((Rat(4), Rat(2)),))
    assert v.value((2,)) == 6
    with pytest.raises(ValueError):
        v.value((3,))
    with pytest.raises(ValueError):
        v.value((2, 0))
    with pytest.raises(ValueError):
        Symmetric((Rat(1),)).value((2,))


def test_explicit_validation():
    with pytest.raises(MalformedValuation):  # not total
        Explicit((1,), (((0,), Rat(0)),))
    with pytest.raises(MalformedValuation):  # origin nonzero
        Explicit((1,), (((0,), Rat(1)), ((1,), Rat(2))))
    with pytest.raises(MalformedValuation):  # not monotone
        Explicit((1,), (((0,), Rat(0)), ((1,), Rat(-1))))
    with pytest.raises(MalformedValuation):
        Explicit(
            (2,), (((0,), Rat(0)), ((1,), Rat(5)), ((2,), Rat(3)))
        )


def test_concave_margin_validation():
    with pytest.raises(MalformedValuation):
        ConcaveAdditive(((Rat(1), Rat(2)),))
    with pytest.raises(MalformedValuation):
        Additive(((Rat(-1),),))
    Additive(((Rat(1), Rat(2)),))  # non-concave is fine here


def test_demand_examples():
    v = ConcaveAdditive(((Rat(6), Rat(4)),))
    assert demand(v, (Rat(5),), (2,)) == (1,)
    # margin == price is skipped (lexicographically smallest maximizer)
    assert demand(v, (Rat(4),), (2,)) == (1,)
    assert demand(v, (Rat(6),), (2,)) == (0,)
    table = greedy_nonmonotone_instance().valuation
    assert demand(table, (Rat(20), Rat(20), Rat(20)), (1, 2, 2)) == (0, 0, 0)
    # zero prices on a strictly monotone valuation buy everything
    strict = ConcaveAdditive(((Rat(3), Rat(2)), (Rat(5),)))
    assert demand(strict, (Rat(0), Rat(0)), (2, 1)) == (2, 1)


def test_demand_zero_objective_floor():
    v = BoundedKnapsack((Rat(1), Rat(2)))
    for prices in ((Rat(3), Rat(3)), (Rat(0), Rat(5))):
        alloc = demand(v, prices, (2, 2))
        obj = v.value(alloc) - sum(a * p for a, p in zip(alloc, prices))
        assert obj >= 0


def test_demand_matches_enumeration_additive_families():
    rng = random.Random(42)
    for _ in range(120):
        m = rng.randint(1, 3)
        caps = [rng.randint(0, 3) for _ in range(m)]
        margins = tuple(
            tuple(Rat(rng.randint(0, 10), rng.choice((1, 2))) for _ in range(c))
            for c in caps
        )
        family = rng.choice(("bk", "add", "concave"))
        if family == "bk":
            v = BoundedKnapsack(tuple(Rat(rng.randint(0, 8)) for _ in range(m)))
        elif family == "concave":
            v = ConcaveAdditive(tuple(tuple(sorted(mm, reverse=True)) for mm in margins))
        else:
            v = Additive(margins)
        prices = tuple(Rat(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(m))
        assert demand(v, prices, tuple(caps)) == brute_force_demand(v, prices, tuple(caps))


def test_demand_matches_enumeration_symmetric():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(1, 3)
        caps = tuple(rng.randint(0, 2) for _ in range(m))
        v = Symmetric(tuple(Rat(rng.randint(0, 9)) for _ in range(sum(caps))))
        prices = tuple(Rat(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(m))
        assert demand(v, prices, caps) == brute_force_demand(v, prices, caps)


def test_demand_guard():
    margins = tuple(Rat(1) for _ in range(126))
    v = Symmetric(margins)
    with pytest.raises(SearchSpaceTooLarge):
        demand(v, (Rat(1),) * 6, (20,) * 6)


def test_demand_memo_is_per_valuation_under_threads():
    # Each thread queries its own valuation with the same price keys, and
    # the valuations disagree on most of them, so a thread handed another
    # valuation's table in a race of owner switches would see a wrong answer.
    caps = (3, 3)
    vals = [BoundedKnapsack((Rat(k), Rat(5 - k))) for k in range(1, 5)]
    prices = [(Rat(p), Rat(q)) for p in (2, 3) for q in (2, 3)]
    expected = [[brute_force_demand(v, ps, caps) for ps in prices] for v in vals]
    wrong = []

    def worker(v, want):
        for _ in range(500):
            for ps, alloc in zip(prices, want):
                if demand(v, ps, caps) != alloc:
                    wrong.append((v, ps))

    threads = [
        threading.Thread(target=worker, args=(v, want))
        for v, want in zip(vals, expected)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _caps_families():
    return (
        BoundedKnapsack((Rat(2), Rat(1))),
        Additive(((Rat(1), Rat(3)), (Rat(2),))),
        ConcaveAdditive(((Rat(3), Rat(1)), (Rat(2),))),
        Symmetric((Rat(3), Rat(2), Rat(1))),
        explicit_from_function((2, 1), lambda a: Rat(sum(a))),
    )


def test_bad_caps_raise_value_error():
    bk, add, concave, sym, table = _caps_families()
    cases = [
        # wrong length
        (bk, (1,)), (bk, (1, 1, 1)), (add, (1,)), (concave, (1, 1, 1)),
        (table, (1,)), (table, (1, 1, 1)),
        # beyond the family's unit dimension
        (add, (3, 1)), (concave, (2, 2)), (sym, (2, 2)), (sym, (4,)),
        (table, (3, 1)), (table, (2, 2)),
        # negative
        (bk, (-1, 1)), (add, (1, -1)), (concave, (-1, 0)), (sym, (-1, 1)),
        (table, (0, -1)),
    ]
    for valuation, caps in cases:
        with pytest.raises(ValueError):
            demand(valuation, (Rat(1),) * len(caps), caps)
        with pytest.raises(ValueError):
            classify(valuation, caps)


def test_caps_without_a_dimension_are_accepted():
    bk, _, _, sym, _ = _caps_families()
    assert demand(bk, (Rat(1), Rat(3)), (50, 70)) == (50, 0)
    assert "bounded-knapsack" in classify(bk, (50, 70))
    for caps in ((3,), (1, 1, 1), (1, 0, 1, 1), (0, 0, 0, 0, 0)):
        assert demand(sym, (Rat(0),) * len(caps), caps) == caps
        assert "symmetric" in classify(sym, caps)


def test_value_monotone_for_accepted_valuations():
    rng = random.Random(91)
    from procure.instances import gen_concave_additive, gen_symmetric

    from corpora import gen_additive, gen_explicit_monotone

    gens = (gen_concave_additive, gen_additive, gen_symmetric,
            gen_explicit_monotone)
    for i in range(40):
        inst = gens[i % 4](16500 + i)
        units = inst.units
        alloc = tuple(rng.randint(0, n) for n in units)
        value = inst.value(alloc)
        for j in range(inst.m):
            if alloc[j] < units[j]:
                up = alloc[:j] + (alloc[j] + 1,) + alloc[j + 1 :]
                assert inst.value(up) >= value


def test_classify_examples():
    labels = classify(BoundedKnapsack((Rat(1), Rat(2))), (2, 2))
    assert labels == frozenset(
        {"bounded-knapsack", "additive", "concave-additive",
         "diminishing-return", "submodular", "subadditive"}
    )
    table = greedy_nonmonotone_instance().valuation
    got = classify(table, (1, 2, 2))
    assert {"diminishing-return", "submodular", "subadditive"} <= got
    assert "additive" not in got and "symmetric" not in got
    superadd = Explicit.from_mapping(
        (1, 1),
        {(0, 0): Rat(0), (1, 0): Rat(1), (0, 1): Rat(1), (1, 1): Rat(3)},
    )
    assert "subadditive" not in classify(superadd, (1, 1))


def test_classify_chain_upward_closed():
    rng = random.Random(7)
    cases = [
        BoundedKnapsack((Rat(2), Rat(2))),
        BoundedKnapsack((Rat(1),)),
        ConcaveAdditive(((Rat(5), Rat(1)), (Rat(3),))),
        Additive(((Rat(1), Rat(4)), (Rat(2),))),
        Symmetric((Rat(4), Rat(2), Rat(1))),
        Symmetric((Rat(1), Rat(5), Rat(1))),
        greedy_nonmonotone_instance().valuation,
    ]
    caps_for = {
        0: (2, 2), 1: (1,), 2: (2, 1), 3: (2, 1), 4: (2, 1), 5: (2, 1),
        6: (1, 2, 2),
    }
    for idx, v in enumerate(cases):
        labels = classify(v, caps_for[idx])
        for lo, hi in zip(CHAIN, CHAIN[1:]):
            if lo in labels:
                assert hi in labels, (idx, labels)
    for _ in range(40):
        caps = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        v = Symmetric(tuple(Rat(rng.randint(0, 6)) for _ in range(sum(caps))))
        labels = classify(v, caps)
        for lo, hi in zip(CHAIN, CHAIN[1:]):
            if lo in labels:
                assert hi in labels


def test_classify_structural_matches_enumeration():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 3)
        caps = tuple(rng.randint(1, 2) for _ in range(m))
        kind = rng.choice(("bk", "concave", "additive", "symmetric"))
        if kind == "bk":
            v = BoundedKnapsack(tuple(Rat(rng.randint(0, 5)) for _ in range(m)))
        elif kind == "concave":
            v = ConcaveAdditive(
                tuple(
                    tuple(
                        sorted(
                            (Rat(rng.randint(0, 6)) for _ in range(c)),
                            reverse=True,
                        )
                    )
                    for c in caps
                )
            )
        elif kind == "additive":
            v = Additive(
                tuple(
                    tuple(Rat(rng.randint(0, 6)) for _ in range(c)) for c in caps
                )
            )
        else:
            v = Symmetric(tuple(Rat(rng.randint(0, 6)) for _ in range(sum(caps))))
        structural = classify(v, caps)
        enumerated = classify(as_explicit(v, caps), caps)
        assert structural == enumerated, (kind, v, caps)


def test_classify_guard():
    v = Symmetric(tuple(Rat(1) for _ in range(44)))
    with pytest.raises(SearchSpaceTooLarge):
        classify(as_explicit(v, (10, 10, 10)), (10, 10, 10))


def test_valuation_json_round_trip():
    cases = [
        BoundedKnapsack((Rat(1), Rat(5, 2))),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5),))),
        Additive(((Rat(1), Rat(4)),)),
        Symmetric((Rat(10), Rat(6), Rat(3), Rat(1))),
        greedy_nonmonotone_instance().valuation,
    ]
    for v in cases:
        assert valuation_from_json(valuation_to_json(v)) == v
    with pytest.raises(MalformedValuation):
        valuation_from_json({"type": "nope"})
