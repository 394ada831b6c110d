import copy
import itertools
import pickle
import random
import sys
import threading

import pytest

from procure import valuations
from procure.core import Instance, MalformedValuation, Rat, SearchSpaceTooLarge, Seller
from procure.instances import (
    InstanceFormatError,
    valuation_from_json,
    valuation_to_json,
)
from procure.mech_additive import greedy_allocate, greedy_payments, threshold
from procure.valuations import (
    Additive,
    BoundedKnapsack,
    ConcaveAdditive,
    Explicit,
    Symmetric,
    classify,
    demand,
    domain,
    domain_size,
)
from corpora import (
    concave_corpus,
    explicit_subadditive_corpus,
    gen_additive,
    greedy_nonmonotone_instance,
    m_one_corpus,
    symmetric_corpus,
)
from helpers import (
    as_explicit,
    brute_force_demand,
    explicit_from_function,
    reference_demand,
    reference_greedy_payments,
    reference_margins,
    reference_pairs,
    reference_seller_thresholds,
    reference_value,
)

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


@pytest.mark.parametrize(
    "alloc", [(2,), (2, 1, 0), (-1, 0), (0, -1), (3, 0), (0, 2)]
)
def test_explicit_value_outside_caps_is_a_value_error(alloc):
    table = as_explicit(ConcaveAdditive(((Rat(4), Rat(2)), (Rat(3),))), (2, 1))
    assert table.value([2, 1]) == table.value((2, 1)) == 9
    with pytest.raises(ValueError, match="^allocation out of range$"):
        table.value(alloc)


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


def test_demand_memo_keys_equal_prices_once():
    # The key is the prices' scale S_p and their integers over it: equal
    # rationals share one entry whatever their type, and prices with equal
    # integers over different scales do not.
    v = ConcaveAdditive(((Rat(3), Rat(1)),))

    def entries():
        return len(valuations._demand_caches.get(v))

    assert demand(v, (1,), (2,)) == (1,)
    size = entries()
    assert demand(v, (Rat(2, 2),), (2,)) == demand(v, (Rat(1),), (2,)) == (1,)
    assert entries() == size
    assert demand(v, (Rat(1, 2),), (2,)) == (2,)
    assert demand(v, (Rat(1, 4),), (2,)) == (2,)
    assert entries() == size + 2


def test_as_rats_keeps_rats_and_converts_the_rest():
    q = Rat(3, 4)
    kept, converted = valuations._as_rats((q, 2))
    assert kept is q
    assert type(converted) is Rat and converted == 2


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


def _random_valuation(rng, family, caps):
    def rat():
        return Rat(rng.randint(0, 40), rng.choice((1, 2, 3, 7, 999_983)))

    if family == "bk":
        return BoundedKnapsack(tuple(rat() for _ in caps))
    if family == "add":
        return Additive(tuple(tuple(rat() for _ in range(c)) for c in caps))
    if family == "concave":
        return ConcaveAdditive(
            tuple(tuple(sorted((rat() for _ in range(c)), reverse=True)) for c in caps)
        )
    if family == "sym":
        return Symmetric(tuple(rat() for _ in range(sum(caps))))
    table = {}
    for alloc in domain(caps):  # lexicographic, so every lower neighbour is set
        lower = [
            table[alloc[:i] + (a - 1,) + alloc[i + 1 :]] for i, a in enumerate(alloc) if a
        ]
        table[alloc] = max(lower) + rat() if lower else Rat(0)
    return Explicit.from_mapping(caps, table)


def _chain_margins(valuation, caps):
    m = len(caps)
    return [
        [
            valuation.value(tuple(k if j == i else 0 for j in range(m)))
            - valuation.value(tuple(k - 1 if j == i else 0 for j in range(m)))
            for k in range(1, c + 1)
        ]
        for i, c in enumerate(caps)
    ]


def test_demand_matches_rational_reference_on_every_family():
    rng = random.Random(20)
    primes = (999_983, 1_000_003, 1_000_033, 10**9 + 7)
    for trial in range(600):
        family = ("bk", "add", "concave", "sym", "explicit")[trial % 5]
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        v = _random_valuation(rng, family, caps)
        margins = _chain_margins(v, caps)
        kind = rng.choice(("margin", "zero", "coprime", "mixed"))
        prices = []
        for i, mm in enumerate(margins):
            pick = rng.choice(("margin", "zero", "coprime")) if kind == "mixed" else kind
            if pick == "margin" and mm:
                prices.append(rng.choice(mm))
            elif pick == "coprime":
                prices.append(Rat(rng.randint(0, 40 * primes[i]), primes[i]))
            else:
                prices.append(Rat(0))
        prices = tuple(prices)
        assert demand(v, prices, caps) == reference_demand(v, prices, caps), (v, prices, caps)


def test_scaled_values_are_exact_on_every_family():
    # value and the integer form both match the rational reference.  The
    # form is built once and is not a field: repr and hash do not change,
    # and a copy or a pickle round trip is an equal valuation of equal scale.
    rng = random.Random(21)
    for trial in range(100):
        family = ("bk", "add", "concave", "sym", "explicit")[trial % 5]
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        v = _random_valuation(rng, family, caps)
        text, digest = repr(v), hash(v)
        built = v._ints
        for alloc in domain(caps):
            want = reference_value(v, alloc)
            assert v.value(alloc) == want, (v, alloc)
            assert Rat(v.ivalue(alloc), v.scale) == want, (v, alloc)
        if family in ("bk", "add", "concave"):
            rows = [[Rat(x, v.scale) for x in row] for row in v.imargins(caps)]
            assert rows == reference_margins(v, caps)
        assert v._ints is built
        assert (repr(v), hash(v)) == (text, digest)
        for twin in (copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert twin == v and twin.scale == v.scale


def test_demand_guard():
    margins = tuple(Rat(1) for _ in range(126))
    v = Symmetric(margins)
    with pytest.raises(SearchSpaceTooLarge):
        demand(v, (Rat(1),) * 6, (20,) * 6)


def test_demand_memo_is_per_valuation_under_threads():
    # Each thread queries its own valuation with the same price keys, and
    # the valuations disagree on most of them, so a thread handed another
    # valuation's table in a race of owner switches would see a wrong answer.
    # The greedy reads each valuation's own integer form, first built here
    # under the four threads, and the four two-seller instances are each
    # bought differently.  The ranking memo switches instance under the
    # same races, so each thread also checks its payments and every bought
    # unit's threshold.  A worker records its exception, so a thread that
    # dies fails the test.
    caps = (3, 3)
    vals = [BoundedKnapsack((Rat(k), Rat(5 - k))) for k in range(1, 5)]
    prices = [(Rat(p), Rat(q)) for p in (2, 3) for q in (2, 3)]
    expected = [[brute_force_demand(v, ps, caps) for ps in prices] for v in vals]
    insts = [Instance((Seller(3, 1), Seller(3, 1)), 6, v) for v in vals]
    greedy = []
    for inst in insts:
        pairs = reference_pairs(inst)
        alloc, payments = reference_greedy_payments(inst)
        units = [reference_seller_thresholds(pairs, i, a, inst.budget) for i, a in enumerate(alloc)]
        greedy.append((alloc, payments, units))
    assert len({alloc for alloc, _, _ in greedy}) == len(vals)
    wrong, errors = [], []

    def worker(v, want, inst, greedy_want):
        alloc_want, payments_want, units_want = greedy_want
        try:
            for _ in range(500):
                for ps, alloc in zip(prices, want):
                    if demand(v, ps, caps) != alloc:
                        wrong.append((v, ps))
                if greedy_allocate(inst) != alloc_want:
                    wrong.append((v, "greedy"))
                if greedy_payments(inst) != (alloc_want, payments_want):
                    wrong.append((v, "payments"))
                units = [
                    [threshold(inst, i, j) for j in range(1, a + 1)]
                    for i, a in enumerate(alloc_want)
                ]
                if units != units_want:
                    wrong.append((v, "thresholds"))
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=args)
        for args in zip(vals, expected, insts, greedy)
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
    assert errors == []
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
    # demand and classify refuse caps outside the valuation's domain with
    # its supply-check message, and negative caps that do fit with their own.
    bk, add, concave, sym, table = _caps_families()
    unfit = "caps do not fit the valuation: "
    cases = [
        # wrong length
        (bk, (1,), unfit + "2 item values for 1 sellers"),
        (bk, (1, 1, 1), unfit + "2 item values for 3 sellers"),
        (add, (1,), unfit + "2 margin lists for 1 sellers"),
        (concave, (1, 1, 1), unfit + "2 margin lists for 3 sellers"),
        (table, (1,), unfit + "2 capped items for 1 sellers"),
        (table, (1, 1, 1), unfit + "2 capped items for 3 sellers"),
        # beyond the family's unit dimension
        (add, (3, 1), unfit + "item 0 has 2 margins but 3 units"),
        (concave, (2, 2), unfit + "item 1 has 1 margins but 2 units"),
        (sym, (2, 2), unfit + "3 margins for 4 total units"),
        (sym, (4,), unfit + "3 margins for 4 total units"),
        (table, (3, 1), unfit + "item 0 capped at 2 but seller offers 3 units"),
        (table, (2, 2), unfit + "item 1 capped at 1 but seller offers 2 units"),
        # negative and outside the domain: the domain message comes first
        (bk, (-1, 1, 1), unfit + "2 item values for 3 sellers"),
        (sym, (-1, 5), unfit + "3 margins for 4 total units"),
        # negative
        (bk, (-1, 1), "caps must be >= 0"),
        (add, (1, -1), "caps must be >= 0"),
        (concave, (-1, 0), "caps must be >= 0"),
        (sym, (-1, 1), "caps must be >= 0"),
        (table, (0, -1), "caps must be >= 0"),
    ]
    for valuation, caps, message in cases:
        with pytest.raises(ValueError) as info:
            demand(valuation, (Rat(1),) * len(caps), caps)
        assert str(info.value) == message, (valuation, caps)
        with pytest.raises(ValueError) as info:
            classify(valuation, caps)
        assert str(info.value) == message, (valuation, caps)


def test_one_domain_rule_for_supply_value_and_caps():
    # Every family's domain holds zero and is downward closed, so one rule
    # decides all three: value refuses an allocation exactly when
    # check_units does or a count is negative, and demand refuses caps
    # exactly when check_units does, with its message.  Allocations lie
    # around each supply: every count at 0, at the supply and one past it,
    # plus a negative count and both wrong lengths.
    insts = (
        m_one_corpus()[::5]  # concave, bounded knapsack, symmetric, explicit
        + concave_corpus()[:20]
        + symmetric_corpus()[:20]
        + explicit_subadditive_corpus()[::10]
        + explicit_subadditive_corpus()[-3:]
        + tuple(gen_additive(seed) for seed in range(20))
    )
    families = {type(inst.valuation) for inst in insts}
    assert families == {BoundedKnapsack, Additive, ConcaveAdditive, Symmetric, Explicit}
    for inst in insts:
        v, units = inst.valuation, inst.units
        around = list(itertools.product(*((0, n, n + 1) for n in units)))
        around += [(-1,) + units[1:], units + (0,), units[1:]]
        for alloc in around:
            try:
                v.check_units(alloc)
                reason = None
            except MalformedValuation as exc:
                reason = str(exc)
            if reason is None and min(alloc, default=0) >= 0:
                assert v.value(alloc) == reference_value(v, alloc), (v, alloc)
            else:
                with pytest.raises(ValueError, match="^allocation out of range$"):
                    v.value(alloc)
            try:
                demand(v, (Rat(0),) * len(alloc), alloc)
                refused = None
            except ValueError as exc:
                refused = str(exc)
            if reason is None:
                assert refused in (None, "caps must be >= 0"), (v, alloc)
            else:
                assert refused == f"caps do not fit the valuation: {reason}", (v, alloc)


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


def test_domain_guard_stops_at_counts_too_long_to_write():
    # 2^20,000 allocations have 6,021 digits, more than str() writes.
    with pytest.raises(SearchSpaceTooLarge) as info:
        domain_size((1,) * 20_000)
    assert str(info.value) == "over 10^100 allocations exceed the enumeration guard of 1000000"
    assert len(str(info.value)) < 200


def test_explicit_section_with_300000_caps_is_refused():
    # The guard refuses the caps before any table entry is read.
    caps = (1,) * 300_000
    with pytest.raises(SearchSpaceTooLarge) as info:
        Explicit(caps, ())
    assert len(str(info.value)) < 200
    section = {"type": "explicit", "caps": list(caps), "table": []}
    with pytest.raises(InstanceFormatError) as info:
        valuation_from_json(section)
    assert str(info.value).startswith("$.valuation: over 10^100 allocations exceed")
    assert isinstance(info.value.__cause__, SearchSpaceTooLarge)
    assert len(str(info.value)) < 200


def test_classify_guard():
    v = Symmetric(tuple(Rat(1) for _ in range(44)))
    with pytest.raises(SearchSpaceTooLarge):
        classify(as_explicit(v, (10, 10, 10)), (10, 10, 10))


def test_valuation_json_round_trip():
    # Each case with the JSON object written for it; the file format fixes
    # these byte for byte.
    explicit_rows = [
        ([0, 0, 0], "0"), ([0, 0, 1], "999/100"), ([0, 0, 2], "15"),
        ([0, 1, 0], "1001/100"), ([0, 1, 1], "753/50"), ([0, 1, 2], "1607/100"),
        ([0, 2, 0], "374/25"), ([0, 2, 1], "321/20"), ([0, 2, 2], "1607/100"),
        ([1, 0, 0], "10"), ([1, 0, 1], "1499/100"), ([1, 0, 2], "16"),
        ([1, 1, 0], "301/20"), ([1, 1, 1], "401/25"), ([1, 1, 2], "1607/100"),
        ([1, 2, 0], "803/50"), ([1, 2, 1], "1607/100"), ([1, 2, 2], "1607/100"),
    ]
    cases = [
        (
            BoundedKnapsack((Rat(1), Rat(5, 2))),
            {"type": "bounded_knapsack", "values": ["1", "5/2"]},
        ),
        (
            ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5),))),
            {"type": "concave_additive", "margins": [["6", "4"], ["5"]]},
        ),
        (
            Additive(((Rat(1), Rat(4)),)),
            {"type": "additive", "margins": [["1", "4"]]},
        ),
        (
            Symmetric((Rat(10), Rat(6), Rat(3), Rat(1))),
            {"type": "symmetric", "margins": ["10", "6", "3", "1"]},
        ),
        (
            greedy_nonmonotone_instance().valuation,
            {
                "type": "explicit",
                "caps": [1, 2, 2],
                "table": [{"alloc": a, "value": v} for a, v in explicit_rows],
            },
        ),
    ]
    for v, obj in cases:
        assert valuation_to_json(v) == obj
        assert list(valuation_to_json(v)) == list(obj)
        assert valuation_from_json(obj) == v
    with pytest.raises(InstanceFormatError, match=r"^\$\.valuation\.type: "):
        valuation_from_json({"type": "nope"})
