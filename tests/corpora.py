"""Seeded instance corpora shared across the test suite.

Each corpus is deterministic (seeds are fixed offsets) and cached for the
test session.  The sampling mechanism's DST corpus restricts to three
sellers plus two larger spot instances: its deviation sweep costs
2^m scenarios x sellers x ~80-bid grids x full mechanism reruns, which
grows steeply in m, while every other criterion is cheap per instance.
"""

import random
from functools import lru_cache

from procure.core import Rat, Seller, Instance
from procure.valuations import Additive, ConcaveAdditive, Explicit, domain
from procure.instances import (
    _draw_market,
    _rand_cost,
    _rand_margin,
    gen_bounded_knapsack,
    gen_concave_additive,
    gen_explicit_subadditive,
    gen_symmetric,
)

from helpers import explicit_from_function

CONCAVE_SIZE = 500
M_ONE_SIZE = 200
EXPLICIT_SUBADD_SIZE = 100
SYMMETRIC_SIZE = 120
# Prefix of each DST corpus that checks Lottery.cuts: a rule's grid is its
# owner's cuts, and a pair with no cuts is swept at only two points.
DECLARATION_WINDOW = 20


def gen_additive(seed, max_sellers=5, max_total_units=12) -> Instance:
    """Additive margins with no concavity requirement."""
    rng = random.Random(seed)
    while True:
        sellers, budget = _draw_market(rng, max_sellers, max_total_units)
        margins = tuple(
            tuple(_rand_margin(rng) for _ in range(s.units)) for s in sellers
        )
        if any(v > 0 for mm in margins for v in mm):
            return Instance(sellers, budget, Additive(margins))


def gen_explicit_monotone(seed, max_sellers=3, max_cap=2) -> Instance:
    """Random monotone explicit table; generally neither additive nor concave."""
    rng = random.Random(seed)
    m = rng.randint(2, max_sellers)
    caps = tuple(rng.randint(1, max_cap) for _ in range(m))
    table = {}
    for alloc in domain(caps):
        if not any(alloc):
            table[alloc] = Rat(0)
            continue
        floor = Rat(0)
        for i in range(m):
            if alloc[i] > 0:
                prev = alloc[:i] + (alloc[i] - 1,) + alloc[i + 1 :]
                if table[prev] > floor:
                    floor = table[prev]
        table[alloc] = floor + Rat(rng.randint(0, 10), 2)
    budget = Rat(rng.randint(8, 40))
    sellers = tuple(Seller(c, _rand_cost(rng, budget)) for c in caps)
    return Instance(sellers, budget, Explicit.from_mapping(caps, table))


@lru_cache(maxsize=None)
def concave_corpus():
    return tuple(gen_concave_additive(1000 + i) for i in range(CONCAVE_SIZE))


@lru_cache(maxsize=None)
def symmetric_corpus():
    return tuple(gen_symmetric(3000 + i) for i in range(SYMMETRIC_SIZE))


@lru_cache(maxsize=None)
def m_one_corpus():
    """Mixed corpus for the single-item mechanism: concave, bounded-knapsack,
    symmetric, and non-concave (explicit monotone) valuations."""
    out = [gen_concave_additive(5000 + i) for i in range(80)]
    out += [gen_bounded_knapsack(5200 + i) for i in range(40)]
    out += [gen_symmetric(5400 + i) for i in range(40)]
    out += [gen_explicit_monotone(5600 + i) for i in range(M_ONE_SIZE - 160)]
    return tuple(out)


def _big_subadditive(seed, caps, budget):
    """Capped-additive table over a large domain; sub-additive by
    construction (min of an additive function and a ceiling), since the
    classifier's pairwise guard rules out validating domains this big."""
    rng = random.Random(seed)
    per_item = [
        sorted((Rat(rng.randint(1, 12)) for _ in range(c)), reverse=True)
        for c in caps
    ]
    total = sum((sum(mm, Rat(0)) for mm in per_item), Rat(0))
    ceiling = total * Rat(rng.randint(5, 8), 10)

    def value(alloc):
        raw = sum(
            (sum(per_item[i][: alloc[i]], Rat(0)) for i in range(len(caps))),
            Rat(0),
        )
        return min(raw, ceiling)

    valuation = explicit_from_function(caps, value)
    sellers = tuple(
        Seller(c, Rat(rng.randint(1, int(budget)), rng.choice((1, 2))))
        for c in caps
    )
    return Instance(sellers, Rat(budget), valuation)


@lru_cache(maxsize=None)
def explicit_subadditive_corpus():
    """Classifier-validated small tables plus construction-guaranteed large
    ones (domains up to 10^4 allocations)."""
    out = [
        gen_explicit_subadditive(7000 + i)
        for i in range(EXPLICIT_SUBADD_SIZE - 8)
    ]
    out += [
        gen_explicit_subadditive(7500 + i, max_sellers=4, max_cap=3)
        for i in range(5)
    ]
    out.append(_big_subadditive(81, (9, 9, 9, 9), 30))
    out.append(_big_subadditive(82, (20, 20, 20), 25))
    out.append(_big_subadditive(83, (99, 99), 40))
    return tuple(out)


@lru_cache(maxsize=None)
def small_m_concave():
    return tuple(inst for inst in concave_corpus() if inst.m <= 3)


@lru_cache(maxsize=None)
def dst_corpora():
    """Per-mechanism DST corpora (criterion: every scenario, every seller)."""
    concave = concave_corpus()
    wide = tuple(inst for inst in concave if inst.m >= 4)
    return {
        "m_add": concave,
        "m_sym": symmetric_corpus(),
        "m_one": m_one_corpus(),
        "m_rand": small_m_concave()
        + explicit_subadditive_corpus()[:EXPLICIT_SUBADD_SIZE - 8]
        + wide[:2],
        "m_sub": small_m_concave()[:40]
        + explicit_subadditive_corpus()[:20],
    }


def first_price_probe():
    """Criterion 8's sensitivity probe: two sellers on which the pay-as-bid
    fixture ``m_add_firstprice`` fails ``dst``."""
    return Instance(
        (Seller(2, Rat(2)), Seller(1, Rat(3))),
        Rat(10),
        ConcaveAdditive(((Rat(6), Rat(4)), (Rat(5),))),
    )


def two_units(top):
    """Seller 0 holds a unit worth ``top``, seller 1 a unit worth 1 that it
    offers at bid 0; B = 10 and phi = 1/128 exactly."""
    return Instance(
        (Seller(1, Rat(1)), Seller(1, Rat(0))),
        Rat(10),
        ConcaveAdditive(((Rat(top),), (Rat(1),))),
    )


def greedy_at_scale(n):
    """Two sellers with margins n down to 1, costs 3 and 5, and B = 10n.  At
    n = 2,000, seller 0's truthful greedy payment has a 4,526-digit
    denominator, past the 4,300 digits ``str`` writes of an ``int``."""
    margins = tuple(Rat(k) for k in range(n, 0, -1))
    return Instance(
        (Seller(n, Rat(3)), Seller(n, Rat(5))), Rat(10 * n), ConcaveAdditive((margins, margins))
    )


@lru_cache(maxsize=None)
def calibration_corpus():
    """``m_rand`` instances where the calibrated target decides rounds.

    In each, one seller's full supply is worth more than 1/phi times the
    others' (1/phi is at most 128 here), so a round that posts only the
    others fails the bound test while that seller is sampled.  The target
    then rejects the round when that seller's bid is affordable, and is 0,
    accepting it, when the seller bids over B.  ``two_units`` 127 and 128
    sit at the bound's edge, where the test still passes.
    """
    out = [two_units(top) for top in (127, 128, 129, 130, 1000)]
    out.append(Instance(
        (Seller(2, Rat(3)), Seller(1, Rat(2)), Seller(2, Rat(1))),
        Rat(10),
        ConcaveAdditive(((Rat(600), Rat(400)), (Rat(3),), (Rat(2), Rat(1)))),
    ))
    out.append(Instance(
        (Seller(1, Rat(1, 2)), Seller(1, Rat(4)), Seller(1, Rat(5, 2))),
        Rat(6),
        ConcaveAdditive(((Rat(1),), (Rat(400),), (Rat(3, 2),))),
    ))
    out.append(Instance(
        (Seller(2, Rat(2)), Seller(1, Rat(1)), Seller(2, Rat(3))),
        Rat(8),
        ConcaveAdditive(((Rat(2), Rat(2)), (Rat(1),), (Rat(900), Rat(50)))),
    ))
    return tuple(out)


def late_round():
    """An ``m_rand`` instance whose mask-0b1 branch accepts round 6, its
    last: with seller 0 sampled, the target is its unit's 1,000, so a round
    needs a value of phi(7) * 1000 = 8.29, and ``a_max`` over sellers 1 and
    2 finds 5 in rounds 1 to 5 and 10 in round 6.  Seller 1, with one unit,
    is paid B/6 = 5/3, so its outcome moves with posted counts past its
    own supply."""
    return Instance(
        (Seller(1, Rat(1)), Seller(1, Rat(1, 10)), Seller(5, Rat(1, 10))),
        Rat(10),
        ConcaveAdditive(((Rat(1000),), (Rat(5),), (Rat(1),) * 5)),
    )


@lru_cache(maxsize=None)
def budget_corpora():
    """Per-mechanism corpora for expected-payment checks (no deviations)."""
    small_tables = explicit_subadditive_corpus()[: EXPLICIT_SUBADD_SIZE - 8]
    return {
        "m_add": concave_corpus(),
        "m_sym": symmetric_corpus(),
        "m_one": m_one_corpus(),
        "m_rand": concave_corpus() + small_tables,
        "m_sub": concave_corpus() + small_tables,
    }


def greedy_nonmonotone_instance(eps=None) -> Instance:
    """Three-seller diminishing-returns instance where the marginal
    value-rate greedy is not monotone: when seller 2 lowers its bid from
    1+eps to 1-eps it sells one unit instead of two."""
    e = Rat(1, 100) if eps is None else Rat(eps)
    table = {
        (0, 0, 0): Rat(0),
        (1, 0, 0): Rat(10),
        (0, 1, 0): 10 + e,
        (0, 0, 1): 10 - e,
        (1, 1, 0): 15 + 5 * e,
        (1, 0, 1): 15 - e,
        (0, 2, 0): 15 - 4 * e,
        (0, 1, 1): 15 + 6 * e,
        (0, 0, 2): Rat(15),
        (1, 2, 0): 16 + 6 * e,
        (1, 1, 1): 16 + 4 * e,
        (1, 0, 2): Rat(16),
        (0, 2, 1): 16 + 5 * e,
        (0, 1, 2): 16 + 7 * e,
        (0, 2, 2): 16 + 7 * e,
        (1, 2, 1): 16 + 7 * e,
        (1, 1, 2): 16 + 7 * e,
        (1, 2, 2): 16 + 7 * e,
    }
    caps = (1, 2, 2)
    sellers = (
        Seller(1, Rat(1)),
        Seller(2, 1 + e),
        Seller(2, Rat(1)),
    )
    return Instance(sellers, 3 + 2 * e, Explicit.from_mapping(caps, table))
