"""Valuation families, exact value and demand queries, and class checks.

Five concrete families are supported: per-item constant unit values
(bounded knapsack), per-item margin lists with or without the concavity
requirement, a global margin list over unit counts (symmetric), and fully
explicit tables over a capped domain.  All values are exact rationals.

The demand oracle returns, for per-unit prices and unit caps, an
allocation maximizing value minus price, ignoring any budget.  Ties are
broken toward the lexicographically smallest count vector so repeated
identical queries always return the same answer.  It compares scaled
integers: ``scaled_values`` gives each valuation's values times the lcm of
their denominators, and the prices are scaled by the lcm of theirs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt
from operator import mul
from typing import Callable

from .core import Alloc, MalformedValuation, Rat, refuse_over, scaled, unit_vector

# The desk-scale guard: ENUM_LIMIT bounds every capped domain that is
# enumerated or tabulated, and the allocation pairs classification compares.
ENUM_LIMIT = 10**6


def _as_rats(xs):
    return tuple(Rat(x) for x in xs)


@dataclass(frozen=True)
class BoundedKnapsack:
    """Additive valuation where every unit of item i is worth ``values[i]``."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _as_rats(self.values))
        if any(v < 0 for v in self.values):
            raise MalformedValuation("bounded-knapsack values must be >= 0")

    def check_units(self, units) -> None:
        if len(units) != len(self.values):
            raise MalformedValuation(
                f"{len(self.values)} item values for {len(units)} sellers"
            )

    def value(self, alloc: Alloc):
        if len(alloc) != len(self.values):
            raise ValueError("allocation length mismatch")
        if any(a < 0 for a in alloc):
            raise ValueError("allocation out of range")
        return sum((a * v for a, v in zip(alloc, self.values)), Rat(0))

    def margins(self, units):
        return [[v] * n for v, n in zip(self.values, units)]


@dataclass(frozen=True)
class Additive:
    """Additive valuation given by per-item marginal value lists.

    ``margins[i][k]`` is the extra value of the (k+1)-th unit of item i.
    Margins must be non-negative (which forces monotonicity) but need not
    decrease across units.
    """

    per_item: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "per_item", tuple(_as_rats(mm) for mm in self.per_item)
        )
        for i, mm in enumerate(self.per_item):
            if any(v < 0 for v in mm):
                raise MalformedValuation(f"item {i} has a negative margin")

    def check_units(self, units) -> None:
        if len(units) != len(self.per_item):
            raise MalformedValuation(
                f"{len(self.per_item)} margin lists for {len(units)} sellers"
            )
        for i, (mm, n) in enumerate(zip(self.per_item, units)):
            if len(mm) < n:
                raise MalformedValuation(
                    f"item {i} has {len(mm)} margins but {n} units"
                )

    def value(self, alloc: Alloc):
        if len(alloc) != len(self.per_item):
            raise ValueError("allocation length mismatch")
        total = Rat(0)
        for a, mm in zip(alloc, self.per_item):
            if not 0 <= a <= len(mm):
                raise ValueError("allocation out of range")
            total += sum(mm[:a], Rat(0))
        return total

    def margins(self, units):
        return [list(mm[:n]) for mm, n in zip(self.per_item, units)]


@dataclass(frozen=True)
class ConcaveAdditive(Additive):
    """Additive valuation whose per-item margins are non-increasing."""

    def __post_init__(self):
        super().__post_init__()
        for i, mm in enumerate(self.per_item):
            if any(x < y for x, y in zip(mm, mm[1:])):
                raise MalformedValuation(f"item {i} margins increase")


@dataclass(frozen=True)
class Symmetric:
    """Valuation depending only on the total unit count.

    An allocation with k units in total is worth the sum of the first k
    entries of the global margin list.
    """

    margins: tuple

    def __post_init__(self):
        object.__setattr__(self, "margins", _as_rats(self.margins))
        if any(v < 0 for v in self.margins):
            raise MalformedValuation("symmetric margins must be >= 0")

    def check_units(self, units) -> None:
        if len(self.margins) < sum(units):
            raise MalformedValuation(
                f"{len(self.margins)} margins for {sum(units)} total units"
            )

    def value(self, alloc: Alloc):
        if any(a < 0 for a in alloc):
            raise ValueError("allocation out of range")
        k = sum(alloc)
        if k > len(self.margins):
            raise ValueError("allocation out of range")
        return sum(self.margins[:k], Rat(0))


@dataclass(frozen=True)
class Explicit:
    """Valuation given by a total table over a capped domain.

    The table must cover every allocation with counts within ``caps``; no
    implicit completion is performed.  Zero allocation must map to zero and
    the table must be monotone under componentwise increase, both checked
    at construction.  The table then holds exactly the allocations within
    caps, so a lookup is the domain check.
    """

    caps: tuple
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        if any(c < 0 for c in self.caps):
            raise MalformedValuation("caps must be >= 0")
        size = domain_size(self.caps)
        entries = tuple(
            (tuple(int(a) for a in alloc), Rat(v)) for alloc, v in self.entries
        )
        object.__setattr__(self, "entries", tuple(sorted(entries)))
        table = dict(self.entries)
        if len(table) != len(self.entries):
            raise MalformedValuation("duplicate table entries")
        object.__setattr__(self, "_table", table)
        self._validate(table, size)

    def _validate(self, table, size):
        if len(table) != size:
            raise MalformedValuation(
                f"table has {len(table)} entries, domain has {size}"
            )
        m = len(self.caps)
        zero = (0,) * m
        for alloc, v in table.items():
            if len(alloc) != m or any(
                not 0 <= a <= c for a, c in zip(alloc, self.caps)
            ):
                raise MalformedValuation(f"table entry {alloc} outside the domain")
            if v < 0:
                raise MalformedValuation(f"negative value at {alloc}")
        if table.get(zero) != 0:
            raise MalformedValuation("empty allocation must have value 0")
        for alloc, v in table.items():
            for i in range(m):
                if alloc[i] < self.caps[i]:
                    up = alloc[:i] + (alloc[i] + 1,) + alloc[i + 1 :]
                    if table[up] < v:
                        raise MalformedValuation(
                            f"not monotone: V{up} < V{alloc}"
                        )

    @classmethod
    def from_mapping(cls, caps, mapping):
        return cls(tuple(caps), tuple(mapping.items()))

    def check_units(self, units) -> None:
        if len(units) != len(self.caps):
            raise MalformedValuation(
                f"{len(self.caps)} capped items for {len(units)} sellers"
            )
        for i, (c, n) in enumerate(zip(self.caps, units)):
            if c < n:
                raise MalformedValuation(
                    f"item {i} capped at {c} but seller offers {n} units"
                )

    def value(self, alloc: Alloc):
        try:
            return self._table[tuple(alloc)]
        except KeyError:
            raise ValueError("allocation out of range") from None


ADDITIVE_FAMILIES = (BoundedKnapsack, Additive)  # ConcaveAdditive subclasses Additive


def domain(caps):
    """All allocations within caps, in lexicographic order.

    Raises SearchSpaceTooLarge, before yielding any, when there are more
    than ENUM_LIMIT.
    """
    domain_size(caps)
    return itertools.product(*(range(c + 1) for c in caps))


def domain_size(caps) -> int:
    """The number of allocations within caps; SearchSpaceTooLarge past ENUM_LIMIT."""
    size = 1
    for c in caps:
        size *= c + 1
        if size > ENUM_LIMIT and size >= 10**100:
            break  # refuse_over writes no larger count in full
    refuse_over(size, ENUM_LIMIT, "{count} allocations exceed the enumeration guard of {limit}")
    return size


def check_classifiable(caps) -> None:
    """SearchSpaceTooLarge unless classification over caps stays within
    ENUM_LIMIT allocations and ENUM_LIMIT allocation pairs."""
    # size * size > ENUM_LIMIT exactly when size > isqrt(ENUM_LIMIT).
    refuse_over(
        domain_size(caps),
        isqrt(ENUM_LIMIT),
        "classification over {count}^2 allocation pairs exceeds the guard",
    )


def _check_caps(valuation, caps) -> None:
    try:
        valuation.check_units(caps)
    except MalformedValuation as exc:
        raise ValueError(f"caps do not fit the valuation: {exc}") from exc
    if any(c < 0 for c in caps):
        raise ValueError("caps must be >= 0")


# The valuation memo: one results table, for the most recent valuation
# only.  The owner is held, so its identity cannot be reused, and it is
# matched by identity, never hashed per call.  Reading the table for another
# valuation drops the previous table.  Owner and table are read as one tuple
# in a single load, so a thread that races a switch of owner still gets its
# own valuation's table; a race can cost memoised results, never mix them.
MEMO_LIMIT = 2**16  # entries per table; a full table is cleared in place
_memo = (None, {})


class _OwnerTable:
    """Maps the memo's owner, and nothing else, to its live table.

    For readers that watch the table grow (bench/tracing.py counts a demand
    call that does not grow it as a hit).  A view of ``_memo`` that matches
    by identity, so it never hashes a valuation and never goes stale.
    """

    def get(self, valuation, default=None):
        owner, table = _memo
        return table if valuation is not None and owner is valuation else default


_demand_caches = _OwnerTable()


def _memo_table(valuation) -> dict:
    global _memo
    owner, table = _memo
    if owner is not valuation:
        table = {}
        _memo = (valuation, table)
    return table


def recall(valuation, key):
    """The memoised result for ``key`` under ``valuation``, or None.

    Keys are the exact inputs a computation reads besides the valuation,
    led by the caller's own tag.  The valuation is matched by identity.
    """
    return _memo_table(valuation).get(key)


def remember(valuation, key, result):
    """Store ``result`` for ``key`` under ``valuation`` and return it.

    Clears the table first when it already holds MEMO_LIMIT entries, so
    it never holds more.
    """
    table = _memo_table(valuation)
    if len(table) >= MEMO_LIMIT:
        table.clear()
    table[key] = result
    return result


@dataclass(frozen=True)
class ScaledValues:
    """A valuation's values as integers over one scale.

    ``scale`` is the lcm of the denominators of every value the valuation
    holds, and ``value(alloc)`` is the integer ``valuation.value(alloc) *
    scale`` for an allocation within the valuation's caps.  For the additive
    families ``margins(units)`` is ``valuation.margins(units)`` scaled the
    same way; for the others it is None.
    """

    scale: int
    value: Callable
    margins: Callable | None = None


def scaled_values(valuation) -> ScaledValues:
    """The valuation's ``ScaledValues``, built on first use and memoised
    under ``("scaled_values",)`` (see ``recall``)."""
    key = ("scaled_values",)
    view = recall(valuation, key)
    if view is None:
        # Use the view this call built: a full table or another valuation
        # can drop it from the memo before the caller reads it.
        view = remember(valuation, key, _scale_values(valuation))
    return view


def _scale_values(valuation) -> ScaledValues:
    if isinstance(valuation, BoundedKnapsack):
        scale, ivalues = scaled(valuation.values)
        return ScaledValues(
            scale,
            lambda alloc: sum(map(mul, alloc, ivalues)),
            lambda units: [[v] * n for v, n in zip(ivalues, units)],
        )
    if isinstance(valuation, Additive):
        scale, flat = scaled(x for mm in valuation.per_item for x in mm)
        rest = iter(flat)
        per_item = tuple(tuple(itertools.islice(rest, len(mm))) for mm in valuation.per_item)
        prefixes = tuple(tuple(itertools.accumulate(mm, initial=0)) for mm in per_item)
        return ScaledValues(
            scale,
            lambda alloc: sum(p[a] for p, a in zip(prefixes, alloc)),
            lambda units: [mm[:n] for mm, n in zip(per_item, units)],
        )
    if isinstance(valuation, Symmetric):
        scale, imargins = scaled(valuation.margins)
        prefix = tuple(itertools.accumulate(imargins, initial=0))
        return ScaledValues(scale, lambda alloc: prefix[sum(alloc)])
    table = valuation._table
    scale, ivalues = scaled(table.values())
    itable = dict(zip(table, ivalues))
    return ScaledValues(scale, itable.__getitem__)


def demand(valuation, prices, caps) -> Alloc:
    """Exact maximizer of value(A) minus sum of a_i * prices[i] within caps.

    Deterministic: among maximizers, returns the lexicographically smallest
    count vector.  Additive families use a closed per-item form; other
    families enumerate the capped domain (guarded).  Both compare the
    objective scaled by S_V * S_p as integers, where S_V is the valuation's
    ``scaled_values`` scale and S_p the lcm of the prices' denominators.
    Results are memoised under ``("demand", prices, caps)`` for the most
    recent valuation only (matched by identity), in a table of at most
    MEMO_LIMIT entries; see ``recall``.
    """
    prices = _as_rats(prices)
    caps = tuple(int(c) for c in caps)
    if len(prices) != len(caps):
        raise ValueError("prices/caps length mismatch")
    _check_caps(valuation, caps)
    key = ("demand", prices, caps)
    hit = recall(valuation, key)
    if hit is not None:
        return hit
    view = scaled_values(valuation)
    price_scale, iprices = scaled(prices)
    # Objective times S_V * S_p: value(A) * S_V * S_p - S_V * sum(a_i * p_i * S_p).
    iprices = [p * view.scale for p in iprices]
    if view.margins is not None:
        result = tuple(
            _best_prefix(mm, p, price_scale)
            for mm, p in zip(view.margins(caps), iprices)
        )
    else:
        best, best_obj, ivalue = None, None, view.value
        for alloc in domain(caps):
            obj = ivalue(alloc) * price_scale - sum(map(mul, alloc, iprices))
            if best is None or obj > best_obj:
                best, best_obj = alloc, obj
        result = best
    return remember(valuation, key, result)


def _best_prefix(margins, price, price_scale) -> int:
    # Smallest prefix length maximizing the prefix sum of (margin - price);
    # units with margin == price are skipped, matching the lexicographic
    # rule.  Margins are times S_V and the price times S_V * S_p, so the
    # running sum is the objective times S_V * S_p.
    best_a, best_obj, run = 0, 0, 0
    for a, v in enumerate(margins, start=1):
        run += v * price_scale - price
        if run > best_obj:
            best_a, best_obj = a, run
    return best_a


def classify(valuation, caps) -> frozenset:
    """Labels from the class hierarchy that the valuation satisfies on caps.

    Explicit tables are checked by exhaustive quantifier enumeration, over
    at most ENUM_LIMIT allocation pairs (``check_classifiable``);
    parametric families are checked structurally.
    """
    caps = tuple(int(c) for c in caps)
    _check_caps(valuation, caps)
    if isinstance(valuation, ADDITIVE_FAMILIES):
        return _classify_margins(valuation.margins(caps))
    if isinstance(valuation, Symmetric):
        return _classify_symmetric(valuation.margins, caps)
    return _classify_explicit(valuation, caps)


def _nonincreasing(xs) -> bool:
    return all(x >= y for x, y in zip(xs, xs[1:]))


def _classify_margins(margs) -> frozenset:
    # margs: per-item margin lists already truncated to the caps.
    eff = [mm for mm in margs if mm]
    labels = {"additive", "submodular", "subadditive"}
    if all(_nonincreasing(mm) for mm in eff):
        labels |= {"concave-additive", "diminishing-return"}
    if all(len(set(mm)) <= 1 for mm in eff):
        labels |= {"bounded-knapsack", "concave-additive", "diminishing-return"}
    flat = [v for mm in eff for v in mm]
    if len(eff) <= 1 or len(set(flat)) <= 1:
        labels.add("symmetric")
    return frozenset(labels)


def _classify_symmetric(margins, caps) -> frozenset:
    total = sum(caps)
    reach = list(margins[:total])
    if sum(1 for c in caps if c > 0) <= 1:
        # With one item in reach the valuation is that item's margin list.
        return _classify_margins([reach])
    labels = {"symmetric"}
    if _nonincreasing(reach):
        labels |= {"diminishing-return", "submodular"}
    if len(set(reach)) <= 1:
        labels |= {
            "additive",
            "bounded-knapsack",
            "concave-additive",
            "diminishing-return",
            "submodular",
        }
    # Sufficient scalar test; caps may make some (x, y) splits unrealizable,
    # in which case this can under-label exotic cases.
    g = [Rat(0)]
    for v in reach:
        g.append(g[-1] + v)
    if all(
        g[min(x + y, total)] <= g[x] + g[y]
        for x in range(1, total + 1)
        for y in range(x, total + 1)
    ):
        labels.add("subadditive")
    return frozenset(labels)


def _classify_explicit(valuation, caps) -> frozenset:
    check_classifiable(caps)
    allocs = list(domain(caps))
    val = {a: valuation.value(a) for a in allocs}
    m = len(caps)
    labels = set()

    by_total = {}
    for a in allocs:
        by_total.setdefault(sum(a), set()).add(val[a])
    if all(len(vs) == 1 for vs in by_total.values()):
        labels.add("symmetric")

    chain_margins = [
        [
            val[unit_vector(m, i, k)] - val[unit_vector(m, i, k - 1)]
            for k in range(1, caps[i] + 1)
        ]
        for i in range(m)
    ]
    additive = all(
        val[a]
        == sum((sum(chain_margins[i][: a[i]], Rat(0)) for i in range(m)), Rat(0))
        for a in allocs
    )
    if additive:
        labels.add("additive")
        if all(_nonincreasing(mm) for mm in chain_margins):
            labels.add("concave-additive")
        if all(len(set(mm)) <= 1 for mm in chain_margins):
            labels.add("bounded-knapsack")

    def bump(a, i):
        if a[i] >= caps[i]:
            return a
        return a[:i] + (a[i] + 1,) + a[i + 1 :]

    # One-step characterizations on the product-of-chains lattice.
    diminishing = all(
        val[bump(a, j)] - val[a] >= val[bump(b, j)] - val[b]
        for a in allocs
        for k in range(m)
        for b in (bump(a, k),)
        if b != a
        for j in range(m)
    )
    if diminishing:
        labels.add("diminishing-return")
    submodular = all(
        val[bump(a, i)] + val[bump(a, j)] >= val[bump(bump(a, i), j)] + val[a]
        for a in allocs
        for i in range(m)
        for j in range(i + 1, m)
        if bump(a, i) != a and bump(a, j) != a
    )
    if submodular:
        labels.add("submodular")
    subadditive = all(
        val[tuple(map(max, a, b))] <= val[a] + val[b]
        for a, b in itertools.combinations(allocs, 2)
    )
    if subadditive:
        labels.add("subadditive")
    return frozenset(labels)
