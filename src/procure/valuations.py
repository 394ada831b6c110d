"""Valuation families, exact value and demand queries, and class checks.

Five concrete families are supported: per-item constant unit values
(bounded knapsack), per-item margin lists with or without the concavity
requirement, a global margin list over unit counts (symmetric), and fully
explicit tables over a capped domain.  All values are exact rationals.

The demand oracle returns, for per-unit prices and unit caps, an
allocation maximizing value minus price, ignoring any budget.  Ties are
broken toward the lexicographically smallest count vector so repeated
identical queries always return the same answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .core import (
    Alloc,
    MalformedValuation,
    Rat,
    SearchSpaceTooLarge,
    format_rat,
    parse_rat,
)

# Desk-scale enumeration guards; see the classifier notes for the pair guard.
DEMAND_ENUM_LIMIT = 10**6
CLASSIFY_PAIR_LIMIT = 10**6
TABLE_LIMIT = 10**6


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
    at construction.
    """

    caps: tuple
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        if any(c < 0 for c in self.caps):
            raise MalformedValuation("caps must be >= 0")
        size = domain_size(self.caps)
        if size > TABLE_LIMIT:
            raise SearchSpaceTooLarge(f"explicit table would need {size} entries")
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
        if len(alloc) != len(self.caps) or any(
            not 0 <= a <= c for a, c in zip(alloc, self.caps)
        ):
            raise ValueError("allocation out of range")
        return self._table[tuple(alloc)]


ADDITIVE_FAMILIES = (BoundedKnapsack, Additive)  # ConcaveAdditive subclasses Additive


def domain(caps):
    """All allocations within caps, in lexicographic order."""
    return itertools.product(*(range(c + 1) for c in caps))


def domain_size(caps) -> int:
    return prod(c + 1 for c in caps)


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

    Keys are the exact inputs a computation reads besides the valuation;
    each caller leads its key with its own tag, except ``demand``, whose
    keys are ``(prices, caps)``.  The valuation is matched by identity.
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


def demand(valuation, prices, caps) -> Alloc:
    """Exact maximizer of value(A) minus sum of a_i * prices[i] within caps.

    Deterministic: among maximizers, returns the lexicographically smallest
    count vector.  Additive families use a closed per-item form; other
    families enumerate the capped domain (guarded).  Results are memoised
    under ``(prices, caps)`` for the most recent valuation only (matched by
    identity), in a table of at most MEMO_LIMIT entries; see ``recall``.
    """
    prices = _as_rats(prices)
    caps = tuple(int(c) for c in caps)
    if len(prices) != len(caps):
        raise ValueError("prices/caps length mismatch")
    _check_caps(valuation, caps)
    key = (prices, caps)
    hit = recall(valuation, key)
    if hit is not None:
        return hit
    if isinstance(valuation, ADDITIVE_FAMILIES):
        margs = valuation.margins(caps)
        result = tuple(
            _best_prefix(mm, p) for mm, p in zip(margs, prices)
        )
    else:
        result = _demand_enum(valuation, prices, caps)
    return remember(valuation, key, result)


def _best_prefix(margins, price) -> int:
    # Smallest prefix length maximizing the prefix sum of (margin - price);
    # units with margin == price are skipped, matching the lexicographic rule.
    best_a, best_obj, run = 0, Rat(0), Rat(0)
    for a, v in enumerate(margins, start=1):
        run += v - price
        if run > best_obj:
            best_a, best_obj = a, run
    return best_a


def _demand_enum(valuation, prices, caps) -> Alloc:
    size = domain_size(caps)
    if size > DEMAND_ENUM_LIMIT:
        raise SearchSpaceTooLarge(
            f"demand enumeration over {size} allocations exceeds the guard"
        )
    best, best_obj = None, None
    for alloc in domain(caps):
        obj = valuation.value(alloc) - sum(
            (a * p for a, p in zip(alloc, prices)), Rat(0)
        )
        if best is None or obj > best_obj:
            best, best_obj = alloc, obj
    return best


def classify(valuation, caps) -> frozenset:
    """Labels from the class hierarchy that the valuation satisfies on caps.

    Explicit tables are checked by exhaustive quantifier enumeration
    (two-allocation quantifiers are guarded by CLASSIFY_PAIR_LIMIT pairs);
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
    size = domain_size(caps)
    if size * size > CLASSIFY_PAIR_LIMIT:
        raise SearchSpaceTooLarge(
            f"classification over {size}^2 allocation pairs exceeds the guard"
        )
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
            val[tuple(k if j == i else 0 for j in range(m))]
            - val[tuple(k - 1 if j == i else 0 for j in range(m))]
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
    subadditive = True
    for x in range(len(allocs)):
        a = allocs[x]
        for y in range(x + 1, len(allocs)):
            b = allocs[y]
            jo = tuple(max(p, q) for p, q in zip(a, b))
            if val[jo] > val[a] + val[b]:
                subadditive = False
                break
        if not subadditive:
            break
    if subadditive:
        labels.add("subadditive")
    return frozenset(labels)


def valuation_to_json(valuation) -> dict:
    """JSON form of a valuation; rationals serialize as strings."""
    if isinstance(valuation, BoundedKnapsack):
        return {
            "type": "bounded_knapsack",
            "values": [format_rat(v) for v in valuation.values],
        }
    if isinstance(valuation, Additive):
        concave = isinstance(valuation, ConcaveAdditive)
        return {
            "type": "concave_additive" if concave else "additive",
            "margins": [[format_rat(v) for v in mm] for mm in valuation.per_item],
        }
    if isinstance(valuation, Symmetric):
        return {
            "type": "symmetric",
            "margins": [format_rat(v) for v in valuation.margins],
        }
    if isinstance(valuation, Explicit):
        return {
            "type": "explicit",
            "caps": list(valuation.caps),
            "table": [
                {"alloc": list(a), "value": format_rat(v)}
                for a, v in valuation.entries
            ],
        }
    raise TypeError(f"unknown valuation type {type(valuation).__name__}")


def _json_array(x) -> list:
    # A JSON string is iterable too, but never stands for a list.
    if not isinstance(x, list):
        raise TypeError(f"expected an array, got {type(x).__name__}")
    return x


def _json_rats(xs) -> tuple:
    return tuple(parse_rat(v) for v in _json_array(xs))


def _json_counts(xs) -> tuple:
    # bool is an int subclass, but JSON true/false is never a count.
    if any(not isinstance(c, int) or isinstance(c, bool) for c in _json_array(xs)):
        raise TypeError(f"expected integer counts, got {xs!r}")
    return tuple(xs)


def valuation_from_json(data: dict):
    try:
        kind = data["type"]
        if kind == "bounded_knapsack":
            return BoundedKnapsack(_json_rats(data["values"]))
        if kind in ("concave_additive", "additive"):
            family = ConcaveAdditive if kind == "concave_additive" else Additive
            return family(tuple(_json_rats(mm) for mm in _json_array(data["margins"])))
        if kind == "symmetric":
            return Symmetric(_json_rats(data["margins"]))
        if kind == "explicit":
            return Explicit(
                _json_counts(data["caps"]),
                tuple(
                    (_json_counts(row["alloc"]), parse_rat(row["value"]))
                    for row in _json_array(data["table"])
                ),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedValuation(f"bad valuation JSON: {exc}") from exc
    raise MalformedValuation(f"unknown valuation type {kind!r}")
