"""Greedy value-rate lottery mechanism for concave additive valuations.

The greedy branch ranks (seller i, unit j) pairs ascending by (rho, i, j),
where rho = bid / marginal value (zero bids first), buys the longest prefix
whose last pair still satisfies the proportional budget-share inequality
bid * prefix <= B * value, and pays each bought unit its exact critical
bid.  A three-way lottery mixes this branch with buying one unit from the
highest-margin seller at the full budget, and buying nothing.

rho and the value prefix both grow along the ranking, so a pair is
bought iff its own inequality holds.  A bought unit of value v, whose
seller's units up to it are worth s, has critical bid
v * min over alpha of max(rho_alpha, B / (s + W_alpha)), where rho_alpha
is the bid/value of the alpha-th rival pair (rho_0 = 0, never decreasing)
and W_alpha is the value of the first alpha rival pairs.  The first term
rises with alpha and the second falls, so the minimum sits at the first
alpha where rho_alpha * (s + W_alpha) >= B or just before it, and a
bisection finds it: one ranking prices all of a seller's units in
O(n + units * log n) integer operations and one rational per unit.  The
critical bids do not read the seller's own bid, so its outcome changes
only where that bid crosses one of them: they are its greedy breakpoints.

Every comparison runs in exact integers.  With S_v the valuation's own
``scale`` (see ``valuations``) and S_b the ``core.scaled`` scale of the budget
and bids, a pair carries ivalue = value * S_v and ibid = bid * S_b, and
the ranking carries ibudget = B * S_b.  S_v covers every value the
valuation holds, offered or not, and any common scale gives the same
result: ranks, the bought rule and thresholds depend on the values only
through their ratios, from which a common factor cancels.  Then,
multiplying through by S_v * S_b:

* the bought rule is ibid * iprefix <= ibudget * ivalue, with iprefix the
  scaled value prefix;
* the bisection tests ibid_alpha * (is + iW_alpha) >= ibudget * ivalue_alpha;
* the min picks rho_alpha over B / (s + W_alpha) iff
  ibid_alpha * (is + iW_alpha) < ibudget * ivalue_alpha; with num / den the
  picked one of ibid_alpha / ivalue_alpha and ibudget / (is + iW_alpha),
  the threshold leaves as the one rational ivalue * num / (den * S_b).

The rank key is ibid * Q**2 // ivalue, with Q the largest ivalue.  rho is
ibid / ivalue times the constant S_v / S_b, so this ratio orders the pairs
as rho does.  Two different ratios a/b and c/d with b, d <= Q differ by at
least 1/(b*d) >= 1/Q**2, so at scale Q**2 they lie at least 1 apart and
their floors keep their order; equal ratios get equal keys, and ties fall
to (seller, unit).  A zero bid gets key 0 and a positive one at least Q.

A seller's payment is the sum of its bought units' thresholds n_k / (d_k *
S_b), taken exactly in integers: with L the lcm of the d_k, it is the one
rational (sum of n_k * L / d_k) / (L * S_b).  A canonical rational has one
form, so this is bit for bit the sum of the thresholds as rationals.

Each bid profile is ranked once.  A one-entry memo holds the most recent
instance, matched by identity and held so that its identity cannot be
reused, with its skeleton (Q**2, the positive-value (seller, unit, ivalue)
triples and each seller's count of them), and that instance's most recent
ranking, matched by equal checked bids.  A ranking is a tuple of pairs
that keeps what it computes: the bought units, and per seller the longest
prefix of integer thresholds (n, d) asked for so far.  So greedy_allocate,
greedy_payments, greedy_sweep, threshold and greedy_breakpoints on one
profile share one sort and one bisection per unit, and a sweep that
changes one seller's bid keeps the skeleton.  greedy_sweep prices only
the seller it is asked about, so a sweep that reads one seller's outcome
computes no other seller's thresholds.  The memo entry, the bought units
and each prefix are each replaced as one whole tuple in a single store,
never changed in place, so a thread racing another reads a complete entry
of some instance it matched by identity; a race can cost a rebuild, never
mix two results.
Every public function is still called as before, and ``ranked_pairs``
still checks the bids and the valuation class on every call.

A seller's sweep moves only that seller's bid, so greedy_sweep ranks the
profile it is given once and walks every bid of the sweep into that
ranking.  The seller's critical bids do not read its own bid, so the
thresholds kept on the ranking, and their sums, hold at every own bid; a
sweep sums them once per bought count.  Each point places the own bid
b = p / q into the rivals' order (their (ibid, ivalue, seller) in rank
order at the ranking's S_b) in exact integers: own unit j goes before
rival r iff p * S_b * ivalue_r < q * ibid_r * ivalue_j, and at equality
iff the seller's index is the lower one, as the rank key's tie rule
orders them.  The bought rule then runs along that merged order, a rival
passing iff ibid_r * iprefix <= ibudget * ivalue_r and own unit j iff
p * S_b * iprefix <= q * ibudget * ivalue_j; the seller sells its pairs up
to the last passing rank and is paid ``_payment`` of the ranking at that
count.  A sweep keeps nothing once it returns.  ``run`` never reads it:
greedy_payments, ranked_pairs and _bought are the reference path, and the
tests check greedy_sweep against them.

The symmetric-valuation variant is the same greedy on the instance with
every unit worth 1: it ranks units by bid, ties by (seller, unit), buys the
longest prefix whose last unit has bid * rank <= budget, and pays the same
closed-form thresholds, so its sweep is greedy_sweep on that instance.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .core import (
    Instance,
    NoThreshold,
    Outcome,
    Rat,
    WrongValuationClass,
    checked_bids,
    scaled,
    unit_vector,
)
from .valuations import BoundedKnapsack, ConcaveAdditive, Symmetric


class RankedPair(NamedTuple):
    """One unit of one seller in the greedy ranking; tuple order is rank order."""

    key: int  # ibid * Q**2 // ivalue, ordered as bid / value
    seller: int  # 0-based
    unit: int  # 1-based
    ivalue: int  # marginal value of this unit, times S_v (the valuation's scale)
    ibid: int  # the seller's announced per-unit cost, times S_b


class Ranking(tuple):
    """The ranked pairs, with ibudget = B * S_b, S_b (``bid_scale``) and each
    seller's count of positive-value units (``positive``).

    A tuple, so its pairs cannot change and the memo can hand one ranking
    to every caller and thread.  Two results read nothing else and are kept
    on it once computed: ``bought`` (None until then) and ``thresholds``,
    per seller the longest prefix of its units' critical bids computed so
    far.  Each is replaced as one whole tuple, never extended in place, so
    a reader racing a writer sees the old value or the new one.
    """

    def __new__(cls, pairs, ibudget: int, bid_scale: int, positive: tuple):
        self = super().__new__(cls, pairs)
        self.ibudget = ibudget
        self.bid_scale = bid_scale
        self.positive = positive
        self.bought = None
        self.thresholds = {}
        return self

    def __reduce__(self):
        # A copy or pickle keeps the pairs and scales and recomputes the rest.
        return Ranking, (tuple(self), self.ibudget, self.bid_scale, self.positive)


def additive_reason(inst: Instance) -> str | None:
    """None if the greedy lottery applies to the valuation, else why not."""
    if isinstance(inst.valuation, (BoundedKnapsack, ConcaveAdditive)):
        return None
    return "requires a concave additive or bounded-knapsack valuation"


def symmetric_reason(inst: Instance) -> str | None:
    """None if the symmetric lottery applies to the valuation, else why not."""
    if isinstance(inst.valuation, Symmetric):
        return None
    return "requires a symmetric valuation"


def _require(reason: str | None) -> None:
    if reason is not None:
        raise WrongValuationClass(f"mechanism {reason}")


# The one-entry ranking memo (see the module docstring): the instance, its
# skeleton, the checked bids and their ranking, read and replaced as one tuple.
_memo = (None, None, None, None)


def _skeleton(inst: Instance):
    """What the ranking reads of the instance besides the bids: Q**2, the
    positive-value (seller, unit, ivalue) triples, and each seller's count
    of them.  Zero margins form a suffix of each list in the additive
    classes, so dropping them keeps every unit its number."""
    ivalues = inst.valuation.imargins(inst.units)
    q2 = max((max(row, default=0) for row in ivalues), default=0) ** 2
    triples = tuple(
        (i, j, iv)
        for i, row in enumerate(ivalues)
        for j, iv in enumerate(row, start=1)
        if iv > 0
    )
    positive = tuple(sum(1 for iv in row if iv > 0) for row in ivalues)
    return q2, triples, positive


def ranked_pairs(inst: Instance, bids=None) -> Ranking:
    """All positive-value (seller, unit) pairs in greedy rank order.

    The bids and the valuation class are checked on every call; the ranking
    comes from the memo when the instance and the checked bids are the last
    ones ranked.
    """
    global _memo
    bids = checked_bids(inst, bids)
    _require(additive_reason(inst))
    owner, skeleton, ranked_bids, ranking = _memo
    if owner is inst:
        if ranked_bids == bids:
            return ranking
    else:
        skeleton = _skeleton(inst)
    q2, triples, positive = skeleton
    bid_scale, (ibudget, *ibids) = scaled((inst.budget, *bids))
    pairs = sorted(RankedPair(ibids[i] * q2 // iv, i, j, iv, ibids[i]) for i, j, iv in triples)
    ranking = Ranking(pairs, ibudget, bid_scale, positive)
    _memo = (inst, skeleton, bids, ranking)
    return ranking


def _bought(pairs: Ranking):
    """Units bought from each seller: the longest prefix of the ranked pairs
    whose last pair meets the budget-share inequality."""
    if pairs.bought is not None:
        return pairs.bought
    ibudget = pairs.ibudget
    iprefix = 0
    k = 0
    for rank, pr in enumerate(pairs, start=1):
        iprefix += pr.ivalue
        # bid/value <= B/prefix, cross-multiplied in the integer scales.
        if pr.ibid * iprefix <= ibudget * pr.ivalue:
            k = rank
    counts = [0] * len(pairs.positive)
    for pr in pairs[:k]:
        counts[pr.seller] += 1
    pairs.bought = tuple(counts)
    return pairs.bought


def greedy_allocate(inst: Instance, bids=None):
    """Allocation bought by the greedy branch under the given bids."""
    return _bought(ranked_pairs(inst, bids))


def _seller_thresholds(pairs: Ranking, i: int, count: int) -> tuple:
    """Critical bids of seller i's units, from one ranking: at least the
    first ``count`` of them, each as integers (n, d) for the rational
    n / (d * S_b).  The longest prefix computed so far is kept on the
    ranking and returned whole."""
    kept = pairs.thresholds.get(i, ())
    if len(kept) >= count:
        return kept
    ibudget = pairs.ibudget
    rivals, prefixes = [], [0]  # pair alpha for alpha >= 1, iW_alpha for alpha >= 0
    for pr in pairs:
        if pr.seller != i:
            rivals.append(pr)
            prefixes.append(prefixes[-1] + pr.ivalue)
    out = []
    share = 0
    for pr in pairs:
        if pr.seller != i:
            continue
        share += pr.ivalue
        # Bisect for the first alpha with rho_alpha * (s + W_alpha) >= B;
        # lo ends at alpha - 1, or at len(rivals) if no rival crosses.
        lo, hi = 0, len(rivals)
        while lo < hi:
            mid = (lo + hi) // 2
            rival = rivals[mid]
            if rival.ibid * (share + prefixes[mid + 1]) >= ibudget * rival.ivalue:
                hi = mid
            else:
                lo = mid + 1
        # min(B / (s + W_lo), rho_lo), each as num / den scaled by S_b / S_v.
        num, den = ibudget, share + prefixes[lo]
        if lo < len(rivals):
            rival = rivals[lo]
            if rival.ibid * den < num * rival.ivalue:
                num, den = rival.ibid, rival.ivalue
        out.append((pr.ivalue * num, den))
        if len(out) == count:
            break
    pairs.thresholds[i] = kept = tuple(out)
    return kept


def threshold(inst: Instance, i: int, j: int, bids=None):
    """Exact critical bid for seller i's j-th unit in the greedy branch.

    Bidding below the returned value keeps the unit bought, bidding above
    loses it.  Raises NoThreshold when the unit is not bought under the
    given bids (including zero-value units stripped before ranking).
    """
    pairs = ranked_pairs(inst, bids)
    if not 0 <= i < inst.m:
        raise IndexError(f"seller index {i} out of range")
    if not 1 <= j <= pairs.positive[i]:
        raise NoThreshold(f"unit {j} of seller {i} is never bought")
    bought = _bought(pairs)[i]
    if bought < j:
        raise NoThreshold(f"unit {j} of seller {i} is not bought under these bids")
    # The bought prefix, which greedy_payments reads too.
    n, d = _seller_thresholds(pairs, i, bought)[j - 1]
    return Rat(n, d * pairs.bid_scale)


def _payment(pairs: Ranking, i: int, count: int):
    """The sum of seller i's first ``count`` critical bids, summed exactly
    in integers over the lcm of their denominators: one rational."""
    terms = _seller_thresholds(pairs, i, count)[:count]
    scale = lcm(*(d for _, d in terms))
    return Rat(sum(n * (scale // d) for n, d in terms), scale * pairs.bid_scale)


def greedy_payments(inst: Instance, bids=None):
    """Threshold payments for the greedy-branch allocation."""
    pairs = ranked_pairs(inst, bids)
    alloc = _bought(pairs)
    return alloc, tuple(_payment(pairs, i, a) for i, a in enumerate(alloc))


def greedy_sweep(inst: Instance, bids, seller: int, points) -> list:
    """The seller's (units, payment) in the greedy branch at each bid of
    ``points``, the other sellers bidding as in ``bids``: its entries of
    ``greedy_payments`` at each, from one ranking and with no other
    seller's thresholds computed (see the module docstring).  The bids,
    the valuation class, the seller index and each point are checked, in
    that order.  It returns a list, so the whole sweep runs in the call.
    """
    pairs = ranked_pairs(inst, bids)
    if not 0 <= seller < inst.m:
        raise IndexError(f"seller index {seller} out of range")
    rivals = tuple(
        (pr.ibid, pr.ivalue, pr.seller, pairs.ibudget * pr.ivalue)
        for pr in pairs
        if pr.seller != seller
    )
    own = tuple(pr.ivalue for pr in pairs if pr.seller == seller)
    paid, out = {}, []
    for bid in points:
        bid = bid if type(bid) is Rat else Rat(bid)  # as checked_bids reads a bid
        if bid.numerator < 0:
            raise ValueError("bids must be >= 0")
        units = _walk(pairs, rivals, own, seller, bid)
        payment = paid.get(units)
        if payment is None:
            paid[units] = payment = _payment(pairs, seller, units)
        out.append((units, payment))
    return out


def _walk(pairs: Ranking, rivals: tuple, own: tuple, seller: int, bid) -> int:
    """The seller's bought units at its own bid ``bid``, placed into the
    rivals' order: its pairs' ivalues ``own`` and the rivals'
    (ibid, ivalue, seller, ibudget * ivalue), each in rank order at the
    ranking's scale S_b.  With bid = p / q the own pair's ibid is
    p * S_b / q, so every comparison is multiplied through by q."""
    p_scaled, q = bid.numerator * pairs.bid_scale, bid.denominator
    q_budget = q * pairs.ibudget
    # Margins are nonincreasing in the additive classes, so the own pairs
    # rank by unit whatever the bid: each is placed after the rivals that
    # rank before it.  rho and the prefix both grow along the ranking, so
    # the first pair that fails the bought rule ends the bought prefix, and
    # no rival after the last own pair changes the count.
    units = r = iprefix = 0
    for own_value in own:
        q_own = q * own_value
        while r < len(rivals):
            ibid, ivalue, rival, budget_share = rivals[r]
            # The own pair goes first at a lower rate, or an equal rate and
            # a lower seller index.
            mine, theirs = p_scaled * ivalue, ibid * q_own
            if mine < theirs or (mine == theirs and seller < rival):
                break
            iprefix += ivalue
            if ibid * iprefix > budget_share:
                return units
            r += 1
        iprefix += own_value
        if p_scaled * iprefix > q_budget * own_value:
            return units
        units += 1
    return units


def greedy_breakpoints(inst: Instance, bids, seller: int) -> frozenset:
    """Every bid where the seller's greedy allocation or payment can change:
    the critical bids of all its positive-value units, bought at these bids
    or not.  A critical bid does not read the seller's own bid, and a unit
    is bought iff the bid is at most its critical bid, so the seller's
    allocation and payment change only where its bid crosses one of them."""
    pairs = ranked_pairs(inst, bids)
    return frozenset(
        Rat(n, d * pairs.bid_scale)
        for n, d in _seller_thresholds(pairs, seller, pairs.positive[seller])
    )


def star_seller(inst: Instance) -> int:
    """Seller whose first unit has the highest marginal value (lowest index wins)."""
    _require(additive_reason(inst))
    firsts = [mm[0] for mm in inst.valuation.imargins(inst.units)]
    return max(range(inst.m), key=firsts.__getitem__)  # max keeps the first maximum


def run_m_add(inst: Instance, bids, branch: str) -> Outcome:
    """One deterministic branch of the concave-additive lottery mechanism:
    the greedy, or one of the branches that ignore bids (star buys the star
    seller's first unit at price B, bot buys nothing)."""
    _require(additive_reason(inst))  # class check even on the branches ignoring bids
    if branch == "greedy":
        return Outcome(*greedy_payments(inst, bids))
    if branch == "star":
        i = star_seller(inst)
        payments = [Rat(0)] * inst.m
        payments[i] = inst.budget
        return Outcome(unit_vector(inst.m, i), tuple(payments))
    if branch == "bot":
        return inst.empty_outcome()
    raise ValueError(f"unknown branch {branch!r}")


def unit_values(inst: Instance) -> Instance:
    """The symmetric instance with every unit of every seller worth 1.

    The view is built once per instance and kept on it, so every call on
    one instance returns the same object, its valuation's integer form
    included; the class check runs on every call.
    """
    _require(symmetric_reason(inst))
    return inst._unit_values


def sym_allocate(inst: Instance, bids=None):
    """Buy the longest cheap prefix: rank units by bid, keep while bid <= B/rank."""
    return greedy_allocate(unit_values(inst), bids)


def sym_threshold(inst: Instance, i: int, j: int, bids=None):
    """Critical bid for seller i's j-th unit under the symmetric rule."""
    return threshold(unit_values(inst), i, j, bids)


def sym_payments(inst: Instance, bids=None):
    alloc = sym_allocate(inst, bids)
    return alloc, tuple(
        sum((sym_threshold(inst, i, j, bids) for j in range(1, a + 1)), Rat(0))
        for i, a in enumerate(alloc)
    )


def run_m_sym(inst: Instance, bids, branch: str) -> Outcome:
    """One deterministic branch of the symmetric-valuation lottery mechanism."""
    view = unit_values(inst)  # class check even on the branches ignoring bids
    if branch == "greedy":
        return Outcome(*sym_payments(inst, bids))
    return run_m_add(view, bids, branch)
