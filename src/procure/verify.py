"""The mechanism registry, exact expectations, and the property harness.

``MECHANISMS`` defines each mechanism once, as a lottery: a list of
scenarios, each naming the deterministic rule it runs and the lottery that
owns it.  Exact expectations come from enumerating the branch space (3
branches for the additive lotteries, 2 for the single-item one, 2^m sample
groups for the random-sampling one, and m_sub's union of the last two);
``verify_instance`` checks each rule once, keyed on its owner object.
Per-branch payments and values stay rational.  Floating point appears in
the probability weighting, in the harmonic payment caps and the
expected-payment check (both checked with BUDGET_SLACK), and in
``m_rand``'s acceptance factor (checked with ``ACCEPT_EPS``); deciding
these exactly is ROADMAP item 2.

The harness checks dominant-strategy truthfulness on deviation grids,
individual rationality, per-branch and expected budget feasibility, and
measured approximation ratios against the exact optimum oracle.  Every
failure carries a replayable witness.  A rule's outcome for a seller is
piecewise constant in that seller's bid between its cuts (Myerson 1981;
Archer & Tardos 2001), and the rule's owner states them all in
``Lottery.cuts``.  A pair with cuts is swept over ``deviation_grid`` of
them.  A pair with none (m_add's star and bot, m_one's skip, a seller
m_rand sampled away) never reads the seller's bid, so its outcome is
constant and truthful whatever it is, and it is swept at 0 and
2 * max(B, cost).  A truthful rule is truthful seller by seller, so the
sweep reads only the deviating seller's outcome, ``Lottery.seller_outcome``,
which equals that seller's entries of ``run``; the truthful checks, the
ratio and ``procure run`` read ``run``.  m_one's ``fire`` and m_rand's
branches read a seller they post prices to only through its posted count,
so ``posted_outcome`` runs them once per count and per profile of the
other sellers' bids: on 2 x 2,000 units (``greedy_at_scale(2000)`` in the
tests) a whole ``check_dst`` took 0.46 s for m_one and 1.4 s for m_rand
on a 2-core host.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import lru_cache

from . import mech_additive, mech_single_item, mech_subadditive
from .core import (
    Instance,
    Outcome,
    Rat,
    SearchSpaceTooLarge,
    affordable_count,
    checked_bids,
    format_rat,
    harmonic_factor,
    refuse_over,
    utility,
)
from .mech_subadditive import group_from_mask, phi
from .oracles import optimal_allocation

GROUP_ENUM_MAX_SELLERS = 16
BUDGET_SLACK = 1e-9
GRID = 64  # default uniform deviation grid size


@dataclass(frozen=True)
class Scenario:
    """One branch: its name, probability and payment cap (an exact rational,
    or a float harmonic bound checked with BUDGET_SLACK; an ``exact`` branch
    must pay the cap itself), and the rule it runs, ``owner.run(inst, bids,
    rule)``, which may be another lottery's."""

    branch: str
    probability: float
    cap: object
    exact: bool
    owner: Lottery
    rule: str

    def within_cap(self, total) -> bool:
        if self.exact:
            return total == self.cap
        if isinstance(self.cap, float):
            return float(total) <= self.cap + BUDGET_SLACK
        return total <= self.cap


@dataclass(frozen=True)
class Check:
    """A named pass/fail verdict; failures carry a replayable witness."""

    name: str
    passed: bool
    witness: dict | None = None


def _harmonic_cap(inst: Instance) -> float:
    return harmonic_factor(inst.total_units) * float(inst.budget)


@lru_cache(maxsize=1)
def _prices(budget, count: int) -> frozenset:
    """B/k for k = 1..count; the last set is kept, so a sweep builds it once."""
    return frozenset(budget / k for k in range(1, count + 1))


class Lottery:
    """A mechanism: where it applies, its branches, how one branch runs, how
    ``procure run`` samples one, where its rules' outcomes can change, and
    its ratio.

    Each subclass defines ``scenarios(inst)``, the exhaustive branch list
    with probabilities summing to 1, ``run(inst, bids, branch)``, one
    branch under the bids (None = truthful), and ``cuts(inst, bids, seller,
    rule)`` for each rule it owns: every bid of the seller at which the
    rule can change that seller's allocation or payment, the other bids as
    in ``bids``, and none iff the rule never reads that bid.  A name
    ``run`` refuses, ``cuts`` refuses with the same error.
    ``seller_outcome(inst, bids, seller, rule)`` is one seller's (units,
    payment) under a rule the lottery owns, and it must equal that seller's
    entries of ``run``; the default reads them from ``run``, and an
    override may price that seller alone (the greedy) or keep its outcomes
    by posted count (``fire`` and ``rand:<mask>``, see ``posted_outcome``).
    Methods reach mechanism functions through their modules at call time
    (``mech_additive.run_m_add``, never a stored reference), so a wrapper
    rebound on a module sees every call.  ``name`` is the lottery's id in
    ``MECHANISMS``.
    """

    name: str

    def own(self, branch: str, probability: float, cap, exact: bool = False) -> Scenario:
        """A scenario that runs this lottery's own rule ``branch``."""
        return Scenario(branch, probability, cap, exact, self, branch)

    def applicable(self, inst: Instance) -> str | None:
        """None when the mechanism can run on the instance, else the reason."""
        return None

    def sample(self, inst: Instance, rng) -> str:
        """One uniform draw against the cumulative branch probabilities."""
        scens = self.scenarios(inst)
        r = rng.random()
        acc = 0.0
        for s in scens:
            acc += s.probability
            if r < acc:
                return s.branch
        return scens[-1].branch

    def benchmark(self, inst: Instance):
        """Name and value of the optimum the ratio is measured against."""
        return "budget-optimum", optimal_allocation(inst)[1]

    def bound(self, n: int) -> float | None:
        """Proven ratio bound on n total units; None where none is proven."""
        return None

    def notes(self, inst: Instance) -> dict:
        return {}

    def seller_outcome(self, inst: Instance, bids, seller: int, rule: str):
        """One seller's (units, payment) under ``rule``: ``run``'s entries."""
        out = self.run(inst, bids, rule)
        return out.allocation[seller], out.payments[seller]


# The one-entry posted-count memo (see ``posted_outcome``): the instance, the
# owner, the rule, the seller, the other sellers' checked bids and the
# seller's outcomes by posted count, read and replaced as one tuple.
_posted_memo = (None, None, None, None, None, None)


def posted_outcome(owner: Lottery, inst: Instance, bids, seller: int, rule: str, supply: int):
    """One seller's (units, payment) under a posted-price rule that reads
    the seller's bid b only through its posted count K =
    ``affordable_count(supply, B, b)``: how many of the prices B/1, ...,
    B/supply the bid clears.  m_one's ``fire`` pays thresholds B/k up to
    the seller's units, and m_rand posts B/k in round k to a seller it did
    not sample, up to the total units; a posted-price rule reads a bid only
    against its prices (Myerson 1981), so these prices are the rules' cuts.

    A one-entry memo keyed on the instance (by identity, and held), the
    owner, the rule, the seller and the other sellers' checked bids holds
    the seller's outcomes by K.  A miss runs ``owner.run`` at the bids, so
    a function rebound on a mechanism module serves it, and stores that
    count's outcome once in a single store; the entry is replaced as one
    whole tuple, so a race can cost a rerun, never mix two results.
    """
    global _posted_memo
    bids = checked_bids(inst, bids)
    if not 0 <= seller < inst.m:
        raise IndexError(f"seller index {seller} out of range")
    rival_bids = bids[:seller] + bids[seller + 1 :]
    kept_inst, kept_owner, kept_rule, kept_seller, kept_bids, by_count = _posted_memo
    if (
        kept_inst is not inst
        or kept_owner is not owner
        or kept_rule != rule
        or kept_seller != seller
        or kept_bids != rival_bids
    ):
        by_count = {}
        _posted_memo = (inst, owner, rule, seller, rival_bids, by_count)
    count = affordable_count(supply, inst.budget, bids[seller])
    got = by_count.get(count)
    if got is None:
        out = owner.run(inst, bids, rule)
        by_count[count] = got = (out.allocation[seller], out.payments[seller])
    return got


class GreedyLottery(Lottery):
    """m_add: the greedy branch w.p. 1/(2(1 + ln n)), one unit of the star
    seller at price B w.p. 1/2, and nothing otherwise."""

    def applicable(self, inst):
        return mech_additive.additive_reason(inst)

    def scenarios(self, inst):
        p_greedy = 1.0 / (2.0 * harmonic_factor(inst.total_units))
        return [
            self.own("greedy", p_greedy, _harmonic_cap(inst)),
            self.own("star", 0.5, inst.budget, exact=True),
            self.own("bot", 1.0 - p_greedy - 0.5, 0, exact=True),
        ]

    def run(self, inst, bids, branch):
        return mech_additive.run_m_add(inst, bids, branch)

    def seller_outcome(self, inst, bids, seller, rule):
        if rule == "greedy":  # that seller's thresholds only
            return mech_additive.greedy_seller(inst, bids, seller)
        return super().seller_outcome(inst, bids, seller, rule)

    def cuts(self, inst, bids, seller, rule):
        if rule == "greedy":  # the seller's own unit thresholds
            return mech_additive.greedy_breakpoints(inst, bids, seller)
        if rule in ("star", "bot"):  # they ignore bids
            return frozenset()
        raise ValueError(f"unknown branch {rule!r}")

    def bound(self, n):
        return 4.0 * harmonic_factor(n)


class SymmetricLottery(GreedyLottery):
    """m_sym: the m_add lottery with the cheapest-prefix greedy branch."""

    def applicable(self, inst):
        return mech_additive.symmetric_reason(inst)

    def run(self, inst, bids, branch):
        return mech_additive.run_m_sym(inst, bids, branch)

    def seller_outcome(self, inst, bids, seller, rule):
        if rule == "greedy":
            return mech_additive.sym_seller(inst, bids, seller)
        return super().seller_outcome(inst, bids, seller, rule)

    def cuts(self, inst, bids, seller, rule):
        return super().cuts(mech_additive.unit_values(inst), bids, seller, rule)


class FirstPriceLottery(GreedyLottery):
    """Deliberately non-truthful fixture: m_add paying bids on the greedy
    branch.  Its star and bot entries are m_add's own.  It exists so the
    test suite can prove the DST check catches violations."""

    def scenarios(self, inst):
        greedy, star, bot = MECHANISMS["m_add"].scenarios(inst)
        return [replace(greedy, owner=self), star, bot]

    def run(self, inst, bids, branch):
        if branch != "greedy":
            return super().run(inst, bids, branch)
        bids = checked_bids(inst, bids)
        alloc = mech_additive.greedy_allocate(inst, bids)
        return Outcome(alloc, tuple(b * a for a, b in zip(alloc, bids)))

    # Pay-as-bid is not the greedy's threshold payment, so one seller's
    # outcome is read from ``run``, as every lottery's is by default.
    seller_outcome = Lottery.seller_outcome

    def bound(self, n):
        return None


class SingleItemLottery(Lottery):
    """m_one: the best-single-seller plan fires w.p. 1/(1 + ln n)."""

    def scenarios(self, inst):
        p = 1.0 / harmonic_factor(inst.total_units)
        return [
            self.own("fire", p, _harmonic_cap(inst)),
            self.own("skip", 1.0 - p, 0, exact=True),
        ]

    def run(self, inst, bids, branch):
        return mech_single_item.run_m_one(inst, bids, branch)

    def seller_outcome(self, inst, bids, seller, rule):
        if rule == "fire":  # by posted count, up to the seller's units
            return posted_outcome(self, inst, bids, seller, rule, inst.units[seller])
        return super().seller_outcome(inst, bids, seller, rule)

    def cuts(self, inst, bids, seller, rule):
        # fire reads the bid only through min(units, floor(B / bid)).
        if rule == "fire":
            return _prices(inst.budget, inst.units[seller])
        if rule == "skip":
            return frozenset()
        raise ValueError(f"unknown branch {rule!r}")

    def benchmark(self, inst):
        # plan_m_one ranks sellers by these values; its winner is the first max.
        return "single-item-optimum", max(mech_single_item.single_item_values(inst))

    def bound(self, n):
        return harmonic_factor(n)


class SamplingLottery(Lottery):
    """m_rand: each seller joins the calibration group w.p. 1/2.

    Branch ``rand:<mask>``: bit i set means seller i was sampled away.
    """

    def applicable(self, inst):
        if inst.m > GROUP_ENUM_MAX_SELLERS:
            return f"sample-group enumeration needs m <= {GROUP_ENUM_MAX_SELLERS}"
        return None

    def scenarios(self, inst):
        refuse_over(
            inst.m, GROUP_ENUM_MAX_SELLERS, "2^{count} sample groups exceed the enumeration guard"
        )
        p = 0.5**inst.m
        return [self.own(f"rand:{mask:#b}", p, inst.budget) for mask in range(1 << inst.m)]

    def run(self, inst, bids, branch):
        group = group_from_mask(_mask(branch), inst.m)
        return mech_subadditive.m_rand_detail(inst, bids, group).outcome

    def seller_outcome(self, inst, bids, seller, rule):
        # A seller it did not sample is posted B/k in round k iff its posted
        # count reaches k; a sampled one only moves the target.
        if _mask(rule) >> seller & 1:
            return super().seller_outcome(inst, bids, seller, rule)
        return posted_outcome(self, inst, bids, seller, rule, inst.total_units)

    def cuts(self, inst, bids, seller, rule):
        # A sampled seller is never posted a price: its bid moves only the target.
        if _mask(rule) >> seller & 1:
            return frozenset()
        return _prices(inst.budget, inst.total_units)

    def sample(self, inst, rng):
        return f"rand:{rng.getrandbits(inst.m):#b}"

    def notes(self, inst):
        n = inst.total_units
        return {"phi": phi(n), "phi_guard_active": n < 4}


def _mask(branch: str) -> int:
    """The sample-group bitmask of an m_rand branch ``rand:<mask>``."""
    kind, _, arg = branch.partition(":")
    if kind != "rand":
        raise ValueError(f"bad m_rand scenario {branch!r}")
    try:
        return int(arg, 0)
    except ValueError as exc:
        raise ValueError(f"bad sample-group mask {arg!r}") from exc


class SubadditiveLottery(SamplingLottery):
    """m_sub: a fair coin between m_one and m_rand, with no rule of its own:
    m_one's scenarios, renamed ``one:<branch>``, and m_rand's, at half their
    probabilities.  m_one applies everywhere, so m_sub applies and notes as
    m_rand does.  A branch name resolves to its owner's rule once, in
    ``_sub_rule``, for ``run``, ``seller_outcome`` and ``cuts`` alike."""

    def scenarios(self, inst):
        one = [replace(s, branch=f"one:{s.branch}") for s in MECHANISMS["m_one"].scenarios(inst)]
        rand = MECHANISMS["m_rand"].scenarios(inst)
        return [replace(s, probability=0.5 * s.probability) for s in one + rand]

    def run(self, inst, bids, branch):
        owner, rule = _sub_rule(branch)
        return owner.run(inst, bids, rule)

    def seller_outcome(self, inst, bids, seller, rule):
        owner, rule = _sub_rule(rule)
        return owner.seller_outcome(inst, bids, seller, rule)

    def cuts(self, inst, bids, seller, rule):
        owner, rule = _sub_rule(rule)
        return owner.cuts(inst, bids, seller, rule)

    def sample(self, inst, rng):
        if rng.random() < 0.5:
            return super().sample(inst, rng)
        return "one:" + MECHANISMS["m_one"].sample(inst, rng)


def _sub_rule(branch: str):
    """The owner and rule of an m_sub branch: ``one:<rule>`` is m_one's
    rule, any other name m_rand's; the owner refuses a bad name."""
    kind, _, rule = branch.partition(":")
    if kind == "one":
        return MECHANISMS["m_one"], rule
    return MECHANISMS["m_rand"], branch


# Every mechanism by id.  ``procure run`` samples a branch with
# ``sample(inst, random.Random(seed))``, in this draw order (fixed for
# replay): m_add, m_sym and m_one take one uniform draw against their
# cumulative branch probabilities, in list order; m_rand takes its mask from
# getrandbits(m); m_sub, the union of those two, flips a 1:1 coin with one
# uniform draw (below 1/2 picks m_rand), then takes that lottery's own draw.
MECHANISMS = {
    "m_add": GreedyLottery(),
    "m_sym": SymmetricLottery(),
    "m_one": SingleItemLottery(),
    "m_rand": SamplingLottery(),
    "m_sub": SubadditiveLottery(),
}
MECHANISM_IDS = tuple(MECHANISMS)  # the paper's five; fixtures follow
MECHANISMS["m_add_firstprice"] = FirstPriceLottery()
for _id, _mech in MECHANISMS.items():
    _mech.name = _id


def _lottery(mech: str) -> Lottery:
    try:
        return MECHANISMS[mech]
    except KeyError:
        raise ValueError(f"unknown mechanism {mech!r}") from None


def run_scenario(mech: str, inst: Instance, bids, branch: str) -> Outcome:
    return _lottery(mech).run(inst, bids, branch)


def seller_outcome(mech: str, inst: Instance, bids, seller: int, branch: str):
    """Seller's (units, payment) in one branch: its entries of
    ``run_scenario``, from the lottery's ``seller_outcome``."""
    return _lottery(mech).seller_outcome(inst, bids, seller, branch)


def scenario_outcomes(mech: str, inst: Instance, shared: dict | None = None):
    """Each scenario of the mechanism's lottery with its truthful outcome.
    ``shared`` keeps each rule's outcome, as ``check_dst`` keeps sweeps."""
    shared = {} if shared is None else shared
    pairs = []
    for s in _lottery(mech).scenarios(inst):
        key = ("truthful", s.owner, s.rule)
        if key not in shared:
            shared[key] = run_scenario(s.owner.name, inst, inst.costs, s.rule)
        pairs.append((s, shared[key]))
    return pairs


def expected_value(mech: str, inst: Instance, *, shared=None) -> float:
    return sum(
        s.probability * float(inst.value(out.allocation))
        for s, out in scenario_outcomes(mech, inst, shared)
    )


def deviation_grid(inst, bids, seller, cuts, resolution: int = GRID):
    """Deviation bids: the truthful bid, each of ``cuts`` straddled by one
    millionth, and a uniform grid on (0, B].

    ``check_dst`` passes a rule's whole cut set from its owner
    (``Lottery.cuts``): every bid where the rule can change the seller's
    outcome.  The outcome is constant between cuts, so straddling each one
    catches every change a uniform grid could miss.  A rule with no cuts
    gets no grid: it is swept at 0 and 2 * max(B, cost).

    Every point is built as one rational from integers, a straddle point as
    bp * (10^6 - 1) / 10^6 or bp * (10^6 + 1) / 10^6, and the grid is
    sorted by the integer key num * D**2 // den, with D its largest
    denominator.  Two distinct points a/b and c/d with b, d <= D differ by
    at least 1/(b*d) >= 1/D**2, so at scale D**2 they lie at least 1 apart
    and their floors keep the rational order.
    """
    if resolution < 1:
        raise ValueError(f"deviation grid resolution must be >= 1, got {resolution}")
    bnum, bden = inst.budget.numerator, inst.budget.denominator
    grid = {bids[seller]}
    for bp in cuts:
        num = bp.numerator
        if num > 0:
            den = bp.denominator * 10**6
            grid |= {Rat(num * (10**6 - 1), den), bp, Rat(num * (10**6 + 1), den)}
    grid |= {Rat(bnum * t, bden * resolution) for t in range(1, resolution + 1)}
    d2 = max(q.denominator for q in grid) ** 2
    return sorted(grid, key=lambda q: q.numerator * d2 // q.denominator)


def check_dst(
    mech: str, inst: Instance, resolution: int = GRID, strict: bool = False, *, shared=None
) -> list:
    """Per-scenario, per-seller truthfulness on the deviation grid.

    Compares exact utilities; any strictly profitable deviation fails the
    check and is recorded with a replayable witness.  Opponents bid
    truthfully; ``strict`` adds a ``dst-strict`` sweep on instances with at
    most two sellers, where opponents range over (coarser) grids of every
    cut of the owner's rules and one bid past each, approximating the full
    dominant-strategy quantifier.  ``shared`` keeps one instance's sweeps
    by rule (the owner object and its rule), so each rule is swept once.
    """
    shared = {} if shared is None else shared
    checks = _dst_sweep("dst", mech, inst, resolution, False, shared)
    if strict and inst.m <= 2:
        coarse = max(8, resolution // 8)
        checks += _dst_sweep("dst-strict", mech, inst, coarse, True, shared)
    return checks


def _dst_sweep(name, mech, inst, resolution, sweep_opponents, shared) -> list:
    # One check per (scenario, seller), from its rule's sweep.  The sweep is
    # kept under the rule's owner and name, and every input to it, the
    # strict rivals' bids included, comes from that owner.
    costs = inst.costs
    grids, rivals = {}, {}

    def grid(i, cuts):
        if (i, cuts) not in grids:
            grids[i, cuts] = deviation_grid(inst, costs, i, cuts, resolution)
        return grids[i, cuts]

    def rival_bids(owner):
        # A strict rival bids every cut of the owner's rules, and twice its
        # grid's top, past B and every cut: a greedy rival there sells
        # nothing but can still rank before the seller.
        if owner not in rivals:
            rules = [s.rule for s in owner.scenarios(inst)]
            tops = [
                grid(j, frozenset().union(*(owner.cuts(inst, costs, j, r) for r in rules)))
                for j in range(inst.m)
            ]
            rivals[owner] = [g + [2 * g[-1]] for g in tops]
        return rivals[owner]

    checks = []
    for scen in _lottery(mech).scenarios(inst):
        key = (name, resolution, scen.owner, scen.rule)
        if key not in shared:
            owner = scen.owner
            bids = rival_bids(owner) if sweep_opponents else [(c,) for c in costs]
            verdicts = []
            for i, cost in enumerate(costs):
                cuts = owner.cuts(inst, costs, i, scen.rule)
                # No cuts, no grid: the outcome is constant in the bid, so two
                # points suffice, both past every cut.
                points = grid(i, cuts) if cuts else (Rat(0), 2 * max(inst.budget, cost))
                verdicts.append(_first_gain(scen, inst, i, points, bids))
            shared[key] = verdicts
        for i, witness in enumerate(shared[key]):
            witness = witness and {"scenario": scen.branch, **witness}
            checks.append(Check(f"{name}:{scen.branch}:seller{i}", witness is None, witness))
    return checks


def _first_gain(scen, inst, i, grid, rival_bids) -> dict | None:
    """The witness, less its scenario name, of the first opponent profile
    in grid order where a deviation of seller i beats its truthful bid.
    Only seller i's utility is compared, so each run reads seller i's
    outcome alone (``seller_outcome``), which equals its entries of
    ``run``."""
    owner, rule, cost = scen.owner.name, scen.rule, inst.costs[i]

    def own_utility(bids):
        # As ``core.utility``: no rational arithmetic for a seller with no units.
        units, payment = seller_outcome(owner, inst, bids, i, rule)
        return payment - cost * units if units else payment

    for rivals in itertools.product(*rival_bids[:i], *rival_bids[i + 1 :]):
        base = rivals[:i] + (cost,) + rivals[i:]
        u_true = own_utility(base)
        for dev in grid:
            if dev == cost:
                continue
            u_dev = own_utility(base[:i] + (dev,) + base[i + 1 :])
            if u_dev > u_true:
                return {
                    "seller": i,
                    "bids": [format_rat(b) for b in base],
                    "deviation": format_rat(dev),
                    "u_true": format_rat(u_true),
                    "u_dev": format_rat(u_dev),
                }
    return None


def check_ir(mech: str, inst: Instance, *, shared=None) -> list:
    """Individual rationality under truthful bids, per scenario, exact.
    ``shared`` is as for ``scenario_outcomes``."""
    costs = inst.costs
    checks = []
    for scen, out in scenario_outcomes(mech, inst, shared):
        witness = None
        for i in range(inst.m):
            u = utility(out, costs, i)
            if u < 0:
                witness = {
                    "scenario": scen.branch,
                    "seller": i,
                    "utility": format_rat(u),
                }
                break
        checks.append(Check(f"ir:{scen.branch}", witness is None, witness))
    return checks


def check_budget(mech: str, inst: Instance, *, shared=None) -> list:
    """Per-branch payment caps plus the expected-payment budget test;
    ``shared`` is as for ``scenario_outcomes``.  Only a failing branch
    formats its payment, which can have thousands of digits."""
    checks = []
    expected = 0.0
    for scen, out in scenario_outcomes(mech, inst, shared):
        total = out.total_payment
        expected += scen.probability * float(total)
        ok = scen.within_cap(total)
        witness = None if ok else {"scenario": scen.branch, "total_payment": format_rat(total)}
        checks.append(Check(f"budget:{scen.branch}", ok, witness))
    ok = expected <= float(inst.budget) + BUDGET_SLACK
    checks.append(
        Check("budget:expected", ok, None if ok else {"expected_payment": expected})
    )
    return checks


@dataclass(frozen=True)
class RatioReport:
    """Measured approximation ratio against the relevant benchmark."""

    mechanism: str
    benchmark: str
    expected_value: float
    optimum: object
    ratio: float
    bound: float | None


def measure_ratio(mech: str, inst: Instance, *, shared=None) -> RatioReport:
    """Exact-expectation ratio; the bound is asserted only where proven.
    ``shared`` is as for ``scenario_outcomes``."""
    lottery = _lottery(mech)
    ev = expected_value(mech, inst, shared=shared)
    benchmark, opt = lottery.benchmark(inst)
    if ev > 0:
        ratio = float(opt) / ev
    else:
        ratio = 0.0 if opt == 0 else float("inf")
    return RatioReport(
        mech, benchmark, ev, opt, ratio, lottery.bound(inst.total_units)
    )


@dataclass
class Report:
    """All verdicts for one (instance, mechanism) pair."""

    instance_digest: str
    mechanism: str
    checks: list
    ratio: RatioReport | None = None
    notes: dict | None = None

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def json_lines(self) -> list:
        lines = [
            json.dumps(
                {
                    "instance": self.instance_digest,
                    "mechanism": self.mechanism,
                    "check": c.name,
                    "pass": c.passed,
                    "witness": c.witness,
                },
                sort_keys=True,
            )
            for c in self.checks
        ]
        summary = {
            "instance": self.instance_digest,
            "mechanism": self.mechanism,
            "check": "measured",
            "pass": self.fail_count == 0,
        }
        if self.ratio is not None:
            summary.update(
                expected_value=self.ratio.expected_value,
                optimum=format_rat(self.ratio.optimum),
                ratio=self.ratio.ratio,
                bound=self.ratio.bound,
                benchmark=self.ratio.benchmark,
            )
        if self.notes:
            summary["notes"] = self.notes
        lines.append(json.dumps(summary, sort_keys=True))
        return lines

    def csv_row(self) -> list:
        ratio = self.ratio.ratio if self.ratio else ""
        bound = (
            self.ratio.bound
            if self.ratio and self.ratio.bound is not None
            else ""
        )
        return [
            self.instance_digest,
            self.mechanism,
            ratio,
            bound,
            self.pass_count,
            self.fail_count,
        ]


CSV_HEADER = ["instance", "mechanism", "ratio", "bound", "pass_count", "fail_count"]


def verify_instance(
    inst: Instance, mechanisms, resolution=GRID, strict=False, digest=""
) -> list:
    """Run the full check battery for each applicable mechanism.  A mechanism
    that does not apply, or needs a search a guard refuses, is skipped; the
    ratio is measured first, so the optimum's guards refuse before the sweep.
    The mechanisms, and each one's ratio and checks, share their rules'
    sweeps and truthful runs."""
    shared = {}
    reports = []
    for mech in mechanisms:
        lottery = _lottery(mech)
        reason = lottery.applicable(inst)
        if reason is None:
            try:
                ratio = measure_ratio(mech, inst, shared=shared)
                checks = (
                    check_dst(mech, inst, resolution, strict, shared=shared)
                    + check_ir(mech, inst, shared=shared)
                    + check_budget(mech, inst, shared=shared)
                )
            except SearchSpaceTooLarge as exc:
                reason = str(exc)
        if reason is not None:
            reports.append(Report(digest, mech, [], None, {"skipped": reason}))
            continue
        reports.append(Report(digest, mech, checks, ratio, lottery.notes(inst) or None))
    return reports
