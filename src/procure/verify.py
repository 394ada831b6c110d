"""The mechanism registry, exact expectations, and the property harness.

``MECHANISMS`` defines each mechanism once, as a lottery over deterministic
branches.  Exact expectations come from enumerating the branch space (3
branches for the additive lotteries, 2 for the single-item one, 2^m sample
groups for the random-sampling one, and the 1:1 mix of the last two).
Per-branch payments and values stay rational; only the probability
weighting is floating point.

The harness checks dominant-strategy truthfulness on deviation grids built
from the allocation rules' breakpoints, individual rationality, per-branch
and expected budget feasibility, and measured approximation ratios against
the exact optimum oracle.  Every failure carries a replayable witness.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import mech_additive, mech_single_item, mech_subadditive
from .core import (
    Instance,
    Outcome,
    Rat,
    SearchSpaceTooLarge,
    checked_bids,
    format_rat,
    harmonic_factor,
    unit_vector,
    utility,
)
from .mech_subadditive import group_from_mask, phi
from .oracles import optimal_allocation
from .valuations import BoundedKnapsack, ConcaveAdditive, Symmetric

GROUP_ENUM_MAX_SELLERS = 16
BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One deterministic branch, its probability, and its payment cap: an
    exact rational, or a float harmonic bound checked with BUDGET_SLACK.
    An ``exact`` branch must pay the cap itself."""

    branch: str
    probability: float
    cap: object
    exact: bool = False

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


class Lottery:
    """A mechanism: where it applies, its branches, how one branch runs, how
    ``procure run`` samples one, its rule's breakpoints, and its ratio.

    Each subclass defines ``scenarios(inst)``, the exhaustive branch list
    with probabilities summing to 1, and ``run(inst, bids, branch)``, one
    branch under the bids (None = truthful).  Methods reach mechanism
    functions through their modules at call time (``mech_additive.run_m_add``,
    never a stored reference), so a wrapper rebound on a module sees every
    call.
    """

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

    def breakpoints(self, inst: Instance, bids, seller: int) -> set:
        """Bids besides B/rank where the seller's allocation can change."""
        return set()

    def benchmark(self, inst: Instance):
        """Name and value of the optimum the ratio is measured against."""
        return "budget-optimum", optimal_allocation(inst)[1]

    def bound(self, n: int) -> float | None:
        """Proven ratio bound on n total units; None where none is proven."""
        return None

    def notes(self, inst: Instance) -> dict:
        return {}


class GreedyLottery(Lottery):
    """m_add: the greedy branch w.p. 1/(2(1 + ln n)), one unit of the star
    seller at price B w.p. 1/2, and nothing otherwise."""

    def applicable(self, inst):
        if isinstance(inst.valuation, (BoundedKnapsack, ConcaveAdditive)):
            return None
        return "requires a concave additive or bounded-knapsack valuation"

    def scenarios(self, inst):
        p_greedy = 1.0 / (2.0 * harmonic_factor(inst.total_units))
        return [
            Scenario("greedy", p_greedy, _harmonic_cap(inst)),
            Scenario("star", 0.5, inst.budget, exact=True),
            Scenario("bot", 1.0 - p_greedy - 0.5, 0, exact=True),
        ]

    def run(self, inst, bids, branch):
        return mech_additive.run_m_add(inst, bids, branch)

    def breakpoints(self, inst, bids, seller):
        # Rank crossings with every rival pair, and the seller's thresholds.
        points = set()
        pairs = mech_additive.ranked_pairs(inst, bids)
        own = [p for p in pairs if p.seller == seller]
        rest = [p for p in pairs if p.seller != seller]
        for po in own:
            for pr in rest:
                points.add(po.value * pr.bid / pr.value)
        alloc = mech_additive.greedy_allocate(inst, bids)
        for j in range(1, alloc[seller] + 1):
            points.add(mech_additive.threshold(inst, seller, j, bids))
        return points

    def bound(self, n):
        return 4.0 * harmonic_factor(n)


class SymmetricLottery(GreedyLottery):
    """m_sym: the m_add lottery with the cheapest-prefix greedy branch."""

    def applicable(self, inst):
        if isinstance(inst.valuation, Symmetric):
            return None
        return "requires a symmetric valuation"

    def run(self, inst, bids, branch):
        return mech_additive.run_m_sym(inst, bids, branch)

    def breakpoints(self, inst, bids, seller):
        points = {b for i, b in enumerate(bids) if i != seller}
        alloc = mech_additive.sym_allocate(inst, bids)
        for j in range(1, alloc[seller] + 1):
            points.add(mech_additive.sym_threshold(inst, seller, j, bids))
        return points


class FirstPriceLottery(GreedyLottery):
    """Deliberately non-truthful fixture: m_add paying bids on the greedy
    branch.  It exists so the test suite can prove the DST check catches
    violations."""

    def run(self, inst, bids, branch):
        if branch != "greedy":
            return super().run(inst, bids, branch)
        bids = checked_bids(inst, bids)
        alloc = mech_additive.greedy_allocate(inst, bids)
        return Outcome(alloc, tuple(a * b for a, b in zip(alloc, bids)))

    def bound(self, n):
        return None


class SingleItemLottery(Lottery):
    """m_one: the best-single-seller plan fires w.p. 1/(1 + ln n)."""

    def scenarios(self, inst):
        p = 1.0 / harmonic_factor(inst.total_units)
        return [
            Scenario("fire", p, _harmonic_cap(inst)),
            Scenario("skip", 1.0 - p, 0, exact=True),
        ]

    def run(self, inst, bids, branch):
        return mech_single_item.run_m_one(inst, bids, branch)

    def benchmark(self, inst):
        plan = mech_single_item.plan_m_one(inst)
        opt = inst.value(unit_vector(inst.m, plan.winner, plan.count))
        return "single-item-optimum", opt

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
        if inst.m > GROUP_ENUM_MAX_SELLERS:
            raise SearchSpaceTooLarge(
                f"2^{inst.m} sample groups exceed the enumeration guard"
            )
        p = 0.5**inst.m
        return [
            Scenario(f"rand:{mask:#b}", p, inst.budget)
            for mask in range(1 << inst.m)
        ]

    def run(self, inst, bids, branch):
        kind, _, arg = branch.partition(":")
        if kind != "rand":
            raise ValueError(f"bad m_rand scenario {branch!r}")
        try:
            mask = int(arg, 0)
        except ValueError as exc:
            raise ValueError(f"bad sample-group mask {arg!r}") from exc
        group = group_from_mask(mask, inst.m)
        return mech_subadditive.run_m_rand(inst, bids, group)

    def sample(self, inst, rng):
        return f"rand:{rng.getrandbits(inst.m):#b}"

    def notes(self, inst):
        n = inst.total_units
        return {"phi": phi(n), "phi_guard_active": n < 4}


class SubadditiveMix(Lottery):
    """m_sub: a fair coin between m_one (branches ``one:fire`` and
    ``one:skip``) and m_rand (branches ``rand:<mask>``)."""

    def __init__(self, one: Lottery, rand: Lottery):
        self.one, self.rand = one, rand

    def applicable(self, inst):
        return self.one.applicable(inst) or self.rand.applicable(inst)

    def scenarios(self, inst):
        return [
            Scenario(f"one:{s.branch}", 0.5 * s.probability, s.cap, s.exact)
            for s in self.one.scenarios(inst)
        ] + [
            Scenario(s.branch, 0.5 * s.probability, s.cap, s.exact)
            for s in self.rand.scenarios(inst)
        ]

    def run(self, inst, bids, branch):
        kind, _, arg = branch.partition(":")
        if kind == "one":
            return self.one.run(inst, bids, arg)
        return self.rand.run(inst, bids, branch)

    def sample(self, inst, rng):
        if rng.random() < 0.5:
            return self.rand.sample(inst, rng)
        return f"one:{self.one.sample(inst, rng)}"

    def notes(self, inst):
        return {**self.one.notes(inst), **self.rand.notes(inst)}


# Every mechanism by id.  ``procure run`` samples a branch with
# ``sample(inst, random.Random(seed))``, in this draw order (fixed for
# replay): m_add, m_sym and m_one take one uniform draw against their
# cumulative branch probabilities, in list order; m_rand takes its mask from
# getrandbits(m); m_sub flips a 1:1 coin with one uniform draw (below 1/2
# picks m_rand), then takes the chosen half's own draw.
MECHANISMS = {
    "m_add": GreedyLottery(),
    "m_sym": SymmetricLottery(),
    "m_one": SingleItemLottery(),
    "m_rand": SamplingLottery(),
}
MECHANISMS["m_sub"] = SubadditiveMix(MECHANISMS["m_one"], MECHANISMS["m_rand"])
MECHANISM_IDS = tuple(MECHANISMS)  # the paper's five; fixtures follow
MECHANISMS["m_add_firstprice"] = FirstPriceLottery()


def _lottery(mech: str) -> Lottery:
    try:
        return MECHANISMS[mech]
    except KeyError:
        raise ValueError(f"unknown mechanism {mech!r}") from None


def run_scenario(mech: str, inst: Instance, bids, branch: str) -> Outcome:
    return _lottery(mech).run(inst, bids, branch)


def scenario_outcomes(mech: str, inst: Instance, bids=None):
    bids = checked_bids(inst, bids)
    return [
        (s, run_scenario(mech, inst, bids, s.branch))
        for s in _lottery(mech).scenarios(inst)
    ]


def expected_value(mech: str, inst: Instance, bids=None) -> float:
    return sum(
        s.probability * float(inst.value(out.allocation))
        for s, out in scenario_outcomes(mech, inst, bids)
    )


def expected_payment(mech: str, inst: Instance, bids=None) -> float:
    return sum(
        s.probability * float(out.total_payment)
        for s, out in scenario_outcomes(mech, inst, bids)
    )


def deviation_grid(mech, inst, bids, seller, resolution: int = 64):
    """Deviation bids: the truthful bid, breakpoints straddled by one
    millionth, and a uniform grid on (0, B].

    Breakpoints are the bids where the seller's allocation can change: B/rank
    for every rank, plus the mechanism's own.  Utility is piecewise constant
    between them, so straddling each one catches every allocation change a
    uniform grid could miss.
    """
    budget = inst.budget
    points = {budget / rank for rank in range(1, inst.total_units + 1)}
    points |= _lottery(mech).breakpoints(inst, bids, seller)
    grid = {bids[seller]}
    for bp in points:
        if bp > 0:
            delta = bp / 10**6
            grid |= {bp - delta, bp, bp + delta}
    grid |= {budget * t / resolution for t in range(1, resolution + 1)}
    return sorted(grid)


def check_dst(
    mech: str, inst: Instance, resolution: int = 64, strict: bool = False
) -> list:
    """Per-scenario, per-seller truthfulness on the deviation grid.

    Compares exact utilities; any strictly profitable deviation fails the
    check and is recorded with a replayable witness.  Opponents bid
    truthfully; ``strict`` adds a ``dst-strict`` sweep on instances with at
    most two sellers, where opponents range over their own (coarser)
    deviation grids, approximating the full dominant-strategy quantifier.
    """
    checks = _dst_sweep("dst", mech, inst, resolution, False)
    if strict and inst.m <= 2:
        coarse = max(8, resolution // 8)
        checks += _dst_sweep("dst-strict", mech, inst, coarse, True)
    return checks


def _witness(scen, seller, bids, deviation, u_true, u_dev) -> dict:
    return {
        "scenario": scen.branch,
        "seller": seller,
        "bids": [format_rat(b) for b in bids],
        "deviation": format_rat(deviation),
        "u_true": format_rat(u_true),
        "u_dev": format_rat(u_dev),
    }


def _dst_sweep(name, mech, inst, resolution, sweep_opponents) -> list:
    # One check per (scenario, seller): the first opponent profile, in grid
    # order, under which some deviation beats the truthful bid is the witness.
    costs = inst.costs
    scenarios = _lottery(mech).scenarios(inst)
    grids = [
        deviation_grid(mech, inst, costs, i, resolution) for i in range(inst.m)
    ]
    rival_bids = [grid if sweep_opponents else (c,) for grid, c in zip(grids, costs)]
    checks = []
    for scen in scenarios:
        for i in range(inst.m):
            witness = None
            for rivals in itertools.product(*rival_bids[:i], *rival_bids[i + 1 :]):
                base = rivals[:i] + (costs[i],) + rivals[i:]
                out = run_scenario(mech, inst, base, scen.branch)
                u_true = utility(out, costs, i)
                for dev in grids[i]:
                    if dev == costs[i]:
                        continue
                    profile = base[:i] + (dev,) + base[i + 1 :]
                    out = run_scenario(mech, inst, profile, scen.branch)
                    u_dev = utility(out, costs, i)
                    if u_dev > u_true:
                        witness = _witness(scen, i, base, dev, u_true, u_dev)
                        break
                if witness:
                    break
            checks.append(
                Check(f"{name}:{scen.branch}:seller{i}", witness is None, witness)
            )
    return checks


def check_ir(mech: str, inst: Instance) -> list:
    """Individual rationality under truthful bids, per scenario, exact."""
    costs = inst.costs
    checks = []
    for scen, out in scenario_outcomes(mech, inst):
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


def check_budget(mech: str, inst: Instance) -> list:
    """Per-branch payment caps plus the expected-payment budget test."""
    checks = []
    expected = 0.0
    for scen, out in scenario_outcomes(mech, inst):
        total = out.total_payment
        expected += scen.probability * float(total)
        ok = scen.within_cap(total)
        witness = {"scenario": scen.branch, "total_payment": format_rat(total)}
        checks.append(Check(f"budget:{scen.branch}", ok, None if ok else witness))
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


def measure_ratio(mech: str, inst: Instance) -> RatioReport:
    """Exact-expectation ratio; the bound is asserted only where proven."""
    lottery = _lottery(mech)
    ev = expected_value(mech, inst)
    benchmark, opt = lottery.benchmark(inst)
    if ev > 0:
        ratio = float(opt) / ev
    else:
        ratio = 0.0 if opt == 0 else float("inf")
    return RatioReport(
        mech, benchmark, ev, opt, ratio, lottery.bound(inst.total_units)
    )


@dataclass(frozen=True)
class GreedyStep:
    """One step of the marginal value-rate greedy: state, marginals, pick."""

    before: tuple
    marginals: tuple
    chosen: int
    after: tuple


def greedy_marginal(inst: Instance, bids=None) -> list:
    """Marginal value-rate greedy trace (value-oracle only).

    Repeatedly buys one unit of the affordable, uncapped item with the
    highest marginal value per unit of bid (rate ties go to the lowest
    index) until nothing affordable remains.  Not monotone in bids; the
    regression suite pins the canonical counterexample.
    """
    bids = checked_bids(inst, bids)
    units = inst.units
    alloc = (0,) * inst.m
    remaining = inst.budget
    steps = []
    while True:
        marginals = []
        base = inst.value(alloc)
        for i in range(inst.m):
            if alloc[i] >= units[i]:
                marginals.append(Rat(0))
            else:
                bumped = alloc[:i] + (alloc[i] + 1,) + alloc[i + 1 :]
                marginals.append(inst.value(bumped) - base)
        afford = [
            i
            for i in range(inst.m)
            if alloc[i] < units[i] and bids[i] <= remaining
        ]
        if not afford:
            break
        best = afford[0]
        for i in afford[1:]:
            # rate comparison marg/bid done by cross-multiplication
            if marginals[i] * bids[best] > marginals[best] * bids[i]:
                best = i
        after = alloc[:best] + (alloc[best] + 1,) + alloc[best + 1 :]
        steps.append(GreedyStep(alloc, tuple(marginals), best, after))
        alloc = after
        remaining -= bids[best]
    return steps


def _dominance_events(inst: Instance) -> list:
    """Per sample group T: (T, whether opt(complement) >= opt(T) >= opt/8)."""
    if inst.m > GROUP_ENUM_MAX_SELLERS:
        raise SearchSpaceTooLarge("too many sellers for group enumeration")
    opt = optimal_allocation(inst)[1]
    events = []
    for mask in range(1 << inst.m):
        group = group_from_mask(mask, inst.m)
        rest = tuple(i for i in range(inst.m) if i not in set(group))
        v_group = optimal_allocation(inst, members=group)[1]
        v_rest = optimal_allocation(inst, members=rest)[1]
        events.append((group, v_rest >= v_group and 8 * v_group >= opt))
    return events


def partition_success_frequency(inst: Instance):
    """Exact fraction of sample groups where the kept half dominates.

    Counts groups T with opt(complement) >= opt(T) >= opt/8, over all 2^m
    equiprobable groups; returned as an exact rational.
    """
    hits = sum(1 for _, event in _dominance_events(inst) if event)
    return Rat(hits, 1 << inst.m)


def partition_chain_records(inst: Instance):
    """Per-group record of the two-stage sampling argument.

    For every sample group: whether the dominance event holds (kept half's
    optimum at least the sampled half's, itself at least opt/8), and whether
    the realized value plus the single-item benchmark clears the acceptance
    factor times the calibrated value.  The second flag is what makes the
    whole mechanism's expectation chain go through when the first holds.
    """
    events = _dominance_events(inst)
    plan = mech_single_item.plan_m_one(inst)
    single = inst.value(unit_vector(inst.m, plan.winner, plan.count))
    factor = phi(inst.total_units)
    records = []
    for group, event in events:
        detail = mech_subadditive.m_rand_detail(inst, None, group)
        realized = inst.value(detail.outcome.allocation)
        chain_ok = (
            float(realized + single)
            >= factor * float(detail.sample_value) - BUDGET_SLACK
        )
        records.append((event, chain_ok))
    return records


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
    inst: Instance, mechanisms, resolution=64, strict=False, digest=""
) -> list:
    """Run the full check battery for each applicable mechanism."""
    reports = []
    for mech in mechanisms:
        lottery = _lottery(mech)
        reason = lottery.applicable(inst)
        if reason is not None:
            reports.append(Report(digest, mech, [], None, {"skipped": reason}))
            continue
        try:
            checks = (
                check_dst(mech, inst, resolution, strict)
                + check_ir(mech, inst)
                + check_budget(mech, inst)
            )
            ratio = measure_ratio(mech, inst)
        except SearchSpaceTooLarge as exc:
            reports.append(Report(digest, mech, [], None, {"skipped": str(exc)}))
            continue
        reports.append(
            Report(digest, mech, checks, ratio, lottery.notes(inst) or None)
        )
    return reports


def replay_witness(mech: str, inst: Instance, witness: dict) -> bool:
    """Re-run a DST witness; True iff it reproduces the recorded violation."""
    from .core import parse_rat

    bids = tuple(parse_rat(b) for b in witness["bids"])
    seller = witness["seller"]
    branch = witness["scenario"]
    dev = parse_rat(witness["deviation"])
    u_true = utility(run_scenario(mech, inst, bids, branch), inst.costs, seller)
    profile = bids[:seller] + (dev,) + bids[seller + 1 :]
    u_dev = utility(run_scenario(mech, inst, profile, branch), inst.costs, seller)
    return (
        u_dev > u_true
        and format_rat(u_true) == witness["u_true"]
        and format_rat(u_dev) == witness["u_dev"]
    )
