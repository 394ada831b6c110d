"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s and in the run
log) and then asserts.  Corpora are seeded and shared via corpora.py.
"""

import csv
import time
from math import log

from click.testing import CliRunner

from procure.core import Instance, Rat, Seller, unit_vector
from procure.cli import main as cli_main
from procure.mech_additive import (
    greedy_allocate,
    greedy_payments,
    threshold,
)
from procure.mech_single_item import plan_m_one
from procure.mech_subadditive import a_max
from procure.oracles import (
    adversarial_single_seller,
    optimal_allocation,
)
from procure.valuations import BoundedKnapsack
from procure.verify import (
    check_dst,
    expected_value,
    measure_ratio,
    scenario_outcomes,
)

from corpora import (
    budget_corpora,
    concave_corpus,
    dst_corpora,
    explicit_subadditive_corpus,
    first_price_probe,
    greedy_nonmonotone_instance,
    m_one_corpus,
)
from helpers import (
    brute_force_optimum,
    expected_payment,
    greedy_marginal,
    independent_threshold,
    partition_success_frequency,
    reference_pairs,
    replay_witness,
)


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_threshold_exactness():
    start = time.time()
    pairs = 0
    mismatches = []
    for inst in concave_corpus():
        alloc = greedy_allocate(inst)
        for i, bought in enumerate(alloc):
            for j in range(1, bought + 1):
                pairs += 1
                closed = threshold(inst, i, j)
                searched = independent_threshold(inst, i, j)
                if closed != searched:
                    mismatches.append((inst, i, j, closed, searched))
    elapsed = time.time() - start
    _verdict(
        1,
        "threshold exactness",
        not mismatches and elapsed < 60,
        f"({pairs} allocated pairs over {len(concave_corpus())} instances, "
        f"{elapsed:.1f}s, {len(mismatches)} mismatches)",
    )


def test_criterion_2_harmonic_payment_bound():
    harmonic_viol = 0
    rank_viol = 0
    for inst in concave_corpus():
        alloc, payments = greedy_payments(inst)
        cap = (1.0 + log(inst.total_units)) * float(inst.budget)
        if float(sum(payments, Rat(0))) > cap + 1e-9:
            harmonic_viol += 1
        bought = [
            (pr.value, pr.seller, pr.unit)
            for pr in reference_pairs(inst)
            if alloc[pr.seller] >= pr.unit
        ]
        bought.sort(key=lambda t: (-t[0], t[1], t[2]))
        for rank, (_, i, j) in enumerate(bought, start=1):
            if threshold(inst, i, j) > inst.budget / rank:
                rank_viol += 1
    _verdict(
        2,
        "harmonic payment bound",
        harmonic_viol == 0 and rank_viol == 0,
        f"(harmonic violations {harmonic_viol}, rank-bound violations {rank_viol})",
    )


def test_criterion_3_m_add_approximation():
    violations = 0
    for inst in concave_corpus():
        ev = expected_value("m_add", inst)
        opt = optimal_allocation(inst)[1]
        bound = float(opt) / (4.0 * (1.0 + log(inst.total_units)))
        if ev < bound - 1e-9:
            violations += 1
    _verdict(
        3,
        "m_add approximation",
        violations == 0,
        f"({len(concave_corpus())} instances, {violations} violations)",
    )


def test_criterion_4_lower_bound_bracket():
    out_of_bracket = []
    for n in (2, 4, 8, 16, 32):
        inst = adversarial_single_seller(n, n, n)
        ratio = measure_ratio("m_add", inst).ratio
        lo, hi = log(n), 4.0 * (1.0 + log(n))
        if not (lo - 1e-6 <= ratio <= hi + 1e-6):
            out_of_bracket.append((n, ratio, lo, hi))
    _verdict(4, "worst-case ratio bracket", not out_of_bracket, str(out_of_bracket))


def test_criterion_5_m_one():
    corpus = m_one_corpus()
    assert len(corpus) >= 200
    bad = 0
    for inst in corpus:
        plan = plan_m_one(inst)
        bench = float(
            inst.value(unit_vector(inst.m, plan.winner, plan.count))
        )
        ev = expected_value("m_one", inst)
        if abs(ev - bench / (1.0 + log(inst.total_units))) > 1e-9:
            bad += 1
            continue
        cap = (1.0 + log(inst.total_units)) * float(inst.budget)
        if float(plan.total_payment) > cap + 1e-9:
            bad += 1
            continue
        if plan.total_payment < plan.count * inst.costs[plan.winner]:
            bad += 1
    _verdict(
        5,
        "m_one expectation, budget, IR",
        bad == 0,
        f"({len(corpus)} instances incl. non-concave explicit, {bad} bad)",
    )


def test_criterion_6_a_max_factor_eight():
    start = time.time()
    corpus = explicit_subadditive_corpus()
    assert len(corpus) >= 100
    violations = 0
    for inst in corpus:
        run = a_max(
            inst.valuation, inst.budget, inst.units, inst.costs,
            tuple(range(inst.m)),
        )
        opt = brute_force_optimum(inst)[1]
        if 8 * run.winner_value < opt:
            violations += 1
    elapsed = time.time() - start
    _verdict(
        6,
        "a_max factor 8",
        violations == 0 and elapsed < 120,
        f"({len(corpus)} instances, {elapsed:.1f}s, {violations} violations)",
    )


def test_criterion_7_nonmonotone_regression():
    inst = greedy_nonmonotone_instance()
    e = Rat(1, 100)
    high = greedy_marginal(inst)
    low = greedy_marginal(inst, (Rat(1), 1 - e, Rat(1)))
    ok = (
        [s.chosen for s in high] == [0, 1, 1]
        and high[-1].after == (1, 2, 0)
        and high[0].marginals == (Rat(10), 10 + e, 10 - e)
        and high[1].marginals == (Rat(0), 5 + 5 * e, 5 - e)
        and high[2].marginals == (Rat(0), 1 + e, 1 - e)
        and [s.chosen for s in low] == [1, 2, 2]
        and low[-1].after == (0, 1, 2)
        and low[1].marginals == (5 + 4 * e, 5 - 5 * e, 5 + 5 * e)
        and low[2].marginals == (1 - 2 * e, 1 - e, 1 + e)
    )
    _verdict(7, "non-monotonicity regression", ok,
             f"(final allocations {high[-1].after} / {low[-1].after})")


def test_criterion_8_dst_suite():
    start = time.time()
    failures = {}
    counts = {}
    for mech, corpus in dst_corpora().items():
        bad = 0
        for inst in corpus:
            bad += sum(1 for c in check_dst(mech, inst) if not c.passed)
        failures[mech] = bad
        counts[mech] = len(corpus)
    # harness sensitivity: the pay-as-bid mutation must be caught
    probe = first_price_probe()
    broken = [c for c in check_dst("m_add_firstprice", probe) if not c.passed]
    sensitive = bool(broken) and all(
        replay_witness("m_add_firstprice", probe, c.witness) for c in broken
    )
    elapsed = time.time() - start
    ok = all(v == 0 for v in failures.values()) and sensitive
    _verdict(
        8,
        "DST suite",
        ok,
        f"(corpus sizes {counts}, failures {failures}, "
        f"mutated fixture caught={sensitive}, {elapsed:.1f}s)",
    )


def test_criterion_9_budget_in_expectation():
    bad_expected = 0
    bad_realization = 0
    checked = 0
    for mech, corpus in budget_corpora().items():
        for inst in corpus:
            if inst.m > 10:
                continue
            checked += 1
            if expected_payment(mech, inst) > float(inst.budget) + 1e-9:
                bad_expected += 1
            if mech in ("m_rand", "m_sub"):
                for scen, out in scenario_outcomes(mech, inst):
                    if scen.branch.startswith("rand:"):
                        if out.total_payment > inst.budget:
                            bad_realization += 1
    _verdict(
        9,
        "budget in expectation",
        bad_expected == 0 and bad_realization == 0,
        f"({checked} mechanism-instance pairs, expected violations "
        f"{bad_expected}, realization violations {bad_realization})",
    )


def test_criterion_10_ratio_sweep_and_partition_event(tmp_path):
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(
        cli_main,
        ["ratio-sweep", "--n-min", "4", "--n-max", "64", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.reader(fh))
    sweep_ok = len(rows) == 1 + 61 * 2 and rows[0][0] == "n"

    # Exact partition-event frequency >= 1/4 in the hypothesis regime
    # (single-item optimum below half the full optimum).  Value spread
    # across many small sellers keeps any one seller's share low.
    spread_family = [
        Instance(
            tuple(Seller(units, Rat(1)) for _ in range(m)),
            Rat(m * units),
            BoundedKnapsack(tuple(Rat(v) for v in values)),
        )
        for m, units, values in (
            (4, 2, (1, 1, 1, 1)),
            (5, 2, (2, 2, 2, 2, 2)),
            (6, 1, (1, 1, 1, 1, 1, 1)),
            (5, 2, (3, 2, 2, 2, 3)),
            (6, 2, (1, 2, 1, 2, 1, 2)),
        )
    ]
    regime = []
    candidates = (
        spread_family
        + list(explicit_subadditive_corpus())
        + list(concave_corpus()[:200])
    )
    for inst in candidates:
        plan = plan_m_one(inst)
        single = inst.value(unit_vector(inst.m, plan.winner, plan.count))
        opt = optimal_allocation(inst)[1]
        if 2 * single < opt:
            regime.append(inst)
    low_freq = [
        (freq, inst.m)
        for inst in regime
        for freq in (partition_success_frequency(inst),)
        if freq < Rat(1, 4)
    ]
    _verdict(
        10,
        "ratio sweep + partition event",
        sweep_ok and not low_freq and len(regime) >= 5,
        f"(csv rows {len(rows) - 1}, regime instances {len(regime)}, "
        f"below-quarter {len(low_freq)})",
    )
