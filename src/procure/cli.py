"""Command-line interface: run mechanisms, verify properties, generate
instances, and sweep measured ratios into CSV."""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
import sys
from contextlib import contextmanager

import click

from .core import ProcurementError, format_rat, is_budget_feasible, parse_rat
from .instances import (
    gen_bounded_knapsack,
    gen_concave_additive,
    gen_explicit_subadditive,
    gen_symmetric,
    instance_digest,
    load_instance,
    save_instance,
    serialize_instance,
)
from .mech_subadditive import phi
from .oracles import adversarial_single_seller
from .verify import (
    CSV_HEADER,
    GRID,
    MECHANISM_IDS,
    MECHANISMS,
    measure_ratio,
    verify_instance,
)


@click.group()
def main():
    """Budget-feasible multi-unit procurement mechanisms."""


@contextmanager
def _naming(path):
    """Turn a ProcurementError or OSError while reading or writing ``path``
    into a one-line error that names it."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"{path}: {exc.strerror or exc}")
    except ProcurementError as exc:
        raise click.ClickException(f"{path}: {exc}")


@main.command("run")
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--mechanism", "-m", required=True, type=click.Choice(tuple(MECHANISMS))
)
@click.option("--scenario", default=None, help="Replay a fixed branch descriptor.")
@click.option("--seed", default=0, show_default=True, type=int)
def cmd_run(instance_path, mechanism, scenario, seed):
    """Run one (sampled or replayed) realization and print the outcome."""
    with _naming(instance_path):
        inst, bids = load_instance(instance_path)
    try:
        lottery = MECHANISMS[mechanism]
        branch = scenario or lottery.sample(inst, random.Random(seed))
        outcome = lottery.run(inst, bids, branch)
    except (ProcurementError, ValueError) as exc:
        raise click.ClickException(str(exc))
    click.echo(
        json.dumps(
            {
                "instance": instance_digest(inst),
                "mechanism": mechanism,
                "scenario": branch,
                "allocation": list(outcome.allocation),
                "payments": [format_rat(p) for p in outcome.payments],
                "value": format_rat(inst.value(outcome.allocation)),
                "total_payment": format_rat(outcome.total_payment),
                "budget_feasible": is_budget_feasible(outcome, inst.budget),
            },
            indent=2,
        )
    )


_GENERATORS = {
    "concave-additive": gen_concave_additive,
    "bounded-knapsack": gen_bounded_knapsack,
    "symmetric": gen_symmetric,
    "explicit-subadditive": gen_explicit_subadditive,
}


def _verify_targets(specs):
    """Instances from file paths or gen:<family>:<count>:<seed> specs.  All
    specs are parsed and files loaded at once; generated instances are built
    one at a time as the result is iterated."""
    batches = []
    for spec in specs:
        if spec.startswith("gen:"):
            try:
                _, family, count, seed = spec.split(":")
                generator = _GENERATORS[family]
                count, seed = int(count), int(seed)
            except (ValueError, KeyError):
                raise click.UsageError(
                    f"bad generator spec {spec!r}; use "
                    "gen:<family>:<count>:<first-seed>"
                )
            if count < 1:
                raise click.UsageError(
                    f"bad generator spec {spec!r}; the count must be >= 1"
                )
            batches.append(map(generator, range(seed, seed + count)))
        else:
            with _naming(spec):
                batches.append((load_instance(spec)[0],))
    return itertools.chain.from_iterable(batches)


@main.command("verify")
@click.argument("targets", nargs=-1, required=True)
@click.option(
    "--mechanism",
    "mechanisms",
    multiple=True,
    type=click.Choice(tuple(MECHANISMS)),
    help="Mechanisms to check (default: all five).",
)
@click.option(
    "--grid", default=GRID, show_default=True, type=click.IntRange(min=1),
    help="Uniform deviation grid size.",
)
@click.option("--strict", is_flag=True, help="Sweep opponent bids on tiny instances.")
@click.option("--out", type=click.Path(file_okay=False), default=None)
def cmd_verify(targets, mechanisms, grid, strict, out):
    """Check truthfulness, IR, budget bounds, and ratios; exit 0 iff clean.

    TARGETS are instance files or seeded batches written as
    gen:<family>:<count>:<first-seed>.
    """
    mechanisms = mechanisms or MECHANISM_IDS
    instances = _verify_targets(targets)
    if out:
        with _naming(out):
            os.makedirs(out, exist_ok=True)
    reports = []
    for inst in instances:
        digest = instance_digest(inst)
        reports.extend(
            verify_instance(inst, mechanisms, grid, strict, digest=digest)
        )
    failures = 0
    for rep in reports:
        status = "skip" if rep.notes and "skipped" in rep.notes else (
            "ok" if rep.fail_count == 0 else "FAIL"
        )
        ratio = f" ratio={rep.ratio.ratio:.4g}" if rep.ratio else ""
        click.echo(
            f"{rep.instance_digest} {rep.mechanism}: {status} "
            f"pass={rep.pass_count} fail={rep.fail_count}{ratio}"
        )
        failures += rep.fail_count
    if out:
        with _naming(out):
            with open(os.path.join(out, "reports.jsonl"), "w") as fh:
                for rep in reports:
                    fh.write("\n".join(rep.json_lines()) + "\n")
            with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_HEADER)
                for rep in reports:
                    writer.writerow(rep.csv_row())
    sys.exit(0 if failures == 0 else 1)


FAMILIES = (*_GENERATORS, "adversarial")


@main.command("generate")
@click.option("--family", required=True, type=click.Choice(FAMILIES))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--sellers", default=3, show_default=True, type=int)
@click.option("--n", default=8, show_default=True, type=int, help="Adversarial: total units.")
@click.option("--k", default=None, type=int, help="Adversarial: cost = budget/k (default n).")
@click.option("--budget", default=None, help="Adversarial: budget as p/q (default n).")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def cmd_generate(family, seed, sellers, n, k, budget, out):
    """Generate a seeded instance file (stdout unless --out)."""
    try:
        if family == "adversarial":
            inst = adversarial_single_seller(
                n, parse_rat(budget) if budget else n, k if k is not None else n
            )
        else:
            inst = _GENERATORS[family](seed, max_sellers=sellers)
    except (ProcurementError, ValueError) as exc:
        raise click.ClickException(str(exc))
    if out:
        with _naming(out):
            save_instance(out, inst)
        click.echo(f"wrote {out} ({instance_digest(inst)})")
    else:
        click.echo(serialize_instance(inst), nl=False)


# Largest n a sweep may reach: 400 units is the largest greedy run the bench
# times.  The greedy branch costs O(n log n + m*n) integer operations and the
# knapsack DP optimum O(n^2) on this family: 0.012 s at n = 400 and 0.09 s at
# n = 1,000 (Python 3.11, Fraction backend, 2 cores), about half of a point.
RATIO_SWEEP_MAX_N = 400


@main.command("ratio-sweep")
@click.option("--n-min", default=4, show_default=True, type=click.IntRange(min=1))
@click.option(
    "--n-max", default=64, show_default=True, type=click.IntRange(1, RATIO_SWEEP_MAX_N)
)
@click.option(
    "--mechanism",
    "mechanisms",
    multiple=True,
    type=click.Choice(("m_add", "m_sub")),
    help="Default: both.",
)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_ratio_sweep(n_min, n_max, mechanisms, out):
    """Measured ratio vs n on the single-seller worst-case family (k = n)."""
    if n_min > n_max:
        raise click.UsageError(f"--n-min {n_min} is above --n-max {n_max}")
    mechanisms = mechanisms or ("m_add", "m_sub")
    with _naming(out):
        fh = open(out, "w", newline="")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "mechanism", "expected_value", "optimum", "ratio",
             "greedy_lottery_bound", "acceptance_factor"]
        )
        for n in range(n_min, n_max + 1):
            inst = adversarial_single_seller(n, n, n)
            for mech in mechanisms:
                rep = measure_ratio(mech, inst)
                writer.writerow(
                    [
                        n,
                        mech,
                        rep.expected_value,
                        format_rat(rep.optimum),
                        rep.ratio,
                        MECHANISMS["m_add"].bound(n),
                        phi(n),
                    ]
                )
    click.echo(f"wrote {out} ({(n_max - n_min + 1) * len(mechanisms)} rows)")


if __name__ == "__main__":
    main()
