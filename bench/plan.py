"""Workload definitions and run plans; imports nothing from procure.

A workload is a list of item kinds.  Each kind has a fixed pool of
instances, made by a seeded generator from a fixed seed range, and the pool
is cut into strata of ``depth`` items of similar cost (by the reference
cost recorded in ``digests.json``).  A run takes one item from every stratum
per round, chosen by the bench seed, so different seeds run different
instances of about the same total cost.  One round takes about
``ROUND_SECONDS`` on the reference machine (2 cores, Python 3.11, the
``Fraction`` backend).

The pools' generator seeds are disjoint from the offsets the test suite
uses in ``tests/corpora.py`` (81-83, 1000-1499, 3000-3119, 5000-5639 and
7000-7504), so a claim made on the bench can be rechecked on seeds that
neither the tests nor the bench use.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
ROUND_SECONDS = 15


@dataclass(frozen=True)
class Kind:
    """One kind of item: how to build its instances and what to call."""

    name: str
    call: str  # "verify" (verify_instance + json_lines) or "greedy"
    mech: str
    generator: str  # a procure.instances generator, or "adversarial"
    sizes: dict = field(default_factory=dict)  # generator size arguments
    base: int = 0  # first generator seed of the pool
    strata: int = 1
    depth: int = 2

    def pool(self) -> list:
        if self.generator == "adversarial":
            return [f"{self.name}:{self.sizes['n']}"]
        return [f"{self.name}:{self.base + k}" for k in range(self.strata * self.depth)]


LADDERS = 3  # greedy-large: each round climbs the size ladder this many times

WORKLOADS = {
    # m_add and m_sym items 3:1; the test suite's DST sweep runs about 4:1.
    "dst-additive": (
        Kind("m_add", "verify", "m_add", "gen_concave_additive", base=100_000, strata=48),
        Kind("m_sym", "verify", "m_sym", "gen_symmetric", base=110_000, strata=16),
    ),
    # Explicit tables take the enumerated demand path, small concave
    # instances the closed form; m_sub adds the single-item branch.
    "dst-sampling": (
        Kind("m_rand-table", "verify", "m_rand", "gen_explicit_subadditive", base=120_000, strata=14),
        Kind("m_rand-small", "verify", "m_rand", "gen_concave_additive",
             {"max_sellers": 3}, base=130_000, strata=14),
        Kind("m_sub-table", "verify", "m_sub", "gen_explicit_subadditive", base=140_000, strata=8),
        Kind("m_sub-small", "verify", "m_sub", "gen_concave_additive",
             {"max_sellers": 3}, base=150_000, strata=8),
    ),
    # One greedy-branch call per item: wide generated instances and the
    # single-seller family adversarial_single_seller(n, n, n) on a ladder of n.
    "greedy-large": (
        Kind("add-wide", "greedy", "m_add", "gen_concave_additive",
             {"max_sellers": 150, "max_total_units": 450}, base=160_000, strata=LADDERS),
        Kind("sym-wide", "greedy", "m_sym", "gen_symmetric",
             {"max_sellers": 100, "max_total_units": 300}, base=170_000, strata=LADDERS),
    )
    + tuple(
        Kind(f"adv{n}", "greedy", "m_add", "adversarial", {"n": n}, strata=LADDERS)
        for n in (100, 141, 200, 283, 400)
    ),
}


def kind_of(item_id: str) -> Kind:
    name, _, _ = item_id.partition(":")
    for kinds in WORKLOADS.values():
        for kind in kinds:
            if kind.name == name:
                return kind
    raise KeyError(f"unknown item kind in {item_id!r}")


def load_digests() -> dict:
    """Recorded exact digest and reference cost of every pool item."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def strata(kind: Kind, recorded: dict) -> list:
    """The kind's pool cut into strata of ``depth`` items, cheapest first."""
    pool = kind.pool()
    if len(pool) == 1:
        return [pool] * kind.strata
    missing = [i for i in pool if i not in recorded]
    if missing:
        raise KeyError(f"{len(missing)} pool items have no recorded digest, e.g. {missing[0]}")
    pool.sort(key=lambda i: (recorded[i]["ref_ms"], i))
    return [pool[s * kind.depth : (s + 1) * kind.depth] for s in range(kind.strata)]


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill ``seconds`` at reference speed, at least one.

    Capped at the strata depth, so that no instance runs twice in a process
    (a repeated instance would find the demand cache warm).
    """
    depth = min(k.depth for k in WORKLOADS[workload] if k.generator != "adversarial")
    return max(1, min(depth, round(seconds / ROUND_SECONDS)))


def make_plan(workload: str, seed: int, seconds: float, recorded: dict, subset=False) -> list:
    """Item ids of one run, in run order; the same arguments give the same plan.

    ``subset`` keeps every fourth stratum of each kind, which is the smaller
    item set of the traced and counting runs.
    """
    rng = random.Random(f"{workload}/{seed}")
    chosen = []
    for kind in WORKLOADS[workload]:
        for s, members in enumerate(strata(kind, recorded)):
            order = rng.sample(members, len(members))
            if not subset or s % 4 == 0:
                chosen.append(order)
    plan = []
    for r in range(rounds_for(workload, seconds)):
        batch = [order[r % len(order)] for order in chosen]
        rng.shuffle(batch)
        plan += batch
    return plan
