"""Instance file I/O and seeded instance generators.

Files are JSON with a fixed field order and rationals as strings, so
serialize(parse(text)) is byte-identical for files this module writes.
Generators are deterministic in their seed (MT19937 via random.Random).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile

from .core import (
    Instance,
    ProcurementError,
    Rat,
    Seller,
    format_rat,
    parse_rat,
)
from .valuations import (
    Additive,
    BoundedKnapsack,
    ConcaveAdditive,
    Explicit,
    Symmetric,
    classify,
    domain,
    valuation_from_json,
    valuation_to_json,
)

FILE_VERSION = "1"


class InstanceFormatError(ProcurementError):
    """Instance file violates the schema; the message names the bad path."""


class GenerationError(ProcurementError):
    """Rejection sampling exhausted its retry budget."""


def instance_to_obj(inst: Instance, bids=None) -> dict:
    obj = {
        "version": FILE_VERSION,
        "budget": format_rat(inst.budget),
        "sellers": [
            {"units": s.units, "cost": format_rat(s.cost)} for s in inst.sellers
        ],
        "valuation": valuation_to_json(inst.valuation),
    }
    if bids is not None:
        obj["bids"] = [format_rat(Rat(b)) for b in bids]
    return obj


def serialize_instance(inst: Instance, bids=None) -> str:
    return json.dumps(instance_to_obj(inst, bids), indent=2) + "\n"


def _expect(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise InstanceFormatError(f"{path}: missing field {key!r}")
    val = obj[key]
    # bool is an int subclass, but JSON true/false is never a count.
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise InstanceFormatError(
            f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _rat_field(obj, key, path):
    raw = _expect(obj, key, path, str)
    try:
        return parse_rat(raw)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}.{key}: {exc}") from exc


def parse_instance(text: str):
    """Parse an instance file; returns (Instance, bids-override or None)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"$: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InstanceFormatError("$: JSON nested too deeply") from exc
    version = _expect(obj, "version", "$", str)
    if version != FILE_VERSION:
        raise InstanceFormatError(f"$.version: unsupported version {version!r}")
    budget = _rat_field(obj, "budget", "$")
    sellers_raw = _expect(obj, "sellers", "$", list)
    sellers = []
    for idx, s in enumerate(sellers_raw):
        path = f"$.sellers[{idx}]"
        units = _expect(s, "units", path, int)
        cost = _rat_field(s, "cost", path)
        try:
            sellers.append(Seller(units, cost))
        except ValueError as exc:
            raise InstanceFormatError(f"{path}: {exc}") from exc
    val_raw = _expect(obj, "valuation", "$", dict)
    try:
        valuation = valuation_from_json(val_raw)
        inst = Instance(tuple(sellers), budget, valuation)
    except (ProcurementError, ValueError) as exc:
        raise InstanceFormatError(f"$.valuation: {exc}") from exc
    bids = None
    if "bids" in obj:
        raw = _expect(obj, "bids", "$", list)
        if len(raw) != inst.m:
            raise InstanceFormatError("$.bids: length mismatch with sellers")
        bids = []
        for idx, b in enumerate(raw):
            try:
                bids.append(parse_rat(b))
            except (TypeError, ValueError) as exc:
                raise InstanceFormatError(f"$.bids[{idx}]: {exc}") from exc
            if bids[-1] < 0:
                raise InstanceFormatError(f"$.bids[{idx}]: bids must be >= 0")
        bids = tuple(bids)
    return inst, bids


def load_instance(path):
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(path, inst: Instance, bids=None) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    text = serialize_instance(inst, bids)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Seeded generators.  All draw from random.Random(seed) and nothing else.

def _split_units(rng, m, max_total):
    units = []
    remaining = max_total - m
    for _ in range(m):
        extra = rng.randint(0, min(2, remaining))
        units.append(1 + extra)
        remaining -= extra
    return units


def _rand_cost(rng, budget):
    if rng.random() < 0.05:
        return Rat(0)
    den = rng.choice((1, 2, 4))
    return Rat(rng.randint(1, int(budget) * den), den)


def _rand_margin(rng):
    return Rat(rng.randint(0, 24), rng.choice((1, 2)))


def gen_concave_additive(seed, max_sellers=5, max_total_units=12) -> Instance:
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, max_sellers)
        units = _split_units(rng, m, max_total_units)
        budget = Rat(rng.randint(8, 40))
        costs = [_rand_cost(rng, budget) for _ in range(m)]
        margins = []
        for n in units:
            mm = sorted((_rand_margin(rng) for _ in range(n)), reverse=True)
            if rng.random() < 0.15:
                mm[-1] = Rat(0)
            margins.append(tuple(mm))
        if any(v > 0 for mm in margins for v in mm):
            sellers = tuple(Seller(n, c) for n, c in zip(units, costs))
            return Instance(sellers, budget, ConcaveAdditive(tuple(margins)))


def gen_bounded_knapsack(seed, max_sellers=5, max_total_units=12) -> Instance:
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, max_sellers)
        units = _split_units(rng, m, max_total_units)
        budget = Rat(rng.randint(8, 40))
        costs = [_rand_cost(rng, budget) for _ in range(m)]
        values = tuple(_rand_margin(rng) for _ in range(m))
        if any(v > 0 for v in values):
            sellers = tuple(Seller(n, c) for n, c in zip(units, costs))
            return Instance(sellers, budget, BoundedKnapsack(values))


def gen_symmetric(seed, max_sellers=5, max_total_units=12) -> Instance:
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, max_sellers)
        units = _split_units(rng, m, max_total_units)
        budget = Rat(rng.randint(8, 40))
        costs = [_rand_cost(rng, budget) for _ in range(m)]
        margins = [_rand_margin(rng) for _ in range(sum(units))]
        if rng.random() < 0.7:
            margins.sort(reverse=True)
        if any(v > 0 for v in margins):
            sellers = tuple(Seller(n, c) for n, c in zip(units, costs))
            return Instance(sellers, budget, Symmetric(tuple(margins)))


def gen_additive(seed, max_sellers=5, max_total_units=12) -> Instance:
    """Additive margins with no concavity requirement."""
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, max_sellers)
        units = _split_units(rng, m, max_total_units)
        budget = Rat(rng.randint(8, 40))
        costs = [_rand_cost(rng, budget) for _ in range(m)]
        margins = tuple(
            tuple(_rand_margin(rng) for _ in range(n)) for n in units
        )
        if any(v > 0 for mm in margins for v in mm):
            sellers = tuple(Seller(n, c) for n, c in zip(units, costs))
            return Instance(sellers, budget, Additive(margins))


def gen_explicit_monotone(seed, max_items=3, max_cap=2) -> Instance:
    """Random monotone explicit table; generally neither additive nor concave."""
    rng = random.Random(seed)
    m = rng.randint(2, max_items)
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


def gen_explicit_subadditive(
    seed, max_items=3, max_cap=2, retries=60
) -> Instance:
    """Monotone sub-additive explicit table, validated by the classifier.

    Base construction is an additive value capped at a ceiling (provably
    sub-additive); a small multiplicative perturbation is then accepted only
    if the classifier still certifies sub-additivity.
    """
    rng = random.Random(seed)
    m = rng.randint(2, max_items)
    caps = tuple(rng.randint(1, max_cap) for _ in range(m))
    for _ in range(retries):
        per_item = []
        for c in caps:
            mm = sorted(
                (Rat(rng.randint(1, 16), rng.choice((1, 2))) for _ in range(c)),
                reverse=True,
            )
            per_item.append(mm)
        total = sum((sum(mm, Rat(0)) for mm in per_item), Rat(0))
        ceiling = total * Rat(rng.randint(5, 9), 10)
        noisy = rng.random() < 0.5

        def base(alloc):
            raw = sum(
                (sum(per_item[i][: alloc[i]], Rat(0)) for i in range(m)),
                Rat(0),
            )
            v = min(raw, ceiling)
            if noisy and any(alloc):
                v = v * (1 + Rat(rng.randint(0, 2), 50))
            return v

        table = {alloc: base(alloc) for alloc in domain(caps)}
        try:
            valuation = Explicit.from_mapping(caps, table)
        except ProcurementError:
            continue
        if "subadditive" not in classify(valuation, caps):
            continue
        budget = Rat(rng.randint(8, 40))
        sellers = tuple(Seller(c, _rand_cost(rng, budget)) for c in caps)
        return Instance(sellers, budget, valuation)
    raise GenerationError(
        f"no sub-additive table found in {retries} attempts for seed {seed!r}"
    )


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
