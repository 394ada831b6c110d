"""Instance files and seeded instance generators.

This module owns the instance file format: it alone reads and writes JSON,
valuation sections included, from one table that states each valuation
type for both reading and writing.  Files have a fixed field order and
rationals as strings, so serialize(parse(text)) is byte-identical for
files this module writes.  Every parse error is an InstanceFormatError
that starts with the JSON path of the bad field, such as
``$.valuation.margins[0][1]``.  Generators are deterministic in their seed
(MT19937 via random.Random).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import tempfile

from .core import (
    Instance,
    InvalidField,
    ProcurementError,
    Rat,
    SearchSpaceTooLarge,
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
    check_classifiable,
    classify,
    domain,
)

FILE_VERSION = "1"


class InstanceFormatError(ProcurementError):
    """Instance file violates the schema; the message names the bad path."""


class GenerationError(ProcurementError):
    """A generator's bounds admit no draw, or rejection sampling ran out."""


# Readers: each takes a JSON value and its path, and raises an
# InstanceFormatError that starts with that path.


def _typed(val, path, kind):
    # bool is an int subclass, but JSON true/false is never a count.
    if not isinstance(val, kind) or isinstance(val, bool):
        raise InstanceFormatError(
            f"{path}: expected {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _rat(val, path):
    try:
        return parse_rat(_typed(val, path, str))
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def _field(obj, key, path, read, *args):
    """``read(obj[key], <path>.<key>, *args)``; obj must be an object with key."""
    if not isinstance(obj, dict) or key not in obj:
        raise InstanceFormatError(f"{path}: missing field {key!r}")
    return read(obj[key], f"{path}.{key}", *args)


def _array(val, path, read, *args):
    """A tuple of ``read(x, <path>[i], *args)`` over the array's elements."""
    items = _typed(val, path, list)
    return tuple(read(x, f"{path}[{i}]", *args) for i, x in enumerate(items))


def _seller(obj, path):
    units = _field(obj, "units", path, _typed, int)
    cost = _field(obj, "cost", path, _rat)
    try:
        return Seller(units, cost)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def _bid(val, path):
    bid = _rat(val, path)
    if bid < 0:
        raise InstanceFormatError(f"{path}: bids must be >= 0")
    return bid


def _table_row(obj, path):
    alloc = _field(obj, "alloc", path, _array, _typed, int)
    return alloc, _field(obj, "value", path, _rat)


# Each valuation type's class, and the fields its constructor takes in
# order, each with the readers of its value.  The class's dataclass fields
# hold the values in the same order, and the readers say how to write them.
_VALUATION_TYPES = {
    "bounded_knapsack": (BoundedKnapsack, (("values", _array, _rat),)),
    "concave_additive": (ConcaveAdditive, (("margins", _array, _array, _rat),)),
    "additive": (Additive, (("margins", _array, _array, _rat),)),
    "symmetric": (Symmetric, (("margins", _array, _rat),)),
    "explicit": (
        Explicit,
        (("caps", _array, _typed, int), ("table", _array, _table_row)),
    ),
}


def _to_json(value, read):
    """The JSON value that the reader chain ``read`` turns into ``value``."""
    first, *rest = read
    if first is _array:
        return [_to_json(x, rest) for x in value]
    if first is _table_row:
        return {"alloc": list(value[0]), "value": format_rat(value[1])}
    return format_rat(value) if first is _rat else value  # _typed keeps an int


def valuation_to_json(valuation) -> dict:
    """JSON form of a valuation, named by the first table type it is an
    instance of (so a ConcaveAdditive writes as ``concave_additive``)."""
    for kind, (family, fields) in _VALUATION_TYPES.items():
        if isinstance(valuation, family):
            values = (getattr(valuation, f.name) for f in dataclasses.fields(family))
            return {"type": kind} | {
                key: _to_json(v, read) for (key, *read), v in zip(fields, values)
            }
    raise TypeError(f"unknown valuation type {type(valuation).__name__}")


def valuation_from_json(data):
    """The valuation a file's ``$.valuation`` section describes."""
    path = "$.valuation"
    kind = _field(data, "type", path, _typed, str)
    if kind not in _VALUATION_TYPES:
        raise InstanceFormatError(f"{path}.type: unknown valuation type {kind!r}")
    family, fields = _VALUATION_TYPES[kind]
    args = [_field(data, key, path, *read) for key, *read in fields]
    try:
        return family(*args)
    except (ProcurementError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def parse_instance(text: str):
    """Parse an instance file; returns (Instance, bids-override or None)."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise InstanceFormatError(f"$: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InstanceFormatError("$: JSON nested too deeply") from exc
    version = _field(obj, "version", "$", _typed, str)
    if version != FILE_VERSION:
        raise InstanceFormatError(f"$.version: unsupported version {version!r}")
    budget = _field(obj, "budget", "$", _rat)
    sellers = _field(obj, "sellers", "$", _array, _seller)
    valuation = valuation_from_json(_field(obj, "valuation", "$", _typed, dict))
    try:
        inst = Instance(sellers, budget, valuation)
    except InvalidField as exc:
        raise InstanceFormatError(f"$.{exc.field}: {exc}") from exc
    except SearchSpaceTooLarge as exc:
        raise InstanceFormatError(f"$.sellers: {exc}") from exc
    except (ProcurementError, ValueError) as exc:
        raise InstanceFormatError(f"$.valuation: {exc}") from exc
    bids = None
    if "bids" in obj:
        bids = _field(obj, "bids", "$", _array, _bid)
        if len(bids) != inst.m:
            raise InstanceFormatError("$.bids: length mismatch with sellers")
    return inst, bids


def serialize_instance(inst: Instance, bids=None) -> str:
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
    return json.dumps(obj, indent=2) + "\n"


def load_instance(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"$: not valid UTF-8 ({exc})") from exc
    return parse_instance(text)


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

# Tables gen_explicit_subadditive draws before it gives up on a seed.
SUBADDITIVE_ATTEMPTS = 60


def _check_bound(name, value, low, high=None):
    """Refuse, before any draw, a generator bound that no draw can meet."""
    if value < low or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise GenerationError(f"{name} must be {span}, got {value}")


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


def _draw_market(rng, max_sellers, max_total_units):
    """Sellers and budget of one draw: m, then units, budget and costs."""
    m = rng.randint(1, max_sellers)
    units = _split_units(rng, m, max_total_units)
    budget = Rat(rng.randint(8, 40))
    costs = [_rand_cost(rng, budget) for _ in range(m)]
    return tuple(Seller(n, c) for n, c in zip(units, costs)), budget


def gen_concave_additive(seed, max_sellers=5, max_total_units=12) -> Instance:
    _check_bound("max_sellers", max_sellers, 1, max_total_units)
    rng = random.Random(seed)
    while True:
        sellers, budget = _draw_market(rng, max_sellers, max_total_units)
        margins = []
        for s in sellers:
            mm = sorted((_rand_margin(rng) for _ in range(s.units)), reverse=True)
            if rng.random() < 0.15:
                mm[-1] = Rat(0)
            margins.append(tuple(mm))
        if any(v > 0 for mm in margins for v in mm):
            return Instance(sellers, budget, ConcaveAdditive(tuple(margins)))


def gen_bounded_knapsack(seed, max_sellers=5, max_total_units=12) -> Instance:
    _check_bound("max_sellers", max_sellers, 1, max_total_units)
    rng = random.Random(seed)
    while True:
        sellers, budget = _draw_market(rng, max_sellers, max_total_units)
        values = tuple(_rand_margin(rng) for _ in sellers)
        if any(v > 0 for v in values):
            return Instance(sellers, budget, BoundedKnapsack(values))


def gen_symmetric(seed, max_sellers=5, max_total_units=12) -> Instance:
    _check_bound("max_sellers", max_sellers, 1, max_total_units)
    rng = random.Random(seed)
    while True:
        sellers, budget = _draw_market(rng, max_sellers, max_total_units)
        margins = [_rand_margin(rng) for _ in range(sum(s.units for s in sellers))]
        if rng.random() < 0.7:
            margins.sort(reverse=True)
        if any(v > 0 for v in margins):
            return Instance(sellers, budget, Symmetric(tuple(margins)))


def gen_explicit_subadditive(seed, max_sellers=3, max_cap=2) -> Instance:
    """Monotone sub-additive explicit table, validated by the classifier.

    Base construction is an additive value capped at a ceiling (provably
    sub-additive); a small multiplicative perturbation is then accepted only
    if the classifier still certifies sub-additivity.  Caps the classifier
    would refuse are refused before any table is built.
    """
    _check_bound("max_sellers", max_sellers, 2)
    _check_bound("max_cap", max_cap, 1)
    rng = random.Random(seed)
    m = rng.randint(2, max_sellers)
    caps = tuple(rng.randint(1, max_cap) for _ in range(m))
    check_classifiable(caps)
    for _ in range(SUBADDITIVE_ATTEMPTS):
        per_item = []
        for c in caps:
            mm = sorted(
                (Rat(rng.randint(1, 16), rng.choice((1, 2))) for _ in range(c)),
                reverse=True,
            )
            per_item.append(mm)
        additive = Additive(per_item)
        ceiling = additive.value(caps) * Rat(rng.randint(5, 9), 10)
        noisy = rng.random() < 0.5

        def base(alloc):
            v = min(additive.value(alloc), ceiling)
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
        f"no sub-additive table found in {SUBADDITIVE_ATTEMPTS} attempts"
        f" for seed {seed!r}"
    )

