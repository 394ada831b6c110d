"""Build, run and digest benchmark items through procure's public functions.

Functions are looked up on their modules at call time, so that the traced
run's wrappers see every call the bench makes.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from procure import core, instances, mech_additive, oracles, verify  # noqa: E402

from plan import kind_of  # noqa: E402


def make(item_id: str):
    """The instance of a pool item."""
    kind = kind_of(item_id)
    arg = int(item_id.partition(":")[2])
    if kind.generator == "adversarial":
        return oracles.adversarial_single_seller(arg, arg, arg)
    return getattr(instances, kind.generator)(arg, **kind.sizes)


def run(item_id: str, inst, inst_digest: str):
    """One closed-loop request: what ``procure verify`` or a greedy run does."""
    kind = kind_of(item_id)
    if kind.call == "verify":
        reports = verify.verify_instance(inst, [kind.mech], digest=inst_digest)
        for report in reports:
            report.json_lines()
        return reports
    runner = mech_additive.run_m_add if kind.mech == "m_add" else mech_additive.run_m_sym
    return runner(inst, None, "greedy")


def exact_fields(output) -> list:
    """The exact part of an item's output, rationals formatted by format_rat.

    Allocations, payments, optimum values and (check, verdict) pairs only;
    float fields (expected value, ratio, bound, phi) stay out.
    """
    if isinstance(output, core.Outcome):
        return [
            "allocation", *map(str, output.allocation),
            "payments", *map(core.format_rat, output.payments),
        ]
    fields = []
    for report in output:
        fields += [report.instance_digest, report.mechanism]
        skipped = (report.notes or {}).get("skipped")
        if skipped:
            fields.append(f"skipped:{skipped}")
        fields += [f"{c.name}={'pass' if c.passed else 'fail'}" for c in report.checks]
        if report.ratio is not None:
            fields += [report.ratio.benchmark, core.format_rat(report.ratio.optimum)]
    return fields


def digest(inst_digest: str, output) -> str:
    text = "\n".join([inst_digest, *exact_fields(output)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def backend() -> str:
    return f"{core.Rat.__module__}.{core.Rat.__qualname__}"
