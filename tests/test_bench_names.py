"""The bench names only real functions of the package.

``bench/tracing.py`` wraps each ``module.function`` of ``LAYER_METRICS`` by
name, ``bench/plan.py`` names each workload's generators and mechanisms,
and ``bench/items.py`` and ``bench/run.py`` call the package through module
attributes, so renaming or deleting any of them breaks only a bench run.
These tests catch that in the ordinary suite.  The traced run also counts a ``demand``
call as a cache hit when ``valuations._demand_caches`` maps the valuation
to a dict that the call did not grow, and it predicts ``demand`` calls on
dst-sampling, which come from ``a_max`` through the public ``demand``; the
last two tests pin those.
"""

import ast
import importlib.util
import sys
from pathlib import Path

from procure import core, instances, mech_additive, mech_subadditive, oracles, valuations, verify
from procure.core import Rat

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_layer_metrics_name_public_functions():
    tracing = _load("tracing")
    public = tracing.layer_functions()
    missing = [fn for fn, _, _ in tracing.LAYER_METRICS if fn not in public]
    assert not missing, f"LAYER_METRICS names no public procure function: {missing}"


def test_workloads_name_generators_and_mechanisms():
    kinds = [kind for kinds in _load("plan").WORKLOADS.values() for kind in kinds]
    generators = {k.generator for k in kinds} - {"adversarial"}
    assert generators and all(callable(getattr(instances, g, None)) for g in generators)
    assert {k.mech for k in kinds} <= set(verify.MECHANISMS)


def test_bench_reads_existing_attributes():
    modules = {
        m.__name__.rpartition(".")[2]: m for m in (core, instances, mech_additive, oracles, verify)
    }
    read = {
        (node.value.id, node.attr)
        for name in ("items.py", "run.py")
        for node in ast.walk(ast.parse((BENCH / name).read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert read
    missing = [f"{m}.{a}" for m, a in sorted(read) if not hasattr(modules[m], a)]
    assert not missing, f"the bench reads attributes procure lacks: {missing}"


def test_demand_cache_grows_by_one_per_new_query():
    v = valuations.ConcaveAdditive(((Rat(3), Rat(1)), (Rat(2),)))
    valuations.demand(v, (Rat(1), Rat(1)), (2, 1))
    cache = valuations._demand_caches.get(v)
    assert isinstance(cache, dict)
    size = len(cache)
    valuations.demand(v, (Rat(1), Rat(1)), (2, 1))
    assert len(valuations._demand_caches.get(v)) == size
    valuations.demand(v, (Rat(2), Rat(1)), (2, 1))
    assert valuations._demand_caches.get(v) is cache and len(cache) == size + 1


def test_a_max_asks_the_public_demand(monkeypatch):
    calls = []

    def counted(valuation, prices, caps):
        calls.append(valuation)
        return valuations.demand(valuation, prices, caps)

    monkeypatch.setattr(mech_subadditive, "demand", counted)
    concave = instances.gen_concave_additive(3)
    table = instances.gen_explicit_subadditive(3)
    for inst in (concave, table):
        members = tuple(range(inst.m))
        mech_subadditive.a_max(inst.valuation, inst.budget, inst.units, inst.costs, members)
        assert calls and calls[-1] is inst.valuation
