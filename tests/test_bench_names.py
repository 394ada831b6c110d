"""The bench's per-layer metrics name real functions of the package.

``bench/tracing.py`` wraps each ``module.function`` of ``LAYER_METRICS`` by
name, so renaming or deleting one of them breaks only a traced bench run.
This test catches that in the ordinary suite.  The traced run also counts
a ``demand`` call as a cache hit when ``valuations._demand_caches`` maps the
valuation to a dict that the call did not grow; the last test pins that.
"""

import importlib.util
from pathlib import Path

from procure import valuations
from procure.core import Rat

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_metrics_name_public_functions():
    tracing = _load_tracing()
    public = tracing.layer_functions()
    missing = [fn for fn, _, _ in tracing.LAYER_METRICS if fn not in public]
    assert not missing, f"LAYER_METRICS names no public procure function: {missing}"


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
