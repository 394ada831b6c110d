"""The bench's per-layer metrics name real functions of the package.

``bench/tracing.py`` wraps each ``module.function`` of ``LAYER_METRICS`` by
name, so renaming or deleting one of them breaks only a traced bench run.
This test catches that in the ordinary suite.
"""

import importlib.util
from pathlib import Path

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
