"""Per-layer spans and exact call counts, recorded from outside the package.

The layers are procure's modules.  The traced run replaces every public
function of each layer with a wrapper that records a span (name, start,
end, parent), and rebinds it in every procure module that imported it by
name.  The counting run uses cProfile instead and reads exact call counts,
including the rational backend's methods.  Span times are raw wall clock
and include the speed probes (speed.py) that fire inside them, about 2%.
"""

from __future__ import annotations

import cProfile
import gzip
import importlib
import inspect
import pstats
import sys
import time
import weakref
from array import array

LAYERS = (
    "core",
    "instances",
    "valuations",
    "oracles",
    "mech_additive",
    "mech_single_item",
    "mech_subadditive",
    "verify",
)

ALL = frozenset({"dst-additive", "dst-sampling", "greedy-large"})
DST = frozenset({"dst-additive", "dst-sampling"})
ADDITIVE = frozenset({"dst-additive", "greedy-large"})
SAMPLING = frozenset({"dst-sampling"})

# (module.function, stats, workloads on which every stat is predicted
# non-zero).  On every other workload each stat is predicted to be exactly 0.
LAYER_METRICS = (
    ("mech_additive.threshold", ("calls", "self_s"), ADDITIVE),
    ("mech_additive.greedy_allocate", ("calls", "self_s"), ADDITIVE),
    ("mech_additive.ranked_pairs", ("calls", "self_s"), ADDITIVE),
    ("mech_additive.greedy_payments", ("calls", "self_s"), ADDITIVE),
    ("mech_additive.sym_allocate", ("calls", "self_s"), ADDITIVE),
    ("mech_additive.sym_threshold", ("calls", "self_s"), ADDITIVE),
    ("verify.run_scenario", ("calls", "self_s"), DST),
    ("verify.deviation_grid", ("calls", "points"), DST),
    ("verify.check_dst", ("total_s",), DST),
    ("verify.check_ir", ("total_s",), DST),
    ("verify.check_budget", ("total_s",), DST),
    ("verify.measure_ratio", ("total_s",), DST),
    ("mech_subadditive.a_max", ("calls", "self_s"), SAMPLING),
    ("mech_subadditive.m_rand_detail", ("calls", "self_s", "rounds"), SAMPLING),
    ("valuations.demand", ("calls", "self_s", "enum_calls", "hit_ratio"), SAMPLING),
    ("mech_single_item.plan_m_one", ("calls", "self_s"), SAMPLING),
    ("oracles.optimal_allocation", ("calls", "self_s"), DST),
    ("instances.gen_concave_additive", ("self_s",), ALL),
    ("instances.gen_symmetric", ("self_s",), ADDITIVE),
    ("instances.gen_explicit_subadditive", ("self_s",), SAMPLING),
)
RAT_COUNTS = ("core.rat_new", "core.rat_arith", "core.rat_cmp", "core.rat_ops")
OVERHEAD = "trace.overhead_frac"

UNITS = {"calls": "count", "points": "count", "rounds": "count", "enum_calls": "count",
         "hit_ratio": "ratio", "self_s": "s", "total_s": "s"}


def metric_names() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{fn}.{stat}", UNITS[stat]) for fn, stats, _ in LAYER_METRICS for stat in stats]
    names += [(f"{name}.calls", "count") for name in RAT_COUNTS]
    return names + [(OVERHEAD, "ratio")]


def layer_functions() -> dict:
    """Public functions defined in each layer module, by ``module.function``."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"procure.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "procure" or n.startswith("procure.")]


class Tracer:
    """Spans kept in flat arrays; self time is derived after the run."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.extra = {}  # "module.function.stat" -> accumulated count

    def count(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n

    def wrap(self, qualname, fn, after=None):
        name_id = len(self.names)
        self.names.append(qualname)
        clock, stack = time.perf_counter_ns, self.stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def install(self) -> dict:
        """Wrap every layer function and rebind it wherever it is bound.

        Returns the originals by qualified name.  Raises if any procure
        module still holds an unwrapped original afterwards.
        """
        from procure import valuations

        originals = layer_functions()
        hooks = {
            "verify.deviation_grid": lambda a, r: self.count("verify.deviation_grid.points", len(r)),
            "mech_subadditive.m_rand_detail": self._after_m_rand,
        }
        wrapped = {}
        for qualname, fn in originals.items():
            if qualname == "valuations.demand":
                wrapped[id(fn)] = self._wrap_demand(fn, valuations)
            else:
                wrapped[id(fn)] = self.wrap(qualname, fn, hooks.get(qualname))
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(module, name, wrapped[id(obj)])
        escaped = [
            f"{module.__name__}.{name}"
            for module in _package_modules()
            for name, obj in vars(module).items()
            if any(obj is fn for fn in originals.values())
        ]
        if escaped:
            raise RuntimeError(f"unwrapped layer functions remain bound: {escaped}")
        return originals

    def _after_m_rand(self, args, result):
        inst, group = args[0], set(args[2])
        offered = sum(u for i, u in enumerate(inst.units) if i not in group)
        rounds = result.accepted_round if result.accepted_round is not None else offered
        self.count("mech_subadditive.m_rand_detail.rounds", rounds)

    def _wrap_demand(self, fn, valuations):
        # A call that does not grow the valuation's cache was a hit.  Cache
        # dicts are remembered by valuation identity: looking one up by the
        # valuation hashes the whole valuation, which would slow every call.
        caches, additive = valuations._demand_caches, valuations.ADDITIVE_FAMILIES
        known = {}
        inner = self.wrap("valuations.demand", fn)

        def cache_of(valuation):
            entry = known.get(id(valuation))
            if entry is not None and entry[0]() is valuation:
                return entry[1]
            cache = caches.get(valuation)
            if cache is not None:
                known[id(valuation)] = (weakref.ref(valuation), cache)
            return cache

        def demand(valuation, *args, **kwargs):
            cache = cache_of(valuation)
            before = 0 if cache is None else len(cache)
            result = inner(valuation, *args, **kwargs)
            if len(cache_of(valuation)) == before:
                self.count("valuations.demand.hits")
            elif not isinstance(valuation, additive):
                self.count("valuations.demand.enum_calls")
            return result

        demand.__wrapped__ = fn
        return demand

    def summary(self) -> dict:
        """Per function: calls, total_s (summed span time) and self_s."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        """Write the spans as CSV: name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n"
                )


def _rat_group(funcname: str):
    if funcname == "__new__":
        return "core.rat_new"
    if funcname in ("forward", "reverse"):
        return "core.rat_arith"
    if funcname in ("_richcmp", "__eq__", "__hash__"):
        return "core.rat_cmp"
    return None


def profile_counts(profiler: cProfile.Profile) -> dict:
    """Exact call counts of every layer function and of the rational backend.

    ``core.rat_ops`` counts every call into the backend's Python methods;
    a backend implemented in C (gmpy2) has none, so its counts are 0.
    """
    from procure import core

    by_code = {
        (fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name): name
        for name, fn in layer_functions().items()
    }
    rat_file = inspect.getsourcefile(core.Rat) if core.Rat.__module__ == "fractions" else None
    counts = {name: 0 for name in by_code.values()}
    counts.update({name: 0 for name in RAT_COUNTS})
    for key, (_, ncalls, _, _, _) in pstats.Stats(profiler).stats.items():
        if key in by_code:
            counts[by_code[key]] += ncalls
        elif rat_file is not None and key[0] == rat_file:
            counts["core.rat_ops"] += ncalls
            group = _rat_group(key[2])
            if group:
                counts[group] += ncalls
    return counts


def layer_metrics(spans: dict, counts: dict, extra: dict, overhead: float) -> dict:
    """The per-layer metric values, calls from the counting run."""
    values = {}
    for fn, stats, _ in LAYER_METRICS:
        row = spans.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat == "calls":
                v = counts.get(fn, 0)
            elif stat in ("self_s", "total_s"):
                v = row[stat]
            elif stat == "hit_ratio":
                calls = row["calls"]
                v = extra.get(f"{fn}.hits", 0) / calls if calls else 0.0
            else:
                v = extra.get(f"{fn}.{stat}", 0)
            values[f"{fn}.{stat}"] = v
    for name in RAT_COUNTS:
        values[f"{name}.calls"] = counts[name]
    values[OVERHEAD] = overhead
    return values


def check_predictions(workload: str, values: dict, backend: str) -> list:
    """Metrics that break their prediction: non-zero where a workload uses
    the function, exactly zero where it bypasses it.  The rational counts
    are non-zero on every workload unless the backend is written in C."""
    wrong = []
    for fn, stats, nonzero in LAYER_METRICS:
        for stat in stats:
            name = f"{fn}.{stat}"
            if (values[name] != 0) != (workload in nonzero):
                wrong.append(f"{name}={values[name]} (predicted {'non-zero' if workload in nonzero else '0'})")
    for name in RAT_COUNTS:
        if values[f"{name}.calls"] == 0 and backend == "fractions.Fraction":
            wrong.append(f"{name}.calls=0 (predicted non-zero)")
    return wrong


def check_coverage(spans: dict, counts: dict) -> list:
    """Functions whose span count differs from their cProfile call count,
    which is a call that escaped its wrapper."""
    return [
        f"{name}: {row['calls']} spans, {counts.get(name, 0)} calls"
        for name, row in spans.items()
        if row["calls"] != counts.get(name, 0)
    ]
