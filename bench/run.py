"""Benchmark of procure's exact verifier: three closed-loop workloads.

One client sends one item at a time and the next item starts only when the
previous one has finished.  Every run of every workload is a fresh
interpreter, because ``valuations._demand_caches`` lives for the whole
process and a warm cache would make a second run a different program.

Run from the repository root, for one workload or (the default) all three:

    python3 bench/run.py --workload dst-additive --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1

Workloads (see plan.py):

* ``dst-additive``: ``verify_instance`` with m_add and m_sym on generated
  instances at default sizes; the deviation grid reruns the mechanism
  hundreds of times per instance, all in ``mech_additive``.
* ``dst-sampling``: ``verify_instance`` with m_rand and m_sub on explicit
  sub-additive tables and small concave instances; the time goes to
  ``a_max`` and the demand oracle, and ``mech_additive`` is never called.
* ``greedy-large``: one greedy-branch run per item on a ladder of sizes up
  to 400 units; a few large calls and no deviation grid.

``--trace 0`` prints the end-to-end metrics.  wall_s is the summed time of
the items, item_ms_p50 and item_ms_p90 the median and tail of per-item
latency.  setup_s is the time from starting an interpreter, through
``import procure`` and instance generation, to the first item: the median
over several fresh interpreters.  All four are at reference speed (see
speed.py); the raw wall-clock values are printed beside them.
peak_rss_mb is the worker's maximum resident set.

``--trace 1`` runs the smaller traced item set four times in fresh
interpreters: untraced, with spans around every public function of every
layer module, and twice under cProfile for exact call counts.  It prints
the per-layer metrics and the tracing overhead, and fails unless the two
counting runs agree exactly, every call was inside a span, and every
predicted zero and non-zero holds (see tracing.py).

Every item's exact output digest must equal the one recorded in
``digests.json``; a mismatch or an exception counts the item as failed and
the run exits with status 1.  ``--record`` rewrites the digests (keeping
recorded reference costs, which fix the strata).  ``--out FILE`` saves the
runs with their environment for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import plan
import speed

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 7
END_TO_END = (
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# Worker: one fresh interpreter builds its items, runs them and reports.


def worker(mode: str) -> None:
    # The counting run samples no speed: cProfile would count the probes.
    with speed.Sampler() if mode != "count" else nullcontext() as sampler:
        started = time.perf_counter()
        request = json.load(sys.stdin)
        import items
        from procure import instances

        tracer = profiler = None
        if mode in ("span", "count"):
            import cProfile

            import tracing
        if mode == "span":
            tracer = tracing.Tracer()
            tracer.install()
        elif mode == "count":
            profiler = cProfile.Profile()
            profiler.enable()

        made = {}
        built = []
        for item_id in request["items"]:
            if item_id not in made:
                inst = items.make(item_id)
                made[item_id] = (inst, instances.instance_digest(inst))
            built.append((item_id, *made[item_id]))
        ready = time.perf_counter()
        print("ready", flush=True)

        outputs, spans, errors = [], [], []
        for item_id, inst, inst_digest in built if mode != "setup" else ():
            start = time.perf_counter()
            try:
                output = items.run(item_id, inst, inst_digest)
            except Exception as exc:  # counted as a failed item, run goes on
                output = None
                errors.append([len(outputs), f"{item_id}: {exc!r}"])
            spans.append((start, time.perf_counter()))
            outputs.append(output)

    if sampler is None:
        setup_factor = 1.0
        seconds = at_ref = [end - start for start, end in spans]
    else:
        setup_factor = sampler.factor(started, ready)
        seconds = [sampler.work(*span) for span in spans]
        at_ref = [sampler.at_reference(*span) for span in spans]
    report = {
        "setup_factor": setup_factor,
        "wall_s": sum(seconds),
        "ref_wall_s": sum(at_ref),
        "item_s": seconds,
        "ref_item_s": at_ref,
        "errors": errors,
        "backend": items.backend(),
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["extra"] = dict(tracer.extra)
        tracer.write(request["spans_path"])
    if profiler is not None:
        profiler.disable()
        report["counts"] = tracing.profile_counts(profiler)
    report["digests"] = [
        None if out is None else items.digest(d, out)
        for (_, _, d), out in zip(built, outputs)
    ]
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)


# ---------------------------------------------------------------------------
# Driver side: spawn workers, check digests, compute metrics.


def spawn(mode: str, request: dict):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    proc.stdin.write(json.dumps(request))
    proc.stdin.close()
    return proc


def wait_ready(proc) -> None:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.wait()
        raise SystemExit(f"bench worker failed during set-up (exit {proc.returncode})")


def finish(proc):
    """Wait for a worker; return its report, the last line it printed."""
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise SystemExit(f"bench worker failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def finish_all(procs) -> list:
    """Finish workers that run side by side; none outlives a failure."""
    try:
        return [finish(proc) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def timed_setup(mode: str, request: dict):
    """Run a worker; return its report with ``setup_s``, the seconds from
    starting it until its first item, rescaled by the speed it measured
    between its first statement and its first item."""
    start = time.perf_counter()
    proc = spawn(mode, request)
    wait_ready(proc)
    seconds = time.perf_counter() - start
    report = finish(proc)
    report["raw_setup_s"] = seconds
    report["setup_s"] = seconds * report["setup_factor"]
    return report


def check_digests(item_ids, report, recorded) -> dict:
    """Failed items by position: raised, or digest differs from the record."""
    failed = {index: message for index, message in report["errors"]}
    for index, (item_id, got) in enumerate(zip(item_ids, report["digests"])):
        want = recorded[item_id]["digest"]
        if got is not None and got != want:
            failed[index] = f"{item_id}: digest {got} != recorded {want}"
    return failed


def run_untraced(item_ids, recorded):
    request = {"items": item_ids}
    setups = [timed_setup("setup", request) for _ in range(SETUP_REPEATS - 1)]
    report = timed_setup("time", request)
    setups.append(report)
    setup = [r["setup_s"] for r in setups]
    ms = [s * 1000 for s in report["ref_item_s"]]
    raw_ms = [s * 1000 for s in report["item_s"]]
    print(f"raw wall clock: wall_s {report['wall_s']:.3f} s, item_ms_p50 {statistics.median(raw_ms):.1f} ms, "
          f"item_ms_p90 {p90(raw_ms):.1f} ms, setup_s {statistics.median(r['raw_setup_s'] for r in setups):.4f} s; "
          f"{len(ms)} items, {len(setup)} set-ups")
    metrics = {
        "wall_s": report["ref_wall_s"],
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": p90(ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["rss_kb"] / 1024,
    }
    return metrics, report, check_digests(item_ids, report, recorded), []


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def run_traced(workload, seed, item_ids, recorded):
    import tracing

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.csv.gz"
    plain = finish(spawn("time", {"items": item_ids}))
    traced = finish(spawn("span", {"items": item_ids, "spans_path": str(spans_path)}))
    counts = finish_all([spawn("count", {"items": item_ids}) for _ in range(2)])

    failed, failures = {}, []
    for report in (plain, traced, *counts):
        failed.update(check_digests(item_ids, report, recorded))
    if counts[0]["counts"] != counts[1]["counts"]:
        diff = [k for k in counts[0]["counts"] if counts[0]["counts"][k] != counts[1]["counts"].get(k)]
        failures.append(f"counting runs disagree on {diff}")
    failures += [f"escaped span: {m}" for m in tracing.check_coverage(traced["spans"], counts[0]["counts"])]
    overhead = traced["ref_wall_s"] / plain["ref_wall_s"] - 1
    metrics = tracing.layer_metrics(traced["spans"], counts[0]["counts"], traced["extra"], overhead)
    failures += [f"prediction broken: {m}" for m in tracing.check_predictions(workload, metrics, traced["backend"])]

    print(f"traced wall_s {traced['ref_wall_s']:.3f} s vs untraced {plain['ref_wall_s']:.3f} s "
          f"(at reference speed): overhead {overhead:+.1%}")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    top = sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:10]
    print("largest self times:")
    for name, row in top:
        print(f"  {name:40s} {row['self_s']:9.3f} s  {row['calls']:>9d} calls")
    units = dict(tracing.metric_names())
    return {name: metrics[name] for name in units}, units, plain, failed, failures


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def record(workloads) -> None:
    """Run every pool item once per workload and store its exact digest."""
    recorded = plan.load_digests()["items"] if plan.DIGESTS_PATH.exists() else {}
    for workload in workloads:
        pool = sorted({i for kind in plan.WORKLOADS[workload] for i in kind.pool()})
        report = finish(spawn("time", {"items": pool}))
        if report["errors"]:
            raise SystemExit(f"{workload}: items raised: {report['errors'][:3]}")
        for item_id, got, seconds in zip(pool, report["digests"], report["ref_item_s"]):
            ref_ms = recorded.get(item_id, {}).get("ref_ms", round(seconds * 1000, 1))
            recorded[item_id] = {"digest": got, "ref_ms": ref_ms}
        print(f"{workload}: {len(pool)} items recorded in {report['wall_s']:.1f} s")
    pools = {i for kinds in plan.WORKLOADS.values() for kind in kinds for i in kind.pool()}
    recorded = {i: row for i, row in recorded.items() if i in pools}
    summary = {
        w: workload_digest(w, recorded)
        for w in plan.WORKLOADS
        if all(i in recorded for k in plan.WORKLOADS[w] for i in k.pool())
    }
    with open(plan.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"workloads": summary, "items": dict(sorted(recorded.items()))}, fh, indent=1)
        fh.write("\n")


def workload_digest(workload, recorded) -> str:
    ids = sorted({i for k in plan.WORKLOADS[workload] for i in k.pool()})
    text = "\n".join(f"{i} {recorded[i]['digest']}" for i in ids)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*plan.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=plan.ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the runs with their environment to this JSON file")
    parser.add_argument("--record", action="store_true", help="re-record the pool digests")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not (ROOT / "src" / "procure" / "__init__.py").is_file():
        print(f"procure sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record([args.workload] if args.workload != "all" else list(plan.WORKLOADS))
        return 0
    data = plan.load_digests()
    workloads = list(plan.WORKLOADS) if args.workload == "all" else [args.workload]
    saved = [run_workload(args, workload, data) for workload in workloads]
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if all(run["correct"] for run in saved) else 1


def run_workload(args, workload: str, data: dict) -> dict:
    """One run of one workload; prints its metrics and returns its record."""
    loadavg = os.getloadavg()[0]
    recorded = data["items"]
    if data["workloads"].get(workload) != workload_digest(workload, recorded):
        raise SystemExit(f"digests.json: {workload} items do not match its workload digest")
    item_ids = plan.make_plan(workload, args.seed, args.seconds, recorded, subset=bool(args.trace))
    if args.trace:
        metrics, units, report, failed, failures = run_traced(workload, args.seed, item_ids, recorded)
    else:
        metrics, report, failed, failures = run_untraced(item_ids, recorded)
        units = dict(END_TO_END)
    failures = list(failed.values()) + failures

    env = {
        "backend": report["backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": loadavg,
    }
    attempted = len(item_ids)
    print(f"env {json.dumps(env)}")
    print(f"workload {workload} seed {args.seed}: {attempted} items, "
          f"digest {workload_digest(workload, recorded)}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(f"error_frac = {len(failed) / attempted:.4f}")
    for name, value in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return dict(result, workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace, env=env)

if __name__ == "__main__":
    sys.exit(main())
