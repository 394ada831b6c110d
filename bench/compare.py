"""Compare saved runs of two commits, metric by metric and workload by workload.

    python3 bench/compare.py --parent a1.json a2.json ... --change b1.json b2.json ...

The files are written by ``run.py --out``.  Prints, per workload and
metric, each side's median and quartiles and the change's median relative
to the parent's.  Refuses to compare runs whose rational backends, Python
versions or trace modes differ, since their timings and counts are not
comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths) -> list:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs += json.load(fh)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)
    runs = parent + change
    for key in ("backend", "python"):
        seen = {run["env"][key] for run in runs}
        if len(seen) > 1:
            print(f"refusing to compare runs with different {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    if len({run["trace"] for run in runs}) > 1:
        print("refusing to compare traced with untraced runs", file=sys.stderr)
        return 2
    if not all(run["correct"] for run in runs):
        print("warning: some runs were not correct", file=sys.stderr)

    workloads = sorted({run["workload"] for run in runs})
    for workload in workloads:
        side = {
            name: [r for r in group if r["workload"] == workload]
            for name, group in (("parent", parent), ("change", change))
        }
        if not side["parent"] or not side["change"]:
            print(f"{workload}: runs on one side only, skipped")
            continue
        print(f"{workload} ({len(side['parent'])} parent runs, {len(side['change'])} change runs)")
        for metric, entry in side["parent"][0]["metrics"].items():
            stats = {}
            for name, group in side.items():
                stats[name] = quartiles([r["metrics"][metric]["value"] for r in group])
            base, new = stats["parent"][1], stats["change"][1]
            rel = f"{new / base - 1:+.1%}" if base else "n/a"
            print(
                f"  {metric:44s} parent {stats['parent'][1]:.6g} [{stats['parent'][0]:.6g}, "
                f"{stats['parent'][2]:.6g}]  change {new:.6g} [{stats['change'][0]:.6g}, "
                f"{stats['change'][2]:.6g}]  {rel} {entry['unit']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
