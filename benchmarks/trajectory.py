#!/usr/bin/env python3
"""Collect run reports into one entry of the benchmark trajectory.

    python3 benchmarks/trajectory.py --label seed --commit <sha> \\
        --out benchmarks/BENCH_seed.json .bench_out/*-trace*.json

For each workload it records the median and quartiles of every metric over
the untraced reports, the median of every per-layer metric over the traced
reports, and the verdict and statistic of each operation family in the
untraced report with the lowest seed, so that a change that moves a
result shows next to one that moves a time.
"""

import argparse
import json
import statistics
import sys


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric_table(reports):
    names = sorted({k for r in reports for k in r["metrics"]})
    out = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in reports if name in r["metrics"])
        out[name] = {"unit": unit, **summarize(vals)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--commit", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args(argv)
    reports = []
    for path in args.reports:
        with open(path) as fh:
            reports.append(json.load(fh))
    if any(r["tiny"] for r in reports):
        sys.exit("error: tiny self-test reports do not belong in the trajectory")
    by_wl = {}
    for r in reports:
        by_wl.setdefault(r["workload"], []).append(r)
    entry = {"label": args.label, "commit": args.commit, "env": reports[0]["env"], "workloads": {}}
    for wl, reps in sorted(by_wl.items()):
        timed = sorted((r for r in reps if not r["trace"]), key=lambda r: r["seed"])
        traced = [r for r in reps if r["trace"]]
        entry["workloads"][wl] = {
            "seconds": reps[0]["seconds"],
            "seeds": [r["seed"] for r in timed],
            "traced_seeds": sorted(r["seed"] for r in traced),
            "end_to_end": metric_table(timed),
            "per_layer": metric_table(traced),
            "ops_seed": timed[0]["seed"] if timed else None,
            "ops": timed[0]["ops"] if timed else [],
        }
    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
