#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload at tiny sizes in this process, twice untraced and once
traced, and checks that:
- every metric BENCHMARK.json names is emitted with the unit it names (a
  span metric of a function no tiny run calls must name a function the
  library still has; a suite group metric must name a registry key);
- the five layer self times of the traced pass sum to its wall time
  within 1%;
- two runs with one seed give identical operation outputs and statistics;
- no operation fails other than at a listed known-wrong default.
Prints one line per problem and exits 1 if there is any.
"""

import importlib
import sys

import run
import workloads

SEED = 7


def main():
    spec = run.load_spec()
    vh = run.import_library()
    problems = []
    units = {}
    for wl in workloads.WORKLOADS:
        first, second, traced = (
            run.measure(wl, SEED, 0, trace, tiny=True, probes=1) for trace in (False, False, True)
        )
        for rep in (first, traced):
            for name, m in rep["metrics"].items():
                units[name] = m["unit"]
            if rep["unexpected_failures"]:
                bad = [f["family"] for f in rep["ops"] if f["verdict"] == "FAIL"]
                problems.append(f"{wl}: unexpected failures {bad}")

        def outputs(rep):
            return [(f["family"], f["digest"], repr(f["statistic"])) for f in rep["ops"]]

        if outputs(first) != outputs(second):
            problems.append(f"{wl}: two runs with seed {SEED} differ")
        got = traced["metrics"]
        wall = got["traced_wall_s"]["value"]
        layers = sum(got[f"{layer}.self_s"]["value"] for layer in workloads.LAYERS)
        if abs(layers - wall) > 0.01 * wall:
            problems.append(f"{wl}: layer self times sum to {layers:.6g} s, traced wall {wall:.6g} s")

    suite_keys = {key for key, _ in vh.validate.SUITE_REGISTRY}
    listed = {m["name"] for m in spec["per_layer"]}
    for key in suite_keys - {n.split(".")[1] for n in listed if n.startswith("validate.")}:
        problems.append(f"registry group {key!r} has no validate.{key}.wall_s metric")
    for m in spec["end_to_end"] + spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        parts = name.split(".")
        if name in units:
            if units[name] != unit:
                problems.append(f"{name}: emitted in {units[name]}, BENCHMARK.json says {unit}")
        elif parts[0] == "validate" and parts[-1] == "wall_s" and len(parts) == 3:
            if parts[1] not in suite_keys:
                problems.append(f"{name}: no registry group {parts[1]!r}")
        elif len(parts) == 3 and parts[0] in workloads.LAYERS and parts[2] in ("calls", "self_s"):
            mod = importlib.import_module(f"{vh.__name__}.{parts[0]}")
            if not callable(getattr(mod, parts[1], None)):
                problems.append(f"{name}: {mod.__name__} has no function {parts[1]!r}")
        else:
            problems.append(f"{name}: not emitted by any workload")

    for p in problems:
        print(p)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
