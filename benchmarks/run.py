#!/usr/bin/env python3
"""Benchmark of the verhulst library.

    python3 benchmarks/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Each workload (see workloads.py) is a closed loop: one client in this
process issues the workload's operations back to back, one call into a
public function of verhulst each, and repeats the whole list (a pass)
while less than --seconds have gone by.  Every call is timed from outside
and every result is checked after its pass, outside the timed calls.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs one untraced and one traced pass and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}.  A full report, and
the spans of a traced pass, are written under .bench_out/.  `correct` is
false when an operation fails that is not listed as a known-wrong default.
"""

import os

# One BLAS thread: on a small shared machine a second BLAS thread makes
# small matrix products wait on the other core, which adds run-to-run
# noise; the Monte Carlo workload's own worker threads use that core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7

# Set-up as a user pays it: a fresh interpreter importing the library and
# generating the workload's inputs.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import verhulst, workloads
workloads.build(verhulst, {workload!r}, {seed}, tiny={tiny})
print(time.perf_counter() - t0)
"""


def import_library():
    src = ROOT / "src"
    if not (src / "verhulst" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import verhulst

    if Path(verhulst.__file__).resolve().parent != (src / "verhulst").resolve():
        raise SystemExit(f"error: imported verhulst from {verhulst.__file__}, not {src}")
    return verhulst


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def setup_times(workload, seed, tiny, probes):
    code = PROBE.format(src=str(ROOT / "src"), bench=str(BENCH_DIR), workload=workload,
                        seed=seed, tiny=tiny)
    out = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class Call:
    op: workloads.Op
    wall: float
    cpu: float
    result: object = None
    error: str = ""
    verdict: workloads.Verdict = None
    digest: str = ""

    @property
    def failed(self):
        return bool(self.error) or not self.verdict.passed


def run_pass(ops):
    calls = []
    start = time.perf_counter()
    for op in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = op.call(), ""
        except Exception as exc:  # a failed operation, recorded and counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        calls.append(Call(op, t1 - t0, c1 - c0, result, error))
    return time.perf_counter() - start, calls


def judge(calls):
    """Check every result of one pass (outside the timed calls)."""
    results = {c.op.name: c.result for c in calls if not c.error}
    for c in calls:
        if c.error:
            continue
        try:
            c.verdict = c.op.check(c.result, results)
            c.digest = workloads.digest(c.result)
        except Exception as exc:  # a check that cannot run fails its operation
            c.error = f"check raised {type(exc).__name__}: {exc}"


def _q(values, p):
    return float(np.quantile(np.asarray(values, dtype=float), p)) if values else 0.0


def workload_metrics(calls_per_pass):
    """Figures a user of the workload sees, over every untraced pass."""
    calls = [c for calls in calls_per_pass for c in calls]
    m = {}
    m["ops_failed_frac"] = (sum(c.failed for c in calls) / len(calls), "fraction")
    curve = [c for c in calls if c.op.points and not c.error]
    if curve:
        m["curve_points_per_s"] = (sum(c.op.points for c in curve) / sum(c.wall for c in curve), "points/s")
    points = [c.wall for c in calls if c.op.family == "density_exact_half[points]"]
    if points:
        m["exact_point_p50_ms"] = (1e3 * _q(points, 0.5), "ms")
        m["exact_point_p99_ms"] = (1e3 * _q(points, 0.99), "ms")
        m["exact_point_samples"] = (len(points), "count")
    mc = [c for c in calls if c.op.paths and not c.error]
    if mc:
        m["mc_paths_per_s"] = (sum(c.op.paths for c in mc) / sum(c.wall for c in mc), "paths/s")
        m["simulate.cpu_per_wall"] = (sum(c.cpu for c in mc) / sum(c.wall for c in mc), "ratio")
    direct = [c for c in calls if c.op.name == "laplace_mc_direct" and not c.error]
    if direct:
        m["laplace_s_at_se_1e-3"] = (
            statistics.median(c.wall * (c.result.stderr / 1e-3) ** 2 for c in direct), "s")
    for c in calls_per_pass[0]:
        if c.op.name.startswith("validate."):
            m[f"{c.op.name}.wall_s"] = (c.wall, "s")
        if c.op.name == "curve_general_mc" and not c.error:
            curve_, errs = c.result
            live = curve_.values > 0
            m["density.curve_general_mc.rel_se_p50"] = (
                float(np.median(errs[live] / curve_.values[live])), "fraction")
        if isinstance(c.result, workloads.CliResult):
            prev = m.get("cli.bytes_out", (0, "bytes"))[0]
            m["cli.bytes_out"] = (prev + c.result.bytes_out, "bytes")
    return m


def layer_metrics(tracer, traced_wall, untraced_wall):
    per_name, layer_self, child_layer_s = tracer.summary(traced_wall)
    m = {
        "traced_wall_s": (traced_wall, "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "fraction"),
    }
    for layer in (*workloads.LAYERS, "harness"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    for name, s in per_name.items():
        m[f"{name}.calls"] = (s["calls"], "count")
        m[f"{name}.self_s"] = (s["self_s"], "s")
    tb = per_name.get("simulate.simulate_terminal_batch")
    if tb and tb["work"]:
        m["simulate.simulate_terminal_batch.path_steps"] = (tb["work"], "count")
        m["simulate.simulate_terminal_batch.ns_per_path_step"] = (1e9 * tb["total_s"] / tb["work"], "ns")
    ex = per_name.get("simulate.simulate_exp_terminal")
    if ex and ex["work"]:
        m["simulate.simulate_exp_terminal.us_per_path"] = (1e6 * ex["total_s"] / ex["work"], "us")
    gm = per_name.get("density.curve_general_mc")
    if gm:
        sim_child = child_layer_s.get(("density.curve_general_mc", "simulate"), 0.0)
        m["density.curve_general_mc.self_s"] = (gm["total_s"] - sim_child, "s")
    dh = per_name.get("density.density_exact_half")
    if dh:
        m["density.density_exact_half.us_per_call"] = (1e6 * dh["total_s"] / dh["calls"], "us")
    return m


def measure(workload, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one benchmark measurement and return its full report."""
    vh = import_library()
    (OUT_DIR / "cli").mkdir(parents=True, exist_ok=True)
    setup = setup_times(workload, seed, tiny, probes)
    ops = workloads.build(vh, workload, seed, tiny, str(OUT_DIR / "cli"))
    if not tiny:
        # warm-up, untimed: first-call costs (allocator growth, lazy imports)
        run_pass(workloads.build(vh, workload, seed, True, str(OUT_DIR / "cli")))

    passes = []
    traced = None
    start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - start < seconds):
        passes.append(run_pass(ops))
        judge(passes[-1][1])
    if trace:
        tracer = Tracer()
        with tracer.installed(vh, workloads.LAYERS):
            traced = run_pass(ops)
        judge(traced[1])

    every = [calls for _, calls in passes] + ([traced[1]] if traced else [])
    for later in every[1:]:
        for c, first in zip(later, every[0]):
            if not c.error and not first.error and c.digest != first.digest:
                c.error = "output differs from the first pass with the same inputs"

    walls = [w for w, _ in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    metrics.update(workload_metrics([calls for _, calls in passes]))
    if traced:
        metrics.update(layer_metrics(tracer, traced[0], walls[0]))
        tracer.dump(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")

    all_calls = [c for calls in every for c in calls]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "env": environment(),
        "setup_samples_s": setup,
        "pass_wall_s": walls,
        "attempted": len(all_calls),
        "failed": sum(c.failed for c in all_calls),
        "unexpected_failures": sum(c.failed and not c.op.expected_failure for c in all_calls),
        "ops": families(every),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def families(passes):
    """One verdict line per operation family over every pass: calls,
    failures, worst statistic, and a fingerprint of the first pass's outputs."""
    out = {}
    for k, calls in enumerate(passes):
        for c in calls:
            f = out.setdefault(c.op.family, {
                "family": c.op.family, "calls": 0, "failed": 0, "statistic": -np.inf,
                "threshold": None, "detail": "", "expected_failure": c.op.expected_failure,
                "digests": [],
            })
            f["calls"] += 1
            f["failed"] += c.failed
            if c.error:
                f["statistic"], f["detail"] = float("inf"), c.error
            elif not c.verdict.statistic <= f["statistic"]:
                f["statistic"], f["threshold"], f["detail"] = (
                    c.verdict.statistic, c.verdict.threshold, c.verdict.detail)
            if k == 0:
                f["digests"].append(c.digest)
    for f in out.values():
        f["digest"] = workloads.digest(f.pop("digests"))
        f["verdict"] = ("XFAIL" if f["expected_failure"] else "FAIL") if f["failed"] else "PASS"
    return list(out.values())


def result_line(report, spec, trace):
    """The final JSON object: exactly the metrics BENCHMARK.json names for
    this mode, each with its unit; a named metric this workload does not
    produce reads 0."""
    named = spec["per_layer"] if trace else spec["end_to_end"]
    got = report["metrics"]
    metrics = {m["name"]: {"value": got.get(m["name"], {"value": 0.0})["value"], "unit": m["unit"]}
               for m in named}
    return {
        "correct": report["unexpected_failures"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(report):
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    print(f"workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"passes={len(report['pass_wall_s'])} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for f in report["ops"]:
        note = f"  expected: {f['expected_failure']}" if f["failed"] and f["expected_failure"] else ""
        thr = "-" if f["threshold"] is None else f"{f['threshold']:.3g}"
        print(f"{f['verdict']:<5} {f['family']:<40} calls={f['calls']:<5} "
              f"statistic={f['statistic']:.4g} threshold={thr}  {f['detail']}{note}")
    for name, m in sorted(report["metrics"].items()):
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result_line(report, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
