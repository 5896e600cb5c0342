"""The benchmark's workloads: the operations each one issues, built from
the workload seed, and the check each operation's result must pass.

An operation is one call into a public function of verhulst.  Every call
looks its function up on the library module when it runs, so a tracer that
rebinds module attributes sees it.  Checks run after the timed calls and
may call the library themselves.

Why these workloads:
- suite-quick: the validation battery at its quick budget, one registry
  group per operation.  The only workload where `validate` works, and the
  only one with many mid-sized `simulate_terminal_batch` calls over
  different (mu, beta, T) cells.
- closed-form: curves, quadratures and isolated density points; no Monte
  Carlo, so a sampler change predicts no change here.  Single points next
  to whole curves expose a change that speeds curves but slows one call.
- mc-oracle: Monte Carlo at user scale through the library defaults on the
  block runner's thread pool; keeps the per-step exponential-time sampler
  apart from the vectorised terminal batch.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("suite-quick", "closed-form", "mc-oracle")
LAYERS = ("specfun", "simulate", "density", "validate", "cli")

# Worker threads of the Monte Carlo calls.  Fixed, not the host's core
# count, so that every machine runs the same operations.
MC_THREADS = 2

# Runs of a suite group whose only failures are sampled statistics, told
# apart by the sample size their report records.
SUITE_ATTEMPTS = 3
SAMPLED = ("n=", "paths=")

# Registry groups a tiny suite-quick run keeps (the cheapest ones).
SUITE_TINY_KEYS = ("bessel_product_identity", "mixture", "z2_symmetry")

# Grid size of the fixed-time curves: at t = 4 the 400-point CLI default
# leaves a trapezoid mass error of 1.07e-3, above the 1e-3 the curve
# mass checks use, so the full budget's 600 points are used.
EXACT_CURVE_POINTS = 600
EXP_CURVE_POINTS = 600


@dataclass(frozen=True)
class Verdict:
    """One number against one threshold; NaN fails."""

    statistic: float
    threshold: float
    detail: str = ""

    @property
    def passed(self):
        return bool(self.statistic <= self.threshold)


@dataclass
class Op:
    name: str  # unique within a workload
    call: Callable[[], object]
    check: Callable[[object, dict], Verdict]  # (result, results by op name)
    family: str = ""  # report line the op is tallied under; defaults to name
    paths: int = 0  # Monte Carlo replicates the call draws
    points: int = 0  # density points a curve call evaluates
    expected_failure: str = ""  # why the call fails at a known-wrong default

    def __post_init__(self):
        self.family = self.family or self.name


@dataclass
class CliResult:
    rc: int
    stdout: str
    path: str

    @property
    def bytes_out(self):
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return len(self.stdout.encode()) + size


def build(vh, workload, seed, tiny=False, out_dir="."):
    """Operations of `workload` for library package `vh`; inputs depend only
    on `seed` (and `tiny`, which shrinks every size for the self-test)."""
    makers = {"suite-quick": _suite_quick, "closed-form": _closed_form, "mc-oracle": _mc_oracle}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for layer in LAYERS:  # the package does not import cli itself
        importlib.import_module(f"{vh.__name__}.{layer}")
    return makers[workload](vh, np.random.default_rng(seed), tiny, out_dir)


# --- checks --------------------------------------------------------------------


def _flag(ok, detail):
    return Verdict(0.0 if ok else 1.0, 0.0, detail)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _mass_check(tol):
    def check(curve, _):
        return Verdict(abs(curve.total_mass - 1.0), tol, f"mass={curve.total_mass:.9f}")

    return check


def _positive(value, _):
    return _flag(math.isfinite(value) and value > 0.0, f"value={value:.9g}")


def _z(a, b):
    return abs(a.mean - b.mean) / math.hypot(a.stderr, b.stderr)


def _agrees_with(other, k=4.0):
    """Two Monte Carlo estimates within k combined standard errors."""

    def check(est, results):
        ref = results[other]
        return Verdict(
            _z(est, ref), k, f"{est.mean:.6f}+-{est.stderr:.2g} vs {other} {ref.mean:.6f}"
        )

    return check


def _ks_to_curve(samples, curve):
    """Sup distance between the empirical CDF of samples and the curve's
    running trapezoid integral."""
    x, y = curve.abscissae, curve.values
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
    s = np.sort(samples)
    f = np.interp(s, x, cdf)
    i = np.arange(1, s.size + 1)
    return float(max(np.max(i / s.size - f), np.max(f - (i - 1) / s.size)))


def _suite_check(val, config):
    """All reports of the group pass.  The quick budget runs about ten Monte
    Carlo checks at 3 sigma, so about 4% of seeds raise a false alarm (the
    suite's own summary says as much), and representation_refinement, a
    ratio over 5 random paths, fails on about 0.6% of seeds.  A group whose
    failures are all such sampled statistics is therefore rerun, here and
    untimed, on up to two fresh seeds, and fails only if every attempt
    fails; a real defect fails on every seed, and a failing quadrature,
    exact or single-path report is never rerun.
    """

    def failures(reports):
        return [r for r in reports if not r.passed]

    def check(reports, _):
        if not reports:
            return Verdict(math.inf, 0.0, "no reports")
        notes = []
        for attempt in range(1, SUITE_ATTEMPTS + 1):
            bad = failures(reports)
            if not bad:
                notes.append(f"{len(reports)} reports passed" + (f" on attempt {attempt}" if notes else ""))
                break
            notes.append(f"attempt {attempt}: " + "; ".join(
                f"{r.name}={r.statistic:.4g}>{r.threshold:.4g}" for r in bad))
            if attempt == SUITE_ATTEMPTS or not all(r.n_or_tolerance.startswith(SAMPLED) for r in bad):
                break
            reports = val.run_suite(dataclasses.replace(config, seed=config.seed + 1_000_003 * attempt))
        return Verdict(float(len(bad)), 0.0, " | ".join(notes))

    return check


def _cli(vh, argv, path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = vh.cli.main(argv)
    return CliResult(rc, buf.getvalue(), path)


# --- workloads -----------------------------------------------------------------


def _suite_quick(vh, rng, tiny, out_dir):
    val = vh.validate
    suite_seed = int(rng.integers(2**31))
    keys = [key for key, _ in val.SUITE_REGISTRY]
    for key in keys:
        # `only` matches by substring; each token must select its own group
        if [k for k in keys if key in k] != [key]:
            raise ValueError(f"registry key {key!r} does not select a single group")
    if tiny:
        keys = [k for k in keys if k in SUITE_TINY_KEYS] or keys[:1]
    ops = []
    for key in keys:
        config = val.SuiteConfig(budget="quick", threads=1, seed=suite_seed, only=(key,))
        ops.append(Op(f"validate.{key}", lambda c=config: val.run_suite(c), _suite_check(val, config)))
    return ops


def _closed_form(vh, rng, tiny, out_dir):
    d, sf = vh.density, vh.specfun
    ts = (1.0,) if tiny else (0.25, 1.0, 4.0)
    lams = (1.0,) if tiny else (0.5, 1.0, 2.0)
    ws = (1.0,) if tiny else (0.5, 1.0, 2.0)
    hw_pairs = [(0.6, 1.0)] if tiny else [(nu, r) for nu in (0.6, 1.0, 2.0) for r in (0.5, 1.0, 2.0, 3.0)]
    n_points = 30 if tiny else 3000
    pt_t = rng.uniform(0.25, 4.0, n_points)
    # abscissae within three lognormal standard deviations of the bulk
    pt_w = np.exp(-0.5 * pt_t + np.sqrt(pt_t) * rng.uniform(-3.0, 3.0, n_points))
    quad_x = rng.uniform(0.3, 3.0, 1 if tiny else 3)
    ops = []
    for t in ts:
        ops.append(Op(
            f"curve_exact_half[t={t:g}]",
            lambda t=t: d.curve_exact_half(1.0, t, n_points=EXACT_CURVE_POINTS),
            _mass_check(1e-3),
            points=EXACT_CURVE_POINTS,
        ))
    for lam in lams:
        ops.append(Op(
            f"curve_exp_time[lam={lam:g}]",
            lambda lam=lam: d.curve_exp_time(1.0, lam, n_points=EXP_CURVE_POINTS),
            _mass_check(1e-3),
            points=EXP_CURVE_POINTS,
        ))
    for lam in lams:
        ops.append(Op(
            f"exp_time_total_mass[lam={lam:g}]",
            lambda lam=lam: d.exp_time_total_mass(1.0, lam),
            lambda m, _: Verdict(abs(m - 1.0), 1e-6, f"mass={m:.12f}"),
        ))
    for i, (t, w) in enumerate(zip(pt_t.tolist(), pt_w.tolist())):
        ops.append(Op(
            f"density_exact_half[{i}]",
            lambda t=t, w=w: d.density_exact_half(1.0, t, w),
            _positive,
            family="density_exact_half[points]",
        ))
    for nu, r in hw_pairs:
        def hw_check(res, _, nu=nu, r=r):
            ref = sf.bessel_i(nu, r)
            return Verdict(_rel(res[0], ref), 1e-4, f"value={res[0]:.12g} I={ref:.12g} bound={res[1]:.2g}")

        ops.append(Op(
            f"theta_time_laplace[nu={nu:g},r={r:g}]",
            lambda nu=nu, r=r: sf.theta_time_laplace(r, 0.5 * nu * nu),
            hw_check,
        ))
    for w in ws:
        def mix_check(res, _, w=w):
            ref = d.density_exp_time(1.0, 1.0, w)
            return Verdict(_rel(res[0], ref), 1e-3, f"value={res[0]:.9g} closed={ref:.9g} bound={res[1]:.2g}")

        ops.append(Op(
            f"density_exp_time_mixture[w={w:g}]",
            lambda w=w: d.density_exp_time_mixture(1.0, 1.0, w),
            mix_check,
        ))
    for x in quad_x.tolist():
        ops.append(Op(
            f"density_general_quad[x={x:.4f}]",
            lambda x=x: d.density_general_quad(1.0, 0.0, 1.0, x),
            _positive,
        ))
    path = os.path.join(out_dir, "density-exact-half.csv")
    argv = ["density", "--kind", "exact-half", "--x", "1", "--t", "1", "--output", path]

    def cli_check(res, _):
        mass = float(res.stdout.strip().rsplit("=", 1)[-1]) if res.rc == 0 else math.nan
        return Verdict(abs(mass - 1.0), 1e-3, f"rc={res.rc} mass={mass:.9f}")

    ops.append(Op("cli.density[exact-half]", lambda: _cli(vh, argv, path), cli_check))
    return ops


def _mc_oracle(vh, rng, tiny, out_dir):
    sim, d = vh.simulate, vh.density
    seeds = [int(s) for s in rng.integers(0, 2**31, size=7)]
    n = 8192 if tiny else 100_000
    n_det = 4096 if tiny else 8192
    n_cli = 1000 if tiny else 20_000
    th = MC_THREADS
    params = sim.ModelParams(mu=0.0, beta=1.0, x0=1.0)
    coupled = sim.ModelParams.coupled_start(1.0)
    x_grid = np.geomspace(0.01, 20.0, 72)

    def direct_check(est, _):
        ok = 0.0 < est.mean <= 1.0 and est.stderr > 0.0
        return _flag(ok, f"{est.mean:.6f}+-{est.stderr:.2g}")

    def exp_check(samples, _):
        curve = d.curve_exp_time(1.0, 1.0, n_points=800)
        ks = _ks_to_curve(samples, curve)
        return Verdict(ks, max(1e-2, 1.95 / math.sqrt(samples.size)), f"ks={ks:.5f} n={samples.size}")

    def general_check(res, _):
        curve, _errs = res
        return Verdict(abs(curve.total_mass - 1.0), 2e-2, f"mass={curve.total_mass:.4f}")

    def det_check(est, _):
        one = sim.laplace_mc_direct(1.0, params, 1.0, n_det, seeds[5], threads=1)
        diff = abs(est.mean - one.mean) + abs(est.stderr - one.stderr)
        return Verdict(diff, 0.0, f"threads={th} vs 1: mean {est.mean!r} vs {one.mean!r}")

    path = os.path.join(out_dir, "simulate-terminal.csv")
    argv = [
        "simulate", "--mode", "terminal", "--mu", "0", "--beta", "1", "--n", str(n_cli),
        "--seed", str(seeds[6]), "--threads", str(th), "--output", path,
    ]

    def cli_check(res, _):
        with open(res.path) as fh:
            rows = fh.read().splitlines()
        vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
        ok = (res.rc == 0 and rows[0] == "replicate,theta_T" and vals.size == n_cli
              and bool(np.all(np.isfinite(vals) & (vals > 0.0))))
        return _flag(ok, f"rc={res.rc} rows={vals.size} mean={vals.mean():.6f}")

    return [
        Op("laplace_mc_direct",
           lambda: sim.laplace_mc_direct(1.0, params, 1.0, n, seeds[0], threads=th),
           direct_check, paths=n),
        Op("laplace_mc_gbm",
           lambda: sim.laplace_mc_gbm(1.0, params, 1.0, n, seeds[1], threads=th),
           _agrees_with("laplace_mc_direct"), paths=n),
        Op("laplace_mc_besq",
           lambda: sim.laplace_mc_besq(1.0, params, 1.0, n, seeds[2], threads=th),
           _agrees_with("laplace_mc_direct"), paths=n,
           expected_failure="default horizon='t' is the reading the suite's laplace check rejects"),
        Op("simulate_exp_terminal",
           lambda: sim.simulate_exp_terminal(coupled, 1.0, 1e-3, n, seeds[3], threads=th),
           exp_check, paths=n),
        Op("curve_general_mc",
           lambda: d.curve_general_mc(1.0, 0.0, 1.0, x_grid, n, seeds[4], threads=th),
           general_check, paths=n, points=x_grid.size,
           expected_failure="default variant='unconditional' loses the suite's general-density arbitration"),
        Op("laplace_mc_direct[determinism]",
           lambda: sim.laplace_mc_direct(1.0, params, 1.0, n_det, seeds[5], threads=th),
           det_check, paths=n_det),
        Op("cli.simulate[terminal]", lambda: _cli(vh, argv, path), cli_check, paths=n_cli),
    ]


# --- output fingerprints -------------------------------------------------------


def digest(result):
    """Fingerprint of an operation's output, equal only for bit-identical outputs."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()[:16]


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, CliResult):
        h.update(repr(obj.rc).encode() + obj.stdout.encode())
        with open(obj.path, "rb") as fh:
            h.update(fh.read())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())
