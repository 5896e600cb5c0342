"""Acceptance gates, one test per criterion, at full stated scale.

Criteria 01-12 are `verhulst validate --budget full`: each test runs its
one registry group through run_suite at the full budget, on up to two
sampler threads (criterion 13 shows the results do not depend on them),
and asserts that every report passes.  The group seed config.seed + 101 * index is set to
the criterion's fixed seed (93101 for the fixed-time KS, 98000 for the
Laplace triangle, ...), so every statistic is bit-reproducible.  What the
suite does not gate stays here: the runtime caps of criteria 01-04,
criterion 02's documented head bound, criterion 11's stricter halving
gate, the negative controls of criteria 09 and 10, and criterion 13,
bit-identity of every sampler at any worker count.  Each test prints one
verdict line per report (visible with -rA or on failure).
"""

import math
import os
import re
import time

import numpy as np
import pytest

from verhulst.density import (
    GENERAL_MC_STEPS,
    _tilt_kernel,
    curve_general_mc,
    density_general_quad,
    lognormal_density,
)
from verhulst.simulate import (
    McEstimate,
    ModelParams,
    TimeGrid,
    laplace_mc_besq,
    laplace_mc_direct,
    laplace_mc_gbm,
    simulate_bridge_window,
    simulate_exp_terminal,
    simulate_terminal_batch,
)
from verhulst.validate import SUITE_REGISTRY, SuiteConfig, measure_change_test, run_suite

pytestmark = pytest.mark.acceptance

_KEYS = [key for key, _ in SUITE_REGISTRY]


def _verdict(num, label, stat, tol, extra=""):
    ok = stat <= tol
    line = (
        f"criterion {num:02d} [{label}] {'PASS' if ok else 'FAIL'}: "
        f"statistic={stat:.3e} tolerance={tol:g}"
    )
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def _suite(num, key, group_seed=None, cap=None):
    """The full-budget reports of registry group `key` by name, each of
    which must pass; `group_seed` is the seed the group sees, `cap` a
    runtime cap in seconds."""
    seed = {} if group_seed is None else {"seed": group_seed - 101 * _KEYS.index(key)}
    start = time.perf_counter()
    threads = min(2, os.cpu_count() or 1)
    reports = run_suite(SuiteConfig(budget="full", only=(key,), threads=threads, **seed))
    elapsed = time.perf_counter() - start
    assert reports
    for r in reports:
        _verdict(num, r.name, r.statistic, r.threshold, f"{r.n_or_tolerance}; {r.details}")
    if cap is not None:
        line = f"criterion {num:02d} [{key}] runtime {elapsed:.1f}s (cap {cap:g}s)"
        print(line)
        assert elapsed < cap, line
    return {r.name: r for r in reports}


def test_criterion_01_bessel_product_identity():
    _suite(1, "bessel_product_identity", cap=10.0)


def test_criterion_02_hartman_watson_identity():
    report = _suite(2, "hartman_watson_identity", cap=60.0)["hartman_watson_identity"]
    assert "head" in report.details  # the small-t tail bound is documented


def test_criterion_03_fixed_time_density():
    _suite(3, "fixed_time", 93101, cap=300.0)


def test_criterion_04_exp_time_density():
    _suite(4, "exp_time", 94102, cap=120.0)


def test_criterion_05_mixture_identity():
    _suite(5, "mixture")


def test_criterion_06_martingale_mean():
    _suite(6, "martingale", 95000)


def test_criterion_07_measure_change():
    _suite(7, "measure_change", 96000)


def test_criterion_08_moment_identity():
    _suite(8, "moment", 97000)


def test_criterion_09_laplace_triangle():
    report = _suite(9, "laplace", 98000)["laplace_triangle"]
    assert "dt=0.01 (100 steps)" in report.details
    # negative control: the literal-t reading of the squared-Bessel
    # representation (kernel time t = 1, the route run at t = 4) against
    # the group's own besq estimate; neither route steps a path
    n, params = 100_000, ModelParams(mu=0.0, beta=1.0, x0=1.0)
    besq = laplace_mc_besq(1.0, params, 1.0, n, 98001)
    assert f"besq={besq.mean:.5f}" in report.details
    literal = laplace_mc_besq(1.0, params, 4.0, n, 98000)
    z = abs(literal.mean - besq.mean) / math.hypot(literal.stderr, besq.stderr)
    print(f"criterion 09 [negative control] literal-t reading rejected at z={z:.1f}")
    assert z > 3.0
    assert z > report.statistic


def test_criterion_10_general_density():
    reports = _suite(10, "general_density", 99000)
    assert "general_density_cdf" in reports  # sup-CDF against 1e6 paths at dt = 5e-3
    hist = reports["general_density_histogram"]
    # negative control: the tilt kernel averaged over unconditional
    # drift-mu paths (seed 99001, the curve's seed) instead of paths given
    # the endpoint, against the deterministic substitution quadrature at
    # x = 1; at x = 1 the kernel's prefactor is the lognormal density
    gamma, mu, t, n = 1.0, 0.0, 1.0, 100_000
    quad = density_general_quad(gamma, mu, t, 1.0)
    stats = simulate_terminal_batch(
        ModelParams(mu=mu, beta=0.0, x0=1.0), TimeGrid(t, GENERAL_MC_STEPS), n, 99001
    )
    h = stats.a[:, None].copy()
    _tilt_kernel(gamma, mu, t, np.array([1.0]), h)
    uncond = McEstimate.from_samples(lognormal_density(mu, t, 1.0) * h[:, 0])
    z_uncond = abs(uncond.mean - quad) / uncond.stderr
    # the report prints the estimate and its error unrounded (repr)
    est, se = map(float, re.search(r"estimate=(\S+?)\+-(\S+?);", hist.details).groups())
    z_cond = abs(est - quad) / se
    print(
        f"criterion 10 [negative control] unconditional average z={z_uncond:.1f} "
        f"vs quadrature {quad:.6f} (endpoint-conditional z={z_cond:.2f})"
    )
    assert z_uncond > 3.0
    assert z_uncond > z_cond


def test_criterion_11_representation():
    refine = _suite(11, "representation", 62000)["representation_refinement"]
    # the suite gates the refinement ratio at 0.75; acceptance asks for halving
    _verdict(11, "representation residual halving", refine.statistic, 0.5, refine.details)


def test_criterion_12_z2_symmetry():
    _suite(12, "z2_symmetry")


def test_criterion_13_determinism():
    n = 3 * 4096 + 17  # spans four RNG blocks, last one ragged
    params = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    grid = TimeGrid(1.0, 100)

    batches = [simulate_terminal_batch(params, grid, n, 55000, threads=th) for th in (1, 3)]
    for f in ("theta", "bmd", "a", "A", "int_theta", "int_theta_sq"):
        assert np.array_equal(getattr(batches[0], f), getattr(batches[1], f))

    exps = [
        simulate_exp_terminal(params, rate=1.0, dt=0.01, n=n, seed=55001, threads=th)
        for th in (1, 3)
    ]
    assert np.array_equal(exps[0], exps[1])

    routes = []
    for th in (1, 3):
        routes.append(
            (
                laplace_mc_besq(1.0, params, 1.0, n, 55002, threads=th),
                laplace_mc_gbm(1.0, params, 1.0, n, 55003, n_steps=100, threads=th),
                laplace_mc_direct(1.0, params, 1.0, n, 55004, n_steps=100, threads=th),
            )
        )
    for a, b in zip(*routes):
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    mc = [
        measure_change_test(params, gamma=1.0, t=1.0, n=n, seed=55005, dt=0.01, threads=th)
        for th in (1, 3)
    ]
    assert mc[0].statistic == mc[1].statistic

    x_grid = np.geomspace(0.1, 5.0, 9)
    curves = [curve_general_mc(1.0, 0.0, 1.0, x_grid, n, 55007, threads=th) for th in (1, 3)]
    assert np.array_equal(curves[0][0].values, curves[1][0].values)
    assert np.array_equal(curves[0][1], curves[1][1])

    windows = [simulate_bridge_window(params, grid, 0.95, 1.05, n, 55008, threads=th)
               for th in (1, 3)]
    assert np.array_equal(windows[0], windows[1])

    _verdict(13, "determinism across worker counts", 0.0, 0.0,
             "terminal batch, exp-time sampler, three transform routes, "
             "measure change, general density and its conditional window: "
             "bit-identical at threads 1 vs 3")
