"""Acceptance gates, one test per criterion, at full stated scale.

Every closed form ships with an independent oracle: identity integrals
against mpmath-grade quadrature, densities against million-path
empirical CDFs from the exact-in-distribution simulator, transforms
against a redundant triangle of Monte Carlo routes.  Each test prints a
single verdict line (visible with -rA or on failure) carrying the
statistic, the gate, and the runtime where one is imposed.  Seeds are
fixed; every statistic here is bit-reproducible at any worker count,
which is itself the final gate.
"""

import math
import time

import numpy as np
import pytest

from verhulst.density import (
    DensityCurve,
    _tilt_kernels,
    curve_exact_half,
    curve_exp_time,
    curve_general_mc,
    density_exp_time,
    density_exp_time_mixture,
    density_general_mc,
    exp_time_total_mass,
    moment_exp_int_theta,
)
from verhulst.simulate import (
    McEstimate,
    ModelParams,
    TimeGrid,
    girsanov_weight_batch,
    laplace_mc_besq,
    laplace_mc_direct,
    laplace_mc_gbm,
    simulate_exp_terminal,
    simulate_terminal_batch,
)
from verhulst.specfun import DEFAULT_QUAD
from verhulst.validate import (
    RepresentationParams,
    bessel_identity_check,
    hartman_watson_identity_check,
    ks_distance,
    measure_change_test,
    representation_check,
    z2_symmetry_check,
)


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


def _runtime_gate(num, label, elapsed, cap):
    line = f"criterion {num:02d} [{label}] runtime {elapsed:.1f}s (cap {cap:g}s)"
    print(line)
    assert elapsed < cap, line


def _curve_cdf(curve):
    cum = curve.cumulative()
    return lambda s: np.interp(s, curve.abscissae, cum)


def test_criterion_01_bessel_product_identity():
    start = time.perf_counter()
    report = bessel_identity_check()
    elapsed = time.perf_counter() - start
    _verdict(1, "bessel product identity", report.statistic, 1e-5,
             "x,w in {0.5,1,2,3}, nu in {0.6,1,2}")
    _runtime_gate(1, "bessel product identity", elapsed, 10.0)


def test_criterion_02_hartman_watson_identity():
    start = time.perf_counter()
    report = hartman_watson_identity_check()
    elapsed = time.perf_counter() - start
    assert "head" in report.details  # the small-t tail bound is documented
    _verdict(2, "hartman-watson identity", report.statistic, 1e-4, report.details)
    _runtime_gate(2, "hartman-watson identity", elapsed, 60.0)


def test_criterion_03_fixed_time_density():
    start = time.perf_counter()
    curve = curve_exact_half(1.0, 1.0, n_points=600)
    mass_err = abs(curve.total_mass - 1.0)
    n = 1_000_000
    stats = simulate_terminal_batch(
        ModelParams.coupled_start(1.0), TimeGrid(1.0, 1000), n, seed=93101
    )
    ks = ks_distance(np.sort(stats.theta), _curve_cdf(curve))
    elapsed = time.perf_counter() - start
    _verdict(3, "fixed-time density mass", mass_err, 1e-3,
             f"mass={curve.total_mass:.6f}")
    _verdict(3, "fixed-time density KS", ks, 5e-3, f"n={n}, dt=1e-3")
    _runtime_gate(3, "fixed-time density", elapsed, 300.0)


def test_criterion_04_exp_time_density():
    start = time.perf_counter()
    mass_err = abs(exp_time_total_mass(1.0, 1.0) - 1.0)
    n = 100_000
    samples = np.sort(
        simulate_exp_terminal(
            ModelParams.coupled_start(1.0), rate=1.0, dt=1e-3, n=n, seed=94102
        )
    )
    curve = curve_exp_time(1.0, 1.0, n_points=800)
    ks = ks_distance(samples, _curve_cdf(curve))
    elapsed = time.perf_counter() - start
    _verdict(4, "exp-time density mass", mass_err, 1e-6)
    _verdict(4, "exp-time density KS", ks, 1e-2, f"n={n} exponential-time samples")
    _runtime_gate(4, "exp-time density", elapsed, 120.0)


def test_criterion_05_mixture_identity():
    worst, at = -1.0, None
    for w in (0.5, 1.0, 2.0):
        closed = density_exp_time(1.0, 1.0, w)
        value, _ = density_exp_time_mixture(1.0, 1.0, w)
        rel = abs(value - closed) / closed
        if rel > worst:
            worst, at = rel, w
    _verdict(5, "rate-mixture of fixed-time densities", worst, 1e-3,
             f"worst at w={at:g}")


def test_criterion_06_martingale_mean():
    n = 100_000
    worst, at = -1.0, None
    cells = [
        (g, m, b, T)
        for g in (0.5, 1.0)
        for m in (-0.5, 0.0, 0.5)
        for b in (0.0, 1.0)
        for T in (0.5, 1.0)
    ]
    for j, (gamma, mu, beta, T) in enumerate(cells):
        params = ModelParams(mu=mu, beta=beta, x0=1.0)
        stats = simulate_terminal_batch(
            params, TimeGrid(T, int(round(T / 1e-3))), n, seed=95000 + j
        )
        w = girsanov_weight_batch(stats, gamma, params)
        z = abs(float(w.mean()) - 1.0) / float(w.std(ddof=1) / math.sqrt(n))
        if z > worst:
            worst, at = z, (gamma, mu, beta, T)
    _verdict(6, "exponential-martingale mean", worst, 3.0,
             f"24 cells, n={n}, worst |z| at (gamma,mu,beta,T)={at}")


def test_criterion_07_measure_change():
    n = 100_000
    reports = [
        measure_change_test(
            ModelParams(mu=0.0, beta=beta, x0=1.0),
            gamma=1.0,
            t=1.0,
            n=n,
            seed=96000 + 7 * int(beta),
        )
        for beta in (0.0, 1.0)
    ]
    worst = max(r.statistic for r in reports)
    _verdict(7, "measure-change pushforward", worst, 3.0,
             f"beta in {{0,1}}, gamma=1, t=1, n={n}, paired z over 4 test functions")


def test_criterion_08_moment_identity():
    n = 100_000
    worst, at = -1.0, None
    cells = [(m, b, T) for m in (-0.25, 0.0, 0.5) for b in (0.5, 1.0) for T in (0.5, 1.0)]
    for j, (mu, beta, T) in enumerate(cells):
        params = ModelParams(mu=mu, beta=beta, x0=1.0)
        stats = simulate_terminal_batch(
            params, TimeGrid(T, int(round(T / 1e-3))), n, seed=97000 + j
        )
        vals = np.exp(beta * stats.int_theta)
        target = moment_exp_int_theta(params, T)
        z = abs(float(vals.mean()) - target) / float(vals.std(ddof=1) / math.sqrt(n))
        if z > worst:
            worst, at = z, (mu, beta, T)
    _verdict(8, "exp-integrated-theta moment", worst, 3.0,
             f"12 cells, n={n}, worst |z| at (mu,beta,t)={at}")


def test_criterion_09_laplace_triangle():
    n = 100_000
    params = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    besq = laplace_mc_besq(1.0, params, 1.0, n, 98001)
    # negative control: the literal-t reading of the squared-Bessel
    # representation, i.e. kernel time t = 1, is the route run at t = 4
    literal = laplace_mc_besq(1.0, params, 4.0, n, 98000)
    gbm = laplace_mc_gbm(1.0, params, 1.0, n, 98002)
    direct = laplace_mc_direct(1.0, params, 1.0, n, 98003)

    def tri(est):
        return max(
            abs(est.mean - gbm.mean) / math.hypot(est.stderr, gbm.stderr),
            abs(est.mean - direct.mean) / math.hypot(est.stderr, direct.stderr),
            abs(gbm.mean - direct.mean) / math.hypot(gbm.stderr, direct.stderr),
        )

    assert tri(literal) > 3.0
    assert tri(literal) > tri(besq)
    _verdict(9, "laplace cross-oracle triangle", tri(besq), 3.0,
             f"n={n}; literal-t reading rejected at z={tri(literal):.1f}")


def _unconditional_mc(gamma, mu, t, x, n, seed):
    # negative control: the tilt kernel averaged over the draws without
    # conditioning them on the endpoint
    ((pref, h, _),) = _tilt_kernels(gamma, mu, t, np.array([x]), n, seed, DEFAULT_QUAD)
    return McEstimate(
        mean=pref * float(h.mean()), stderr=pref * float(h.std(ddof=1) / math.sqrt(n)), n=n
    )


def test_criterion_10_general_density():
    gamma, mu, t, n_hist, n = 1.0, 0.0, 1.0, 1_000_000, 100_000
    stats = simulate_terminal_batch(
        ModelParams(mu=mu, beta=gamma, x0=1.0), TimeGrid(t, 1000), n_hist, seed=99000
    )
    samples = np.sort(stats.theta)
    half = 0.02
    count = int(np.count_nonzero(np.abs(samples - 1.0) <= half))
    p_hist = count / (2.0 * half * n_hist)
    se_hist = math.sqrt(max(count, 1)) / (2.0 * half * n_hist)

    def z(est):
        return abs(est.mean - p_hist) / math.hypot(est.stderr, se_hist)

    # one path batch serves the histogram point x = 1 and the CDF grid
    x_grid = np.geomspace(0.01, 20.0, 72)
    k = int(np.searchsorted(x_grid, 1.0))
    both, errs = curve_general_mc(gamma, mu, t, np.insert(x_grid, k, 1.0), n, 99001)
    z_cond = z(McEstimate(mean=float(both.values[k]), stderr=float(errs[k]), n=n))
    curve = DensityCurve(x_grid, np.delete(both.values, k))
    z_uncond = z(_unconditional_mc(gamma, mu, t, 1.0, n, seed=99001))
    assert z_uncond > 3.0
    assert z_uncond > z_cond

    sup_cdf = ks_distance(samples, _curve_cdf(curve))
    mass_err = abs(curve.total_mass - 1.0)
    _verdict(10, "general-drift density sup-CDF", sup_cdf, 1e-2,
             f"z={z_cond:.2f} vs histogram (unconditional average z={z_uncond:.1f}), "
             f"curve vs n={n_hist} empirical CDF")
    _verdict(10, "general-drift density mass", mass_err, 2e-2,
             f"mass={curve.total_mass:.4f}")


def test_criterion_11_representation():
    rp = RepresentationParams.from_alpha(0.5, 1.0, t=1.0, T=2.0)
    report = representation_check(rp, TimeGrid(1.0, 1000), seed=62000)
    _verdict(11, "log-linear representation residual", report.statistic, 10 * 1e-3,
             "dt=1e-3")
    seeds = range(62000, 62005)
    coarse = np.mean(
        [representation_check(rp, TimeGrid(1.0, 1000), s).statistic for s in seeds]
    )
    fine = np.mean(
        [representation_check(rp, TimeGrid(1.0, 2000), s).statistic for s in seeds]
    )
    _verdict(11, "representation residual halving", fine / coarse, 0.5,
             f"mean over 5 paths: {coarse:.2e} at dt=1e-3 -> {fine:.2e} at dt=5e-4")


def test_criterion_12_z2_symmetry():
    worst, at = -1.0, None
    for lam in (1.0, 2.0):
        report = z2_symmetry_check(lam, (0.5, 1.0, 2.0))
        if report.statistic > worst:
            worst, at = report.statistic, lam
    _verdict(12, "z^2-weighted transform symmetry", worst, 1e-3,
             f"z in {{0.5,1,2}}, lam in {{1,2}}, worst at lam={at:g}")


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

    gd = [density_general_mc(1.0, 0.0, 1.0, 1.0, n, 55006, threads=th) for th in (1, 3)]
    assert (gd[0].mean, gd[0].stderr) == (gd[1].mean, gd[1].stderr)

    x_grid = np.geomspace(0.1, 5.0, 9)
    curves = [
        curve_general_mc(1.0, 0.0, 1.0, x_grid, n, 55007, threads=th)[0]
        for th in (1, 3)
    ]
    assert np.array_equal(curves[0].values, curves[1].values)

    _verdict(13, "determinism across worker counts", 0.0, 0.0,
             "terminal batch, exp-time sampler, three transform routes, "
             "measure change, general density: bit-identical at threads 1 vs 3")
