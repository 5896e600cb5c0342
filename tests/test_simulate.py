"""Tests for the Monte Carlo layer.

Statistical assertions use 3-sigma gates at sample sizes where the
tested effect is several sigma wide, so flakes are vanishingly rare
under the pinned seeds.  Identities that hold pathwise (the beta = 0
degeneracy, replay determinism, worker-count independence) are asserted
bitwise.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from verhulst import simulate
from verhulst.density import GENERAL_MC_STEPS, _tilt_kernel
from verhulst.errors import DomainError
from verhulst.simulate import (
    BLOCK_PATHS,
    PATH_CSV_HEADER,
    McEstimate,
    ModelParams,
    PathSample,
    TerminalStats,
    TimeGrid,
    dump_path_csv,
    girsanov_weight_batch,
    laplace_grid,
    laplace_mc_besq,
    laplace_mc_direct,
    laplace_mc_gbm,
    sample_besq0,
    sample_exp_time,
    simulate_bridge_integrals,
    simulate_bridge_window,
    simulate_exp_terminal,
    simulate_functional,
    simulate_terminal_batch,
)
from verhulst.simulate import (
    _BATCH_CHUNK_ELEMS, _ROW_ADD_WIDTH, _block_rng, _bridge_level, _run_blocks, _window_probability
)
from verhulst.validate import _CERTIFIED_DT, _MART_CELLS, _MOMENT_CELLS


# --- parameter types --------------------------------------------------------


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(mu=0.0, beta=-0.1, x0=1.0)
    with pytest.raises(DomainError):
        ModelParams(mu=0.0, beta=1.0, x0=0.0)
    # the coupled convention is a start, not a mode: mu = -1/2, beta = x0
    assert ModelParams.coupled_start(2.0) == ModelParams(mu=-0.5, beta=2.0, x0=2.0)


def test_time_grid():
    g = TimeGrid(1.0, 4)
    assert g.dt == 0.25
    assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        TimeGrid(0.0, 4)
    with pytest.raises(DomainError):
        TimeGrid(1.0, 0)
    # the step count is an integer: Python's or numpy's
    assert TimeGrid(1.0, np.int64(4)).dt == 0.25
    for bad in (math.nan, 2.5, 4.0, "4"):
        with pytest.raises(DomainError, match="n_steps must be an integer"):
            TimeGrid(1.0, bad)
    assert TimeGrid.with_step(1.0, 0.3) == TimeGrid(1.0, 3)
    assert TimeGrid.with_step(0.004, 0.01) == TimeGrid(0.004, 1)


_P = ModelParams(mu=0.0, beta=1.0, x0=1.0)
_NON_FINITE = {
    "beta=nan": lambda: ModelParams(mu=0.0, beta=math.nan),
    "beta=inf": lambda: ModelParams(mu=0.0, beta=math.inf),
    "mu=nan": lambda: ModelParams(mu=math.nan, beta=1.0),
    "x0=nan": lambda: ModelParams(mu=0.0, beta=1.0, x0=math.nan),
    "coupled x=nan": lambda: ModelParams.coupled_start(math.nan),
    "grid t=nan": lambda: TimeGrid(math.nan, 10),
    "grid t=inf": lambda: TimeGrid(math.inf, 10),
    "grid dt=nan": lambda: TimeGrid.with_step(1.0, math.nan),
    **{
        f"{route.__name__} {arg}=nan": (
            lambda route=route, arg=arg: route(**{"lam": 1.0, "t": 1.0, arg: math.nan},
                                               params=_P, n=10, seed=1)
        )
        for route in (laplace_mc_direct, laplace_mc_gbm, laplace_mc_besq)
        for arg in ("lam", "t")
    },
    "laplace_mc_direct t=inf": lambda: laplace_mc_direct(1.0, _P, math.inf, 10, seed=1),
    "exp_terminal rate=nan": lambda: simulate_exp_terminal(_P, math.nan, 1e-3, 10, seed=1),
    "exp_terminal dt=nan": lambda: simulate_exp_terminal(_P, 1.0, math.nan, 10, seed=1),
    "bridge_window lo=nan": lambda: simulate_bridge_window(_P, TimeGrid(1.0, 10), math.nan, 1.0, 10, 1),
    "bridge_window hi=nan": lambda: simulate_bridge_window(_P, TimeGrid(1.0, 10), 0.5, math.nan, 10, 1),
    "girsanov gamma=nan": lambda: girsanov_weight_batch(
        simulate_terminal_batch(_P, TimeGrid(1.0, 10), 2, seed=1), math.nan, _P
    ),
}


_COUNTED = {
    # each call takes n = 5 paths at seed 1 on 1 thread unless told otherwise
    "terminal_batch": lambda **kw: simulate_terminal_batch(
        _P, TimeGrid(1.0, 10), **{"n": 5, "seed": 1, **kw}),
    "exp_terminal": lambda **kw: simulate_exp_terminal(_P, 1.0, 1e-2, **{"n": 5, "seed": 1, **kw}),
    "laplace_mc_besq": lambda **kw: laplace_mc_besq(1.0, _P, 1.0, **{"n": 5, "seed": 1, **kw}),
    "bridge_window": lambda **kw: simulate_bridge_window(
        _P, TimeGrid(1.0, 10), 0.9, 1.1, **{"n": 5, "seed": 1, **kw}),
}
_NON_INTEGRAL = {
    f"{name} {arg}={bad}": (arg, lambda call=call, arg=arg, bad=bad: call(**{arg: bad}))
    for name, call in _COUNTED.items()
    for arg, bad in (("n", math.nan), ("n", 2.5), ("n", 0), ("threads", math.nan),
                     ("threads", 1.5), ("seed", 1.5), ("seed", -1))
}
_REFUSALS = {
    **{key: ("must be finite", call) for key, call in _NON_FINITE.items()},
    **{key: (f"^{arg} must be an integer", call) for key, (arg, call) in _NON_INTEGRAL.items()},
}


@pytest.mark.parametrize("pattern, call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_non_finite_inputs_refused(pattern, call):
    # NaN passes every `x <= 0` guard; each input must be refused by name,
    # not turned into a NaN estimate, a numpy error or a later complaint
    with pytest.raises(DomainError, match=pattern):
        call()


def test_mc_estimate():
    est = McEstimate.from_samples([1.0, 2.0, 3.0, 4.0])
    assert est.mean == 2.5
    assert est.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.n == 4
    with pytest.raises(DomainError):
        McEstimate.from_samples([1.0])


# --- exact functional simulator ---------------------------------------------


def test_functional_beta_zero_is_gbm_bitwise():
    for x0 in (1.0, 2.0):
        p = ModelParams(mu=0.3, beta=0.0, x0=x0)
        s = simulate_functional(p, TimeGrid(1.0, 200), seed=42)
        assert np.array_equal(s.theta, x0 * np.exp(s.bmd))


def test_functional_start_and_positivity():
    p = ModelParams(mu=-0.5, beta=1.0, x0=1.0)
    s = simulate_functional(p, TimeGrid(2.0, 500), seed=1)
    assert s.theta[0] == 1.0
    assert np.all(s.theta > 0.0)


def test_functional_short_horizon_continuity():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.5)
    s = simulate_functional(p, TimeGrid(1e-8, 1), seed=3)
    assert s.theta[-1] == pytest.approx(1.5, rel=1e-3)


def test_functional_replay_deterministic():
    p = ModelParams(mu=0.1, beta=0.5, x0=1.0)
    g = TimeGrid(1.0, 300)
    s1 = simulate_functional(p, g, seed=77)
    s2 = simulate_functional(p, g, seed=77)
    assert np.array_equal(s1.theta, s2.theta)
    assert np.array_equal(s1.bmd, s2.bmd)
    for r1, r2 in zip(s1.running_integrals(), s2.running_integrals()):
        assert np.array_equal(r1, r2)


def test_gbm_terminal_mean():
    # exact-in-distribution nodes: E theta_T = e^{t/2} at mu = 0, beta = 0
    p = ModelParams(mu=0.0, beta=0.0, x0=1.0)
    stats = simulate_terminal_batch(p, TimeGrid(1.0, 200), 20_000, seed=11)
    est = McEstimate.from_samples(stats.theta)
    assert abs(est.mean - math.exp(0.5)) < 3.0 * est.stderr


def test_batch_path_zero_matches_single_path():
    # one path arithmetic: theta, B + mu t and a_T of an n = 1 batch are the
    # functional's bit for bit; the other integrals differ only in summation
    # order.  A larger block walks in other tiles, so its path 0 differs.
    params_sets = (
        ModelParams(mu=0.2, beta=0.8),
        ModelParams.coupled_start(2.0),
        ModelParams(mu=1.0, beta=0.5, x0=0.7),
        ModelParams(mu=0.3, beta=0.0, x0=2.5),  # the batch's beta = 0 skip
        ModelParams(mu=0.3, beta=0.0),  # theta is e^{B + mu t}: int theta^2 is A_t
    )
    for params in params_sets:
        for n_steps in (1, 7, 250, 1000):
            g = TimeGrid(1.0, n_steps)
            for seed in range(200):
                case = (params, n_steps, seed)
                single = simulate_functional(params, g, seed=seed)
                i_th, i_th2, a_run, big_a = single.running_integrals()
                batch = simulate_terminal_batch(params, g, 1, seed=seed)
                assert batch.theta[0] == single.theta[-1], case
                assert batch.bmd[0] == single.bmd[-1], case
                assert batch.a[0] == a_run[-1], case
                refs = [(batch.int_theta, i_th), (batch.int_theta_sq, i_th2)]
                if params.beta == 0.0 and params.x0 == 1.0:
                    refs.append((batch.int_theta_sq, big_a))
                for got, ref in refs:
                    assert got[0] == pytest.approx(ref[-1], rel=1e-12), case


_STATS_FIELDS = ("theta", "bmd", "a", "int_theta", "int_theta_sq")


def test_batch_thread_count_invariance():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    g = TimeGrid(0.5, 300)
    one = simulate_terminal_batch(p, g, 6_000, seed=5, threads=1)
    three = simulate_terminal_batch(p, g, 6_000, seed=5, threads=3)
    for f in _STATS_FIELDS:
        assert np.array_equal(getattr(one, f), getattr(three, f))


def _terminal_batch_whole_block(params, grid, n, seed):
    """Reference: the batch sampler with each block's (steps x paths)
    matrices built whole, normal j m + i feeding step j + 1 of path i, and
    the full path at every beta and x0: each pass of the running a_t, then
    the divide and the product.  B, the running sum of e^{B + mu t} and
    theta are sequential sums down the step axis, so they do not depend
    on the sampler's tile heights; int theta and int theta^2 add the
    per-tile sums, so this replays the tile plan: max(1, budget // m)
    steps a tile, at the budget in force when it is called."""
    S, dt = grid.n_steps, grid.dt
    sqdt = math.sqrt(dt)
    mu, beta, x0 = params.mu, params.beta, params.x0
    out = TerminalStats(*(np.empty(n) for _ in _STATS_FIELDS))
    for b in range((n + BLOCK_PATHS - 1) // BLOCK_PATHS):
        lo = b * BLOCK_PATHS
        m = min(BLOCK_PATHS, n - lo)
        w = _block_rng(seed, b).standard_normal((S, m))
        w *= sqdt
        np.cumsum(w, axis=0, out=w)
        w += mu * dt * np.arange(1, S + 1)[:, None]
        bmd_T = w[-1].copy()
        np.exp(w, out=w)
        cum = np.cumsum(w, axis=0)
        cum -= 0.5 * w
        cum += 0.5
        cum *= dt
        a_T = cum[-1].copy()
        th = w / (cum * beta + 1.0) * x0
        k = max(1, simulate._BATCH_CHUNK_ELEMS // m)
        sums = np.zeros((2, m))
        for j0 in range(0, S, k):
            t = th[j0 : j0 + k]
            sums += (t.sum(axis=0), np.einsum("ij,ij->j", t, t))
        th_T = th[-1]
        sl = slice(lo, lo + m)
        out.theta[sl] = th_T
        out.bmd[sl] = bmd_T
        out.a[sl] = a_T
        out.int_theta[sl] = dt * (sums[0] - 0.5 * th_T + 0.5 * x0)
        out.int_theta_sq[sl] = dt * (sums[1] - 0.5 * th_T * th_T + 0.5 * x0 * x0)
    return out


@pytest.mark.parametrize("params", [
    ModelParams(mu=0.3, beta=1.0),
    ModelParams(mu=0.3, beta=0.0),
    ModelParams.coupled_start(2.0),
    ModelParams(mu=1.0, beta=0.5, x0=0.7),
    # beta = 0 skips the running a_t; at x0 = 1 it also skips theta's products
    ModelParams(mu=0.3, beta=0.0, x0=2.5),
    ModelParams(mu=0.0, beta=0.8),
])
@pytest.mark.parametrize("n_steps, n", [
    *((s, n) for s in (1, 7, 1000) for n in (1, 5, 2 * BLOCK_PATHS + 3)),
    # the widest block that takes np.cumsum down the step axis and the
    # narrowest that adds row by row, each in two tiles, and two wider ones
    (300, _ROW_ADD_WIDTH - 1),
    (300, _ROW_ADD_WIDTH),
    (300, 2 * (_BATCH_CHUNK_ELEMS // 300) + 1),
    (300, 1024),
    # more steps than the element budget: even a one-path block runs in tiles
    (_BATCH_CHUNK_ELEMS + 1, 1),
    (_BATCH_CHUNK_ELEMS + 1, 3),
    (_BATCH_CHUNK_ELEMS + 1, 5),
])
def test_batch_row_chunks_match_whole_block(params, n_steps, n, monkeypatch):
    grid = TimeGrid(1.0, n_steps)
    ref = _terminal_batch_whole_block(params, grid, n, seed=23)
    for threads in (1, 3):
        got = simulate_terminal_batch(params, grid, n, seed=23, threads=threads)
        for f in _STATS_FIELDS:
            assert np.array_equal(getattr(got, f), getattr(ref, f)), f
    # one-row tiles at full width: the sequential sums keep every bit, and
    # the tile sums follow the plan
    monkeypatch.setattr(simulate, "_BATCH_CHUNK_ELEMS", 2**9)
    small = _terminal_batch_whole_block(params, grid, n, seed=23)
    got = simulate_terminal_batch(params, grid, n, seed=23)
    for f in _STATS_FIELDS:
        assert np.array_equal(getattr(got, f), getattr(small, f)), f
    for f in ("theta", "bmd", "a"):
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f


@pytest.mark.parametrize("params", [
    ModelParams(mu=0.3, beta=0.7, x0=1.0),
    ModelParams.coupled_start(2.0),
])
def test_pathwise_exponential_identities(params):
    # exp((beta/x0) int theta) = 1 + beta a_T and theta_T e^{(beta/x0) int theta}
    # = x0 e^{bmd_T}: exact in continuous time, O(dt) under the trapezoid
    g = TimeGrid(1.0, 1000)
    for seed in (2, 17, 31):
        s = simulate_functional(params, g, seed=seed)
        i_th, _, a_run, _ = s.running_integrals()
        lhs = math.exp(params.beta / params.x0 * i_th[-1])
        rhs = 1.0 + params.beta * a_run[-1]
        assert abs(lhs / rhs - 1.0) < 1e-2
        lhs2 = s.theta[-1] * lhs
        rhs2 = params.x0 * math.exp(s.bmd[-1])
        assert abs(lhs2 / rhs2 - 1.0) < 1e-2


def test_running_integrals_consistency():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    s = simulate_functional(p, TimeGrid(1.0, 400), seed=21)
    i_th, i_th2, a_run, big_a = s.running_integrals()
    assert i_th[0] == i_th2[0] == a_run[0] == big_a[0] == 0.0
    for series in (i_th, i_th2, a_run, big_a):
        assert np.all(np.diff(series) >= 0.0)


# --- Euler witness ----------------------------------------------------------


def _euler_path(params, grid, seed):
    """Euler-Maruyama path of d theta = theta dB + ((mu+1/2) theta -
    (beta/x0) theta^2) dt on simulate_functional's increments at the same
    seed, with steps driven to theta <= 0 reflected to 1e-12 x0; returns
    the node values and the number of reflections."""
    dt = grid.dt
    g = _block_rng(seed, 0).standard_normal((1, grid.n_steps))[0] * math.sqrt(dt)
    mu, x0 = params.mu, params.x0
    quad = params.beta / x0
    theta = np.empty(grid.n_steps + 1)
    theta[0] = x0
    clamped = 0
    for i in range(grid.n_steps):
        th = theta[i]
        nxt = th + th * g[i] + ((mu + 0.5) * th - quad * th * th) * dt
        if nxt <= 0.0:
            nxt = 1e-12 * x0
            clamped += 1
        theta[i + 1] = nxt
    return theta, clamped


def test_euler_one_step_drift():
    # at theta=1, mu=0, beta=0 the drift is (mu+1/2) theta = 1/2
    dt = 0.05
    p = ModelParams(mu=0.0, beta=0.0, x0=1.0)
    g = TimeGrid(dt, 1)
    incs = np.array([_euler_path(p, g, seed=s)[0][-1] - 1.0 for s in range(2000)])
    est = McEstimate.from_samples(incs)
    assert abs(est.mean - 0.5 * dt) < 3.0 * est.stderr


def test_euler_strong_convergence_under_refinement():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    gaps = {}
    for n_steps in (100, 200):
        g = TimeGrid(1.0, n_steps)
        gaps[n_steps] = np.array(
            [
                abs(
                    _euler_path(p, g, seed=s)[0][-1]
                    - simulate_functional(p, g, seed=s).theta[-1]
                )
                for s in range(300)
            ]
        ).mean()
    ratio = gaps[100] / gaps[200]
    assert 1.15 < ratio < 2.5


def test_euler_positivity_guard():
    # brutal parameters force negative proposals; the guard reflects them
    p = ModelParams(mu=-0.5, beta=40.0, x0=1.0)
    theta, clamped = _euler_path(p, TimeGrid(2.0, 20), seed=4)
    assert np.all(theta > 0.0)
    assert clamped > 0


# --- change of measure ------------------------------------------------------


def test_girsanov_weight_small_gamma():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    stats = simulate_terminal_batch(p, TimeGrid(1.0, 200), 8, seed=6)
    assert np.allclose(girsanov_weight_batch(stats, 1e-12, p), 1.0, rtol=0.0, atol=1e-9)
    with pytest.raises(DomainError):
        girsanov_weight_batch(stats, 0.0, p)


def test_girsanov_martingale_mean():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    stats = simulate_terminal_batch(p, TimeGrid(1.0, 500), 20_000, seed=13)
    w = girsanov_weight_batch(stats, 0.5, p)
    est = McEstimate.from_samples(w)
    assert abs(est.mean - 1.0) < 3.0 * est.stderr


def test_girsanov_weight_bounded():
    # exp(gamma x0 + (gamma (mu+1/2))^2 T / (4 c)), c = gamma beta/x0 + gamma^2/2:
    # the exponent maximized over theta in the two integrals
    for p in (
        ModelParams(mu=0.5, beta=1.0, x0=1.0),
        ModelParams(mu=-0.5, beta=0.0, x0=1.0),
    ):
        stats = simulate_terminal_batch(p, TimeGrid(1.0, 300), 4_000, seed=8)
        for gamma in (0.5, 1.0):
            c = gamma * p.beta / p.x0 + 0.5 * gamma * gamma
            bound = math.exp(gamma * p.x0 + (gamma * (p.mu + 0.5)) ** 2 / (4.0 * c))
            w = girsanov_weight_batch(stats, gamma, p)
            assert w.max() <= bound


# --- elementary samplers ----------------------------------------------------


def test_besq0_absorbed_at_zero():
    rng = _block_rng(1, 0)
    assert sample_besq0(0.0, 0.5, rng) == 0.0
    assert np.all(sample_besq0(np.zeros(100), 1.0, rng) == 0.0)


def test_besq0_zero_mass_and_mean():
    rng = _block_rng(2, 0)
    n, x, s = 100_000, 1.0, 0.5
    draws = sample_besq0(np.full(n, x), s, rng)
    p_zero = np.mean(draws == 0.0)
    ref = math.exp(-x / (2.0 * s))
    assert abs(p_zero - ref) < 3.0 * math.sqrt(ref * (1.0 - ref) / n)
    est = McEstimate.from_samples(draws)
    assert abs(est.mean - x) < 3.0 * est.stderr  # martingale mean


def test_besq0_domain():
    rng = _block_rng(3, 0)
    with pytest.raises(DomainError):
        sample_besq0(1.0, 0.0, rng)
    with pytest.raises(DomainError):
        sample_besq0(-1.0, 0.5, rng)


def test_exp_time_mean_and_memorylessness():
    rng = _block_rng(4, 0)
    rate = 2.0
    draws = sample_exp_time(rate, rng, size=100_000)
    est = McEstimate.from_samples(draws)
    assert abs(est.mean - 1.0 / rate) < 3.0 * est.stderr
    cut = 0.4
    excess = draws[draws > cut] - cut
    est2 = McEstimate.from_samples(excess)
    assert abs(est2.mean - 1.0 / rate) < 3.0 * est2.stderr
    with pytest.raises(DomainError):
        sample_exp_time(0.0, rng)


def test_exp_terminal_sampler():
    p = ModelParams.coupled_start(1.0)
    th1 = simulate_exp_terminal(p, 0.5, 2e-3, 4_000, seed=10, threads=1)
    th3 = simulate_exp_terminal(p, 0.5, 2e-3, 4_000, seed=10, threads=3)
    assert np.array_equal(th1, th3)
    assert np.all(th1 > 0.0)
    # drift is -theta^2 here, so longer horizons sit lower on average
    quick = simulate_exp_terminal(p, 20.0, 2e-3, 4_000, seed=10)
    assert quick.mean() > th1.mean() + 0.1


def _exp_terminal_pathwise(params, rate, dt, n, seed):
    """Reference: the exp-time sampler replayed one step at a time.  Within
    each block, paths run in decreasing order of horizon on the tiles of
    _exp_plan; a tile (j0, j1, a) draws its (j1 - j0) x a normals in C
    order, one row per step for the first a paths, and a path's theta is
    read at its own last step."""
    mu, beta, x0 = params.mu, params.beta, params.x0
    out = np.empty(n)
    for b in range((n + BLOCK_PATHS - 1) // BLOCK_PATHS):
        lo = b * BLOCK_PATHS
        rng = _block_rng(seed, b)
        horizons = -np.log1p(-rng.random(min(BLOCK_PATHS, n - lo))) / rate
        n_steps = np.maximum(1, np.rint(horizons / dt).astype(np.int64))
        order = np.argsort(-n_steps, kind="stable")
        ns = n_steps[order]
        walk, run = np.zeros((2, ns.size))
        last = ns.size  # paths last..ns.size-1 have ended
        for j0, j1, a in simulate._exp_plan(ns):
            z = rng.standard_normal((j1 - j0, a)) * math.sqrt(dt)
            walk_a, run_a = walk[:a], run[:a]
            for j in range(j0 + 1, j1 + 1):
                walk_a += z[j - j0 - 1]
                e = np.exp(walk_a + mu * dt * j)
                run_a += e
                ended = last
                while ended and ns[ended - 1] == j:
                    ended -= 1
                if ended < last:
                    k = slice(ended, last)
                    a_t = (run_a[k] - 0.5 * e[k] + 0.5) * dt
                    out[lo + order[k]] = e[k] / (a_t * beta + 1.0) * x0
                    last = ended
    return out


@pytest.mark.parametrize(
    "params, rate, dt, n",
    [
        (ModelParams.coupled_start(1.0), 1.0, 1e-3, 3 * BLOCK_PATHS + 17),
        (ModelParams.coupled_start(1.0), 1.0, 1e-3, 1),
        (ModelParams.coupled_start(1.0), 1.0, 1e-3, BLOCK_PATHS + 1),
        (ModelParams.coupled_start(1.0), 20.0, 1e-3, 5_000),
        (ModelParams.coupled_start(1.0), 1.0, 1e3, 5_000),  # every horizon is 1 step
        (ModelParams(mu=0.3, beta=2.0, x0=0.7), 0.5, 2e-3, 5_000),
        (ModelParams.coupled_start(1.0), 0.1, 1e-3, 300),  # tens of thousands of steps
        (ModelParams.coupled_start(1.0), 0.05, 1e-4, 5),  # longest beyond the element budget
    ],
)
def test_exp_terminal_chunks_match_pathwise(params, rate, dt, n, monkeypatch):
    ref = _exp_terminal_pathwise(params, rate, dt, n, seed=21)
    for threads in (1, 3):
        got = simulate_exp_terminal(params, rate, dt, n, seed=21, threads=threads)
        assert np.array_equal(got, ref)
    # the element budget shapes the tile plan, and with it the draws
    monkeypatch.setattr(simulate, "_BATCH_CHUNK_ELEMS", 2**9)
    ref = _exp_terminal_pathwise(params, rate, dt, n, seed=21)
    assert np.array_equal(simulate_exp_terminal(params, rate, dt, n, seed=21), ref)


@pytest.mark.parametrize("dt", [1e-3, 2e-3, 5e-3])
def test_exp_plan_pads_little(dt):
    # the tiles of 5 blocks of rate-1 horizons: each covers the next steps
    # of the paths still running, within the element budget, and fewer
    # than a tenth of its paths end inside it; the normals they draw past
    # their horizons stay under 6% of the path-steps
    drawn = needed = 0
    for b in range(5):
        horizons = sample_exp_time(1.0, _block_rng(71, b), BLOCK_PATHS)
        ns = np.sort(np.maximum(1, np.rint(horizons / dt).astype(np.int64)))[::-1]
        j_end = 0
        for j0, j1, a in simulate._exp_plan(ns):
            assert j0 == j_end < j1 and a == np.sum(ns > j0)
            assert (j1 - j0) * a <= max(_BATCH_CHUNK_ELEMS, a)
            assert 10 * np.sum(ns[:a] < j1) < a
            drawn += (j1 - j0) * a
            j_end = j1
        assert j_end == ns[0]
        needed += int(ns.sum())
    assert (drawn - needed) / needed <= 0.06


def _traced_peak_mib(call):
    """Peak memory numpy and Python allocate during call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sampler_working_memory():
    # two reused 1 MiB tile buffers and the outputs, whatever n (3.4 MiB;
    # 4.3 with a tile-sized temporary for the running trapezoid's halves):
    # a tile-sized temporary more per tile shows here
    # before it shows in a process's peak RSS
    batch = _traced_peak_mib(lambda: simulate_terminal_batch(
        ModelParams(mu=0.0, beta=1.0), TimeGrid(1.0, 1000), 8192, seed=1))
    assert batch <= 4.5
    exp_time = _traced_peak_mib(lambda: simulate_exp_terminal(
        ModelParams.coupled_start(1.0), 1.0, 1e-3, 8192, seed=1))
    assert exp_time <= 3.6
    # the bridge walker's two tiles and the Newton's one
    window = _traced_peak_mib(lambda: simulate_bridge_window(
        ModelParams(mu=0.0, beta=1.0), TimeGrid(1.0, 1000), 0.95, 1.05, 8192, seed=1))
    assert window <= 3.5


def test_exp_terminal_horizon_overflow_refused():
    # 1e20 / 1e-3 steps do not fit int64; an unchecked cast turns them
    # into one step and returns values near x0
    with pytest.raises(DomainError, match="int64"):
        simulate_exp_terminal(ModelParams.coupled_start(1.0), 1e-20, 1e-3, 5, seed=3)


# --- Laplace-transform routes -----------------------------------------------


def test_laplace_at_zero_is_exactly_one():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    d = laplace_mc_direct(0.0, p, 1.0, 100, seed=1)
    assert (d.mean, d.stderr) == (1.0, 0.0)
    g0 = laplace_mc_gbm(0.0, ModelParams(mu=0.0, beta=0.0, x0=1.0), 1.0, 100, seed=1)
    assert (g0.mean, g0.stderr) == (1.0, 0.0)


def test_laplace_besq_small_lambda_limit():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    est = laplace_mc_besq(1e-12, p, 1.0, 2_000, seed=2)
    assert est.mean == pytest.approx(1.0, abs=1e-6)
    # the boundary itself: the squared-Bessel draw is absorbed at 0 and the
    # kernel collapses to 1 on every replicate (up to log/exp roundoff)
    z = laplace_mc_besq(0.0, p, 1.0, 2_000, seed=2)
    assert z.mean == pytest.approx(1.0, abs=1e-14)
    assert z.stderr < 1e-15


def test_laplace_besq_domain():
    ok = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    with pytest.raises(DomainError):
        laplace_mc_besq(1.0, ModelParams(mu=0.0, beta=0.0, x0=1.0), 1.0, 100, seed=1)
    with pytest.raises(DomainError):
        laplace_mc_besq(-1.0, ok, 1.0, 100, seed=1)


def test_laplace_besq_any_start():
    # theta(x0, beta) = x0 theta(1, beta): any start is the start-1 route at lam x0
    kw = dict(t=1.0, n=2_000, seed=25)
    a = laplace_mc_besq(1.0, ModelParams(mu=0.0, beta=1.0, x0=2.0), **kw)
    b = laplace_mc_besq(2.0, ModelParams(mu=0.0, beta=1.0, x0=1.0), **kw)
    assert a.mean == b.mean and a.stderr == b.stderr
    p = ModelParams(mu=0.3, beta=0.7, x0=2.0)
    besq = laplace_mc_besq(1.0, p, 1.0, 30_000, seed=26)
    direct = laplace_mc_direct(1.0, p, 1.0, 30_000, seed=27)
    assert abs(besq.mean - direct.mean) < 3.0 * math.hypot(besq.stderr, direct.stderr)


def test_laplace_direct_monotone_in_lambda():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    means = [
        laplace_mc_direct(lam, p, 1.0, 4_000, seed=3).mean
        for lam in (0.5, 1.0, 2.0)
    ]
    assert means[0] > means[1] > means[2]  # shared paths: exact pointwise order


def test_laplace_direct_beta_zero_lognormal_oracle():
    mu, t, lam = 0.2, 1.0, 0.7
    p = ModelParams(mu=mu, beta=0.0, x0=1.0)
    est = laplace_mc_direct(lam, p, t, 20_000, seed=14)
    # in-test quadrature oracle: E e^{-lam e^X}, X ~ N(mu t, t)
    x = np.linspace(mu * t - 10.0, mu * t + 10.0, 20_001)
    pdf = np.exp(-((x - mu * t) ** 2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    ref = float(np.sum(np.exp(-lam * np.exp(x)) * pdf) * (x[1] - x[0]))
    assert abs(est.mean - ref) < 3.0 * est.stderr


def test_laplace_stderr_clt_scaling():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    small = laplace_mc_direct(1.0, p, 1.0, 4_000, seed=15)
    large = laplace_mc_direct(1.0, p, 1.0, 8_000, seed=15)
    ratio = small.stderr / large.stderr
    assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)


def test_laplace_routes_agree():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    d = laplace_mc_direct(1.0, p, 1.0, 30_000, seed=16)
    g = laplace_mc_gbm(1.0, p, 1.0, 30_000, seed=17)
    b = laplace_mc_besq(1.0, p, 1.0, 30_000, seed=18)
    for lhs, rhs in ((d, g), (d, b), (g, b)):
        z = abs(lhs.mean - rhs.mean) / math.hypot(lhs.stderr, rhs.stderr)
        assert z < 4.0


def test_laplace_gbm_coupled_convention():
    # coupled x = 1 coincides with the generic (mu=-1/2, beta=1) start-1 model
    pc = ModelParams.coupled_start(1.0)
    pg = ModelParams(mu=-0.5, beta=1.0, x0=1.0)
    a = laplace_mc_gbm(1.0, pc, 1.0, 2_000, seed=19)
    b = laplace_mc_gbm(1.0, pg, 1.0, 2_000, seed=19)
    assert a.mean == b.mean and a.stderr == b.stderr
    # theta(x0, beta) = x0 theta(1, beta): any start is the start-1 route at lam x0
    kw = dict(t=1.0, n=2_000, seed=19)
    c = laplace_mc_gbm(1.0, ModelParams(mu=0.0, beta=1.0, x0=2.0), **kw)
    d = laplace_mc_gbm(2.0, ModelParams(mu=0.0, beta=1.0, x0=1.0), **kw)
    assert c.mean == d.mean and c.stderr == d.stderr


def test_laplace_thread_count_invariance():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    one = laplace_mc_direct(1.0, p, 1.0, 9_000, seed=20, threads=1)
    four = laplace_mc_direct(1.0, p, 1.0, 9_000, seed=20, threads=4)
    assert (one.mean, one.stderr) == (four.mean, four.stderr)
    b1 = laplace_mc_besq(1.0, p, 1.0, 9_000, seed=21, threads=1)
    b4 = laplace_mc_besq(1.0, p, 1.0, 9_000, seed=21, threads=4)
    assert (b1.mean, b1.stderr) == (b4.mean, b4.stderr)


@pytest.mark.parametrize("t, steps", [(0.004, 1), (1.0, 100), (10.0, 1000)])
def test_laplace_default_step(t, steps):
    # max(1, round(t / 0.01)) steps, and both stepped routes walk them: each
    # is its representation on a terminal batch over laplace_grid(t), the
    # gbm route's A_t being int theta^2 of the batch at beta = 0 and x0 = 1
    grid = laplace_grid(t)
    assert grid == TimeGrid(t, steps)
    mu, beta, lam, n = 0.3, 0.7, 1.2, 300
    p = ModelParams(mu=mu, beta=beta)
    direct = McEstimate.from_samples(np.exp(-lam * simulate_terminal_batch(p, grid, n, 24).theta))
    s = simulate_terminal_batch(ModelParams(mu, 0.0, 1.0), grid, n, 24)
    gbm = McEstimate.from_samples(np.exp(
        beta - (beta + lam) * np.exp(s.bmd) + beta * (mu + 0.5) * s.a
        - 0.5 * beta * beta * s.int_theta_sq
    ))
    assert laplace_mc_direct(lam, p, t, n, seed=24) == direct
    assert laplace_mc_gbm(lam, p, t, n, seed=24) == gbm


# --- step bias on paired paths -----------------------------------------------
#
# A coarse step is certified against dt = 1e-3 on the same Brownian paths:
# the coarse path sums the fine increments in groups, so the difference of
# a statistic between the two sees the step's bias and little of the
# sampling noise.  Each gate is |mean(f_coarse - f_fine)| + 3 se against a
# tenth of the consumer's resolution at the full validation budget.

_FINE_DT = 1e-3


def _trapezoid_nodes(g, dt, params):
    """(bmd, e, a, theta) at nodes 0..S of paths whose rows of Brownian
    increments are g: bmd = B + mu t, e = e^bmd, a its running trapezoid
    integral on the step-dt nodes."""
    m, S = g.shape
    bmd = np.zeros((m, S + 1))
    np.cumsum(g, axis=1, out=bmd[:, 1:])
    bmd += params.mu * dt * np.arange(S + 1)
    e = np.exp(bmd)
    a = np.zeros_like(e)
    np.cumsum(0.5 * dt * (e[:, 1:] + e[:, :-1]), axis=1, out=a[:, 1:])
    return bmd, e, a, params.x0 * e / (1.0 + params.beta * a)


def _trapezoid_terminals(g, dt, params):
    """TerminalStats of the paths whose rows of increments are g, by numpy's
    trapezoid rule on the step-dt nodes."""
    bmd, _, a, theta = _trapezoid_nodes(g, dt, params)

    def integral(v):
        return np.trapezoid(v, dx=dt, axis=1)

    return TerminalStats(theta=theta[:, -1], bmd=bmd[:, -1], a=a[:, -1],
                         int_theta=integral(theta), int_theta_sq=integral(theta * theta))


def _paired_batches(params, t, n, seed, group):
    """(fine, coarse) TerminalStats of the same n paths over [0, t].  The
    fine paths step at dt = 1e-3 on the library's block streams, drawn
    step-major as simulate_terminal_batch draws them; the coarse paths
    sum their increments in groups of `group`."""
    grid = TimeGrid.with_step(t, _FINE_DT)
    S, dt = grid.n_steps, grid.dt
    assert S % group == 0
    fine, coarse = (TerminalStats(*(np.empty(n) for _ in _STATS_FIELDS)) for _ in range(2))

    def fill(lo, m, rng):
        z = rng.standard_normal((S, m)).T  # row i: the normals of path i
        for c0 in range(0, m, 256):
            c = min(256, m - c0)
            g = z[c0 : c0 + c] * math.sqrt(dt)
            coarse_g = g.reshape(c, S // group, group).sum(axis=2)
            sl = slice(lo + c0, lo + c0 + c)
            for out, got in ((fine, _trapezoid_terminals(g, dt, params)),
                             (coarse, _trapezoid_terminals(coarse_g, group * dt, params))):
                for f in _STATS_FIELDS:
                    getattr(out, f)[sl] = getattr(got, f)

    _run_blocks(n, seed, fill, threads=2)
    return fine, coarse


def _assert_step_bias_small(f_fine, f_coarse, label):
    # the shift plus three of its standard errors within a tenth of the
    # statistic's standard error at n = 1e5, the full validation budget
    diff = McEstimate.from_samples(f_coarse - f_fine)
    bound = 0.1 * f_fine.std(ddof=1) / math.sqrt(1e5)
    assert abs(diff.mean) + 3.0 * diff.stderr <= bound, (label, diff, bound)


def _worst_decile_shift(theta_fine, theta_coarse):
    """max over the deciles q of the fine sample of |P_coarse[theta <= q]
    - P_fine[theta <= q]| + 3 se, on the paired paths."""
    worst = 0.0
    for q in np.quantile(theta_fine, np.arange(1, 10) / 10.0):
        diff = McEstimate.from_samples((theta_coarse <= q).astype(float) - (theta_fine <= q))
        worst = max(worst, abs(diff.mean) + 3.0 * diff.stderr)
    return worst


@pytest.mark.parametrize("params", [ModelParams(mu=0.3, beta=0.7), ModelParams.coupled_start(2.0)])
def test_paired_batches_fine_side_is_the_sampler(params):
    n, grid = 2 * BLOCK_PATHS + 5, TimeGrid(0.5, 500)
    fine, coarse = _paired_batches(params, grid.t_end, n, seed=29, group=5)
    sim = simulate_terminal_batch(params, grid, n, seed=29)
    for f in _STATS_FIELDS:
        np.testing.assert_allclose(getattr(fine, f), getattr(sim, f), rtol=1e-12, atol=0.0)
    # the coarse side ends where the fine side does, by another discretization
    np.testing.assert_allclose(coarse.bmd, fine.bmd, rtol=0.0, atol=1e-12)
    assert np.all(coarse.int_theta != fine.int_theta)


@pytest.mark.parametrize("mu, beta, t", [
    (0.0, 1.0, 1.0), (0.5, 1.0, 1.0), (-0.5, 0.5, 0.5), (0.0, 1.0, 4.0),
])
def test_laplace_step_bias_paired(mu, beta, t):
    """The default step dt = 0.01 of laplace_mc_direct and laplace_mc_gbm
    against dt = 1e-3: each route's bias stays under a tenth of its
    standard error at n = 1e5."""
    lam, group = 1.0, 10
    assert laplace_grid(t) == TimeGrid(t, round(t / _FINE_DT) // group)

    def direct(s):
        return np.exp(-lam * s.theta)

    def gbm(s):  # on paths at beta = 0 and x0 = 1, as the route draws them
        return np.exp(beta - (beta + lam) * np.exp(s.bmd) + beta * (mu + 0.5) * s.a
                      - 0.5 * beta * beta * s.int_theta_sq)

    for route, drawn in ((direct, ModelParams(mu=mu, beta=beta)), (gbm, ModelParams(mu, 0.0))):
        fine, coarse = _paired_batches(drawn, t, 20_000, 31, group)
        _assert_step_bias_small(route(fine), route(coarse), route.__name__)


_MART_PATHS = sorted({(mu, beta, T) for _, mu, beta, T in _MART_CELLS["all"]})


@pytest.mark.parametrize("mu, beta, T", _MART_PATHS)
def test_girsanov_step_bias_paired(mu, beta, T):
    """validate's martingale check steps at _CERTIFIED_DT: on every cell of
    its full grid the Girsanov weight's bias there stays under a tenth of
    its standard error at n = 1e5.  The cells' two gammas share paths."""
    group = 5
    assert TimeGrid.with_step(T, _CERTIFIED_DT) == TimeGrid(T, round(T / _FINE_DT) // group)
    params = ModelParams(mu=mu, beta=beta)
    fine, coarse = _paired_batches(params, T, 20_000, 37, group)
    gammas = [g for g, *cell in _MART_CELLS["all"] if tuple(cell) == (mu, beta, T)]
    assert gammas == [0.5, 1.0]
    for gamma in gammas:
        _assert_step_bias_small(girsanov_weight_batch(fine, gamma, params),
                                girsanov_weight_batch(coarse, gamma, params), gamma)


@pytest.mark.parametrize("mu, beta, T", _MOMENT_CELLS["all"])
def test_moment_step_bias_paired(mu, beta, T):
    """validate's moment check steps at _CERTIFIED_DT: on every cell of its
    full grid the bias of e^{beta int theta} there stays under a tenth of
    its standard error at n = 1e5."""
    group = 5
    assert TimeGrid.with_step(T, _CERTIFIED_DT) == TimeGrid(T, round(T / _FINE_DT) // group)
    fine, coarse = _paired_batches(ModelParams(mu=mu, beta=beta), T, 20_000, 41, group)
    _assert_step_bias_small(np.exp(beta * fine.int_theta), np.exp(beta * coarse.int_theta),
                            "exp(beta int theta)")


def test_fixed_time_step_bias_paired():
    """validate's fixed-time KS check steps at _CERTIFIED_DT: at its start
    (coupled x = 1, t = 1) the CDF of theta_T moves at its deciles by less
    than a tenth of the check's KS floor 5e-3."""
    group = 5
    assert TimeGrid.with_step(1.0, _CERTIFIED_DT) == TimeGrid(1.0, 1000 // group)
    fine, coarse = _paired_batches(ModelParams.coupled_start(1.0), 1.0, 100_000, 43, group)
    assert _worst_decile_shift(fine.theta, coarse.theta) <= 5e-4


def test_exp_time_step_bias_paired():
    """validate's exp-time KS check runs simulate_exp_terminal at
    _CERTIFIED_DT: at coupled x = 1 and rate 1 the CDF of theta at the
    Exp(1) time moves at its deciles by less than a tenth of the check's
    KS floor 1e-2.  Each path takes its horizon rounded to either step;
    the fine increments run past both, and the coarse path sums them in
    groups."""
    params, rate, n, group, budget = ModelParams.coupled_start(1.0), 1.0, 400_000, 5, 2**15
    dt_c = group * _FINE_DT
    assert dt_c == _CERTIFIED_DT
    theta = np.empty((2, n))  # rows: fine, coarse

    def fill(lo, m, rng):
        horizons = sample_exp_time(rate, rng, m)
        k_f = np.maximum(1, np.rint(horizons / _FINE_DT).astype(np.int64))
        k_c = np.maximum(1, np.rint(horizons / dt_c).astype(np.int64))
        need = np.maximum(k_f, group * k_c)  # fine steps that reach both horizons
        order = np.argsort(need)
        c0 = 0
        while c0 < m:
            # up to 256 paths in increasing need, at most `budget` elements a buffer
            idx = order[c0 : c0 + 256]
            idx = idx[: max(1, budget // need[idx[-1]])]
            S = group * -(-need[idx[-1]] // group)
            g = rng.standard_normal((idx.size, S)) * math.sqrt(_FINE_DT)
            rows = np.arange(idx.size)
            theta[0, lo + idx] = _trapezoid_nodes(g, _FINE_DT, params)[3][rows, k_f[idx]]
            coarse_g = g.reshape(idx.size, S // group, group).sum(axis=2)
            theta[1, lo + idx] = _trapezoid_nodes(coarse_g, dt_c, params)[3][rows, k_c[idx]]
            c0 += idx.size

    _run_blocks(n, 47, fill, threads=2)
    assert _worst_decile_shift(theta[0], theta[1]) <= 1e-3


def _bridge_integrals(z, dt, xs):
    """Trapezoid integrals of e^{Z_s} x^{s/t} for each x in xs, on step-dt
    nodes 0..S, of the bridges whose rows z hold Z at nodes 1..S."""
    m, S = z.shape
    zz = np.concatenate((np.zeros((m, 1)), z), axis=1)
    f = np.exp(zz)[:, :, None] * xs ** (np.arange(S + 1) / S)[:, None]
    return np.trapezoid(f, dx=dt, axis=1)


def _paired_bridges(t, n, seed, group, of):
    """(fine, coarse) values of(z, dt) of the same n bridges over [0, t],
    z a row of Z at nodes 1..S per bridge on steps of dt.  The fine
    bridges take 1000 steps, from the block streams as the library's
    bridge walker draws them; the coarse bridges read the fine ones at
    every `group`-th node."""
    S, dt = 1000, t / 1000

    def fill(lo, m, rng):
        parts = []
        for c0 in range(0, m, 128):
            c = min(128, m - c0)
            w = np.cumsum(rng.standard_normal((c, S)) * math.sqrt(dt), axis=1)
            z = w - w[:, -1:] * (np.arange(1, S + 1) / S)
            parts.append((of(z, dt), of(z[:, group - 1 :: group], group * dt)))
        return [np.concatenate(side) for side in zip(*parts)]

    return np.stack([np.concatenate(side) for side in zip(*_run_blocks(n, seed, fill, threads=2))])


def _window(params, t, lo, hi):
    """of(z, dt) for _paired_bridges: each bridge's conditional probability
    of lo <= theta_t <= hi, from the library's Newton."""
    return lambda z, dt: _window_probability(np.exp(z[:, :-1]), dt, params, t, lo, hi)


def test_paired_bridges_fine_side_is_the_sampler():
    xs, n = np.array([0.01, 1.0, 20.0]), 2 * BLOCK_PATHS + 5
    fine, coarse = _paired_bridges(1.0, n, 51, 4, lambda z, dt: _bridge_integrals(z, dt, xs))
    blocks = simulate_bridge_integrals(TimeGrid(1.0, 1000), xs, n, 51, lambda v: v)
    assert [b.shape[0] for b in blocks] == [BLOCK_PATHS, BLOCK_PATHS, 5]
    np.testing.assert_allclose(np.concatenate(blocks), fine, rtol=1e-12, atol=0.0)
    assert np.all(coarse != fine)
    # the window estimator walks the same bridges
    fine, _ = _paired_bridges(1.0, n, 51, 4, _window(_P, 1.0, 0.95, 1.05))
    window = simulate_bridge_window(_P, TimeGrid(1.0, 1000), 0.95, 1.05, n, 51)
    np.testing.assert_allclose(window, fine, rtol=0.0, atol=1e-12)


def test_bridge_integrals_mean_and_threads():
    # E e^{Z_s} = e^{s (t - s)/(2 t)} for a standard Brownian bridge, so
    # the trapezoid integral's mean is known exactly on the nodes
    t, S, n = 2.0, 50, 3 * BLOCK_PATHS + 17
    xs = np.array([0.1, 1.0, 5.0])
    grid = TimeGrid(t, S)
    s = grid.times()
    exact = np.trapezoid(np.exp(s * (t - s) / (2.0 * t))[:, None] * xs ** (s / t)[:, None],
                         dx=grid.dt, axis=0)
    runs = [np.concatenate(simulate_bridge_integrals(grid, xs, n, 52, lambda v: v, threads=th))
            for th in (1, 3)]
    assert np.array_equal(runs[0], runs[1])
    for k in range(xs.size):
        est = McEstimate.from_samples(runs[0][:, k])
        assert abs(est.mean - exact[k]) < 3.0 * est.stderr


def test_general_mc_step_bias_paired():
    """curve_general_mc's GENERAL_MC_STEPS bridge steps against 1000 on the
    same bridges: at each x the tilt kernel's shift stays under a tenth
    of its standard error at n = 1e5.  One Theta interpolant serves both
    sides, so only the step differs."""
    gamma, mu, t = 1.0, 0.0, 1.0
    group = 1000 // GENERAL_MC_STEPS
    assert group * GENERAL_MC_STEPS == 1000
    xs = np.array([0.01, 0.02, 0.1, 0.3, 1.0, 3.0, 8.0, 14.0, 20.0])
    v = _paired_bridges(t, 100_000, 53, group, lambda z, dt: _bridge_integrals(z, dt, xs))
    v = v.reshape(-1, xs.size)
    _tilt_kernel(gamma, mu, t, xs, v)
    fine, coarse = v.reshape(2, -1, xs.size)
    for k, x in enumerate(xs):
        _assert_step_bias_small(fine[:, k], coarse[:, k], x)


@pytest.mark.parametrize("half", [0.05, 0.02])
def test_window_step_bias_paired(half):
    """validate's general-density histogram averages the conditional window
    probability over bridges of GENERAL_MC_STEPS steps: against 1000 steps
    on the same bridges its shift stays under a tenth of its standard error
    at n = 1e5, at each budget's halfwidth."""
    group = 1000 // GENERAL_MC_STEPS
    fine, coarse = _paired_bridges(1.0, 20_000, 59, group, _window(_P, 1.0, 1.0 - half, 1.0 + half))
    _assert_step_bias_small(fine, coarse, half)


def test_general_density_cdf_step_bias_paired():
    """validate's general_density_cdf batch steps at _CERTIFIED_DT: at its
    point (mu = 0, beta = gamma = 1, x0 = 1, t = 1) the CDF of theta_T moves
    at its deciles by less than a tenth of the check's KS floor 1e-2."""
    group = 5
    assert TimeGrid.with_step(1.0, _CERTIFIED_DT) == TimeGrid(1.0, 1000 // group)
    fine, coarse = _paired_batches(_P, 1.0, 100_000, 61, group)
    assert _worst_decile_shift(fine.theta, coarse.theta) <= 1e-3


@pytest.mark.parametrize("beta, y", [(1.0, 0.5), (2.5, 1.3), (0.7, 20.0), (0.0, 2.0)])
def test_bridge_level_reaches_its_level(beta, y):
    # theta_t = e^b/(1 + beta a(b)) at the root, a the bridge's own trapezoid
    m, S, dt = 64, 50, 0.02
    w = np.cumsum(np.random.default_rng(5).standard_normal((m, S)) * math.sqrt(dt), axis=1)
    z = w[:, :-1] - w[:, -1:] * (np.arange(1, S) / S)
    b = _bridge_level(np.exp(z), dt, beta, math.log(y), np.full(m, math.log(y)))
    nodes = np.pad(z, ((0, 0), (1, 1))) + b[:, None] * (np.arange(S + 1) / S)
    a = np.trapezoid(np.exp(nodes), dx=dt, axis=1)
    np.testing.assert_allclose(np.exp(b) / (1.0 + beta * a), y, rtol=1e-12)


def test_bridge_window_beta_zero_is_lognormal():
    # theta_t = x0 e^b whatever the bridge: every value is the normal mass
    params, t = ModelParams(mu=0.2, beta=0.0, x0=1.5), 2.0
    vals = simulate_bridge_window(params, TimeGrid(t, 20), 1.0, 2.0, 100, seed=7)
    u = [(math.log(y / 1.5) - 0.2 * t) / math.sqrt(2.0 * t) for y in (1.0, 2.0)]
    np.testing.assert_allclose(vals, 0.5 * (math.erfc(-u[1]) - math.erfc(-u[0])), rtol=1e-14)


def test_bridge_window_matches_the_indicator():
    # a bridge under an independent N(mu t, t) endpoint is the random walk,
    # so on the same steps the conditional mean is the terminal batch's
    # window probability, at a fraction of the indicator's variance
    params, grid, lo, hi = ModelParams(mu=0.3, beta=0.7, x0=1.2), TimeGrid(1.0, 50), 0.9, 1.3
    cond = McEstimate.from_samples(simulate_bridge_window(params, grid, lo, hi, 8192, seed=61))
    theta = simulate_terminal_batch(params, grid, 100_000, seed=62).theta
    ind = McEstimate.from_samples(((theta >= lo) & (theta <= hi)).astype(float))
    assert abs(cond.mean - ind.mean) < 3.0 * math.hypot(cond.stderr, ind.stderr)
    assert cond.stderr**2 * cond.n < 0.1 * ind.stderr**2 * ind.n
    with pytest.raises(DomainError, match="hi must be finite and > lo"):
        simulate_bridge_window(params, grid, 1.3, 1.3, 10, seed=1)


# --- serialization ----------------------------------------------------------


def test_dump_path_csv_round_trip():
    p = ModelParams(mu=0.1, beta=0.6, x0=1.0)
    s = simulate_functional(p, TimeGrid(0.5, 50), seed=23)
    buf = io.StringIO()
    dump_path_csv(s, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == PATH_CSV_HEADER
    assert len(lines) == 52  # header + 51 nodes
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(data[:, 1], s.theta)  # %.17g round-trips doubles
    assert np.array_equal(data[:, 2], s.bmd)
    assert data[0, 3] == 0.0
    assert np.array_equal(data[:, 3:].T, s.running_integrals())
