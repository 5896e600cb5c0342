"""Monte Carlo oracles for the Verhulst process.

Exact pathwise simulation of theta_t = x0 e^{B_t+mu t} / (1 + beta a_t)
with its integral bookkeeping, exact squared-Bessel(dim 0) sampling, the
pathwise change-of-measure weight over a batch, and three independent
Monte Carlo routes to the Laplace transform E e^{-lambda theta_t}.

Reproducibility contract: replicates are organized in fixed blocks of
BLOCK_PATHS paths; block b draws from Philox seeded with the pair
(seed, b).  Estimates depend only on (seed, n), never on the number of
worker threads.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_count, require_nonnegative, require_positive
from .specfun import laplace_kernel_F

BLOCK_PATHS = 4096

# default time step of laplace_grid.  On paired paths the stepped
# routes' trapezoid bias at dt = 0.01 against dt = 1e-3 stays under a
# tenth of their standard error at n = 1e5 (test_laplace_step_bias_paired
# in tests/test_simulate.py); at dt = 0.04 the gbm route's is significant
_LAPLACE_DT = 1e-2

# element budget of one (paths x steps) chunk buffer of the terminal
# batch sampler: 2**17 doubles = 1 MiB, so its two buffers fit a 2 MiB L2
_BATCH_CHUNK_ELEMS = 2**17

# element budget of one (steps x active paths) chunk buffer of the
# exp-time sampler: 2**14 doubles = 128 KiB.  At 2**17 the block
# runner's threads left glibc's arenas holding more memory: 89-92 MB
# peak RSS over the mc-oracle benchmark's operations against 76-79 MB,
# at the same wall time
_EXP_CHUNK_ELEMS = 2**14

# chunks at least this wide take their running sums one step row at a
# time: np.cumsum down axis 0 costs about 5 ns per element at a few rows,
# a row-wide np.add about 1 us per call plus 0.5 ns per element
_ROW_SUM_MIN_WIDTH = 256


def _block_rng(seed, block):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(block))))
    )


def _run_blocks(n, seed, fill, threads):
    """Call fill(lo, m, rng) for every block covering n paths: the block's
    m paths start at index lo and draw from its generator rng."""
    require_count("threads", threads, 1)

    def run(b):
        lo = b * BLOCK_PATHS
        fill(lo, min(BLOCK_PATHS, n - lo), _block_rng(seed, b))

    n_blocks = (n + BLOCK_PATHS - 1) // BLOCK_PATHS
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(run, range(n_blocks)))
    else:
        for b in range(n_blocks):
            run(b)


@dataclass(frozen=True)
class ModelParams:
    """Drift mu, crowding beta >= 0, start value x0 > 0.

    `coupled` marks the convention where the start level doubles as the
    crowding coefficient: theta_t(x) = x e^{B_t - t/2}/(1 + x a_t).  It
    pins mu = -1/2 and beta = x0; the generic and coupled conventions
    are never mixed within one run.
    """

    mu: float
    beta: float
    x0: float = 1.0
    coupled: bool = False

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError("mu must be finite")
        require_nonnegative("beta", self.beta)
        require_positive("x0", self.x0)
        if self.coupled and (self.mu != -0.5 or self.beta != self.x0):
            raise DomainError("coupled convention requires mu = -1/2 and beta = x0")

    @classmethod
    def coupled_start(cls, x):
        return cls(mu=-0.5, beta=float(x), x0=float(x), coupled=True)


@dataclass(frozen=True)
class TimeGrid:
    t_end: float
    n_steps: int

    def __post_init__(self):
        require_positive("t_end", self.t_end)
        require_count("n_steps", self.n_steps, 1)

    @classmethod
    def with_step(cls, t_end, dt):
        """Grid over [0, t_end] with the step count nearest t_end / dt,
        at least one."""
        require_positive("t_end", t_end)
        require_positive("dt", dt)
        return cls(t_end, max(1, round(t_end / dt)))

    @property
    def dt(self):
        return self.t_end / self.n_steps

    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


@dataclass
class PathSample:
    """One path on a TimeGrid: theta and bmd (= B_t + mu t) at the nodes."""

    grid: TimeGrid
    theta: np.ndarray
    bmd: np.ndarray

    def running_integrals(self):
        """Cumulative trapezoid series (int theta, int theta^2, a_t, A_t)."""
        dt = self.grid.dt
        e = np.exp(self.bmd)
        return tuple(_cum_trapezoid(v, dt) for v in (self.theta, self.theta**2, e, e * e))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int

    @classmethod
    def from_samples(cls, vals):
        vals = np.asarray(vals, dtype=float)
        if vals.size < 2:
            raise DomainError("need n >= 2 for a standard error")
        return cls(
            mean=float(vals.mean()),
            stderr=float(vals.std(ddof=1) / math.sqrt(vals.size)),
            n=int(vals.size),
        )


@dataclass
class TerminalStats:
    """Per-path terminal summaries from a batch run (arrays of length n)."""

    theta: np.ndarray
    bmd: np.ndarray
    a: np.ndarray
    A: np.ndarray
    int_theta: np.ndarray
    int_theta_sq: np.ndarray


def _cum_trapezoid(v, dt):
    """Running trapezoid integral of node values v with step dt; starts at 0."""
    out = np.empty_like(v)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (v[1:] + v[:-1]), out=out[1:])
    return out


def simulate_functional(params, grid, seed):
    """Exact-in-distribution path of the functional at the grid nodes.

    Gaussian increments are exact; only the running integrals carry
    trapezoid bias.  Uses the stream of (seed, block 0), so path 0 of a
    batch run with the same seed sees the same increments.
    """
    dt = grid.dt
    g = _block_rng(seed, 0).standard_normal((1, grid.n_steps))[0] * math.sqrt(dt)
    bmd = np.empty(grid.n_steps + 1)
    bmd[0] = 0.0
    np.cumsum(g, out=bmd[1:])
    bmd[1:] += params.mu * dt * np.arange(1, grid.n_steps + 1)
    e = np.exp(bmd)
    theta = params.x0 * e / (1.0 + params.beta * _cum_trapezoid(e, dt))
    return PathSample(grid=grid, theta=theta, bmd=bmd)


def simulate_terminal_batch(params, grid, n, seed, threads=1):
    """Terminal summaries of n functional paths, block-parallel.

    A block runs in chunks of max(2, 2**17 // n_steps) paths through two
    reused (chunk x n_steps) buffers, so a worker holds about 3 MiB (the
    buffers and one temporary; more once n_steps exceeds 2**16)
    regardless of n.  The Generator fills its output in C order, so
    consecutive chunks consume the block's Philox stream as one
    (paths x n_steps) draw does, and every path's arithmetic runs along
    its own row: the result is bit for bit that of the whole block at
    once.  Only a one-path block runs a one-row chunk: beyond 8192 steps
    numpy's einsum sums a lone row in a different order than rows of a
    taller matrix.

    At beta = 0, theta is x0 e^{B + mu t}, so the running a_t is never
    formed: a_T takes the full path's operations on the last column of
    the running sum only.  This is bit for bit the full path wherever
    e^{B + mu t} is finite; where it overflows theta reads inf, not NaN.
    """
    require_count("n", n, 1)
    S = grid.n_steps
    dt = grid.dt
    sqdt = math.sqrt(dt)
    mu, beta, x0 = params.mu, params.beta, params.x0
    drift = mu * dt * np.arange(1, S + 1)
    rows = max(2, _BATCH_CHUNK_ELEMS // S)

    out = TerminalStats(*(np.empty(n) for _ in range(6)))

    def fill(lo, m, rng):
        ends = list(range(rows, m, rows))
        if ends and ends[-1] == m - 1:
            ends.pop()  # a lone last path joins the chunk before it
        w_buf = np.empty((min(m, rows + 1), S))
        cum_buf = np.empty_like(w_buf)
        for c0, c1 in zip([0] + ends, ends + [m]):
            w, cum = w_buf[: c1 - c0], cum_buf[: c1 - c0]
            rng.standard_normal(out=w)
            w *= sqdt
            np.cumsum(w, axis=1, out=w)
            w += drift  # now B + mu t at nodes 1..S
            bmd_T = w[:, -1].copy()
            np.exp(w, out=w)  # now e^{B + mu t}
            e_T = w[:, -1].copy()
            ee_sum = np.einsum("ij,ij->i", w, w)

            np.cumsum(w, axis=1, out=cum)
            a_T = (cum[:, -1] - 0.5 * e_T + 0.5) * dt
            if beta != 0.0:
                cum -= 0.5 * w
                cum += 0.5
                cum *= dt  # now the running a_t (trapezoid, a_0 = 0 folded in)
                cum *= beta
                cum += 1.0
                np.divide(w, cum, out=w)
            if x0 != 1.0:
                w *= x0
            th_T = w[:, -1].copy()  # w is now theta at nodes 1..S
            th_sum = w.sum(axis=1)
            # at beta = 0 and x0 = 1, theta is e^{B + mu t} itself
            thth_sum = ee_sum if beta == 0.0 and x0 == 1.0 else np.einsum("ij,ij->i", w, w)

            sl = slice(lo + c0, lo + c1)
            out.theta[sl] = th_T
            out.bmd[sl] = bmd_T
            out.a[sl] = a_T
            out.A[sl] = dt * (ee_sum - 0.5 * e_T * e_T + 0.5)
            out.int_theta[sl] = dt * (th_sum - 0.5 * th_T + 0.5 * x0)
            out.int_theta_sq[sl] = dt * (thth_sum - 0.5 * th_T * th_T + 0.5 * x0 * x0)

    _run_blocks(n, seed, fill, threads)
    return out


def _cumsum_steps(x):
    """In place, row i of x becomes the sum of rows 0..i, each partial
    sum formed as np.cumsum(x, axis=0) forms it, so bit for bit equal."""
    if x.shape[1] < _ROW_SUM_MIN_WIDTH:
        np.cumsum(x, axis=0, out=x)
    else:
        for i in range(1, len(x)):
            np.add(x[i - 1], x[i], out=x[i])


def simulate_exp_terminal(params, rate, dt, n, seed, threads=1):
    """theta evaluated at an independent Exp(rate) time, n replicates.

    Horizons are rounded to the step grid (at least one step); a rounded
    horizon beyond int64 raises DomainError.  Within a block, paths are
    sorted by decreasing horizon, so the paths still active at step s
    are always a prefix; total work is the sum of the horizons rather
    than block size times the longest one.

    A block advances in chunks of steps.  A chunk that starts with k
    active paths spans at most 2**14 // k steps and ends before fewer
    than k/2 paths remain, so its zero-padded (steps x k) buffers hold
    at most 2**14 doubles (128 KiB; about 1 MiB per worker in all) and
    at most twice the real work.  One normal draw per chunk consumes the
    Philox stream in the same step-major order as one draw per step,
    and the running sums are sequential sums along the step axis, so
    the result is bit for bit that of the step-by-step recursion.  The
    chunk's work is numpy calls over whole step rows or the whole chunk,
    which release the interpreter lock, so worker threads run
    concurrently.
    """
    require_positive("rate", rate)
    require_positive("dt", dt)
    require_count("n", n, 1)
    sqdt = math.sqrt(dt)
    mu, beta, x0 = params.mu, params.beta, params.x0
    out = np.empty(n)

    def fill(lo, m, rng):
        horizons = sample_exp_time(rate, rng, m)
        steps = np.rint(horizons / dt)
        if not np.all(steps < 2.0**63):
            raise DomainError(
                f"horizon of {np.max(horizons):.3g} at dt={dt:g} exceeds int64 steps"
            )
        n_steps = np.maximum(1, steps.astype(np.int64))
        order = np.argsort(-n_steps, kind="stable")
        ns = n_steps[order]
        ns_up = ns[::-1]  # ascending, for geq(s) = m - searchsorted(ns_up, s)

        bm = np.zeros(m)
        a = np.zeros(m)
        e_prev = np.ones(m)
        res = np.empty(m)
        s0, act = 1, m  # first step of the chunk, paths active there
        while act:
            # last step: at least half of the act paths still active, and
            # the (steps x act) buffers within the element budget
            s1 = min(int(ns[(act - 1) // 2]), s0 + max(1, _EXP_CHUNK_ELEMS // act) - 1)
            live = m - np.searchsorted(ns_up, np.arange(s0, s1 + 2))  # geq(s0..s1+1)
            mask = np.arange(act) < live[:-1, None]
            bmc = np.zeros((s1 - s0 + 1, act))
            bmc[mask] = rng.standard_normal(int(live[:-1].sum())) * sqdt + mu * dt
            bmc[0] += bm[:act]
            _cumsum_steps(bmc)
            e = np.exp(bmc)
            ac = np.empty_like(e)
            ac[0] = e_prev[:act] + e[0]
            np.add(e[:-1], e[1:], out=ac[1:])
            ac *= 0.5 * dt
            ac[0] += a[:act]
            _cumsum_steps(ac)
            # paths live[-1]..act-1 take their last step in this chunk
            done = np.arange(int(live[-1]), act)
            row = ns[done] - s0
            res[done] = x0 * e[row, done] / (1.0 + beta * ac[row, done])
            bm[:act], e_prev[:act], a[:act] = bmc[-1], e[-1], ac[-1]
            s0, act = s1 + 1, int(live[-1])
        block_out = np.empty(m)
        block_out[order] = res
        out[lo : lo + m] = block_out

    _run_blocks(n, seed, fill, threads)
    return out


# --- change of measure ------------------------------------------------------


def girsanov_weight_batch(stats, gamma, params):
    """Pathwise weight M_T = exp(-gamma (theta_T - x0) + gamma (mu+1/2) int theta
    - (gamma beta/x0 + gamma^2/2) int theta^2) of every path of a
    TerminalStats batch.

    Stochastic-integral-free form: substituting the SDE for theta dB
    turns the exponential martingale of -gamma theta into this
    expression in the path's own integrals.  Expectation 1.
    """
    require_positive("gamma", gamma)
    quad = gamma * params.beta / params.x0 + 0.5 * gamma * gamma
    return np.exp(
        -gamma * (stats.theta - params.x0)
        + gamma * (params.mu + 0.5) * stats.int_theta
        - quad * stats.int_theta_sq
    )


# --- elementary samplers ----------------------------------------------------


def sample_besq0(x_start, s, rng):
    """Exact draw of a dimension-0 squared Bessel bridge endpoint R^{(x)}(s).

    Poisson(x/(2s)) mixture of Gamma variables: N = 0 gives the absorbed
    state 0, otherwise 2s * Gamma(N, 1).  Broadcasts over x_start.
    """
    require_positive("s", s)
    x = np.asarray(x_start, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("x_start must be >= 0")
    mix = rng.poisson(x / (2.0 * s))
    draw = 2.0 * s * rng.standard_gamma(mix)
    return float(draw) if np.ndim(x_start) == 0 else draw


def sample_exp_time(rate, rng, size=None):
    """Inverse-CDF exponential horizon(s) with the given rate."""
    require_positive("rate", rate)
    u = rng.random(size)
    return -np.log1p(-u) / rate


# --- Laplace-transform routes -----------------------------------------------


def laplace_mc_besq(lam, params, t, n, seed, threads=1):
    """E e^{-lambda theta_t} through the squared-Bessel representation.

    The representation is stated for e^{2W}, and B_s = 2 W_{s/4} turns
    e^{B} on [0, t] into it on the horizon h = t/4.  Draws a terminal
    Gaussian G ~ N(2 mu h, h) with doubled drift, an exact dimension-0
    squared Bessel value started at lambda e^{2G} run to time 1/2, and
    averages the arcosh kernel at (x=G, z=draw/(4 beta)) with time h.
    """
    if params.beta <= 0:
        raise DomainError("squared-Bessel route needs beta > 0")
    if params.x0 != 1.0:
        raise DomainError("squared-Bessel route is stated for x0 = 1")
    # lam = 0 is the absorbed boundary: the Bessel draw is identically
    # 0 and the kernel identically 1, matching E e^{-0 theta} = 1
    require_nonnegative("lam", lam)
    require_positive("t", t)
    require_count("n", n, 1)
    h = 0.25 * t
    sqh = math.sqrt(h)
    vals = np.empty(n)

    def fill(lo, m, rng):
        gauss = rng.standard_normal(m) * sqh + 2.0 * params.mu * h
        r_draw = sample_besq0(lam * np.exp(2.0 * gauss), 0.5, rng)
        vals[lo : lo + m] = laplace_kernel_F(gauss, r_draw / (4.0 * params.beta), h)

    _run_blocks(n, seed, fill, threads)
    return McEstimate.from_samples(vals)


def laplace_grid(t, n_steps=None):
    """Step grid of laplace_mc_gbm and laplace_mc_direct over [0, t]:
    n_steps steps, or by default max(1, round(t / 0.01)) steps of about
    dt = 0.01, so t = 1 takes 100 steps and t = 10 takes 1000."""
    if n_steps is None:
        return TimeGrid.with_step(t, _LAPLACE_DT)
    return TimeGrid(t, n_steps)


def laplace_mc_gbm(lam, params, t, n, seed, n_steps=None, threads=1):
    """E e^{-lambda theta_t} through the plain-GBM representation
    e^beta E exp(-(beta+lam) e^{B+mu t} + beta (mu+1/2) a_t - (beta^2/2) A_t).

    In the coupled convention the start level x enters as
    lam -> lam * x, beta -> x; the generic form is stated for x0 = 1.
    Paths step on laplace_grid(t, n_steps), dt = 0.01 by default; the
    paired test test_laplace_step_bias_paired bounds that step's bias by
    a tenth of this route's standard error at n = 1e5.
    """
    require_nonnegative("lam", lam)
    if params.coupled:
        lam_eff = lam * params.x0
        beta_eff = params.x0
    else:
        if params.x0 != 1.0:
            raise DomainError("GBM route is stated for x0 = 1 (or the coupled convention)")
        lam_eff = lam
        beta_eff = params.beta
    gbm = ModelParams(mu=params.mu, beta=0.0, x0=1.0)
    stats = simulate_terminal_batch(gbm, laplace_grid(t, n_steps), n, seed, threads=threads)
    e_T = np.exp(stats.bmd)
    expo = (
        beta_eff
        - (beta_eff + lam_eff) * e_T
        + beta_eff * (params.mu + 0.5) * stats.a
        - 0.5 * beta_eff * beta_eff * stats.A
    )
    return McEstimate.from_samples(np.exp(expo))


def laplace_mc_direct(lam, params, t, n, seed, n_steps=None, threads=1):
    """Brute-force E e^{-lambda theta_t}: average over functional paths.

    Paths step on laplace_grid(t, n_steps), dt = 0.01 by default; the
    paired test test_laplace_step_bias_paired bounds that step's bias by
    a tenth of this route's standard error at n = 1e5.
    """
    require_nonnegative("lam", lam)
    stats = simulate_terminal_batch(params, laplace_grid(t, n_steps), n, seed, threads=threads)
    return McEstimate.from_samples(np.exp(-lam * stats.theta))


# --- serialization ----------------------------------------------------------

PATH_CSV_HEADER = "t,theta,bmd,int_theta,int_theta_sq,a_t,A_t"


def dump_path_csv(sample, fh):
    """Write one row per grid node with the running integral series."""
    i_th, i_th2, a_run, big_a = sample.running_integrals()
    fh.write(PATH_CSV_HEADER + "\n")
    for row in zip(sample.grid.times(), sample.theta, sample.bmd, i_th, i_th2, a_run, big_a):
        fh.write(",".join(format(v, ".17g") for v in row) + "\n")
