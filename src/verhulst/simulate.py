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

from .errors import (
    DomainError, require_count, require_finite, require_nonnegative, require_positive
)
from .specfun import laplace_kernel_F

BLOCK_PATHS = 4096

# default time step of laplace_grid.  On paired paths the stepped
# routes' trapezoid bias at dt = 0.01 against dt = 1e-3 stays under a
# tenth of their standard error at n = 1e5 (test_laplace_step_bias_paired
# in tests/test_simulate.py); at dt = 0.04 the gbm route's is significant
_LAPLACE_DT = 1e-2

# element budget of one (paths x steps) chunk buffer of the terminal
# batch and the exp-time sampler: 2**17 doubles = 1 MiB, so a chunk's
# two buffers fit a 2 MiB L2
_BATCH_CHUNK_ELEMS = 2**17


def _block_rng(seed, block):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(block))))
    )


def _run_blocks(n, seed, fill, threads):
    """Call fill(lo, m, rng) for every block covering n paths: the block's
    m paths start at index lo and draw from its generator rng.  Returns
    the calls' results in block order."""
    require_count("threads", threads, 1)

    def run(b):
        lo = b * BLOCK_PATHS
        return fill(lo, min(BLOCK_PATHS, n - lo), _block_rng(seed, b))

    n_blocks = (n + BLOCK_PATHS - 1) // BLOCK_PATHS
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(run, range(n_blocks)))
    return [run(b) for b in range(n_blocks)]


@dataclass(frozen=True)
class ModelParams:
    """Drift mu, crowding beta >= 0, start value x0 > 0."""

    mu: float
    beta: float
    x0: float = 1.0

    def __post_init__(self):
        require_finite("mu", self.mu)
        require_nonnegative("beta", self.beta)
        require_positive("x0", self.x0)

    @classmethod
    def coupled_start(cls, x):
        """theta_t(x) = x e^{B_t - t/2}/(1 + x a_t): mu = -1/2, beta = x0 = x."""
        return cls(mu=-0.5, beta=float(x), x0=float(x))


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
        """Running trapezoid series (int theta, int theta^2, a_t, A_t), 0 at
        node 0; a_t at node S is the terminal batch's a of the same path."""
        e = np.exp(self.bmd)
        return tuple(
            _trapezoid(np.append(0.0, np.cumsum(v[1:])), v, v[0], self.grid.dt)
            for v in (self.theta, self.theta**2, e, e * e)
        )


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


def _trapezoid(total, last, first, dt, out=None):
    """dt (total - last/2 + first/2): the trapezoid integral over nodes
    0..k of v with step dt, from total = v_1 + ... + v_k, last = v_k and
    first = v_0.  Elementwise over arrays; in place with out=total."""
    out = np.subtract(total, 0.5 * last, out=out)
    out += 0.5 * first
    out *= dt
    return out


def simulate_functional(params, grid, seed):
    """Exact-in-distribution path of the functional at the grid nodes.

    Gaussian increments are exact; only the running integrals carry
    trapezoid bias.  Uses the stream of (seed, block 0) and runs the
    terminal batch's path arithmetic on its one row, so theta, B + mu t
    and a_t at node S are path 0 of a batch run with the same seed, bit
    for bit.
    """
    S, dt = grid.n_steps, grid.dt
    w = _block_rng(seed, 0).standard_normal((1, S))
    cum = np.empty_like(w)
    bmd = _path_kernel(w, cum, math.sqrt(dt), params.mu * dt * np.arange(1, S + 1), keep=0)
    _theta_rows(w, cum, params.beta, params.x0, dt)
    return PathSample(grid=grid, theta=np.append(params.x0, w[0]), bmd=np.append(0.0, bmd))


def _walk(w, sqdt):
    """In place, each row of w, S standard normals, becomes B at nodes
    1..S of one path with steps of variance sqdt**2, a row's own
    sequential sum: independent of the other rows and later nodes."""
    w *= sqdt
    np.cumsum(w, axis=1, out=w)


def _path_kernel(w, cum, sqdt, drift, keep=(slice(None), -1)):
    """In place, each row of w, S standard normals, becomes e^{B + mu t}
    at nodes 1..S of one path (_walk) with drift mu t at the nodes, and
    the same row of cum its running sum; returns B + mu t at w[keep]."""
    _walk(w, sqdt)
    w += drift  # now B + mu t at nodes 1..S
    bmd = w[keep].copy()
    np.exp(w, out=w)
    np.cumsum(w, axis=1, out=cum)
    return bmd


def _theta_rows(w, cum, beta, x0, dt):
    """In place, rows of w, e^{B + mu t} at nodes 1..S with running sums
    in cum (_path_kernel), become theta = x0 e^{B + mu t}/(1 + beta a_t),
    a_t the running trapezoid, skipping a_t at beta = 0 and the product
    at x0 = 1; cum is spent."""
    if beta != 0.0:
        _trapezoid(cum, w, 1.0, dt, out=cum)  # the running a_t, a_0 = 0 folded in
        cum *= beta
        cum += 1.0
        np.divide(w, cum, out=w)
    if x0 != 1.0:
        w *= x0


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
            bmd_T = _path_kernel(w, cum, sqdt, drift)
            e_T = w[:, -1].copy()
            ee_sum = np.einsum("ij,ij->i", w, w)
            a_T = _trapezoid(cum[:, -1], e_T, 1.0, dt)
            _theta_rows(w, cum, beta, x0, dt)
            th_T = w[:, -1].copy()  # w is now theta at nodes 1..S
            th_sum = w.sum(axis=1)
            # at beta = 0 and x0 = 1, theta is e^{B + mu t} itself
            thth_sum = ee_sum if beta == 0.0 and x0 == 1.0 else np.einsum("ij,ij->i", w, w)

            sl = slice(lo + c0, lo + c1)
            out.theta[sl] = th_T
            out.bmd[sl] = bmd_T
            out.a[sl] = a_T
            out.A[sl] = _trapezoid(ee_sum, e_T * e_T, 1.0, dt)
            out.int_theta[sl] = _trapezoid(th_sum, th_T, x0, dt)
            out.int_theta_sq[sl] = _trapezoid(thth_sum, th_T * th_T, x0 * x0, dt)

    _run_blocks(n, seed, fill, threads)
    return out


def simulate_exp_terminal(params, rate, dt, n, seed, threads=1):
    """theta evaluated at an independent Exp(rate) time, n replicates.

    Horizons are rounded to the step grid (at least one step); a rounded
    horizon beyond int64 raises DomainError.  Within a block, paths run
    in decreasing order of horizon (stable) and each takes the next n_k
    normals of the block's stream for its n_k steps, so results depend
    on neither the thread count nor the chunk budget.  Chunks of
    max(2, 2**17 // S) paths, S the longest horizon among them, run as
    zero-padded rows of the terminal batch's path kernel, and theta is
    read at each path's own last node: work is about the sum of the
    horizons.  A worker holds two buffers of max(2**17, 2 S_max) doubles,
    S_max the block's longest horizon in steps.
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
        drift = mu * dt * np.arange(1, int(ns[0]) + 1)
        w_buf, cum_buf = np.empty((2, max(_BATCH_CHUNK_ELEMS, 2 * int(ns[0]))))
        c0 = 0
        while c0 < m:
            S = int(ns[c0])
            k = ns[c0 : c0 + max(2, _BATCH_CHUNK_ELEMS // S)]
            w = w_buf[: k.size * S].reshape(k.size, S)
            cum = cum_buf[: w.size].reshape(w.shape)
            w.fill(0.0)
            w[np.arange(S) < k[:, None]] = rng.standard_normal(int(k.sum()))
            _path_kernel(w, cum, sqdt, drift[:S])
            rows = np.arange(k.size)
            e = w[rows, k - 1]
            a = _trapezoid(cum[rows, k - 1], e, 1.0, dt)
            out[lo + order[c0 : c0 + k.size]] = x0 * e / (1.0 + beta * a)
            c0 += k.size

    _run_blocks(n, seed, fill, threads)
    return out


def simulate_bridge_integrals(grid, xs, n, seed, reduce, threads=1):
    """Trapezoid integrals over grid of e^{B_s + mu s} given its endpoint
    e^{B_t + mu t} = x, for each x in xs, on n paths, block-parallel.

    Given B_t + mu t = ln x, B_s + mu s is Z_s + (s/t) ln x, Z a standard
    Brownian bridge, whatever mu (Glasserman, Monte Carlo Methods in
    Financial Engineering, 2003, sec. 3.1).  So with E = e^Z at nodes
    j = 1..S-1, one matrix product dt/2 (1 + x) + E . (dt x^{j/S}) serves
    every x.  Z is the terminal batch's walk, on its block streams and
    row chunks, less j/S times its last node.  Each block's (m x xs.size)
    integrals go to reduce on the thread that drew them; returns
    reduce's results in block order.
    """
    require_count("n", n, 1)
    xs = np.asarray(xs, dtype=float)
    S, dt = grid.n_steps, grid.dt
    sqdt = math.sqrt(dt)
    frac = np.arange(1, S) / S
    weights = dt * np.exp(np.outer(frac, np.log(xs)))  # dt x^{j/S}
    ends = 0.5 * dt * (1.0 + xs)
    rows = max(2, _BATCH_CHUNK_ELEMS // S)

    def fill(lo, m, rng):
        v = np.empty((m, xs.size))
        w_buf = np.empty((min(m, rows), S))
        e_buf = np.empty((w_buf.shape[0], S - 1))
        for c0 in range(0, m, rows):
            c = min(rows, m - c0)
            w, e = w_buf[:c], e_buf[:c]
            rng.standard_normal(out=w)
            _walk(w, sqdt)
            np.multiply(w[:, -1:], frac, out=e)
            np.subtract(w[:, :-1], e, out=e)  # the bridge at nodes 1..S-1
            np.exp(e, out=e)
            np.matmul(e, weights, out=v[c0 : c0 + c])
        v += ends
        return reduce(v)

    return _run_blocks(n, seed, fill, threads)


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

    The representation is stated for x0 = 1; theta scales with its start,
    theta(x0, beta) = x0 theta(1, beta), so any x0 enters it as
    lam -> lam x0.  Paths step on laplace_grid(t, n_steps), dt = 0.01 by
    default; the paired test test_laplace_step_bias_paired bounds that
    step's bias by a tenth of this route's standard error at n = 1e5.
    """
    require_nonnegative("lam", lam)
    lam_eff, beta = lam * params.x0, params.beta
    gbm = ModelParams(mu=params.mu, beta=0.0, x0=1.0)
    stats = simulate_terminal_batch(gbm, laplace_grid(t, n_steps), n, seed, threads=threads)
    e_T = np.exp(stats.bmd)
    expo = (
        beta
        - (beta + lam_eff) * e_T
        + beta * (params.mu + 0.5) * stats.a
        - 0.5 * beta * beta * stats.A
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
