"""Monte Carlo oracles for the Verhulst process.

Exact pathwise simulation of theta_t = x0 e^{B_t+mu t} / (1 + beta a_t)
with its integral bookkeeping, exact squared-Bessel(dim 0) sampling, the
pathwise change-of-measure weight over a batch, and three independent
Monte Carlo routes to the Laplace transform E e^{-lambda theta_t}.

Reproducibility contract: replicates are organized in fixed blocks of
BLOCK_PATHS paths; block b draws from SFC64 seeded with the pair
(seed, b), and the path samplers walk it step-major, so a path's values
depend on its block's path count.  Estimates depend only on (seed, n),
never on the number of worker threads.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError, DomainError, require_count, require_finite, require_nonnegative,
    require_positive,
)
from .specfun import laplace_kernel_F

BLOCK_PATHS = 4096

# default time step of laplace_grid.  On paired paths the stepped
# routes' trapezoid bias at dt = 0.01 against dt = 1e-3 stays under a
# tenth of their standard error at n = 1e5 (test_laplace_step_bias_paired
# in tests/test_simulate.py); at dt = 0.04 the gbm route's is significant
_LAPLACE_DT = 1e-2

# element budget of one (steps x paths) tile buffer of the path samplers:
# 2**17 doubles = 1 MiB, so a tile's two buffers fit a 2 MiB L2
_BATCH_CHUNK_ELEMS = 2**17

# narrowest tile whose running sums add row by row: on 2**17-element tiles
# one np.add per row takes 4.8 ns per element at 512 columns against 6.7
# for np.cumsum down the steps, and 6.1 against 5.2 at 384 (2-vCPU Xeon
# VM, numpy 2.4.6); both give the same bits
_ROW_ADD_WIDTH = 512


def _block_rng(seed, block):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((int(seed), int(block)))))


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
        node 0; a_t at node S is the n = 1 terminal batch's a."""
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
    first = v_0.  Elementwise over C-contiguous arrays of one shape; in
    place with out=total.  last/2 passes through one reused 64 KiB
    buffer, so a 1 MiB tile forms no temporary its own size."""
    out = np.array(total) if out is None else out
    flat, last = out.reshape(-1), last.reshape(-1)
    half = np.empty(min(flat.size, 2**13))
    for k in range(0, flat.size, 2**13):
        h = np.multiply(last[k : k + 2**13], 0.5, out=half[: flat.size - k])
        flat[k : k + h.size] -= h
    out += 0.5 * first
    out *= dt
    return out


def _running_sum(x, carry, out):
    """Rows of out become carry + x_0 + ... + x_i, added in sequence down
    the step axis, and carry their last row; out may be x.  One np.add per
    row from _ROW_ADD_WIDTH columns up, else np.cumsum: the same bits."""
    np.add(carry, x[0], out=out[0])
    if x.shape[1] >= _ROW_ADD_WIDTH:
        for i in range(1, x.shape[0]):
            np.add(out[i - 1], x[i], out=out[i])
    else:
        if out is not x:
            out[1:] = x[1:]
        np.cumsum(out, axis=0, out=out)
    carry[...] = out[-1]


def _walk_tiles(rng, plan, sqdt, mu_dt, bmd=None):
    """Tile (j0, j1, a) of plan draws the stream's next (j1 - j0) x a
    normals in C order, row i for step j0+1+i of the block's first a
    paths; yields (j0, w, c, carry) with w = e^{B + mu t} at those nodes,
    c its running sum and carry (B, running sum) at the tile's last node,
    where the next tile goes on.  Sums add in sequence, so no value
    depends on the tile heights.  bmd (a row per step) receives B + mu t."""
    bufs = np.empty((2, max((j1 - j0) * a for j0, j1, a in plan)))
    carry = np.zeros((2, plan[0][2]))
    for j0, j1, a in plan:
        w, c = (buf[: (j1 - j0) * a].reshape(j1 - j0, a) for buf in bufs)
        rng.standard_normal(out=w)
        w *= sqdt
        _running_sum(w, carry[0, :a], w)  # now B at nodes j0+1..j1
        w += mu_dt * np.arange(j0 + 1, j1 + 1)[:, None]
        if bmd is not None:
            bmd[j0:j1] = w
        np.exp(w, out=w)
        _running_sum(w, carry[1, :a], c)
        yield j0, w, c, carry[:, :a]


def _batch_plan(m, S):
    """Terminal-batch tiles of m paths: max(1, budget // m) steps each."""
    k = max(1, _BATCH_CHUNK_ELEMS // m)
    return [(j0, min(S, j0 + k), m) for j0 in range(0, S, k)]


def _theta(e, cum, beta, x0, dt):
    """In place, e^{B + mu t} with running sums cum become theta =
    x0 e^{B + mu t}/(1 + beta a_t), a_t the running trapezoid, skipping
    a_t at beta = 0 and the product at x0 = 1; cum is spent."""
    if beta != 0.0:
        _trapezoid(cum, e, 1.0, dt, out=cum)  # the running a_t, a_0 = 0 folded in
        cum *= beta
        cum += 1.0
        np.divide(e, cum, out=e)
    if x0 != 1.0:
        e *= x0


def simulate_functional(params, grid, seed):
    """Exact-in-distribution path of the functional at the grid nodes.

    Gaussian increments are exact; only the running integrals carry
    trapezoid bias.  The one-path terminal batch, every node kept: theta,
    B + mu t and a_t at node S equal an n = 1 batch run with the same seed
    bit for bit (path 0 of a larger batch draws other normals).
    """
    S, dt = grid.n_steps, grid.dt
    theta, bmd = np.empty((2, S + 1, 1))
    theta[0], bmd[0] = params.x0, 0.0
    rng = _block_rng(seed, 0)
    for j0, w, c, _ in _walk_tiles(rng, _batch_plan(1, S), math.sqrt(dt), params.mu * dt, bmd[1:]):
        _theta(w, c, params.beta, params.x0, dt)
        theta[1 + j0 : 1 + j0 + len(w)] = w
    return PathSample(grid=grid, theta=theta[:, 0], bmd=bmd[:, 0])


def simulate_terminal_batch(params, grid, n, seed, threads=1):
    """Terminal summaries of n functional paths, block-parallel.

    A block of m paths walks step-major in tiles of max(1, 2**17 // m)
    steps, normal j m + i for step j + 1 of path i, in about 3 MiB a
    worker.  theta, B + mu t and a_T are sequential sums; A, int theta and
    int theta^2 add tile sums, so their last bits follow m's tile heights.

    At beta = 0, theta is x0 e^{B + mu t}, so the running a_t is never
    formed: a_T takes the full path's operations on the last row of the
    running sum only.  This is bit for bit the full path wherever
    e^{B + mu t} is finite; where it overflows theta reads inf, not NaN.
    """
    require_count("n", n, 1)
    S, dt = grid.n_steps, grid.dt
    mu, beta, x0 = params.mu, params.beta, params.x0
    out = TerminalStats(*(np.empty(n) for _ in range(6)))

    def fill(lo, m, rng):
        sums = np.zeros((3, m))  # e^{2(B + mu t)}, theta and theta^2 at nodes 1..S
        for _, w, c, carry in _walk_tiles(rng, _batch_plan(m, S), math.sqrt(dt), mu * dt):
            e_T = w[-1].copy()
            ee = np.einsum("ij,ij->j", w, w)
            sums[0] += ee
            _theta(w, c, beta, x0, dt)
            sums[1] += w.sum(axis=0)
            # at beta = 0 and x0 = 1, theta is e^{B + mu t} itself
            sums[2] += ee if beta == 0.0 and x0 == 1.0 else np.einsum("ij,ij->j", w, w)
        th_T = w[-1]
        sl = slice(lo, lo + m)
        out.theta[sl] = th_T
        out.bmd[sl] = carry[0] + mu * dt * S  # B + mu t at node S, as the last tile formed it
        out.a[sl] = _trapezoid(carry[1], e_T, 1.0, dt)
        out.A[sl] = _trapezoid(sums[0], e_T * e_T, 1.0, dt)
        out.int_theta[sl] = _trapezoid(sums[1], th_T, x0, dt)
        out.int_theta_sq[sl] = _trapezoid(sums[2], th_T * th_T, x0 * x0, dt)

    _run_blocks(n, seed, fill, threads)
    return out


def _exp_plan(ns):
    """Exp-time tiles for one block's decreasing step counts ns: the a
    paths still running, up to the element budget or the step count
    ceil(a/10)-th from the shortest, so under a tenth end inside a tile."""
    plan, j0, a = [], 0, ns.size
    while a:
        j1 = min(j0 + max(1, _BATCH_CHUNK_ELEMS // a), int(ns[a - (a + 9) // 10]))
        plan.append((j0, j1, a))
        j0, a = j1, int(np.searchsorted(-ns, -j1))  # paths with more than j1 steps
    return plan


def simulate_exp_terminal(params, rate, dt, n, seed, threads=1):
    """theta evaluated at an independent Exp(rate) time, n replicates.

    Horizons are rounded to the step grid (at least one step); a rounded
    horizon beyond int64 raises DomainError.  Within a block, paths run
    in decreasing order of horizon (stable) on the step-major tiles of
    _exp_plan, and theta is read at each path's own last node.  The
    normals drawn past a horizon inside a tile add under 6% to the sum
    of the horizons at rate 1.  Results follow the tile plan, never the
    thread count; a worker holds two buffers of about 2**17 doubles.
    """
    require_positive("rate", rate)
    require_positive("dt", dt)
    require_count("n", n, 1)
    mu, beta, x0 = params.mu, params.beta, params.x0
    out = np.empty(n)

    def fill(lo, m, rng):
        horizons = sample_exp_time(rate, rng, m)
        steps = np.rint(horizons / dt)
        if not np.all(steps < 2.0**63):
            raise DomainError(f"horizon of {np.max(horizons):.3g} at dt={dt:g} exceeds int64 steps")
        n_steps = np.maximum(1, steps.astype(np.int64))
        order = np.argsort(-n_steps, kind="stable")
        ns = n_steps[order]
        for j0, w, c, _ in _walk_tiles(rng, _exp_plan(ns), math.sqrt(dt), mu * dt):
            ended = np.arange(np.searchsorted(-ns, -(j0 + len(w))), w.shape[1])  # end here
            rows = ns[ended] - 1 - j0
            e, cum = w[rows, ended], c[rows, ended]
            _theta(e, cum, beta, x0, dt)
            out[lo + order[ended]] = e

    _run_blocks(n, seed, fill, threads)
    return out


def _bridge_tiles(grid, m, rng):
    """Row chunks of a block's m standard Brownian bridges Z on grid, in
    the tile budget: yields (c0, e), e = e^Z at nodes 1..S-1 of bridges
    c0..c0+len(e)-1.  Z is a walk drawn path-major (B_S comes with each
    row), less j/S times its last node."""
    S = grid.n_steps
    sqdt = math.sqrt(grid.dt)
    frac = np.arange(1, S) / S
    rows = max(2, _BATCH_CHUNK_ELEMS // S)
    w_buf = np.empty((min(m, rows), S))
    e_buf = np.empty((w_buf.shape[0], S - 1))
    for c0 in range(0, m, rows):
        c = min(rows, m - c0)
        w, e = w_buf[:c], e_buf[:c]
        rng.standard_normal(out=w)
        w *= sqdt
        np.cumsum(w, axis=1, out=w)  # B at nodes 1..S, row by row
        np.multiply(w[:, -1:], frac, out=e)
        np.subtract(w[:, :-1], e, out=e)  # the bridge at nodes 1..S-1
        np.exp(e, out=e)
        yield c0, e


def _walk_bridges(grid, n, seed, consume, threads):
    """consume(m, tiles) for each block of n bridges, on the thread that
    draws them, tiles its _bridge_tiles; returns the results in block
    order."""
    require_count("n", n, 1)
    return _run_blocks(n, seed, lambda lo, m, rng: consume(m, _bridge_tiles(grid, m, rng)), threads)


def simulate_bridge_integrals(grid, xs, n, seed, reduce, threads=1):
    """Trapezoid integrals over grid of e^{B_s + mu s} given its endpoint
    e^{B_t + mu t} = x, for each x in xs, on n paths, block-parallel.

    Given B_t + mu t = ln x, B_s + mu s is Z_s + (s/t) ln x, Z a standard
    Brownian bridge, whatever mu (Glasserman, Monte Carlo Methods in
    Financial Engineering, 2003, sec. 3.1).  So with E = e^Z at nodes
    j = 1..S-1, one matrix product dt/2 (1 + x) + E . (dt x^{j/S}) serves
    every x.  Each block's (m x xs.size) integrals go to reduce on the
    thread that drew them; returns reduce's results in block order.
    """
    xs = np.asarray(xs, dtype=float)
    S, dt = grid.n_steps, grid.dt
    weights = dt * np.exp(np.outer(np.arange(1, S) / S, np.log(xs)))  # dt x^{j/S}
    ends = 0.5 * dt * (1.0 + xs)

    def consume(m, tiles):
        v = np.empty((m, xs.size))
        for c0, e in tiles:
            np.matmul(e, weights, out=v[c0 : c0 + len(e)])
        v += ends
        return reduce(v)

    return _walk_bridges(grid, n, seed, consume, threads)


# Newton steps of _bridge_level before it gives up; from the left of the
# root it takes about five
_LEVEL_ITERS = 60


def _bridge_level(e, dt, beta, log_y, b):
    """In place, b (a row per row of e, e^Z at nodes 1..S-1 of bridges of
    S steps of dt) becomes the endpoint B_t + mu t at which x0 = 1's
    theta_t = e^b/(1 + beta a(b)) reaches e^{log_y}, a(b) the trapezoid
    integral of e^{Z_s + b s/t}; b must start at or below that root.

    g(b) = b - log_y - ln(1 + beta a(b)) is increasing (g' >= 1/(1 +
    beta a)) and concave, ln(1 + beta a) being a log-sum-exp of affine
    functions of b.  So Newton's tangent lies above g and every step from
    the left lands left of the root again: the iterates rise to it.  A
    step that rounding makes negative is clipped to 0, and all rows stop
    once every step is within 1e-12.
    """
    S = e.shape[1] + 1
    frac = np.arange(1, S) / S
    w = np.empty_like(e)
    for _ in range(_LEVEL_ITERS):
        np.multiply.outer(b, frac, out=w)
        np.exp(w, out=w)
        w *= e
        x = np.exp(b)
        beta_a = beta * dt * (0.5 + 0.5 * x + w.sum(axis=1))
        beta_da = beta * dt * (0.5 * x + w @ frac)
        step = np.maximum((b - log_y - np.log1p(beta_a)) / (beta_da / (1.0 + beta_a) - 1.0), 0.0)
        b += step
        if step.max() <= 1e-12:
            return b
    raise ConvergenceError(f"bridge level: a step of {step.max():.3g} after {_LEVEL_ITERS} steps")


def _normal_sf(u):
    """P[N(0, 1) > u] for each u."""
    return 0.5 * np.array([math.erfc(v / math.sqrt(2.0)) for v in u.tolist()])


def _window_probability(e, dt, params, t, lo, hi):
    """P(lo <= theta_t <= hi | Z) for each row of e, e^Z at nodes 1..S-1
    of bridges of S steps of dt: given Z the endpoint b = B_t + mu t is
    N(mu t, t), and theta_t is increasing in b (_bridge_level)."""
    log_lo = math.log(lo / params.x0)
    b_lo = _bridge_level(e, dt, params.beta, log_lo, np.full(e.shape[0], log_lo))
    # the root at lo is left of the one at hi
    b_hi = _bridge_level(e, dt, params.beta, math.log(hi / params.x0), b_lo.copy())
    # mirrored where the window starts at or below the mean, so the lower
    # end's tail is at most 1/2: never a difference of two values near one
    sign = np.where(b_lo > params.mu * t, 1.0, -1.0)
    u_lo, u_hi = ((b - params.mu * t) * sign / math.sqrt(t) for b in (b_lo, b_hi))
    return sign * (_normal_sf(u_lo) - _normal_sf(u_hi))


def simulate_bridge_window(params, grid, lo, hi, n, seed, threads=1):
    """P(lo <= theta_t <= hi | Z) on each of n Brownian bridges Z over grid,
    block-parallel: conditional Monte Carlo for the window probability
    (Glasserman, 2003, sec. 4.5; Asmussen and Glynn, Stochastic
    Simulation, 2007, sec. V.4).  Given Z the endpoint b = B_t + mu t is
    N(mu t, t), and theta_t = x0 e^b/(1 + beta a(b, Z)), a the trapezoid
    integral on grid, is strictly increasing in b; so each bridge's value
    is the normal mass between the two endpoints at which theta_t reaches
    lo and hi, found by Newton to 1e-12.  Its mean is the window's
    probability under the trapezoid rule; thread counts change no bit.
    """
    require_positive("lo", lo)
    if not (math.isfinite(hi) and hi > lo):
        raise DomainError("hi must be finite and > lo")
    t, dt = grid.t_end, grid.dt

    def consume(m, tiles):
        p = np.empty(m)
        for c0, e in tiles:
            p[c0 : c0 + len(e)] = _window_probability(e, dt, params, t, lo, hi)
        return p

    return np.concatenate(_walk_bridges(grid, n, seed, consume, threads))


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
    squared Bessel value started at lambda x0 e^{2G} run to time 1/2 (theta
    is x0 theta(1, beta)), and averages the arcosh kernel at (x=G,
    z=draw/(4 beta)) with time h.
    """
    if params.beta <= 0:
        raise DomainError("squared-Bessel route needs beta > 0")
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
        r_draw = sample_besq0(lam * params.x0 * np.exp(2.0 * gauss), 0.5, rng)
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
