"""Statistical validation harness.

Every closed-form claim in the library is backed by an executable check
that reduces to one number against one threshold: special-function
identities by cross-evaluation against an independent quadrature,
distributional claims by KS distance against exact samplers,
measure-change and moment claims by paired z-scores, and the pathwise
representation by direct node residuals.  run_suite executes the
registered checks at a configured budget; each TestReport carries its
statistic, threshold, sample size or tolerance, and enough parameter
detail to be read without re-running anything.
"""

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .density import (
    GENERAL_MC_DT,
    DensityCurve,
    curve_exact_half,
    curve_exp_time,
    curve_general_mc,
    density_exp_time,
    density_exp_time_mixture,
    density_general_quad,
    exp_time_total_mass,
    moment_exp_int_theta,
)
from .errors import DomainError, require_count, require_nonnegative, require_positive
from .simulate import (
    McEstimate,
    ModelParams,
    TimeGrid,
    girsanov_weight_batch,
    laplace_grid,
    laplace_mc_besq,
    laplace_mc_direct,
    laplace_mc_gbm,
    simulate_exp_terminal,
    simulate_functional,
    simulate_terminal_batch,
)
from .specfun import (
    ABS_TOL,
    bessel_i,
    bessel_product_F,
    log_panel_integral,
    log_panels,
    theta_time_laplace,
)

# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class TestReport:
    """One check, one number, one verdict.

    `passed` is derived, never stored independently: it is exactly
    `statistic <= threshold` (NaN fails).  `n_or_tolerance` records what
    the statistic was computed from ("n=100000" for Monte Carlo,
    "quad"/"exact"/"dt=..." otherwise); `details` carries the parameter
    point and per-part numbers so a failure is interpretable offline.
    """

    __test__ = False  # a result type, not a pytest case

    name: str
    statistic: float
    threshold: float
    n_or_tolerance: str
    details: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.statistic <= self.threshold))


REPORT_CSV_HEADER = "name,statistic,threshold,passed,details"


def write_report_csv(reports, fh):
    """CSV rows `name,statistic,threshold,passed,details` (details quoted)."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(REPORT_CSV_HEADER.split(","))
    for r in reports:
        w.writerow(
            [
                r.name,
                format(r.statistic, ".10g"),
                format(r.threshold, ".10g"),
                "true" if r.passed else "false",
                r.details,
            ]
        )


def format_summary(reports):
    """Human-readable block: one line per report plus a tally.

    Appends a familywise-error note when more than ten Monte Carlo
    checks (n_or_tolerance starting with "n=") run at 3-sigma each.
    """
    lines = []
    width = max([len(r.name) for r in reports], default=4)
    for r in reports:
        lines.append(
            f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
            f"statistic={r.statistic:.4g}  threshold={r.threshold:.4g}  [{r.n_or_tolerance}]"
        )
    n_pass = sum(r.passed for r in reports)
    lines.append(f"{n_pass}/{len(reports)} checks passed")
    n_mc = sum(r.n_or_tolerance.startswith("n=") for r in reports)
    if n_mc > 10:
        lines.append(
            f"note: {n_mc} Monte Carlo checks at 3 sigma each; familywise "
            f"false-alarm rate is ~{n_mc * 0.0027:.1%}, so an isolated "
            "marginal failure on rerun is not by itself evidence of a bug"
        )
    return "\n".join(lines)


# --- KS metric ---------------------------------------------------------------


def ks_distance(samples, cdf):
    """Sup distance between the empirical CDF of sorted `samples` and the
    exact CDF callable evaluated at them."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise DomainError("ks_distance needs a nonempty sample")
    if not np.all(np.isfinite(s)):
        raise DomainError("samples must be finite")
    if np.any(np.diff(s) < 0.0):
        raise DomainError("ks_distance needs sorted samples")
    f = np.asarray(cdf(s), dtype=float)
    n = s.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def _work(dt, path_steps):
    """The end of a Monte Carlo report's details: its step and the number
    of path-steps it drew."""
    return f"dt={dt:g}; path-steps={path_steps}"


def _ks_report(name, samples, curve, floor, details):
    """KS distance of the samples from a density curve's cumulative
    integral, against the 99.9% Kolmogorov band 1.95/sqrt(n) floored at
    the target tolerance `floor`."""
    n = len(samples)
    cum = curve.cumulative()
    return TestReport(
        name=name,
        statistic=ks_distance(np.sort(samples), lambda s: np.interp(s, curve.abscissae, cum)),
        threshold=max(floor, 1.95 / math.sqrt(n)),
        n_or_tolerance=f"n={n}",
        details=details,
    )


def _worst(stats):
    """(index, value) of the largest statistic.  A NaN counts as the
    largest, so a point the check could not evaluate fails its report."""
    k = int(np.argmax(stats))
    return k, float(stats[k])


# --- special-function identity checks ----------------------------------------


def _bessel_i_scaled_asym(nu, a):
    """e^{-a} I_nu(a) from the large-argument expansion, six terms.

    The error is below the first omitted term: < 1e-12 relative for
    a >= 120 and nu <= 2, far inside the identity check's tolerance.
    """
    a = np.asarray(a, dtype=float)
    f = 4.0 * nu * nu
    s = np.ones_like(a)
    term = np.ones_like(a)
    for k in range(1, 7):
        term = term * -(f - (2 * k - 1) ** 2) / (8.0 * k * a)
        s = s + term
    return s / np.sqrt(2.0 * np.pi * a)


def _bessel_product_quad(nu, x, w):
    """(1/2) integral_0^inf e^{-z/2-(x^2+w^2)/(2z)} I_nu(xw/z) dz/z.

    Log-z panels; where the Bessel argument exceeds 120 the integrand is
    assembled in log scale from the scaled asymptotic I so the z -> 0
    diagonal (x = w) region, whose scaled integrand decays only like
    sqrt(z), never overflows.
    """
    p = x * w
    d = abs(x - w)
    L = -math.log(ABS_TOL) + 14.0
    z_hi = 2.0 * L
    z_lo = max(d * d / (2.0 * L), 2.0 * math.pi * p * 2.5e-21)
    z, wts = log_panels(math.log(z_lo), math.log(z_hi), 2.5, 8)
    a = p / z
    vals = np.empty_like(z)
    big = a > 120.0
    if np.any(big):
        lf = -0.5 * z[big] - d * d / (2.0 * z[big]) + np.log(_bessel_i_scaled_asym(nu, a[big]))
        vals[big] = np.exp(lf)
    for i in np.nonzero(~big)[0]:
        vals[i] = math.exp(-0.5 * z[i] - (x * x + w * w) / (2.0 * z[i])) * bessel_i(nu, a[i])
    return 0.5 * float(np.dot(wts, vals))


def bessel_identity_check():
    """I_nu(min)K_nu(max) vs its half-line integral form, max rel error."""
    args = (0.5, 1.0, 2.0, 3.0)
    cells = [(nu, x, w) for nu in (0.6, 1.0, 2.0) for x in args for w in args]
    rels = []
    for nu, x, w in cells:
        ref = bessel_product_F(nu, x, w)
        rels.append(abs(_bessel_product_quad(nu, x, w) - ref) / ref)
    k, worst = _worst(rels)
    return TestReport(
        name="bessel_product_identity",
        statistic=worst,
        threshold=1e-5,
        n_or_tolerance="quad",
        details=f"worst at (nu,x,w)={cells[k]}; {len(cells)} combinations",
    )


def hartman_watson_identity_check():
    """integral e^{-nu^2 t/2} Theta(r,t) dt vs I_nu(r), max rel error.

    The time integral reports its own completion half-width for the
    unreachable (0, t_min) head; details record the worst such bound so
    the pass is explicitly tighter than what the quadrature guarantees.
    """
    cells = [(nu, r) for nu in (0.6, 1.0, 2.0) for r in (0.5, 1.0, 2.0, 3.0)]
    rels = []
    bound_rel = 0.0
    for nu, r in cells:
        val, bound = theta_time_laplace(r, 0.5 * nu * nu)
        ref = bessel_i(nu, r)
        rels.append(abs(val - ref) / ref)
        bound_rel = max(bound_rel, bound / ref)
    k, worst = _worst(rels)
    return TestReport(
        name="hartman_watson_identity",
        statistic=worst,
        threshold=1e-4,
        n_or_tolerance="quad",
        details=f"worst at (nu,r)={cells[k]}; max documented head bound {bound_rel:.2e} rel",
    )


# --- measure change ----------------------------------------------------------

_DEFAULT_TEST_FNS = (
    ("P[theta<=0.5]", lambda th: (th <= 0.5).astype(float)),
    ("P[theta<=1]", lambda th: (th <= 1.0).astype(float)),
    ("P[theta<=2]", lambda th: (th <= 2.0).astype(float)),
    ("E[exp(-theta)]", lambda th: np.exp(-th)),
)


def measure_change_test(
    params,
    gamma,
    t,
    n,
    seed,
    test_fns=None,
    dt=1e-3,
    threads=1,
    name="measure_change",
):
    """Paired z-test of E[M_t f(theta^(mu,beta))] = E[f(theta^(mu,beta+gamma))].

    One ensemble serves both sides: the process at crowding beta+gamma
    driven by the same Brownian path is
    theta'_t = e^{B_t + mu t} / (1 + (beta+gamma) a_t), read off the
    base batch's terminal e^{B+mu t} and a_T in the sampler's own
    operation order, so it equals a second batch at beta+gamma and the
    same seed bit for bit.  Each path contributes one difference
    d_i = M_i f(theta_i) - f(theta'_i) and the z-score uses the paired
    variance of d, not the pooled variance of the two sides.  The test
    family stays bounded (indicators and e^{-theta}); the weight's
    integrability against unbounded f is not something we rely on.

    gamma = 0 is the degenerate boundary: weight one, identical
    ensembles, every z exactly 0.  Tiny positive gamma is *not* a good
    approximation of it -- an indicator's two sides then differ through
    boundary crossings of probability O(gamma), invisible to any sample
    with n << 1/gamma, and its z-score measures only the uncompensated
    smooth part.
    """
    if params.x0 != 1.0 or params.coupled:
        raise DomainError("measure_change_test is stated for the start-1 convention")
    require_nonnegative("gamma", gamma)
    require_count("n", n, 2)
    fns = tuple(test_fns) if test_fns is not None else _DEFAULT_TEST_FNS
    if not fns:
        raise DomainError("need at least one test function")
    grid = TimeGrid.with_step(t, dt)
    base = simulate_terminal_batch(params, grid, n, seed, threads=threads)
    shifted_theta = np.exp(base.bmd) / (base.a * (params.beta + gamma) + 1.0)
    weight = (
        np.ones(n) if gamma == 0.0 else girsanov_weight_batch(base, gamma, params)
    )

    zs = []
    parts = []
    for label, fn in fns:
        d = weight * fn(base.theta) - fn(shifted_theta)
        mean = float(d.mean())
        se = float(d.std(ddof=1) / math.sqrt(n))
        z = 0.0 if (se == 0.0 and mean == 0.0) else (math.inf if se == 0.0 else mean / se)
        zs.append(abs(z))
        parts.append(f"{label}: z={z:+.2f}")
    return TestReport(
        name=name,
        statistic=_worst(zs)[1],
        threshold=3.0,
        n_or_tolerance=f"n={n}",
        details=(
            "; ".join(parts)
            + f"; mu={params.mu:g} beta={params.beta:g} gamma={gamma:g} t={t:g}; "
            + _work(grid.dt, n * grid.n_steps)
        ),
    )


# --- pathwise representation --------------------------------------------------


def representation_check(alpha, gamma, grid, seed, mu=0.0):
    """Max node residual of B+mu t = alpha (V+mu t) + (1-alpha) ln theta,
    V_t = B_t + gamma int_0^t theta ds, along one exact path of the
    process at the crowding beta = gamma alpha / (1 - alpha) that the
    mixing weight alpha in [0, 1) forces.

    The identity is pathwise, so only the grid's horizon enters.  The
    only discretization in sight is the trapezoid running integral, so
    the residual is O(dt) and exactly 0 at the first node; threshold
    10 dt.  At alpha = 0 (beta = 0) the identity is theta's own
    definition and the residual is roundoff.
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    require_positive("gamma", gamma)
    beta = gamma * alpha / (1.0 - alpha)
    path = simulate_functional(ModelParams(mu=mu, beta=beta, x0=1.0), grid, seed)
    run_int = path.running_integrals()[0]
    rhs = alpha * (path.bmd + gamma * run_int) + (1.0 - alpha) * np.log(path.theta)
    resid = np.abs(path.bmd - rhs)
    k, worst = _worst(resid)
    return TestReport(
        name="representation_residual",
        statistic=worst,
        threshold=10.0 * grid.dt,
        n_or_tolerance=f"dt={grid.dt:g}",
        details=(
            f"alpha={alpha:g} beta={beta:g} gamma={gamma:g} mu={mu:g}; "
            f"worst node t={grid.times()[k]:.4g}; residual at node 0 = {resid[0]:.1e}"
        ),
    )


def _mean_representation_residual(alpha, gamma, grid, seeds):
    return float(np.mean([representation_check(alpha, gamma, grid, s).statistic for s in seeds]))


# --- exponential-time symmetry -----------------------------------------------


def z2_symmetry_check(lam, z_grid):
    """Exchange symmetry of the exponential-time law against a squared
    start average: z^2 int 2 e^{-2x} p_x(z) dx = 2 e^{-2z} int w^2 p_z(w) dw.

    Both sides reduce to integrals of the same symmetric kernel
    4 lam e^{-a-b} sqrt(ab) I K, so the check is really exercising the
    two quadratures (different truncations, kink on opposite sides).
    Statistic is the max relative gap over z_grid.

    The start average stops at x_hi ~ 17.5, so the check resolves z up
    to about 15 (gap 2.5e-4 at z = 15, 1.2e-2 at z = 17).  Far beyond,
    both sides underflow to 0, the gap is 0/0 = NaN and the report fails.
    """
    require_positive("lam", lam)
    zg = np.asarray(z_grid, dtype=float)
    if zg.size == 0 or np.any(zg <= 0):
        raise DomainError("z_grid must be positive and nonempty")
    x_hi = 0.5 * (-math.log(ABS_TOL)) + 6.0
    lhs, rhs = np.empty_like(zg), np.empty_like(zg)
    for i, z in enumerate(zg.tolist()):
        lhs[i] = z * z * log_panel_integral(
            lambda x: 2.0 * math.exp(-2.0 * x) * density_exp_time(x, lam, z),
            1e-8,
            x_hi,
            kink=z,
        )
        rhs[i] = 2.0 * math.exp(-2.0 * z) * log_panel_integral(
            lambda w: w * w * density_exp_time(z, lam, w),
            1e-8,
            x_hi + z + 4.0,
            kink=z,
        )
    k, worst = _worst(np.abs(lhs - rhs) / np.maximum(lhs, rhs))
    return TestReport(
        name=f"z2_symmetry[lam={lam:g}]",
        statistic=worst,
        threshold=1e-3,
        n_or_tolerance="quad",
        details=f"lam={lam:g}; worst z={zg[k]:g}; z_grid={zg.tolist()}",
    )


# --- the suite ----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 20240
    budget: str = "quick"
    only: tuple = ()
    threads: int = 1

    def __post_init__(self):
        if self.budget not in _BUDGETS:
            raise DomainError(f"budget must be one of {sorted(_BUDGETS)}")
        require_count("threads", self.threads, 1)
        object.__setattr__(self, "only", tuple(self.only))


# Knobs per budget.  Thresholds never loosen with budget except where they
# are sample-size-bound by construction (the KS bands); those floors match
# the full-scale tolerances.  `dt` is the step of the two checks that read
# an indicator of theta_T at a fixed level (measure_change and the
# general-density histogram); the other path checks step at _CERTIFIED_DT.
_BUDGETS = {
    "quick": dict(
        n=20_000,
        dt=2e-3,
        ks_fixed_n=20_000,
        ks_exp_n=20_000,
        hist_n=100_000,
        hist_half=0.05,
        cells="corners",
        curve_points=400,
        general_cdf=False,
    ),
    "full": dict(
        n=100_000,
        dt=1e-3,
        ks_fixed_n=1_000_000,
        ks_exp_n=100_000,
        hist_n=1_000_000,
        hist_half=0.02,
        cells="all",
        curve_points=600,
        general_cdf=True,
    ),
}

# step of fixed_time, exp_time, martingale and moment at every budget.  On
# the same Brownian paths against dt = 1e-3, the shift of each one's
# statistic (theta_T's CDF at its deciles, the Girsanov weight, e^{beta int
# theta}) plus three of its standard errors stays under a tenth of the
# check's full-budget resolution: the *_step_bias_paired tests in
# tests/test_simulate.py
_CERTIFIED_DT = 5e-3

# the Monte Carlo cells of martingale and moment, keyed by the budget's
# `cells`; every cell ends with (mu, beta, T)
_MART_CELLS = {
    "all": [
        (g, m, b, T)
        for g in (0.5, 1.0)
        for m in (-0.5, 0.0, 0.5)
        for b in (0.0, 1.0)
        for T in (0.5, 1.0)
    ],
    "corners": [
        (0.5, -0.5, 0.0, 0.5),
        (1.0, 0.5, 1.0, 1.0),
        (0.5, 0.0, 1.0, 1.0),
        (1.0, -0.5, 0.0, 1.0),
    ],
}
_MOMENT_CELLS = {
    "all": [(m, b, T) for m in (-0.25, 0.0, 0.5) for b in (0.5, 1.0) for T in (0.5, 1.0)],
    "corners": [
        (-0.25, 0.5, 0.5),
        (0.5, 1.0, 1.0),
        (0.0, 1.0, 0.5),
        (-0.25, 1.0, 1.0),
    ],
}


def _cells_z(name, label, cells, knobs, seed, threads, z_of):
    """Worst |z| of a Monte Carlo claim over the budget's cells.

    Cell j, ending with (mu, beta, T), draws knobs["n"] paths at seed + j
    on _CERTIFIED_DT; z_of(cell, params, stats) returns the per-path
    values and the mean the claim gives them.
    """
    cells = cells[knobs["cells"]]
    n = knobs["n"]
    zs = []
    path_steps = 0
    for j, cell in enumerate(cells):
        mu, beta, T = cell[-3:]
        params = ModelParams(mu=mu, beta=beta, x0=1.0)
        grid = TimeGrid.with_step(T, _CERTIFIED_DT)
        stats = simulate_terminal_batch(params, grid, n, seed + j, threads=threads)
        path_steps += n * grid.n_steps
        vals, claimed = z_of(cell, params, stats)
        est = McEstimate.from_samples(vals)
        zs.append(abs(est.mean - claimed) / est.stderr)
    k, worst = _worst(zs)
    return [
        TestReport(
            name=name,
            statistic=worst,
            threshold=3.0,
            n_or_tolerance=f"n={n}",
            details=(
                f"worst |z| at {label}={cells[k]}; {len(cells)} cells; "
                + _work(_CERTIFIED_DT, path_steps)
            ),
        )
    ]


def _check_bessel(config, knobs, seed):
    return [bessel_identity_check()]


def _check_hartman_watson(config, knobs, seed):
    return [hartman_watson_identity_check()]


def _check_fixed_time(config, knobs, seed):
    curve = curve_exact_half(1.0, 1.0, n_points=knobs["curve_points"])
    mass = TestReport(
        name="fixed_time_mass",
        statistic=abs(curve.total_mass - 1.0),
        threshold=1e-3,
        n_or_tolerance="quad",
        details=f"x=1 t=1; mass={curve.total_mass:.6f}",
    )
    n = knobs["ks_fixed_n"]
    grid = TimeGrid.with_step(1.0, _CERTIFIED_DT)
    stats = simulate_terminal_batch(
        ModelParams.coupled_start(1.0), grid, n, seed, threads=config.threads
    )
    details = (
        "x=1 t=1; threshold=max(5e-3, 99.9% Kolmogorov band); "
        + _work(grid.dt, n * grid.n_steps)
    )
    return [mass, _ks_report("fixed_time_ks", stats.theta, curve, 5e-3, details)]


def _check_exp_time(config, knobs, seed):
    mass_val = exp_time_total_mass(1.0, 1.0)
    mass = TestReport(
        name="exp_time_mass",
        statistic=abs(mass_val - 1.0),
        threshold=1e-6,
        n_or_tolerance="quad",
        details=f"x=1 lam=1; mass={mass_val:.9f}",
    )
    n = knobs["ks_exp_n"]
    samples = simulate_exp_terminal(
        ModelParams.coupled_start(1.0), 1.0, _CERTIFIED_DT, n, seed, threads=config.threads
    )
    curve = curve_exp_time(1.0, 1.0, n_points=800)
    details = (
        "x=1 lam=1; threshold=max(1e-2, 99.9% Kolmogorov band); "
        # each path steps to its own Exp(1) horizon, 1 / dt steps on average
        + _work(_CERTIFIED_DT, f"{n / _CERTIFIED_DT:.0f} (expected)")
    )
    return [mass, _ks_report("exp_time_ks", samples, curve, 1e-2, details)]


def _check_mixture(config, knobs, seed):
    ws = (0.5, 1.0, 2.0)
    rels = []
    max_bound = 0.0
    for w in ws:
        closed = density_exp_time(1.0, 1.0, w)
        value, bound = density_exp_time_mixture(1.0, 1.0, w)
        rels.append(abs(value - closed) / closed)
        max_bound = max(max_bound, bound / closed)
    k, worst = _worst(rels)
    return [
        TestReport(
            name="mixture_consistency",
            statistic=worst,
            threshold=1e-3,
            n_or_tolerance="quad",
            details=f"x=1 lam=1; worst w={ws[k]:g}; max reported bracket {max_bound:.2e} rel",
        )
    ]


def _check_martingale(config, knobs, seed):
    return _cells_z(
        "martingale_mean", "(gamma,mu,beta,T)", _MART_CELLS, knobs, seed, config.threads,
        lambda cell, params, stats: (girsanov_weight_batch(stats, cell[0], params), 1.0),
    )


def _check_measure_change(config, knobs, seed):
    # the budget step: on paired paths, the shift of the indicator terms
    # from dt = 1e-3 to 5e-3 plus three standard errors reaches 1.3 to 3.1
    # tenths of their standard error at n = 1e5 (P[theta<=0.5] at beta = 1
    # the worst), against at most 0.5 tenths for the certified checks
    return [
        measure_change_test(
            ModelParams(mu=0.0, beta=beta, x0=1.0),
            gamma=1.0,
            t=1.0,
            n=knobs["n"],
            seed=seed + 7 * int(beta),
            dt=knobs["dt"],
            threads=config.threads,
            name=f"measure_change[beta={beta:g}]",
        )
        for beta in (0.0, 1.0)
    ]


def _check_moment(config, knobs, seed):
    return _cells_z(
        "moment_identity", "(mu,beta,t)", _MOMENT_CELLS, knobs, seed, config.threads,
        lambda cell, params, stats: (
            np.exp(params.beta * stats.int_theta), moment_exp_int_theta(params, cell[-1])
        ),
    )


def _pairwise_z(a, b):
    return abs(a.mean - b.mean) / math.hypot(a.stderr, b.stderr)


def _check_laplace(config, knobs, seed):
    params = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    n = knobs["n"]
    besq = laplace_mc_besq(1.0, params, 1.0, n, seed + 1, threads=config.threads)
    gbm = laplace_mc_gbm(1.0, params, 1.0, n, seed + 2, threads=config.threads)
    direct = laplace_mc_direct(1.0, params, 1.0, n, seed + 3, threads=config.threads)
    grid = laplace_grid(1.0)
    _, z = _worst([_pairwise_z(besq, gbm), _pairwise_z(besq, direct), _pairwise_z(gbm, direct)])
    return [
        TestReport(
            name="laplace_triangle",
            statistic=z,
            threshold=3.0,
            n_or_tolerance=f"n={n}",
            details=(
                f"lam=1 mu=0 beta=1 t=1; besq={besq.mean:.5f}, gbm={gbm.mean:.5f}, "
                f"direct={direct.mean:.5f}; gbm and direct at dt={grid.dt:g} "
                f"({grid.n_steps} steps); path-steps={2 * n * grid.n_steps}"
            ),
        )
    ]


def _check_general_density(config, knobs, seed):
    gamma, mu, t = 1.0, 0.0, 1.0
    hist_n, half = knobs["hist_n"], knobs["hist_half"]
    # the budget step: on paired paths at dt = 0.01 against 1e-3 the
    # histogram window's probability moves by 7e-5 +- 9.8e-5, against a
    # full-budget standard error of 1.2e-4, so no coarser step is certified
    grid = TimeGrid.with_step(t, knobs["dt"])
    stats = simulate_terminal_batch(
        ModelParams(mu=mu, beta=gamma, x0=1.0), grid, hist_n, seed, threads=config.threads
    )
    count = int(np.count_nonzero(np.abs(stats.theta - 1.0) <= half))
    p_hist = count / (2.0 * half * hist_n)
    se_hist = math.sqrt(max(count, 1)) / (2.0 * half * hist_n)

    n = knobs["n"]
    # one path batch serves the histogram point x = 1 and the mass grid
    x_grid = np.geomspace(0.01, 20.0, 72)
    k = int(np.searchsorted(x_grid, 1.0))
    both, errs = curve_general_mc(
        gamma, mu, t, np.insert(x_grid, k, 1.0), n, seed + 1, threads=config.threads
    )
    est, se = float(both.values[k]), float(errs[k])
    curve = DensityCurve(x_grid, np.delete(both.values, k))
    quad = density_general_quad(gamma, mu, t, 1.0)
    curve_grid = TimeGrid.with_step(t, GENERAL_MC_DT)
    curve_work = n * curve_grid.n_steps
    both_work = (
        f"histogram dt={grid.dt:g}, curve dt={curve_grid.dt:g}; "
        f"path-steps={hist_n * grid.n_steps + curve_work}"
    )
    hist = TestReport(
        name="general_density_histogram",
        statistic=abs(est - p_hist) / math.hypot(se, se_hist),
        threshold=3.0,
        n_or_tolerance=f"n={n}",
        details=(
            f"gamma=1 mu=0 t=1 x=1; estimate={est!r}+-{se!r}; "
            f"histogram={p_hist:.4f}+-{se_hist:.4f} (n={hist_n}, halfwidth={half:g}); "
            f"substitution quadrature={quad:.4f}; {both_work}"
        ),
    )
    mass = TestReport(
        name="general_density_mass",
        statistic=abs(curve.total_mass - 1.0),
        threshold=2e-2,
        n_or_tolerance=f"n={n}",
        details=(
            f"mass={curve.total_mass:.4f}; grid=[0.01,20]x72; "
            + _work(curve_grid.dt, curve_work)
        ),
    )
    if not knobs["general_cdf"]:
        # at the quick sizes this sup-CDF exceeds 1e-2 on about one seed in five
        return [hist, mass]
    # at the full hist_n = 1e6 the Kolmogorov band is below the 1e-2 floor
    cdf = _ks_report(
        "general_density_cdf", stats.theta, curve, 1e-2,
        f"sup |curve CDF - empirical CDF|; curve n={n}, grid=[0.01,20]x72; {both_work}",
    )
    return [hist, mass, cdf]


def _check_representation(config, knobs, seed):
    alpha, gamma = 0.5, 1.0
    grid = TimeGrid(1.0, 1000)
    first = representation_check(alpha, gamma, grid, seed)
    seeds = range(seed, seed + 5)
    coarse = _mean_representation_residual(alpha, gamma, grid, seeds)
    fine = _mean_representation_residual(alpha, gamma, TimeGrid(1.0, 2000), seeds)
    ratio = fine / coarse
    refine = TestReport(
        name="representation_refinement",
        statistic=ratio,
        threshold=0.75,
        n_or_tolerance="paths=5",
        details=(
            f"mean residual {coarse:.2e} at dt=1e-3 -> {fine:.2e} at dt=5e-4; "
            "the ratio must be at most 0.75; the two trapezoid integrals "
            "discretize the same flow, so the observed rate is nearer second order"
        ),
    )
    return [first, refine]


def _check_z2_symmetry(config, knobs, seed):
    return [z2_symmetry_check(lam, (0.5, 1.0, 2.0)) for lam in (1.0, 2.0)]


def _check_determinism(config, knobs, seed):
    params = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    runs = [
        laplace_mc_direct(1.0, params, 1.0, 4000, seed, threads=th) for th in (1, 3, 1)
    ]
    _, stat = _worst([
        abs(runs[0].mean - runs[1].mean),
        abs(runs[0].mean - runs[2].mean),
        abs(runs[0].stderr - runs[1].stderr),
    ])
    return [
        TestReport(
            name="determinism",
            statistic=stat,
            threshold=0.0,
            n_or_tolerance="exact",
            details=f"direct Laplace MC, n=4000, threads 1/3/1; mean={runs[0].mean:.12f}",
        )
    ]


# Registration order is the report order and also feeds per-group seeds
# (config.seed + 101 * index), so reordering or renaming changes the draws.
SUITE_REGISTRY = (
    ("bessel_product_identity", _check_bessel),
    ("hartman_watson_identity", _check_hartman_watson),
    ("fixed_time", _check_fixed_time),
    ("exp_time", _check_exp_time),
    ("mixture", _check_mixture),
    ("martingale", _check_martingale),
    ("measure_change", _check_measure_change),
    ("moment", _check_moment),
    ("laplace", _check_laplace),
    ("general_density", _check_general_density),
    ("representation", _check_representation),
    ("z2_symmetry", _check_z2_symmetry),
    ("determinism", _check_determinism),
)


def _run_one(key, fn, config, knobs, seed):
    try:
        return list(fn(config, knobs, seed))
    except Exception as exc:  # recorded, never aborts the suite
        return [
            TestReport(
                name=key,
                statistic=math.inf,
                threshold=0.0,
                n_or_tolerance="error",
                details=f"{type(exc).__name__}: {exc}",
            )
        ]


def run_suite(config, registry=None):
    """Execute the registered checks and return their reports.

    Filtering: a group runs when any `config.only` token is a substring
    of its registry key; empty means everything.  Groups are independent
    and run on config.threads workers; reports always come back in
    registration order, and every statistic is reproducible because each
    group owns a seed derived from registration index alone.
    """
    reg = SUITE_REGISTRY if registry is None else tuple(registry)
    knobs = _BUDGETS[config.budget]
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [
            pool.submit(_run_one, key, fn, config, knobs, config.seed + 101 * i)
            for i, (key, fn) in enumerate(reg)
            if not config.only or any(tok in key for tok in config.only)
        ]
        try:
            return [report for f in futures for report in f.result()]
        finally:
            # an interrupt waits for the running groups only, not the queued ones
            pool.shutdown(cancel_futures=True)
