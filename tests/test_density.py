"""Tests for the distribution layer.

Closed-form values are pinned against mpmath (Bessel products, the
scaled Hartman-Watson kernel) computed at dps=30 and frozen below.
Distributional claims are checked two ways: quadrature of the density
against exact normalization/marginals, and KS distance against the
exact path simulator at sample sizes where the gates sit several sigma
away from the expected statistic.  The general-drift density has two
independent routes (substitution quadrature and the endpoint-conditional
tilt average); the plain tilt average over the draws stays here as a
negative control that must keep disagreeing with them.
"""

import io
import math

import numpy as np
import pytest

from verhulst.density import (
    DensityCurve,
    _theta_log_interp,
    _tilt_kernels,
    conditional_laplace,
    curve_exact_half,
    curve_exp_time,
    curve_general_mc,
    curve_lognormal,
    density_exact_half,
    density_exp_time,
    density_exp_time_mixture,
    density_general_mc,
    density_general_quad,
    exp_time_total_mass,
    lognormal_density,
    moment_exp_int_theta,
    myor_psi_profile,
    write_density_csv,
)
from verhulst.errors import DomainError
from verhulst.simulate import (
    McEstimate,
    ModelParams,
    TimeGrid,
    simulate_exp_terminal,
    simulate_terminal_batch,
)
from verhulst.specfun import _panels, hartman_watson_theta_grid

# Frozen from mpmath at dps=30: 2 lam e^{x-z} sqrt(x/z^3) I_nu(min) K_nu(max),
# nu = sqrt(2 lam + 1/4).
P_EXP_1_1_2 = 0.013736729166550635
P_EXP_1_HALF_HALF = 0.63395044561728636

# Frozen from mpmath quadrature of the scaled kernel (dps=30):
# psi(mu=0, t=1, v=1, x=0) = e^{-8}/2 * e^{4} Theta(4, 1/4).
PSI_0_1_1_0 = 0.54938143689263459
# Conditional Laplace transform at (mu=0, t=1, v=1, log endpoint 0, lam=1).
COND_0_1_1_0_1 = 0.58677258519288161
# Tilt kernel at (gamma=1, mu=0, t=1, v=1, endpoint 1) = e^{1/2} * the value above.
H_1_0_1_1_1 = 0.96742444227120696


def exact_cond(lam, t, v, x):
    """The conditional Laplace transform at endpoint x (not its log) by
    conditional_laplace on exact Theta with no trust edge: the formula the
    engine runs, without its interpolant."""
    at = conditional_laplace(
        lam, t, v, lambda L: np.log(hartman_watson_theta_grid(np.exp(L), t / 4)), 0.0
    )
    return np.exp(at(x)[0])


def ks_stat(samples, cdf_vals):
    """Sup distance between the empirical CDF of sorted samples and the
    exact CDF evaluated at them."""
    n = len(samples)
    hi = np.arange(1, n + 1) / n - cdf_vals
    lo = cdf_vals - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def curve_cdf(curve, points):
    return np.interp(points, curve.abscissae, curve.cumulative())


def gl_mass(fn, breaks):
    """Composite 16-node Gauss-Legendre integral of fn over log-spaced
    panel breaks (fn takes the untransformed variable)."""
    u, w = _panels(np.asarray(breaks, dtype=float))
    z = np.exp(u)
    return float(np.sum(w * z * np.array([fn(zi) for zi in z])))


# --- DensityCurve ------------------------------------------------------------


def test_curve_validation():
    with pytest.raises(DomainError):
        DensityCurve(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        DensityCurve(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        DensityCurve(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        DensityCurve(np.array([1.0, 2.0]), np.array([1.0, -0.5]))
    with pytest.raises(DomainError):
        DensityCurve(np.array([1.0, 2.0]), np.array([1.0, math.nan]))


def test_curve_mass_and_cumulative():
    c = DensityCurve(np.array([1.0, 2.0, 4.0]), np.array([0.5, 1.0, 0.25]))
    assert c.total_mass == pytest.approx(0.75 + 1.25)
    cum = c.cumulative()
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(c.total_mass)
    assert np.all(np.diff(cum) >= 0.0)


def test_curve_csv_roundtrip():
    c = DensityCurve(
        np.array([0.5, 1.0, 2.0]),
        np.array([0.1, 0.4, 0.2]),
        kind="lognormal",
        params="mu=0 t=1",
    )
    buf = io.StringIO()
    write_density_csv(c, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].startswith("# kind=lognormal params=mu=0 t=1 mass=")
    assert lines[1] == "x,density"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    back = np.array([[float(a), float(b)] for a, b in rows])
    assert np.array_equal(back[:, 0], c.abscissae)
    assert np.array_equal(back[:, 1], c.values)


# --- lognormal baseline ------------------------------------------------------


def test_lognormal_standard_point():
    # density of e^{B_1} at 1: standard normal at 0, Jacobian 1
    assert lognormal_density(0.0, 1.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )


@pytest.mark.parametrize("mu,t", [(0.0, 1.0), (0.5, 2.0), (-1.0, 0.3)])
def test_lognormal_normalization(mu, t):
    sd = math.sqrt(t)
    breaks = np.linspace(mu * t - 9.0 * sd, mu * t + 9.0 * sd, 40)
    mass = gl_mass(lambda x: lognormal_density(mu, t, x), breaks)
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("mu,t", [(0.0, 1.0), (0.3, 0.5)])
def test_lognormal_mode(mu, t):
    mode = math.exp((mu - 1.0) * t)
    at = lognormal_density(mu, t, mode)
    for bump in (0.999, 1.001):
        assert lognormal_density(mu, t, mode * bump) < at


def test_lognormal_domain():
    with pytest.raises(DomainError):
        lognormal_density(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        lognormal_density(0.0, 1.0, -1.0)


# --- fixed-time density, coupled start ---------------------------------------


def test_exact_half_mass():
    curve = curve_exact_half(1.0, 1.0, n_points=400)
    assert curve.kind == "exact_half"
    assert abs(curve.total_mass - 1.0) < 1e-3


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_exact_half_default_curve_mass(t):
    # the default grid's trapezoid mass sits inside the suite's 1e-3 gate
    assert abs(curve_exact_half(1.0, t).total_mass - 1.0) < 1e-3


def test_exact_half_positive_and_small_t_refusal():
    assert density_exact_half(1.0, 1.0, 1.0) > 0.0
    with pytest.raises(DomainError):
        density_exact_half(1.0, 0.1, 1.0)  # below the Theta time cutoff


def test_exact_half_ks_vs_paths():
    # reduced-n version of the acceptance gate: 3e4 exact paths
    p = ModelParams.coupled_start(1.0)
    stats = simulate_terminal_batch(p, TimeGrid(1.0, 1000), 30_000, seed=101)
    samples = np.sort(stats.theta)
    curve = curve_exact_half(1.0, 1.0, n_points=600)
    ks = ks_stat(samples, curve_cdf(curve, samples))
    assert ks < 0.015  # 99% Kolmogorov band at n=3e4 is 0.0094


# --- exponential-time density ------------------------------------------------


def test_exp_time_frozen_values():
    assert density_exp_time(1.0, 1.0, 2.0) == pytest.approx(P_EXP_1_1_2, rel=1e-9)
    assert density_exp_time(1.0, 0.5, 0.5) == pytest.approx(
        P_EXP_1_HALF_HALF, rel=1e-9
    )


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_exp_time_mass(lam):
    x = 1.0
    lo, hi = math.log(1e-9), math.log(30.0)
    breaks = np.concatenate(
        [
            np.linspace(lo, math.log(x), 48),
            np.linspace(math.log(x), hi, 16)[1:],
        ]
    )
    mass = gl_mass(lambda z: density_exp_time(x, lam, z), breaks)
    assert abs(mass - 1.0) < 1e-6


@pytest.mark.parametrize(
    "x,lam",
    # the last three need an upper cut past the kink at z = x > 60
    [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (61.0, 20.0), (100.0, 20.0), (300.0, 1.0)],
)
def test_exp_time_total_mass(x, lam):
    assert abs(exp_time_total_mass(x, lam) - 1.0) < 1e-6


def test_exp_time_total_mass_domain():
    with pytest.raises(DomainError):
        exp_time_total_mass(0.0, 1.0)
    with pytest.raises(DomainError):
        exp_time_total_mass(1.0, 0.01)  # exponent nu - 1/2 too flat to truncate
    with pytest.raises(DomainError):
        exp_time_total_mass(1.0, 25.0)


def test_exp_time_mirror_identity():
    # prefactor-stripped symmetry: both sides reduce to the same Bessel
    # product, so the weighted mirror must agree to roundoff
    for x, z in [(0.5, 2.0), (1.0, 3.0), (0.7, 0.9)]:
        lhs = density_exp_time(x, 1.0, z) * math.exp(z - x) * math.sqrt(z**3 / x)
        rhs = density_exp_time(z, 1.0, x) * math.exp(x - z) * math.sqrt(x**3 / z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_exp_time_ks_vs_exp_sampled_paths():
    samples = simulate_exp_terminal(
        ModelParams.coupled_start(1.0), rate=1.0, dt=1e-3, n=20_000, seed=7
    )
    samples = np.sort(samples)
    curve = curve_exp_time(1.0, 1.0, n_points=800)
    ks = ks_stat(samples, curve_cdf(curve, samples))
    assert ks < 0.02  # 99% Kolmogorov band at n=2e4 is 0.0115


def test_exp_time_curve_kink_alignment():
    # grid must contain the slope kink where the Bessel arguments swap
    curve = curve_exp_time(1.5, 1.0)
    assert 1.5 in curve.abscissae


@pytest.mark.parametrize("x_start", [50.0, 1e-9])
def test_exp_time_curve_refuses_start_outside_grid(x_start):
    # the kink z = x_start must lie inside (z_lo, z_hi)
    with pytest.raises(DomainError, match="z_lo=1e-08 < x_start < z_hi=40"):
        curve_exp_time(x_start, 1.0)


# --- mixture consistency ------------------------------------------------------


@pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
def test_mixture_matches_closed_form(w):
    closed = density_exp_time(1.0, 1.0, w)
    value, bound = density_exp_time_mixture(1.0, 1.0, w)
    assert abs(value - closed) / closed < 1e-3
    assert abs(value - closed) <= bound + 1e-3 * closed  # bound honesty
    assert bound < closed


def test_mixture_rate_domain():
    with pytest.raises(DomainError):
        density_exp_time_mixture(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        density_exp_time_mixture(1.0, 20.0, 1.0)  # beyond the anchor range


# --- joint density of (a_t, B_t + mu t) --------------------------------------


def test_psi_frozen_value():
    psi = myor_psi_profile(0.0, 1.0, [1.0], 0.0)[0]
    assert psi == pytest.approx(PSI_0_1_1_0, rel=1e-6)


def test_psi_profile_matches_scalar():
    vs = np.array([0.3, 1.0, 2.5])
    prof = myor_psi_profile(0.2, 1.0, vs, 0.5)
    for v, p in zip(vs, prof):
        assert p == pytest.approx(myor_psi_profile(0.2, 1.0, [v], 0.5)[0], rel=1e-12)


def test_psi_double_normalization():
    xs = np.linspace(-6.0, 6.0, 121)
    vs = np.geomspace(1e-3, 80.0, 500)
    marg = np.array([np.trapezoid(myor_psi_profile(0.0, 1.0, vs, x), vs) for x in xs])
    mass = float(np.trapezoid(marg, xs))
    assert abs(mass - 1.0) < 5e-3


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
def test_psi_x_marginal_is_gaussian(x):
    vs = np.geomspace(1e-3, 120.0, 800)
    marg = float(np.trapezoid(myor_psi_profile(0.0, 1.0, vs, x), vs))
    target = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    assert abs(marg - target) / target < 5e-3


def test_psi_v_marginal_ks():
    # v-marginal CDF by quadrature of the profile over x, vs simulated a_t
    stats = simulate_terminal_batch(
        ModelParams(mu=0.0, beta=0.0, x0=1.0), TimeGrid(1.0, 1000), 100_000, seed=17
    )
    a = np.sort(stats.a)
    vs = np.geomspace(5e-3, 60.0, 900)
    xs = np.linspace(-7.0, 7.0, 141)
    dens = np.zeros_like(vs)
    for i, x in enumerate(xs):
        row = myor_psi_profile(0.0, 1.0, vs, x)
        dens += row * (xs[1] - xs[0]) * (0.5 if i in (0, len(xs) - 1) else 1.0)
    vcdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(vs))])
    ks = ks_stat(a, np.interp(a, vs, vcdf))
    assert ks < 1e-2


def test_psi_domain():
    with pytest.raises(DomainError):
        myor_psi_profile(0.0, 0.5, [1.0], 0.0)  # t below 4*t_min_theta
    with pytest.raises(DomainError):
        myor_psi_profile(0.0, 1.0, [-1.0], 0.0)


# --- conditional Laplace transform -------------------------------------------


def test_myor_eval_validation():
    with pytest.raises(DomainError):
        conditional_laplace(1.0, 0.0, [1.0], np.log, 0.0)
    with pytest.raises(DomainError):
        conditional_laplace(1.0, 1.0, [-1.0], np.log, 0.0)
    with pytest.raises(DomainError):
        conditional_laplace(0.0, 1.0, [1.0], np.log, 0.0)


def test_conditional_frozen_value():
    assert exact_cond(1.0, 1.0, [1.0], 1.0)[0] == pytest.approx(COND_0_1_1_0_1, rel=1e-6)


def test_conditional_small_rate_limit():
    assert abs(exact_cond(1e-4, 1.0, [1.0], 1.0)[0] - 1.0) < 1e-2


def test_conditional_monotone_and_bounded():
    vals = [exact_cond(lam, 1.0, [1.0], 1.0)[0] for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    for v, x in [(0.5, 0.0), (1.0, 0.5), (2.0, -0.5), (0.8, 1.0)]:
        c = exact_cond(1.0, 1.2, [v], math.exp(x))[0]
        assert 0.0 < c <= 1.0 + 1e-12


def test_conditional_vs_binned_mc():
    # brute-force oracle: bin paths near (a_1, B_1) = (1, 0) and average
    # exp(-A_1/2) -- the quantity the transform conditions on
    stats = simulate_terminal_batch(
        ModelParams(mu=0.0, beta=0.0, x0=1.0), TimeGrid(1.0, 250), 800_000, seed=23
    )
    sel = (np.abs(stats.a - 1.0) < 0.1) & (np.abs(stats.bmd) < 0.1)
    assert sel.sum() > 5_000
    binned = float(np.exp(-0.5 * stats.A[sel]).mean())
    assert abs(binned - COND_0_1_1_0_1) < 5e-2


# --- tilt kernel --------------------------------------------------------------


def test_h_kernel_composition():
    # tilt kernel e^{gamma (mu + 1/2) v} times the transform, gamma = v = 1, mu = 0
    h = math.exp(0.5) * exact_cond(1.0, 1.0, [1.0], 1.0)[0]
    assert h == pytest.approx(H_1_0_1_1_1, rel=1e-6)


def test_h_kernel_increasing_in_y_at_small_gamma():
    ys = np.array([0.5, 1.0, 1.5, 2.0])
    hs = np.exp(0.05 * 0.5 * ys) * exact_cond(0.05, 1.0, ys, 1.0)
    assert np.all(np.diff(hs) > 0.0)


def test_h_kernel_domain():
    with pytest.raises(DomainError):
        conditional_laplace(1.0, 1.0, [1.0], np.log, 0.0)(-2.0)


# --- general-drift density -----------------------------------------------------


def test_general_quad_matches_small_gamma_lognormal():
    for x in (0.5, 1.0, 2.0):
        q = density_general_quad(1e-8, 0.3, 1.0, x)
        assert q == pytest.approx(lognormal_density(0.3, 1.0, x), rel=1e-4)


def test_general_quad_normalization():
    xg = np.geomspace(1e-3, 30.0, 400)
    ys = np.array([density_general_quad(1.0, 0.0, 1.0, x) for x in xg])
    assert abs(float(np.trapezoid(ys, xg)) - 1.0) < 5e-3


def test_general_quad_resolution_stable():
    a = density_general_quad(1.0, 0.0, 1.0, 1.0, n=2000)
    b = density_general_quad(1.0, 0.0, 1.0, 1.0, n=8000)
    assert a == pytest.approx(b, rel=1e-4)


def test_general_mc_small_gamma_is_lognormal():
    est = density_general_mc(1e-8, 0.0, 1.0, 1.0, 5_000, seed=3)
    assert est.mean == pytest.approx(lognormal_density(0.0, 1.0, 1.0), rel=1e-6)


def test_general_mc_conditional_matches_quad():
    xg = np.array([0.5, 1.0, 2.0])
    curve, errs = curve_general_mc(1.0, 0.0, 1.0, xg, 30_000, seed=41)
    for x, v, e in zip(xg, curve.values, errs):
        q = density_general_quad(1.0, 0.0, 1.0, x)
        assert abs(v - q) < 4.0 * e


def _unconditional_mc(gamma, mu, t, x, n, seed):
    # negative control: the tilt kernel averaged over the draws without
    # conditioning them on the endpoint
    ((pref, h, _),) = _tilt_kernels(gamma, mu, t, np.array([x]), n, seed)
    return McEstimate(
        mean=pref * float(h.mean()), stderr=pref * float(h.std(ddof=1) / math.sqrt(n)), n=n
    )


def test_general_mc_unconditional_average_disagrees():
    # the kernel is a Laplace transform conditional on the endpoint, so
    # its plain average is a different quantity: 0.3122+-0.0010 against
    # 0.3522+-0.0017 here, with the substitution quadrature at 0.3541
    u = _unconditional_mc(1.0, 0.0, 1.0, 1.0, 20_000, seed=77)
    c = density_general_mc(1.0, 0.0, 1.0, 1.0, 20_000, seed=77)
    assert abs(u.mean - c.mean) > 5.0 * math.hypot(u.stderr, c.stderr)
    assert abs(u.mean - density_general_quad(1.0, 0.0, 1.0, 1.0)) > 5.0 * u.stderr


def test_general_mc_conditional_curve_mass():
    xg = np.geomspace(0.05, 8.0, 80)
    curve, _ = curve_general_mc(1.0, 0.0, 1.0, xg, 20_000, seed=77)
    assert abs(curve.total_mass - 1.0) < 2e-2


def test_general_mc_thread_count_invariance():
    a = density_general_mc(1.0, 0.0, 1.0, 1.0, 4_000, seed=9, threads=1)
    b = density_general_mc(1.0, 0.0, 1.0, 1.0, 4_000, seed=9, threads=3)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_general_mc_domain():
    with pytest.raises(DomainError):
        density_general_mc(0.0, 0.0, 1.0, 1.0, 100, seed=1)
    with pytest.raises(DomainError):
        density_general_mc(1.0, 0.0, 0.5, 1.0, 100, seed=1)  # t < 4*t_min_theta
    with pytest.raises(DomainError):
        density_general_mc(1.0, 0.0, 1.0, -1.0, 100, seed=1)


_NAN, _INF = math.nan, math.inf
_NON_FINITE = {
    "quad t=nan": lambda: density_general_quad(1.0, 0.0, _NAN, 1.0),
    "quad x=nan": lambda: density_general_quad(1.0, 0.0, 1.0, _NAN),
    "quad mu=nan": lambda: density_general_quad(1.0, _NAN, 1.0, 1.0),
    "quad gamma=inf": lambda: density_general_quad(_INF, 0.0, 1.0, 1.0),
    "exact_half w=nan": lambda: density_exact_half(1.0, 1.0, _NAN),
    "exact_half t=nan": lambda: density_exact_half(1.0, _NAN, 1.0),
    "exact_half w=inf": lambda: density_exact_half(1.0, 1.0, _INF),
    "exact_half x=inf": lambda: density_exact_half(_INF, 1.0, 1.0),
    "curve_exact_half t=nan": lambda: curve_exact_half(1.0, _NAN, n_points=10),
    "curve_exact_half x=-1": lambda: curve_exact_half(-1.0, 1.0, n_points=10),
    "curve_exact_half t=-1": lambda: curve_exact_half(1.0, -1.0, n_points=10),
    "curve_lognormal t=-1": lambda: curve_lognormal(0.0, -1.0),
    "general_mc x=nan": lambda: curve_general_mc(1.0, 0.0, 1.0, [0.5, _NAN], 100, seed=1),
    "general_mc x=inf": lambda: curve_general_mc(1.0, 0.0, 1.0, [0.5, _INF], 100, seed=1),
    "general_mc t=inf": lambda: density_general_mc(1.0, 0.0, _INF, 1.0, 100, seed=1),
    "general_mc gamma=nan": lambda: density_general_mc(_NAN, 0.0, 1.0, 1.0, 100, seed=1),
    "exp_time z=nan": lambda: density_exp_time(1.0, 1.0, _NAN),
    "exp_time lam=nan": lambda: density_exp_time(1.0, _NAN, 1.0),
    "lognormal t=nan": lambda: lognormal_density(0.0, _NAN, 1.0),
    "lognormal mu=nan": lambda: lognormal_density(_NAN, 1.0, 1.0),
    "curve_lognormal mu=nan": lambda: curve_lognormal(_NAN, 1.0),
    "moment t=nan": lambda: moment_exp_int_theta(ModelParams(mu=0.0, beta=1.0), _NAN),
    "moment t=inf": lambda: moment_exp_int_theta(ModelParams(mu=0.0, beta=1.0), _INF),
    "myor v=nan": lambda: conditional_laplace(1.0, 1.0, [1.0, _NAN], np.log, 0.0),
    "myor lam=nan": lambda: conditional_laplace(_NAN, 1.0, [1.0], np.log, 0.0),
    "psi t=nan": lambda: myor_psi_profile(0.0, _NAN, [1.0], 0.0),
    "psi v=nan": lambda: myor_psi_profile(0.0, 1.0, [1.0, _NAN], 0.0),
    "psi mu=nan": lambda: myor_psi_profile(_NAN, 1.0, [1.0], 0.0),
    "psi x=nan": lambda: myor_psi_profile(0.0, 1.0, [1.0], _NAN),
    "h_kernel x=nan": lambda: conditional_laplace(1.0, 1.0, [1.0], np.log, 0.0)(_NAN),
}


_NON_INTEGRAL = {
    "curve_general_mc n=nan": ("n", lambda: curve_general_mc(1.0, 0.0, 1.0, [1.0], _NAN, 1)),
    "curve_general_mc n=2.5": ("n", lambda: curve_general_mc(1.0, 0.0, 1.0, [1.0], 2.5, 1)),
    "general_mc threads=nan": (
        "threads", lambda: density_general_mc(1.0, 0.0, 1.0, 1.0, 10, 1, threads=_NAN)
    ),
    "curve_exact_half n_points=2.5": (
        "n_points", lambda: curve_exact_half(1.0, 1.0, n_points=2.5)
    ),
    "curve_exp_time n_points=nan": ("n_points", lambda: curve_exp_time(1.0, 1.0, n_points=_NAN)),
    "curve_lognormal n_points=nan": ("n_points", lambda: curve_lognormal(0.0, 1.0, n_points=_NAN)),
    "quad n=nan": ("n", lambda: density_general_quad(1.0, 0.0, 1.0, 1.0, n=_NAN)),
}
_REFUSALS = {
    **{key: ("must be finite", call) for key, call in _NON_FINITE.items()},
    **{key: (f"^{arg} must be an integer", call) for key, (arg, call) in _NON_INTEGRAL.items()},
    # the Bessel K factor of the density overflows at the quadrature's z -> 0 end
    "exp_time_total_mass x=1e-300": (
        r"bessel_k\(nu=1.5, x=", lambda: exp_time_total_mass(1e-300, 1.0)
    ),
}


@pytest.mark.parametrize("pattern, call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_non_finite_inputs_refused(pattern, call):
    # NaN passes every `x <= 0` guard; each input must be refused by name,
    # not turned into 0, NaN, a Python ValueError or TypeError, or a later
    # complaint
    with pytest.raises(DomainError, match=pattern):
        call()


@pytest.mark.parametrize("table", ["theta", "jagged"])
def test_theta_log_interp_equals_np_interp(table, monkeypatch):
    # the smooth Theta table hides a lookup in the neighbouring panel, or a
    # missing end clamp, below the last bit; a jagged table shows both
    r_lo, r_hi, tau, n = 0.02, 300.0, 0.25, 2000
    grid = np.geomspace(r_lo, r_hi, n)
    if table == "theta":
        vals, _ = hartman_watson_theta_grid(grid, tau, with_floor=True)
    else:
        vals = np.exp(3.0 * np.random.default_rng(0).standard_normal(n))
        monkeypatch.setattr("verhulst.density.hartman_watson_theta_grid",
                            lambda *_, **__: (vals, np.ones(n, dtype=bool)))
    interp, _ = _theta_log_interp(r_lo, r_hi, tau, n)
    lg = np.log(grid)
    logs = np.log(np.maximum(vals, 1e-300))
    rng = np.random.default_rng(4)
    L = np.concatenate([
        rng.uniform(np.log(r_lo), np.log(r_hi), 100_000),
        # every node, its neighbours on both sides, and both ends
        lg, np.nextafter(lg, -np.inf), np.nextafter(lg, np.inf),
        # outside the table
        [np.log(r_lo) - 1.0, np.log(r_hi) + 1.0, -745.0, 710.0, -np.inf, np.inf],
    ])
    got, ref = interp(L), np.interp(L, lg, logs)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.isnan(interp(np.array([np.nan]))).all()


# --- moment identity -----------------------------------------------------------


def test_moment_values():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    assert moment_exp_int_theta(p, 0.0) == 1.0
    assert moment_exp_int_theta(p, 1.0) == pytest.approx(
        1.0 + 2.0 * (math.exp(0.5) - 1.0), rel=1e-15
    )
    with pytest.raises(DomainError):
        moment_exp_int_theta(p, -1.0)


def test_moment_coupled_drift_limit():
    target = moment_exp_int_theta(ModelParams(mu=-0.5, beta=1.0, x0=1.0), 1.0)
    assert target == 2.0  # 1 + beta t
    for eps in (1e-6, -1e-6):
        near = moment_exp_int_theta(ModelParams(mu=-0.5 + eps, beta=1.0, x0=1.0), 1.0)
        assert abs(near - target) < 1e-5


def test_moment_mc_crosscheck():
    p = ModelParams(mu=0.0, beta=1.0, x0=1.0)
    stats = simulate_terminal_batch(p, TimeGrid(1.0, 1000), 20_000, seed=31)
    vals = np.exp(p.beta * stats.int_theta)
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(est - moment_exp_int_theta(p, 1.0)) < 3.0 * se
