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

from verhulst import density, specfun
from verhulst.density import (
    GENERAL_MC_STEPS,
    DensityCurve,
    _theta_log_interp,
    _tilt_kernel,
    conditional_laplace,
    curve_exact_half,
    curve_exp_time,
    curve_general_mc,
    curve_lognormal,
    density_exact_half,
    density_exp_time,
    density_exp_time_mixture,
    density_general_quad,
    exp_time_total_mass,
    lognormal_density,
    moment_exp_int_theta,
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

# Frozen from mpmath at dps=40: the K_1 form of the drift -1/2 density,
# e^{-t/8} e^{x-w} sqrt(x/w^3) 2xw e^{pi^2/(2t)}/sqrt(2 pi^3 t) integral_0^inf
# e^{-z^2/(2t)} sinh z sin(pi z/t) K_1(rho)/rho dz, rho^2 = x^2 + w^2 + 2xw
# cosh z, split at the zeros of the sine, and again with each half-period
# split in four (the two agree to 20 digits).  At (1, 1, 1) and (3, 2, 1.5) the
# double integral of the kernel e^{-z/2 - (x^2+w^2)/(2z)} times mpmath's
# Theta(xw/z, t) over dz/z, which does not use the K_1 identity, agrees
# to 15 digits (dps=20): 0.189894968698255 and 0.0227910200557556.
EXACT_HALF_PINS = [  # (x, t, w, density)
    (1.0, 1.0, 1.0, 0.1898949686982546863),
    (1.0, 1.0, 0.3, 1.6342472133546384317),
    (1.0, 1.0, 3.0, 0.00079191428285108523996),
    (1.0, 0.25, 1.0, 0.67559703749166349636),
    (1.0, 0.25, 0.6, 1.3533552154787261691),
    (1.0, 0.2, 1.0, 0.78211678840527939562),
    (1.0, 0.2, 0.5, 1.152283342313479742),
    (1.0, 4.0, 0.2, 0.8591225132590166463),
    (1.0, 4.0, 3.0, 0.000043051346082930612286),
    (0.3, 0.5, 0.2, 2.9883138972344588701),
    (3.0, 2.0, 1.5, 0.022791020055755565284),
    # starts past the old fixed log-z window, which returned 0 here; the
    # reference integrates e^{x+w} K_1(rho), as mpmath's error control is
    # absolute and K_1 alone is e^{-200} small (dps=30)
    (60.0, 1.0, 0.5, 1.036302939232306588128),
    (200.0, 1.0, 0.8, 0.8143202027063999671638),
]
# Left-tail points at small t, where the zeta sum cancels below its
# rounding floor and the value returned is that rounding: the same K_1 form
# at dps=100 on Gauss-Legendre 40 a half period (dps=130 and 56 nodes agree
# to 45 digits; the first table row reads 0.18989496869825468630).
EXACT_HALF_TAIL_PINS = [  # (x, t, w, density)
    (1.0, 0.25, 0.02, 3.650372043750611725884652196978774872706e-11),
    (16.228, 0.2908, 0.02898, 4.074262497155708660502917687811600832496e-22),
]
# Relative tolerance per t, applied as stated.  Below t = 0.5 rounding
# amplified by e^{pi^2/(2t)} sets the error: at most 3.3e-8 at t = 0.2 and
# 1.0e-10 at 0.25, against a floor (8 eps times the absolute zeta sum) of
# 2.3e-6 and 1e-8.  The Theta-window route missed by 1.6e-6, 6e-8, 3.2e-11
# and 2.6e-12 at t = 0.2, 0.25, 0.5 and from 1 on.
EXACT_HALF_REL_TOL = {0.2: 2e-7, 0.25: 1e-9, 0.5: 1e-12, 1.0: 1e-14, 2.0: 1e-14, 4.0: 1e-14}

# Frozen from mpmath at dps=40: the zeta-v double integral of the
# general-drift density at gamma = 1, tau = t/4, q^2 = x (1 + v),
# e^{-mu^2 t/2} e^{pi^2/(2 tau)}/(x sqrt(2 pi^3 tau)) integral_0^inf
# e^{-z^2/(2 tau)} sinh z sin(pi z/tau) [G(z) - G(0)] dz, with G(z) - G(0) =
# integral_0^inf 2 q^{2mu+1} v^{-2} e^{-2(1+q)^2/v} expm1(-(4q/v)(cosh z - 1)) dv:
# z split at the zeros of the sine out to an envelope of 1e-56, ln v on
# panels of width 2 up to 40, Gauss-Legendre 24 on every panel.  Halving both
# panel widths agrees to 21 digits at (t, mu, x) = (0.8, 0.9, 0.01); 48 nodes
# a panel with v taken to e^{50} agree to 29 at (4, -0.5, 20).  At (1, 0, 1)
# and (0.8, 0.3, 0.1) the double integral of Yor's joint law psi(v, ln x +
# ln(1 + v))/x over v, with mpmath's Theta(4q/v, t/4) from its defining
# integral split at the sine's zeros, agrees to 22 and 19 digits (dps=40):
# 0.3541294290772711690183182 and 0.2264794840371005329199806.
GENERAL_QUAD_PINS = [  # (t, mu, x, density)
    (0.8, -0.5, 0.01, 0.001810449849344602704),
    (0.8, -0.5, 0.1, 1.0284804242833853785),
    (0.8, -0.5, 1, 0.2486054862432419646),
    (0.8, -0.5, 8, 8.6580102701422625531e-9),
    (0.8, -0.5, 20, 5.599356756930695796e-20),
    (0.8, 0, 0.01, 2.1900179001531249208e-4),
    (0.8, 0, 0.1, 0.42392839799265933344),
    (0.8, 0, 1, 0.41176803317362084196),
    (0.8, 0, 8, 7.410228254274668073e-8),
    (0.8, 0, 20, 1.1197093387435373348e-18),
    (0.8, 0.3, 0.01, 5.603313228609144012e-5),
    (0.8, 0.3, 0.1, 0.22647948403710053289),
    (0.8, 0.3, 1, 0.50882079095559771322),
    (0.8, 0.3, 8, 2.4802109186456375063e-7),
    (0.8, 0.3, 20, 6.2597473655574499168e-18),
    (0.8, 0.9, 0.01, 2.9569520153816728667e-6),
    (0.8, 0.9, 0.1, 0.052186706248123617735),
    (0.8, 0.9, 1, 0.63348568762130911828),
    (0.8, 0.9, 8, 2.3270417146595779783e-6),
    (0.8, 0.9, 20, 1.6530267324257353496e-16),
    (1, -0.5, 0.01, 0.022050384816993806539),
    (1, -0.5, 0.1, 1.6855086291136769223),
    (1, -0.5, 1, 0.1898949686982546863),
    (1, -0.5, 8, 6.6058156645367938085e-9),
    (1, -0.5, 20, 4.4128643975330378334e-20),
    (1, 0, 0.01, 0.0028009512404591102976),
    (1, 0, 0.1, 0.74383465425510476111),
    (1, 0, 1, 0.35412942907727116902),
    (1, 0, 8, 6.7317354026582754955e-8),
    (1, 0, 20, 1.0623528837407914677e-18),
    (1, 0.3, 0.01, 7.2062976688188365145e-4),
    (1, 0.3, 0.1, 0.40452906823176207783),
    (1, 0.3, 1, 0.46047486003305680372),
    (1, 0.3, 8, 2.4595955015529101809e-7),
    (1, 0.3, 20, 6.5280326995125532717e-18),
    (1, 0.9, 0.01, 3.6450374643154818888e-5),
    (1, 0.9, 0.1, 0.091707784217622013887),
    (1, 0.9, 1, 0.60739538291262154749),
    (1, 0.9, 8, 2.652376645513760795e-6),
    (1, 0.9, 20, 2.0096286401565649446e-16),
    (2, -0.5, 0.01, 2.5323194373666248755),
    (2, -0.5, 0.1, 3.2817367835116492245),
    (2, -0.5, 1, 0.065234345816144990468),
    (2, -0.5, 8, 1.6630941810667091172e-9),
    (2, -0.5, 20, 1.0898988375036948519e-20),
    (2, 0, 0.01, 0.41299445593205380855),
    (2, 0, 0.1, 2.0343027580725698557),
    (2, 0, 1, 0.20267300652010108291),
    (2, 0, 8, 3.2082152496403781327e-8),
    (2, 0, 20, 5.0769336944931353e-19),
    (2, 0.3, 0.01, 0.10987237902949081022),
    (2, 0.3, 0.1, 1.2168224535285987596),
    (2, 0.3, 1, 0.32714658704287202242),
    (2, 0.3, 8, 1.5855791512088352375e-7),
    (2, 0.3, 20, 4.27757671014599094e-18),
    (2, 0.9, 0.01, 0.0045775361989068829106),
    (2, 0.9, 0.1, 0.26291015288510448247),
    (2, 0.9, 1, 0.55290839663301255774),
    (2, 0.9, 8, 2.6565260921825703148e-6),
    (2, 0.9, 20, 2.1025726775871011399e-16),
    (4, -0.5, 0.01, 15.858717086402955826),
    (4, -0.5, 0.1, 2.3619466333477007881),
    (4, -0.5, 1, 0.016203508818391109604),
    (4, -0.5, 8, 3.0643554542684022265e-10),
    (4, -0.5, 20, 1.9348840852124088996e-21),
    (4, 0, 0.01, 4.2545477817684170541),
    (4, 0, 0.1, 2.6959295309969179223),
    (4, 0, 1, 0.10647683167819795776),
    (4, 0, 8, 1.346592971090282138e-8),
    (4, 0, 20, 2.0774187934176547935e-19),
    (4, 0.3, 0.01, 1.2303960636926798369),
    (4, 0.3, 0.1, 1.9255910758563357348),
    (4, 0.3, 1, 0.22946318617526443981),
    (4, 0.3, 8, 9.3539668245829942962e-8),
    (4, 0.3, 20, 2.4780299966453903953e-18),
    (4, 0.9, 0.01, 0.038337643836342636976),
    (4, 0.9, 0.1, 0.41259183174524018869),
    (4, 0.9, 1, 0.52047519334372160009),
    (4, 0.9, 8, 2.3486590597123699499e-6),
    (4, 0.9, 20, 1.8502341459425842745e-16),
]

# Conditional Laplace transform at (mu=0, t=1, v=1, log endpoint 0, lam=1).
COND_0_1_1_0_1 = 0.58677258519288161
# Tilt kernel at (gamma=1, mu=0, t=1, v=1, endpoint 1) = e^{1/2} * the value above.
H_1_0_1_1_1 = 0.96742444227120696


def exact_cond(lam, t, v, x):
    """The conditional Laplace transform at endpoint x (not its log) by
    conditional_laplace on exact Theta with no trust edge: the formula the
    engine runs, without its interpolant."""
    return np.exp(conditional_laplace(
        lam, t, v, x, lambda L: np.log(hartman_watson_theta_grid(np.exp(L), t / 4)[0]), 0.0
    ))


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


@pytest.mark.parametrize("x,t,w,ref", EXACT_HALF_PINS)
def test_exact_half_mpmath_pins(x, t, w, ref):
    assert abs(density_exact_half(x, t, w) / ref - 1.0) <= EXACT_HALF_REL_TOL[t]


@pytest.mark.parametrize("x,t,w,ref", EXACT_HALF_PINS + EXACT_HALF_TAIL_PINS)
def test_exact_half_relative_floor_bounds_miss(x, t, w, ref):
    # no slack: the worst miss at EXACT_HALF_PINS is 0.2 of the floor; a
    # value clamped to 0 knows no digit, and its floor is infinite
    value, rel_floor = density._exact_half(x, t, w)
    assert value == density_exact_half(x, t, w)
    if value == 0.0:
        assert rel_floor == math.inf
    else:
        assert abs(value - ref) <= rel_floor * value


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_exact_half_curve_reports_largest_floor(t):
    # the default curve's far left tail is rounding at t = 0.25 and at t = 1
    curve = curve_exact_half(1.0, t, n_points=60)
    floors = np.array([density._exact_half(1.0, t, w)[1] for w in curve.abscissae])
    k = int(np.argmax(floors))
    assert floors[k] > 1.0 and k < 10
    assert curve.params == f"x=1 t={t:g} floor_max={floors[k]:.3g}@w={curve.abscissae[k]:.4g}"


LARGE_STARTS = [(20.0, 1.0), (30.0, 1.0), (60.0, 1.0), (200.0, 1.0),
                (200.0, 0.25), (1000.0, 0.5), (1e4, 0.2)]


@pytest.mark.parametrize(
    "x,t", LARGE_STARTS, ids=[f"{x}" if t == 1.0 else f"{x}-{t}" for x, t in LARGE_STARTS]
)
def test_exact_half_mass_at_large_start(x, t):
    # a fixed log-z window [log(q/58), log 58] missed the kernel's peak at
    # z = x + w: mass 1.0001 at x = 20, 0.9995 at 30, 0.97 at 40, 0 from 58;
    # a grid centred on ln x - t/2 missed theta_t ~ x/(1 + x t): mass 0.65
    # at (200, 0.25), 0.13 at (1000, 0.5)
    assert abs(curve_exact_half(x, t).total_mass - 1.0) < 1e-3


def test_exact_half_calls_no_theta(monkeypatch):
    # one zeta integral: no Theta node set and no log-z panels per point
    def refuse(*args, **kwargs):
        raise AssertionError("density_exact_half evaluated Theta or log panels")

    monkeypatch.setattr(density, "hartman_watson_theta_grid", refuse)
    monkeypatch.setattr(specfun, "hartman_watson_theta_grid", refuse)
    monkeypatch.setattr(specfun, "log_panels", refuse)
    assert density_exact_half(1.0, 1.0, 1.0) > 0.0


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


def test_mixture_bound_is_honest():
    # no slack: the bound covers the miss across the support, both where
    # the completion is the bracket and where the missing head is within
    # noise and bounds itself (w <= 0.1)
    for w in [0.1, *np.geomspace(0.05, 8.0, 12)]:
        closed = density_exp_time(1.0, 1.0, w)
        value, bound = density_exp_time_mixture(1.0, 1.0, w)
        assert abs(value - closed) <= bound, w


def test_mixture_anchor_noise():
    # the noise the mixture adds to its bound covers the anchors' own
    # quadrature error: halving the log-t panels (2 against 4 per unit)
    # moves the quadrature at every anchor rate by at most noise/5 across
    # the honesty grid, and at w = 0.1, where the missing head is within
    # noise and no completion is added, the value holds to 1e-9
    rates = np.array(density._MIX_ANCHOR_RATES)
    t_hi = 45.0 / (rates[0] + 0.125)
    for w in [0.1, *np.geomspace(0.05, 8.0, 12)]:
        noise = density._MIX_ANCHOR_NOISE * density_exp_time(1.0, rates[0], w) / rates[0]
        qs = []
        for per_unit in (2.0, 4.0):
            t, wts = specfun.log_panels(math.log(specfun.T_MIN_THETA), math.log(t_hi), per_unit, 2)
            f = np.array([density_exact_half(1.0, ti, w) for ti in t])
            qs.append(np.array([np.dot(wts * t * np.exp(-rate * t), f) for rate in rates]))
        assert np.max(np.abs(qs[0] - qs[1])) <= 0.2 * noise, w
    closed = density_exp_time(1.0, 1.0, 0.1)
    value, _ = density_exp_time_mixture(1.0, 1.0, 0.1)
    assert abs(value - closed) <= 1e-9 * closed


def test_mixture_rate_domain():
    with pytest.raises(DomainError):
        density_exp_time_mixture(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        density_exp_time_mixture(1.0, 20.0, 1.0)  # beyond the anchor range


# --- conditional Laplace transform -------------------------------------------


def test_myor_eval_validation():
    with pytest.raises(DomainError):
        conditional_laplace(1.0, 0.0, [1.0], 1.0, np.log, 0.0)
    with pytest.raises(DomainError):
        conditional_laplace(1.0, 1.0, [-1.0], 1.0, np.log, 0.0)
    with pytest.raises(DomainError):
        conditional_laplace(0.0, 1.0, [1.0], 1.0, np.log, 0.0)


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
        conditional_laplace(1.0, 1.0, [1.0], -2.0, np.log, 0.0)


# --- general-drift density -----------------------------------------------------


def test_general_quad_matches_small_gamma_lognormal():
    for x in (0.5, 1.0, 2.0):
        q = density_general_quad(1e-8, 0.3, 1.0, x)
        assert q == pytest.approx(lognormal_density(0.3, 1.0, x), rel=1e-7)


def test_general_quad_normalization():
    xg = np.geomspace(1e-3, 30.0, 400)
    ys = np.array([density_general_quad(1.0, 0.0, 1.0, x) for x in xg])
    assert abs(float(np.trapezoid(ys, xg)) - 1.0) < 5e-3


@pytest.mark.parametrize(
    "t,mu,x,ref", GENERAL_QUAD_PINS,
    ids=[f"t={t:g},mu={mu:g},x={x:g}" for t, mu, x, _ in GENERAL_QUAD_PINS],
)
def test_general_quad_mpmath_pins(t, mu, x, ref):
    # no slack: the bound covers the miss at every pin, and from t = 1 on
    # it is within 1e-7 relative on x in [0.1, 8]
    value, bound = specfun.theta_yor_integral(x, 1.0, mu, t / 4)
    scale = math.exp(-0.5 * mu * mu * t) / x
    assert density_general_quad(1.0, mu, t, x) == scale * value
    assert abs(scale * value - ref) <= scale * bound
    if t >= 1.0 and 0.1 <= x <= 8.0:
        assert bound <= 1e-7 * value


def test_general_quad_calls_no_theta(monkeypatch):
    # one zeta integral: no Theta node set per point
    def refuse(*args, **kwargs):
        raise AssertionError("density_general_quad evaluated Theta")

    monkeypatch.setattr(density, "hartman_watson_theta_grid", refuse)
    monkeypatch.setattr(specfun, "hartman_watson_theta_grid", refuse)
    assert density_general_quad(1.0, 0.0, 1.0, 1.0) > 0.0


def test_general_quad_refuses_mu_from_one():
    # the degree-1 coefficient of the v integral diverges from mu = 1 on
    assert density_general_quad(1.0, 0.99, 1.0, 1.0) > 0.0
    for mu in (1.0, 1.5):
        with pytest.raises(DomainError, match="mu must be finite and < 1"):
            density_general_quad(1.0, mu, 1.0, 1.0)


def test_general_mc_small_gamma_is_lognormal():
    curve, _ = curve_general_mc(1e-8, 0.0, 1.0, [1.0, 2.0], 5_000, seed=3)
    assert curve.values[0] == pytest.approx(lognormal_density(0.0, 1.0, 1.0), rel=1e-6)


def test_general_mc_conditional_matches_quad():
    xg = np.array([0.5, 1.0, 2.0])
    curve, errs = curve_general_mc(1.0, 0.0, 1.0, xg, 30_000, seed=41)
    for x, v, e in zip(xg, curve.values, errs):
        q = density_general_quad(1.0, 0.0, 1.0, x)
        assert abs(v - q) < 4.0 * e


def _unconditional_mc(gamma, mu, t, x, n, seed):
    """Negative control: the tilt kernel averaged over unconditional
    drift-mu paths (GENERAL_MC_STEPS steps) instead of paths given the
    endpoint x."""
    stats = simulate_terminal_batch(
        ModelParams(mu=mu, beta=0.0, x0=1.0), TimeGrid(t, GENERAL_MC_STEPS), n, seed
    )
    h = stats.a[:, None].copy()
    _tilt_kernel(gamma, mu, t, np.array([x]), h)
    pref = lognormal_density(mu, t, x) * math.exp(-gamma * (x - 1.0))
    return McEstimate.from_samples(pref * h[:, 0])


def test_general_mc_unconditional_average_disagrees():
    # the kernel is a Laplace transform conditional on the endpoint, so
    # its plain average is a different quantity: 0.3125+-0.0010 against
    # 0.3546+-0.0006 here, with the substitution quadrature at 0.3541
    u = _unconditional_mc(1.0, 0.0, 1.0, 1.0, 20_000, seed=77)
    curve, errs = curve_general_mc(1.0, 0.0, 1.0, [1.0, 2.0], 20_000, seed=77)
    assert abs(u.mean - curve.values[0]) > 5.0 * math.hypot(u.stderr, errs[0])
    assert abs(u.mean - density_general_quad(1.0, 0.0, 1.0, 1.0)) > 5.0 * u.stderr


def test_general_mc_conditional_curve_mass():
    xg = np.geomspace(0.05, 8.0, 80)
    curve, _ = curve_general_mc(1.0, 0.0, 1.0, xg, 20_000, seed=77)
    assert abs(curve.total_mass - 1.0) < 2e-2


def test_general_mc_thread_count_invariance():
    # four blocks, the last one ragged, combine in block order
    xg = np.geomspace(0.05, 8.0, 12)
    n = 3 * 4096 + 17
    (a, ea), (b, eb) = (
        curve_general_mc(1.0, 0.0, 1.0, xg, n, seed=9, threads=th) for th in (1, 3)
    )
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(ea, eb)
    assert a.params == b.params


def test_general_mc_domain():
    with pytest.raises(DomainError):
        curve_general_mc(0.0, 0.0, 1.0, [1.0, 2.0], 100, seed=1)
    with pytest.raises(DomainError):
        curve_general_mc(1.0, 0.0, 0.5, [1.0, 2.0], 100, seed=1)  # t < 4*t_min_theta
    with pytest.raises(DomainError):
        curve_general_mc(1.0, 0.0, 1.0, [-1.0, 1.0], 100, seed=1)


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
    "general_mc t=inf": lambda: curve_general_mc(1.0, 0.0, _INF, [1.0, 2.0], 100, seed=1),
    "general_mc gamma=nan": lambda: curve_general_mc(_NAN, 0.0, 1.0, [1.0, 2.0], 100, seed=1),
    "exp_time z=nan": lambda: density_exp_time(1.0, 1.0, _NAN),
    "exp_time lam=nan": lambda: density_exp_time(1.0, _NAN, 1.0),
    "lognormal t=nan": lambda: lognormal_density(0.0, _NAN, 1.0),
    "lognormal mu=nan": lambda: lognormal_density(_NAN, 1.0, 1.0),
    "curve_lognormal mu=nan": lambda: curve_lognormal(_NAN, 1.0),
    "moment t=nan": lambda: moment_exp_int_theta(ModelParams(mu=0.0, beta=1.0), _NAN),
    "moment t=inf": lambda: moment_exp_int_theta(ModelParams(mu=0.0, beta=1.0), _INF),
    "myor v=nan": lambda: conditional_laplace(1.0, 1.0, [1.0, _NAN], 1.0, np.log, 0.0),
    "myor lam=nan": lambda: conditional_laplace(_NAN, 1.0, [1.0], 1.0, np.log, 0.0),
    "h_kernel x=nan": lambda: conditional_laplace(1.0, 1.0, [1.0], _NAN, np.log, 0.0),
}


_NON_INTEGRAL = {
    "curve_general_mc n=nan": ("n", lambda: curve_general_mc(1.0, 0.0, 1.0, [1.0], _NAN, 1)),
    "curve_general_mc n=2.5": ("n", lambda: curve_general_mc(1.0, 0.0, 1.0, [1.0], 2.5, 1)),
    "general_mc threads=nan": (
        "threads", lambda: curve_general_mc(1.0, 0.0, 1.0, [1.0, 2.0], 10, 1, threads=_NAN)
    ),
    "curve_exact_half n_points=2.5": (
        "n_points", lambda: curve_exact_half(1.0, 1.0, n_points=2.5)
    ),
    "curve_exp_time n_points=nan": ("n_points", lambda: curve_exp_time(1.0, 1.0, n_points=_NAN)),
    "curve_lognormal n_points=nan": ("n_points", lambda: curve_lognormal(0.0, 1.0, n_points=_NAN)),
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
        vals, _ = hartman_watson_theta_grid(grid, tau)
    else:
        vals = np.exp(3.0 * np.random.default_rng(0).standard_normal(n))
        monkeypatch.setattr("verhulst.density.hartman_watson_theta_grid",
                            lambda *_, **__: (vals, np.zeros(n)))
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
