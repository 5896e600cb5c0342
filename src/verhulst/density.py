"""One-dimensional distributions of the Verhulst process.

Closed forms for the fixed-time density (theta integral over a log axis),
the independent-exponential-time density (Bessel product), the joint law of
(integrated GBM, terminal log) behind them, and the conditional Laplace
transform that turns the drift-free density into the general-drift one via
a Monte Carlo average.  Everything that involves Theta(r, t) is evaluated
on the e^{r} scale so exponentials stay in range across the whole support.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, require_count, require_finite, require_nonnegative, require_positive
)
from .simulate import McEstimate, ModelParams, TimeGrid, simulate_terminal_batch
from .specfun import (
    ABS_TOL,
    T_MIN_THETA,
    BesselOrder,
    anchor_completion,
    bessel_product_F,
    hartman_watson_theta_grid,
    log_panel_integral,
    log_panels,
)


@dataclass
class DensityCurve:
    """A density sampled on a strictly increasing positive grid.

    total_mass is the trapezoid integral over the grid; for a curve meant
    to cover the whole support it should sit within the advertised
    tolerance of 1.
    """

    abscissae: np.ndarray
    values: np.ndarray
    kind: str = ""
    params: str = ""
    total_mass: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.abscissae, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise DomainError("curve needs matching 1-d grids of length >= 2")
        if x[0] <= 0 or np.any(np.diff(x) <= 0):
            raise DomainError("abscissae must be positive and strictly increasing")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise DomainError("density values must be finite and nonnegative")
        self.abscissae = x
        self.values = y
        self.total_mass = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))

    def cumulative(self):
        """Running trapezoid integral; starts at 0, ends at total_mass."""
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.abscissae)
        return np.concatenate(([0.0], np.cumsum(seg)))


def write_density_csv(curve, fh):
    """CSV with a comment header carrying kind, parameters and mass."""
    fh.write(f"# kind={curve.kind} params={curve.params} mass={curve.total_mass:.12g}\n")
    fh.write("x,density\n")
    for a, v in zip(curve.abscissae, curve.values):
        fh.write(f"{a:.17g},{v:.17g}\n")


def _require_t(t, t_min):
    if not (math.isfinite(t) and t >= t_min):
        raise DomainError(f"t must be finite and >= {t_min:g}")


def lognormal_density(mu, t, x):
    """Density of exp(B_t + mu t) at x."""
    require_finite("mu", mu)
    require_positive("t", t)
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError("lognormal_density needs x > 0")
    out = np.exp(-((np.log(x) - mu * t) ** 2) / (2.0 * t)) / (
        x * math.sqrt(2.0 * math.pi * t)
    )
    return float(out) if out.ndim == 0 else out


def density_exact_half(x_start, t, w):
    """Fixed-time density at w for the drift -1/2, beta = x0 = x_start process.

    The kernel is exp(-z/2 - (x+w)^2/(2z)) times the e^{r}-scaled Theta at
    r = xw/z, integrated over log z; grouping the Gaussian factor with
    Theta's own e^{-r} is what keeps both factors in range.  The log axis
    is truncated where the kernel drops below ABS_TOL relative to its peak
    and covered by composite Gauss-Legendre panels.  Needs t >= T_MIN_THETA.
    """
    x = float(x_start)
    w = float(w)
    _require_t(t, T_MIN_THETA)
    require_positive("x_start", x)
    require_positive("w", w)
    cut = -math.log(ABS_TOL) + 6.0
    q = (x + w) ** 2
    u_lo = math.log(q / (2.0 * cut))
    u_hi = math.log(2.0 * cut)
    if u_lo >= u_hi:  # kernel never rises above the cut: density underflows
        return 0.0
    z, gw = log_panels(u_lo, u_hi, 2.0, 2)
    kern = np.exp(-0.5 * z - 0.5 * q / z) * hartman_watson_theta_grid(x * w / z, t)
    total = float(np.dot(gw, kern))
    if total <= 0.0:
        return 0.0
    log_pref = -0.125 * t + x - w + 0.5 * (math.log(x) - 3.0 * math.log(w))
    return math.exp(log_pref + math.log(total))


def curve_exact_half(x_start, t, n_points=600):
    """Fixed-time density curve on a log grid sized from the lognormal
    envelope exp(ln x0 - t/2 +- 8 sqrt(t))."""
    require_positive("x_start", x_start)
    _require_t(t, T_MIN_THETA)
    require_count("n_points", n_points, 2)
    center = math.log(x_start) - 0.5 * t
    grid = np.exp(np.linspace(center - 8.0 * math.sqrt(t), center + 8.0 * math.sqrt(t), n_points))
    vals = np.array([density_exact_half(x_start, t, w) for w in grid])
    return DensityCurve(grid, vals, kind="exact_half", params=f"x={x_start:g} t={t:g}")


def density_exp_time(x_start, lam, z):
    """Density at z of the process started at x_start, stopped at an
    independent exponential time of rate lam.

    2 lam e^{x-z} sqrt(x/z^3) I_nu(min) K_nu(max), nu = sqrt(2 lam + 1/4).
    """
    x = float(x_start)
    z = float(z)
    require_positive("x_start", x)
    require_positive("z", z)
    order = BesselOrder.from_rate(lam)
    f = bessel_product_F(order, x, z)
    if f <= 0.0:
        return 0.0
    log_pref = math.log(2.0 * lam) + x - z + 0.5 * (math.log(x) - 3.0 * math.log(z))
    return math.exp(log_pref + math.log(f))


def curve_exp_time(x_start, lam, n_points=600):
    """Exponential-time density curve on [1e-8, 40], log-spaced on each
    side of x_start."""
    require_count("n_points", n_points, 2)
    z_lo, z_hi = 1e-8, 40.0
    # z = x_start is a grid point: the density has a slope kink there
    # (I/K swap arguments), and trapezoid panels must not straddle it
    if not z_lo < x_start < z_hi:
        raise DomainError(f"curve_exp_time needs z_lo={z_lo:g} < x_start < z_hi={z_hi:g}")
    n_lo = max(2, int(round(n_points * math.log(x_start / z_lo)
                            / math.log(z_hi / z_lo))))
    grid = np.concatenate(
        (np.geomspace(z_lo, x_start, n_lo),
         np.geomspace(x_start, z_hi, n_points - n_lo + 1)[1:])
    )
    vals = np.array([density_exp_time(x_start, lam, z) for z in grid])
    return DensityCurve(
        grid, vals, kind="exp_time", params=f"x={x_start:g} lam={lam:g}"
    )


def exp_time_total_mass(x_start, lam):
    """Normalization integral of density_exp_time by log-panel quadrature,
    split at the z = x_start kink; equals 1 to quadrature accuracy.

    The z -> 0 endpoint behaves like z^{nu - 3/2}, so the truncation point
    is set from the exponent nu - 1/2; rates below 0.05 push that exponent
    toward 0 and the truncated head out of reach (DomainError, same floor
    as the mixture's anchor design).
    """
    x = float(x_start)
    require_positive("x_start", x)
    if not 0.05 <= lam <= 20.0:
        raise DomainError("exp_time_total_mass supports rates in [0.05, 20]")
    nu = BesselOrder.from_rate(lam).nu
    lo = x * 10.0 ** (-max(9.0, 12.0 / (nu - 0.5)))
    # past the kink z = x for every x; beyond it the density falls like e^{-2(z - x)}
    hi = x + 30.0
    return log_panel_integral(lambda zi: density_exp_time(x, lam, zi), lo, hi, x)


def myor_psi_profile(mu, t, vs, x):
    """Joint density at (v, x) of the time-t integrated drift-mu GBM and its
    terminal log, along an array of v at fixed x.

    Stable grouping: the Gaussian-in-1/v factor exp(-2(1+e^{x/2})^2/v)
    absorbs Theta's e^{-r} at r = 4 e^{x/2}/v, leaving the e^{r}-scaled
    Theta(r, t/4), which grows only algebraically in r.  The whole array
    shares one Theta node set.  Where that is a point's own node set, the
    value equals the one-point profile at that v exactly; otherwise the
    shared set only adds tail panels past the point's own cut, below the
    Theta quadrature's cut on the e^{r} scale, or refines the panels when
    a small v (large r) needs a width below the half-period t/4.  Needs
    t >= 4 T_MIN_THETA.
    """
    vs = np.asarray(vs, dtype=float)
    if not np.all((vs > 0) & (vs < math.inf)):
        raise DomainError("v must be finite and > 0")
    require_finite("mu", mu)
    require_finite("x", x)
    _require_t(t, 4.0 * T_MIN_THETA)
    return _psi(mu, t, vs, x)[0]


def _psi(mu, t, vs, b):
    """psi(v, b) along vs, grouped as myor_psi_profile states, with b a
    scalar or an array like vs, and the mask of entries whose Theta factor
    is trusted; entries whose exponent is below -700 are 0 and trusted."""
    q = np.exp(0.5 * b)
    expo = mu * b - 0.5 * mu * mu * t - 2.0 * (1.0 + q) ** 2 / vs
    out = np.zeros_like(vs)
    trusted = np.ones(vs.shape, dtype=bool)
    live = expo > -700.0
    if np.any(live):
        tt, ok = hartman_watson_theta_grid((4.0 * q / vs)[live], 0.25 * t, with_floor=True)
        out[live] = 0.5 * np.exp(expo[live]) / vs[live] * tt
        trusted[live] = ok
    return out, trusted


def _sinh_ratio(s):
    """s / sinh(s) on arrays, stable at both ends."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < 1e-4
    big = s > 350.0
    mid = ~(small | big)
    ss = s[small]
    out[small] = 1.0 / (1.0 + ss * ss / 6.0 * (1.0 + ss * ss / 20.0))
    out[mid] = s[mid] / np.sinh(s[mid])
    sb = s[big]
    out[big] = 2.0 * sb * np.exp(-sb)
    return out


def _coth_remainder(s):
    """coth(s) - 1/s on arrays; series below s = 1e-2 avoids cancellation."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < 1e-2
    big = s > 350.0
    mid = ~(small | big)
    ss = s[small]
    out[small] = ss / 3.0 - ss**3 / 45.0 + 2.0 * ss**5 / 945.0
    out[mid] = 1.0 / np.tanh(s[mid]) - 1.0 / s[mid]
    out[big] = 1.0 - 1.0 / s[big]
    return out


def conditional_laplace(lam, t, v, log_theta, r_rel):
    """The conditional Laplace transform E[exp(-(lam^2/2) A_t) | a_t = v,
    e^{B_t + mu t} = x] in log form along an array of v, with A_t the
    time integral of e^{2(B_s + mu s)}.

    Returns at(x) -> (log transform, log Theta~(r0, t/4)), r0 = 4 sqrt(x)/v:
    the second array is the Theta factor of psi(v, ln x).  x is the
    endpoint itself, not its log as in myor_psi_profile, and given it the
    law does not depend on mu.  log_theta maps log r to
    log Theta~(r, t/4), Theta~ = e^{r} Theta as hartman_watson_theta_grid
    returns it; r_rel is its trust edge, 0 for an exact Theta.  The
    factors of s = lam v/2 depend on the draws only and are formed here
    once; at(x) does the work of one endpoint.

    Grouped so the only exponential is exp(r0 - phi - lam (1+x) (coth s
    - 1/s)) with phi = r0 s/sinh s, which is <= 0 for all arguments
    (1 + x >= 2 sqrt(x) and s coth(s/2) >= 2); the two Theta factors
    enter as the difference of their e^{r}-scaled logs.

    Theta values below r_rel never enter log-scale arithmetic directly.
    When r0 (and so phi) is below min(r_rel, 0.9), the log-ratio is
    taken from the leading small-argument form ln Theta~ ~ -(ln 1/r)^2
    / (2 t/4), whose difference vanishes as the two arguments coalesce
    -- this keeps the lam -> 0 limit exact.  Any other transform with
    an argument below r_rel is zero beyond all orders (-inf), and so is
    log Theta~(r0) wherever r0 < r_rel.
    """
    require_positive("lam", lam)
    require_positive("t", t)
    v = np.asarray(v, dtype=float)
    if not np.all((v > 0) & (v < math.inf)):
        raise DomainError("v must be finite and > 0")
    tau = 0.25 * t
    s = 0.5 * lam * v
    ssr = _sinh_ratio(s)
    rem = _coth_remainder(s)
    lssr = np.log(ssr)

    def at(x):
        require_positive("x", x)
        r0 = 4.0 * math.sqrt(x) / v
        phi = r0 * ssr
        lr0 = np.log(r0)
        log_theta_r0 = log_theta(lr0)
        delta = log_theta(np.log(phi)) - log_theta_r0
        if r_rel > 0.0:
            lphi = lr0 + lssr
            paired = r0 < min(r_rel, 0.9)
            delta = np.where(paired, (lr0 * lr0 - lphi * lphi) / (2.0 * tau), delta)
        # a conditional Laplace transform at lam > 0 cannot exceed one
        log_cond = np.minimum(lssr + (r0 - phi) - lam * (1.0 + x) * rem + delta, 0.0)
        if r_rel > 0.0:
            low = r0 < r_rel
            log_cond = np.where(~paired & (low | (phi < r_rel)), -np.inf, log_cond)
            log_theta_r0 = np.where(low, -np.inf, log_theta_r0)
        return log_cond, log_theta_r0

    return at


def moment_exp_int_theta(params, t):
    """E[exp((beta/x0) integral_0^t theta)] = 1 + beta (e^{(mu+1/2)t} - 1)/(mu+1/2),
    continued by 1 + beta t at mu = -1/2."""
    require_nonnegative("t", t)
    k = params.mu + 0.5
    if k == 0.0:
        return 1.0 + params.beta * t
    return 1.0 + params.beta * math.expm1(k * t) / k


# rates whose Bessel orders sqrt(2*rate + 1/4) are 0.6, 3, 5
_MIX_ANCHOR_RATES = (0.055, 4.375, 12.375)


def density_exp_time_mixture(x_start, lam, w):
    """Exponential-time density at w as the rate-lam mixture of fixed-time
    densities, evaluated without touching the closed form at rate lam.

    The t >= T_MIN_THETA part is direct log-t panel quadrature of
    lam e^{-lam t} p_t(w).  The [0, T_MIN_THETA) mass (dominant when w is
    near x_start, where the fixed-time density grows a small-t peak) is
    not reachable that way, but its integrals against e^{-rate t} at the
    three anchor rates are: each equals the closed-form transform at that
    rate minus the same quadrature.  The completion added is the midpoint
    of the sharp two-sided bracket over positive measures on
    [0, T_MIN_THETA] consistent with those anchors; returns (value, bound)
    with bound = bracket halfwidth + anchor noise + quadrature tail.
    """
    x = float(x_start)
    w = float(w)
    if x <= 0 or w <= 0:
        raise DomainError("mixture needs x_start > 0 and w > 0")
    rates = np.array(_MIX_ANCHOR_RATES)
    if not 0.0 < lam <= rates[-1]:
        raise DomainError(f"mixture supports 0 < lam <= {rates[-1]:g}")
    # the integrand carries e^{-(rate + 1/8) t} overall; 45 e-foldings
    t_hi = 45.0 / (rates[0] + 0.125)
    ts, gw = log_panels(math.log(T_MIN_THETA), math.log(t_hi), 2.0, 2)
    gwt = gw * ts
    dens = np.array([density_exact_half(x, t, w) for t in ts])

    def q(rate):
        return float(np.dot(gwt, np.exp(-rate * ts) * dens))

    base = q(lam)
    anchors = np.array([density_exp_time(x, rate, w) / rate - q(rate) for rate in rates])
    noise = 1e-6 * (np.maximum(anchors[0], 0.0) + q(rates[0]))
    tail = math.exp(-45.0) * float(dens.max()) * t_hi
    mid, half = anchor_completion(rates, anchors, lam, T_MIN_THETA)
    return lam * (base + mid), lam * (half + noise + tail)


def _theta_log_interp(r_lo, r_hi, tau, n=2000):
    """Dense linear interpolant of log Theta~(r, tau) on a log-r grid.

    Also returns the trust edge r_reliable: below it the quadrature output
    is dominated by its own error floor (the true value vanishes beyond
    all orders as r -> 0), so log-scale arithmetic on those entries would
    amplify pure noise.  Callers must zero out whatever depends on an
    evaluation at r < r_reliable.

    The interpolant takes L = log r.  Its nodes lg are uniform up to
    rounding, so one division and one correction step each way against
    lg itself find the j with lg[j] <= L < lg[j+1] that np.interp's
    binary search finds.  The value is np.interp's own formula
    slopes[j] (L - lg[j]) + logs[j], and L is clipped to the table, so
    the lookup equals np.interp bit for bit, its end clamps included.
    """
    grid = np.geomspace(r_lo, r_hi, n)
    vals, trusted = hartman_watson_theta_grid(grid, tau, with_floor=True)
    logs = np.log(np.maximum(vals, 1e-300))
    lg = np.log(grid)
    # padded so that node n-1 is a panel of slope 0 that no L passes
    slopes = np.append((logs[1:] - logs[:-1]) / (lg[1:] - lg[:-1]), 0.0)
    lg_next = np.append(lg[1:], math.inf)
    h = (lg[-1] - lg[0]) / (n - 1)
    if trusted.all():
        r_reliable = 0.0
    elif trusted.any():
        last_bad = int(np.nonzero(~trusted)[0].max())
        r_reliable = float(grid[last_bad + 1]) if last_bad + 1 < n else math.inf
    else:
        r_reliable = math.inf

    def interp(L):
        # clipped, no inf enters the arithmetic; fmin sends a NaN L to
        # node n-1, where its value stays NaN
        L = np.clip(L, lg[0], lg[-1])
        j = np.fmin(np.floor((L - lg[0]) / h), n - 1).astype(np.intp)
        j -= L < lg[j]
        j += L >= lg_next[j]
        return slopes[j] * (L - lg[j]) + logs[j]

    return interp, r_reliable


# step of the general-drift Monte Carlo's path batch
GENERAL_MC_DT = 1e-3


def _tilt_kernels(gamma, mu, t, xs, n, seed, threads=1):
    """Per-draw tilt kernels and endpoint-conditioning log-weights, one x
    at a time, from one sample set.

    Draws (v_i, b_i) = (integrated GBM, terminal log) from one drift-mu
    run and yields, for each x in xs, (pref, h, logw): the tilt kernel
    h_i = e^{gamma (mu + 1/2) v_i} times conditional_laplace at (v_i, x),
    with its x-only prefactor pref split off, and the self-normalized
    importance log-weights psi(v_i, ln x) N(b_i) / psi(v_i, b_i) (up to
    a constant) that move the draws to the conditional law given
    b = ln x.  All Theta factors go through one dense log-r interpolant
    shared by every x.  Weights at an argument below the interpolant's
    trust edge are zeroed outright: the dropped target mass is beyond
    all orders.
    """
    require_positive("gamma", gamma)
    _require_t(t, 4.0 * T_MIN_THETA)
    if not np.all((xs > 0) & (xs < math.inf)):
        raise DomainError("x must be finite and > 0")

    grid = TimeGrid.with_step(t, GENERAL_MC_DT)
    stats = simulate_terminal_batch(
        ModelParams(mu=mu, beta=0.0, x0=1.0), grid, n, seed, threads=threads
    )
    v = stats.a
    b = stats.bmd
    eb = np.exp(0.5 * b)
    rb = 4.0 * eb / v

    # the interpolant must reach the smallest phi = r0 s/sinh s, so its
    # range takes s/sinh s before the kernel that forms it again exists
    sx = np.sqrt(xs)
    ssr = _sinh_ratio(0.5 * gamma * v)
    r_lo = 0.9 * min(4.0 * sx.min() * (ssr / v).min(), rb.min())
    r_hi = 1.1 * max(4.0 * sx.max() / v.min(), rb.max())
    interp, r_rel = _theta_log_interp(r_lo, r_hi, 0.25 * t)
    cond = conditional_laplace(gamma, t, v, interp, r_rel)

    log_theta_rb = interp(np.log(rb))
    psi_b_core = mu * b - 2.0 * (1.0 + eb) ** 2 / v + log_theta_rb
    log_norm_b = -((b - mu * t) ** 2) / (2.0 * t) - 0.5 * math.log(2.0 * math.pi * t)
    rb_ok = rb >= r_rel
    tilt = gamma * (mu + 0.5) * v

    for k, x_val in enumerate(xs):
        log_cond, log_theta_r0 = cond(x_val)
        h = np.exp(tilt + log_cond)
        pref = lognormal_density(mu, t, x_val) * math.exp(-gamma * (x_val - 1.0))

        lnx = math.log(x_val)
        logw = np.where(
            rb_ok,
            mu * lnx
            - 2.0 * (1.0 + sx[k]) ** 2 / v
            + log_theta_r0
            + log_norm_b
            - psi_b_core,
            -np.inf,
        )
        yield pref, h, logw


def _general_mc_engine(gamma, mu, t, xs, n, seed, threads=1):
    """Density values and standard errors over an x grid, from one sample
    set: per x, the tilt kernel averaged under the conditional law of the
    draws given the endpoint b = ln x (self-normalized importance
    weights from _tilt_kernels).  The tilt kernel is a conditional
    Laplace transform given the endpoint, so only that conditional
    average is the density; the plain average over the draws is not.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.empty(xs.size)
    errs = np.empty(xs.size)
    for k, (pref, h, logw) in enumerate(
        _tilt_kernels(gamma, mu, t, xs, n, seed, threads)
    ):
        top = logw.max()
        if not np.isfinite(top):
            est = se = 0.0
        else:
            wgt = np.exp(logw - top)
            wbar = wgt / wgt.sum()
            est = float(np.dot(wbar, h))
            se = float(np.sqrt(np.sum((wbar * (h - est)) ** 2)))
        vals[k] = pref * est
        errs[k] = pref * se
    return vals, errs


def density_general_quad(gamma, mu, t, x, n=4000):
    """General-drift density at x by direct substitution quadrature.

    theta_t = e^b/(1 + gamma a) maps {theta = x} to b = ln x + ln(1+gamma v)
    at a = v, so the density is (1/x) int psi(v, ln x + ln(1+gamma v)) dv.
    No Monte Carlo and no tilt kernel: an independent route against the
    sampling estimators.  Integrand entries whose Theta evaluation falls
    below the trust floor are dropped; out there the true psi has already
    decayed beyond all orders in 1/v.
    """
    require_positive("gamma", gamma)
    require_positive("x", x)
    _require_t(t, 4.0 * T_MIN_THETA)
    require_finite("mu", mu)
    require_count("n", n, 2)
    vs = np.geomspace(1e-6, 400.0, n)
    ys, trusted = _psi(mu, t, vs, math.log(x) + np.log1p(gamma * vs))
    return float(np.trapezoid(np.where(trusted, ys, 0.0), vs)) / x


def density_general_mc(gamma, mu, t, x, n, seed, threads=1):
    """Monte Carlo value of the general-drift density at one point x, the
    endpoint-conditional average of the tilt kernel."""
    vals, errs = _general_mc_engine(gamma, mu, t, np.array([float(x)]), n, seed, threads)
    return McEstimate(mean=float(vals[0]), stderr=float(errs[0]), n=n)


def curve_general_mc(gamma, mu, t, x_grid, n, seed, threads=1):
    """General-drift density curve over x_grid plus per-point standard
    errors, all from one path batch.

    A point matches density_general_mc at that x (same n and seed) only
    to the error of the shared Theta interpolant, whose range is set by
    the smallest and largest grid point: at x=1 the 72-point grid of
    validate and x=1 alone differ by 5.4e-8 relative (n=2e4).  Adding
    points inside [min(x_grid), max(x_grid)] changes no value."""
    x_grid = np.asarray(x_grid, dtype=float)
    vals, errs = _general_mc_engine(gamma, mu, t, x_grid, n, seed, threads)
    curve = DensityCurve(
        x_grid,
        vals,
        kind="general_mc",
        params=f"gamma={gamma:g} mu={mu:g} t={t:g} n={n} seed={seed}",
    )
    return curve, errs


def curve_lognormal(mu, t, n_points=200):
    """Lognormal density curve on a log grid over mu t +- 7 sqrt(t)."""
    require_positive("t", t)
    require_count("n_points", n_points, 2)
    grid = np.exp(np.linspace(mu * t - 7.0 * math.sqrt(t), mu * t + 7.0 * math.sqrt(t), n_points))
    return DensityCurve(
        grid,
        lognormal_density(mu, t, grid),
        kind="lognormal",
        params=f"mu={mu:g} t={t:g}",
    )
