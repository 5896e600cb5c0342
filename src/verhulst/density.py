"""One-dimensional distributions of the Verhulst process.

Closed forms for the fixed-time densities at drift -1/2 and any drift
(one integral in Theta's variable each), the independent-exponential-time
density (Bessel product), and the conditional Laplace transform that turns
the drift-free density into the general-drift one via a Monte Carlo
average.  Everything that involves Theta(r, t) is evaluated on the e^{r}
scale so exponentials stay in range across the whole support.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError, require_count, require_finite, require_nonnegative, require_positive
)
from .simulate import TimeGrid, simulate_bridge_integrals
from .specfun import (
    T_MIN_THETA,
    anchored_time_laplace,
    bessel_product_log,
    hartman_watson_theta_grid,
    log_panel_integral,
    theta_k1_log_integral,
    theta_yor_integral,
)


@dataclass
class DensityCurve:
    """A density sampled on a strictly increasing positive grid.

    total_mass is the trapezoid integral over the grid, the last value
    of cumulative(); for a curve meant to cover the whole support it
    should sit within the advertised tolerance of 1.
    """

    abscissae: np.ndarray
    values: np.ndarray
    kind: str = ""
    params: str = ""

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

    def cumulative(self):
        """Running trapezoid integral; starts at 0, ends at total_mass."""
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.abscissae)
        return np.concatenate(([0.0], np.cumsum(seg)))

    @property
    def total_mass(self):
        return float(self.cumulative()[-1])


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

    p_t(w) = e^{-t/8} e^{x-w} sqrt(x/w^3) integral_0^inf
    e^{-z/2 - (x+w)^2/(2z)} e^{xw/z} Theta(xw/z, t) dz/z with x = x_start.
    The z integral is closed (Gradshteyn-Ryzhik 3.471.9), which leaves
    p_t(w) = e^{-t/8 - 2w} 2 x^{3/2} w^{-1/2} H(x, w, t), H the one zeta
    integral of specfun.theta_k1_log_integral.  Formed in logs, so no start
    overflows it.  Near the bulk it is at most 3.3e-8 off relative at t =
    0.2 and 1.1e-15 from t = 1 on, against the 40-digit mpmath pins of
    tests/test_density.py (tabled in the README): below t = 0.5, rounding
    amplified by e^{pi^2/(2t)}.  In the left tail at small t that rounding
    is the value (1.20e-8 against 3.65e-11 at (x, t, w) = (1, 0.25, 0.02));
    its bound, H's relative floor, comes back from _exact_half, and
    curve_exact_half reports the largest.  Needs t >= T_MIN_THETA.
    Broadcasts over x_start, t and w in one theta_k1_log_integral call
    (numbers give a float).
    """
    return _exact_half(x_start, t, w)[0]


def _exact_half(x, t, w):
    """(density_exact_half, relative floor of theta_k1_log_integral), the
    prefactor added item by item in logs."""
    log_h, rel_floor = theta_k1_log_integral(x, w, t)
    items = np.broadcast(x, t, w, log_h)
    vals = [
        math.exp(-0.125 * ti - 2.0 * wi + math.log(2.0) + 1.5 * math.log(xi)
                 - 0.5 * math.log(wi) + lh)
        for xi, ti, wi, lh in items
    ]
    return (vals[0] if items.shape == () else np.reshape(vals, items.shape)), rel_floor


def curve_exact_half(x_start, t, n_points=600):
    """Fixed-time density curve on the log grid exp(ln(x0/(1 + x0 t)) - t/2
    +- 8 sqrt(t)): theta_t = x0 e^{B_t - t/2}/(1 + x0 a_t) forgets a large x0.
    One density_exact_half call on the whole grid; params end with the
    largest relative floor of a point, with its w."""
    require_positive("x_start", x_start)
    _require_t(t, T_MIN_THETA)
    require_count("n_points", n_points, 2)
    center = math.log(x_start / (1.0 + x_start * t)) - 0.5 * t
    grid = np.exp(np.linspace(center - 8.0 * math.sqrt(t), center + 8.0 * math.sqrt(t), n_points))
    vals, floors = _exact_half(x_start, t, grid)
    k = int(np.argmax(floors))
    params = f"x={x_start:g} t={t:g} floor_max={floors[k]:.3g}@w={grid[k]:.4g}"
    return DensityCurve(grid, vals, kind="exact_half", params=params)


def _bessel_order(lam):
    """Bessel order sqrt(2 lam + 1/4) of the exponential-time law at rate lam > 0."""
    require_positive("rate", lam)
    return math.sqrt(2.0 * lam + 0.25)


def density_exp_time(x_start, lam, z):
    """Density at z of the process started at x_start, stopped at an
    independent exponential time of rate lam.

    2 lam e^{x-z} sqrt(x/z^3) I_nu(min) K_nu(max), nu = sqrt(2 lam + 1/4),
    broadcast over x_start and z (numbers give a float).  Formed in logs
    (specfun.bessel_product_log), so the value stays representable where
    K_nu alone underflows (max(x, z) past ~745); it is 0 only where
    I_nu(min) or the density itself underflows.
    """
    require_positive("x_start", x_start)
    require_positive("z", z)
    log_f = bessel_product_log(_bessel_order(lam), x_start, z)
    x, z = np.asarray(x_start, dtype=float), np.asarray(z, dtype=float)
    out = np.exp(math.log(2.0 * lam) + x - z + 0.5 * (np.log(x) - 3.0 * np.log(z)) + log_f)
    return float(out) if out.ndim == 0 else out


def curve_exp_time(x_start, lam, n_points=600):
    """Exponential-time density curve on [1e-8, 40], log-spaced on each
    side of x_start, by one density_exp_time call."""
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
    return DensityCurve(
        grid, density_exp_time(x_start, lam, grid), kind="exp_time",
        params=f"x={x_start:g} lam={lam:g}",
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
    nu = _bessel_order(lam)
    lo = x * 10.0 ** (-max(9.0, 12.0 / (nu - 0.5)))
    # past the kink z = x for every x; beyond it the density falls like e^{-2(z - x)}
    hi = x + 30.0
    return log_panel_integral(lambda z: density_exp_time(x, lam, z), lo, hi, x)


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


def conditional_laplace(lam, t, v, x, log_theta, r_rel):
    """The conditional Laplace transform E[exp(-(lam^2/2) A_t) | a_t = v,
    e^{B_t + mu t} = x] in log form, with A_t the time integral of
    e^{2(B_s + mu s)}; given the endpoint the law does not depend on mu.

    x is the endpoint itself, not its log: a scalar, or an array that
    broadcasts against v, such as a row of endpoints against a 2-d v
    whose column k holds draws given x[k]; a scalar gives the bits of the
    same x in an array.  log_theta maps log r to log Theta~(r, t/4),
    Theta~ = e^{r} Theta, the values of hartman_watson_theta_grid; r_rel is
    its trust edge, 0 for an exact Theta.

    Grouped so the only exponential is exp(r0 - phi - lam (1+x) (coth s
    - 1/s)) with r0 = 4 sqrt(x)/v and phi = r0 s/sinh s, which is <= 0
    for all arguments (1 + x >= 2 sqrt(x) and s coth(s/2) >= 2); the two
    Theta factors enter as the difference of their e^{r}-scaled logs.

    Theta values below r_rel never enter log-scale arithmetic directly.
    When r0 (and so phi) is below min(r_rel, 0.9), the log-ratio is
    taken from the leading small-argument form ln Theta~ ~ -(ln 1/r)^2
    / (2 t/4), whose difference vanishes as the two arguments coalesce
    -- this keeps the lam -> 0 limit exact.  Any other transform with
    an argument below r_rel is zero beyond all orders (-inf).
    """
    require_positive("lam", lam)
    require_positive("t", t)
    v = np.asarray(v, dtype=float)
    if not np.all((v > 0) & (v < math.inf)):
        raise DomainError("v must be finite and > 0")
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0) & (x < math.inf)):
        raise DomainError("x must be finite and > 0")
    tau = 0.25 * t
    s = 0.5 * lam * v
    ssr = _sinh_ratio(s)
    rem = _coth_remainder(s)
    lssr = np.log(ssr)
    r0 = 4.0 * np.sqrt(x) / v
    phi = r0 * ssr
    lr0 = np.log(r0)
    delta = log_theta(np.log(phi)) - log_theta(lr0)
    if r_rel > 0.0:
        lphi = lr0 + lssr
        paired = r0 < min(r_rel, 0.9)
        delta = np.where(paired, (lr0 * lr0 - lphi * lphi) / (2.0 * tau), delta)
    # a conditional Laplace transform at lam > 0 cannot exceed one
    log_cond = np.minimum(lssr + (r0 - phi) - lam * (1.0 + x) * rem + delta, 0.0)
    if r_rel > 0.0:
        log_cond = np.where(~paired & ((r0 < r_rel) | (phi < r_rel)), -np.inf, log_cond)
    return log_cond


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
# anchor noise, of the first closed form: 2 against 4 log-t panels per unit
# move the quadrature at the anchor rates by <= 1.1e-9 of it (x = 1, w in [0.05, 8])
_MIX_ANCHOR_NOISE = 1e-8


def density_exp_time_mixture(x_start, lam, w):
    """Exponential-time density at w as the rate-lam mixture of fixed-time
    densities, evaluated without touching the closed form at rate lam.

    lam times anchored_time_laplace of p_t(w) over t, anchored at the
    closed forms of three other rates; the mass it completes below
    T_MIN_THETA dominates when w is near x_start, where p_t grows a
    small-t peak.  Returns (value, bound), bound = bracket halfwidth +
    anchor noise (1e-8 of the first anchor's closed form) + quadrature tail.
    """
    require_positive("x_start", x_start)
    require_positive("w", w)
    x, w = float(x_start), float(w)
    rates = np.array(_MIX_ANCHOR_RATES)
    if not 0.0 < lam <= rates[-1]:
        raise DomainError(f"mixture supports 0 < lam <= {rates[-1]:g}")
    # the integrand carries e^{-(rate + 1/8) t} overall; 45 e-foldings
    t_hi = 45.0 / (rates[0] + 0.125)
    closed = [density_exp_time(x, rate, w) / rate for rate in rates]
    value, bound, dens = anchored_time_laplace(
        lambda ts: density_exact_half(x, ts, w), t_hi, lam, rates, closed,
        _MIX_ANCHOR_NOISE * closed[0],
    )
    tail = math.exp(-45.0) * float(dens.max()) * t_hi
    return lam * value, lam * (bound + tail)


# nodes of _theta_log_interp's log-r grid
_THETA_NODES = 2000


def _theta_log_interp(r_lo, r_hi, tau):
    """Dense linear interpolant of log Theta~(r, tau) on _THETA_NODES
    nodes of a log-r grid.

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
    n = _THETA_NODES
    grid = np.geomspace(r_lo, r_hi, n)
    vals, floor = hartman_watson_theta_grid(grid, tau)
    trusted = vals > 30.0 * floor  # below it a vanishing Theta is positive noise
    logs = np.log(np.maximum(vals, 1e-300))
    lg = np.log(grid)
    # padded so that node n-1 is a panel of slope 0 that no L passes
    slopes = np.append((logs[1:] - logs[:-1]) / (lg[1:] - lg[:-1]), 0.0)
    lg_next = np.append(lg[1:], math.inf)
    h = (lg[-1] - lg[0]) / (n - 1)
    bad = np.nonzero(~trusted)[0]  # r_reliable is the node after the last one
    r_reliable = float(np.append(grid, math.inf)[bad[-1] + 1]) if bad.size else 0.0

    def interp(L):
        # clipped, no inf enters the arithmetic; fmin sends a NaN L to
        # node n-1, where its value stays NaN
        L = np.clip(L, lg[0], lg[-1])
        j = np.fmin(np.floor((L - lg[0]) / h), n - 1).astype(np.intp)
        j -= L < lg[j]
        j += L >= lg_next[j]
        return slopes[j] * (L - lg[j]) + logs[j]

    return interp, r_reliable


# bridge steps of the general-drift Monte Carlo: on paired bridges the
# kernel's shift against 1000 steps stays under a tenth of its standard
# error at n = 1e5 (test_general_mc_step_bias_paired)
GENERAL_MC_STEPS = 250

# element budget of a row chunk of the tilt kernel's temporaries
_KERNEL_CHUNK_ELEMS = 2**15


def _tilt_kernel(gamma, mu, t, xs, v):
    """In place, v (draws x xs.size), column k drawn given the endpoint
    xs[k], becomes the tilt kernel e^{gamma (mu + 1/2) v} times
    conditional_laplace at (v, xs[k]); returns the per-x count of draws
    zeroed at the trust edge.  One Theta interpolant serves all of v:
    phi = r0 s/sinh s is smallest at the largest v of each x."""
    sx = np.sqrt(xs)
    v_lo, v_hi = v.min(axis=0), v.max(axis=0)
    r_lo = 0.9 * float(np.min(4.0 * sx * _sinh_ratio(0.5 * gamma * v_hi) / v_hi))
    r_hi = 1.1 * float(np.max(4.0 * sx / v_lo))
    interp, r_rel = _theta_log_interp(r_lo, r_hi, 0.25 * t)
    zeroed = np.zeros(xs.size, dtype=np.int64)
    rows = max(1, _KERNEL_CHUNK_ELEMS // xs.size)
    for c0 in range(0, v.shape[0], rows):
        vc = v[c0 : c0 + rows]
        log_cond = conditional_laplace(gamma, t, vc, xs, interp, r_rel)
        zeroed += np.count_nonzero(log_cond == -np.inf, axis=0)
        vc *= gamma * (mu + 0.5)
        vc += log_cond
        np.exp(vc, out=vc)
    return zeroed


def density_general_quad(gamma, mu, t, x):
    """General-drift density at x by direct substitution quadrature.

    theta_t = e^b/(1 + gamma a) maps {theta = x} to b = ln x + ln(1 +
    gamma v) at a = v, so the density is (1/x) integral psi(v, ln x + ln(1
    + gamma v)) dv, psi Yor's joint law of (a_t, B_t + mu t): e^{-mu^2
    t/2}/x theta_yor_integral(x, gamma, mu, t/4) without its bound.  No
    Monte Carlo and no tilt kernel: an independent route against the
    sampling estimators.  Needs t >= 4 T_MIN_THETA and mu < 1.
    """
    _require_t(t, 4.0 * T_MIN_THETA)
    value, _ = theta_yor_integral(x, gamma, mu, 0.25 * t)
    return math.exp(-0.5 * mu * mu * t) / x * value


def curve_general_mc(gamma, mu, t, x_grid, n, seed, threads=1):
    """General-drift density curve over x_grid plus per-point standard
    errors, all from one batch of n Brownian bridges.

    The density at x is pref(x) E[h | e^{B_t + mu t} = x], pref(x) the
    drift-mu lognormal density times e^{-gamma (x - 1)} and h the tilt
    kernel (_tilt_kernel) at a_t, drawn given the endpoint up to its
    trapezoid rule (simulate_bridge_integrals, GENERAL_MC_STEPS steps):
    n iid draws per x, no weights, the plain standard error.  Each block
    reduces to per-x (count, mean, M2, zeroed), combined in block order
    by Chan, Golub and LeVeque's update, so no (n x grid) matrix is held
    and threads do not change a bit.  Draws zeroed at the trust edge
    carry mass beyond all orders; params end with the step count and the
    largest zeroed fraction with its x.
    """
    require_positive("gamma", gamma)
    require_finite("mu", mu)
    _require_t(t, 4.0 * T_MIN_THETA)
    require_count("n", n, 2)
    xs = np.asarray(x_grid, dtype=float)
    if not np.all((xs > 0) & (xs < math.inf)):
        raise DomainError("x must be finite and > 0")

    def reduce(v):
        zeroed = _tilt_kernel(gamma, mu, t, xs, v)
        mean = v.mean(axis=0)
        v -= mean
        return v.shape[0], mean, np.einsum("ij,ij->j", v, v), zeroed

    grid = TimeGrid(t, GENERAL_MC_STEPS)
    parts = simulate_bridge_integrals(grid, xs, n, seed, reduce, threads=threads)
    count, mean, m2, zeroed = parts[0]
    for c, mean_b, m2_b, zeroed_b in parts[1:]:
        delta = mean_b - mean
        mean = mean + delta * (c / (count + c))
        m2 = m2 + m2_b + delta * delta * (count * c / (count + c))
        count, zeroed = count + c, zeroed + zeroed_b
    pref = lognormal_density(mu, t, xs) * np.exp(-gamma * (xs - 1.0))
    k = int(np.argmax(zeroed))
    params = (f"gamma={gamma:g} mu={mu:g} t={t:g} n={n} seed={seed} steps={GENERAL_MC_STEPS} "
              f"zeroed_max={zeroed[k] / n:.3g}@x={xs[k]:.4g}")
    curve = DensityCurve(xs, pref * mean, kind="general_mc", params=params)
    return curve, pref * np.sqrt(m2 / ((n - 1) * n))


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
