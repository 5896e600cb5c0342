"""Special functions behind the exact Verhulst-process formulas.

Modified Bessel functions of real order, the Hartman-Watson function
Theta(r,t), and the arcosh-based Laplace kernel.  Everything is plain
numpy; no external special-function library.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Overflow guard for the I_nu ascending series: I_nu(x) ~ e^x/sqrt(2 pi x),
# safely representable up to x ~ 700; we stop well short of that.
BESSEL_I_MAX_X = 600.0

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and truncation policy for the oscillatory quadratures."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_panels: int = 2000
    z_cut_factor: float = 10.0
    t_min_theta: float = 0.2

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_panels < 1:
            raise DomainError("max_panels must be >= 1")
        if self.t_min_theta <= 0:
            raise DomainError("t_min_theta must be positive")


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True)
class BesselOrder:
    """Order nu >= 0 of I_nu / K_nu."""

    nu: float

    def __post_init__(self):
        if self.nu < 0:
            raise DomainError("Bessel order must be >= 0")

    @classmethod
    def from_rate(cls, lam):
        """Order sqrt(2*lam + 1/4) attached to an exponential rate lam > 0."""
        if lam <= 0:
            raise DomainError("rate must be positive")
        return cls(math.sqrt(2.0 * lam + 0.25))


def _order(nu):
    return nu.nu if isinstance(nu, BesselOrder) else float(nu)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panels(breaks):
    """Gauss-Legendre 16 nodes/weights over consecutive [a,b] panels."""
    a = breaks[:-1]
    h = 0.5 * (breaks[1:] - a)
    mid = a + h
    z = (h[:, None] * _GL_NODES + mid[:, None]).ravel()
    w = (h[:, None] * _GL_WEIGHTS).ravel()
    return z, w


def bessel_i(nu, x, cfg=DEFAULT_QUAD):
    """Modified Bessel I_nu(x) by the ascending power series.

    All series terms are positive, so there is no cancellation and the
    term-ratio stop at rel_tol is also a remainder bound.  Supported for
    0 <= x <= 600 (DomainError above; the series itself would overflow
    near x ~ 700), any nu >= 0.
    """
    nu = _order(nu)
    if x < 0:
        raise DomainError("bessel_i needs x >= 0")
    if x > BESSEL_I_MAX_X:
        raise DomainError(f"bessel_i overflow guard: x > {BESSEL_I_MAX_X:g}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    term = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
    total = term
    q = 0.25 * x * x
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + nu))
        total += term
        if k > 3 and term <= cfg.rel_tol * 1e-4 * total:
            return total
        if k > 10000:  # unreachable on the guarded domain
            raise ConvergenceError("bessel_i series stalled")


def bessel_k(nu, x, cfg=DEFAULT_QUAD):
    """Modified Bessel K_nu(x) via K_nu = integral e^{-x cosh u} cosh(nu u) du.

    Computed in the scaled form e^x K_nu (integrand e^{-x(cosh u - 1)}
    cosh(nu u), positive and monotone-decaying past its peak) on composite
    Gauss-Legendre panels; the truncation point solves
    x(cosh u - 1) - nu*u = L by fixed-point iteration.
    """
    nu = _order(nu)
    if x <= 0:
        raise DomainError("bessel_k needs x > 0")
    L = -math.log(cfg.abs_tol) + 18.0
    u_max = 1.0
    for _ in range(60):
        nxt = math.acosh(1.0 + (L + nu * u_max) / x)
        if abs(nxt - u_max) < 1e-9:
            break
        u_max = nxt
    width = min(0.5, 2.0 / (1.0 + nu))
    n_pan = max(4, int(math.ceil(u_max / width)))
    z, w = _panels(np.linspace(0.0, u_max, n_pan + 1))
    vals = np.exp(-x * (np.cosh(z) - 1.0)) * np.cosh(nu * z)
    return math.exp(-x) * float(np.dot(w, vals))


def bessel_product_F(nu, x, y, cfg=DEFAULT_QUAD):
    """Symmetric product I_nu(min(x,y)) * K_nu(max(x,y)).

    I takes the smaller argument and K the larger one; that orientation is
    what makes the exponential-time density integrable at both ends.
    """
    if x <= 0 or y <= 0:
        raise DomainError("bessel_product_F needs x, y > 0")
    lo, hi = (x, y) if x <= y else (y, x)
    return bessel_i(nu, lo, cfg) * bessel_k(nu, hi, cfg)


def _theta_breaks(r, t, cfg, r_cap=None):
    """Panel breakpoints for the Theta integrand.

    Half-period panels of sin(pi z/t), with panel width additionally capped
    at min(1.5, 3.5/sqrt(r_cap)) so both the cosh envelope at large t and
    the near-Gaussian e^{-r z^2/2} envelope at large r stay resolved by a
    16-node rule.  Truncated where the envelope e^{-z^2/(2t) - r(cosh z -
    1) + z} times the e^{pi^2/(2t)} prefactor drops below abs_tol *
    z_cut_factor, i.e. the cut is on the e^{r} scale of the value; past
    the envelope peak the panel-start value bounds the remainder scale.

    Grid callers pass r = smallest element (weakest damping, so the range
    covers every element) and r_cap = largest (finest width requirement
    and biggest prefactor, so the cut is deep enough for every element);
    for a single r the two coincide.
    """
    rc = r_cap if r_cap is not None else r
    log_pref = math.pi**2 / (2.0 * t) + math.log(rc / math.sqrt(2.0 * math.pi**3 * t))
    log_cut = math.log(cfg.abs_tol * cfg.z_cut_factor) - log_pref
    width = min(1.5, 3.5 / math.sqrt(rc))
    # envelope peak z* solves 1 - z/t - r sinh z = 0, so z* <= min(t, asinh(1/r))
    z_peak = min(t, math.asinh(1.0 / r))
    breaks = [0.0]
    k = 1
    while True:
        z = breaks[-1]
        if z > z_peak and -z * z / (2.0 * t) - r * (math.cosh(z) - 1.0) + z < log_cut:
            break
        if len(breaks) > cfg.max_panels:
            raise ConvergenceError("theta quadrature exceeded max_panels")
        while k * t <= z + 1e-15:
            k += 1
        breaks.append(min(k * t, z + width))
    return np.array(breaks)


def hartman_watson_theta(r, t, cfg=DEFAULT_QUAD, scaled=False):
    """Hartman-Watson function Theta(r,t), the kernel whose Laplace
    transform in nu^2/2 is I_nu(r).

    Theta(r,t) = r/sqrt(2 pi^3 t) * e^{pi^2/(2t)} *
                 integral_0^inf e^{-z^2/(2t)} e^{-r cosh z} sinh(z)
                 sin(pi z / t) dz

    Parameters
    ----------
    r, t : floats, r > 0 and t >= cfg.t_min_theta.  Below t_min_theta the
        e^{pi^2/(2t)} prefactor amplifies roundoff past any tolerance
        (DomainError; no small-t scheme is attempted).
    scaled : if True return e^{r} * Theta(r,t), the form the density
        integrands consume (their own exponentials absorb the e^{-r}).

    Gauss-Legendre 16 on panels aligned with the sign changes of
    sin(pi z/t), evaluated as _theta_scaled_grid of the one r (the scaled
    value is the grid's bit for bit).  Sign rule, on the e^{r} scale like
    the quadrature cut: with the error floor (8 eps + rel_tol) *
    prefactor * unsigned mass, a scaled value below -max(abs_tol, floor)
    raises ConvergenceError and smaller negatives are clamped to 0; the
    unscaled value is the scaled one times e^{-r}.
    """
    value = float(_theta_scaled_grid(np.array([float(r)]), t, cfg)[0])
    return value if scaled else value * math.exp(-r)


def _theta_scaled_grid(rs, t, cfg=DEFAULT_QUAD, with_floor=False):
    """e^{r} Theta(r,t) for an array of r values at one t: the kernel
    behind hartman_watson_theta (quadrature and sign rule stated there).

    One node set is built from the smallest r (range) and the largest r
    (panel width, cut depth).  Each row is reduced on its own, so a row
    whose own node set is the batch's gets hartman_watson_theta's value
    bit for bit, whatever else the batch holds.  For any other row the
    batch only adds tail panels past the row's own cut, where its
    integrand is below abs_tol * z_cut_factor on the e^{r} scale, or,
    when the largest r narrows the panel width below the half-period t,
    finer panels.

    with_floor additionally returns the *realistic* cancellation scale
    8 eps * prefactor * unsigned mass: at small r the true value sinks
    below it (Theta vanishes faster than any power of r) and the clamped
    output is then positive noise a caller must discount.  The raise
    guard keeps the larger rel_tol-based floor so that an honest tiny
    negative never trips it.
    """
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0):
        raise DomainError("theta needs r > 0")
    if t < cfg.t_min_theta:
        raise DomainError(
            f"theta not evaluated below t_min_theta={cfg.t_min_theta:g} (cancellation regime)"
        )
    z, w = _panels(_theta_breaks(float(rs.min()), t, cfg, r_cap=float(rs.max())))
    base = np.exp(-z * z / (2.0 * t)) * np.sinh(z) * np.sin(np.pi * z / t) * w
    with np.errstate(under="ignore"):
        damp = np.exp(-np.outer(rs, np.cosh(z) - 1.0))
    pref = rs / math.sqrt(2.0 * math.pi**3 * t) * math.exp(math.pi**2 / (2.0 * t))
    # one dot product per row: a matrix product (BLAS gemv) accumulates in
    # an order that depends on the number of rows
    vals = pref * np.vecdot(damp, base)
    unsigned = pref * np.vecdot(damp, np.abs(base))
    guard = np.maximum(cfg.abs_tol, (8.0 * _EPS + cfg.rel_tol) * unsigned)
    if np.any(vals < -guard):
        raise ConvergenceError(
            f"theta at t={t:g} negative beyond quadrature floor: {float(vals.min()):g}"
        )
    vals = np.where(vals < 0.0, 0.0, vals)
    return (vals, 8.0 * _EPS * unsigned) if with_floor else vals


def phi_arcosh(x, y):
    """arcosh(x e^{-y} + cosh y) in the explicit logarithm form.

    The argument of the square root is expanded as
    x^2 e^{-2y} + sinh^2 y + 2 x e^{-y} cosh y, which equals c^2 - 1 for
    c = x e^{-y} + cosh y but never cancels; at x = 0 the result is |y|
    exactly.  Broadcasts over numpy arrays.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("phi_arcosh needs x >= 0")
    ey = np.exp(-y)
    c = x * ey + np.cosh(y)
    s2 = x * x * ey * ey + np.sinh(y) ** 2 + 2.0 * x * ey * np.cosh(y)
    out = np.log(c + np.sqrt(s2))
    return float(out) if out.ndim == 0 else out


def laplace_kernel_F(x, z, t):
    """Kernel F_z(x) = exp(-(phi_z(x)^2 - x^2)/(2t)), a value in (0, 1].

    phi_z(x) >= |x| for z >= 0, so the exponent is <= 0; equals 1 exactly
    at z = 0.  Broadcasts over numpy arrays.
    """
    if t <= 0:
        raise DomainError("laplace_kernel_F needs t > 0")
    phi = phi_arcosh(z, x)
    out = np.exp(-(phi * phi - np.square(x)) / (2.0 * t))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Laplace transform of Theta in its time argument.

_ANCHOR_ORDERS = (0.3, 3.0, 5.0)
_T_LAPLACE_HI = 400.0
_T_LAPLACE_PANELS = 180


def _theta_time_nodes(rs, cfg):
    """Log-spaced GL nodes/weights on [t_min_theta, 400] and the matrix of
    scaled values e^{r} Theta(r, t_i) over an r grid (t nodes are shared)."""
    breaks = cfg.t_min_theta * np.exp(
        np.linspace(0.0, math.log(_T_LAPLACE_HI / cfg.t_min_theta), _T_LAPLACE_PANELS + 1)
    )
    u, w = _panels(np.log(breaks))
    t = np.exp(u)
    theta = np.empty((t.size, rs.size))
    for i, ti in enumerate(t):
        theta[i] = _theta_scaled_grid(rs, ti, cfg)
    return t, w * t, theta


def _completion_bracket(anchors_s, anchors_c, s, tau):
    """Sharp two-sided bracket for integral e^{-s T} d mu(T) over positive
    measures mu on [0, tau] matching the anchor values
    integral e^{-s_j T} d mu = c_j.  Extremal measures put mass on at most
    len(anchors) atoms; all atom supports on a grid are scanned.
    """
    grid = np.linspace(0.0, tau, 41)
    E = np.exp(-np.outer(anchors_s, grid))
    target = np.exp(-s * grid)
    k = len(anchors_s)
    idx = np.array(list(itertools.combinations(range(grid.size), k)))
    A = E[:, idx].transpose(1, 0, 2)
    det = np.linalg.det(A)
    ok = np.abs(det) > 1e-13
    if not np.any(ok):
        return None
    b = np.ascontiguousarray(
        np.broadcast_to(np.reshape(anchors_c, (1, k, 1)), (int(ok.sum()), k, 1))
    )
    w = np.linalg.solve(A[ok], b)[:, :, 0]
    feas = np.all(w >= -1e-11 * max(anchors_c[0], 1e-300), axis=1)
    if not np.any(feas):
        return None
    vals = np.einsum("ij,ij->i", w[feas], target[idx[ok][feas]])
    return float(vals.min()), float(vals.max())


def _theta_time_core(rs, s, cfg):
    """Scaled Laplace values e^{r} integral e^{-st} Theta(r,t) dt and their
    bounds over an r grid.  Everything (quadrature, anchors, bracket) lives
    on the e^{r} scale so the grid form never underflows at large r."""
    s_anchors = np.array([0.5 * a * a for a in _ANCHOR_ORDERS])
    if not 0.0 < s <= s_anchors[-1]:
        raise DomainError("theta_time_laplace supports 0 < s <= 12.5")
    t, w, theta = _theta_time_nodes(rs, cfg)

    def q(rate):
        return (w * np.exp(-rate * t)) @ theta

    value = q(s)
    er = np.exp(rs)
    anchors_c = np.maximum(
        [er * np.array([bessel_i(nu, r, cfg) for r in rs]) - q(s_a)
         for nu, s_a in zip(_ANCHOR_ORDERS, s_anchors)],
        0.0,
    )
    for j in range(1, len(_ANCHOR_ORDERS)):  # Laplace values are nonincreasing in s
        anchors_c[j] = np.minimum(anchors_c[j], anchors_c[j - 1])
    noise = 4e-9 * (er + er * np.array([bessel_i(0.3, r, cfg) for r in rs]))
    bound = np.empty_like(value)
    for k in range(rs.size):
        if anchors_c[0, k] <= noise[k]:
            # missing mass indistinguishable from quadrature noise; bounds itself
            bound[k] = anchors_c[0, k] + noise[k]
            continue
        br = _completion_bracket(s_anchors, anchors_c[:, k], s, cfg.t_min_theta)
        if br is None:
            value[k] += anchors_c[0, k] * 0.5
            bound[k] = anchors_c[0, k] * 0.5 + noise[k]
        else:
            lo, hi = br
            value[k] += 0.5 * (lo + hi)
            bound[k] = 0.5 * (hi - lo) + noise[k]
    return value, bound


def theta_time_laplace(r, s, cfg=DEFAULT_QUAD):
    """integral_0^inf e^{-s t} Theta(r,t) dt with a documented small-t bound.

    Returns (value, bound).  The [t_min_theta, 400] part is honest panel
    quadrature in log t.  The mass below t_min_theta cannot be integrated
    directly (Theta is not evaluable there), but it is pinned by anchor
    values c_j = I_{nu_j}(r) - Q(nu_j^2/2) at orders nu_j in {0.3, 3, 5}:
    the completion added to Q(s) is the midpoint of the sharp bracket over
    all positive measures on [0, t_min_theta] consistent with those
    anchors, and `bound` is the bracket halfwidth (plus anchor noise).
    Requires 0 < s <= max anchor rate; beyond 400 the e^{-st} tail is below
    1e-30 of the result for every supported s.
    """
    value, bound = _theta_time_core(np.array([float(r)]), s, cfg)
    scale = math.exp(-float(r))
    return float(value[0]) * scale, float(bound[0]) * scale
