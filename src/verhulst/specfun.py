"""Special functions behind the exact Verhulst-process formulas.

Modified Bessel functions of real order, the Hartman-Watson function
Theta(r,t), and the arcosh-based Laplace kernel.  Everything is plain
numpy; no external special-function library.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, require_nonnegative, require_positive

# Overflow guard for the I_nu ascending series: I_nu(x) ~ e^x/sqrt(2 pi x),
# safely representable up to x ~ 700; we stop well short of that.
BESSEL_I_MAX_X = 600.0

_EPS = np.finfo(float).eps
# ln(DBL_MAX): cosh and exp overflow past it
_LOG_DBL_MAX = math.log(np.finfo(float).max)

# The one quadrature policy of every closed form: absolute and relative
# tolerance of the quadratures and series,
ABS_TOL = 1e-10
REL_TOL = 1e-8
# the smallest t at which Theta is evaluated (below it the e^{pi^2/(2t)}
# prefactor amplifies roundoff past any tolerance),
T_MIN_THETA = 0.2
# and the panel budget of one Theta node set and how far above ABS_TOL
# (on the e^{r} scale of the value) its integrand is cut.
_MAX_PANELS = 2000
_Z_CUT_FACTOR = 10.0


@dataclass(frozen=True)
class BesselOrder:
    """Order nu >= 0 of I_nu / K_nu."""

    nu: float

    def __post_init__(self):
        require_nonnegative("Bessel order", self.nu)

    @classmethod
    def from_rate(cls, lam):
        """Order sqrt(2*lam + 1/4) attached to an exponential rate lam > 0."""
        require_positive("rate", lam)
        return cls(math.sqrt(2.0 * lam + 0.25))


def _order(nu):
    return nu.nu if isinstance(nu, BesselOrder) else BesselOrder(float(nu)).nu


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panels(breaks, ends=None):
    """Gauss-Legendre 16 nodes/weights over consecutive [a,b] panels, or
    over the panels [breaks[i], ends[i]] when ends is given."""
    a, b = (breaks[:-1], breaks[1:]) if ends is None else (breaks, ends)
    h = 0.5 * (b - a)
    mid = a + h
    z = (h[:, None] * _GL_NODES + mid[:, None]).ravel()
    w = (h[:, None] * _GL_WEIGHTS).ravel()
    return z, w


def log_panels(u_lo, u_hi, per_unit, min_panels, u_kink=None):
    """Gauss-Legendre 16 nodes z = e^u and weights for du = dz/z over
    [u_lo, u_hi] in u = ln z.

    A u_kink strictly inside the range becomes a panel break, and each
    side of it (or the whole range) gets max(min_panels, ceil(per_unit *
    length)) equal panels, so no panel straddles the kink.
    """
    if u_kink is not None and u_lo < u_kink < u_hi:
        pieces = [(u_lo, u_kink), (u_kink, u_hi)]
    else:
        pieces = [(u_lo, u_hi)]
    breaks = [
        np.linspace(a, b, max(min_panels, int(math.ceil(per_unit * (b - a)))) + 1)
        for a, b in pieces
    ]
    u, w = _panels(np.concatenate([breaks[0]] + [b[1:] for b in breaks[1:]]))
    return np.exp(u), w


def log_panel_integral(fn, lo, hi, kink):
    """Integral of the scalar fn over [lo, hi] on log panels (2.4 per
    unit of ln z, at least 4 a side), with a break at the kink."""
    z, w = log_panels(math.log(lo), math.log(hi), 2.4, 4, math.log(kink))
    return float(np.dot(w, z * np.array([fn(zi) for zi in z])))


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) by the ascending power series.

    All series terms are positive, so there is no cancellation and the
    term-ratio stop at REL_TOL is also a remainder bound.  Supported for
    0 <= x <= 600 (DomainError above; the series itself would overflow
    near x ~ 700), any finite nu >= 0.
    """
    nu = _order(nu)
    require_nonnegative("x", x)
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
        if k > 3 and term <= REL_TOL * 1e-4 * total:
            return total
        if k > 10000:  # unreachable on the guarded domain
            raise ConvergenceError("bessel_i series stalled")


def bessel_k(nu, x):
    """Modified Bessel K_nu(x) via K_nu = integral e^{-x cosh u} cosh(nu u) du.

    Computed in the scaled form e^x K_nu (integrand e^{-x(cosh u - 1)}
    cosh(nu u), positive and monotone-decaying past its peak) on composite
    Gauss-Legendre panels; the truncation point solves
    x(cosh u - 1) - nu*u = L by fixed-point iteration.  Refused where
    cosh(nu*u) overflows on that range (large nu or tiny x), before any
    node is allocated.
    """
    nu = _order(nu)
    require_positive("x", x)
    L = -math.log(ABS_TOL) + 18.0
    u_max = 1.0
    for _ in range(60):
        nxt = math.acosh(1.0 + (L + nu * u_max) / x)
        if abs(nxt - u_max) < 1e-9:
            break
        u_max = nxt
    if not nu * u_max <= _LOG_DBL_MAX:  # also a cut u_max of inf or NaN
        raise DomainError(
            f"bessel_k(nu={nu:g}, x={x:g}) is out of range: the quadrature cut "
            f"u_max={u_max:g} is not finite or cosh(nu*u_max) overflows"
        )
    width = min(0.5, 2.0 / (1.0 + nu))
    n_pan = max(4, int(math.ceil(u_max / width)))
    z, w = _panels(np.linspace(0.0, u_max, n_pan + 1))
    vals = np.exp(-x * (np.cosh(z) - 1.0)) * np.cosh(nu * z)
    return math.exp(-x) * float(np.dot(w, vals))


def bessel_product_F(nu, x, y):
    """Symmetric product I_nu(min(x,y)) * K_nu(max(x,y)).

    I takes the smaller argument and K the larger one; that orientation is
    what makes the exponential-time density integrable at both ends.
    """
    require_positive("x", x)
    require_positive("y", y)
    lo, hi = (x, y) if x <= y else (y, x)
    return bessel_i(nu, lo) * bessel_k(nu, hi)


def _theta_breaks(r, t, r_cap=None):
    """Panel breakpoints for the Theta integrand.

    Half-period panels of sin(pi z/t), with panel width additionally capped
    at min(1.5, 3.5/sqrt(r_cap)) so both the cosh envelope at large t and
    the near-Gaussian e^{-r z^2/2} envelope at large r stay resolved by a
    16-node rule.  Truncated where the envelope e^{-z^2/(2t) - r(cosh z -
    1) + z} times the e^{pi^2/(2t)} prefactor drops below ABS_TOL *
    _Z_CUT_FACTOR, i.e. the cut is on the e^{r} scale of the value; past
    the envelope peak the panel-start value bounds the remainder scale.

    Grid callers pass r = smallest element (weakest damping, so the range
    covers every element) and r_cap = largest (finest width requirement
    and biggest prefactor, so the cut is deep enough for every element);
    for a single r the two coincide.
    """
    rc = r_cap if r_cap is not None else r
    log_pref = math.pi**2 / (2.0 * t) + math.log(rc / math.sqrt(2.0 * math.pi**3 * t))
    log_cut = math.log(ABS_TOL * _Z_CUT_FACTOR) - log_pref
    width = min(1.5, 3.5 / math.sqrt(rc))
    # envelope peak z* solves 1 - z/t - r sinh z = 0, so z* <= min(t, asinh(1/r))
    z_peak = min(t, math.asinh(1.0 / r))
    breaks = [0.0]
    k = 1
    while True:
        z = breaks[-1]
        if z > z_peak and -z * z / (2.0 * t) - r * (math.cosh(z) - 1.0) + z < log_cut:
            break
        if len(breaks) > _MAX_PANELS:
            raise ConvergenceError(f"theta quadrature at t={t:g} exceeded {_MAX_PANELS} panels")
        while k * t <= z + 1e-15:
            k += 1
        breaks.append(min(k * t, z + width))
    return np.array(breaks)


def hartman_watson_theta(r, t):
    """Hartman-Watson function Theta(r,t), the kernel whose Laplace
    transform in nu^2/2 is I_nu(r).

    Theta(r,t) = r/sqrt(2 pi^3 t) * e^{pi^2/(2t)} *
                 integral_0^inf e^{-z^2/(2t)} e^{-r cosh z} sinh(z)
                 sin(pi z / t) dz

    Parameters
    ----------
    r, t : finite floats, r > 0 and t >= T_MIN_THETA.  Below T_MIN_THETA
        the e^{pi^2/(2t)} prefactor amplifies roundoff past any tolerance
        (DomainError; no small-t scheme is attempted).

    Gauss-Legendre 16 on panels aligned with the sign changes of
    sin(pi z/t), evaluated as e^{-r} times hartman_watson_theta_grid of
    the one r; the density integrands consume that grid's e^{r}-scaled
    value directly (their own exponentials absorb the e^{-r}).  Sign
    rule, on the e^{r} scale like the quadrature cut: with the error
    floor (8 eps + REL_TOL) * prefactor * unsigned mass, a scaled value
    below -max(ABS_TOL, floor) raises ConvergenceError and smaller
    negatives are clamped to 0.
    """
    return float(hartman_watson_theta_grid(np.array([float(r)]), t)[0]) * math.exp(-r)


# Element budget of one t-chunk of the Theta kernel: a chunk's damping
# matrix holds about this many doubles (128 KiB).  theta_time_laplace's
# 2,880-t call then peaks within 0.5 MB of the RSS its one-t calls
# reached; at 2**17 doubles it peaked 6 MB higher, and was no faster.  A t
# whose own node set needs more is a chunk of its own.
_THETA_CHUNK_ELEMS = 2**14


def _theta_sums(rs, ts, breaks):
    """GL sums of the Theta integrand without its prefactor, signed and
    unsigned, as (ts.size, rs.size) matrices; breaks[i] are the panel
    breaks of ts[i].

    The t are taken in chunks whose damping matrix holds about
    _THETA_CHUNK_ELEMS doubles; the nodes of a chunk's t lie back to back
    in one flat array, so every transcendental is one numpy call per chunk.
    """
    counts = [16 * (b.size - 1) for b in breaks]
    dots = np.empty((ts.size, rs.size))
    masses = np.empty_like(dots)
    stop = 0
    while stop < ts.size:
        start, size = stop, counts[stop] * rs.size
        stop += 1
        while stop < ts.size and size + counts[stop] * rs.size <= _THETA_CHUNK_ELEMS:
            size += counts[stop] * rs.size
            stop += 1
        chunk = breaks[start:stop]
        z, w = _panels(
            np.concatenate([b[:-1] for b in chunk]), np.concatenate([b[1:] for b in chunk])
        )
        tz = ts[start:stop].repeat(counts[start:stop])
        base = np.exp(-z * z / (2.0 * tz)) * np.sinh(z) * np.sin(np.pi * z / tz) * w
        unsigned_base = np.abs(base)
        # in place: at 240 r x 300 z, allocating a fresh matrix for each
        # step doubled the time of the step (0.83 against 0.41 ms)
        damp = rs.reshape(-1, 1) * (np.cosh(z) - 1.0)
        np.negative(damp, out=damp)
        with np.errstate(under="ignore"):
            np.exp(damp, out=damp)
        # one dot product per (t, r) over that t's own nodes: a matrix
        # product (BLAS gemv) accumulates in an order that depends on the
        # number of rows
        lo = 0
        for i in range(start, stop):
            hi = lo + counts[i]
            dots[i] = np.vecdot(damp[:, lo:hi], base[lo:hi])
            masses[i] = np.vecdot(damp[:, lo:hi], unsigned_base[lo:hi])
            lo = hi
    return dots, masses


def hartman_watson_theta_grid(rs, t, with_floor=False):
    """e^{r} Theta(r,t) for an array of r values at one t, or at each t of
    a 1-d array: the kernel behind hartman_watson_theta (quadrature and
    sign rule stated there).  A scalar t gives a vector like rs, an array
    t a (t.size, rs.size) matrix whose row i is the call at t[i].

    Each t gets one node set built from the smallest r (range) and the
    largest r (panel width, cut depth).  Each (t, r) value is reduced on
    its own, so a row's values do not depend on the other t in the call,
    and a value whose own node set is the batch's equals the one-r call
    bit for bit, whatever else the batch holds.
    For any other r the batch only adds tail panels past that r's own
    cut, where its integrand is below ABS_TOL * _Z_CUT_FACTOR on the e^{r}
    scale, or, when the largest r narrows the panel width below the
    half-period t, finer panels.

    with_floor additionally returns the mask `trusted`: values above 30
    times the *realistic* cancellation floor 8 eps * prefactor * unsigned
    mass.  At small r the true value sinks below that floor (Theta
    vanishes faster than any power of r) and an untrusted output is
    positive noise a caller must discount.  The raise guard keeps the
    larger REL_TOL-based floor so that an honest tiny negative never
    trips it.
    """
    rs = np.asarray(rs, dtype=float)
    t_in = np.asarray(t, dtype=float)
    if t_in.ndim > 1:
        raise DomainError("theta takes t as a scalar or a 1-d array")
    r_min, r_max = float(rs.min()), float(rs.max())
    if not (r_min > 0 and r_max < math.inf):  # a NaN r makes both NaN
        raise DomainError("theta needs finite r > 0")
    ts = t_in.reshape(-1)
    tl = ts.tolist()
    for ti in tl:
        if not (math.isfinite(ti) and ti >= T_MIN_THETA):
            raise DomainError(f"theta t must be finite and >= {T_MIN_THETA:g}, got t={ti:g}")
    breaks = [_theta_breaks(r_min, ti, r_cap=r_max) for ti in tl]
    dots, masses = _theta_sums(rs, ts, breaks)
    # math.exp per t, not np.exp: the two can differ in the last bit
    sqrt_t = np.array([math.sqrt(2.0 * math.pi**3 * ti) for ti in tl])
    exp_t = np.array([math.exp(math.pi**2 / (2.0 * ti)) for ti in tl])
    pref = rs / sqrt_t[:, None] * exp_t[:, None]
    vals = pref * dots
    unsigned = pref * masses
    guard = np.maximum(ABS_TOL, (8.0 * _EPS + REL_TOL) * unsigned)
    negative = vals < -guard
    if negative.any():
        i = int(negative.any(axis=1).argmax())
        raise ConvergenceError(
            f"theta at t={tl[i]:g} negative beyond quadrature floor: {float(vals[i].min()):g}"
        )
    vals = np.where(vals < 0.0, 0.0, vals)
    rows = 0 if t_in.ndim == 0 else slice(None)
    if with_floor:
        return vals[rows], (vals > 30.0 * (8.0 * _EPS * unsigned))[rows]
    return vals[rows]


def phi_arcosh(x, y):
    """arcosh(x e^{-y} + cosh y) in the explicit logarithm form.

    The argument of the square root is expanded as
    x^2 e^{-2y} + sinh^2 y + 2 x e^{-y} cosh y, which equals c^2 - 1 for
    c = x e^{-y} + cosh y but never cancels; at x = 0 the result is |y|
    exactly.  Broadcasts over numpy arrays.
    """
    x = np.asarray(x, dtype=float)
    if not (np.all((x >= 0) & (x < math.inf)) and np.all(np.isfinite(y))):
        raise DomainError("phi_arcosh: x must be finite and >= 0, and y finite")
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
    require_positive("t", t)
    phi = phi_arcosh(z, x)
    out = np.exp(-(phi * phi - np.square(x)) / (2.0 * t))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Laplace transform of Theta in its time argument.

_ANCHOR_ORDERS = (0.3, 3.0, 5.0)
_T_LAPLACE_HI = 400.0
_T_LAPLACE_PANELS = 180


def _theta_time_nodes(rs):
    """Log-spaced GL nodes/weights on [T_MIN_THETA, 400] and the matrix of
    scaled values e^{r} Theta(r, t_i) over an r grid, from one kernel call
    over all t nodes."""
    breaks = T_MIN_THETA * np.exp(
        np.linspace(0.0, math.log(_T_LAPLACE_HI / T_MIN_THETA), _T_LAPLACE_PANELS + 1)
    )
    u, w = _panels(np.log(breaks))
    t = np.exp(u)
    return t, w * t, hartman_watson_theta_grid(rs, t)


def anchor_completion(rates, anchors, s, tau):
    """Completion (mid, half) of a Laplace transform at rate s from the
    mass on [0, tau] that quadrature cannot reach.

    anchors[j] is that mass's transform at rates[j] (increasing rates),
    measured as a closed form minus the quadrature.  The anchors are
    clamped at 0 and made nonincreasing in the rate, as any transform of
    a positive measure is.  mid and half are the midpoint and halfwidth
    of the sharp two-sided bracket of integral e^{-s T} d mu(T) over
    positive measures mu on [0, tau] with those anchor values.  Extremal
    measures put mass on at most len(rates) atoms; all atom supports on
    a grid are scanned.  When no support fits, (c_0/2, c_0/2) with c_0
    the first anchor: the transform lies in [0, c_0] for s >= rates[0].
    """
    c = np.minimum.accumulate(np.maximum(np.asarray(anchors, dtype=float), 0.0))
    grid = np.linspace(0.0, tau, 41)
    E = np.exp(-np.outer(rates, grid))
    target = np.exp(-s * grid)
    k = len(rates)
    idx = np.array(list(itertools.combinations(range(grid.size), k)))
    A = E[:, idx].transpose(1, 0, 2)
    det = np.linalg.det(A)
    ok = np.abs(det) > 1e-13
    feas = np.zeros(0, dtype=bool)
    if np.any(ok):
        b = np.ascontiguousarray(
            np.broadcast_to(np.reshape(c, (1, k, 1)), (int(ok.sum()), k, 1))
        )
        w = np.linalg.solve(A[ok], b)[:, :, 0]
        feas = np.all(w >= -1e-11 * max(c[0], 1e-300), axis=1)
    if not np.any(feas):
        return 0.5 * c[0], 0.5 * c[0]
    vals = np.einsum("ij,ij->i", w[feas], target[idx[ok][feas]])
    lo, hi = float(vals.min()), float(vals.max())
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def theta_time_laplace(r, s):
    """integral_0^inf e^{-s t} Theta(r,t) dt with a documented small-t bound.

    Returns (value, bound).  The [T_MIN_THETA, 400] part is honest panel
    quadrature in log t.  The mass below T_MIN_THETA cannot be integrated
    directly (Theta is not evaluable there), but it is pinned by anchor
    values c_j = I_{nu_j}(r) - Q(nu_j^2/2) at orders nu_j in {0.3, 3, 5}:
    the completion added to Q(s) is the midpoint of the sharp bracket over
    all positive measures on [0, T_MIN_THETA] consistent with those
    anchors, and `bound` is the bracket halfwidth (plus anchor noise).

    Requires 0.045 <= s <= 12.5, the range of the anchor rates.  Beyond
    400 the e^{-st} tail is below e^{-400 s} I_0(r): under 1e-30 of the
    result from s = 0.18 on, and nearer 0.045 the first anchor, which
    carries its own tail, moves most of it into the completion.  Below
    0.045 the tail outgrows the bound (at s = 1e-3, r = 0.5 the value
    misses by 9.2e-3 relative against a bound of 7.1e-9): DomainError.

    Quadrature, anchors and bracket live on the e^{r} scale, so nothing
    underflows at large r; the results are scaled back at the end.
    """
    s_anchors = np.array([0.5 * a * a for a in _ANCHOR_ORDERS])
    if not s_anchors[0] <= s <= s_anchors[-1]:
        raise DomainError(
            f"theta_time_laplace supports {s_anchors[0]:g} <= s <= {s_anchors[-1]:g}"
        )
    r = float(r)
    t, w, theta = _theta_time_nodes(np.array([r]))

    def q(rate):
        return ((w * np.exp(-rate * t)) @ theta)[0]

    er = np.exp(r)
    anchors = np.array(
        [er * bessel_i(nu, r) - q(s_a) for nu, s_a in zip(_ANCHOR_ORDERS, s_anchors)]
    )
    noise = 4e-9 * (er + er * bessel_i(0.3, r))
    missing = max(anchors[0], 0.0)
    if missing <= noise:
        # missing mass indistinguishable from quadrature noise; bounds itself
        mid, half = 0.0, missing
    else:
        mid, half = anchor_completion(s_anchors, anchors, s, T_MIN_THETA)
    scale = math.exp(-r)
    return float(q(s) + mid) * scale, float(half + noise) * scale
