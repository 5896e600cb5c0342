"""Special functions behind the exact Verhulst-process formulas.

Modified Bessel functions of real order, the Hartman-Watson function
Theta(r,t), the K_1 mixture of Theta behind the drift -1/2 density, and
the arcosh-based Laplace kernel.  Everything is plain
numpy; no external special-function library.
"""

import functools
import itertools
import math

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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# element budget of a block of a batched kernel's temporaries (256 KiB)
_BLOCK_ELEMS = 2**15
# node budget of a chunk of a batched quadrature's items (64 KiB a node
# array): its dozen node arrays stay in cache and below the allocator's
# mmap threshold, so a whole curve adds no more than a lone point to the
# resident set
_CHUNK_NODES = 2**13


def _panels(lo, hi):
    """Gauss-Legendre 16 nodes/weights over the panels [lo[i], hi[i]]."""
    h = 0.5 * (hi - lo)
    mid = lo + h
    z = (h[:, None] * _GL_NODES + mid[:, None]).ravel()
    w = (h[:, None] * _GL_WEIGHTS).ravel()
    return z, w


def _starts(counts):
    """Index of each item's first element, the items' runs of `counts`
    elements laid back to back (the offsets np.add.reduceat takes)."""
    return list(itertools.accumulate(counts[:-1], initial=0))


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
    breaks = np.concatenate([breaks[0]] + [b[1:] for b in breaks[1:]])
    u, w = _panels(breaks[:-1], breaks[1:])
    return np.exp(u), w


def log_panel_integral(fn, lo, hi, kink):
    """Integral of fn over [lo, hi] on log panels (2.4 per unit of ln z, at
    least 4 a side), with a break at the kink; fn takes the node array."""
    z, w = log_panels(math.log(lo), math.log(hi), 2.4, 4, math.log(kink))
    return float(np.dot(w, z * fn(z)))


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) by the ascending power series, for a number
    or an array x (a number gives a float).

    All series terms are positive, so there is no cancellation and the
    term-ratio stop at REL_TOL is also a remainder bound.  The stop rule
    reads the running sum, so the batch steps k over the x whose series
    has not stopped, each x leaving at its own stop: an element's terms
    and sum are those of its series alone, whatever else the batch holds.
    Supported for 0 <= x <= 600 (DomainError above, naming the x; the
    series itself would overflow near x ~ 700), any finite nu >= 0.
    """
    require_nonnegative("Bessel order", nu)
    require_nonnegative("x", x)
    xs = np.asarray(x, dtype=float)
    over = xs > BESSEL_I_MAX_X
    if over.any():
        raise DomainError(
            f"bessel_i overflow guard: x > {BESSEL_I_MAX_X:g}, got x={xs[over].flat[0]:g}"
        )
    uniq, inv = np.unique(xs, return_inverse=True)
    out = np.full(uniq.shape, 1.0 if nu == 0.0 else 0.0)
    live = np.flatnonzero(uniq > 0.0)
    xl = uniq[live]
    term = np.exp(nu * np.log(0.5 * xl) - math.lgamma(nu + 1.0))
    total = term.copy()
    q = 0.25 * xl * xl
    k = 0
    while live.size:
        k += 1
        if k > 10000:  # unreachable on the guarded domain
            raise ConvergenceError("bessel_i series stalled")
        term *= q / (k * (k + nu))
        total += term
        if k > 3 and (done := term <= REL_TOL * 1e-4 * total).any():
            out[live[done]] = total[done]
            keep = ~done
            live, term, total, q = live[keep], term[keep], total[keep], q[keep]
    out = out[inv.ravel()].reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def _bessel_k_scaled(nu, x):
    """e^{x} K_nu(x) for an array x > 0, the scaled integral behind
    bessel_k: each x its own cut u_max and panel count, the panels of all
    x back to back in chunks of about _CHUNK_NODES nodes, one
    np.add.reduceat per chunk."""
    require_nonnegative("Bessel order", nu)
    require_positive("x", x)
    xs = np.asarray(x, dtype=float)
    uniq, inv = np.unique(xs, return_inverse=True)
    L = -math.log(ABS_TOL) + 18.0
    u_max = np.ones_like(uniq)
    live = np.ones(uniq.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny x: u_max of inf or NaN
        for _ in range(60):
            nxt = np.arccosh(1.0 + (L + nu * u_max) / uniq)
            live &= ~(np.abs(nxt - u_max) < 1e-9)
            if not live.any():
                break
            u_max = np.where(live, nxt, u_max)
        bad = ~(nu * u_max <= _LOG_DBL_MAX)  # also a cut u_max of inf or NaN
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(
            f"bessel_k(nu={nu:g}, x={uniq[k]:g}) is out of range: the quadrature cut "
            f"u_max={u_max[k]:g} is not finite or cosh(nu*u_max) overflows"
        )
    width = min(0.5, 2.0 / (1.0 + nu))
    n_pan = np.maximum(4, np.ceil(u_max / width)).astype(np.intp)
    out = np.empty_like(uniq)
    rows = max(1, _CHUNK_NODES // (16 * int(n_pan.max())))
    for i in range(0, uniq.size, rows):
        n, u = n_pan[i : i + rows], u_max[i : i + rows]
        item = np.repeat(np.arange(n.size), n)
        j = np.arange(item.size) - np.repeat(_starts(n), n)
        step = (u / n)[item]
        # np.linspace(0, u, n + 1) of each x, its last break u itself
        hi = (j + 1) * step
        hi[np.cumsum(n) - 1] = u
        z, w = _panels(j * step, hi)
        vals = np.exp(-np.repeat(uniq[i : i + rows], 16 * n) * (np.cosh(z) - 1.0)) * np.cosh(nu * z)
        out[i : i + rows] = np.add.reduceat(w * vals, _starts(16 * n))
    return out[inv.ravel()].reshape(xs.shape)


def bessel_k(nu, x):
    """Modified Bessel K_nu(x) via K_nu = integral e^{-x cosh u} cosh(nu u)
    du, for a number or an array x (a number gives a float).

    Computed in the scaled form e^x K_nu (integrand e^{-x(cosh u - 1)}
    cosh(nu u), positive and monotone-decaying past its peak) on composite
    Gauss-Legendre panels; the truncation point solves
    x(cosh u - 1) - nu*u = L by fixed-point iteration, each x on its own.
    Refused where cosh(nu*u) overflows on that range (large nu or tiny
    x), naming the x, before any node is allocated.  Any finite nu >= 0.
    Past x ~ 745 e^{-x} underflows and the value is 0; a product with
    K_nu that must stay representable takes _bessel_k_scaled in logs.
    """
    xs = np.asarray(x, dtype=float)
    out = np.exp(-xs) * _bessel_k_scaled(nu, xs)
    return float(out) if out.ndim == 0 else out


def bessel_product_log(nu, x, y):
    """ln(I_nu(min(x,y)) K_nu(max(x,y))), broadcast over x and y.

    Formed from the scaled e^{max} K_nu(max) of bessel_k's quadrature, so
    it stays finite where the product itself underflows (where max - min
    passes ~745); -inf only where I_nu(min) underflows.
    """
    require_positive("x", x)
    require_positive("y", y)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    with np.errstate(divide="ignore"):  # I_nu(min) underflowed
        out = np.log(bessel_i(nu, lo)) + np.log(_bessel_k_scaled(nu, hi)) - hi
    return float(out) if out.ndim == 0 else out


def bessel_product_F(nu, x, y):
    """Symmetric product I_nu(min(x,y)) * K_nu(max(x,y)), broadcast over x
    and y: e to bessel_product_log.

    I takes the smaller argument and K the larger one; that orientation is
    what makes the exponential-time density integrable at both ends.
    """
    out = np.exp(bessel_product_log(nu, x, y))
    return float(out) if out.ndim == 0 else out


def _half_period_breaks(t, damp, log_cut, width, z_peak):
    """Panel breakpoints for an integrand e^{-z^2/(2t)} sinh(z) sin(pi z/t)
    times a factor bounded by e^{-damp(z)}, with damp convex and damp(0)
    = 0 (a negative damp is growth).

    Half-period panels of sin(pi z/t), at most `width` wide.  The log
    envelope -z^2/(2t) - damp(z) + z (sinh z < e^z) is concave, so past
    its peak, which the caller bounds by z_peak, it decreases and the
    panel-start value bounds the remainder scale: the node set ends at the
    first break past z_peak where the log envelope is below log_cut.
    ConvergenceError past _MAX_PANELS panels;
    DomainError where a break would pass ln(DBL_MAX), beyond which cosh
    and sinh of the nodes overflow and an integrand value is inf * 0.
    """
    breaks = [0.0]
    k = 1
    while True:
        z = breaks[-1]
        if z > z_peak and -z * z / (2.0 * t) - damp(z) + z < log_cut:
            break
        if len(breaks) > _MAX_PANELS:
            raise ConvergenceError(f"quadrature at t={t:g} exceeded {_MAX_PANELS} panels")
        while k * t <= z + 1e-15:
            k += 1
        nxt = min(k * t, z + width)
        if nxt > _LOG_DBL_MAX:
            raise DomainError(
                f"quadrature at t={t:g} is cut past z={_LOG_DBL_MAX:.6g}, "
                f"where cosh(z) overflows"
            )
        breaks.append(nxt)
    return np.array(breaks)


def _theta_breaks(r_min, r_max, t):
    """_half_period_breaks for the Theta integrand of every r in [r_min,
    r_max], damping e^{-r(cosh z - 1)}.

    The panel width is capped at min(1.5, 3.5/sqrt(r)) so both the cosh
    envelope at large t and the near-Gaussian e^{-r z^2/2} envelope at
    large r stay resolved by a 16-node rule.  The cut is at ABS_TOL *
    _Z_CUT_FACTOR on the e^{r} scale of the value (prefactor r/sqrt(2 pi^3
    t) e^{pi^2/(2t)}), and the envelope peak solves 1 - z/t - r sinh z =
    0, so z* <= min(t, asinh(1/r)).

    The damping and the peak take r_min (weakest damping, so the range
    covers every r), the width and the cut r_max (finest width and
    biggest prefactor, so the cut is deep enough for every r); for a
    single r the two coincide.
    """
    log_pref = math.pi**2 / (2.0 * t) + math.log(r_max / math.sqrt(2.0 * math.pi**3 * t))
    return _half_period_breaks(
        t,
        lambda z: r_min * (math.cosh(z) - 1.0),
        math.log(ABS_TOL * _Z_CUT_FACTOR) - log_pref,
        min(1.5, 3.5 / math.sqrt(r_max)),
        min(t, math.asinh(1.0 / r_min)),
    )


def _zeta_nodes(lo, hi, t):
    """Gauss-Legendre 16 nodes z on the panels [lo[i], hi[i]], and their
    weights times the kernel e^{-z^2/(2t)} sinh(z) sin(pi z/t) of Theta and
    its mixtures, t one number or one per node."""
    z, w = _panels(lo, hi)
    kern = np.exp(z * z / (-2.0 * t))  # the bits of e^{-z^2/(2t)}: negation is exact
    kern *= np.sinh(z)
    kern *= np.sin(np.pi * z / t)
    kern *= w
    return z, kern


def _zeta_value(signed, unsigned, ts, what, scale=1.0):
    """(value, floor 8 eps pref unsigned) of each item's _zeta_nodes sum
    `signed` times pref = scale/sqrt(2 pi^3 t) e^{pi^2/(2t)}, at the item's
    t in the sequence `ts` (one t may serve every item), `unsigned` its sum
    of absolute terms.  A value below -max(ABS_TOL * _Z_CUT_FACTOR, (8 eps
    + REL_TOL) pref unsigned) raises ConvergenceError, naming its t;
    smaller negatives, which the cut depth or the floor allow, are clamped
    to 0."""
    # t's factors in math, one t at a time: an item's bits are those of its lone call
    root, growth = np.array([(math.sqrt(2.0 * math.pi**3 * t), math.exp(math.pi**2 / (2.0 * t)))
                             for t in ts]).T
    pref = scale / root * growth
    vals = pref * signed
    unsigned = pref * unsigned
    neg = vals < -np.maximum(ABS_TOL * _Z_CUT_FACTOR, (8.0 * _EPS + REL_TOL) * unsigned)
    if np.count_nonzero(neg):
        k = int(np.argmax(neg))
        raise ConvergenceError(
            f"{what} at t={np.broadcast_to(ts, neg.shape)[k]:g} negative beyond "
            f"quadrature floor: {vals[k]:g}"
        )
    return np.maximum(vals, 0.0), 8.0 * _EPS * unsigned


def hartman_watson_theta(r, t):
    """Hartman-Watson function Theta(r,t), the kernel whose Laplace
    transform in nu^2/2 is I_nu(r),

        Theta(r,t) = r/sqrt(2 pi^3 t) e^{pi^2/(2t)} integral_0^inf
                     e^{-z^2/(2t)} e^{-r cosh z} sinh(z) sin(pi z/t) dz,

    for finite r > 0 and t >= T_MIN_THETA (below it the e^{pi^2/(2t)}
    prefactor amplifies roundoff past any tolerance: DomainError).  It is
    e^{-r} times hartman_watson_theta_grid of the one r, Gauss-Legendre 16
    on the half periods of sin(pi z/t).  No library code calls it (the
    conditional Laplace kernel reads the grid's e^{r} scale, the densities
    take Theta's integral inside theirs); it stays public as the paper's
    unscaled Theta(r, t), the reference the tests hold the grid to.  The
    sign rule is _zeta_value's on the e^{r} scale, that of the quadrature
    cut, whose depth ABS_TOL * _Z_CUT_FACTOR it allows: at r = 1e-8 and t
    = 4 the scaled value is -1.1e-10, honest truncation noise.
    """
    return float(hartman_watson_theta_grid(np.array([float(r)]), t)[0][0]) * math.exp(-r)


def hartman_watson_theta_grid(rs, t):
    """(values, floor) for a 1-d array of r at one scalar t: e^{r}
    Theta(r,t), the kernel behind hartman_watson_theta (quadrature and sign
    rule stated there), and per r its rounding floor, _zeta_value's 8 eps *
    prefactor * unsigned mass, on the same scale.

    The call builds one node set from the smallest r (range) and the
    largest r (panel width, cut depth), and reduces each r on its own, so
    a value whose own node set is the batch's equals the one-r call bit
    for bit, whatever else the batch holds.  For any other r the batch
    only adds tail panels past that r's own cut, where its integrand is
    below ABS_TOL * _Z_CUT_FACTOR on the e^{r} scale, or, when the largest
    r narrows the panel width below the half-period t, finer panels.
    """
    rs = np.asarray(rs, dtype=float)
    if rs.ndim != 1 or rs.size == 0:
        raise DomainError(f"theta: rs must be a nonempty 1-d array, got shape {rs.shape}")
    if np.ndim(t) != 0:
        raise DomainError(f"theta takes one scalar t, got t of shape {np.shape(t)}")
    t = float(t)
    r_min, r_max = float(rs.min()), float(rs.max())
    if not (r_min > 0 and r_max < math.inf):  # a NaN r makes both NaN
        raise DomainError("theta needs finite r > 0")
    if not (math.isfinite(t) and t >= T_MIN_THETA):
        raise DomainError(f"theta t must be finite and >= {T_MIN_THETA:g}, got t={t:g}")
    breaks = _theta_breaks(r_min, r_max, t)
    z, base = _zeta_nodes(breaks[:-1], breaks[1:], t)
    abs_base = np.abs(base)
    cz = np.cosh(z) - 1.0
    sums = np.empty((2, rs.size))
    # rows of r in 256 KiB blocks: every entry and row sum is the same
    # whatever the block, and a table of thousands of r (the bridge
    # curve's interpolant) never holds its whole r x z matrix at once
    rows = max(1, _BLOCK_ELEMS // z.size)
    for i in range(0, rs.size, rows):
        # in place: at 240 r x 300 z, allocating a fresh matrix for each
        # step doubled the time of the step (0.83 against 0.41 ms)
        damp = np.multiply.outer(rs[i : i + rows], cz)
        np.negative(damp, out=damp)
        with np.errstate(under="ignore"):
            np.exp(damp, out=damp)
        # one dot product per r: a matrix product (BLAS gemv) accumulates
        # in an order that depends on the number of rows
        sums[0, i : i + rows] = np.vecdot(damp, base)
        sums[1, i : i + rows] = np.vecdot(damp, abs_base)
    return _zeta_value(sums[0], sums[1], [t], "theta", scale=rs)


def _k1_nodes(rho0):
    """Nodes s^2 and weights of the trapezoid rule behind _k1_scaled for
    arguments rho >= rho0 > 0.

    e^{rho} K_1(rho) = sqrt(2/rho) integral_0^inf e^{-s^2} (1 + s^2/rho)
    / sqrt(1 + s^2/(2 rho)) ds (the Gamma-type integral of K_1, with u =
    s^2, integrated by parts), mapped by s = c sinh v, c = min(sqrt(2
    rho0), 1), and summed at step 1/8 in v from 0 (half weight) to the
    first node past asinh(6.3/c), where e^{-s^2} < 6e-18.  The integrand
    is even in v, so this is the trapezoid rule on the whole line, which
    converges exponentially in 1/step (Trefethen and Weideman, SIAM Rev.
    56, 2014): the branch points s = +-i sqrt(2 rho) of the square root
    sit at Im v = pi/2 or farther for every rho >= rho0.  22 nodes from
    rho0 = 1/2 up, 93 at rho0 = 1e-8.
    """
    return _k1_nodes_at(min(math.sqrt(2.0 * rho0), 1.0))


@functools.lru_cache(maxsize=16)
def _k1_nodes_at(c):
    """_k1_nodes at the map's scale c, built once: c = 1, the one node set
    of every rho0 >= 1/2, serves nearly every call.  Read-only arrays."""
    v = 0.125 * np.arange(math.ceil(8.0 * math.asinh(6.3 / c)) + 1)
    s = c * np.sinh(v)
    wts = 0.125 * c * np.cosh(v) * np.exp(-s * s)
    wts[0] *= 0.5
    s2 = s * s
    s2.flags.writeable = wts.flags.writeable = False
    return s2, wts


def _k1_scaled(rho, nodes):
    """e^{rho} K_1(rho) along a 1-d array rho on _k1_nodes(rho0), rho >=
    rho0: within 4.7e-16 relative of mpmath for rho0 in [1e-8, 1e4] and
    rho up to 1e8 rho0.  Rows of rho in blocks of _BLOCK_ELEMS entries,
    one dot product per row (np.vecdot), so a value depends on neither
    the block nor the rest of rho."""
    s2, wts = nodes
    rows = max(1, _BLOCK_ELEMS // s2.size)
    out = np.empty(rho.size)
    for i in range(0, rho.size, rows):
        r = rho[i : i + rows]
        q = np.multiply.outer(1.0 / r, s2)
        f = 1.0 + q
        q *= 0.5
        q += 1.0
        np.sqrt(q, out=q)
        f /= q
        out[i : i + rows] = np.sqrt(2.0 / r) * np.vecdot(f, wts)
    return out


def theta_k1_log_integral(x, w, t):
    """(ln H, relative floor) of the Theta mixture behind the drift -1/2 density

        H = e^{x+w}/(2xw) integral_0^inf e^{-z/2 - (x^2+w^2)/(2z)}
            Theta(xw/z, t) dz/z,

    as one integral in Theta's own variable zeta, broadcast over x, w and
    t (numbers give floats).  With the Theta integral inside, the z
    integral is closed, integral_0^inf z^{-2} e^{-z/2 - rho^2/(2z)} dz = 2
    K_1(rho)/rho (Gradshteyn-Ryzhik 3.471.9), so

        H = e^{pi^2/(2t)}/sqrt(2 pi^3 t) integral_0^inf e^{-zeta^2/(2t)}
            sinh(zeta) sin(pi zeta/t) e^{rho0 - rho} S(rho)/rho dzeta,

    rho = sqrt(x^2 + w^2 + 2xw cosh zeta), rho0 = x + w, S(rho) =
    e^{rho} K_1(rho) by _k1_scaled on one node set for every zeta.

    The zeta rule is _half_period_breaks with damping rho - rho0 =
    a^2/(rho + rho0), a = 2 sqrt(xw) sinh(zeta/2), which never cancels;
    the factor S(rho) rho0/(rho S(rho0)) <= 1 (S(rho)/rho decreases) is
    left out of the envelope.  rho - rho0 is convex and ~ (xw/rho0)
    zeta^2/2 near 0, so the panel width is capped at min(1.5, 3.5/sqrt(xw
    /rho0)), Theta's at r = xw/rho0; S(rho)/rho varies on a scale of
    rho0/sqrt(xw) >= 2 in zeta.  Since rho <= rho0 cosh(zeta/2), the
    damping's slope is at least 2 (xw/rho0) sinh(zeta/2), so the envelope
    peaks below min(t, 2 asinh(rho0/(2xw))).  The cut is where the
    envelope, relative to the integrand's amplitude S(rho0)/rho0 at zeta =
    0, falls below eps: e^{pi^2/(2t)} amplifies the dropped tail and the
    rounding of the sum alike, so the tail stays at the level of the sum's
    rounding floor at every t.  That is 64-320 nodes near the bulk at x =
    1 for t from 0.2 to 4 (131 on average over t in [0.25, 4]), times the
    22-93 nodes of S.  The sign rule and floor are _zeta_value's on the
    amplitude's scale; the floor over the value bounds H's relative
    rounding, and a clamped value gives (-inf, inf).  Where the cut would
    pass ln(DBL_MAX), which takes both a large t and a tiny xw (t = 1e6 at
    x = w = 1e-200), DomainError.  Needs t >= T_MIN_THETA.

    A batch is one pass: each item keeps its own breaks, the items' panels
    lie back to back in chunks of about _CHUNK_NODES nodes of items next
    to each other on one S node set (every rho0 >= 1/2 shares one), S runs
    once over a chunk's nodes, and each item reduces its own nodes, so an
    item's value is its one-item call's bit for bit.  One bad item refuses
    the whole call.
    """
    require_positive("x", x)
    require_positive("w", w)
    items = np.broadcast(x, w, t)
    out, chunk, nodes = [], [], 0
    for xi, wi, ti in items:
        xi, wi, ti = float(xi), float(wi), float(ti)
        if not T_MIN_THETA <= ti < math.inf:
            raise DomainError(f"theta t must be finite and >= {T_MIN_THETA:g}, got t={ti:g}")
        r0 = xi + wi
        if r0 == math.inf:
            raise DomainError(f"theta_k1_log_integral: x + w overflows at x={xi:g}, w={wi:g}")
        s = math.sqrt(xi) * math.sqrt(wi)  # xw itself may underflow

        def gap(z):  # called only within this item's _half_period_breaks
            a = 2.0 * s * math.sinh(0.5 * z)
            return a * (a / (math.hypot(r0, a) + r0))

        breaks = _half_period_breaks(
            ti, gap, math.log(_EPS),
            min(1.5, 3.5 * math.sqrt(r0) / s),
            min(ti, 2.0 * math.asinh(0.5 * r0 / s / s)),
        )
        k1_nodes = _k1_nodes(r0)  # built once for every rho0 >= 1/2
        # a chunk holds about _CHUNK_NODES nodes of items on one S node set
        if chunk and (nodes >= _CHUNK_NODES or k1_nodes is not chunk[0][3]):
            out += _k1_mixture_chunk(chunk)
            chunk, nodes = [], 0
        chunk.append((ti, r0, 2.0 * s, k1_nodes, breaks))
        nodes += 16 * (breaks.size - 1)
    if chunk:
        out += _k1_mixture_chunk(chunk)
    log_h, rel_floor = zip(*out)
    if items.shape == ():  # numbers
        return float(log_h[0]), float(rel_floor[0])
    return np.reshape(log_h, items.shape), np.reshape(rel_floor, items.shape)


def _k1_mixture_chunk(items):
    """(ln H, relative floor) of each item (t, rho0, 2 sqrt(xw), the S node
    set they share, breaks) of theta_k1_log_integral: one pass over the
    items' nodes, each item reduced on its own."""
    n = len(items)
    ts, rho0, two_sxw, k1_nodes, breaks = zip(*items)
    counts = [16 * (b.size - 1) for b in breaks]
    per = np.array((ts, rho0, two_sxw))
    rho0 = per[1]
    t, r0, c = per.repeat(counts, axis=1)
    # the items' panels back to back
    lo, hi = np.concatenate([b[:-1] for b in breaks]), np.concatenate([b[1:] for b in breaks])
    z, terms = _zeta_nodes(lo, hi, t)
    a = c * np.sinh(0.5 * z)
    rho = np.hypot(r0, a)
    # S at each item's rho0, then at its nodes
    k1 = _k1_scaled(np.concatenate((rho0, rho)), k1_nodes[0])
    with np.errstate(under="ignore"):
        terms *= np.exp(-a * (a / (rho + r0))) * k1[n:] / rho
    starts = _starts(counts)
    signed, unsigned = np.add.reduceat(terms, starts), np.add.reduceat(np.abs(terms), starts)
    # on the scale of the integrand's amplitude S(rho0)/rho0 at zeta = 0
    val, floor = _zeta_value(signed, unsigned, ts, "theta_k1_log_integral", scale=rho0 / k1[:n])
    # a value clamped to 0 gives (-inf, inf)
    return [
        (math.log(v) + math.log(k) - math.log(r), f / v) if v > 0.0 else (-math.inf, math.inf)
        for v, f, k, r in zip(val.tolist(), floor.tolist(), k1[:n].tolist(), rho0.tolist())
    ]


def theta_yor_integral(x, gamma, mu, t):
    """(value, bound) of the Theta mixture behind the general-drift density:
    Yor's joint law along e^b = x (1 + gamma a), with Theta(r, t)'s own
    integral inside, e^{-r cosh zeta} (r = 4q/v) joining e^{-2(1+q)^2/v} e^r:

        I = e^{pi^2/(2t)}/sqrt(2 pi^3 t) integral_0^inf e^{-zeta^2/(2t)}
            sinh(zeta) sin(pi zeta/t) D(zeta) dzeta,   c = cosh(zeta) - 1,
        D = integral_0^inf 2 q^{2mu+1} v^{-2} e^{-2(1+q)^2/v} [e^{-c r} - 1
            + c r] dv,   q^2 = x (1 + gamma v).

    No Theta value is formed.  -1 + c r change nothing: the zeta kernel
    times any power of cosh(zeta) integrates to 0 (Theta(r)/r vanishes to
    every order at r = 0).  They leave a v-tail ~ v^{mu-5/2}; c r's
    coefficient diverges from mu = 1 on (DomainError, as for t <
    T_MIN_THETA).  zeta: _half_period_breaks, damping -zeta for D ~ c, cut
    at eps.  v: the trapezoid in ln v at a step <= 1/10, from where
    e^{-2(1+q)^2/v}/v is 1e-17 of its peak to 10 deviations past the law's
    own mass, in ln v a Gaussian of deviation 2 sqrt(t) centred below ln(4
    x gamma) + 4 mu t.  The bound adds the zeta sum's floor (8 eps times
    its absolute terms), the v rule's halving difference (the even nodes'
    trapezoid, no extra evaluation) and eps times each v exponent.
    """
    require_positive("x", x)
    require_positive("gamma", gamma)
    if not (mu < 1.0 and math.isfinite(mu) and math.isfinite(t) and t >= T_MIN_THETA):
        raise DomainError(f"mu must be finite and < 1, t >= {T_MIN_THETA:g}: mu={mu:g}, t={t:g}")
    u_lo = math.log(2.0 * (1.0 + math.sqrt(x)) ** 2 / 45.0)
    u_hi = max(30.0, math.log(16.0 * x * (1.0 + gamma)) + 4.0 * max(mu, 0.0) * t + 20.0 * t**0.5)
    if not u_hi + math.log1p(gamma) + max(math.log(x), 0.0) < _LOG_DBL_MAX:
        raise DomainError(f"theta_yor_integral: v overflows at x={x:g}, gamma={gamma:g}")
    u = np.linspace(u_lo, u_hi, 2 * math.ceil(5.0 * (u_hi - u_lo)) + 1)
    lq = 0.5 * (math.log(x) + np.log1p(gamma * np.exp(u)))
    expo = (2.0 * mu + 1.0) * lq - u - 2.0 * (1.0 + np.exp(lq)) ** 2 * np.exp(-u)
    breaks = _half_period_breaks(t, lambda z: -z, math.log(_EPS), 1.5, 2.0 * t)
    z, kern = _zeta_nodes(breaks[:-1], breaks[1:], t)
    with np.errstate(under="ignore"):
        f = 2.0 * (u[1] - u[0]) * np.exp(expo)
    f[[0, -1]] *= 0.5
    halving = np.where(np.arange(u.size) % 2 == 1, -f, f)  # the even nodes' rule less f's
    sums = np.zeros((2, u.size))  # at each v node, the zeta sum and that of its absolute terms
    rows = max(1, _BLOCK_ELEMS // u.size)  # zeta in 256 KiB blocks
    taylor = [1.0 / math.factorial(k) for k in range(18, 1, -1)]  # (e^y - 1 - y)/y^2
    y_buf, p_buf = np.empty((2, min(rows, z.size) * u.size))
    for i in range(0, z.size, rows):
        cr = np.multiply.outer(2.0 * np.sinh(0.5 * z[i : i + rows]) ** 2, 4.0 * np.exp(lq - u))
        bracket = np.expm1(-cr) + cr
        near = cr < 1.0  # where that cancels, Taylor to degree 18: within 1e-17
        y = np.compress(near.ravel(), cr.ravel(), out=y_buf[: np.count_nonzero(near)])
        np.negative(y, out=y)
        # Horner in place: np.polyval's multiply-then-add steps, the same bits
        p = p_buf[: y.size]
        p.fill(taylor[0])
        for coef in taylor[1:]:
            p *= y
            p += coef
        p *= np.square(y, out=y)
        bracket[near] = p
        sums += np.stack((kern[i : i + rows], np.abs(kern[i : i + rows]))) @ bracket
    unsigned = float(sums[1] @ f)
    (val,), (floor,) = _zeta_value(float(sums[0] @ f), unsigned, [t], "theta_yor_integral")
    # floor / (8 eps unsigned) is pref; the halving and exponent terms vanish with `unsigned`
    extra = abs(float(sums[0] @ halving)) + _EPS * float(np.abs(expo * f) @ np.abs(sums[0]))
    return float(val), float(floor + floor / (8.0 * _EPS * unsigned) * extra if floor else 0.0)


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


def _anchor_completion(rates, anchors, s, tau):
    """Completion (mid, half) at rate s of the mass on [0, tau] that
    quadrature cannot reach: the sharp bracket of integral e^{-s T} d mu
    over positive mu on [0, tau] with transforms `anchors` at the three
    increasing rates (clamped at 0, made nonincreasing in the rate).

    Exponentials of distinct rates form a Chebyshev system, so its ends
    are the anchors' principal representations, atoms at {0, xi} and at
    {xi', tau} (Markov-Krein; Karlin and Studden, Tchebycheff Systems,
    1966, ch. III-IV).  Each reads v_j = a + b e^{-rates_j x}, v = c/c_0
    (x = xi) or c e^{(rates_j - rates_0) tau}/c_0 (x = xi' - tau, read at
    s times e^{-(s - rates_0) tau}); x solves a ratio equation monotone
    in x by bisection to adjacent floats, and a, b are linear.  Anchors
    that no positive measure fits give the middle of [0, c_0 e^{(rates_0
    - s)^+ tau}], where the transform lies: e^{-s T} <= e^{(rates_0 -
    s) tau} e^{-rates_0 T} on [0, tau] when s < rates_0.
    """
    r0, r1, r2 = (float(r) for r in rates)

    def ratio(x):  # (E_0 - E_1)/(E_1 - E_2), E_j = e^{-r_j x}: increasing, (r1 - r0)/(r2 - r1) at 0
        return math.exp((r1 - r0) * x) * math.expm1((r0 - r1) * x) / math.expm1((r1 - r2) * x)

    c = np.minimum.accumulate(np.maximum(np.asarray(anchors, dtype=float), 0.0))
    ends = []
    for sign, shift in ((1.0, 0.0), (-1.0, tau)):
        v = (c / c[0] * np.exp((np.asarray(rates) - r0) * shift)).tolist()
        target = (v[0] - v[1]) / (v[1] - v[2]) if v[1] != v[2] else math.inf
        lo, hi = sorted((0.0, sign * tau))
        while lo < (x := 0.5 * (lo + hi)) < hi:
            lo, hi = (x, hi) if ratio(x) < target else (lo, x)
        x = max(lo, hi, key=abs)  # x = 0 is no atom
        b = (v[0] - v[1]) / (math.exp(-r0 * x) - math.exp(-r1 * x))
        a = v[0] - b * math.exp(-r0 * x)
        if (ratio(sign * tau) < target) == ((r1 - r0) / (r2 - r1) < target) or min(a, b) < 0.0:
            half = 0.5 * c[0] * math.exp(max(r0 - s, 0.0) * tau)
            return half, half
        ends.append(c[0] * math.exp((r0 - s) * shift) * (a + b * math.exp(-s * x)))
    return 0.5 * (ends[0] + ends[1]), 0.5 * abs(ends[1] - ends[0])


def anchored_time_laplace(f, t_hi, s, rates, closed, noise):
    """Laplace transform at rate s of a positive density f(t), evaluable
    only from T_MIN_THETA on, given its transforms `closed` at the
    increasing `rates`; returns (value, bound, f at the nodes).

    Q, the [T_MIN_THETA, t_hi] part, is panel quadrature in log t on
    log_panels' rule of 2 panels per unit, one f call on the node array.  The
    anchors closed[j] - Q(rates[j]) pin the mass below T_MIN_THETA: Q(s)
    gains the midpoint of _anchor_completion's bracket, and the bound is
    its halfwidth plus `noise`.  A first anchor within `noise` is
    quadrature noise: no completion, and it bounds itself.
    """
    t, w = log_panels(math.log(T_MIN_THETA), math.log(t_hi), 2.0, 2)
    wt = w * t
    vals = f(t)

    def q(rate):
        return float(np.dot(wt * np.exp(-rate * t), vals))

    anchors = np.array([c - q(rate) for c, rate in zip(closed, rates)])
    missing = max(anchors[0], 0.0)
    if missing <= noise:
        mid, half = 0.0, missing
    else:
        mid, half = _anchor_completion(rates, anchors, s, T_MIN_THETA)
    return q(s) + mid, half + noise, vals


def theta_time_laplace(r, s):
    """integral_0^inf e^{-s t} Theta(r,t) dt with a documented small-t bound.

    Returns (value, bound): anchored_time_laplace of Theta(r, .) up to
    t = 400 (256 nodes), anchored at I_{nu_j}(r), orders nu_j in {0.3, 3,
    5}.  Two panels per unit suffice: against a 720-panel (11,520-node)
    table over r in {0.5, 1, 2, 3} and 7 rates, the 256-node sum stays
    within 1.7% of the bound's own noise term 4e-9 (e^{r} + e^{r} I_{0.3}(r)).

    Requires 0.045 <= s <= 12.5, the range of the anchor rates.  Beyond
    400 the e^{-st} tail is below e^{-400 s} I_0(r): under 1e-30 of the
    result from s = 0.18 on, and nearer 0.045 the first anchor, which
    carries its own tail, moves most of it into the completion.  Below
    0.045 the tail outgrows the bound (at s = 1e-3, r = 0.5 the value
    misses by 9.2e-3 relative against a bound of 7.1e-9): DomainError.

    The bound, the sharp bracket of three anchors (_anchor_completion),
    is honest but only as tight as three anchors allow.  At s = 0.5 it
    exceeds 1e-4 relative from about r = 6 (1.15e-4 at r = 6, 1.34e-4 at
    r = 10), past the suite's 1e-4 gate, which samples r <= 3, and falls
    as the head narrows to t ~ 1/r: 1.4e-7 at r = 105, 7.4e-9 at r = 355.

    Quadrature, anchors and bracket live on the e^{r} scale, so nothing
    underflows at large r; where e^{r} I_{0.3}(r) overflows (from r ~ 357
    on), DomainError.
    """
    s_anchors = np.array([0.5 * a * a for a in _ANCHOR_ORDERS])
    if not s_anchors[0] <= s <= s_anchors[-1]:
        raise DomainError(
            f"theta_time_laplace supports {s_anchors[0]:g} <= s <= {s_anchors[-1]:g}"
        )
    r = float(r)
    with np.errstate(over="ignore"):
        er = np.exp(r)
        closed = [er * bessel_i(nu, r) for nu in _ANCHOR_ORDERS]
    if not math.isfinite(closed[0]):
        raise DomainError(f"theta_time_laplace(r={r:g}): e^r I_0.3(r) overflows")
    value, bound, _ = anchored_time_laplace(
        lambda ts: np.array([hartman_watson_theta_grid([r], ti)[0][0] for ti in ts]),
        _T_LAPLACE_HI, s, s_anchors, closed, 4e-9 * (er + closed[0]),
    )
    scale = math.exp(-r)
    return float(value) * scale, float(bound) * scale
