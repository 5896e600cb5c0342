"""Oracle tests for the special-function layer.

Reference values are frozen from two independent sources: half-integer
closed forms computed with math.* arithmetic inside the tests, and
mpmath at 30 significant digits (test-only dependency).  The
Hartman-Watson values are additionally pinned through the identity
integral_0^inf e^{-nu^2 t/2} Theta(r,t) dt = I_nu(r), which exercises
the time-domain quadrature together with its small-t completion.
"""

import math

import mpmath
import numpy as np
import pytest

from verhulst import specfun
from verhulst.errors import ConvergenceError, DomainError
from verhulst.specfun import (
    BESSEL_I_MAX_X,
    REL_TOL,
    T_MIN_THETA,
    BesselOrder,
    _THETA_CHUNK_ELEMS,
    _panels,
    _theta_breaks,
    _theta_time_nodes,
    bessel_i,
    bessel_k,
    bessel_product_F,
    hartman_watson_theta,
    hartman_watson_theta_grid,
    laplace_kernel_F,
    phi_arcosh,
    theta_time_laplace,
)

mpmath.mp.dps = 30

REL = REL_TOL

# Frozen from mpmath.besseli / mpmath.besselk at dps=30.
I_HALF_AT_1 = 0.93767488824548765  # = sqrt(2/pi) sinh(1)
I_HALF_AT_2 = 2.046236863089055  # = sinh(2)/sqrt(pi)
I_3HALF_AT_2 = 1.0994731886331097  # = (cosh(2) - sinh(2)/2)/sqrt(pi)
K_HALF_AT_1 = 0.46106850444789456  # = sqrt(pi/2) e^{-1}
K_HALF_AT_2 = 0.11993777196806145  # = sqrt(pi/4) e^{-2}
K_ONE_AT_1 = 0.60190723019723457

# Frozen from mpmath quadrature of the defining Theta integral, split at
# the zeros of sin(pi z/t), dps=30.
THETA_TABLE = [
    (0.5, 1.0, 0.26854546760723918),
    (1.0, 1.0, 0.73907653130323192),
    (1.0, 2.0, 0.2050502536300483),
    (2.0, 0.5, 4.0453290901483014),
    (2.0, 4.0, 0.014913821105394402),
    (3.0, 0.25, 14.570625381910979),
]


# --- modified Bessel I ------------------------------------------------------


def test_bessel_i_at_zero():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(0.5, 0.0) == 0.0
    assert bessel_i(2.0, 0.0) == 0.0


def test_bessel_i_half_integer_closed_forms():
    assert bessel_i(0.5, 1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=REL
    )
    assert bessel_i(0.5, 2.0) == pytest.approx(math.sinh(2.0) / math.sqrt(math.pi), rel=REL)
    assert bessel_i(1.5, 2.0) == pytest.approx(
        (math.cosh(2.0) - 0.5 * math.sinh(2.0)) / math.sqrt(math.pi), rel=REL
    )
    assert bessel_i(0.5, 1.0) == pytest.approx(I_HALF_AT_1, rel=REL)
    assert bessel_i(1.5, 2.0) == pytest.approx(I_3HALF_AT_2, rel=REL)


def test_bessel_i_sixty_term_series_oracle():
    # independent arithmetic: fixed 60-term ascending series, lgamma form
    nu, x = 1.5, 2.0
    acc = 0.0
    for k in range(60):
        acc += math.exp(
            (2 * k + nu) * math.log(0.5 * x)
            - math.lgamma(k + 1.0)
            - math.lgamma(k + nu + 1.0)
        )
    assert bessel_i(nu, x) == pytest.approx(acc, rel=REL)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.6, 1.0, 2.0, 3.0, 5.0, 10.0])
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 5.0, 12.0, 30.0, 50.0])
def test_bessel_i_mpmath_grid(nu, x):
    ref = float(mpmath.besseli(nu, x))
    assert bessel_i(nu, x) == pytest.approx(ref, rel=REL)


def test_bessel_i_order_wrapper():
    assert bessel_i(BesselOrder(1.0), 2.0) == bessel_i(1.0, 2.0)


def test_bessel_i_domain():
    with pytest.raises(DomainError):
        bessel_i(0.5, -1.0)
    with pytest.raises(DomainError):
        bessel_i(0.5, BESSEL_I_MAX_X + 1.0)
    # guard boundary itself is evaluable
    ref = float(mpmath.besseli(0.0, BESSEL_I_MAX_X))
    assert bessel_i(0.0, BESSEL_I_MAX_X) == pytest.approx(ref, rel=1e-6)


# --- modified Bessel K ------------------------------------------------------


def test_bessel_k_half_integer_closed_forms():
    assert bessel_k(0.5, 1.0) == pytest.approx(
        math.sqrt(0.5 * math.pi) * math.exp(-1.0), rel=REL
    )
    assert bessel_k(0.5, 2.0) == pytest.approx(
        math.sqrt(0.25 * math.pi) * math.exp(-2.0), rel=REL
    )
    assert bessel_k(0.5, 1.0) == pytest.approx(K_HALF_AT_1, rel=REL)
    assert bessel_k(0.5, 2.0) == pytest.approx(K_HALF_AT_2, rel=REL)


def test_bessel_k_trapezoid_oracle():
    # independent arithmetic for K_1(1): dense trapezoid of the defining
    # integral, truncated where e^{-cosh u} is dead
    u = np.linspace(0.0, 25.0, 200_001)
    f = np.exp(-np.cosh(u)) * np.cosh(u)
    ref = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(u)))
    assert bessel_k(1.0, 1.0) == pytest.approx(ref, rel=1e-7)
    assert bessel_k(1.0, 1.0) == pytest.approx(K_ONE_AT_1, rel=REL)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.6, 1.0, 2.0, 3.0, 5.0, 10.0])
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 5.0, 12.0, 30.0, 50.0])
def test_bessel_k_mpmath_grid(nu, x):
    ref = float(mpmath.besselk(nu, x))
    assert bessel_k(nu, x) == pytest.approx(ref, rel=REL)


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)


# --- product kernel ---------------------------------------------------------


def test_bessel_product_symmetry():
    for nu in (0.6, 1.5):
        for x in (0.5, 1.0, 2.0, 3.0):
            for y in (0.5, 1.0, 2.0, 3.0):
                assert bessel_product_F(nu, x, y) == bessel_product_F(nu, y, x)
                assert bessel_product_F(nu, x, y) > 0.0


def test_bessel_product_values():
    assert bessel_product_F(0.5, 1.0, 1.0) == pytest.approx(
        I_HALF_AT_1 * K_HALF_AT_1, rel=2 * REL
    )
    # I takes the smaller argument, K the larger
    assert bessel_product_F(0.5, 2.0, 1.0) == pytest.approx(
        I_HALF_AT_1 * K_HALF_AT_2, rel=2 * REL
    )


def test_bessel_product_domain():
    with pytest.raises(DomainError):
        bessel_product_F(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        bessel_product_F(0.5, 1.0, -1.0)


# --- config / order types ---------------------------------------------------


def test_bessel_order_validation():
    with pytest.raises(DomainError):
        BesselOrder(-0.1)
    assert BesselOrder.from_rate(1.0).nu == 1.5  # sqrt(2 + 1/4) exactly
    assert BesselOrder.from_rate(1e-9).nu > 0.5
    with pytest.raises(DomainError):
        BesselOrder.from_rate(0.0)


# --- Hartman-Watson Theta ---------------------------------------------------


@pytest.mark.parametrize("r,t,ref", THETA_TABLE)
def test_theta_frozen_values(r, t, ref):
    assert hartman_watson_theta(r, t) == pytest.approx(ref, rel=REL)


def test_theta_scaled_flag():
    for r, t, _ in THETA_TABLE:
        plain = hartman_watson_theta(r, t)
        scaled = hartman_watson_theta_grid([r], t)[0]
        assert scaled == pytest.approx(math.exp(r) * plain, rel=1e-12)


def test_theta_grid_matches_scalar():
    rs = np.array([0.5, 1.0, 2.0, 5.0, 20.0])
    grid = hartman_watson_theta_grid(rs, 1.0)
    for r, g in zip(rs, grid):
        assert g == pytest.approx(math.exp(r) * hartman_watson_theta(r, 1.0), rel=1e-9)


def test_theta_grid_rows_independent_of_batch():
    t = 0.25
    for r in (0.5, 2.0544, 17.12):
        one = hartman_watson_theta_grid([r], t)[0]
        assert hartman_watson_theta(r, t) == one * math.exp(-r)
        assert hartman_watson_theta_grid([r], [t])[0, 0] == one
    # 2.0 and 2.5 alone build the batch's node set; 3.0 alone does not
    rs = np.array([2.0, 2.5, 3.0])
    batch_breaks = _theta_breaks(rs.min(), t, r_cap=rs.max())
    grid = hartman_watson_theta_grid(rs, t)
    for r, g in zip(rs[:2], grid[:2]):
        assert np.array_equal(_theta_breaks(r, t), batch_breaks)
        assert g == hartman_watson_theta_grid([r], t)[0]
    # along t: a row of a t-array call does not depend on the other t
    ts = np.array([t, 1.0, 4.0])
    for sub in (ts, ts[::-1], ts[1:]):
        for ti, row in zip(sub, hartman_watson_theta_grid(rs, sub)):
            assert np.array_equal(row, hartman_watson_theta_grid(rs, ti))


def _theta_time_t():
    """The 2,880 t nodes of theta_time_laplace."""
    t, _, _ = _theta_time_nodes(np.array([1.0]))
    return t


@pytest.mark.parametrize(
    "rs,ts,chunks",
    [
        # the theta_time_laplace nodes, t_min_theta and 400 included
        ([1.0], "time-nodes", 1),
        ([0.3, 1.0, 2.0], [0.2, 0.37, 1.0, 2.5, 7.0, 400.0], 0),
        # 3.5/sqrt(40) < 1.5: the width falls below the half-period t
        ([40.0], [0.2, 0.6, 1.0, 4.0, 400.0], 0),
        ([0.5, 40.0], [0.2, 1.0, 9.0], 0),
        # several chunks of many t each
        (np.geomspace(0.5, 50.0, 40), np.linspace(0.2, 20.0, 120), 4),
    ],
)
def test_theta_grid_t_array_rows_equal_one_t_calls(rs, ts, chunks):
    rs = np.array(rs)
    ts = _theta_time_t() if isinstance(ts, str) else np.array(ts)
    breaks = [_theta_breaks(rs.min(), t, r_cap=rs.max()) for t in ts]
    elems = sum(16 * (b.size - 1) for b in breaks) * rs.size
    assert elems > chunks * _THETA_CHUNK_ELEMS
    grid = hartman_watson_theta_grid(rs, ts)
    assert grid.shape == (ts.size, rs.size)
    for ti, row in zip(ts, grid):
        assert np.array_equal(row, hartman_watson_theta_grid(rs, ti))


def test_theta_grid_t_array_trusted_masks():
    # the smallest r sink below the cancellation floor: both mask values occur
    rs = np.geomspace(0.01, 5.0, 12)
    ts = np.array([0.2, 0.25, 1.0, 4.0])
    vals, trusted = hartman_watson_theta_grid(rs, ts, with_floor=True)
    assert trusted.any() and not trusted.all()
    for ti, row, mask in zip(ts, vals, trusted):
        one, one_mask = hartman_watson_theta_grid(rs, ti, with_floor=True)
        assert np.array_equal(row, one) and np.array_equal(mask, one_mask)


def test_theta_grid_t_shapes_and_domain(monkeypatch):
    assert hartman_watson_theta_grid([1.0, 2.0], 1.0).shape == (2,)
    assert hartman_watson_theta_grid([1.0, 2.0], [1.0]).shape == (1, 2)
    assert hartman_watson_theta_grid([1.0, 2.0], np.empty(0)).shape == (0, 2)
    with pytest.raises(DomainError):
        hartman_watson_theta_grid([1.0], np.ones((2, 2)))
    with pytest.raises(DomainError, match="t=0.19"):
        hartman_watson_theta_grid([1.0], [1.0, 0.19, 2.0])
    # a NaN r, alone or among valid r, would otherwise end the node set early
    for rs in ([math.nan], [1.0, math.nan, 2.0]):
        with pytest.raises(DomainError, match="r > 0"):
            hartman_watson_theta_grid(rs, [1.0, 2.0])
    with pytest.raises(DomainError, match="r > 0"):
        hartman_watson_theta(math.nan, 1.0)
    # a cut 1e12 times too shallow leaves t = 0.7 and 1 negative at r = 0.1
    with monkeypatch.context() as m:
        m.setattr(specfun, "_Z_CUT_FACTOR", 1e12)
        assert hartman_watson_theta_grid([0.1], 4.0)[0] > 0.0
        with pytest.raises(ConvergenceError, match="t=0.7 negative"):
            hartman_watson_theta_grid([0.1], [4.0, 0.7, 1.0])
    # t = 400 needs 4 breaks at r = 1, t = 0.25 needs 16
    with monkeypatch.context() as m:
        m.setattr(specfun, "_MAX_PANELS", 8)
        with pytest.raises(ConvergenceError, match="t=0.25 exceeded"):
            hartman_watson_theta_grid([1.0], [400.0, 0.25])


def test_theta_nonnegative():
    for r in np.geomspace(0.05, 50.0, 12):
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            assert hartman_watson_theta(float(r), t) >= 0.0


def test_theta_vanishes_with_r():
    # linear prefactor r drives the value to 0
    assert 0.0 <= hartman_watson_theta(1e-8, 1.0) < 1e-5


def test_theta_domain():
    with pytest.raises(DomainError):
        hartman_watson_theta(0.0, 1.0)
    with pytest.raises(DomainError):
        hartman_watson_theta(-1.0, 1.0)
    with pytest.raises(DomainError):
        hartman_watson_theta(1.0, 0.19)
    assert hartman_watson_theta(1.0, T_MIN_THETA) >= 0.0


_NAN, _INF = math.nan, math.inf
_NON_FINITE = {
    "bessel_i x=nan": lambda: bessel_i(1.0, _NAN),
    "bessel_i x=inf": lambda: bessel_i(1.0, _INF),
    "bessel_i nu=nan": lambda: bessel_i(_NAN, 1.0),
    "bessel_i nu=inf": lambda: bessel_i(_INF, 1.0),
    "BesselOrder nu=nan": lambda: BesselOrder(_NAN),
    "bessel_k x=nan": lambda: bessel_k(1.0, _NAN),
    "bessel_k x=inf": lambda: bessel_k(1.0, _INF),
    "bessel_k nu=nan": lambda: bessel_k(_NAN, 1.0),
    "bessel_product_F x=nan": lambda: bessel_product_F(1.0, _NAN, 1.0),
    "bessel_product_F y=inf": lambda: bessel_product_F(1.0, 1.0, _INF),
    "phi_arcosh x=nan": lambda: phi_arcosh(_NAN, 1.0),
    "phi_arcosh x=inf": lambda: phi_arcosh(np.array([1.0, _INF]), 1.0),
    "phi_arcosh y=nan": lambda: phi_arcosh(1.0, _NAN),
    "laplace_kernel_F t=nan": lambda: laplace_kernel_F(1.0, 1.0, _NAN),
    "laplace_kernel_F z=nan": lambda: laplace_kernel_F(1.0, _NAN, 1.0),
    "theta t=nan": lambda: hartman_watson_theta(1.0, _NAN),
    "theta t=inf": lambda: hartman_watson_theta(1.0, _INF),
    "theta_grid t=inf": lambda: hartman_watson_theta_grid([1.0], [1.0, _INF]),
}
_REFUSALS = {
    **{key: ("must be finite", call) for key, call in _NON_FINITE.items()},
    "bessel_i nu=-1.0": ("Bessel order must be", lambda: bessel_i(-1.0, 1.0)),
    "theta r=inf": ("r > 0", lambda: hartman_watson_theta(_INF, 1.0)),
    "theta_grid r=inf": ("r > 0", lambda: hartman_watson_theta_grid([1.0, _INF], 1.0)),
    # cosh(nu*u) overflows on the quadrature range: the value would be NaN,
    # an OverflowError or, at nu = 1e6, a node array of gigabytes
    "bessel_k nu=150": (r"bessel_k\(nu=150, x=1\)", lambda: bessel_k(150.0, 1.0)),
    "bessel_k x=1e-250": (r"bessel_k\(nu=1.5, x=1e-250\)", lambda: bessel_k(1.5, 1e-250)),
    "bessel_k x=1e-310": (r"bessel_k\(nu=1.5, x=1e-310\)", lambda: bessel_k(1.5, 1e-310)),
    "bessel_k nu=1e6": (r"bessel_k\(nu=1e\+06, x=0.001\)", lambda: bessel_k(1e6, 1e-3)),
}


@pytest.mark.parametrize("pattern, call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_non_finite_inputs_refused(pattern, call):
    # NaN passes every `x <= 0` guard; each input must be refused by name,
    # not turned into NaN, a stalled series, a Python ValueError or a
    # later complaint
    with pytest.raises(DomainError, match=pattern):
        call()


# --- arcosh kernel ----------------------------------------------------------


def test_phi_arcosh_at_x_zero():
    for y in (-1.3, 0.0, 2.0):
        assert phi_arcosh(0.0, y) == abs(y)


def test_phi_arcosh_values():
    assert phi_arcosh(1.0, 0.0) == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-15)
    # log form vs plain arcosh of the assembled argument
    direct = math.acosh(3.0 * math.exp(-1.0) + math.cosh(1.0))
    assert phi_arcosh(3.0, 1.0) == pytest.approx(direct, rel=1e-14)


def test_phi_arcosh_broadcast():
    x = np.array([0.0, 1.0, 3.0])
    out = phi_arcosh(x, 1.0)
    assert out.shape == (3,)
    assert out[0] == 1.0
    assert np.all(np.diff(out) > 0.0)  # increasing in x


def test_phi_arcosh_domain():
    with pytest.raises(DomainError):
        phi_arcosh(-0.5, 1.0)


def test_laplace_kernel_at_z_zero():
    for x in (-2.0, 0.0, 1.5):
        for t in (0.3, 2.0):
            assert laplace_kernel_F(x, 0.0, t) == 1.0


def test_laplace_kernel_value():
    # z=1, x=0: exponent is -arcosh(2)^2/2
    ref = math.exp(-0.5 * math.log(2.0 + math.sqrt(3.0)) ** 2)
    assert laplace_kernel_F(0.0, 1.0, 1.0) == pytest.approx(ref, rel=1e-14)
    assert laplace_kernel_F(0.0, 1.0, 1.0) == pytest.approx(0.42013085733978659, rel=1e-14)


def test_laplace_kernel_range_and_monotonicity():
    z = np.linspace(0.0, 8.0, 40)
    vals = laplace_kernel_F(1.2, z, 0.7)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 0.0)


def test_laplace_kernel_domain():
    with pytest.raises(DomainError):
        laplace_kernel_F(1.0, 1.0, 0.0)


# --- Laplace transform of Theta in time -------------------------------------


@pytest.mark.parametrize(
    "r,nu",
    [(0.5, 2.0), (1.0, 1.0), (2.0, 0.6), (2.0, 1.5), (3.0, 1.0)],
)
def test_theta_time_laplace_identity(r, nu):
    # the transform at rate nu^2/2 must reproduce I_nu(r); nu=1.5 sits
    # away from the completion anchors, so it checks the bracket, not a fit
    val, bound = theta_time_laplace(r, 0.5 * nu * nu)
    ref = float(mpmath.besseli(nu, r))
    assert val == pytest.approx(ref, rel=1e-5)
    # the documented bound is honest: it covers the actual miss (small
    # slack for the [t_min, 400] panel quadrature, which it excludes)
    assert abs(val - ref) <= bound + 2e-9 * (1.0 + ref)
    assert bound < 1e-4 * ref


def _theta_time_nodes_per_t(rs):
    """The t-node table from one kernel call per t: the reference that the
    one-call table must equal bit for bit."""
    breaks = T_MIN_THETA * np.exp(np.linspace(0.0, math.log(400.0 / T_MIN_THETA), 181))
    u, w = _panels(np.log(breaks))
    t = np.exp(u)
    theta = np.empty((t.size, rs.size))
    for i, ti in enumerate(t):
        theta[i] = hartman_watson_theta_grid(rs, ti)
    return t, w * t, theta


def test_theta_time_laplace_matches_per_t_table(monkeypatch):
    # the 12 (nu, r) pairs of the closed-form benchmark
    pairs = [(nu, r) for nu in (0.6, 1.0, 2.0) for r in (0.5, 1.0, 2.0, 3.0)]
    batched = [theta_time_laplace(r, 0.5 * nu * nu) for nu, r in pairs]
    monkeypatch.setattr(specfun, "_theta_time_nodes", _theta_time_nodes_per_t)
    assert [theta_time_laplace(r, 0.5 * nu * nu) for nu, r in pairs] == batched


def test_theta_time_laplace_domain():
    with pytest.raises(DomainError):
        theta_time_laplace(1.0, 0.0)
    with pytest.raises(DomainError):
        theta_time_laplace(1.0, 12.6)
    with pytest.raises(DomainError):
        theta_time_laplace(0.5, 1e-3)  # below the smallest anchor rate 0.045
    val, bound = theta_time_laplace(1.0, 12.5)  # boundary rate is allowed
    assert val > 0.0 and bound >= 0.0
