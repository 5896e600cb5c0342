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

from verhulst import density, specfun
from verhulst.errors import ConvergenceError, DomainError
from verhulst.specfun import (
    BESSEL_I_MAX_X,
    REL_TOL,
    T_MIN_THETA,
    _k1_nodes,
    _k1_scaled,
    _panels,
    _theta_breaks,
    bessel_i,
    bessel_k,
    bessel_product_F,
    bessel_product_log,
    hartman_watson_theta,
    hartman_watson_theta_grid,
    laplace_kernel_F,
    phi_arcosh,
    theta_k1_log_integral,
    theta_time_laplace,
    theta_yor_integral,
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
# Theta where e^{pi^2/(2t)} amplifies the rounding of the zeta sum to a
# sizeable part of the value, frozen from the same integral at dps=100 on
# Gauss-Legendre 40 a half period (dps=130 and 56 nodes agree to 45 digits)
THETA_SMALL_T_PINS = [
    (1.0, 0.2, 1.342425555075608479681250288201457902278e-6),
    (0.5, 0.25, 1.239664492518768304035656746885138420506e-8),
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
    for call in (lambda nu: bessel_i(nu, 2.0), lambda nu: bessel_k(nu, 2.0),
                 lambda nu: bessel_product_F(nu, 1.0, 2.0)):
        with pytest.raises(DomainError, match="Bessel order"):
            call(-0.1)


# --- Hartman-Watson Theta ---------------------------------------------------


@pytest.mark.parametrize("r,t,ref", THETA_TABLE)
def test_theta_frozen_values(r, t, ref):
    assert hartman_watson_theta(r, t) == pytest.approx(ref, rel=REL)


def test_theta_scaled_flag():
    for r, t, _ in THETA_TABLE:
        plain = hartman_watson_theta(r, t)
        scaled = hartman_watson_theta_grid([r], t)[0][0]
        assert scaled == pytest.approx(math.exp(r) * plain, rel=1e-12)


def test_theta_grid_matches_scalar():
    rs = np.array([0.5, 1.0, 2.0, 5.0, 20.0])
    grid = hartman_watson_theta_grid(rs, 1.0)[0]
    for r, g in zip(rs, grid):
        assert g == pytest.approx(math.exp(r) * hartman_watson_theta(r, 1.0), rel=1e-9)


def test_theta_grid_rows_independent_of_batch():
    t = 0.25
    for r in (0.5, 2.0544, 17.12):
        one = hartman_watson_theta_grid([r], t)[0][0]
        assert hartman_watson_theta(r, t) == one * math.exp(-r)
        # a 0-d array t is the scalar t
        assert hartman_watson_theta_grid([r], np.array(t))[0][0] == one
    # 2.0 and 2.5 alone build the batch's node set; 3.0 alone does not
    rs = np.array([2.0, 2.5, 3.0])
    batch_breaks = _theta_breaks(rs.min(), rs.max(), t)
    grid = hartman_watson_theta_grid(rs, t)[0]
    for r, g in zip(rs[:2], grid[:2]):
        assert np.array_equal(_theta_breaks(r, r, t), batch_breaks)
        assert g == hartman_watson_theta_grid([r], t)[0][0]
    # at each t, a value does not depend on where its r sits in the batch
    for ti in (t, 1.0, 4.0):
        row = hartman_watson_theta_grid(rs, ti)[0]
        for perm in ([2, 1, 0], [1, 2, 0]):
            assert np.array_equal(hartman_watson_theta_grid(rs[perm], ti)[0], row[perm])


def test_theta_grid_blocks_keep_bits():
    # 5000 r x 640 z run in blocks of 51 rows; the whole matrix at once is
    # the reference, entry for entry and row for row
    rs, t = np.geomspace(1e-3, 300.0, 5000), 0.25
    breaks = _theta_breaks(rs.min(), rs.max(), t)
    z, w = _panels(breaks[:-1], breaks[1:])
    base = np.exp(-z * z / (2.0 * t)) * np.sinh(z) * np.sin(np.pi * z / t) * w
    damp = np.exp(-np.multiply.outer(rs, np.cosh(z) - 1.0))
    pref = rs / math.sqrt(2.0 * math.pi**3 * t) * math.exp(math.pi**2 / (2.0 * t))
    ref = np.maximum(pref * np.vecdot(damp, base), 0.0)
    assert np.array_equal(hartman_watson_theta_grid(rs, t)[0], ref)


@pytest.mark.parametrize("r,t,ref", THETA_SMALL_T_PINS)
def test_theta_grid_floor_bounds_small_t_miss(r, t, ref):
    # no slack: the miss is 1.1% of the value at (1, 0.2) and 1.1e-3 at
    # (0.5, 0.25), within the returned floor
    vals, floor = hartman_watson_theta_grid([r], t)
    assert abs(vals[0] - math.exp(r) * ref) <= floor[0]


def test_one_zeta_rule(monkeypatch):
    # Theta and both of its mixtures take their nodes, kernel, prefactor,
    # sign rule and floor from the one zeta rule, once a call
    calls = {}
    for name in ("_zeta_nodes", "_zeta_value"):
        def counted(*args, _real=getattr(specfun, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(specfun, name, counted)
    for call in (
        lambda: hartman_watson_theta_grid([0.5, 2.0], 1.0),
        lambda: theta_k1_log_integral(1.0, 1.0, 1.0),
        lambda: theta_yor_integral(1.0, 1.0, 0.0, 0.25),
    ):
        calls.update(_zeta_nodes=0, _zeta_value=0)
        call()
        assert calls == {"_zeta_nodes": 1, "_zeta_value": 1}


def test_theta_grid_t_shapes_and_domain(monkeypatch):
    assert hartman_watson_theta_grid([1.0, 2.0], 1.0)[0].shape == (2,)
    for t in ([1.0], np.empty(0), np.ones((2, 2))):
        with pytest.raises(DomainError, match="one scalar t"):
            hartman_watson_theta_grid([1.0], t)
    with pytest.raises(DomainError, match="t=0.19"):
        hartman_watson_theta_grid([1.0], 0.19)
    # a NaN r, alone or among valid r, would otherwise end the node set early
    for rs in ([math.nan], [1.0, math.nan, 2.0]):
        for t in (1.0, 2.0):
            with pytest.raises(DomainError, match="r > 0"):
                hartman_watson_theta_grid(rs, t)
    with pytest.raises(DomainError, match="r > 0"):
        hartman_watson_theta(math.nan, 1.0)
    # a node set cut after two panels, far above the depth the sign guard
    # allows, leaves t = 0.7 and 1 negative at r = 0.1
    breaks = specfun._theta_breaks
    with monkeypatch.context() as m:
        m.setattr(specfun, "_theta_breaks", lambda *args: breaks(*args)[:3])
        assert hartman_watson_theta_grid([0.1], 4.0)[0][0] > 0.0
        for t in (0.7, 1.0):
            with pytest.raises(ConvergenceError, match=f"t={t:g} negative"):
                hartman_watson_theta_grid([0.1], t)
    # t = 400 needs 4 breaks at r = 1, t = 0.25 needs 16
    with monkeypatch.context() as m:
        m.setattr(specfun, "_MAX_PANELS", 8)
        assert hartman_watson_theta_grid([1.0], 400.0)[0][0] > 0.0
        with pytest.raises(ConvergenceError, match="t=0.25 exceeded"):
            hartman_watson_theta_grid([1.0], 0.25)


def test_theta_nonnegative():
    for r in np.geomspace(0.05, 50.0, 12):
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            assert hartman_watson_theta(float(r), t) >= 0.0


def test_theta_vanishes_with_r():
    # linear prefactor r drives the value to 0
    assert 0.0 <= hartman_watson_theta(1e-8, 1.0) < 1e-5


@pytest.mark.parametrize("t", [0.2, 0.5, 1.0, 2.0, 4.0, 10.0, 50.0])
def test_theta_small_r_within_cut_depth(t):
    # the e^{r}-scale value of a vanishing Theta is truncation noise down
    # to the cut depth ABS_TOL * _Z_CUT_FACTOR; a sign guard at ABS_TOL
    # raised on it (-1.1e-10 at r = 1e-8, t = 4, and at r = 3.2e-9)
    for r in [*np.geomspace(1e-10, 1e-2, 17), 3.2e-9]:
        assert hartman_watson_theta(float(r), t) >= 0.0


def test_theta_refuses_cosh_overflow():
    # a tiny r at a large t cuts past ln(DBL_MAX), where cosh overflows
    with pytest.raises(DomainError, match="cosh"):
        hartman_watson_theta(1e-310, 1e4)
    with pytest.raises(DomainError, match="cosh"):
        theta_k1_log_integral(1e-200, 1e-200, 1e6)


def test_theta_yor_integral_domain():
    # its degree-1 coefficient diverges from mu = 1 on; a v node of e^{u_hi}
    # times x (1 + gamma) past DBL_MAX is refused, not turned into NaN
    with pytest.raises(DomainError, match="mu must be finite and < 1"):
        theta_yor_integral(1.0, 1.0, 1.0, 0.25)
    with pytest.raises(DomainError, match="must be finite"):
        theta_yor_integral(1.0, 1.0, math.nan, 0.25)
    with pytest.raises(DomainError, match=">= 0.2"):
        theta_yor_integral(1.0, 1.0, 0.0, 0.19)
    with pytest.raises(DomainError, match="overflows"):
        theta_yor_integral(1e300, 1.0, 0.0, 0.25)
    value, bound = theta_yor_integral(1.0, 1.0, 0.0, T_MIN_THETA)
    assert 0.0 < bound < 1e-6 * value


def test_k1_scaled_mpmath_grid():
    # e^{rho} K_1(rho) on one node set per rho0, for rho from rho0 to 1e8 rho0
    counts = {}
    for rho0 in np.geomspace(1e-8, 1e4, 13):
        nodes = _k1_nodes(rho0)
        counts[f"{rho0:.0e}"] = nodes[1].size
        rho = rho0 * np.geomspace(1.0, 1e8, 17)
        ref = np.array([float(mpmath.besselk(1, r) * mpmath.exp(r)) for r in rho])
        assert np.max(np.abs(_k1_scaled(rho, nodes) / ref - 1.0)) <= 1e-15
    assert counts == {
        "1e-08": 93, "1e-07": 83, "1e-06": 74, "1e-05": 65, "1e-04": 56, "1e-03": 47,
        "1e-02": 37, "1e-01": 28, "1e+00": 22, "1e+01": 22, "1e+02": 22, "1e+03": 22,
        "1e+04": 22,
    }


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
    "bessel_product_F nu=nan": lambda: bessel_product_F(_NAN, 1.0, 1.0),
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
    "theta_grid t=inf": lambda: hartman_watson_theta_grid([1.0], _INF),
}
_REFUSALS = {
    **{key: ("must be finite", call) for key, call in _NON_FINITE.items()},
    "bessel_i nu=-1.0": ("Bessel order must be", lambda: bessel_i(-1.0, 1.0)),
    "theta r=inf": ("r > 0", lambda: hartman_watson_theta(_INF, 1.0)),
    "theta_grid r=inf": ("r > 0", lambda: hartman_watson_theta_grid([1.0, _INF], 1.0)),
    "theta_grid rs=[]": (
        "rs must be a nonempty 1-d array",
        lambda: hartman_watson_theta_grid([], 1.0),
    ),
    "theta_grid rs 2-d": (
        "rs must be a nonempty 1-d array",
        lambda: hartman_watson_theta_grid([[1.0, 2.0], [3.0, 4.0]], 1.0),
    ),
    "theta_grid t array": ("one scalar t", lambda: hartman_watson_theta_grid([1.0], [1.0, 2.0])),
    # e^r I_0.3(r), the scale of the quadrature and anchors, overflows
    "theta_time_laplace r=358": (r"r=358\)", lambda: theta_time_laplace(358.0, 0.5)),
    "theta_time_laplace r=600": (r"r=600\)", lambda: theta_time_laplace(600.0, 0.5)),
    # cosh(nu*u) overflows on the quadrature range: the value would be NaN,
    # an OverflowError or, at nu = 1e6, a node array of gigabytes
    "bessel_k nu=150": (r"bessel_k\(nu=150, x=1\)", lambda: bessel_k(150.0, 1.0)),
    "bessel_k x=1e-250": (r"bessel_k\(nu=1.5, x=1e-250\)", lambda: bessel_k(1.5, 1e-250)),
    "bessel_k x=1e-310": (r"bessel_k\(nu=1.5, x=1e-310\)", lambda: bessel_k(1.5, 1e-310)),
    "bessel_k nu=1e6": (r"bessel_k\(nu=1e\+06, x=0.001\)", lambda: bessel_k(1e6, 1e-3)),
    # one bad element of a batch refuses the whole call, by its value
    "bessel_i batch x=nan": ("x=nan", lambda: bessel_i(1.0, np.array([1.0, _NAN, 2.0]))),
    "bessel_i batch x=-2": ("x=-2", lambda: bessel_i(1.0, [1.0, -2.0])),
    "bessel_i batch x=601": ("x=601", lambda: bessel_i(1.0, [1.0, BESSEL_I_MAX_X + 1.0])),
    "bessel_k batch x=0": ("x=0", lambda: bessel_k(1.0, [1.0, 0.0])),
    "bessel_k batch x=inf": ("x=inf", lambda: bessel_k(1.0, [1.0, _INF])),
    "bessel_k batch x=1e-250": (
        r"bessel_k\(nu=1.5, x=1e-250\)", lambda: bessel_k(1.5, [1.0, 1e-250, 2.0])
    ),
    "bessel_product_F batch y=nan": ("y=nan", lambda: bessel_product_F(1.0, 1.0, [2.0, _NAN])),
    "theta_k1 batch w=nan": ("w=nan", lambda: theta_k1_log_integral(1.0, [1.0, _NAN], 1.0)),
    "theta_k1 batch x=-1": ("x=-1", lambda: theta_k1_log_integral([1.0, -1.0], 1.0, 1.0)),
    "theta_k1 batch t=0.1": ("t=0.1", lambda: theta_k1_log_integral(1.0, 1.0, [1.0, 0.1, 2.0])),
    "theta_k1 batch t=inf": ("t=inf", lambda: theta_k1_log_integral(1.0, 1.0, [1.0, _INF])),
}


@pytest.mark.parametrize("pattern, call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_non_finite_inputs_refused(pattern, call):
    # NaN passes every `x <= 0` guard; each input must be refused by name,
    # not turned into NaN, a stalled series, a Python ValueError or a
    # later complaint
    with pytest.raises(DomainError, match=pattern):
        call()


# --- batched kernels: a batch member is its single call ---------------------


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


# zeros, duplicates, the I guard's edge and K's tiny and large arguments
BESSEL_XS = np.array([0.0, 1e-300, 1e-8, 0.03, 0.5, 1.0, 1.0, 2.5, 17.0, 119.9, 300.0, 600.0])


@pytest.mark.parametrize("nu", [0.0, 0.6, 1.5, 5.0])
def test_bessel_batch_member_is_single_call(nu):
    xs = BESSEL_XS
    batch_i = bessel_i(nu, xs)
    assert batch_i.shape == xs.shape
    assert _same_bits(batch_i, [bessel_i(nu, float(x)) for x in xs])
    ks = xs[xs > 1e-20]  # cosh(nu u) overflows on K's range at x = 1e-300 from nu = 0.6 on
    batch_k = bessel_k(nu, ks)
    assert _same_bits(batch_k, [bessel_k(nu, float(x)) for x in ks])
    # a 2-d x keeps its shape, and a reversed batch its values
    assert _same_bits(bessel_k(nu, ks[::-1].reshape(1, -1))[0], batch_k[::-1])
    grid = np.geomspace(1e-3, 500.0, 9)
    prod = bessel_product_F(nu, grid[:, None], grid[None, :])
    logs = bessel_product_log(nu, 2.0, grid * 1.8)
    for i, x in enumerate(grid.tolist()):
        assert _same_bits(logs[i], bessel_product_log(nu, 2.0, x * 1.8))
        for j, y in enumerate(grid.tolist()):
            assert _same_bits(prod[i, j], bessel_product_F(nu, x, y))


def test_bessel_batch_matches_mpmath():
    # one batch spanning the series lengths and quadrature cuts of every x
    xs = np.array([0.05, 0.5, 1.0, 5.0, 12.0, 30.0, 50.0])
    for nu in (0.0, 0.6, 3.0):
        ref_i = np.array([float(mpmath.besseli(nu, x)) for x in xs])
        ref_k = np.array([float(mpmath.besselk(nu, x)) for x in xs])
        assert np.max(np.abs(bessel_i(nu, xs) / ref_i - 1.0)) <= REL
        assert np.max(np.abs(bessel_k(nu, xs) / ref_k - 1.0)) <= REL


def test_bessel_product_log_past_k_underflow():
    # K_nu(800) underflows, e^{800} K_nu(800) does not: the log product
    # stays finite where the product is 0
    nu = 1.5
    ref = mpmath.log(mpmath.besseli(nu, 100) * mpmath.besselk(nu, 800))
    assert bessel_k(nu, 800.0) == 0.0
    assert bessel_product_log(nu, 100.0, 800.0) == pytest.approx(float(ref), rel=1e-12)


def test_theta_k1_batch_member_is_single_call():
    # over w and over t, with a start whose rho0 < 1/2 takes its own S node
    # set, and enough t = 0.25 items that the batch runs in several chunks
    ws = np.geomspace(0.01, 20.0, 60)
    for x in (0.05, 1.0):
        log_h, floor = theta_k1_log_integral(x, ws, 0.25)
        assert log_h.shape == floor.shape == ws.shape
        for i, w in enumerate(ws.tolist()):
            one = theta_k1_log_integral(x, w, 0.25)
            assert _same_bits(log_h[i], one[0]) and _same_bits(floor[i], one[1])
    ts = np.array([0.2, 0.25, 0.7, 1.0, 4.0, 40.0, 250.0])
    log_h, floor = theta_k1_log_integral(1.0, 0.6, ts)
    for i, t in enumerate(ts.tolist()):
        one = theta_k1_log_integral(1.0, 0.6, t)
        assert _same_bits(log_h[i], one[0]) and _same_bits(floor[i], one[1])
    # x, w and t broadcast together
    log_h, _ = theta_k1_log_integral(np.array([[0.3], [2.0]]), ws[:3], ts[:3])
    assert log_h.shape == (2, 3)
    assert _same_bits(log_h[1, 2], theta_k1_log_integral(2.0, float(ws[2]), float(ts[2]))[0])


def test_numbers_give_floats():
    for value in (bessel_i(0.6, 2.0), bessel_k(0.6, 2.0), bessel_product_F(0.6, 1.0, 2.0),
                  bessel_product_log(0.6, 1.0, 2.0), *theta_k1_log_integral(1.0, 0.5, 1.0)):
        assert type(value) is float


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
    # the 12 pairs of the suite's identity check, and nu = 1.5
    [(r, nu) for nu in (0.6, 1.0, 2.0) for r in (0.5, 1.0, 2.0, 3.0)] + [(2.0, 1.5)],
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


def test_theta_time_laplace_large_r():
    # up to just below the overflow of e^r I_0.3(r): the head narrows to
    # t ~ 1/r, and the principal representations bracket it tightly
    # (bound 1.4e-7, 4.5e-8 and 7.4e-9 relative; a grid scan of three-atom
    # supports fitted none and fell back to I_nu(r)/2 +- I_nu(r)/2)
    for r, nu in [(105.0, 1.0), (200.0, 2.0), (355.0, 1.0)]:
        val, bound = theta_time_laplace(r, 0.5 * nu * nu)
        ref = float(mpmath.besseli(nu, r))
        assert math.isfinite(val) and math.isfinite(bound)
        assert abs(val - ref) <= bound, r
        assert bound <= 1e-6 * ref, r


# both anchor-rate sets: theta_time_laplace's and the mixture's
ANCHOR_RATE_SETS = [
    np.array([0.5 * a * a for a in specfun._ANCHOR_ORDERS]),
    np.array(density._MIX_ANCHOR_RATES),
]


def _atomic_transform(masses, atoms, rate):
    return float(np.dot(masses, np.exp(-rate * atoms)))


def _completion_of(rates, masses, atoms, s):
    anchors = [_atomic_transform(masses, atoms, rate) for rate in rates]
    mid, half = specfun._anchor_completion(rates, anchors, s, T_MIN_THETA)
    return mid, half, _atomic_transform(masses, atoms, s), anchors[0]


@pytest.mark.parametrize("rates", ANCHOR_RATE_SETS, ids=["theta", "mixture"])
def test_anchor_completion_contains_truth(rates):
    # 2 to 6 atoms on [0, T_MIN_THETA] with masses over 600 decades, at s
    # anywhere in (0, rates[-1]]: the bracket is the moment problem's own,
    # so it holds the truth with no slack
    rng = np.random.default_rng(20)
    for _ in range(1500):
        atoms = rng.uniform(0.0, T_MIN_THETA, rng.integers(2, 7))
        masses = rng.exponential(1.0, atoms.size) * 10.0 ** rng.uniform(-300, 300)
        s = rng.uniform(0.0, rates[-1])
        mid, half, truth, c0 = _completion_of(rates, masses, atoms, s)
        assert half < 0.5 * c0  # never the fallback
        assert abs(truth - mid) <= half, (atoms, masses, s)


@pytest.mark.parametrize("rates", ANCHOR_RATE_SETS, ids=["theta", "mixture"])
def test_anchor_completion_is_sharp(rates):
    # a measure that is itself a principal representation, atoms at {0, xi}
    # or at {xi, T_MIN_THETA}, sits on one end of the bracket
    rng = np.random.default_rng(21)
    for k in range(1000):
        xi = rng.uniform(0.0, T_MIN_THETA)
        atoms = np.array([0.0, xi] if k % 2 else [xi, T_MIN_THETA])
        masses = rng.exponential(1.0, 2) * 10.0 ** rng.uniform(-300, 300)
        s = rng.uniform(0.0, rates[-1])
        mid, half, truth, c0 = _completion_of(rates, masses, atoms, s)
        assert min(abs(truth - mid + half), abs(truth - mid - half)) <= 1e-12 * c0


@pytest.mark.parametrize("rates", ANCHOR_RATE_SETS, ids=["theta", "mixture"])
@pytest.mark.parametrize("atom", [0.0, 0.05, 0.1, 0.15, T_MIN_THETA])
def test_anchor_completion_one_atom(rates, atom):
    # one atom is the boundary of the moment cone: its bracket is a single
    # point up to rounding, or the fallback [0, c_0 e^{(rates[0] - s)^+ tau}]
    # where rounding puts the anchors outside the cone; either holds the
    # truth, below the first rate too
    for s in [1e-6, 0.1 * rates[0], 0.5 * rates[0], 0.9 * rates[0], rates[0], 0.5, rates[1],
              rates[-1]]:
        mid, half, truth, c0 = _completion_of(rates, np.array([3.0]), np.array([atom]), s)
        assert abs(truth - mid) <= half + 1e-12 * c0, s


def test_theta_time_laplace_domain():
    with pytest.raises(DomainError):
        theta_time_laplace(1.0, 0.0)
    with pytest.raises(DomainError):
        theta_time_laplace(1.0, 12.6)
    with pytest.raises(DomainError):
        theta_time_laplace(0.5, 1e-3)  # below the smallest anchor rate 0.045
    val, bound = theta_time_laplace(1.0, 12.5)  # boundary rate is allowed
    assert val > 0.0 and bound >= 0.0
