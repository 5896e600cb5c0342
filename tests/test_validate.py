"""Harness-level tests.

Report plumbing is checked exactly (the pass verdict is derived, the CSV
must round-trip quoted details).  The KS metric is pinned against the
degenerate cases where its value is a closed form and against the 99%
Kolmogorov band for a calibrated sample.  Each statistical check runs at
a reduced budget chosen so its gate still sits several sigma away from
the expected statistic; the acceptance suite runs each registry group
through run_suite at the full budget.
"""

import csv
import io
import math
import re
import threading

import numpy as np
import pytest

from verhulst import simulate, validate
from verhulst.density import GENERAL_MC_STEPS
from verhulst.errors import DomainError
from verhulst.simulate import ModelParams, TimeGrid, laplace_mc_direct, simulate_terminal_batch
from verhulst.validate import (
    SUITE_REGISTRY,
    SuiteConfig,
    TestReport,
    bessel_identity_check,
    format_summary,
    hartman_watson_identity_check,
    ks_distance,
    measure_change_test,
    representation_check,
    run_suite,
    write_report_csv,
    z2_symmetry_check,
)
from verhulst.validate import _CERTIFIED_DT, _mean_representation_residual
from verhulst.density import density_exp_time

# --- reports ------------------------------------------------------------------


def test_report_verdict_is_derived():
    assert TestReport("a", 1.0, 2.0, "quad").passed
    assert TestReport("a", 2.0, 2.0, "quad").passed  # inclusive threshold
    assert not TestReport("a", 2.0 + 1e-12, 2.0, "quad").passed
    assert not TestReport("a", math.nan, 2.0, "quad").passed
    assert not TestReport("a", math.inf, 0.0, "error").passed


def test_report_csv_quotes_details():
    reports = [
        TestReport("first", 0.5, 1.0, "n=5", 'commas, and "quotes"'),
        TestReport("second", 3.0, 1.0, "quad", ""),
    ]
    buf = io.StringIO()
    write_report_csv(reports, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["name", "statistic", "threshold", "passed", "details"]
    assert rows[1] == ["first", "0.5", "1", "true", 'commas, and "quotes"']
    assert rows[2] == ["second", "3", "1", "false", ""]


def test_summary_tally_and_bonferroni_note():
    few = [TestReport(f"t{i}", 0.1, 1.0, "n=100") for i in range(3)]
    s = format_summary(few)
    assert "3/3 checks passed" in s
    assert "note:" not in s
    many = [TestReport(f"t{i}", 0.1, 1.0, "n=100") for i in range(11)]
    assert "familywise" in format_summary(many)
    mixed = [TestReport(f"t{i}", 0.1, 1.0, "quad") for i in range(11)]
    assert "note:" not in format_summary(mixed)  # only MC checks are counted


# --- KS metric ------------------------------------------------------------------


def test_ks_single_sample_at_median():
    assert ks_distance(np.array([0.0]), lambda s: np.full_like(s, 0.5)) == 0.5


def test_ks_degenerate_cdf():
    assert ks_distance(np.array([1.0, 2.0, 3.0]), lambda s: np.zeros_like(s)) == 1.0


def test_ks_calibrated_uniform():
    # 99% Kolmogorov band at n = 1e4 is 1.63/sqrt(n)
    u = np.sort(np.random.default_rng(0).random(10_000))
    assert ks_distance(u, lambda s: s) < 1.63 / 100.0


def test_ks_input_validation():
    with pytest.raises(DomainError):
        ks_distance(np.array([]), lambda s: s)
    with pytest.raises(DomainError):
        ks_distance(np.array([2.0, 1.0]), lambda s: s)


# --- special-function identity checks -------------------------------------------


def test_bessel_product_identity():
    r = bessel_identity_check()
    assert r.passed
    assert r.statistic <= 1e-5
    assert "48 combinations" in r.details


def test_bessel_product_quad_one_series_pass_per_cell(monkeypatch):
    # the quadrature's small-argument nodes take one bessel_i call a cell
    calls = []
    real = validate.bessel_i
    monkeypatch.setattr(validate, "bessel_i", lambda *a: calls.append(a) or real(*a))
    for x, w in ((0.5, 3.0), (2.0, 2.0)):
        calls.clear()
        validate._bessel_product_quad(1.0, x, w)
        assert len(calls) == 1 and np.size(calls[0][1]) > 100


def test_hartman_watson_identity():
    r = hartman_watson_identity_check()
    assert r.passed
    assert r.statistic <= 1e-4
    assert "head bound" in r.details


# --- measure change --------------------------------------------------------------


def test_measure_change_passes_at_unit_parameters():
    r = measure_change_test(ModelParams(mu=0.0, beta=0.0, x0=1.0), 1.0, 1.0, 20_000, 42)
    assert r.passed
    assert r.n_or_tolerance == "n=20000"
    assert "P[theta<=1]" in r.details


def test_measure_change_degenerate_gamma_is_exact():
    r = measure_change_test(ModelParams(mu=0.0, beta=1.0, x0=1.0), 0.0, 1.0, 500, 9)
    assert r.statistic == 0.0
    assert r.passed


def test_measure_change_constant_f_is_martingale_test(monkeypatch):
    monkeypatch.setattr(validate, "_TEST_FNS", [("f==1", lambda th: np.ones_like(th))])
    r = measure_change_test(ModelParams(mu=0.0, beta=1.0, x0=1.0), 1.0, 1.0, 10_000, 3)
    assert "f==1" in r.details
    assert r.passed


@pytest.mark.parametrize("mu, beta, gamma, t, dt", [
    (0.0, 0.0, 1.0, 1.0, 2e-3),
    (0.0, 1.0, 1.0, 1.0, 2e-3),
    (0.0, 1.0, 1.0, 1.0, 1e-3),
    (0.3, 0.5, 0.7, 0.5, 1e-2),
    (-0.5, 2.0, 0.5, 1.0, 5e-3),
    (0.0, 0.0, 0.0, 1.0, 2e-3),
    (0.2, 1.0, 0.0, 1.0, 2e-3),
])
def test_measure_change_shifted_side_is_a_second_batch(mu, beta, gamma, t, dt, monkeypatch):
    # the test function sees the base ensemble, then the shifted one; the
    # shifted one, read off the base batch, must be bit for bit a second
    # batch at crowding beta + gamma on the same seed
    seen = []

    def record(theta):
        seen.append(theta.copy())
        return np.zeros_like(theta)

    n, seed = 2 * 4096 + 3, 61
    params = ModelParams(mu=mu, beta=beta)
    monkeypatch.setattr(validate, "_TEST_FNS", [("rec", record)])
    r = measure_change_test(params, gamma, t, n, seed, dt=dt)
    assert r.statistic == 0.0
    grid = TimeGrid.with_step(t, dt)
    base = simulate_terminal_batch(params, grid, n, seed)
    second = simulate_terminal_batch(ModelParams(mu=mu, beta=beta + gamma), grid, n, seed)
    assert np.array_equal(seen[0], base.theta)
    assert np.array_equal(seen[1], second.theta)


def test_measure_change_domain():
    with pytest.raises(DomainError):
        measure_change_test(ModelParams(mu=0.0, beta=0.0, x0=2.0), 1.0, 1.0, 100, 0)
    with pytest.raises(DomainError):
        measure_change_test(ModelParams.coupled_start(2.0), 1.0, 1.0, 100, 0)
    with pytest.raises(DomainError):
        measure_change_test(ModelParams(mu=0.0, beta=0.0, x0=1.0), -1.0, 1.0, 100, 0)


# --- pathwise representation ------------------------------------------------------


def test_representation_exact_for_gbm():
    # alpha = 0 is the degenerate beta = 0 case
    r = representation_check(0.0, 1.0, TimeGrid(1.0, 200), seed=4)
    assert "beta=0 " in r.details
    assert r.statistic < 1e-12


def test_representation_residual_within_bound():
    r = representation_check(0.5, 1.0, TimeGrid(1.0, 1000), seed=11)
    assert "alpha=0.5 beta=1 gamma=1 mu=0;" in r.details
    assert r.threshold == pytest.approx(1e-2)
    assert r.passed
    assert "node 0 = 0.0e+00" in r.details


def test_representation_alpha_domain():
    for alpha in (-0.1, 1.0, math.nan):
        with pytest.raises(DomainError, match="alpha must lie in"):
            representation_check(alpha, 1.0, TimeGrid(1.0, 10), seed=0)


def test_representation_residual_shrinks_under_refinement():
    seeds = range(21, 24)
    coarse = _mean_representation_residual(0.5, 1.0, TimeGrid(1.0, 500), seeds)
    fine = _mean_representation_residual(0.5, 1.0, TimeGrid(1.0, 1000), seeds)
    assert fine / coarse < 0.75


# --- exponential-time symmetry -----------------------------------------------------


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_z2_symmetry(lam):
    r = z2_symmetry_check(lam, (0.5, 1.0, 2.0))
    assert r.passed
    assert r.statistic < 1e-3
    assert type(r.statistic) is float
    assert r.name == f"z2_symmetry[lam={lam:g}]"
    assert r.details.endswith("; z_grid=[0.5, 1.0, 2.0]")


def test_z2_one_density_call_per_integral(monkeypatch):
    # each side of each z is one log-panel integral over one node array
    calls = []
    real = validate.density_exp_time
    monkeypatch.setattr(validate, "density_exp_time", lambda *a: calls.append(a) or real(*a))
    assert z2_symmetry_check(1.0, (0.5, 2.0)).passed
    assert len(calls) == 4


def test_z2_integrands_share_kernel():
    # at x = z = w the two integrands are literally the same expression
    lam, z = 1.0, 1.0
    lhs = z * z * 2.0 * math.exp(-2.0 * z) * density_exp_time(z, lam, z)
    rhs = 2.0 * math.exp(-2.0 * z) * z * z * density_exp_time(z, lam, z)
    assert lhs == rhs


@pytest.mark.parametrize("z_grid", [[1.0, 400.0], [400.0]])
def test_z2_symmetry_nan_gap_fails(z_grid):
    # at z = 400 both sides underflow to 0: the 0/0 gap is NaN, and a NaN
    # anywhere on the grid is the worst point, never skipped
    with pytest.warns(RuntimeWarning, match="invalid value"):
        r = z2_symmetry_check(1.0, z_grid)
    assert math.isnan(r.statistic)
    assert not r.passed
    assert "worst z=400;" in r.details


def test_z2_domain():
    with pytest.raises(DomainError):
        z2_symmetry_check(0.0, (1.0,))
    with pytest.raises(DomainError):
        z2_symmetry_check(1.0, ())


_P0 = ModelParams(mu=0.0, beta=0.0, x0=1.0)
_NAN, _INF = math.nan, math.inf
_NON_FINITE = {
    # id: (the name the refusal must give, the call)
    "measure_change t=nan": ("t_end", lambda: measure_change_test(_P0, 1.0, _NAN, 100, 0)),
    "measure_change t=inf": ("t_end", lambda: measure_change_test(_P0, 1.0, _INF, 100, 0)),
    "measure_change dt=nan": (
        "dt", lambda: measure_change_test(_P0, 1.0, 1.0, 100, 0, dt=_NAN)
    ),
    "measure_change gamma=nan": (
        "gamma", lambda: measure_change_test(_P0, _NAN, 1.0, 100, 0)
    ),
    "representation gamma=nan": (
        "gamma", lambda: representation_check(0.5, _NAN, TimeGrid(1.0, 10), 0)
    ),
    "ks_distance sample=nan": ("samples", lambda: ks_distance([0.1, _NAN], lambda s: s)),
    "z2 lam=nan": ("lam", lambda: z2_symmetry_check(_NAN, (1.0,))),
}


_NON_INTEGRAL = {
    # id: (the name the refusal must give, the call)
    "measure_change n=nan": ("n", lambda: measure_change_test(_P0, 1.0, 1.0, _NAN, 0)),
    "measure_change n=2.5": ("n", lambda: measure_change_test(_P0, 1.0, 1.0, 2.5, 0)),
    "measure_change n=1": ("n", lambda: measure_change_test(_P0, 1.0, 1.0, 1, 0)),
    "measure_change threads=nan": (
        "threads", lambda: measure_change_test(_P0, 1.0, 1.0, 100, 0, threads=_NAN)
    ),
    "suite threads=nan": ("threads", lambda: SuiteConfig(threads=_NAN)),
    "suite threads=1.5": ("threads", lambda: SuiteConfig(threads=1.5)),
    "suite seed=-1": ("seed", lambda: SuiteConfig(seed=-1)),
    "suite seed=1.5": ("seed", lambda: SuiteConfig(seed=1.5)),
    "measure_change seed=-1": ("seed", lambda: measure_change_test(_P0, 1.0, 1.0, 100, -1)),
}
_REFUSALS = {
    **{key: (rf"^{name} must be finite", call) for key, (name, call) in _NON_FINITE.items()},
    **{key: (rf"^{name} must be an integer", call) for key, (name, call) in _NON_INTEGRAL.items()},
}


@pytest.mark.parametrize("pattern, call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_non_finite_inputs_refused(pattern, call):
    # NaN passes every `x <= 0` guard; each input must be refused by its
    # own name, not turned into a NaN statistic, a Python ValueError or
    # TypeError, or a complaint about another argument
    with pytest.raises(DomainError, match=pattern):
        call()


# --- suite runner -------------------------------------------------------------------


def test_suite_config_validation():
    with pytest.raises(DomainError):
        SuiteConfig(budget="lavish")
    with pytest.raises(DomainError):
        SuiteConfig(threads=0)


def test_suite_empty_registry(monkeypatch):
    monkeypatch.setattr(validate, "SUITE_REGISTRY", ())
    assert run_suite(SuiteConfig()) == []


def test_suite_manifest_covers_acceptance_checks():
    assert [key for key, _ in SUITE_REGISTRY] == [
        "bessel_product_identity",
        "hartman_watson_identity",
        "fixed_time",
        "exp_time",
        "mixture",
        "martingale",
        "measure_change",
        "moment",
        "laplace",
        "general_density",
        "representation",
        "z2_symmetry",
        "determinism",
    ]


def _probe_check(config, knobs, seed):
    est = laplace_mc_direct(1.0, ModelParams(mu=0.0, beta=1.0, x0=1.0), 1.0, 3000, seed)
    return [TestReport("mc_probe", est.mean, math.inf, f"n={est.n}", f"seed={seed}")]


def _boom_check(config, knobs, seed):
    raise ValueError("boom")


def test_suite_records_failures_without_aborting(monkeypatch):
    monkeypatch.setattr(validate, "SUITE_REGISTRY", (("boom", _boom_check), ("probe", _probe_check)))
    reports = run_suite(SuiteConfig())
    assert [r.name for r in reports] == ["boom", "mc_probe"]
    assert not reports[0].passed
    assert "ValueError: boom" in reports[0].details
    assert reports[1].passed


def test_suite_only_filter(monkeypatch):
    monkeypatch.setattr(validate, "SUITE_REGISTRY", (("alpha", _probe_check), ("beta", _boom_check)))
    reports = run_suite(SuiteConfig(only=("alph",)))
    assert [r.name for r in reports] == ["mc_probe"]


def test_suite_only_selects_each_registry_group_alone(monkeypatch):
    # `only` matches by substring; the acceptance tests select one group per key
    monkeypatch.setattr(validate, "SUITE_REGISTRY", [
        (key, lambda config, knobs, seed, key=key: [TestReport(key, 0.0, 0.0, "exact")])
        for key, _ in SUITE_REGISTRY
    ])
    for key, _ in SUITE_REGISTRY:
        assert [r.name for r in run_suite(SuiteConfig(only=(key,)))] == [key]


def test_suite_group_threads_give_identical_reports():
    # run_suite hands config.threads to the samplers inside a group
    one, two = (
        run_suite(SuiteConfig(seed=5, only=("measure_change",), threads=th)) for th in (1, 2)
    )
    assert len(one) == 2
    assert one == two


@pytest.mark.parametrize("threads", [1, 2])
def test_suite_groups_run_on_the_calling_thread(threads, monkeypatch):
    # config.threads is the block-worker count of each sampler call; the
    # groups themselves run one after another on the caller's thread
    ran = []

    def record(config, knobs, seed):
        ran.append(threading.get_ident())
        return [TestReport("here", 0.0, 0.0, "exact")]

    monkeypatch.setattr(validate, "SUITE_REGISTRY", [(f"g{i}", record) for i in range(4)])
    run_suite(SuiteConfig(threads=threads))
    assert ran == [threading.get_ident()] * 4


def test_general_density_work(monkeypatch):
    # criterion 10 at the quick budget: the KS batch steps at the certified
    # step, and no more bridges are drawn than the curve's and one block
    # for the histogram's conditional window probability
    batches, bridges = [], []

    def batch(params, grid, n, seed, threads=1, _real=validate.simulate_terminal_batch):
        batches.append((grid, n))
        return _real(params, grid, n, seed, threads=threads)

    def walk(grid, n, seed, consume, threads, _real=simulate._walk_bridges):
        bridges.append((grid, n))
        return _real(grid, n, seed, consume, threads)

    monkeypatch.setattr(validate, "simulate_terminal_batch", batch)
    monkeypatch.setattr(simulate, "_walk_bridges", walk)
    reports = run_suite(SuiteConfig(budget="quick", only=("general_density",)))
    assert [r.passed for r in reports] == [True] * 3
    assert batches == [(TimeGrid.with_step(1.0, _CERTIFIED_DT), 100_000)]
    assert {grid for grid, _ in bridges} == {TimeGrid(1.0, GENERAL_MC_STEPS)}
    assert sum(n for _, n in bridges) <= 20_000 + 4096


def test_general_density_histogram_bias_is_small():
    # the window average differs from the density at 1 by its curvature
    # bias; at a fifth of the gate's combined error the 3-sigma gate keeps
    # close to its nominal false-alarm rate
    hist = run_suite(SuiteConfig(budget="quick", only=("general_density",)))[0]
    assert hist.name == "general_density_histogram"
    se = float(re.search(r"estimate=\S+?\+-(\S+?);", hist.details)[1])
    se_hist = float(re.search(r"histogram=\S+?\+-(\S+?) ", hist.details)[1])
    bias = float(re.search(r"curvature bias (\S+?)\)", hist.details)[1])
    assert abs(bias) <= 0.2 * math.hypot(se, se_hist), hist.details


def test_suite_rerun_and_thread_invariance(monkeypatch):
    monkeypatch.setattr(validate, "SUITE_REGISTRY", (("p1", _probe_check), ("p2", _probe_check)))
    a = run_suite(SuiteConfig(seed=7))
    b = run_suite(SuiteConfig(seed=7))
    c = run_suite(SuiteConfig(seed=7, threads=2))
    assert [r.statistic for r in a] == [r.statistic for r in b]
    assert [r.statistic for r in a] == [r.statistic for r in c]
    # per-group seeds differ, so the two probes are distinct draws
    assert a[0].statistic != a[1].statistic
