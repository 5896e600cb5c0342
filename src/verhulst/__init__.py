"""Exact distributions, Laplace transforms and Monte Carlo oracles for the
Verhulst process theta_t = x0 e^{B_t + mu t} / (1 + beta \\int_0^t e^{B_s + mu s} ds).
"""

from .density import (
    DensityCurve,
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
from .errors import ConvergenceError, DomainError
from .simulate import (
    McEstimate,
    ModelParams,
    PathSample,
    TerminalStats,
    TimeGrid,
    dump_path_csv,
    girsanov_weight_batch,
    laplace_mc_besq,
    laplace_mc_direct,
    laplace_mc_gbm,
    simulate_bridge_integrals,
    simulate_bridge_window,
    simulate_exp_terminal,
    simulate_functional,
    simulate_terminal_batch,
)
from .specfun import (
    BESSEL_I_MAX_X,
    bessel_i,
    bessel_k,
    bessel_product_F,
    hartman_watson_theta,
    laplace_kernel_F,
    phi_arcosh,
    theta_time_laplace,
)
from .validate import (
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

__version__ = "0.1.0"
