"""Command-line front end.

Four subcommands: `density` evaluates a distribution curve to CSV,
`laplace` prints the three transform estimates side by side, `simulate`
dumps a path or a terminal sample, `validate` runs the statistical
suite.  Exit codes: 0 success, 1 statistical failure (validate only),
2 usage or domain error, always with a one-line `error: ...` reason on
standard error.  Files are written to a temporary sibling and renamed
into place, so an error never leaves a partial file behind.  When
`--seed` is omitted the seed comes from OS entropy and is echoed to
standard output so the run stays reproducible after the fact.
"""

import argparse
import os
import secrets
import sys
import tempfile

import numpy as np

from .density import (
    curve_exact_half,
    curve_exp_time,
    curve_general_mc,
    curve_lognormal,
    exp_time_total_mass,
    write_density_csv,
)
from .errors import ConvergenceError, DomainError
from .simulate import (
    ModelParams,
    TimeGrid,
    dump_path_csv,
    laplace_mc_besq,
    laplace_mc_direct,
    laplace_mc_gbm,
    simulate_functional,
    simulate_terminal_batch,
)
from .validate import SuiteConfig, format_summary, run_suite, write_report_csv

_DENSITY_KINDS = ("lognormal", "exact-half", "exp-time", "general-mc")

# Default grid sizes per kind: enough points that the trapezoid mass of the
# written curve sits inside each kind's advertised tolerance.
_DENSITY_POINTS = {
    "lognormal": 200,
    "exact-half": 600,
    "exp-time": 800,
    "general-mc": 72,
}


def _resolve_seed(args):
    if args.seed is None:
        seed = secrets.randbits(32)
        print(f"seed={seed}")
        return seed
    return args.seed


def _atomic_write(path, writer):
    """Write through a temporary file in the target directory; the real
    path appears only after the writer has finished."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-verhulst-")
    try:
        with os.fdopen(fd, "w") as fh:
            writer(fh)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_density(args):
    points = args.points if args.points is not None else _DENSITY_POINTS[args.kind]
    mass = None
    if args.kind == "lognormal":
        curve = curve_lognormal(args.mu, args.t, n_points=points)
    elif args.kind == "exact-half":
        curve = curve_exact_half(args.x, args.t, n_points=points)
    elif args.kind == "exp-time":
        curve = curve_exp_time(args.x, args.lam, n_points=points)
        try:
            # the written curve is a plot grid; the mass line is a quadrature
            mass = exp_time_total_mass(args.x, args.lam)
        except DomainError:
            pass  # rate outside the truncation band: report the trapezoid mass
    else:
        seed = _resolve_seed(args)
        grid = np.geomspace(args.x_min, args.x_max, points)
        curve, _ = curve_general_mc(
            args.gamma, args.mu, args.t, grid, args.n, seed, threads=args.threads
        )
    _atomic_write(args.output, lambda fh: write_density_csv(curve, fh))
    if mass is None:
        mass = curve.total_mass
    print(f"total_mass={mass:.12g}")
    return 0


def cmd_laplace(args):
    seed = _resolve_seed(args)
    params = ModelParams(mu=args.mu, beta=args.beta, x0=1.0)
    besq_error = None
    rows = []
    try:
        est = laplace_mc_besq(args.lam, params, args.t, args.n, seed, threads=args.threads)
        rows.append(("besq", est))
    except DomainError as exc:
        besq_error = exc
    rows.append(
        ("gbm", laplace_mc_gbm(args.lam, params, args.t, args.n, seed + 1, threads=args.threads))
    )
    rows.append(
        (
            "direct",
            laplace_mc_direct(args.lam, params, args.t, args.n, seed + 2, threads=args.threads),
        )
    )
    print("route,estimate,stderr")
    for name, est in rows:
        print(f"{name},{est.mean:.10g},{est.stderr:.3g}")
    if besq_error is not None:
        print(f"error: {besq_error}", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args):
    seed = _resolve_seed(args)
    if args.coupled:
        params = ModelParams.coupled_start(args.x0)
    else:
        params = ModelParams(mu=args.mu, beta=args.beta, x0=args.x0)
    grid = TimeGrid.with_step(args.t, args.dt)
    if args.mode == "path":
        if args.n != 1:
            raise DomainError("path mode writes exactly one path; use --n 1")
        sample = simulate_functional(params, grid, seed)
        _atomic_write(args.output, lambda fh: dump_path_csv(sample, fh))
    else:
        stats = simulate_terminal_batch(params, grid, args.n, seed, threads=args.threads)

        def write_terminal(fh):
            fh.write("replicate,theta_T\n")
            for i, v in enumerate(stats.theta):
                fh.write(f"{i},{v:.17g}\n")

        _atomic_write(args.output, write_terminal)
    return 0


def cmd_validate(args):
    seed = _resolve_seed(args)
    config = SuiteConfig(
        seed=seed, budget=args.budget, only=tuple(args.only or ()), threads=args.threads
    )
    reports = run_suite(config)
    if not reports:
        raise DomainError("no registered check matches --only filter")
    _atomic_write(args.output, lambda fh: write_report_csv(reports, fh))
    print(format_summary(reports))
    return 0 if all(r.passed for r in reports) else 1


def _add_common(sp, seed=True, threads=True):
    if seed:
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (default: OS entropy, echoed)")
    if threads:
        sp.add_argument("--threads", type=int, default=1, help="worker cap; results do not depend on it")


def build_parser():
    p = argparse.ArgumentParser(
        prog="verhulst",
        description="Densities, Laplace transforms and Monte Carlo checks for the "
        "logistic diffusion driven by geometric Brownian motion.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    d = sub.add_parser("density", help="evaluate a density curve to CSV")
    d.add_argument("--kind", choices=_DENSITY_KINDS, required=True)
    d.add_argument("--mu", type=float, default=0.0)
    d.add_argument("--t", type=float, default=1.0)
    d.add_argument("--x", type=float, default=1.0, help="start value (exact-half, exp-time)")
    d.add_argument("--lambda", dest="lam", type=float, default=1.0, help="exponential-time rate")
    d.add_argument("--gamma", type=float, default=1.0, help="crowding parameter (general-mc)")
    d.add_argument("--n", type=int, default=100_000, help="MC sample size (general-mc)")
    d.add_argument(
        "--points", type=int, default=None,
        help="number of grid points (default depends on --kind)",
    )
    d.add_argument("--x-min", type=float, default=0.01, help="curve grid start (general-mc)")
    d.add_argument("--x-max", type=float, default=20.0, help="curve grid end (general-mc)")
    d.add_argument("--output", required=True, help="curve CSV path")
    _add_common(d)
    d.set_defaults(fn=cmd_density)

    l = sub.add_parser("laplace", help="three estimates of E exp(-lambda theta_t)")
    l.add_argument("--lambda", dest="lam", type=float, default=1.0)
    l.add_argument("--mu", type=float, default=0.0)
    l.add_argument("--beta", type=float, default=1.0)
    l.add_argument("--t", type=float, default=1.0)
    l.add_argument("--n", type=int, default=100_000)
    _add_common(l)
    l.set_defaults(fn=cmd_laplace)

    s = sub.add_parser("simulate", help="dump one path or a terminal sample to CSV")
    s.add_argument("--mode", choices=("terminal", "path"), default="terminal")
    s.add_argument("--mu", type=float, default=0.0)
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--x0", type=float, default=1.0)
    s.add_argument(
        "--coupled",
        action="store_true",
        help="start-coupled convention (mu=-1/2, beta=x0); overrides --mu/--beta",
    )
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--dt", type=float, default=1e-3)
    s.add_argument("--n", type=int, default=1, help="replicates (terminal mode)")
    s.add_argument("--output", required=True)
    _add_common(s)
    s.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("validate", help="run the statistical validation suite")
    v.add_argument("--budget", choices=("quick", "full"), default="quick")
    v.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="TOKEN",
        help="run only check groups whose name contains TOKEN (repeatable)",
    )
    v.add_argument("--output", required=True, help="report CSV path")
    _add_common(v)
    v.set_defaults(fn=cmd_validate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
