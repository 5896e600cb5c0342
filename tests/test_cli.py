"""Tests for the command-line front end.

Everything runs `main(argv)` in process so exit codes, stdout contracts
and file side effects are observed directly; one subprocess test pins
the `python -m verhulst` entry point.  The file-writing commands are
checked for atomicity: a failing run must leave neither the target nor
a temporary sibling behind.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import verhulst.cli as cli
from verhulst.cli import _atomic_write, main
from verhulst.simulate import PATH_CSV_HEADER
from verhulst.validate import REPORT_CSV_HEADER, TestReport


def _no_tmp_remnants(directory):
    return not [p for p in os.listdir(directory) if p.startswith(".tmp-verhulst-")]


# --- entry point and usage errors ---------------------------------------------


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "verhulst", "simulate", "--t", "abc", "--output", "x.csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid float value" in proc.stderr


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_density_kind_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--kind", "nope", "--output", str(tmp_path / "c.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["laplace", "--besq-horizon", "t4"],
        ["density", "--kind", "general-mc", "--variant", "endpoint-conditional",
         "--output", "c.csv"],
    ],
)
def test_removed_estimator_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# --- density -------------------------------------------------------------------


def test_density_exp_time_mass_line(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    rc = main(["density", "--kind", "exp-time", "--x", "1", "--lambda", "1",
               "--output", str(out)])
    assert rc == 0
    mass = float(capsys.readouterr().out.strip().split("=")[1])
    assert abs(mass - 1.0) < 1e-6
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# kind=exp_time")
    assert lines[1] == "x,density"
    assert len(lines) == 800 + 2  # default grid for this kind


def test_density_exp_time_points_override(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    rc = main(["density", "--kind", "exp-time", "--x", "1", "--lambda", "1",
               "--points", "50", "--output", str(out)])
    assert rc == 0
    # the mass line comes from quadrature, not the 50-point trapezoid
    mass = float(capsys.readouterr().out.strip().split("=")[1])
    assert abs(mass - 1.0) < 1e-6
    assert len(out.read_text().splitlines()) == 52


def test_density_exp_time_rate_outside_quadrature_band(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    rc = main(["density", "--kind", "exp-time", "--x", "1", "--lambda", "0.02",
               "--output", str(out)])
    assert rc == 0  # curve still written; mass falls back to the trapezoid
    assert out.exists()
    # at this rate the z^{nu-3/2} head below the grid floor carries real
    # mass, which is exactly why the certified quadrature declines it
    mass = float(capsys.readouterr().out.strip().split("=")[1])
    assert 0.0 < mass < 1.0


def test_density_exp_time_start_above_grid(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    rc = main(["density", "--kind", "exp-time", "--x", "50", "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_density_exact_half_mass(tmp_path, capsys):
    out = tmp_path / "fixed.csv"
    rc = main(["density", "--kind", "exact-half", "--x", "1", "--t", "1",
               "--output", str(out)])
    assert rc == 0
    mass = float(capsys.readouterr().out.strip().split("=")[1])
    assert abs(mass - 1.0) < 1e-3


def test_density_exact_half_mass_at_large_start(tmp_path, capsys):
    # a fixed log-z window once returned 0 everywhere from x + w >= 58
    out = tmp_path / "fixed.csv"
    rc = main(["density", "--kind", "exact-half", "--x", "60", "--t", "1",
               "--output", str(out)])
    assert rc == 0
    mass = float(capsys.readouterr().out.strip().split("=")[1])
    assert abs(mass - 1.0) < 1e-3


def test_density_exact_half_default_points_at_t4(tmp_path, capsys):
    out = tmp_path / "fixed.csv"
    rc = main(["density", "--kind", "exact-half", "--x", "1", "--t", "4",
               "--output", str(out)])
    assert rc == 0
    mass = float(capsys.readouterr().out.strip().split("=")[1])
    assert abs(mass - 1.0) < 1e-3
    assert len(out.read_text().splitlines()) == 600 + 2


def test_density_lognormal_grid_size(tmp_path, capsys):
    out = tmp_path / "ln.csv"
    rc = main(["density", "--kind", "lognormal", "--mu", "0", "--t", "1",
               "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 200 + 2


def test_density_domain_error_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "fixed.csv"
    rc = main(["density", "--kind", "exact-half", "--x", "1", "--t", "0.05",
               "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert _no_tmp_remnants(tmp_path)


# --- laplace -------------------------------------------------------------------


def _parse_laplace(out):
    lines = out.strip().splitlines()
    assert lines[0] == "route,estimate,stderr"
    rows = {}
    for line in lines[1:]:
        name, mean, se = line.split(",")
        rows[name] = (float(mean), float(se))
    return rows


def test_laplace_lambda_zero_all_routes(capsys):
    rc = main(["laplace", "--lambda", "0", "--beta", "1", "--mu", "0", "--t", "1",
               "--n", "5000", "--seed", "17"])
    assert rc == 0
    rows = _parse_laplace(capsys.readouterr().out)
    assert set(rows) == {"besq", "gbm", "direct"}
    assert rows["besq"][0] == pytest.approx(1.0, abs=1e-12)
    assert rows["besq"][1] < 1e-15
    assert rows["direct"] == (1.0, 0.0)
    mean, se = rows["gbm"]
    assert abs(mean - 1.0) <= 5 * se


def test_laplace_beta_zero_prints_other_routes(capsys):
    rc = main(["laplace", "--lambda", "1", "--beta", "0", "--mu", "0", "--t", "1",
               "--n", "2000", "--seed", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    rows = _parse_laplace(captured.out)
    assert set(rows) == {"gbm", "direct"}  # besq declined, the rest still report
    assert captured.err.startswith("error:")
    assert "beta" in captured.err


def test_laplace_routes_agree(capsys):
    rc = main(["laplace", "--lambda", "1", "--beta", "1", "--mu", "0", "--t", "1",
               "--n", "20000", "--seed", "29"])
    assert rc == 0
    rows = _parse_laplace(capsys.readouterr().out)
    for a in ("besq", "gbm"):
        diff = abs(rows[a][0] - rows["direct"][0])
        assert diff <= 4 * math.hypot(rows[a][1], rows["direct"][1])


def test_laplace_default_besq_agrees_with_direct(capsys):
    rc = main(["laplace", "--n", "20000", "--seed", "7"])
    assert rc == 0
    rows = _parse_laplace(capsys.readouterr().out)
    diff = abs(rows["besq"][0] - rows["direct"][0])
    assert diff <= 4 * math.hypot(rows["besq"][1], rows["direct"][1])


@pytest.mark.parametrize("argv", [
    ["laplace", "--t", "nan"],
    ["laplace", "--lambda", "nan"],
    ["simulate", "--dt", "nan"],
    ["density", "--kind", "exact-half", "--x", "1", "--t", "nan"],
    ["density", "--kind", "general-mc", "--gamma", "nan"],
    ["density", "--kind", "lognormal", "--mu", "nan"],
])
def test_nan_input_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    extra = ["--output", str(out)] if argv[0] in ("simulate", "density") else []
    assert main(argv + extra + ["--n", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("bounds, flag", [
    (["--x-min", "0"], "--x-min"),
    (["--x-min", "nan"], "--x-min"),
    (["--x-max", "inf"], "--x-max"),
    (["--x-min", "5", "--x-max", "1"], "--x-max"),
])
def test_density_general_mc_grid_bounds_exit_2(bounds, flag, tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = ["density", "--kind", "general-mc", "--n", "100", "--seed", "1", "--output", str(out)]
    assert main(argv + bounds) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} ") and captured.err.count("\n") == 1
    assert captured.out == ""  # refused before the Monte Carlo run
    assert not out.exists()


# --- simulate ------------------------------------------------------------------


def test_simulate_rerun_and_thread_invariance(tmp_path, capsys):
    args = ["simulate", "--mode", "terminal", "--mu", "0", "--beta", "1",
            "--t", "1", "--dt", "0.01", "--n", "400", "--seed", "11"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    assert main(args + ["--threads", "3", "--output", str(paths[2])]) == 0
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    lines = blobs[0].decode().splitlines()
    assert lines[0] == "replicate,theta_T"
    assert len(lines) == 401


def test_simulate_gbm_terminal_mean(tmp_path, capsys):
    out = tmp_path / "gbm.csv"
    rc = main(["simulate", "--mode", "terminal", "--mu", "0", "--beta", "0",
               "--t", "1", "--dt", "0.01", "--n", "20000", "--seed", "505",
               "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    vals = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
    m = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(m - math.exp(0.5)) <= 3 * se  # exact lognormal marginal at any dt


def test_simulate_path_rows(tmp_path, capsys):
    out = tmp_path / "path.csv"
    rc = main(["simulate", "--mode", "path", "--x0", "2", "--coupled",
               "--t", "1", "--dt", "0.1", "--n", "1", "--seed", "4",
               "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == PATH_CSV_HEADER
    assert len(lines) == 12  # 10 steps -> 11 nodes including t=0
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 2.0  # starts at x0


def test_simulate_path_mode_rejects_batches(tmp_path, capsys):
    out = tmp_path / "path.csv"
    rc = main(["simulate", "--mode", "path", "--n", "3", "--seed", "1",
               "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_simulate_entropy_seed_echo_reproduces(tmp_path, capsys):
    args = ["simulate", "--mode", "terminal", "--t", "0.5", "--dt", "0.05",
            "--n", "50"]
    first = tmp_path / "a.csv"
    assert main(args + ["--output", str(first)]) == 0
    out = capsys.readouterr().out
    seed_lines = [l for l in out.splitlines() if l.startswith("seed=")]
    assert len(seed_lines) == 1
    seed = int(seed_lines[0].split("=")[1])
    second = tmp_path / "b.csv"
    assert main(args + ["--seed", str(seed), "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


# --- atomic writes ---------------------------------------------------------------


def test_atomic_write_success(tmp_path):
    target = tmp_path / "ok.txt"
    _atomic_write(str(target), lambda fh: fh.write("done\n"))
    assert target.read_text() == "done\n"
    assert _no_tmp_remnants(tmp_path)


def test_atomic_write_failure_leaves_nothing(tmp_path):
    target = tmp_path / "broken.txt"

    def writer(fh):
        fh.write("partial")
        raise RuntimeError("mid-write")

    with pytest.raises(RuntimeError):
        _atomic_write(str(target), writer)
    assert not target.exists()
    assert _no_tmp_remnants(tmp_path)


# --- validate --------------------------------------------------------------------


def test_validate_single_group(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["validate", "--budget", "quick", "--only", "martingale",
               "--seed", "20240", "--output", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 2
    assert ",true," in lines[1]


def test_validate_unmatched_filter(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["validate", "--only", "nosuchgroup", "--seed", "1",
               "--output", str(out)])
    assert rc == 2
    assert "filter" in capsys.readouterr().err
    assert not out.exists()


def test_validate_bad_budget_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--budget", "huge", "--output", str(tmp_path / "r.csv")])
    assert exc.value.code == 2


def test_validate_failure_exit_code(tmp_path, capsys, monkeypatch):
    red = TestReport(
        name="probe_gate", statistic=1.0, threshold=0.5, n_or_tolerance="quad"
    )
    monkeypatch.setattr(cli, "run_suite", lambda config: [red])
    out = tmp_path / "report.csv"
    rc = main(["validate", "--seed", "1", "--output", str(out)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    assert ",false," in out.read_text().splitlines()[1]


def test_validate_quick_budget_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["validate", "--budget", "quick", "--seed", "20240",
               "--threads", "3", "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert all(",true," in line for line in lines[1:])
    assert f"{len(lines) - 1}/{len(lines) - 1} checks passed" in captured.out
