"""Experiment harness: bound formulas, config parsing, sweeps, rate fits."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from proxsgm.boost import optimal_gamma
from proxsgm.harness import (
    CSV_COLUMNS,
    BoundInputs,
    ConfigError,
    ExperimentConfig,
    fit_rate,
    fit_rate_from_csv,
    parse_config_file,
    run_sweep,
    theoretical_bound,
)
from proxsgm.moreau import InnerAccuracyError
from proxsgm.problems import problem_from_id
from proxsgm.solver import StepSchedule


# ------------------------------------------------------------ bound values


def test_cor22_hand_value():
    got = theoretical_bound("Cor22", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=0))
    assert got == pytest.approx(4.0, rel=1e-15)


def test_cor27_prints_same_value_as_cor22():
    inp = BoundInputs(delta=0.7, rho=1.3, L=2.0, gamma=0.2, T=24)
    assert theoretical_bound("Cor27", inp) == pytest.approx(
        theoretical_bound("Cor22", inp), rel=1e-15)


def test_cor27_step_cap():
    # gamma/sqrt(T+1) beyond 1/(2 rho) breaks the constant-step argument
    with pytest.raises(ValueError):
        theoretical_bound("Cor27", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=10.0, T=0))
    # the same gamma is admissible once the horizon dilutes the step
    theoretical_bound("Cor27", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=10.0, T=399))


def test_thm21_vs_thm26_noise_factor():
    # with delta = 0 the two differ exactly by the factor on L^2 sum alpha^2
    alphas = tuple([0.1] * 8)
    t21 = theoretical_bound(
        "ProjectedThm21", BoundInputs(delta=0.0, rho=1.0, rho_hat=2.0, L=1.5, alphas=alphas))
    t26 = theoretical_bound(
        "ProximalThm26", BoundInputs(delta=0.0, rho=1.0, rho_hat=2.0, L=1.5, alphas=alphas))
    assert t26 == pytest.approx(2.0 * t21, rel=1e-12)


def test_cor22_is_thm21_at_doubled_parameter():
    # Cor22 must coincide with its parent bound at rho_hat = 2 rho and a
    # constant tuned schedule alpha = gamma/sqrt(T+1)
    rho, L, gamma, T, delta = 1.3, 2.0, 0.25, 48, 0.7
    sched = StepSchedule.constant(gamma, T)
    parent = theoretical_bound(
        "ProjectedThm21",
        BoundInputs(delta=delta, rho=rho, rho_hat=2 * rho, L=L, alphas=tuple(sched.alphas)))
    cor = theoretical_bound("Cor22", BoundInputs(delta=delta, rho=rho, L=L, gamma=gamma, T=T))
    assert cor == pytest.approx(parent, rel=1e-12)


def test_smooth_cor29_reduces_at_rho_hat_2rho():
    rho, sigma, gamma, T, delta = 0.8, 0.3, 0.5, 63, 1.2
    sched = StepSchedule.constant(gamma, T)
    got = theoretical_bound(
        "SmoothCor29",
        BoundInputs(delta=delta, rho=rho, rho_hat=2 * rho, sigma=sigma,
                    alphas=tuple(sched.alphas)))
    want = 4.0 * (delta + rho * sigma**2 * gamma**2) / (gamma * math.sqrt(T + 1))
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_validation_errors():
    alphas = (0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        theoretical_bound("Cor22", BoundInputs(delta=1.0, rho=0.0, L=1.0, gamma=1.0, T=0))
    with pytest.raises(ValueError):  # rho_hat must exceed rho
        theoretical_bound(
            "ProjectedThm21",
            BoundInputs(delta=1.0, rho=1.0, rho_hat=1.0, L=1.0, alphas=alphas))
    with pytest.raises(ValueError):  # Thm26 needs rho_hat <= 2 rho
        theoretical_bound(
            "ProximalThm26",
            BoundInputs(delta=1.0, rho=1.0, rho_hat=2.5, L=1.0, alphas=alphas))
    with pytest.raises(ValueError):  # Thm26 step cap 1/rho_hat
        theoretical_bound(
            "ProximalThm26",
            BoundInputs(delta=1.0, rho=1.0, rho_hat=2.0, L=1.0, alphas=(0.6,)))
    with pytest.raises(ValueError):  # missing noise constant
        theoretical_bound(
            "SmoothCor29", BoundInputs(delta=1.0, rho=1.0, rho_hat=2.0, alphas=alphas))
    with pytest.raises(ValueError):  # steps unspecified
        theoretical_bound("Cor22", BoundInputs(delta=1.0, rho=1.0, L=1.0))
    with pytest.raises(ValueError):
        theoretical_bound("Thm999", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=0))


@pytest.mark.parametrize("T, kind", [(2.5, "float"), (3.0, "float"), (True, "bool"),
                                     ("3", "str")])
def test_bound_inputs_refuse_a_horizon_that_is_not_an_integer(T, kind):
    # a fractional horizon used to give a bound for a run that cannot exist
    with pytest.raises(ValueError, match=f"T must be an integer, got {kind}"):
        BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=T)


def test_bound_inputs_take_a_numpy_integer_horizon():
    inputs = BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=np.int64(3))
    assert theoretical_bound("Cor22", inputs) == theoretical_bound(
        "Cor22", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=3))


def test_cli_bounds_rejects_a_negative_horizon(capsys):
    from proxsgm import cli

    args = ["bounds", "--variant", "Cor27", "--delta", "1", "--rho", "1", "--L", "1"]
    args += ["--gamma", "1"]
    for T in (-1, -2):
        assert cli.main(args + ["--T", str(T)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --T must be a nonnegative horizon, got {T}\n"
    assert cli.main(args + ["--T", "3"]) == cli.EXIT_OK
    value = theoretical_bound("Cor27", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=3))
    assert capsys.readouterr().out == f"Cor27: {value:.12g}\n"


@pytest.mark.parametrize("variant", ["Cor22", "Cor27"])
def test_cli_bounds_builds_no_step_array_for_a_constant_step_corollary(capsys, variant):
    # the corollaries read gamma and T only: the (T+1,) step array at
    # T = 10**12 would take 8 TB
    import tracemalloc

    from proxsgm import cli

    T = 10**12
    args = ["bounds", "--variant", variant, "--delta", "1", "--rho", "1", "--L", "1"]
    args += ["--gamma", "1", "--T", str(T)]
    tracemalloc.start()
    try:
        assert cli.main(args) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    value = theoretical_bound(variant, BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=T))
    assert capsys.readouterr().out == f"{variant}: {value:.12g}\n"
    assert peak < 2**20


NON_BOUNDS = [
    (["--delta", "-5"], "delta"),
    (["--delta", "nan"], "delta"),
    (["--rho", "inf"], "rho"),
    (["--L", "nan"], "L"),
    (["--L", "-3"], "L"),
    (["--gamma", "inf"], "gamma"),
    (["--variant", "SmoothCor29", "--rho-hat", "nan", "--sigma", "1"], "rho_hat"),
    (["--variant", "SmoothCor29", "--rho-hat", "2", "--sigma", "inf"], "sigma"),
    (["--variant", "SmoothCor29", "--rho-hat", "2", "--sigma", "1", "--alphas", "0.1,inf"],
     "step sequence"),
]


@pytest.mark.parametrize("flags, field", NON_BOUNDS)
def test_cli_bounds_rejects_a_non_bound(capsys, flags, field):
    # a negative or non-finite constant would print a number that bounds
    # nothing (Cor27 printed -9.5 at delta = -5, nan at L = nan)
    from proxsgm import cli

    args = ["bounds", "--variant", "Cor27", "--delta", "1", "--rho", "1", "--L", "1"]
    args += ["--gamma", "0.5", "--T", "3"]
    assert cli.main(args + flags) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {field} must be")


# -------------------------------------------------------------- config file


def test_experiment_config_validation():
    ok = dict(problem_id="toy1d:abs", horizons=(10, 20), gamma=0.5)
    ExperimentConfig(**ok)
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**ok, "horizons": (20, 10)})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**ok, "horizons": ()})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**ok, "gamma": -0.5})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**ok, "gamma": "fastest"})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**ok, "n_seeds": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**ok, "inner_tol": 0.0})
    # the field stays for the benchmark's callers, which pass 1; no sweep reads it
    assert ExperimentConfig(**ok, workers=1).workers == 1
    for workers in (0, 2):
        with pytest.raises(ConfigError, match=f"workers must be 1, got {workers}"):
            ExperimentConfig(**ok, workers=workers)


@pytest.mark.parametrize("field, value, kind", [
    ("horizons", (10.7, 20), "float"),
    ("horizons", (True, 20), "bool"),
    ("horizons", ("10", "20"), "str"),
    ("horizons", (10, 20.0), "float"),
    ("n_seeds", 2.5, "float"),
    ("n_seeds", 3.0, "float"),
    ("n_seeds", True, "bool"),
    ("n_seeds", "3", "str"),
    ("workers", 1.0, "float"),
    ("workers", True, "bool"),
])
def test_experiment_config_refuses_an_integer_field_of_another_type(
    monkeypatch, field, value, kind
):
    # horizons (10.7, 20) used to run T = 10 and (True, 20) T = 1, and
    # n_seeds = 2.5 raised a bare TypeError after the x0 envelope solve
    from proxsgm import harness

    monkeypatch.setattr(harness, "moreau_prox", lambda *a: pytest.fail("solved"))
    config = dict(problem_id="toy1d:abs", horizons=(10, 20), gamma=0.5, output="")
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {kind}"):
        run_sweep(ExperimentConfig(**{**config, field: value}))


def test_experiment_config_takes_numpy_integers():
    cfg = ExperimentConfig(problem_id="toy1d:abs", horizons=(np.int64(10), np.int32(20)),
                           gamma=0.5, n_seeds=np.int64(2), output="")
    assert cfg.horizons == (10, 20) and all(type(t) is int for t in cfg.horizons)
    assert [(r.T, r.seed) for r in run_sweep(cfg, clock=lambda: 0.0).rows] == [
        (10, 0), (10, 1), (20, 0), (20, 1)]


def test_parse_config_file_roundtrip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# rate experiment\n"
        "problem_id = robust_regression:20:1:5\n"
        "horizons = 50, 100, 200\n"
        "gamma = optimal\n"
        "lambda = 0.9\n"
        "n_seeds = 3\n"
        "output = out.csv\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg.problem_id == "robust_regression:20:1:5"
    assert cfg.horizons == (50, 100, 200)
    assert cfg.gamma == "optimal"
    assert cfg.lam == 0.9
    assert cfg.n_seeds == 3
    assert cfg.output == "out.csv"


def test_parse_config_file_error_positions(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem_id = toy1d:abs\nhorizons = 10\ngamma = 1\nwat = 7\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:4: unknown key 'wat'"):
        parse_config_file(str(bad))
    # the a-priori gap behind gamma = optimal is not a key
    bad.write_text("problem_id = toy1d:abs\nhorizons = 10\ngamma = optimal\nR = 1.0\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:4: unknown key 'R'"):
        parse_config_file(str(bad))

    dup = tmp_path / "dup.cfg"
    dup.write_text("problem_id = toy1d:abs\nhorizons = 10\ngamma = 1\ngamma = 2\n")
    with pytest.raises(ConfigError, match=r"dup\.cfg:4: duplicate key"):
        parse_config_file(str(dup))

    missing = tmp_path / "missing.cfg"
    missing.write_text("horizons = 10\ngamma = 1\n")
    with pytest.raises(ConfigError, match="missing required key 'problem_id'"):
        parse_config_file(str(missing))

    badval = tmp_path / "badval.cfg"
    badval.write_text("problem_id = toy1d:abs\nhorizons = 10\ngamma = fast\n")
    with pytest.raises(ConfigError, match=r"badval\.cfg:3: bad value for gamma"):
        parse_config_file(str(badval))


NON_FINITE_CONFIG = [
    ("rho_hat", "nan"), ("lambda", "nan"), ("lambda", "inf"), ("lambda", "-1"),
    ("gamma", "nan"), ("gamma", "inf"), ("inner_tol", "nan"), ("inner_tol", "inf"),
]


@pytest.mark.parametrize("key, value", NON_FINITE_CONFIG)
def test_config_rejects_a_non_finite_value(tmp_path, capsys, key, value):
    # rho_hat or lambda = nan failed only after the x0 envelope solve with a
    # message naming neither key; inner_tol = nan ran and reported no misses
    from proxsgm import cli

    fields = {"problem_id": "toy1d:absquad", "horizons": "10, 20", "gamma": "0.3",
              "n_seeds": "2", "output": "", key: value}
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    with pytest.raises(ConfigError, match=f"^{key} must be finite and positive"):
        parse_config_file(str(path))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {key} must be finite and positive")


# ------------------------------------------------------------------ sweeps


def small_config(tmp_path=None, **over):
    base = dict(
        problem_id="toy1d:absquad",
        horizons=(30, 60),
        gamma=0.3,
        n_seeds=3,
        output=str(tmp_path / "sweep.csv") if tmp_path else "",
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_run_sweep_csv_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    run_sweep(cfg, clock=lambda: 0.0)
    first = (tmp_path / "sweep.csv").read_bytes()
    run_sweep(cfg, clock=lambda: 0.0)
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_run_sweep_csv_columns_and_parse(tmp_path):
    cfg = small_config(tmp_path)
    report = run_sweep(cfg, clock=lambda: 0.0)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 6
    # repr round trip: the parsed floats equal the report values exactly
    assert float(rows[0]["rho"]) == report.rho
    assert float(rows[0]["envelope_value_x0"]) == report.envelope_value_x0
    by_T = {int(r["T"]) for r in rows}
    assert by_T == {30, 60}


def test_run_sweep_defaults_and_bound_recompute():
    cfg = small_config()
    report = run_sweep(cfg, clock=lambda: 0.0)
    p = problem_from_id("toy1d:absquad")
    assert report.rho_hat == pytest.approx(2.0 * p.rho)
    assert report.lam == pytest.approx(1.0 / report.rho_hat)
    assert report.variant == "Cor27"
    for hs in report.per_horizon:
        want = theoretical_bound(
            "Cor27",
            BoundInputs(
                delta=report.envelope_value_x0 - report.phi_best,
                rho=report.rho_hat / 2.0,
                L=p.lipschitz_L,
                gamma=report.gamma,
                T=hs.T,
            ),
        )
        assert hs.bound_value == pytest.approx(want, rel=1e-12)


def test_run_sweep_phi_best_pools_all_observations():
    report = run_sweep(small_config(), clock=lambda: 0.0)
    assert report.phi_best <= min(r.phi_at_star for r in report.rows) + 1e-15
    assert report.phi_best <= report.envelope_value_x0 + 1e-15


def test_run_sweep_optimal_gamma_resolution():
    cfg = ExperimentConfig(
        problem_id="robust_regression:20:1:5",
        horizons=(20, 40),
        gamma="optimal",
        n_seeds=2,
        output="",
    )
    report = run_sweep(cfg, clock=lambda: 0.0)
    p = problem_from_id("robust_regression:20:1:5")
    # rho = 0 so rho_hat defaults to 1 and the declared modulus is 1/2
    assert report.rho_hat == 1.0
    L, D = p.lipschitz_L, p.domain_diameter
    R = min(0.5 * D * D, D * L)
    assert report.gamma == pytest.approx(optimal_gamma(R, 0.5, L))


def test_run_sweep_smooth_problem_uses_smooth_bound():
    cfg = ExperimentConfig(
        problem_id="smooth_ls:15:2:3",
        horizons=(20, 40),
        gamma=0.2,
        n_seeds=2,
        output="",
    )
    report = run_sweep(cfg, clock=lambda: 0.0)
    assert report.variant == "SmoothCor29"


def test_run_sweep_rejects_oversized_steps(monkeypatch):
    # gamma/sqrt(T+1) > 1/rho_hat at the smallest horizon is not admissible;
    # the schedule says so before the x0 envelope solve
    from proxsgm import harness

    monkeypatch.setattr(harness, "moreau_prox", lambda *a: pytest.fail("solved"))
    cfg = small_config(gamma=50.0)
    with pytest.raises(ConfigError, match=r"gamma=50\.0 at T=30: steps must lie in"):
        run_sweep(cfg, clock=lambda: 0.0)


def test_run_sweep_bounds_the_schedule_its_trials_ran(monkeypatch):
    # one schedule per horizon: every trial of it runs that schedule, and the
    # SmoothCor29 bound reads that schedule's steps
    from proxsgm import harness

    ran, bounded = {}, {}
    real_run, real_bound = harness.run_psgm, harness.theoretical_bound

    def run(problem, x0, schedule, rng):
        ran.setdefault(schedule.horizon, set()).add(id(schedule.alphas))
        return real_run(problem, x0, schedule, rng)

    def bound(variant, inputs):
        bounded[inputs.alphas.size - 1] = {id(inputs.alphas)}
        return real_bound(variant, inputs)

    monkeypatch.setattr(harness, "run_psgm", run)
    monkeypatch.setattr(harness, "theoretical_bound", bound)
    cfg = ExperimentConfig(problem_id="smooth_ls:15:2:3", horizons=(20, 40), gamma=0.2,
                           n_seeds=3, output="")
    assert run_sweep(cfg, clock=lambda: 0.0).variant == "SmoothCor29"
    assert ran == bounded and sorted(ran) == [20, 40]


def test_run_sweep_counts_inner_solver_misses(tmp_path, monkeypatch, capsys):
    from proxsgm import cli, harness

    assert [h.n_inner_missed for h in run_sweep(small_config()).per_horizon] == [0, 0]

    real = harness.moreau_prox
    calls = []

    def miss_third_call(problem, x, lam, tol):
        # calls: x0, then (T=30, seed 0), (T=30, seed 1), ...
        calls.append(x)
        pt = real(problem, x, lam, tol)
        if len(calls) == 3:
            raise InnerAccuracyError("forced", dataclasses.replace(pt, inner_tol=10 * tol))
        return pt

    monkeypatch.setattr(harness, "moreau_prox", miss_third_call)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "problem_id = toy1d:absquad\nhorizons = 30, 60\ngamma = 0.3\n"
        f"n_seeds = 3\noutput = {tmp_path / 'sweep.csv'}\n"
    )
    report = run_sweep(parse_config_file(cfg), clock=lambda: 0.0)
    assert [h.n_inner_missed for h in report.per_horizon] == [1, 0]
    assert report.rows[1].inner_tol_achieved > report.config.inner_tol

    calls.clear()
    assert cli.main(["run", str(cfg)]) == 0
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    horizon_lines = [ln for ln in lines if ln[0].startswith("T=")]
    assert [(ln[0], ln[-1]) for ln in horizon_lines] == [
        ("T=30", "inner_missed=1"),
        ("T=60", "inner_missed=0"),
    ]
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")) == CSV_COLUMNS


# --------------------------------------------------------------- rate fits


def test_fit_rate_exact_power_law():
    T = np.array([100, 1000, 10_000])
    slope, stderr = fit_rate(T, 3.0 * T**-0.5)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_constant_sequence():
    slope, _ = fit_rate([10, 100, 1000], [2.0, 2.0, 2.0])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate([10, 100], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([10, 100, 1000], [1.0, -0.5, 0.1])


def test_fit_rate_from_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        problem_id="toy1d:absquad",
        horizons=(30, 60, 120),
        gamma=0.3,
        n_seeds=3,
        output=str(tmp_path / "sweep.csv"),
    )
    report = run_sweep(cfg, clock=lambda: 0.0)
    slope, stderr = fit_rate_from_csv(str(tmp_path / "sweep.csv"))
    assert slope == pytest.approx(report.slope, rel=1e-12)
    assert stderr == pytest.approx(report.slope_stderr, rel=1e-12)
