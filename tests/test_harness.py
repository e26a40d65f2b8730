"""Experiment harness: bound formulas, config parsing, sweeps, rate fits."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from proxsgm.boost import optimal_gamma
from proxsgm.harness import (
    _THEOREMS,
    COROLLARIES,
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
from proxsgm.moreau import InnerAccuracyError, moreau_prox
from proxsgm.problems import default_x0, problem_from_id
from proxsgm.prox import l1_regularizer
from proxsgm.solver import (
    LEMMAS,
    StepSchedule,
    check_descent_lemma,
    check_prox_identity,
    lemma_of,
    sample_tstar,
)

from builders import L1_BASE, with_l1


# ------------------------------------------------------------ bound values

# (c, k, M) of each theorem's right side
# c rho_hat/(rho_hat - rho) (delta + k rho_hat M^2 sum alpha^2) / sum alpha
THEOREMS = {"ProjectedThm21": (1.0, 0.5, "L"), "ProximalThm26": (1.0, 1.0, "L"),
            "SmoothCor29": (2.0, 0.5, "sigma")}


def summed(variant, steps, delta, rho, rho_hat, L=None, sigma=None):
    """A theorem's right side at an explicit step array, summed entry by entry."""
    c, k, m = THEOREMS[variant]
    noise = L if m == "L" else sigma
    a = np.asarray(steps, dtype=float)
    return c * rho_hat / (rho_hat - rho) * (delta + k * rho_hat * noise**2 * (a**2).sum()) / a.sum()


@pytest.mark.parametrize("theorem", list(LEMMAS))
def test_each_theorem_is_its_lemma_summed_through_the_envelope(theorem):
    # with lambda = 1/rho_hat, phi_lam(x+) <= phi(x_hat) + (rho_hat/2)||x+ - x_hat||^2
    # and ||grad phi_lam(x)|| = rho_hat ||x - x_hat||: a lemma (a, b, M) sums to
    # the right side (c, k, M) = (2/a, b/2, M) under the same caps
    a, b, m, rho_hat_capped, steps_capped = LEMMAS[theorem]
    assert _THEOREMS[theorem] == (2.0 / a, b / 2.0, m, rho_hat_capped, steps_capped)
    assert _THEOREMS[theorem][:3] == THEOREMS[theorem]


@pytest.mark.parametrize("pid, row", [
    ("phase_retrieval:50:10:0", "ProjectedThm21"),
    ("robust_regression:40:2:1", "ProjectedThm21"),
    ("toy1d:abs", "ProjectedThm21"),
    ("toy1d:absquad", "ProjectedThm21"),
    ("smooth_ls:60:5:2", "SmoothCor29"),
    ("l1", "ProximalThm26"),
])
def test_one_rule_picks_the_printed_bound_and_the_checked_lemma(pid, row):
    p = with_l1() if pid == "l1" else problem_from_id(pid)
    rho_hat = 2.0 * p.rho if p.rho > 0 else 1.0
    cfg = ExperimentConfig(problem_id=L1_BASE if pid == "l1" else pid, horizons=(3, 7),
                           gamma=0.5 / rho_hat, n_seeds=2, output="")
    printed = run_sweep(cfg, problem=p, clock=lambda: 0.0).variant
    checked = check_descent_lemma(p, default_x0(p), rho_hat, 0.5 / rho_hat, 10, 0).variant
    assert COROLLARIES.get(printed, printed) == checked == lemma_of(p) == row


def test_cor22_hand_value():
    got = theoretical_bound("Cor22", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=0))
    assert got == pytest.approx(4.0, rel=1e-15)


def test_cor27_step_cap():
    # gamma/sqrt(T+1) beyond 1/(2 rho) breaks the constant-step argument
    with pytest.raises(ValueError):
        theoretical_bound("Cor27", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=10.0, T=0))
    # the same gamma is admissible once the horizon dilutes the step
    theoretical_bound("Cor27", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=10.0, T=399))


def test_thm21_vs_thm26_noise_factor():
    # with delta = 0 the two differ exactly by the factor on L^2 sum alpha^2
    inputs = BoundInputs(delta=0.0, rho=1.0, rho_hat=2.0, L=1.5, gamma=0.1 * math.sqrt(8), T=7)
    t21 = theoretical_bound("ProjectedThm21", inputs)
    t26 = theoretical_bound("ProximalThm26", inputs)
    assert t26 == pytest.approx(2.0 * t21, rel=1e-12)


@pytest.mark.parametrize("cor, parent", [("Cor22", "ProjectedThm21"),
                                         ("Cor27", "ProximalThm26")])
@pytest.mark.parametrize("rho, L, gamma, T, delta", [
    (1.3, 2.0, 0.25, 48, 0.7),
    (0.05, 0.3, 10.0, 0, 3.0),  # one step, at the cap 1/(2 rho)
    (40.0, 7.5, 0.01, 999, 0.0),
    (1.0, 1.0, 1.0, 3, 1.0),
])
def test_corollary_is_its_parent_at_doubled_parameter(cor, parent, rho, L, gamma, T, delta):
    # a corollary is its theorem at rho_hat = 2 rho and the constant steps
    # alpha = gamma/sqrt(T+1), whose sums it takes in closed form
    sched = StepSchedule.constant(gamma, T)
    got = theoretical_bound(cor, BoundInputs(delta=delta, rho=rho, L=L, gamma=gamma, T=T))
    assert got == theoretical_bound(
        parent, BoundInputs(delta=delta, rho=rho, rho_hat=2 * rho, L=L, gamma=gamma, T=T))
    assert got == pytest.approx(summed(parent, sched.alphas, delta, rho, 2 * rho, L), rel=1e-12)


def test_cor27_caps_the_step_where_its_parent_does():
    # a step just above 1/(2 rho) breaks Thm26 at rho_hat = 2 rho, so Cor27
    # refuses it; Thm21 has no step cap, so Cor22 takes it
    rho, T = 1.0, 3
    step = 0.5 / rho + 1e-12
    cor = BoundInputs(delta=1.0, rho=rho, L=1.0, gamma=2.0 * step, T=T)
    thm = dataclasses.replace(cor, rho_hat=2 * rho)
    for variant, inputs in (("ProximalThm26", thm), ("Cor27", cor)):
        with pytest.raises(ValueError, match=r"step gamma/sqrt\(T\+1\) must lie in"):
            theoretical_bound(variant, inputs)
    assert theoretical_bound("Cor22", cor) == theoretical_bound("ProjectedThm21", thm)


def test_the_step_cap_is_relative_at_every_rho_hat():
    # at rho_hat = 2e15 the cap 1/rho_hat is 5e-16: a step of 1e-15, twice
    # the cap, is refused by every reader of the cap (an absolute slack of
    # 1e-15 let it through)
    alphas = np.full(2, 1e-15)
    inputs = BoundInputs(delta=1.0, rho=1e15, rho_hat=2e15, L=1.0, sigma=1.0,
                         gamma=1e-15 * math.sqrt(2), T=1)
    for variant in ("ProximalThm26", "SmoothCor29"):
        with pytest.raises(ValueError, match=r"step gamma/sqrt\(T\+1\)"):
            theoretical_bound(variant, inputs)
    with pytest.raises(ValueError, match=r"step gamma/sqrt\(T\+1\)"):
        StepSchedule.constant(1e-15 * math.sqrt(2), 1, rho_hat=2e15)
    with pytest.raises(ValueError, match="steps must lie in"):
        StepSchedule(alphas, rho_hat=2e15)
    with pytest.raises(ValueError, match="alpha"):
        check_prox_identity(problem_from_id("toy1d:absquad"), np.array([0.5]), 2e15, 1e-15)
    # the capped constant step of the boost stages, gamma = sqrt(T+1)/rho_hat,
    # rounds up to 1 ulp above 1/rho_hat and stays admissible
    rng = np.random.default_rng(4)
    for rho_hat, T in zip(10.0 ** rng.uniform(-15, 15, 200), rng.integers(0, 10**9, 200)):
        # Cor27 is Thm26 at rho_hat = 2 rho, its steps summed in closed form
        assert theoretical_bound("Cor27", BoundInputs(
            delta=1.0, rho=rho_hat / 2.0, L=1.0, gamma=math.sqrt(T + 1) / rho_hat, T=int(T))) > 0
        T = int(T) % 1000  # a schedule checks each of its T + 1 steps
        StepSchedule.constant(math.sqrt(T + 1) / rho_hat, T, rho_hat=rho_hat)


def test_theorems_at_rho_zero():
    # Thm21 and SmoothCor29 hold for convex g; Thm26 needs rho < rho_hat <=
    # 2 rho, and a corollary's rho_hat = 2 rho must exceed rho
    # four steps of 0.2/sqrt(4) = 0.1: sum 0.4, sum of squares 0.04
    inp = BoundInputs(delta=1.0, rho=0.0, rho_hat=1.0, L=1.0, sigma=1.0, gamma=0.2, T=3)
    assert theoretical_bound("ProjectedThm21", inp) == pytest.approx(2.55, rel=1e-12)
    assert theoretical_bound("SmoothCor29", inp) == pytest.approx(5.1, rel=1e-12)
    for variant in ("ProximalThm26", "Cor22", "Cor27"):
        with pytest.raises(ValueError):
            theoretical_bound(variant, inp)


@pytest.mark.parametrize("variant", ["ProjectedThm21", "ProximalThm26", "SmoothCor29"])
@pytest.mark.parametrize("T", [0, 1, 7, 1000])
def test_a_theorem_sums_constant_steps_in_closed_form(variant, T):
    # a theorem reads gamma and T: the value of the explicit T + 1 steps
    # gamma/sqrt(T+1), summed entry by entry
    gamma = 0.3
    consts = dict(delta=0.7, rho=1.3, rho_hat=2.1, L=2.0, sigma=0.4)
    closed = theoretical_bound(variant, BoundInputs(**consts, gamma=gamma, T=T))
    steps = np.full(T + 1, gamma / math.sqrt(T + 1))
    assert closed == pytest.approx(summed(variant, steps, **consts), rel=1e-14, abs=0.0)
    with pytest.raises(ValueError, match="bound variant needs gamma, T"):
        theoretical_bound(variant, BoundInputs(**consts))


def test_smooth_cor29_reduces_at_rho_hat_2rho():
    rho, sigma, gamma, T, delta = 0.8, 0.3, 0.5, 63, 1.2
    got = theoretical_bound(
        "SmoothCor29", BoundInputs(delta=delta, rho=rho, rho_hat=2 * rho, sigma=sigma,
                                   gamma=gamma, T=T))
    want = 4.0 * (delta + rho * sigma**2 * gamma**2) / (gamma * math.sqrt(T + 1))
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_validation_errors():
    steps = dict(gamma=0.2, T=3)  # four steps of 0.1
    with pytest.raises(ValueError):
        theoretical_bound("Cor22", BoundInputs(delta=1.0, rho=0.0, L=1.0, gamma=1.0, T=0))
    with pytest.raises(ValueError):  # rho_hat must exceed rho
        theoretical_bound(
            "ProjectedThm21",
            BoundInputs(delta=1.0, rho=1.0, rho_hat=1.0, L=1.0, **steps))
    with pytest.raises(ValueError):  # Thm26 needs rho_hat <= 2 rho
        theoretical_bound(
            "ProximalThm26",
            BoundInputs(delta=1.0, rho=1.0, rho_hat=2.5, L=1.0, **steps))
    with pytest.raises(ValueError):  # also at a tiny rho: no absolute slack
        theoretical_bound(
            "ProximalThm26",
            BoundInputs(delta=1.0, rho=1e-14, rho_hat=5e-13, L=1.0, **steps))
    with pytest.raises(ValueError):  # Thm26 step cap 1/rho_hat
        theoretical_bound(
            "ProximalThm26",
            BoundInputs(delta=1.0, rho=1.0, rho_hat=2.0, L=1.0, gamma=0.6, T=0))
    with pytest.raises(ValueError):  # missing noise constant
        theoretical_bound(
            "SmoothCor29", BoundInputs(delta=1.0, rho=1.0, rho_hat=2.0, **steps))
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
        assert err == f"error: T must be finite and nonnegative, got {T}\n"
    assert cli.main(args + ["--T", "3"]) == cli.EXIT_OK
    value = theoretical_bound("Cor27", BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=3))
    assert capsys.readouterr().out == f"Cor27: {value:.12g}\n"


# what each variant reads besides delta, rho, L, gamma and T
EXTRA_CONSTANTS = {"Cor22": {}, "Cor27": {}, "ProjectedThm21": {"rho_hat": 2.0},
                   "ProximalThm26": {"rho_hat": 2.0},
                   "SmoothCor29": {"rho_hat": 2.0, "sigma": 1.0}}


@pytest.mark.parametrize("variant", list(EXTRA_CONSTANTS))
def test_cli_bounds_builds_no_step_array_for_a_constant_step_corollary(capsys, variant):
    # every variant reads constant steps as gamma and T: the (T+1,) step
    # array at T = 10**12 would take 8 TB (a theorem scanned it, 5.8 s at 10**9)
    import tracemalloc

    from proxsgm import cli

    T = 10**12
    args = ["bounds", "--variant", variant, "--delta", "1", "--rho", "1", "--L", "1"]
    args += ["--gamma", "1", "--T", str(T)]
    consts = EXTRA_CONSTANTS[variant]
    for name, v in consts.items():
        args += [f"--{name.replace('_', '-')}", str(v)]
    tracemalloc.start()
    try:
        assert cli.main(args) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    value = theoretical_bound(variant, BoundInputs(delta=1.0, rho=1.0, L=1.0, gamma=1.0, T=T,
                                                   **consts))
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


def test_cli_bounds_reads_steps_as_gamma_and_T_only(capsys):
    # every variant reads its steps as gamma and T: an explicit step list is
    # an unknown flag, and a step above the cap is refused as gamma/sqrt(T+1)
    from proxsgm import cli

    args = ["bounds", "--variant", "ProximalThm26", "--delta", "1", "--rho", "1",
            "--rho-hat", "2", "--L", "1", "--T", "3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--gamma", "0.5", "--alphas", "0.1"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --alphas 0.1" in capsys.readouterr().err
    assert cli.main(args + ["--gamma", "4"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: step gamma/sqrt(T+1) must lie in (0.0, 0.5")


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


@pytest.mark.parametrize("field, value, want", [
    ("horizons", (10.7, 20), "an integer, got float"),
    ("horizons", (True, 20), "an integer, got bool"),
    ("horizons", ("10", "20"), "an integer, got str"),
    ("horizons", (10, 20.0), "an integer, got float"),
    ("horizons", 10, "a sequence of integers, got int"),
    ("n_seeds", 2.5, "an integer, got float"),
    ("n_seeds", 3.0, "an integer, got float"),
    ("n_seeds", True, "an integer, got bool"),
    ("n_seeds", "3", "an integer, got str"),
    ("workers", 1.0, "an integer, got float"),
    ("workers", True, "an integer, got bool"),
    ("gamma", True, "a real number, got bool"),
    ("inner_tol", True, "a real number, got bool"),
])
def test_experiment_config_refuses_a_field_of_another_type(monkeypatch, field, value, want):
    # horizons (10.7, 20) used to run T = 10 and (True, 20) T = 1, and
    # n_seeds = 2.5 raised a bare TypeError after the x0 envelope solve;
    # gamma = True ran at gamma = 1, and horizons = 10 raised a bare TypeError
    from proxsgm import harness

    monkeypatch.setattr(harness, "moreau_prox", lambda *a: pytest.fail("solved"))
    config = dict(problem_id="toy1d:abs", horizons=(10, 20), gamma=0.5, output="")
    with pytest.raises(ConfigError, match=f"{field} must be {want}"):
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
        "n_seeds = 3\n"
        "output = out.csv\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg.problem_id == "robust_regression:20:1:5"
    assert cfg.horizons == (50, 100, 200)
    assert cfg.gamma == "optimal"
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

    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("problem_id = toy1d:abs\nhorizons 10\n")
    with pytest.raises(ConfigError, match=r"noeq\.cfg:2: expected key=value, got 'horizons 10'"):
        parse_config_file(str(noeq))


NON_FINITE_CONFIG = [
    ("gamma", "nan"), ("gamma", "inf"), ("inner_tol", "nan"), ("inner_tol", "inf"),
]


def _write_config(tmp_path, key, value):
    fields = {"problem_id": "toy1d:absquad", "horizons": "10, 20", "gamma": "0.3",
              "n_seeds": "2", "output": "", key: value}
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return path


@pytest.mark.parametrize("key, value", NON_FINITE_CONFIG)
def test_config_rejects_a_non_finite_value(tmp_path, capsys, key, value):
    # inner_tol = nan ran and reported no misses
    from proxsgm import cli

    path = _write_config(tmp_path, key, value)
    with pytest.raises(ConfigError, match=f"^{key} must be finite and positive"):
        parse_config_file(str(path))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {key} must be finite and positive")


@pytest.mark.parametrize("key", ["rho_hat", "lambda"])
def test_config_has_no_key_for_the_derived_constants(tmp_path, capsys, key):
    # a sweep derives rho_hat = 2 rho and lambda = 1/rho_hat, where its
    # bounds are stated: at rho_hat < 2 rho Cor27 would read a modulus below
    # rho, and at another lambda the bound is about a different envelope
    from proxsgm import cli

    path = _write_config(tmp_path, key, "1.5")
    with pytest.raises(ConfigError, match=f"bad\\.cfg:6: unknown key '{key}'"):
        parse_config_file(str(path))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}:6: unknown key '{key}'\n"


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
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == (
        "problem_id,family,d,m,T,seed,gamma,rho,rho_hat,lambda,grad_norm_sq,"
        "envelope_value_x0,phi_best,bound_value,bound_satisfied,oracle_calls,"
        "inner_tol_achieved,wall_ms")
    assert len(rows) == 6
    # repr round trip: the parsed floats equal the report values exactly
    assert float(rows[0]["rho"]) == report.rho
    assert float(rows[0]["envelope_value_x0"]) == report.envelope_value_x0
    by_T = {int(r["T"]) for r in rows}
    assert by_T == {30, 60}


@pytest.mark.parametrize("pid, gamma, rho_hat, variant", [
    ("toy1d:absquad", 0.3, None, "Cor22"),  # rho > 0: rho_hat = 2 rho
    ("robust_regression:20:1:5", 0.3, 1.0, "Cor22"),  # convex g: rho_hat = 1
    ("smooth_ls:15:2:3", 0.2, None, "SmoothCor29"),
])
def test_run_sweep_defaults_and_bound_recompute(monkeypatch, pid, gamma, rho_hat, variant):
    # the sweep runs at the constants of its bound: rho_hat = 2 rho (1 for
    # convex g), every envelope solve at lam = 1/rho_hat, and the printed
    # bound reads the schedule the trials ran, as gamma and T: the corollary
    # at rho_hat / 2 or SmoothCor29 at (rho, rho_hat)
    from proxsgm import harness

    lams = []
    real = harness.moreau_prox

    def record(problem, x, lam, tol):
        lams.append(lam)
        return real(problem, x, lam, tol)

    monkeypatch.setattr(harness, "moreau_prox", record)
    cfg = ExperimentConfig(problem_id=pid, horizons=(20, 40), gamma=gamma, n_seeds=2,
                           output="")
    report = run_sweep(cfg, clock=lambda: 0.0)
    p = problem_from_id(pid)
    assert report.rho_hat == (rho_hat if rho_hat is not None else 2.0 * p.rho)
    assert report.lam == 1.0 / report.rho_hat
    assert lams == [report.lam] * (1 + len(report.rows))
    assert report.variant == variant
    at_x0 = moreau_prox(p, default_x0(p), report.lam, cfg.inner_tol)
    delta = max(report.envelope_value_x0 - at_x0.inner_tol - report.phi_best, 0.0)
    rho = p.rho if variant == "SmoothCor29" else report.rho_hat / 2.0
    for hs in report.per_horizon:
        inputs = BoundInputs(delta=delta, rho=rho, rho_hat=report.rho_hat, L=p.lipschitz_L,
                             sigma=p.sigma, gamma=report.gamma, T=hs.T)
        assert hs.bound_value == theoretical_bound(variant, inputs)


def test_run_sweep_delta_discounts_the_gap_of_the_x0_solve():
    # envelope_value_x0 lies up to the x0 solve's certified gap eps(x0) above
    # phi_lam(x0); phase retrieval's phi_best reaches min phi = 0 at the
    # planted point, so a Delta without eps(x0) exceeds the true gap there
    pid = "phase_retrieval:20:4:1"
    cfg = ExperimentConfig(problem_id=pid, horizons=(20, 40), gamma="optimal", n_seeds=2,
                           output="")
    report = run_sweep(cfg, clock=lambda: 0.0)
    p = problem_from_id(pid)
    at_x0 = moreau_prox(p, default_x0(p), report.lam, cfg.inner_tol)
    assert at_x0.envelope_value == report.envelope_value_x0
    assert report.phi_best == p.phi(p.planted_point) == 0.0
    assert at_x0.inner_tol > 1e-8
    delta = max(at_x0.envelope_value - at_x0.inner_tol - report.phi_best, 0.0)
    for hs in report.per_horizon:
        inputs = BoundInputs(delta=delta, rho=report.rho_hat / 2.0, L=p.lipschitz_L,
                             gamma=report.gamma, T=hs.T)
        assert hs.bound_value == theoretical_bound(report.variant, inputs)


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
    # smooth_ls certifies sigma, not lipschitz_L
    with pytest.raises(ConfigError, match='gamma="optimal" needs lipschitz_L and domain_diameter'):
        run_sweep(dataclasses.replace(cfg, problem_id="smooth_ls:20:2:1"))


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


def test_run_sweep_prints_cor27_for_a_regularizer_that_is_no_indicator():
    # with r = 0.3 ||x||_1 the method is the proximal one, not the projected
    # one, so the sweep prints Thm26 at rho_hat = 2 (rho_hat / 2) and the
    # steps gamma/sqrt(T+1)
    problem = dataclasses.replace(problem_from_id("toy1d:abs"), regularizer=l1_regularizer(0.3))
    cfg = ExperimentConfig(problem_id="toy1d:abs", horizons=(20, 40), gamma=0.3, n_seeds=2,
                           output="")
    report = run_sweep(cfg, problem=problem, clock=lambda: 0.0)
    assert report.variant == "Cor27"
    assert report.rho_hat == 1.0
    eps_x0 = moreau_prox(problem, default_x0(problem), 1.0, cfg.inner_tol).inner_tol
    delta = max(report.envelope_value_x0 - eps_x0 - report.phi_best, 0.0)
    for hs in report.per_horizon:
        want = theoretical_bound("ProximalThm26", BoundInputs(
            delta=delta, rho=report.rho_hat / 2.0, rho_hat=report.rho_hat, L=1.0,
            gamma=report.gamma, T=hs.T))
        assert hs.bound_value == want


def test_run_sweep_refuses_a_missing_output_directory_first(tmp_path):
    # the CSV is written after the last trial: a directory that does not
    # exist is refused before the x0 solve, with no g or oracle call
    def fail(*args):
        pytest.fail("g or its oracle was called")

    p = problem_from_id("toy1d:absquad")
    p = dataclasses.replace(p, g_value=fail, g_full_subgradient=fail,
                            g_oracle=dataclasses.replace(p.g_oracle, sample=fail, draw=fail))
    missing = tmp_path / "missing"
    with pytest.raises(ConfigError, match=f"output directory {str(missing)!r} does not exist"):
        run_sweep(small_config(output=str(missing / "sweep.csv")), problem=p)
    assert not missing.exists()


def test_run_sweep_rejects_oversized_steps(monkeypatch):
    # gamma/sqrt(T+1) > 1/rho_hat at the smallest horizon is not admissible;
    # the schedule says so before the x0 envelope solve
    from proxsgm import harness

    monkeypatch.setattr(harness, "moreau_prox", lambda *a: pytest.fail("solved"))
    cfg = small_config(gamma=50.0)
    with pytest.raises(ConfigError, match=r"gamma=50\.0 at T=30: step gamma/sqrt\(T\+1\) must"):
        run_sweep(cfg, clock=lambda: 0.0)


def test_run_sweep_bounds_the_schedule_its_trials_ran(monkeypatch):
    # every trial of a horizon runs the steps gamma/sqrt(T+1), and the
    # SmoothCor29 bound of that horizon reads the same gamma and T
    from proxsgm import harness

    ran, bounded = {}, {}
    real_run, real_bound = harness.run_psgm, harness.theoretical_bound

    def run(problem, x0, schedule, rng):
        ran.setdefault(schedule.horizon, set()).update(schedule.alphas.tolist())
        return real_run(problem, x0, schedule, rng)

    def bound(variant, inputs):
        bounded[inputs.T] = {inputs.gamma / math.sqrt(inputs.T + 1)}
        return real_bound(variant, inputs)

    monkeypatch.setattr(harness, "run_psgm", run)
    monkeypatch.setattr(harness, "theoretical_bound", bound)
    cfg = ExperimentConfig(problem_id="smooth_ls:15:2:3", horizons=(20, 40), gamma=0.2,
                           n_seeds=3, output="")
    assert run_sweep(cfg, clock=lambda: 0.0).variant == "SmoothCor29"
    assert ran == bounded and sorted(ran) == [20, 40]


def test_run_sweep_reads_x_t_star_of_the_full_trajectory():
    # each trial stops at its output x_{t*}; its grad_norm_sq and
    # phi_at_star equal, bit for bit, their values at x_{t*} of the whole
    # trajectory x_0..x_{T+1}, rebuilt here from the trial's generator
    p = problem_from_id("smooth_ls:60:5:2")
    cfg = ExperimentConfig(problem_id="smooth_ls:60:5:2", horizons=(10, 100, 1000),
                           gamma=0.5, n_seeds=3, output="")
    rep = run_sweep(cfg, problem=p, clock=lambda: 0.0)
    x0 = default_x0(p)
    assert len(rep.rows) == 9
    for row in rep.rows:
        sched = StepSchedule.constant(rep.gamma, row.T, rho_hat=rep.rho_hat)
        rng = np.random.default_rng([row.seed, row.T, p.meta.seed])
        t_star = sample_tstar(sched.alphas, rng.spawn(1)[0])
        traj = [x0]
        for a, w in zip(sched.alphas, p.g_oracle.draw(rng, row.T + 1)):
            traj.append(p.regularizer.prox(traj[-1] - a * p.g_oracle.sample(traj[-1], w), a))
        x = traj[t_star]
        gn = float(np.linalg.norm(moreau_prox(p, x, rep.lam, cfg.inner_tol).envelope_grad))
        assert row.oracle_calls == t_star
        assert (row.grad_norm_sq, row.phi_at_star) == (gn * gn, p.phi(x))


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


def test_run_sweep_survives_a_missed_solve_at_x0(tmp_path, capsys):
    # at inner_tol = 1e-13 the x0 solve certifies only ~9e-13: the sweep
    # keeps that point, as it keeps a trial's, and Delta subtracts its gap
    from proxsgm import cli

    pid, tol = "phase_retrieval:20:4:3", 1e-13
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"problem_id = {pid}\nhorizons = 10, 20\ngamma = 0.01\nn_seeds = 2\n"
                   f"inner_tol = {tol}\noutput =\n")
    report = run_sweep(parse_config_file(cfg), clock=lambda: 0.0)
    p = problem_from_id(pid)
    with pytest.raises(InnerAccuracyError) as miss:
        moreau_prox(p, default_x0(p), report.lam, tol)
    at_x0 = miss.value.point
    assert at_x0.inner_tol > tol
    assert report.envelope_value_x0 == at_x0.envelope_value
    delta = max(at_x0.envelope_value - at_x0.inner_tol - report.phi_best, 0.0)
    for hs in report.per_horizon:
        inputs = BoundInputs(delta=delta, rho=report.rho_hat / 2.0, L=p.lipschitz_L,
                             gamma=report.gamma, T=hs.T)
        assert hs.bound_value == theoretical_bound(report.variant, inputs)

    assert report.inner_tol_x0 == at_x0.inner_tol

    # the run prints the x0 solve's miss, which Delta absorbs, under its header
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"  x0 envelope solve gap={at_x0.inner_tol:.4g} > inner_tol=1e-13"
    horizon_lines = [ln.split() for ln in lines[2:]]
    assert [(ln[0], ln[-1]) for ln in horizon_lines] == [
        ("T=10", "inner_missed=2"),
        ("T=20", "inner_missed=2"),
    ]


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
