"""The input contract of the public entries.

Every public entry that takes a real parameter, crossed with every value of
VALUES, must either raise its documented error before it calls a g callable
or the oracle of a problem, or return a finite result.  Problems here count
those calls.  The value set is finite, so the cross is exhaustive.
"""

import dataclasses
import inspect
import math
import subprocess
import sys
import tempfile
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

import proxsgm
from proxsgm import (
    BoundInputs,
    InnerAccuracyError,
    CompositeProblem,
    ConfigError,
    ExperimentConfig,
    ProblemMeta,
    ProxFriendly,
    RegularizedProblem,
    StepSchedule,
    StochasticOracle,
    ball_indicator,
    box_indicator,
    check_descent_lemma,
    check_hypomonotonicity,
    check_prox_identity,
    check_weak_convexity,
    envelope_grad_fd_check,
    envelope_shift_identity_check,
    fit_rate,
    iteration_bound,
    l1_regularizer,
    make_phase_retrieval,
    make_robust_regression,
    make_smooth_ls_noisy,
    map_back,
    moreau_grid_oracle,
    moreau_prox,
    optimal_gamma,
    parse_config_file,
    pipeline_budget,
    problem_from_id,
    prox_gradient_mapping,
    quadratic_regularizer,
    regularized_pipeline,
    run_sweep,
    sample_tstar,
    strongly_convex_stage,
    theoretical_bound,
    two_stage_convex,
    zero_regularizer,
)
from proxsgm.moreau import ParameterError
from proxsgm.prox import ProxKind

from builders import L1_BASE, with_l1

VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308)

# the public dataclasses the library fills in and returns: their floats are
# outputs, not inputs
RECORDS = {
    "ExperimentReport",
    "MoreauPoint",
    "PipelineResult",
    "StationarityReport",
    "TwoStageResult",
}


class Problems:
    """Builds problems from ids whose g callables and oracle count their calls."""

    def __init__(self):
        self.calls = 0

    def _count(self, f):
        if f is None:
            return None

        def counted(*args):
            self.calls += 1
            return f(*args)

        return counted

    def __call__(self, problem_id: str) -> CompositeProblem:
        p = problem_from_id(problem_id)
        o = p.g_oracle
        return dataclasses.replace(
            p,
            g_oracle=StochasticOracle(sample=self._count(o.sample), draw=self._count(o.draw)),
            g_value=self._count(p.g_value),
            g_full_subgradient=self._count(p.g_full_subgradient),
        )


def finite(obj) -> bool:
    """No NaN or infinity anywhere in a returned value, record or problem."""
    if obj is None or isinstance(obj, (bool, str, Enum, np.random.Generator)) or callable(obj):
        return True
    if isinstance(obj, (int, float, np.number, np.ndarray)):
        return bool(np.all(np.isfinite(obj)))
    if dataclasses.is_dataclass(obj):
        return all(finite(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return all(finite(v) for v in obj)
    raise TypeError(f"no finiteness rule for {type(obj).__name__}")


def rng():
    return np.random.default_rng(0)


PT = np.array([2.0, -0.3])


def use(reg: ProxFriendly):
    """A regularizer, its prox at two steps and its value at a prox output."""
    y = reg.prox(PT, 0.5)
    return reg, y, reg.value(y), reg.prox(PT, 0.0)


REGULARIZERS = {
    "zero": zero_regularizer,
    "box": lambda: box_indicator([-1.0, -1.0], [1.0, 1.0]),
    "ball": lambda: ball_indicator([0.0, 0.0], 1.0),
    "l1": lambda: l1_regularizer(0.5),
    "quadratic": lambda: quadratic_regularizer(2.0, [0.5, 0.0]),
}

# smallest instances of each inner path of the envelope solver: bisection
# at rho = 0 and rho > 0, proximal gradient, and the polish at rho = 0 and
# rho > 0
ENVELOPES = {
    "toy1d:abs": np.array([0.5]),
    "toy1d:absquad": np.array([0.8]),
    "smooth_ls:20:2:0": np.array([0.5, -0.5]),
    "robust_regression:20:2:0": np.array([0.5, 1.0]),
    "phase_retrieval:20:2:1": np.array([0.5, 0.5]),
}


def envelope(problem: CompositeProblem, x, lam: float, tol: float = 1e-10):
    """The certified point, or the best point an ``InnerAccuracyError``
    carries, as ``run_sweep`` reads it: at a valid lam the certificate can
    be out of reach, since the polish's gap bound grows with lam."""
    try:
        return moreau_prox(problem, x, lam, tol)
    except InnerAccuracyError as exc:
        return exc.point


def bound(variant: str, **kw):
    base = dict(delta=1.0, rho=1.0, rho_hat=1.5, L=1.0, sigma=1.0, gamma=0.5, T=3)
    return theoretical_bound(variant, BoundInputs(**{**base, **kw}))


def sweep(**kw):
    cfg = dict(problem_id="toy1d:absquad", horizons=(3, 7), gamma=0.3, n_seeds=2, output="")
    return ExperimentConfig(**{**cfg, **kw})


def run_small_sweep(P, **kw):
    return run_sweep(sweep(**kw), problem=P("toy1d:absquad"), clock=lambda: 0.0)


def run_small_sweep_file(P, key: str, v: float):
    """The small sweep read from a .cfg that also sets key = v."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "sweep.cfg"
        path.write_text("problem_id = toy1d:absquad\nhorizons = 3, 7\ngamma = 0.3\n"
                        f"n_seeds = 2\noutput =\n{key} = {v!r}\n")
        cfg = parse_config_file(path)
    return run_sweep(cfg, problem=P("toy1d:absquad"), clock=lambda: 0.0)


ROWS = []


def row(entry: str, param: str, call, error=ValueError, case: str = ""):
    ROWS.append(pytest.param(entry, param, call, error, id=f"{entry}{case}-{param}"))


# -- core
for name in ("rho", "lipschitz_L", "sigma", "domain_diameter"):
    row("CompositeProblem", name,
        lambda v, P, name=name: dataclasses.replace(P("toy1d:absquad"), **{name: v}))
row("ProblemMeta", "sigma", lambda v, P: ProblemMeta("smooth_ls", 20, 2, 0, sigma=v))
row("ProblemMeta", "outlier_fraction",
    lambda v, P: ProblemMeta("robust_regression", 20, 2, 0, outlier_fraction=v))
row("check_weak_convexity", "radius",
    lambda v, P: check_weak_convexity(P("phase_retrieval:20:3:1"), 8, v, rng()))
row("check_hypomonotonicity", "radius",
    lambda v, P: check_hypomonotonicity(P("phase_retrieval:20:3:1"), 8, v, rng()))

# -- prox
row("ProxFriendly", "radius",
    lambda v, P: use(ProxFriendly(ProxKind.BALL, center=np.zeros(2), radius=v)))
row("ProxFriendly", "weight", lambda v, P: use(ProxFriendly(ProxKind.L1, weight=v)), case="(l1)")
row("ProxFriendly", "weight",
    lambda v, P: use(ProxFriendly(ProxKind.QUADRATIC, weight=v, center=np.zeros(2))),
    case="(quadratic)")
for kind, make in REGULARIZERS.items():
    row("ProxFriendly.prox", "alpha", lambda v, P, make=make: make().prox(PT, v), case=f"({kind})")
row("box_indicator", "lo", lambda v, P: use(box_indicator([v, -1.0], [1.0, 1.0])))
row("box_indicator", "hi", lambda v, P: use(box_indicator([-1.0, -1.0], [v, 1.0])))
row("ball_indicator", "radius", lambda v, P: use(ball_indicator([0.0, 0.0], v)))
row("ball_indicator", "center", lambda v, P: use(ball_indicator([v, 0.0], 1.0)))
row("l1_regularizer", "weight", lambda v, P: use(l1_regularizer(v)))
row("quadratic_regularizer", "weight", lambda v, P: use(quadratic_regularizer(v, [0.5, 0.0])))
row("quadratic_regularizer", "center", lambda v, P: use(quadratic_regularizer(2.0, [v, 0.0])))

# -- problems
row("make_robust_regression", "outlier_fraction",
    lambda v, P: make_robust_regression(20, 2, 0, v))
row("make_smooth_ls_noisy", "sigma", lambda v, P: make_smooth_ls_noisy(20, 2, v, 0))

# -- moreau
for pid, x in ENVELOPES.items():
    row("moreau_prox", "lam", lambda v, P, pid=pid, x=x: envelope(P(pid), x, v),
        ParameterError, case=f"({pid})")
    row("moreau_prox", "tol", lambda v, P, pid=pid, x=x: envelope(P(pid), x, 0.2, v),
        case=f"({pid})")
row("moreau_grid_oracle", "lam",
    lambda v, P: moreau_grid_oracle(P("toy1d:absquad"), np.array([0.8]), v), ParameterError)
row("envelope_grad_fd_check", "lam",
    lambda v, P: envelope_grad_fd_check(P("toy1d:absquad"), np.array([0.8]), v), ParameterError)
row("envelope_grad_fd_check", "h",
    lambda v, P: envelope_grad_fd_check(P("toy1d:absquad"), np.array([0.8]), 0.2, h=v))
row("envelope_grad_fd_check", "inner_tol",
    lambda v, P: envelope_grad_fd_check(P("toy1d:absquad"), np.array([0.8]), 0.2, inner_tol=v))
row("prox_gradient_mapping", "lam",
    lambda v, P: prox_gradient_mapping(P("smooth_ls:20:2:0"), np.array([0.5, -0.5]), v),
    ParameterError)

# -- solver
row("StepSchedule", "alphas", lambda v, P: StepSchedule(np.array([0.1, v, 0.1])))
row("StepSchedule", "rho_hat", lambda v, P: StepSchedule(np.full(3, 0.1), rho_hat=v))
row("StepSchedule.constant", "gamma", lambda v, P: StepSchedule.constant(v, 3))
row("sample_tstar", "alphas", lambda v, P: sample_tstar(np.array([1.0, v]), rng()))
# the projected row caps neither rho_hat nor alpha: alpha = 1e308 is refused by
# its noise term alpha^2 L^2, which leaves the floats; the proximal row caps both
row("check_descent_lemma", "rho_hat",
    lambda v, P: check_descent_lemma(P("toy1d:absquad"), np.array([0.8]), v, 0.1, 20, 0),
    case="(ProjectedThm21)")
row("check_descent_lemma", "alpha",
    lambda v, P: check_descent_lemma(P("toy1d:absquad"), np.array([0.8]), 4.0, v, 20, 0),
    case="(ProjectedThm21)")
row("check_descent_lemma", "rho_hat",
    lambda v, P: check_descent_lemma(with_l1(P(L1_BASE)), PT, v, 0.5, 20, 0),
    case="(ProximalThm26)")
row("check_descent_lemma", "alpha",
    lambda v, P: check_descent_lemma(with_l1(P(L1_BASE)), PT, 1.0, v, 20, 0),
    case="(ProximalThm26)")
row("check_descent_lemma", "inner_tol",
    lambda v, P: check_descent_lemma(P("toy1d:absquad"), np.array([0.8]), 4.0, 0.1, 20, 0, v))
row("check_prox_identity", "rho_hat",
    lambda v, P: check_prox_identity(P("toy1d:absquad"), np.array([0.8]), v, 0.1))
row("check_prox_identity", "alpha",
    lambda v, P: check_prox_identity(P("toy1d:absquad"), np.array([0.8]), 4.0, v))
row("check_prox_identity", "inner_tol",
    lambda v, P: check_prox_identity(P("toy1d:absquad"), np.array([0.8]), 4.0, 0.1, v))

# -- boost
RR = "robust_regression:20:2:0"
row("RegularizedProblem", "mu",
    lambda v, P: RegularizedProblem(P(RR), v, np.zeros(2)).problem)
row("map_back", "mu", lambda v, P: map_back(np.array([0.3]), v, 1.0, np.array([0.5])))
row("map_back", "lam", lambda v, P: map_back(np.array([0.3]), 1.0, v, np.array([0.5])))
row("envelope_shift_identity_check", "mu",
    lambda v, P: envelope_shift_identity_check(P("toy1d:abs"), v, np.array([0.2]), 1.0,
                                               np.array([0.5])))
row("envelope_shift_identity_check", "lam",
    lambda v, P: envelope_shift_identity_check(P("toy1d:abs"), 0.5, np.array([0.2]), v,
                                               np.array([0.5])))
for i, name in enumerate(("R", "rho", "L")):
    row("optimal_gamma", name,
        lambda v, P, i=i: optimal_gamma(*(v if j == i else 1.0 for j in range(3))))
for i, name in enumerate(("rho", "L", "D", "eps")):
    row("iteration_bound", name,
        lambda v, P, i=i: iteration_bound(*(v if j == i else 1.0 for j in range(4))))
row("pipeline_budget", "rho", lambda v, P: pipeline_budget(P(RR), v, 0.5))
row("pipeline_budget", "eps", lambda v, P: pipeline_budget(P(RR), 1.0, v))
row("regularized_pipeline", "rho", lambda v, P: regularized_pipeline(P(RR), v, 0.5, 3, 0))
row("regularized_pipeline", "eps", lambda v, P: regularized_pipeline(P(RR), 1.0, v, 3, 0))
row("two_stage_convex", "rho_hat", lambda v, P: two_stage_convex(P(RR), 3, v, 0))

# -- harness
for name in ("delta", "rho", "rho_hat", "L", "gamma"):
    row("BoundInputs", name, lambda v, P, name=name: bound("Cor27", **{name: v}), case="(Cor27)")
for name in ("rho_hat", "sigma"):
    row("BoundInputs", name, lambda v, P, name=name: bound("SmoothCor29", **{name: v}),
        case="(SmoothCor29)")
row("BoundInputs", "rho_hat", lambda v, P: bound("ProximalThm26", rho_hat=v),
    case="(ProximalThm26)")
row("BoundInputs", "gamma", lambda v, P: bound("ProjectedThm21", gamma=v),
    case="(ProjectedThm21)")
# a sweep derives rho_hat = 2 rho and lam = 1/rho_hat: a .cfg that sets
# either (key lambda for lam) is refused at every value
for name, key in (("rho_hat", "rho_hat"), ("lam", "lambda")):
    row("ExperimentConfig", name, lambda v, P, key=key: run_small_sweep_file(P, key, v),
        ConfigError)
row("ExperimentConfig", "inner_tol", lambda v, P: run_small_sweep(P, inner_tol=v), ConfigError)
row("ExperimentConfig", "gamma", lambda v, P: run_small_sweep(P, gamma=v), ConfigError)
row("fit_rate", "means", lambda v, P: fit_rate([10, 100, 1000], [1.0, v, 0.01]))
row("fit_rate", "horizons", lambda v, P: fit_rate([10, v, 1000], [1.0, 0.1, 0.01]))


# every public horizon T, called with a value that is no integer: each run
# used to take True as T = 1 and 2.0 as a float horizon, or to die in numpy
HORIZONS = {
    "StepSchedule.constant": lambda T, P: StepSchedule.constant(0.5, T),
    "BoundInputs": lambda T, P: bound("Cor27", T=T),
    "two_stage_convex": lambda T, P: two_stage_convex(P(RR), T, 1.0, 0),
    "regularized_pipeline": lambda T, P: regularized_pipeline(P(RR), 1.0, 0.5, T, 0),
    "strongly_convex_stage":
        lambda T, P: strongly_convex_stage(RegularizedProblem(P(RR), 0.5, np.zeros(2)), T, 0),
}


@pytest.mark.parametrize("T", [True, 2.0, "3"], ids=repr)
@pytest.mark.parametrize("entry", HORIZONS)
def test_every_horizon_refuses_a_value_that_is_not_an_integer_first(entry, T):
    problems = Problems()
    with pytest.raises(ValueError, match="T must be an integer"):
        HORIZONS[entry](T, problems)
    assert problems.calls == 0, f"{entry} raised after {problems.calls} g or oracle calls"


def test_every_public_horizon_is_in_the_table():
    entries = {"StepSchedule.constant": StepSchedule.constant}
    entries.update({name: getattr(proxsgm, name) for name in proxsgm.__all__
                    if inspect.isfunction(getattr(proxsgm, name))
                    or dataclasses.is_dataclass(getattr(proxsgm, name))})
    with_T = {name for name, obj in entries.items() if "T" in inspect.signature(obj).parameters}
    assert with_T == set(HORIZONS)


# an integer too large for a float, at each integer an entry converts: each
# of these raised OverflowError from float(v) or numpy's conversion
HUGE = 10**400
OVERSIZED = {
    "StepSchedule.constant": (lambda P: StepSchedule.constant(1.0, HUGE), ValueError),
    "BoundInputs": (lambda P: BoundInputs(delta=1, rho=1, L=1, gamma=1, T=HUGE), ValueError),
    "ExperimentConfig": (lambda P: ExperimentConfig(problem_id="toy1d:abs", horizons=(HUGE,),
                                                    gamma=0.1), ConfigError),
    "make_phase_retrieval": (lambda P: make_phase_retrieval(HUGE, 2, 0), ValueError),
    "problem_from_id": (lambda P: P("phase_retrieval:5:2:" + "9" * 400), ValueError),
}


@pytest.mark.parametrize("entry", OVERSIZED)
def test_an_integer_beyond_the_floats_raises_the_entry_error(entry):
    problems = Problems()
    call, error = OVERSIZED[entry]
    with pytest.raises(error, match="an integer too large for a float"):
        call(problems)
    assert problems.calls == 0


def test_cli_bounds_refuses_a_horizon_beyond_the_floats():
    # it ended in an OverflowError traceback with exit 1
    args = ["bounds", "--variant", "Cor22", "--delta", "1", "--rho", "1", "--L", "1",
            "--gamma", "1", "--T", "1" + "0" * 400]
    proc = subprocess.run([sys.executable, "-m", "proxsgm.cli", *args], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: T must be finite and nonnegative, "
                           "got an integer too large for a float\n")


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("entry, param, call, error", ROWS)
def test_entry_raises_its_error_first_or_returns_a_finite_result(
    entry, param, call, error, value
):
    problems = Problems()
    try:
        result = call(value, problems)
    except error:
        assert problems.calls == 0, f"{entry} raised after {problems.calls} g or oracle calls"
        return
    assert finite(result), f"{entry}({param}={value!r}) returned {result!r}"


def test_every_real_parameter_of_a_public_entry_is_in_the_table():
    # a parameter annotated float (or float | None) of a public function or
    # dataclass must be crossed with VALUES above
    table = {(p.values[0], p.values[1]) for p in ROWS}
    missing = []
    for name in proxsgm.__all__:
        obj = getattr(proxsgm, name)
        if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)) or name in RECORDS:
            continue
        for param, spec in inspect.signature(obj).parameters.items():
            if spec.annotation in ("float", "float | None") and (name, param) not in table:
                missing.append(f"{name}({param})")
    assert not missing, f"public real parameters outside the contract table: {missing}"
