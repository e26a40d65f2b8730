"""Convex-case refinements: tuning, regularization, staging, budgets."""

import dataclasses
import math

import numpy as np
import pytest

from proxsgm.boost import (
    RegularizedProblem,
    envelope_shift_identity_check,
    iteration_bound,
    map_back,
    optimal_gamma,
    pipeline_budget,
    regularized_pipeline,
    strongly_convex_gap_bound,
    strongly_convex_stage,
    two_stage_convex,
)
from proxsgm.core import (
    CapabilityError,
    CompositeProblem,
    StochasticOracle,
    check_second_moment,
    point_value,
)
from proxsgm.harness import BoundInputs, fit_rate, theoretical_bound
from proxsgm.moreau import moreau_prox
from proxsgm.problems import (
    exact_min_1d_robust_regression,
    make_robust_regression,
    make_toy1d,
    problem_from_id,
)
from proxsgm.prox import box_indicator
from proxsgm.solver import StepSchedule, run_psgm


def noisy_linear_problem(c, noise, lo, hi, seed_norm=None):
    """g(x) = <c, x> with Gaussian oracle noise on a box; convex, L certified."""
    c = np.asarray(c, dtype=float)
    d = c.size
    L = float(np.sqrt(np.dot(c, c) + d * noise * noise))

    def draw(rng, n):
        return noise * rng.standard_normal((n, d))

    lo = np.full(d, lo)
    hi = np.full(d, hi)
    return CompositeProblem(
        dim=d,
        g_oracle=StochasticOracle(sample=lambda x, w: c + w, draw=draw),
        regularizer=box_indicator(lo, hi),
        rho=0.0,
        g_value=lambda x: point_value(x @ c),
        g_full_subgradient=lambda x: np.broadcast_to(c, np.shape(x)).copy(),
        lipschitz_L=L,
        domain_diameter=float(np.linalg.norm(hi - lo)),
    )


# ------------------------------------------------------------ gamma tuning


def test_optimal_gamma_hand_values():
    assert optimal_gamma(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert optimal_gamma(4.0, 1.0, 2.0) == pytest.approx(1.0)


def test_optimal_gamma_validation():
    with pytest.raises(ValueError):
        optimal_gamma(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_gamma(1.0, 1.0, 0.0)


def test_optimal_gamma_plug_back_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        R, rho, L = rng.uniform(0.1, 5.0, 3)
        T = int(rng.integers(0, 500))
        g = optimal_gamma(R, rho, L)
        got = theoretical_bound(
            "Cor22", BoundInputs(delta=R, rho=rho, L=L, gamma=g, T=T))
        want = 4.0 * math.sqrt(rho * R * L * L / (T + 1))
        assert got == pytest.approx(want, rel=1e-12)


def test_optimal_gamma_is_argmin():
    R, rho, L = 2.3, 0.7, 1.9
    g = optimal_gamma(R, rho, L)
    f = lambda t: (R + rho * L * L * t * t) / t
    assert f(g) < f(g * 1.01)
    assert f(g) < f(g * 0.99)


# -------------------------------------------------------- iteration budget


def test_iteration_bound_hand_value():
    assert iteration_bound(1.0, 1.0, 1.0, 0.1) == 160_000


def test_iteration_bound_eps_fourth_power():
    assert iteration_bound(1.0, 1.0, 1.0, 0.05) == 16 * 160_000


def test_iteration_bound_min_branch():
    # L/(rho D) = 1/4 < 1 engages the smaller factor
    assert iteration_bound(4.0, 1.0, 1.0, 1.0) == math.ceil(16.0 * 16.0 * 0.25)


def test_iteration_bound_validation():
    with pytest.raises(ValueError):
        iteration_bound(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        iteration_bound(0.0, 1.0, 1.0, 0.1)


# ------------------------------------------------- regularized envelopes


def test_regularized_problem_contracts():
    base = make_robust_regression(20, 2, 1)
    x_c = np.zeros(2)
    reg = RegularizedProblem(base, 0.5, x_c)
    assert reg.problem.lipschitz_L == pytest.approx(
        base.lipschitz_L + 0.5 * base.domain_diameter)
    # the added quadratic is part of g: values shift accordingly
    z = np.array([0.8, -0.3])
    assert reg.problem.g_value(z) == pytest.approx(
        base.g_value(z) + 0.25 * float(z @ z))


def test_regularized_problem_validation():
    base = make_robust_regression(20, 2, 1)
    with pytest.raises(ValueError):
        RegularizedProblem(base, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        RegularizedProblem(base, 0.5, np.zeros(3))
    wc = make_toy1d("absquad")
    with pytest.raises(ValueError):
        RegularizedProblem(wc, 0.5, np.zeros(1))


def test_regularized_second_moment_certified():
    base = make_robust_regression(20, 2, 1)
    reg = RegularizedProblem(base, 0.7, np.zeros(2))
    rep = check_second_moment(reg.problem, np.random.default_rng(3))
    assert rep.passed


def test_envelope_shift_identity_mu_zero():
    base = make_robust_regression(20, 2, 1)
    x = np.array([0.4, -1.1])
    err = envelope_shift_identity_check(base, 0.0, np.zeros(2), 1.0, x)
    assert err <= 1e-10


def test_envelope_shift_identity_at_anchor():
    base = make_robust_regression(20, 2, 1)
    x_c = np.array([0.3, 0.2])
    err = envelope_shift_identity_check(base, 0.8, x_c, 1.2, x_c)
    assert err <= 1e-8


def test_envelope_shift_identity_random_draws():
    base = make_robust_regression(20, 2, 1)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        x_c = rng.uniform(-2.0, 2.0, 2)
        mu = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.3, 2.0)
        assert envelope_shift_identity_check(base, mu, x_c, lam, x) <= 1e-8


def test_map_back_degenerate_cases():
    x = np.array([0.7, -0.2])
    x_c = np.array([0.1, 0.5])
    np.testing.assert_allclose(map_back(x, 0.0, 1.3, x_c), x, atol=1e-15)
    np.testing.assert_allclose(map_back(x_c, 0.9, 1.3, x_c), x_c, atol=1e-15)


def test_map_back_gradient_transfer_bound():
    # moving to the shifted envelope's evaluation point never inflates the
    # base stationarity measure beyond the (lam+mu)/lam factor plus mu D
    base = make_robust_regression(20, 2, 1)
    D = base.domain_diameter
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 2)
        x_c = rng.uniform(-2.0, 2.0, 2)
        mu, lam = rng.uniform(0.2, 1.5), rng.uniform(0.5, 2.0)
        reg = RegularizedProblem(base, mu, x_c)
        z = map_back(x, mu, lam, x_c)
        grad_base = moreau_prox(base, z, 1.0 / (lam + mu), 1e-11).envelope_grad
        grad_reg = moreau_prox(reg.problem, x, 1.0 / lam, 1e-11).envelope_grad
        lhs = float(np.linalg.norm(grad_base))
        rhs = ((lam + mu) / lam) * float(np.linalg.norm(grad_reg)) + mu * D
        assert lhs <= rhs + 1e-8


# ------------------------------------------------------ strongly convex run


def test_strongly_convex_stage_gap_bound():
    # known minimizer: proj_box(x_c - c/mu) for linear g + mu-quadratic
    c, mu = 0.7, 1.0
    base = noisy_linear_problem([c], 0.3, -2.0, 2.0)
    x_c = np.array([0.5])
    reg = RegularizedProblem(base, mu, x_c)
    xm = np.clip(x_c[0] - c / mu, -2.0, 2.0)
    vm = reg.problem.phi(np.array([xm]))
    T = 100
    R = strongly_convex_gap_bound(base.lipschitz_L, mu, base.domain_diameter, T)
    for seed in range(100):
        out = strongly_convex_stage(reg, T, np.random.default_rng([seed, 21]))
        gap = reg.problem.phi(out) - vm
        assert gap <= 2.0 * R


def test_strongly_convex_stage_large_mu_contracts_to_anchor():
    base = noisy_linear_problem([0.7, -0.4], 0.3, -2.0, 2.0)
    x_c = np.array([0.5, -0.5])
    reg = RegularizedProblem(base, 1e6, x_c)
    out = strongly_convex_stage(reg, 200, np.random.default_rng(9))
    assert np.linalg.norm(out - x_c) <= 1e-3


def test_strongly_convex_gap_bound_formula():
    assert strongly_convex_gap_bound(2.0, 0.5, 3.0, 7) == pytest.approx(
        4.0 * (4.0 + 0.25 * 9.0) / (0.5 * 8.0))


# ------------------------------------------------------------- two stages


def test_two_stage_requires_convex_base():
    with pytest.raises(ValueError):
        two_stage_convex(make_toy1d("absquad"), 50, 1.0, 0)


def test_two_stage_requires_constants():
    base = make_robust_regression(10, 2, 2)
    stripped = dataclasses.replace(base, domain_diameter=None)
    with pytest.raises(CapabilityError):
        two_stage_convex(stripped, 50, 1.0, 0)


def test_two_stage_bookkeeping():
    base = make_robust_regression(15, 2, 4)
    out = two_stage_convex(base, 60, 1.0, np.random.default_rng(3))
    assert out.total_oracle_calls == 2 * 61
    assert out.gap_estimate_R == pytest.approx(
        base.lipschitz_L * base.domain_diameter / math.sqrt(61))
    assert out.stage1_gamma == pytest.approx(
        base.domain_diameter / base.lipschitz_L)
    assert base.regularizer.value(out.result.x_star) == 0.0


def test_two_stage_envelope_rate_improves_with_budget():
    base = problem_from_id("robust_regression:40:2:1")
    rho_hat = 1.0
    horizons = (100, 400, 1600)
    means = []
    for T in horizons:
        vals = []
        for seed in range(12):
            out = two_stage_convex(base, T, rho_hat, np.random.default_rng([seed, 77, T]))
            pt = moreau_prox(base, out.result.x_star, 1.0 / (2.0 * rho_hat), 1e-8)
            vals.append(float(pt.envelope_grad @ pt.envelope_grad))
        means.append(float(np.mean(vals)))
    slope, _ = fit_rate(horizons, means)
    assert slope <= -0.5


def test_two_stage_warmup_gap_shrinks_as_promised():
    base = problem_from_id("robust_regression:20:1:5")
    _, vm = exact_min_1d_robust_regression(base)
    T = 300
    thresh = 3.0 * base.lipschitz_L * base.domain_diameter / math.sqrt(T + 1)
    n_ok = 0
    for seed in range(100):
        out = two_stage_convex(base, T, 1.0, np.random.default_rng([seed, 78]))
        n_ok += (base.phi(out.stage1_point) - vm) <= thresh
    assert n_ok >= 95


def test_averaging_stages_start_from_the_run_means():
    # stage 1 of two_stage_convex starts stage 2 from its run's mean, and
    # strongly_convex_stage returns its run's weighted mean; neither stores
    # a trajectory, here (T + 2) * d = 1 000 100 entries
    base = problem_from_id("robust_regression:120:100:1")
    T = 9_999
    kid1, _ = np.random.default_rng(3).spawn(2)
    x0 = base.regularizer.project_domain(np.zeros(base.dim))
    sched = StepSchedule.constant(base.domain_diameter / base.lipschitz_L, T)
    stage1 = run_psgm(base, x0, sched, kid1)
    out = two_stage_convex(base, T, 1.0, np.random.default_rng(3))
    assert out.stage1_point.tobytes() == stage1.mean.tobytes()
    reg = RegularizedProblem(base, 0.5, x0)
    alphas = 2.0 / (0.5 * (np.arange(T + 1) + 1.0))
    run = run_psgm(reg.problem, x0, StepSchedule(alphas), 4)
    assert strongly_convex_stage(reg, T, 4).tobytes() == run.weighted_mean.tobytes()
    assert base.regularizer.value(run.weighted_mean) == 0.0


# ----------------------------------------------------------- the pipeline


def test_pipeline_budget_guards():
    base = problem_from_id("robust_regression:20:1:5")
    with pytest.raises(ValueError):
        pipeline_budget(base, 0.5, 0.0)
    with pytest.raises(ValueError):
        pipeline_budget(base, 0.0, 0.1)
    # eps beyond 2 rho D asks for less than the trivial certificate
    with pytest.raises(ValueError):
        pipeline_budget(base, 0.5, 2.0 * 0.5 * base.domain_diameter + 1.0)
    # a weakly convex base (rho = 2), which the pipeline itself refuses too
    with pytest.raises(ValueError, match="convex base"):
        pipeline_budget(problem_from_id("toy1d:absquad"), 0.5, 0.1)


def test_pipeline_budget_eps_scaling():
    base = problem_from_id("robust_regression:20:1:5")
    b1 = pipeline_budget(base, 0.5, 0.4)
    b2 = pipeline_budget(base, 0.5, 0.2)
    # dominant scaling eps^{-5/2}; constants drift the ratio slightly
    assert 4.8 <= b2 / b1 <= 6.5
    assert b1 > 0


def test_regularized_pipeline_deterministic_and_feasible():
    base = problem_from_id("robust_regression:20:1:5")
    a = regularized_pipeline(base, 0.5, 0.4, 500, np.random.default_rng([0, 31]))
    b = regularized_pipeline(base, 0.5, 0.4, 500, np.random.default_rng([0, 31]))
    np.testing.assert_array_equal(a.z, b.z)
    assert a.total_oracle_calls == 2 * 501
    assert base.regularizer.value(a.z) == 0.0
    assert a.mu == pytest.approx(0.4 / (2.0 * base.domain_diameter))
    assert a.lam == pytest.approx(2.0 * 0.5 - a.mu)
