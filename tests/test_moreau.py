"""Moreau envelope oracle: closed forms, cross-validation, error paths."""

import numpy as np
import pytest

from proxsgm.core import CompositeProblem, deterministic_oracle, point_value, row_dots
from proxsgm.moreau import (
    DimensionError,
    GridSpec,
    InnerAccuracyError,
    ParameterError,
    envelope_grad_fd_check,
    moreau_grid_oracle,
    moreau_prox,
    prox_gradient_mapping,
    stationarity_report,
)
from proxsgm.problems import make_smooth_ls_noisy, make_toy1d, problem_from_id
from proxsgm.prox import box_indicator, zero_regularizer

FINE_1D = GridSpec(points_per_dim=100_001, n_refine=2)


def quadratic_problem(dim):
    """g = ||x||^2 / 2, exact oracle; envelope has a closed form."""
    grad = lambda x: x.copy()
    return CompositeProblem(
        dim=dim,
        g_oracle=deterministic_oracle(grad),
        regularizer=zero_regularizer(),
        rho=0.0,
        g_value=lambda x: point_value(0.5 * row_dots(x, x)),
        g_full_subgradient=grad,
        lipschitz_L=10.0,
        smooth=True,
    )


def test_abs_envelope_hand_values():
    # phi_1(0.5) for |x|: x_hat = 0, value 0.5^2/2 = 0.125, grad 0.5
    p = make_toy1d("abs")
    pt = moreau_prox(p, np.array([0.5]), 1.0, tol=1e-12)
    assert pt.envelope_value == pytest.approx(0.125, abs=1e-12)
    assert pt.x_hat == pytest.approx([0.0], abs=1e-10)
    assert pt.envelope_grad == pytest.approx([0.5], abs=1e-10)


def test_abs_envelope_grid_agrees():
    p = make_toy1d("abs")
    pt = moreau_grid_oracle(p, np.array([0.5]), 1.0, FINE_1D)
    assert pt.envelope_value == pytest.approx(0.125, abs=1e-10)
    assert abs(pt.x_hat[0]) <= 1e-6


def test_quadratic_envelope_closed_form():
    # for g = ||x||^2/2: x_hat = x/(1+lam), phi_lam(x) = ||x||^2 / (2(1+lam))
    p = quadratic_problem(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=3)
        lam = rng.uniform(0.2, 2.0)
        pt = moreau_prox(p, x, lam, tol=1e-14)
        # the certificate bounds the objective gap; point accuracy follows
        # as sqrt(2 tol / mu) with mu = 1/lam here
        atol = np.sqrt(2e-14 * (1.0 + lam))
        np.testing.assert_allclose(pt.x_hat, x / (1.0 + lam), atol=atol)
        assert pt.envelope_value == pytest.approx(
            0.5 * float(x @ x) / (1.0 + lam), abs=1e-12)
        np.testing.assert_allclose(pt.envelope_grad, x / (1.0 + lam), atol=atol / lam)


def test_absquad_iterative_vs_grid_frozen_point():
    p = make_toy1d("absquad")
    x = np.array([0.9])
    it = moreau_prox(p, x, 0.25, tol=1e-10)
    gr = moreau_grid_oracle(p, x, 0.25, FINE_1D)
    assert abs(it.x_hat[0] - gr.x_hat[0]) <= 1e-5
    assert abs(it.envelope_value - gr.envelope_value) <= 1e-8


def test_envelope_point_identities():
    p = make_toy1d("absquad")
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = np.array([rng.uniform(-2.0, 2.0)])
        lam = rng.uniform(0.05, 0.45)
        pt = moreau_prox(p, x, lam, tol=1e-11)
        # envelope never exceeds phi, and the prox point achieves the inf
        assert pt.envelope_value <= p.phi(x) + 1e-10
        recon = p.phi(pt.x_hat) + float((x - pt.x_hat) @ (x - pt.x_hat)) / (2 * lam)
        assert recon == pytest.approx(pt.envelope_value, abs=1e-9)
        # grad identity is structural: x_hat + lam * grad == x
        np.testing.assert_allclose(pt.x_hat + lam * pt.envelope_grad, x, atol=1e-14)


def test_lambda_must_stay_below_inverse_rho():
    p = make_toy1d("absquad")  # rho = 2
    for lam in (0.5, 0.6, 5.0):
        with pytest.raises(ParameterError):
            moreau_prox(p, np.array([0.3]), lam)
    with pytest.raises(ParameterError):
        moreau_prox(p, np.array([0.3]), 0.0)


def test_inner_accuracy_error_carries_best_point():
    p = make_toy1d("abs")
    with pytest.raises(InnerAccuracyError) as exc:
        moreau_prox(p, np.array([0.5]), 0.9, tol=1e-30, max_iter=4)
    pt = exc.value.point
    assert pt is not None
    assert abs(pt.x_hat[0]) <= 0.5  # still a sensible approximation


def test_grid_rejects_high_dimension():
    p = quadratic_problem(3)
    with pytest.raises(DimensionError):
        moreau_grid_oracle(p, np.zeros(3), 0.5)


def test_grid_agreement_random_draws_absquad():
    p = make_toy1d("absquad")
    rng = np.random.default_rng(2)
    for _ in range(8):
        x = np.array([rng.uniform(-2.0, 2.0)])
        lam = rng.uniform(0.05, 0.45)
        it = moreau_prox(p, x, lam, tol=1e-10)
        gr = moreau_grid_oracle(p, x, lam, FINE_1D)
        assert abs(it.x_hat[0] - gr.x_hat[0]) <= 1e-6


def test_fd_gradient_quadratic_tight():
    p = quadratic_problem(2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=2)
        err = envelope_grad_fd_check(p, x, 0.7, h=1e-4, inner_tol=1e-13)
        assert err <= 1e-6


def test_fd_gradient_absquad():
    p = make_toy1d("absquad")
    err = envelope_grad_fd_check(p, np.array([0.9]), 0.25, h=1e-4, inner_tol=1e-10)
    assert err <= 1e-4


def test_stationarity_report_abs():
    p = make_toy1d("abs")
    pt = moreau_prox(p, np.array([0.5]), 1.0, tol=1e-12)
    rep = stationarity_report(pt, p)
    assert rep.grad_norm == pytest.approx(0.5, abs=1e-10)
    assert rep.grad_norm_sq == pytest.approx(0.25, abs=1e-10)
    assert rep.dist_to_xhat == pytest.approx(pt.lam * rep.grad_norm, abs=1e-14)
    # x_hat sits on the kink where 0 is inside the subdifferential
    assert rep.exact_subdiff_dist == pytest.approx(0.0, abs=1e-9)
    assert rep.subdiff_dist_bound >= rep.exact_subdiff_dist - 1e-12


def test_prox_gradient_mapping_unconstrained_equals_gradient():
    p = quadratic_problem(2)
    x = np.array([1.5, -0.3])
    g = prox_gradient_mapping(p, x, 0.4)
    np.testing.assert_allclose(g, x, atol=1e-12)


def test_prox_gradient_mapping_box_hand_value():
    # g = x^2/2 on [-0.1, 0.1]: at x = 1, lam = 1 the inner step lands at 0,
    # projection keeps it, so G = (1 - 0)/1 = 1
    grad = lambda x: x.copy()
    p = CompositeProblem(
        dim=1,
        g_oracle=deterministic_oracle(grad),
        regularizer=box_indicator(np.array([-0.1]), np.array([0.1])),
        rho=0.0,
        g_value=lambda x: point_value(0.5 * row_dots(x, x)),
        g_full_subgradient=grad,
        lipschitz_L=1.0,
        smooth=True,
    )
    g = prox_gradient_mapping(p, np.array([1.0]), 1.0)
    assert g == pytest.approx([1.0], abs=1e-14)


def test_prox_gradient_mapping_needs_smooth():
    from proxsgm.core import CapabilityError

    with pytest.raises(CapabilityError):
        prox_gradient_mapping(make_toy1d("abs"), np.array([0.5]), 0.5)


def test_smooth_sandwich_small_sample():
    p = problem_from_id("smooth_ls:30:2:6")
    lam = 1.0 / (2.0 * p.rho)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=2)
        pt = moreau_prox(p, x, lam, tol=1e-10)
        gmap = prox_gradient_mapping(p, x, lam)
        gn, en = float(np.linalg.norm(gmap)), float(np.linalg.norm(pt.envelope_grad))
        slack = 1e-6 * (1.0 + gn)
        assert (1.0 - p.rho * lam) * gn - slack <= en <= (1.0 + p.rho * lam) * gn + slack


def test_zeta_hat_is_an_approximate_subgradient_at_xhat():
    # the numeric x_hat can sit a few ulps off a kink, so test the
    # weak-convexity subgradient inequality with a small slack instead of
    # exact interval membership
    p = make_toy1d("absquad")
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = np.array([rng.uniform(-2.0, 2.0)])
        pt = moreau_prox(p, x, 0.25, tol=1e-11)
        for _ in range(50):
            z = np.array([rng.uniform(-2.0, 2.0)])
            lhs = p.g_value(z)
            step = z - pt.x_hat
            rhs = (p.g_value(pt.x_hat) + float(pt.zeta_hat @ step)
                   - 0.5 * p.rho * float(step @ step))
            assert lhs >= rhs - 1e-6


def test_warm_start_agrees_with_cold_start():
    p = make_toy1d("absquad")
    x = np.array([1.4])
    cold = moreau_prox(p, x, 0.3, tol=1e-11)
    warm = moreau_prox(p, x, 0.3, tol=1e-11, warm_start=cold.x_hat)
    assert abs(cold.x_hat[0] - warm.x_hat[0]) <= 1e-8
