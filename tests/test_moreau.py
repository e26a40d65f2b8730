"""Moreau envelope oracle: closed forms, cross-validation, error paths."""

import dataclasses
import math

import numpy as np
import pytest

from proxsgm import moreau
from proxsgm.checks import check_envelope_basics
from proxsgm.core import (
    CompositeProblem,
    point_value,
    row_dots,
    sample_domain_points,
)
from proxsgm.moreau import (
    InnerAccuracyError,
    ParameterError,
    envelope_grad_fd_check,
    moreau_prox,
    prox_gradient_mapping,
    stationarity_report,
)
from proxsgm.problems import (
    make_phase_retrieval,
    make_robust_regression,
    make_smooth_ls_noisy,
    make_toy1d,
    problem_from_id,
)
from proxsgm.prox import box_indicator, l1_regularizer, zero_regularizer

import reference
from builders import deterministic_oracle
from reference import GridSpec, moreau_grid_oracle

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


@pytest.mark.parametrize("family", ["abs", "absquad"])
@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_rejected_before_any_solve(family, lam):
    # toy1d:abs is convex (rho = 0), so no 1/rho cap catches an infinite lam
    p = make_toy1d(family)

    def no_solve(y):
        raise AssertionError("g evaluated before lam was validated")

    p = dataclasses.replace(p, g_value=no_solve, g_full_subgradient=no_solve)
    with pytest.raises(ParameterError):
        moreau_prox(p, np.array([0.8]), lam, tol=1e-8)
    with pytest.raises(ParameterError):
        moreau_grid_oracle(p, np.array([0.8]), lam, GridSpec(points_per_dim=101))


def test_inner_accuracy_error_carries_best_point():
    p = make_toy1d("abs")
    with pytest.raises(InnerAccuracyError) as exc:
        moreau_prox(p, np.array([0.5]), 0.9, tol=1e-30)
    pt = exc.value.point
    assert pt is not None
    assert abs(pt.x_hat[0]) <= 0.5  # still a sensible approximation


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("pid", ["smooth_ls:60:5:2", "phase_retrieval:20:4:3", "toy1d:abs"])
def test_moreau_prox_rejects_an_unmeetable_tol_before_solving(pid, tol):
    # tol = nan ran 1e6 prox-gradient steps on smooth_ls and returned, and
    # tol <= 0 raised InnerAccuracyError only after the whole budget
    p = problem_from_id(pid)
    calls = []

    def counted(y, subgradient=p.g_full_subgradient):
        calls.append(1)
        return subgradient(y)

    q = dataclasses.replace(p, g_full_subgradient=counted)
    lam = 0.5 / p.rho if p.rho > 0 else 0.5
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        moreau_prox(q, np.ones(p.dim), lam, tol)
    assert calls == []


@pytest.mark.parametrize("pid, lam_rho", [
    ("smooth_ls:60:5:2", 0.5),
    ("smooth_ls:60:5:2", 0.99),
    ("smooth_ls:30:3:7", 0.5),
])
def test_smooth_solve_stops_when_its_iterates_repeat(pid, lam_rho):
    # a tol below the floating-point floor once spun all 1e6 prox-gradient
    # steps (50 s) after the iterates had reached a fixed point or a 2-cycle
    p = problem_from_id(pid)
    calls = []

    def counted(y, subgradient=p.g_full_subgradient):
        calls.append(1)
        return subgradient(y)

    q = dataclasses.replace(p, g_full_subgradient=counted)
    with pytest.raises(InnerAccuracyError) as exc:
        moreau_prox(q, np.full(p.dim, 0.3), lam_rho / p.rho, tol=1e-300)
    assert len(calls) < 1000
    assert exc.value.point.inner_tol <= 1e-30


def steep_abs_problem(center):
    """g(y) = 50 |y - center|, r = 0, L = 50: a kink far from the unit
    bracket around a small x, so the 1-D solve must widen its bracket."""
    sub = lambda y: 50.0 * np.sign(y - center)
    return CompositeProblem(
        dim=1,
        g_oracle=deterministic_oracle(sub),
        regularizer=zero_regularizer(),
        rho=0.0,
        g_value=lambda y: point_value(50.0 * np.abs(y[..., 0] - center)),
        g_full_subgradient=sub,
        lipschitz_L=50.0,
    )


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("lam", [1.0, 0.7])
@pytest.mark.parametrize("x", [0.0, 100.0, -5.0])
def test_1d_bracket_widens_to_a_far_kink(side, lam, x):
    # the kink at 30 lies right of the first bracket at x = 0 and -5, and
    # its mirror at -30 left of the mirrored x: both bracket ends widen
    c, x = side * 30.0, side * x
    p = steep_abs_problem(c)
    pt = moreau_prox(p, np.array([x]), lam, tol=1e-10)
    # the prox of 50 |y - c| soft-thresholds x - c by 50 lam
    want = c + math.copysign(max(abs(x - c) - 50.0 * lam, 0.0), x - c)
    assert pt.x_hat[0] == pytest.approx(want, abs=1e-9)
    grid = moreau_grid_oracle(p, np.array([x]), lam, GridSpec(200_001, 2))
    assert pt.envelope_value == pytest.approx(grid.envelope_value, rel=1e-12)


@pytest.mark.parametrize("pid, x, lam, grid", [
    # 2-D, the criteria 04/06 family
    ("smooth_ls:30:2:6", [0.3, -0.4], 0.01, GridSpec(241, 1)),
    # x left of the box [-2, 2]: the grid's first rows are infeasible
    ("toy1d:absquad", [-3.5], 0.2, GridSpec(10_001, 2)),
    # window +-255/256 in steps of 1/128: psi ties exactly at -+1/256, rows
    # 127 and 128, and the first must win across a 128-row block edge
    ("toy1d:abs", [0.0], 127 / 256, GridSpec(256, 0)),
], ids=["2d", "infeasible_rows", "tie"])
def test_grid_blocks_pick_the_whole_grid_minimum(monkeypatch, pid, x, lam, grid):
    p = problem_from_id(pid)
    default = reference._GRID_BLOCK

    def point_bytes(block):
        monkeypatch.setattr(reference, "_GRID_BLOCK", block)
        pt = moreau_grid_oracle(p, np.array(x), lam, grid)
        return [np.asarray(v).tobytes() for v in dataclasses.astuple(pt)]

    whole = point_bytes(10**9)
    for block in (7, 128, default):
        assert point_bytes(block) == whole


def test_grid_rejects_high_dimension():
    p = quadratic_problem(3)
    with pytest.raises(ValueError, match=r"dim must lie in \[1, 2\], got 3"):
        moreau_grid_oracle(p, np.zeros(3), 0.5)


def test_grid_refuses_a_window_without_a_finite_value():
    # a NaN value is the whole grid's argmin: the scan stops at it and names
    # the NaN; a g that is -inf on part of the window leaves the subproblem
    # unbounded below, named at the first such point; a window of +inf
    # values has no feasible point
    p = dataclasses.replace(make_toy1d("abs"), g_value=lambda x: np.full(len(x), np.nan))
    with pytest.raises(ValueError, match=r"subproblem value is NaN at grid point \[-?\d"):
        moreau_grid_oracle(p, np.array([0.5]), 0.5)
    abs_g = make_toy1d("abs").g_value
    p = dataclasses.replace(p, g_value=lambda x: np.where(x[:, 0] > 0.7, -np.inf, abs_g(x)))
    with pytest.raises(ValueError, match=r"subproblem value is unbounded below \(-inf\) at grid "
                                         r"point \[0\.7\d"):
        moreau_grid_oracle(p, np.array([0.5]), 0.5)
    p = dataclasses.replace(p, g_value=lambda x: np.full(len(x), np.inf))
    with pytest.raises(ValueError, match="grid window contains no feasible point"):
        moreau_grid_oracle(p, np.array([0.5]), 0.5)


@pytest.mark.parametrize("vals", [
    [1.0, 2.0, 0.5, 0.5, 3.0],
    [1.0, math.nan, 0.5, math.nan, 0.7],
    [math.nan, 0.0, -1.0, 0.0, 0.0],
    [math.inf, math.inf, math.nan, math.inf, math.inf],
    [2.0, 0.0, -0.0, 1.0, 0.0],
    [0.3, 0.1, math.nan, 0.2, -math.inf],
])
def test_warmup_keeps_the_candidate_a_strict_scan_keeps(monkeypatch, vals):
    # the warm-up scores its start, iterates 20 and 40, the weighted mean and
    # the last iterate in one stack; the pick is that of a scan replacing its
    # incumbent on a strictly lower value only
    stacks = []

    def psi(problem, x, lam, ys):
        stacks.append(ys)
        return np.array(vals)

    monkeypatch.setattr(moreau, "_psi", psi)
    p = make_phase_retrieval(20, 2, 51)
    y = moreau._inner_subgradient_phase(p, np.array([0.7, -1.2]), 0.05)
    keep = 0
    for i, v in enumerate(vals):
        if v < vals[keep]:
            keep = i
    assert len(stacks) == 1 and stacks[0].shape == (5, 2)
    assert len({row.tobytes() for row in stacks[0]}) == 5  # a pick names one row
    assert np.array_equal(y, stacks[0][keep])


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
    # x_hat sits on the kink where 0 is inside the subdifferential
    assert rep.exact_subdiff_dist == pytest.approx(0.0, abs=1e-9)
    assert rep.grad_norm >= rep.exact_subdiff_dist - 1e-12


def _toy1d_subdiff(kind: str, v: float) -> tuple[float, float]:
    """The exact subdifferential interval of the toy1d g at v, the reference
    for the selection-based bound of ``stationarity_report``."""
    if kind == "abs":
        return (float(np.sign(v)),) * 2 if v != 0 else (-1.0, 1.0)
    if v * v != 1.0:
        s = 2.0 * v * float(np.sign(v * v - 1.0))
        return s, s
    return -2.0 * abs(v), 2.0 * abs(v)


def _interval_form_dist(pt, problem, kind: str) -> float:
    """Distance of zero to subdiff phi over the report's bracket [a, b], with
    subdiff g read from the exact intervals at a and b: monotonicity of
    subdiff g + rho id pads them by rho (b - a)."""
    r = problem.regularizer
    y = float(pt.x_hat[0])
    mu = 1.0 / pt.lam - problem.rho
    delta = max(math.sqrt(2.0 * pt.inner_tol / mu), 1e-12 * (1.0 + abs(y)))
    a = r.project_domain(np.array([y - delta]))
    b = r.project_domain(np.array([y + delta]))

    def r_ends(yy):
        fixed, G, lo, hi = r.subdiff_generators(yy, 1e-9 * (1.0 + abs(float(yy[0]))))
        ends = fixed[0] + np.sort(G[:, :1] * np.stack([lo, hi], axis=1), axis=1).sum(axis=0)
        return float(ends[0]), float(ends[1])

    pad = problem.rho * float(b[0] - a[0])
    lo = _toy1d_subdiff(kind, float(a[0]))[0] + r_ends(a)[0] - pad
    hi = _toy1d_subdiff(kind, float(b[0]))[1] + r_ends(b)[1] + pad
    return max(lo, -hi, 0.0)


def test_stationarity_exact_dist_matches_the_toy1d_interval_form():
    # 2 kinds x 3 lam x 50 anchors x 2 tolerances; the kinks and the box
    # ends are among the anchors
    rng = np.random.default_rng(0)
    kinks = [0.0, 1e-9, 1.0, -1.0, 2.0, -2.0, 0.5, 1.5, -1.2, 2.5]
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 40), kinks])
    dists = []
    for kind, lams in (("abs", (0.25, 0.5, 1.0)), ("absquad", (0.1, 0.25, 0.4))):
        p = make_toy1d(kind)
        for lam in lams:
            for x in xs:
                for tol in (1e-6, 1e-12):
                    pt = moreau_prox(p, np.array([x]), lam, tol)
                    dists.append(
                        (stationarity_report(pt, p).exact_subdiff_dist,
                         _interval_form_dist(pt, p, kind))
                    )
    assert len(dists) == 600
    got, ref = np.array(dists).T
    # the selection bound's interval contains the exact one, so it is never
    # farther from zero
    assert np.all(got <= ref)
    assert np.max(ref - got) <= 1e-10
    assert np.count_nonzero(got == 0.0) == np.count_nonzero(ref == 0.0) > 0


@pytest.mark.parametrize(
    "pid", ["robust_regression:20:1:3", "phase_retrieval:20:1:2", "smooth_ls:20:1:4"]
)
def test_stationarity_exact_dist_on_one_dimensional_families(pid):
    # dist(0, subdiff phi(x_hat)) <= ||grad envelope|| (the paper's section 2)
    p = problem_from_id(pid)
    lam = 1.0 / (2.0 * p.rho) if p.rho > 0 else 0.5
    for x in np.linspace(-2.5, 2.5, 41):
        for tol in (1e-6, 1e-10):
            rep = stationarity_report(moreau_prox(p, np.array([x]), lam, tol), p)
            assert 0.0 <= rep.exact_subdiff_dist <= rep.grad_norm + 1e-12


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


# ------------------------------------------- exact min-norm QP of the polish


def _lsq_linear_residual(Z, t, G, lo, hi):
    """Residual of the penalty-row ``lsq_linear`` formulation, with its hull
    weights renormalised onto the simplex: the reference the exact QP must
    match or beat."""
    from scipy.optimize import lsq_linear

    J = Z.shape[0]
    A = np.concatenate([Z.T, G.T], axis=1)
    w = 1e5 * (1.0 + float(np.max(np.abs(A))) + float(np.linalg.norm(t)))
    pen = np.zeros(A.shape[1])
    pen[:J] = 1.0
    sol = lsq_linear(
        np.vstack([A, w * pen]),
        np.concatenate([t, [w]]),
        bounds=(np.concatenate([np.zeros(J), lo]), np.concatenate([np.ones(J), hi])),
        tol=1e-14,
        lsmr_tol=1e-14,
    )
    theta = np.maximum(sol.x[:J], 0.0)
    theta /= theta.sum()
    return float(np.linalg.norm(theta @ (Z - t) + sol.x[J:] @ G))


def _envelope_solve_qps():
    """Arguments of every QP that check_envelope_basics and cold and warm
    solves on two nonsmooth families pass to the min-norm QP."""
    captured = []
    solve = moreau._min_norm_qp

    def record(*args):
        captured.append(tuple(np.array(a, copy=True) for a in args))
        return solve(*args)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moreau, "_min_norm_qp", record)
        check_envelope_basics()
        for pid in ("phase_retrieval:50:10:0", "phase_retrieval:30:5:4",
                    "robust_regression:40:2:1"):
            p = problem_from_id(pid)
            lam = 1.0 / (2.0 * p.rho) if p.rho > 0 else 0.5
            for x in sample_domain_points(p, 4, 1.0, rng):
                for tol in (1e-6, 1e-10):
                    cold = moreau_prox(p, x, lam, tol)
                    xw = p.regularizer.project_domain(x + 1e-4)
                    moreau_prox(p, xw, lam, tol, warm_start=cold.x_hat)
    return captured


def _hand_built_qps():
    rng = np.random.default_rng(11)
    qps = []
    for d in (2, 3, 6):
        # l1 kinks: bounded unit columns c_k in [-w, w] on some coordinates
        for w in (0.05, 0.7, 3.0):
            Z = rng.standard_normal((2 * d + 1, d))
            t = rng.standard_normal(d)
            kinks = rng.choice(d, size=max(1, d // 2), replace=False)
            G = np.eye(d)[kinks]
            qps.append((Z, t, G, np.full(kinks.size, -w), np.full(kinks.size, w)))
    # duplicate probe columns 1e-13 apart around a hull that nearly holds t
    d = 4
    base = rng.standard_normal((3, d))
    Z = np.concatenate([base, base, base[:1] + 1e-13 * rng.standard_normal((6, d))])
    t = base.mean(axis=0) + 1e-12 * rng.standard_normal(d)
    qps.append((Z, t, np.zeros((0, d)), np.zeros(0), np.zeros(0)))
    # the same with a cone generator on a box face
    qps.append((Z, t + 1e-9, np.eye(d)[:1], np.zeros(1), np.full(1, np.inf)))
    return qps


@pytest.fixture(scope="module")
def qp_cases():
    return _envelope_solve_qps() + _hand_built_qps()


def test_min_norm_qp_matches_or_beats_lsq_linear(qp_cases):
    assert len(qp_cases) >= 250
    assert any(G.shape[0] and np.isfinite(hi).all() for _, _, G, _, hi in qp_cases)
    for Z, t, G, lo, hi in qp_cases:
        v, theta, c, calls = moreau._min_norm_qp(Z, t, G, lo, hi)
        n = Z.shape[0] + G.shape[0]
        assert np.all(theta >= 0.0)
        assert abs(theta.sum() - 1.0) <= 1e-15 * theta.size
        assert np.all((c >= lo) & (c <= hi))
        np.testing.assert_array_equal(v, theta @ (Z - t) + c @ G)
        # one active-set pass has at most 3 n + 20 lstsq calls; bounded
        # columns add a few secant passes
        assert calls <= (3 * n + 20) * (4 if np.isfinite(hi).any() else 1)
        ref = _lsq_linear_residual(Z, t, G, lo, hi)
        res = float(np.linalg.norm(v))
        assert res <= ref * (1.0 + 1e-6) + 1e-13 * (1.0 + float(np.linalg.norm(t)))


def test_bvls_ends_where_the_entering_variable_would_move_the_wrong_way(monkeypatch):
    # column 0 is ~1e-8 beside columns of 1e4 and 1e7: its gradient clears
    # the entry threshold by roundoff alone, and freed with the other two it
    # would leave its lower bound downwards, so the loop ends there
    from scipy.optimize import lsq_linear

    E = np.array([[-3.3e-9, 1.19e4, 9.53e6],
                  [-1.08e-8, 6.44e4, -2.67e7],
                  [-8.88e-9, 5.86e4, -3.92e7]])
    b = np.array([5.71e7, 1.69e7, -6.66e7])
    solves = []
    real = np.linalg.lstsq

    def recorded(A, rhs, rcond=None):
        out = real(A, rhs, rcond=rcond)
        solves.append((A.shape[1], out[0]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    x, steps = moreau._bvls(E, b, np.zeros(3), np.full(3, np.inf))
    assert steps == len(solves) == 3
    n_free, z = solves[-1]
    assert n_free == 3 and z[0] < 0.0
    assert x[0] == 0.0
    ref = lsq_linear(E, b, bounds=(0.0, np.inf), method="bvls", tol=1e-14).x
    np.testing.assert_allclose(x, ref, rtol=1e-9)


def _armijo_loop(problem, x, lam, y, v, val, res, t0):
    """The per-candidate backtracking loop that the stacked search replaces."""
    t = 2.0 * t0
    for _ in range(40):
        cand = problem.regularizer.project_domain(y - t * v)
        cval = moreau._psi(problem, x, lam, cand)
        if cval < val - 1e-4 * t * res * res:
            return cand, cval
        t *= 0.5
    return None


def test_stacked_armijo_search_equals_the_candidate_loop():
    solves = 0
    rng = np.random.default_rng(8)
    for pid in ("phase_retrieval:20:4:3", "robust_regression:30:2:4"):  # ball, box
        p = problem_from_id(pid)
        lam = 1.0 / (2.0 * p.rho) if p.rho > 0 else 0.5
        for x in sample_domain_points(p, 13, 1.5, rng):
            for tol in (1e-6, 1e-10):
                points = []
                for search in (moreau._armijo_step, _armijo_loop):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(moreau, "_armijo_step", search)
                        try:
                            points.append(moreau_prox(p, x, lam, tol))
                        except InnerAccuracyError as err:
                            points.append(err.point)
                stacked, loop = points
                assert stacked.x_hat.tobytes() == loop.x_hat.tobytes()
                assert repr(stacked.inner_tol) == repr(loop.inner_tol)
                solves += 1
    assert solves >= 50


def test_certificate_covers_the_gap_at_the_planted_signal():
    # at the planted phase-retrieval signal 0 is a subgradient, so the hull
    # residual shrinks with the probe radius delta and the rho * delta term
    # of weak convexity at the probe points is of the same order; with
    # x = x_sharp the signal itself is the proximal point, psi(x_sharp) = 0
    p = problem_from_id("phase_retrieval:30:4:3")
    xs = p.planted_point
    lam = 1.0 / (2.0 * p.rho)
    mu = 1.0 / lam - p.rho
    ref = moreau._psi(p, xs, lam, xs)
    pt = moreau_prox(p, xs, lam, tol=1e-10)
    assert pt.envelope_value - ref <= pt.inner_tol
    dirs = moreau._probe_directions(p.dim)
    rng = np.random.default_rng(6)
    for eps in (1e-3, 1e-5, 1e-7):
        u = rng.standard_normal(p.dim)
        y = xs + eps * u / np.linalg.norm(u)
        excess = moreau._psi(p, xs, lam, y) - ref
        for delta in (1e-3, 1e-5, 1e-7):
            res, _, gscale = moreau._residual_qp(p, xs, lam, y, delta, dirs)
            assert moreau._cert_gap(res, mu, p.rho, delta, gscale) >= excess


def test_certificate_covers_the_gap_of_a_concave_quadratic():
    # g = -(rho/2) ||y||^2 is smooth and rho-weakly convex, and psi is a
    # quadratic with Hessian mu I, so psi(y) - min psi = ||grad psi(y)||^2
    # / (2 mu) exactly.  With y near 0 and x far away the gradient G is
    # large, the probe hull pulls the residual down to about G - rho delta,
    # and res^2 / (2 mu) plus the probe offset falls short of the gap by
    # about G rho delta / mu; the rho delta term restores it
    rho, lam, d = 1.0, 0.5, 3
    mu = 1.0 / lam - rho
    grad = lambda y: -rho * y
    p = CompositeProblem(
        dim=d,
        g_oracle=deterministic_oracle(grad),
        regularizer=zero_regularizer(),
        rho=rho,
        g_value=lambda y: point_value(-0.5 * rho * row_dots(y, y)),
        g_full_subgradient=grad,
    )
    dirs = moreau._probe_directions(d)
    rng = np.random.default_rng(3)
    for x in (np.array([10.0, 0.0, 0.0]), np.array([-3.0, 7.0, 1.0])):
        z_star = x / (lam * mu)
        for _ in range(4):
            y = 1e-6 * rng.standard_normal(d)
            gap = moreau._psi(p, x, lam, y) - moreau._psi(p, x, lam, z_star)
            for delta in (1e-2, 1e-3, 1e-5):
                res, _, gscale = moreau._residual_qp(p, x, lam, y, delta, dirs)
                assert moreau._cert_gap(res, mu, rho, delta, gscale) >= gap


def test_l1_regularized_nonsmooth_solves_meet_tol_and_the_grid():
    # robust regression's g with an l1 term: the polish QPs carry bounded
    # generator columns c in [-w, w] at the zero coordinates of y
    bounded = []
    solve = moreau._min_norm_qp

    def record(Z, t, G, lo, hi):
        bounded.append(bool(np.isfinite(hi).any()))
        return solve(Z, t, G, lo, hi)

    lam = 0.5
    rng = np.random.default_rng(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moreau, "_min_norm_qp", record)
        for d in (2, 5):
            p = dataclasses.replace(
                problem_from_id(f"robust_regression:30:{d}:4"),
                regularizer=l1_regularizer(0.7),
            )
            mu = 1.0 / lam - p.rho
            for x in [np.zeros(d), *sample_domain_points(p, 3, 1.0, rng)]:
                ref = moreau_grid_oracle(p, x, lam) if d == 2 else None
                for tol in (1e-6, 1e-10):
                    pt = moreau_prox(p, x, lam, tol)
                    assert pt.inner_tol <= tol
                    if ref is None:
                        continue
                    # the grid point's value bounds min psi from above, so a
                    # sound certificate puts it no lower than value - gap;
                    # strong convexity then bounds the distance of the points
                    excess = ref.envelope_value - pt.envelope_value
                    assert excess >= -pt.inner_tol
                    dist = np.sqrt(2.0 * pt.inner_tol / mu) + np.sqrt(
                        2.0 * (excess + pt.inner_tol) / mu
                    )
                    assert np.linalg.norm(pt.x_hat - ref.x_hat) <= dist
    assert sum(bounded) >= len(bounded) // 2


def test_cold_nonsmooth_solves_meet_tol_after_a_short_warmup():
    # a cold polish started at x itself stalls at gap 3e-4 against tol
    # 1e-10 on make_phase_retrieval(20, 2, 51) at x = (3, 3), and the d = 5
    # seed-51 solve at 3 * ones needs the polish's final radius refinement;
    # the warm-up makes at most 50 point subgradient calls
    cases = [(make_phase_retrieval(20, 2, 51), np.array([3.0, 3.0]))]
    for make in (make_phase_retrieval, make_robust_regression):
        for d in (2, 5, 10):
            for seed in (50, 51, 52):
                p = make(20, d, seed)
                rng = np.random.default_rng(seed)
                anchors = [*sample_domain_points(p, 3, 1.0, rng), np.full(d, 3.0)]
                cases += [(p, x) for x in anchors]
    for p, x in cases:
        point_calls = []

        def counted(y, subgradient=p.g_full_subgradient):
            if y.ndim == 1:
                point_calls.append(1)
            return subgradient(y)

        q = dataclasses.replace(p, g_full_subgradient=counted)
        lam = 1.0 / (2.0 * p.rho) if p.rho > 0 else 0.5
        for tol in (1e-6, 1e-10):
            point_calls.clear()
            assert moreau_prox(q, x, lam, tol).inner_tol <= tol
            # the polish probes stacks; the one other point call is the
            # subgradient the returned point carries at x_hat
            assert len(point_calls) <= 50 + 1
