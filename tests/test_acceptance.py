"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Every test prints a single "[criterion NN] PASS/FAIL ..." verdict on the real
stderr so the gate stays visible under pytest capture, then asserts it.
Heavy shared computations (the rate sweep, the grid cross-validation) run
once per module.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from proxsgm.boost import (
    envelope_shift_identity_check,
    optimal_gamma,
    pipeline_budget,
    regularized_pipeline,
    two_stage_convex,
)
from proxsgm.core import sample_domain_points
from proxsgm.harness import ExperimentConfig, run_sweep
from proxsgm.moreau import envelope_grad_fd_check, moreau_prox, prox_gradient_mapping
from proxsgm.problems import default_x0, problem_from_id
from proxsgm.solver import (
    LEMMA_ROUNDOFF,
    StepSchedule,
    check_descent_lemma,
    check_prox_identity,
    lemma_of,
    run_psgm,
)

from reference import GridSpec, moreau_grid_oracle

BENCHMARKS = (
    "phase_retrieval:50:10:0",
    "robust_regression:40:2:1",
    "toy1d:abs",
    "toy1d:absquad",
    "smooth_ls:60:5:2",
)
# the one-step lemma under each benchmark's printed bound
LEMMA_ROWS = {
    "phase_retrieval:50:10:0": "ProjectedThm21",
    "robust_regression:40:2:1": "ProjectedThm21",
    "toy1d:abs": "ProjectedThm21",
    "toy1d:absquad": "ProjectedThm21",
    "smooth_ls:60:5:2": "SmoothCor29",
}


@pytest.fixture
def report(capfd):
    """Verdict printer that stays visible under pytest's fd capture."""

    def _report(num: int, passed: bool, detail: str) -> None:
        tag = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"\n[criterion {num:02d}] {tag} {detail}", flush=True)
        assert passed, f"criterion {num}: {detail}"

    return _report


def harness_rho_hat(problem) -> float:
    return 2.0 * problem.rho if problem.rho > 0 else 1.0


def anchor_radius(problem) -> float:
    d = problem.domain_diameter
    return 0.5 * d if d is not None else 2.0


# ------------------------------------------------- criteria 1 and 2: sweep


@pytest.fixture(scope="module")
def rate_sweep():
    config = ExperimentConfig(
        problem_id="phase_retrieval:50:10:0",
        horizons=(100, 1000, 10_000),
        gamma="optimal",
        n_seeds=50,
        inner_tol=1e-6,
        workers=1,
        output="",
    )
    t0 = time.perf_counter()
    rep = run_sweep(config)
    return rep, time.perf_counter() - t0


def test_criterion_01_rate_reproduction(rate_sweep, report):
    rep, elapsed = rate_sweep
    ok = rep.slope <= -0.25 and rep.slope_stderr < 0.1 and elapsed <= 300.0
    report(
        1,
        ok,
        f"slope {rep.slope:.4f} (need <= -0.25), stderr {rep.slope_stderr:.4f} "
        f"(need < 0.1), wall {elapsed:.1f}s (need <= 300s)",
    )


def test_criterion_02_bound_validity(rate_sweep, report):
    rep, _ = rate_sweep
    parts = [
        f"T={h.T}: mean-CI {h.mean - h.ci_half_width:.4f} vs bound {h.bound_value:.4f}"
        for h in rep.per_horizon
    ]
    ok = all(h.bound_satisfied for h in rep.per_horizon)
    report(2, ok, "; ".join(parts))


# --------------------------------------------- criterion 3: descent lemma


def test_criterion_03_descent_lemma_monte_carlo(report):
    # each family is checked against the lemma under the bound its sweep prints
    n_checked, n_violated = 0, 0
    worst_excess = worst_over = -np.inf
    rows = {}
    for k, pid in enumerate(BENCHMARKS):
        p = problem_from_id(pid)
        rho_hat = harness_rho_hat(p)
        alpha = 0.5 / rho_hat
        anchors = sample_domain_points(
            p, 10, anchor_radius(p), np.random.default_rng([17, k])
        )
        for j, x in enumerate(anchors):
            rep = check_descent_lemma(
                p, x, rho_hat, alpha, 100_000,
                np.random.default_rng([23, k, j]), inner_tol=1e-10,
            )
            assert rep.variant == LEMMA_ROWS[pid] == lemma_of(p)
            n_checked += 1
            n_violated += rep.violated
            excess = rep.estimate - rep.ci_half_width - rep.bound
            worst_excess = max(worst_excess, excess)
            worst_over = max(worst_over, excess - rep.allowance)
        rows[pid] = rep.variant
    report(
        3,
        n_violated == 0,
        f"{n_checked} one-step checks across {len(BENCHMARKS)} benchmarks "
        f"({', '.join(f'{pid}: {row}' for pid, row in rows.items())}), "
        f"{n_violated} violations, worst estimate-CI minus bound {worst_excess:.2e}, "
        f"minus the allowance {LEMMA_ROUNDOFF} eps (||x - x_hat||^2 + noise term) "
        f"{worst_over:.2e}",
    )


# --------------------------- criteria 4 and 6: grid-oracle cross-validation


@pytest.fixture(scope="module")
def grid_cross_validation():
    rng = np.random.default_rng(42)
    fine_1d = GridSpec(points_per_dim=200_001, n_refine=2)
    n_draws, worst_res, worst_agree = 0, 0.0, 0.0

    for pid, n in (
        ("toy1d:abs", 13),
        ("toy1d:absquad", 13),
        ("robust_regression:20:1:5", 12),
    ):
        p = problem_from_id(pid)
        r = p.regularizer
        if r.lo is not None:
            lo, hi = float(r.lo[0]), float(r.hi[0])
        else:
            lo, hi = -2.0, 2.0
        for _ in range(n):
            x = np.array([rng.uniform(lo, hi)])
            if p.rho > 0:
                rho_hat = rng.uniform(1.05 * p.rho, 2 * p.rho)
            else:
                rho_hat = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(0.1, 1.0) / rho_hat
            lam = 1.0 / rho_hat
            gpt = moreau_grid_oracle(p, x, lam, fine_1d)
            ipt = moreau_prox(p, x, lam, 1e-10)
            worst_agree = max(worst_agree, float(np.linalg.norm(gpt.x_hat - ipt.x_hat)))
            worst_res = max(worst_res, check_prox_identity(p, x, rho_hat, alpha, point=gpt))
            n_draws += 1

    p = problem_from_id("smooth_ls:30:2:6")
    grid_2d = GridSpec(points_per_dim=801, n_refine=3)
    for _ in range(12):
        x = rng.uniform(-1.0, 1.0, 2)
        rho_hat = rng.uniform(1.05 * p.rho, 2 * p.rho)
        alpha = rng.uniform(0.1, 1.0) / rho_hat
        lam = 1.0 / rho_hat
        gpt = moreau_grid_oracle(p, x, lam, grid_2d)
        ipt = moreau_prox(p, x, lam, 1e-10)
        worst_agree = max(worst_agree, float(np.linalg.norm(gpt.x_hat - ipt.x_hat)))
        worst_res = max(worst_res, check_prox_identity(p, x, rho_hat, alpha, point=gpt))
        n_draws += 1

    return n_draws, worst_res, worst_agree


def test_criterion_04_prox_identity_grid(grid_cross_validation, report):
    n_draws, worst_res, _ = grid_cross_validation
    ok = n_draws == 50 and worst_res <= 1e-6
    report(
        4,
        ok,
        f"fixed-point residual with grid-oracle proximal points: worst {worst_res:.2e} "
        f"over {n_draws} random (x, alpha, rho_hat) draws (need <= 1e-6)",
    )


def test_criterion_06_inner_solver_vs_grid(grid_cross_validation, report):
    n_draws, _, worst_agree = grid_cross_validation
    ok = n_draws == 50 and worst_agree <= 1e-5
    report(
        6,
        ok,
        f"iterative vs grid proximal point agreement: worst {worst_agree:.2e} "
        f"over {n_draws} random (x, lambda) draws (need <= 1e-5)",
    )


# --------------------------- criterion 5: envelope gradient vs differences


def test_criterion_05_envelope_gradient_fd(report):
    rng = np.random.default_rng(7)
    worst = {}
    for pid, n_pts in (
        ("toy1d:abs", 25),
        ("toy1d:absquad", 25),
        ("phase_retrieval:30:5:4", 50),
    ):
        p = problem_from_id(pid)
        lam = 1.0 / harness_rho_hat(p)
        pts = sample_domain_points(p, n_pts, anchor_radius(p), rng)
        worst[pid] = max(
            envelope_grad_fd_check(p, x, lam, h=1e-4, inner_tol=1e-10) for x in pts
        )
    overall = max(worst.values())
    detail = ", ".join(f"{pid}: {v:.2e}" for pid, v in worst.items())
    report(5, overall <= 1e-4, f"max relative FD error {detail} (need <= 1e-4)")


# ------------------------------------------- criterion 7: smooth sandwich


def test_criterion_07_smooth_sandwich(report):
    p = problem_from_id("smooth_ls:60:5:2")
    lam = 1.0 / (2.0 * p.rho)
    pts = sample_domain_points(p, 100, anchor_radius(p), np.random.default_rng(13))
    worst = -np.inf
    for x in pts:
        env = float(np.linalg.norm(moreau_prox(p, x, lam, 1e-10).envelope_grad))
        gmap = float(np.linalg.norm(prox_gradient_mapping(p, x, lam)))
        slack = 1e-6 * (1.0 + gmap)
        worst = max(
            worst,
            (1.0 - p.rho * lam) * gmap - slack - env,
            env - (1.0 + p.rho * lam) * gmap - slack,
        )
    report(
        7,
        worst <= 0.0,
        f"(1 +- rho lam)||G|| envelope-gradient sandwich at 100 points, "
        f"worst violation {worst:.2e} (need <= 0)",
    )


# --------------------------------------- criterion 8: envelope shift identity


def test_criterion_08_envelope_shift_identity(report):
    base = problem_from_id("robust_regression:40:2:1")
    r = base.regularizer
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(r.lo, r.hi)
        x_c = rng.uniform(r.lo, r.hi)
        mu = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.2, 2.0)
        worst = max(worst, envelope_shift_identity_check(base, mu, x_c, lam, x))
    report(
        8,
        worst <= 1e-8,
        f"|LHS - RHS| of the quadratic-shift identity, worst {worst:.2e} "
        f"over 100 draws (need <= 1e-8)",
    )


# --------------------- criterion 9: two-stage dominance, pipeline exponent


def test_criterion_09_two_stage_and_pipeline(report):
    base = problem_from_id("robust_regression:40:2:1")
    rho_hat, lam_score, T = 1.0, 0.5, 400
    L, D = base.lipschitz_L, base.domain_diameter
    gamma_single = optimal_gamma(min(0.5 * D * D, D * L), 0.5, L)
    x0 = default_x0(base)
    wins = 0
    for seed in range(50):
        two = two_stage_convex(base, T, rho_hat, np.random.default_rng([seed, 9, 1]))
        sched = StepSchedule.constant(
            gamma_single, two.total_oracle_calls - 1, rho_hat=rho_hat
        )
        single = run_psgm(base, x0, sched, np.random.default_rng([seed, 9, 2]))
        g_two = moreau_prox(base, two.result.x_star, lam_score, 1e-8).envelope_grad
        g_one = moreau_prox(base, single.x_star, lam_score, 1e-8).envelope_grad
        wins += float(g_two @ g_two) <= float(g_one @ g_one)

    pipe_base = problem_from_id("robust_regression:20:1:5")
    rho_decl, eps_grid = 0.5, (0.4, 0.2, 0.1)
    budgets, mean_grads = [], []
    for eps in eps_grid:
        T_eps = pipeline_budget(pipe_base, rho_decl, eps)
        grads, calls = [], 0
        for seed in range(8):
            res = regularized_pipeline(
                pipe_base, rho_decl, eps, T_eps, np.random.default_rng([seed, 9, 3])
            )
            pt = moreau_prox(pipe_base, res.z, 1.0, 1e-8)
            grads.append(float(np.linalg.norm(pt.envelope_grad)))
            calls = res.total_oracle_calls
        budgets.append(calls)
        mean_grads.append(float(np.mean(grads)))
    exponent = float(np.polyfit(np.log(eps_grid), np.log(budgets), 1)[0])
    targets_met = all(g <= e for g, e in zip(mean_grads, eps_grid))

    ok = wins >= 40 and -3.0 <= exponent <= -2.2 and targets_met
    grad_part = ", ".join(
        f"eps {e}: grad {g:.4f} budget {b}"
        for e, g, b in zip(eps_grid, mean_grads, budgets)
    )
    report(
        9,
        ok,
        f"equal-budget dominance {wins}/50 (need >= 40); "
        f"budget exponent {exponent:.3f} (need in [-3.0, -2.2]); {grad_part}",
    )


# ------------------------------------ criterion 10: invariant suites (CLI)


def test_criterion_10_check_command(report):
    proc = subprocess.run(
        [sys.executable, "-m", "proxsgm.cli", "check", "--quiet"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else "(no output)"
    report(10, proc.returncode == 0, f"exit code {proc.returncode}; {summary}")
