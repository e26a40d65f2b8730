"""The references in tests/reference.py, and the envelope solves checked
against them: every claimed gap is a bound."""

import dataclasses
import math

import numpy as np
import pytest

from proxsgm.moreau import InnerAccuracyError, ParameterError, moreau_prox
from proxsgm.problems import problem_from_id

from reference import (
    GridSpec,
    moreau_grid_oracle,
    separable_problem,
    separable_prox,
    separable_psi,
)


def certified_point(problem, x, lam, tol):
    """moreau_prox's point, or the best point it carries when it misses tol:
    either certifies its own gap."""
    try:
        return moreau_prox(problem, x, lam, tol)
    except InnerAccuracyError as exc:
        return exc.point


# (family, grid, draws): every family at the default grid, the 2-D ones
# also at criteria 04/06's size
UNDER_REPORT_ROWS = [
    ("toy1d:abs", GridSpec(), 28),
    ("toy1d:absquad", GridSpec(), 28),
    ("robust_regression:20:1:5", GridSpec(), 28),
    ("robust_regression:40:2:1", GridSpec(), 28),
    ("phase_retrieval:20:2:1", GridSpec(), 28),
    ("smooth_ls:30:2:6", GridSpec(), 28),
    ("robust_regression:40:2:1", GridSpec(801, 3), 12),
    ("phase_retrieval:20:2:1", GridSpec(801, 3), 12),
    ("smooth_ls:30:2:6", GridSpec(801, 3), 12),
]


def ball_draw(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """A point uniform in the radius ball of R^d."""
    u = rng.standard_normal(d)
    return radius * rng.random() ** (1.0 / d) * u / np.linalg.norm(u)


@pytest.mark.parametrize("pid, grid, n_draws", UNDER_REPORT_ROWS, ids=[
    f"{pid}-{grid.points_per_dim}x{grid.n_refine}" for pid, grid, _ in UNDER_REPORT_ROWS])
def test_grid_gap_bounds_the_excess_over_the_iterative_point(pid, grid, n_draws):
    # psi(grid point) - psi(iterative point) - the iterative gap is at most
    # the grid point's true gap, so a claimed gap below it under-reports
    p = problem_from_id(pid)
    rho_hat = 2.0 * p.rho if p.rho > 0 else 1.0
    rng = np.random.default_rng(0)
    for _ in range(n_draws):
        x = ball_draw(rng, p.dim, 2.0)
        lam = rng.uniform(0.2, 1.0) / rho_hat
        ref = moreau_grid_oracle(p, x, lam, grid)
        it = certified_point(p, x, lam, 1e-12)
        excess = ref.envelope_value - it.envelope_value - it.inner_tol
        assert ref.inner_tol >= excess, (x, lam, ref.inner_tol, excess)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308])
def test_grid_refuses_a_bad_lam_before_any_solve(lam):
    # toy1d:absquad has rho = 2, so 1e308 lies above 1/rho
    def no_solve(y):
        raise AssertionError("g evaluated before lam was validated")

    p = dataclasses.replace(problem_from_id("toy1d:absquad"), g_value=no_solve,
                            g_full_subgradient=no_solve)
    with pytest.raises(ParameterError):
        moreau_grid_oracle(p, np.array([0.8]), lam)


@pytest.mark.parametrize("n", [3, 4, 5, 9, 21])
def test_grid_step_covers_a_disc(n):
    # the grid's nonsmooth gap takes every point of dom r in a cube within
    # step sqrt(d) of a feasible grid point; for phase retrieval's disc of
    # radius 2, on cubes centred in it (on its edge half the time)
    rng = np.random.default_rng(n)
    for _ in range(100):
        u = rng.standard_normal(2)
        b = 2.0 * u / np.linalg.norm(u) * (1.0 if rng.random() < 0.5 else np.sqrt(rng.random()))
        hw = 3.0 * rng.random() + 1e-3
        axes = [np.linspace(b[j] - hw, b[j] + hw, n) for j in range(2)]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        feasible = pts[np.linalg.norm(pts, axis=1) <= 2.0]
        z = b + hw * rng.uniform(-1.0, 1.0, (400, 2))
        z = z[np.linalg.norm(z, axis=1) <= 2.0]
        dist = np.linalg.norm(z[:, None] - feasible[None], axis=2).min(axis=1)
        assert dist.max() <= 2.0 * hw / (n - 1) * math.sqrt(2.0)


@pytest.mark.parametrize("d", [2, 10, 20])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_moreau_prox_gap_bounds_the_exact_separable_gap(d, tol):
    # the d = 10 and 20 solves take the warm-up, polish and QP path of every
    # criterion-01 envelope solve; separable_prox is exact at any d
    p = separable_problem(d)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2.5, 2.5, d)
        lam = rng.uniform(0.2, 0.9) / p.rho
        _, least = separable_prox(x, lam)
        for warm in (None, np.clip(x, -2.0, 2.0)):
            pt = moreau_prox(p, x, lam, tol, warm_start=warm)
            value = float(separable_psi(pt.x_hat, x, lam).sum())
            assert value - least <= pt.inner_tol + 1e-12 * (1.0 + abs(value)), (x, lam, warm)


def test_separable_reference_agrees_with_the_grid():
    # two references that share no code: the exact least value lies below
    # the grid point's value, by at most the grid's gap
    p = separable_problem(2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2.5, 2.5, 2)
        lam = rng.uniform(0.2, 0.9) / p.rho
        z, least = separable_prox(x, lam)
        ref = moreau_grid_oracle(p, x, lam)
        value = float(separable_psi(ref.x_hat, x, lam).sum())
        assert least <= value <= least + ref.inner_tol
        assert separable_psi(z, x, lam).sum() == least
