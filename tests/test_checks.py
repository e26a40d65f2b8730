"""Invariant suites: batched suites against per-row references, full run."""

import math

import numpy as np
import pytest
from scipy import stats

from proxsgm.checks import (
    CheckResult,
    _prox_zoo,
    _row_dots,
    check_prox_nonexpansive,
    check_prox_optimality,
    check_tstar_distribution,
    run_all_checks,
)
from proxsgm.solver import sample_tstar

# ----------------------------------------------- per-row reference suites
#
# The suites as they were written before they evaluated whole batches: one
# prox, projection, value and norm per row, one sample_tstar call per draw.


def reference_prox_nonexpansive(n_pairs, d, seed):
    rng = np.random.default_rng(seed)
    out = []
    for name, reg in _prox_zoo(d):
        xs = 3.0 * rng.standard_normal((n_pairs, d))
        ys = 3.0 * rng.standard_normal((n_pairs, d))
        worst = -math.inf
        for alpha in (1e-3, 1.0, 1e3):
            for x, y in zip(xs, ys):
                lhs = float(np.linalg.norm(reg.prox(x, alpha) - reg.prox(y, alpha)))
                rhs = float(np.linalg.norm(x - y))
                worst = max(worst, lhs - rhs)
        out.append(
            CheckResult(
                name=f"prox_nonexpansive[{name}]",
                passed=worst <= 1e-12,
                detail=f"max overshoot {worst:.2e} over {n_pairs} pairs x 3 alphas",
            )
        )
    return out


def reference_prox_optimality(n_points, n_competitors, d, seed):
    rng = np.random.default_rng(seed)
    out = []
    for name, reg in _prox_zoo(d):
        worst = -math.inf
        for _ in range(n_points):
            x = 3.0 * rng.standard_normal(d)
            alpha = float(10.0 ** rng.uniform(-2, 2))
            p = reg.prox(x, alpha)
            fp = reg.value(p) + float((p - x) @ (p - x)) / (2 * alpha)
            comp = 2.0 * rng.standard_normal((n_competitors, d))
            for z in comp:
                z = reg.project_domain(z)
                fz = reg.value(z) + float((z - x) @ (z - x)) / (2 * alpha)
                worst = max(worst, fp - fz)
        out.append(
            CheckResult(
                name=f"prox_optimality[{name}]",
                passed=worst <= 1e-10,
                detail=f"max objective excess {worst:.2e}",
            )
        )
    return out


def reference_tstar_distribution(n_draws, seed):
    rng = np.random.default_rng(seed)
    alphas = np.full(10, 0.1)
    counts = np.bincount([sample_tstar(alphas, rng) for _ in range(n_draws)], minlength=10)
    p_uni = stats.chisquare(counts).pvalue
    out = [
        CheckResult(
            name="tstar_uniform",
            passed=bool(p_uni >= 0.01),
            detail=f"chi-square p={p_uni:.4f} over {n_draws} draws",
        )
    ]
    alphas = np.arange(1, 11, dtype=float)
    expected = alphas / alphas.sum() * n_draws
    counts = np.bincount([sample_tstar(alphas, rng) for _ in range(n_draws)], minlength=10)
    p_ramp = stats.chisquare(counts, expected).pvalue
    out.append(
        CheckResult(
            name="tstar_ramp",
            passed=bool(p_ramp >= 0.01),
            detail=f"chi-square p={p_ramp:.4f} over {n_draws} draws",
        )
    )
    return out


# ------------------------------------------------------------ comparisons


@pytest.mark.parametrize("d", [1, 2, 4, 10, 33])
def test_row_dots_equal_one_dimensional_dots(d):
    # the suites' details are rounded to 3 digits; the sums they rest on
    # must match the per-row dots exactly
    rows = 3.0 * np.random.default_rng(d).standard_normal((2000, d))
    expected = np.array([float(r @ r) for r in rows])
    assert _row_dots(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 4, 7])
@pytest.mark.parametrize("seed", [0, 5])
def test_prox_nonexpansive_equals_per_row_reference(d, seed):
    assert check_prox_nonexpansive(50, d, seed) == reference_prox_nonexpansive(50, d, seed)


@pytest.mark.parametrize("d", [1, 4, 7])
@pytest.mark.parametrize("seed", [1, 6])
def test_prox_optimality_equals_per_row_reference(d, seed):
    got = check_prox_optimality(3, 40, d, seed)
    assert got == reference_prox_optimality(3, 40, d, seed)


@pytest.mark.parametrize("seed", [4, 9])
def test_tstar_distribution_equals_per_draw_reference(seed):
    assert check_tstar_distribution(2000, seed) == reference_tstar_distribution(2000, seed)


def test_run_all_checks_in_process():
    seen = []
    results = run_all_checks(progress=lambda name, secs: seen.append(name))
    assert len(seen) == 7
    assert len(results) == 32
    assert all(isinstance(r.passed, bool) for r in results)
    assert [r.name for r in results if not r.passed] == []
