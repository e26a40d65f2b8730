"""Invariant suites: batched suites against per-row references, full run."""

import dataclasses
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from proxsgm.checks import (
    CERTIFICATION_IDS,
    CheckResult,
    _prox_zoo,
    check_determinism,
    check_oracles,
    check_prox_nonexpansive,
    check_prox_optimality,
    check_tstar_distribution,
    chi_square_pvalue,
    oracle_reports,
    run_all_checks,
)
from proxsgm.core import (
    OracleReport,
    ViolationReport,
    check_hypomonotonicity,
    check_oracle_unbiasedness,
    check_second_moment,
    check_weak_convexity,
    row_dots,
    sample_domain_points,
)
from proxsgm.problems import default_x0, make_phase_retrieval, problem_from_id
from proxsgm.solver import sample_tstar

# ----------------------------------------------- per-row reference suites
#
# The suites as they were written before they evaluated whole batches: one
# prox, projection, value and norm per row, one sample_tstar call per draw,
# one g_value and subgradient call per point of a certification pair, and
# per-row sums of squares for the oracle moments.


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


def _reference_pairs(problem, n_pairs, radius, rng):
    xs = sample_domain_points(problem, n_pairs, radius, rng)
    ys = sample_domain_points(problem, n_pairs, radius, rng)
    return xs, ys


def _reference_report(check, problem, n_pairs, gaps, xs, ys):
    worst = -math.inf
    worst_pair = None
    violated = False
    for gap, x, y in zip(gaps, xs, ys):
        tol = 1e-9 * (1.0 + abs(problem.g_value(y)))
        if gap > worst:
            worst, worst_pair = gap, (x, y)
        if gap > tol:
            violated = True
    tol_worst = 1e-9 * (1.0 + abs(problem.g_value(worst_pair[1])))
    return ViolationReport(check, n_pairs, worst, tol_worst, violated, worst_pair)


def reference_weak_convexity(problem, n_pairs, radius, rng):
    xs, ys = _reference_pairs(problem, n_pairs, radius, rng)
    gaps = []
    for x, y in zip(xs, ys):
        v = problem.g_full_subgradient(x)
        gaps.append(
            problem.g_value(x)
            + float(v @ (y - x))
            - 0.5 * problem.rho * float((y - x) @ (y - x))
            - problem.g_value(y)
        )
    return _reference_report("weak_convexity", problem, n_pairs, gaps, xs, ys)


def reference_hypomonotonicity(problem, n_pairs, radius, rng):
    xs, ys = _reference_pairs(problem, n_pairs, radius, rng)
    gaps = []
    for x, y in zip(xs, ys):
        v = problem.g_full_subgradient(x)
        w = problem.g_full_subgradient(y)
        gaps.append(-(float((v - w) @ (x - y)) + problem.rho * float((x - y) @ (x - y))))
    return _reference_report("hypomonotonicity", problem, n_pairs, gaps, xs, ys)


def reference_oracle_unbiasedness(problem, x, rng, n_samples=10_000, n_repeats=20):
    target = problem.g_full_subgradient(x)
    n_passed, worst = 0, 0.0
    for _ in range(n_repeats):
        draws = problem.g_oracle.sample(x, problem.g_oracle.draw(rng, n_samples))
        mean = draws.mean(axis=0)
        spread = float(np.sqrt(np.mean(np.sum((draws - mean) ** 2, axis=1))))
        ratio = float(np.linalg.norm(mean - target)) / (5.0 * spread / math.sqrt(n_samples))
        worst = max(worst, ratio)
        n_passed += ratio <= 1.0
    passed = n_passed >= math.ceil(0.95 * n_repeats)
    return OracleReport("unbiasedness", n_repeats, n_passed, worst, passed)


def reference_second_moment(problem, rng, n_points=100, n_samples=4_000):
    pts = sample_domain_points(problem, n_points, problem.domain_diameter or 2.0, rng)
    bound = 1.1 * problem.lipschitz_L**2
    n_passed, worst = 0, 0.0
    for x in pts:
        draws = problem.g_oracle.sample(x, problem.g_oracle.draw(rng, n_samples))
        est = float(np.mean(np.sum(draws**2, axis=1)))
        worst = max(worst, est / bound)
        n_passed += est <= bound
    return OracleReport("second_moment", n_points, n_passed, worst, n_passed == n_points)


# ------------------------------------------------------------ comparisons


@pytest.mark.parametrize("d", [1, 2, 4, 10, 33])
def test_row_dots_equal_one_dimensional_dots(d):
    # the suites' details are rounded to 3 digits; the sums they rest on
    # must match the per-row dots exactly
    rng = np.random.default_rng(d)
    rows = 3.0 * rng.standard_normal((2000, d))
    others = rng.standard_normal((2000, d))
    expected = np.array([float(r @ r) for r in rows])
    assert row_dots(rows, rows).tobytes() == expected.tobytes()
    expected = np.array([float(r @ o) for r, o in zip(rows, others)])
    assert row_dots(rows, others).tobytes() == expected.tobytes()
    assert float(row_dots(rows[0], others[0])) == float(rows[0] @ others[0])


# the certification ids at their declared modulus, plus an understated one
# (|x^2 - 1| is 2-weakly convex, not 0.1-weakly convex)
CERTIFICATION_CASES = [(pid, None) for pid in CERTIFICATION_IDS] + [("toy1d:absquad", 0.1)]


@pytest.mark.parametrize(
    "check, reference",
    [
        (check_weak_convexity, reference_weak_convexity),
        (check_hypomonotonicity, reference_hypomonotonicity),
    ],
    ids=["weak_convexity", "hypomonotonicity"],
)
@pytest.mark.parametrize("pid, rho", CERTIFICATION_CASES)
def test_certifications_equal_per_pair_reference(check, reference, pid, rho):
    problem = problem_from_id(pid)
    if rho is not None:
        problem = dataclasses.replace(problem, rho=rho)
    radius = (problem.domain_diameter or 4.0) / 2.0
    got = check(problem, 1_000, radius, np.random.default_rng(2))
    ref = reference(problem, 1_000, radius, np.random.default_rng(2))
    assert got.check == ref.check and got.n_pairs == ref.n_pairs
    assert got.violated == ref.violated
    if rho is not None:
        assert got.violated
    # one stack evaluates each pair as the point calls do: equal, not close
    assert got.max_violation == ref.max_violation
    assert got.tolerance == ref.tolerance
    assert got.worst_pair[0].tobytes() == ref.worst_pair[0].tobytes()
    assert got.worst_pair[1].tobytes() == ref.worst_pair[1].tobytes()


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


def _assert_same_oracle_report(got, ref):
    # the column sums and flat sums of squares add in another order than the
    # per-row sums, and the reference has no rounding floor: on these oracles,
    # whose spread is near their rms norm, the floor moves the ratio by under
    # 1e-10 relative
    assert (got.check, got.n_repeats) == (ref.check, ref.n_repeats)
    assert got.n_passed == ref.n_passed and got.passed == ref.passed
    assert got.worst_ratio == pytest.approx(ref.worst_ratio, rel=1e-9)


def test_oracle_reports_equal_per_row_reference():
    reports = oracle_reports()
    assert len(reports) == 5
    for pid, got in reports:
        problem = problem_from_id(pid)
        if got.check == "unbiasedness":
            ref = reference_oracle_unbiasedness(
                problem, default_x0(problem), np.random.default_rng(3)
            )
        else:
            ref = reference_second_moment(problem, np.random.default_rng(4))
        _assert_same_oracle_report(got, ref)


def test_oracle_moments_equal_per_row_reference_off_the_default_start():
    p = make_phase_retrieval(30, 4, 7)
    x = sample_domain_points(p, 1, 1.5, np.random.default_rng(3))[0]
    _assert_same_oracle_report(
        check_oracle_unbiasedness(p, x, np.random.default_rng(4)),
        reference_oracle_unbiasedness(p, x, np.random.default_rng(4)),
    )
    _assert_same_oracle_report(
        check_second_moment(p, np.random.default_rng(5)),
        reference_second_moment(p, np.random.default_rng(5)),
    )


def test_chi_square_pvalue_matches_scipy():
    rng = np.random.default_rng(21)
    pvalues = []
    for bins in (2, 4, 10):
        for spread in np.linspace(0.0, 4.0, 60):
            for uniform in (True, False):
                weights = np.ones(bins) if uniform else rng.uniform(0.5, 2.0, bins)
                mean = 1000.0 * weights / weights.mean()
                counts = np.maximum(
                    np.round(mean + spread * np.sqrt(mean) * rng.standard_normal(bins)), 0
                )
                expected = None if uniform else weights / weights.sum() * counts.sum()
                ref = stats.chisquare(counts, expected).pvalue
                if ref < 1e-6:
                    continue
                assert abs(chi_square_pvalue(counts, expected) - ref) <= 1e-12
                pvalues.append(ref)
    assert len(pvalues) >= 200 and min(pvalues) < 1e-3 and max(pvalues) > 0.99
    with pytest.raises(ValueError):
        chi_square_pvalue(np.ones(9))


def test_run_all_checks_in_process():
    seen = []
    results = run_all_checks(progress=lambda name, secs: seen.append(name))
    assert len(seen) == 7
    assert len(results) == 32
    assert all(isinstance(r.passed, bool) for r in results)
    assert [r.name for r in results if not r.passed] == []


# ------------------------------------------------------- one thread only


def test_determinism_suite_starts_no_thread(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    results = check_determinism()
    assert all(r.passed for r in results)
    assert started == []


def _other_thread_ticks() -> int:
    """utime + stime in clock ticks of every live thread but the caller."""
    me = str(threading.get_native_id())
    ticks = 0
    for task in Path("/proc/self/task").iterdir():
        if task.name == me:
            continue
        try:
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread exited meanwhile
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_oracle_suite_hands_no_work_to_other_threads():
    # a BLAS worker still spinning after earlier calls goes idle in the pause;
    # a threaded reduction of the (n, d) stacks would bill it again
    check_oracles()
    time.sleep(0.3)
    before = _other_thread_ticks()
    for _ in range(3):
        assert all(r.passed for r in check_oracles())
    assert _other_thread_ticks() - before <= 2
