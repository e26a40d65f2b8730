"""Invariant suites behind the CLI `check` subcommand.

Each suite returns CheckResult records; the CLI prints one line per record
and exits nonzero when anything failed.  The suites are also imported by
the tests, so the CLI gate and the pytest gate certify the same facts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .moreau import moreau_prox
from .problems import default_x0, problem_from_id
from .prox import (
    ProxFriendly,
    ball_indicator,
    box_indicator,
    l1_regularizer,
    quadratic_regularizer,
    zero_regularizer,
)
from .core import (
    OracleReport,
    check_hypomonotonicity,
    check_oracle_unbiasedness,
    check_second_moment,
    check_weak_convexity,
    row_dots,
)
from .solver import StepSchedule, run_psgm, sample_tstar

CERTIFICATION_IDS = (
    "phase_retrieval:50:10:0",
    "robust_regression:40:2:1",
    "smooth_ls:60:5:2",
    "toy1d:abs",
    "toy1d:absquad",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _prox_zoo(d: int) -> list[tuple[str, ProxFriendly]]:
    return [
        ("zero", zero_regularizer()),
        ("box", box_indicator(-1.5, 2.0)),
        ("ball", ball_indicator(np.zeros(d), 1.3)),
        ("l1", l1_regularizer(0.7)),
        ("quadratic", quadratic_regularizer(0.4, np.full(d, 0.2))),
    ]


def check_prox_nonexpansive(
    n_pairs: int = 10_000, d: int = 4, seed: int = 0
) -> list[CheckResult]:
    """||prox(x) - prox(y)|| <= ||x - y|| up to 1e-12 slack, all kinds."""
    rng = np.random.default_rng(seed)
    out = []
    for name, reg in _prox_zoo(d):
        xs = 3.0 * rng.standard_normal((n_pairs, d))
        ys = 3.0 * rng.standard_normal((n_pairs, d))
        D = xs - ys
        rhs = np.sqrt(row_dots(D, D))
        worst = -math.inf
        for a in (1e-3, 1.0, 1e3):
            P = reg.prox(xs, a) - reg.prox(ys, a)
            worst = max(worst, float(np.max(np.sqrt(row_dots(P, P)) - rhs)))
        out.append(
            CheckResult(
                name=f"prox_nonexpansive[{name}]",
                passed=worst <= 1e-12,
                detail=f"max overshoot {worst:.2e} over {n_pairs} pairs x 3 alphas",
            )
        )
    return out


def check_prox_optimality(
    n_points: int = 20, n_competitors: int = 1_000, d: int = 4, seed: int = 1
) -> list[CheckResult]:
    """prox minimizes r(u) + ||u - x||^2 / (2 alpha) among sampled feasible u."""
    rng = np.random.default_rng(seed)
    out = []
    for name, reg in _prox_zoo(d):
        worst = -math.inf
        for _ in range(n_points):
            x = 3.0 * rng.standard_normal(d)
            alpha = float(10.0 ** rng.uniform(-2, 2))
            comp = 2.0 * rng.standard_normal((n_competitors, d))
            # the prox point (row 0) shares its competitors' expression: a tie reads 0
            us = np.vstack([reg.prox(x, alpha), reg.project_domain(comp)])
            D = us - x
            f = reg.value(us) + row_dots(D, D) / (2 * alpha)
            worst = max(worst, float(np.max(f[0] - f[1:])))
        out.append(
            CheckResult(
                name=f"prox_optimality[{name}]",
                passed=worst <= 1e-10,
                detail=f"max objective excess {worst:.2e}",
            )
        )
    return out


def check_certifications() -> list[CheckResult]:
    """Weak convexity (seed 2) and hypomonotonicity (seed 3) over 1000 pairs
    on every shipped benchmark family."""
    out = []
    for pid in CERTIFICATION_IDS:
        problem = problem_from_id(pid)
        radius = (problem.domain_diameter or 4.0) / 2.0
        wc = check_weak_convexity(problem, 1_000, radius, np.random.default_rng(2))
        hm = check_hypomonotonicity(problem, 1_000, radius, np.random.default_rng(3))
        out.append(
            CheckResult(
                name=f"weak_convexity[{pid}]",
                passed=not wc.violated,
                detail=f"max violation {wc.max_violation:.2e} (tol {wc.tolerance:.1e})",
            )
        )
        out.append(
            CheckResult(
                name=f"hypomonotonicity[{pid}]",
                passed=not hm.violated,
                detail=f"max violation {hm.max_violation:.2e} (tol {hm.tolerance:.1e})",
            )
        )
    return out


def oracle_reports() -> list[tuple[str, OracleReport]]:
    """The unbiasedness report (seed 3) of each oracle family at its default
    start, followed by its second-moment report (seed 4) when it certifies
    L, by problem id."""
    out = []
    for pid in ("phase_retrieval:50:10:0", "robust_regression:40:2:1", "smooth_ls:60:5:2"):
        problem = problem_from_id(pid)
        x = default_x0(problem)
        out.append((pid, check_oracle_unbiasedness(problem, x, np.random.default_rng(3))))
        if problem.lipschitz_L is not None:
            out.append((pid, check_second_moment(problem, np.random.default_rng(4))))
    return out


def check_oracles() -> list[CheckResult]:
    """Unbiasedness and second-moment certification per family."""
    labels = {
        "unbiasedness": ("oracle_unbiased", "repeats"),
        "second_moment": ("oracle_second_moment", "points"),
    }
    out = []
    for pid, rep in oracle_reports():
        name, unit = labels[rep.check]
        detail = f"{rep.n_passed}/{rep.n_repeats} {unit}, worst ratio {rep.worst_ratio:.2f}"
        out.append(CheckResult(name=f"{name}[{pid}]", passed=rep.passed, detail=detail))
    return out


def chi_square_pvalue(counts: np.ndarray, expected: np.ndarray | None = None) -> float:
    """Pearson chi-square p-value of ``counts`` against ``expected`` (uniform
    when None) over an even number of bins.

    Then the k = bins - 1 degrees of freedom are odd and the survival
    function has the closed form erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2)
    (1 + x/3 + x^2/(3*5) + ... + x^((k-3)/2)/(3*5*...*(k-2))).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size % 2:
        raise ValueError("closed-form chi-square needs an even number of bins")
    if expected is None:
        expected = np.full(counts.size, counts.mean())
    x = float(np.sum((counts - expected) ** 2 / expected))
    term, series = 1.0, 0.0
    for j in range(1, counts.size // 2):
        series += term
        term *= x / (2 * j + 1)
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(
        -x / 2.0
    ) * series


def check_tstar_distribution(n_draws: int = 100_000, seed: int = 4) -> list[CheckResult]:
    """Sampled return index matches the step-weight law (chi-square p >= 0.01)."""
    rng = np.random.default_rng(seed)
    ramp = np.arange(1, 11, dtype=float)
    out = []
    # a constant schedule gives the uniform law over 0..9, a ramp the law
    # proportional to the step sizes
    for name, alphas, expected in (
        ("tstar_uniform", np.full(10, 0.1), None),
        ("tstar_ramp", ramp, ramp / ramp.sum() * n_draws),
    ):
        counts = np.bincount(sample_tstar(alphas, rng, n_draws), minlength=10)
        p = chi_square_pvalue(counts, expected)
        out.append(
            CheckResult(
                name=name,
                passed=bool(p >= 0.01),
                detail=f"chi-square p={p:.4f} over {n_draws} draws",
            )
        )
    return out


def check_determinism() -> list[CheckResult]:
    """Bit-identical reruns: data generation, every run field, sweep CSV bytes."""
    out = []
    p1 = problem_from_id("phase_retrieval:30:6:7")
    p2 = problem_from_id("phase_retrieval:30:6:7")
    probe = np.linspace(-1, 1, 6)
    same_data = (
        p1.planted_point.tobytes() == p2.planted_point.tobytes()
        and p1.g_value(probe) == p2.g_value(probe)
        and p1.rho == p2.rho
    )
    out.append(CheckResult("regeneration_identical", same_data))

    x0 = default_x0(p1)
    sched = StepSchedule.constant(0.05, 200, rho_hat=2 * p1.rho)
    r1 = run_psgm(p1, x0, sched, np.random.default_rng([11, 200]))
    r2 = run_psgm(p2, x0, sched, np.random.default_rng([11, 200]))
    out.append(
        CheckResult(
            "trajectory_identical",
            all(
                np.asarray(getattr(r1, f.name)).tobytes()
                == np.asarray(getattr(r2, f.name)).tobytes()
                for f in fields(r1)
            ),
        )
    )

    import tempfile
    from pathlib import Path
    from .harness import ExperimentConfig, run_sweep

    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"s{i}.csv") for i in (0, 1)]
        blobs = []
        for path in paths:
            cfg = ExperimentConfig(
                problem_id="toy1d:absquad",
                horizons=(50, 100),
                gamma=0.2,
                n_seeds=2,
                inner_tol=1e-8,
                output=path,
                workers=2,
            )
            run_sweep(cfg, clock=lambda: 0.0)
            blobs.append(Path(path).read_bytes())
    out.append(CheckResult("sweep_csv_identical", blobs[0] == blobs[1]))
    return out


def check_envelope_basics() -> list[CheckResult]:
    """Cheap envelope sanity: hand value, defining inequalities, gradient form."""
    out = []
    abs1 = problem_from_id("toy1d:abs")
    pt = moreau_prox(abs1, np.array([0.5]), 1.0, 1e-12)
    hand_ok = abs(pt.envelope_value - 0.125) <= 1e-10 and abs(float(pt.x_hat[0])) <= 1e-10
    out.append(
        CheckResult(
            "envelope_hand_value",
            hand_ok,
            f"value {pt.envelope_value:.12f}, minimizer {pt.x_hat[0]:.2e}",
        )
    )

    rng = np.random.default_rng(5)
    worst = -math.inf
    for pid in ("toy1d:absquad", "phase_retrieval:20:4:3", "robust_regression:30:2:4"):
        problem = problem_from_id(pid)
        lam = 1.0 / (2 * problem.rho) if problem.rho > 0 else 0.5
        for _ in range(4):
            x = problem.regularizer.project_domain(rng.uniform(-1.5, 1.5, problem.dim))
            p = moreau_prox(problem, x, lam, 1e-9)
            grad_gap = float(
                np.linalg.norm(p.envelope_grad - (x - p.x_hat) / lam)
            )
            worst = max(
                worst,
                p.envelope_value - problem.phi(x),
                problem.phi(p.x_hat) - problem.phi(x),
                grad_gap,
            )
    out.append(
        CheckResult(
            "envelope_inequalities",
            worst <= 1e-9,
            f"max violation {worst:.2e} across sampled anchors",
        )
    )
    return out


def run_all_checks(progress=None) -> list[CheckResult]:
    """Execute every suite; optionally report (name, seconds) as suites finish."""
    suites = (
        check_prox_nonexpansive,
        check_prox_optimality,
        check_certifications,
        check_oracles,
        check_tstar_distribution,
        check_determinism,
        check_envelope_basics,
    )
    results: list[CheckResult] = []
    for suite in suites:
        start = time.perf_counter()
        results.extend(suite())
        if progress is not None:
            progress(suite.__name__, time.perf_counter() - start)
    return results
