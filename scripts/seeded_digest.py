#!/usr/bin/env python3
"""Print one short sha256 per seeded output area of the library.

A refactor that claims bit-identical outputs runs this script on the tree
before and after the change and compares the printed lines:

    python3 scripts/seeded_digest.py

Areas (every input is fixed here, so the digests depend only on the code):

* ``run_psgm``: every ``RunResult`` field of seeded runs on five families,
  and every ``AveragedRun`` field of ``run_averaged`` on the same inputs.
* ``moreau_prox`` / ``moreau_grid_oracle``: proximal point, envelope value
  and gradient, certificate and gap at sampled anchors; the grid is the
  reference in ``tests/reference.py``.
* ``run_sweep``: every row and per-horizon statistic of small sweeps.
* ``boost``: the outputs of ``two_stage_convex``, ``strongly_convex_stage``
  and ``regularized_pipeline`` on one small convex instance.
* ``check_details``: the verdict and detail line of every ``proxsgm check``
  result.
* ``prox_subdiff``: the generator arrays and the nearest-element
  projection of the subdifferential of every regularizer kind at d in
  {1, 2, 4, 7}, on box faces (one box pins a coordinate, lo == hi), l1
  kinks and on, near and inside the ball, at activity tolerances 0 and
  1e-8.  Generator rows are read through ``np.array(G, float)``, so a
  list of rows hashes like a 2-D array, and ``+ 0.0`` makes zeros positive.
* ``oracle_checks``: every field, at full precision, of the Monte-Carlo
  oracle reports behind ``check_oracles``, whose detail lines show the
  worst ratios to two decimals only.
* ``stationarity``: every ``stationarity_report`` field, the exact distance
  of zero to the subdifferential included, at sampled anchors of every
  one-dimensional family.
* ``problems``: each family's start (``default_x0``), planted point and
  constants, and ``g_value`` and ``g_full_subgradient`` on a fixed
  ``(7, d)`` probe stack, for both toy kinds and, at two seeds each, every
  seeded family with and without its id suffix.
* ``bounds``: ``theoretical_bound`` of all five variants over a fixed grid
  of (delta, rho, rho_hat, L, sigma, gamma, T), T up to 10**12, with the
  error type in place of the value where a variant refuses its inputs, and
  the error type of each ``BoundInputs`` refused at construction.
* ``descent_lemma``: every ``LemmaReport`` field and the verdict of
  ``check_descent_lemma`` at the 50 anchors of acceptance criterion 03 (ten
  per benchmark family, rho_hat = 2 rho or 1, alpha = 1/(2 rho_hat),
  100 000 draws) at its seeds.

Takes a few seconds on one core.
"""

import dataclasses
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# the grid reference the tests own, tests/reference.py
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

from proxsgm import solver  # noqa: E402
from proxsgm.boost import (  # noqa: E402
    RegularizedProblem,
    regularized_pipeline,
    strongly_convex_stage,
    two_stage_convex,
)
from proxsgm.checks import oracle_reports, run_all_checks  # noqa: E402
from proxsgm.core import sample_domain_points  # noqa: E402
from proxsgm.harness import (  # noqa: E402
    BoundInputs,
    ExperimentConfig,
    run_sweep,
    theoretical_bound,
)
from proxsgm.moreau import moreau_prox, stationarity_report  # noqa: E402
from proxsgm.problems import default_x0, problem_from_id  # noqa: E402
from proxsgm.prox import (  # noqa: E402
    ProxKind,
    ball_indicator,
    box_indicator,
    l1_regularizer,
    quadratic_regularizer,
    zero_regularizer,
)
from reference import GridSpec, moreau_grid_oracle  # noqa: E402

FAMILIES = (
    "phase_retrieval:30:4:3",
    "robust_regression:40:2:1",
    "smooth_ls:30:3:2",
    "toy1d:abs",
    "toy1d:absquad",
)
# dim <= 2 instances for the grid oracle
GRID_IDS = (
    "toy1d:abs",
    "toy1d:absquad",
    "robust_regression:20:1:5",
    "robust_regression:40:2:1",
    "phase_retrieval:20:2:3",
    "smooth_ls:30:2:6",
)
# one-dimensional instances, where the report gives the exact distance
STATIONARITY_IDS = (
    "toy1d:abs",
    "toy1d:absquad",
    "robust_regression:20:1:3",
    "phase_retrieval:20:1:2",
    "smooth_ls:20:1:4",
)
# the instances whose start and data the problems area hashes
PROBLEM_IDS = ("toy1d:abs", "toy1d:absquad") + tuple(
    f"{base}:{seed}{suffix}"
    for base, suffix in (
        ("phase_retrieval:30:4", ""),
        ("robust_regression:40:3", ""),
        ("robust_regression:40:3", ":outliers=0.3"),
        ("smooth_ls:30:3", ""),
        ("smooth_ls:30:3", ":sigma=0.2"),
    )
    for seed in (0, 5)
)
BOOST_ID = "robust_regression:40:2:1"  # convex, as the boost stages need
VARIANTS = ("ProjectedThm21", "ProximalThm26", "Cor22", "Cor27", "SmoothCor29")
# (delta, rho, rho_hat, L, sigma, gamma, T): admissible and refused corners
BOUND_GRID = (
    (0.0, 1.5),
    (0.0, 0.3, 2.0),
    (0.4, 1.0, 4.0),
    (0.5, 3.0),
    (0.2, 1.0),
    (0.01, 0.5, 40.0),
    (0, 1, 7, 10**9, 10**12),
)
# BoundInputs fields each refused at construction
BOUND_REFUSED = (
    ("delta", -1.0), ("delta", float("nan")), ("rho", float("inf")), ("rho_hat", -1.0),
    ("L", float("nan")), ("sigma", float("-inf")), ("gamma", 0.0), ("gamma", float("nan")),
    ("gamma", float("inf")), ("T", -1), ("T", True), ("T", 2.0), ("T", "3"),
)
# acceptance criterion 03's benchmark families, in its order
LEMMA_IDS = (
    "phase_retrieval:50:10:0",
    "robust_regression:40:2:1",
    "toy1d:abs",
    "toy1d:absquad",
    "smooth_ls:60:5:2",
)
SWEEPS = (  # id, horizons, gamma
    ("toy1d:absquad", (50, 100), 0.2),
    ("phase_retrieval:20:4:3", (20, 200), "optimal"),
    ("smooth_ls:30:3:2", (20, 200), 0.05),
)


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self.h.update(np.ascontiguousarray(item, dtype=float).tobytes())
            else:
                self.h.update(repr(item).encode())
            self.h.update(b"|")

    def short(self) -> str:
        return self.h.hexdigest()[:16]


def _envelope_lam(problem) -> float:
    return 1.0 / (2.0 * problem.rho) if problem.rho > 0 else 0.5


def _add_point(dig: Digest, pt) -> None:
    dig.add(pt.x_hat, pt.envelope_value, pt.envelope_grad, pt.zeta_hat, pt.inner_tol)


def digest_runs() -> str:
    dig = Digest()
    for k, pid in enumerate(FAMILIES):
        problem = problem_from_id(pid)
        x0 = default_x0(problem)
        for T in (0, 7, 300):
            sched = solver.StepSchedule.constant(0.05, T)
            for run_fn in (solver.run_psgm, solver.run_averaged):
                run = run_fn(problem, x0, sched, np.random.default_rng([k, T]))
                dig.add(pid, T, *(getattr(run, f.name) for f in dataclasses.fields(run)))
    return dig.short()


def digest_boost() -> str:
    dig = Digest()
    base = problem_from_id(BOOST_ID)
    out = two_stage_convex(base, 200, 1.0, np.random.default_rng(1))
    dig.add(out.result.t_star, out.result.x_star, out.result.oracle_calls, out.stage1_point,
            out.stage2_gamma)
    reg = RegularizedProblem(base, 0.5, np.zeros(base.dim))
    dig.add(strongly_convex_stage(reg, 200, np.random.default_rng(2)))
    pipe = regularized_pipeline(base, 0.5, 0.4, 200, np.random.default_rng(3))
    dig.add(pipe.z, pipe.x_reg_star, pipe.gamma, pipe.gap_estimate_R)
    return dig.short()


def digest_moreau_prox() -> str:
    dig = Digest()
    for k, pid in enumerate(FAMILIES):
        problem = problem_from_id(pid)
        lam = _envelope_lam(problem)
        radius = 0.5 * (problem.domain_diameter or 3.0)
        for x in sample_domain_points(problem, 3, radius, np.random.default_rng(k)):
            for tol in (1e-6, 1e-10):
                _add_point(dig, moreau_prox(problem, x, lam, tol))
    return dig.short()


def digest_grid_oracle() -> str:
    dig = Digest()
    grid = GridSpec(points_per_dim=201, n_refine=2)
    for k, pid in enumerate(GRID_IDS):
        problem = problem_from_id(pid)
        lam = _envelope_lam(problem)
        radius = 0.5 * (problem.domain_diameter or 3.0)
        for x in sample_domain_points(problem, 3, radius, np.random.default_rng(k)):
            _add_point(dig, moreau_grid_oracle(problem, x, lam, grid))
    return dig.short()


def digest_sweeps() -> str:
    dig = Digest()
    for pid, horizons, gamma in SWEEPS:
        config = ExperimentConfig(
            problem_id=pid, horizons=horizons, gamma=gamma, n_seeds=3, output=""
        )
        rep = run_sweep(config, clock=lambda: 0.0)
        dig.add(pid, rep.gamma, rep.rho_hat, rep.lam, rep.envelope_value_x0, rep.phi_best)
        for row in rep.rows:
            dig.add(row.T, row.seed, row.grad_norm_sq, row.phi_at_star,
                    row.oracle_calls, row.inner_tol_achieved)
        for h in rep.per_horizon:
            dig.add(h.T, h.mean, h.ci_half_width, h.bound_value, h.bound_satisfied)
        dig.add(rep.slope, rep.slope_stderr)
    return dig.short()


def digest_checks() -> str:
    dig = Digest()
    for r in run_all_checks():
        dig.add(r.name, r.passed, r.detail)
    return dig.short()


def digest_prox_subdiff() -> str:
    dig = Digest()
    for d in (1, 2, 4, 7):
        rng = np.random.default_rng([d, 17])
        pinned_lo, pinned_hi = np.full(d, -1.5), np.full(d, 2.0)
        pinned_lo[0] = pinned_hi[0] = 0.5
        regs = (
            zero_regularizer(),
            box_indicator(np.full(d, -1.5), np.full(d, 2.0)),
            box_indicator(pinned_lo, pinned_hi),
            ball_indicator(np.linspace(-0.5, 0.5, d), 1.3),
            l1_regularizer(0.7),
            quadratic_regularizer(0.4, np.full(d, 0.2)),
        )
        for reg in regs:
            for _ in range(20):
                x = reg.project_domain(2.0 * rng.standard_normal(d))
                pick = rng.random(d) < 0.5
                near = rng.choice([0.0, 5e-9, 1e-6], size=d)
                if reg.kind is ProxKind.BOX:
                    face = np.where(rng.random(d) < 0.5, reg.lo + near, reg.hi - near)
                    x = np.where(pick, face, x)
                elif reg.kind is ProxKind.BALL:
                    u = rng.standard_normal(d)
                    scale = rng.choice([1.0, 1.0 - 4e-9, 0.5]) * reg.radius
                    x = reg.center + scale * u / np.linalg.norm(u)
                elif reg.kind is ProxKind.L1:
                    x = np.where(pick, near * rng.choice([-1.0, 1.0], size=d), x)
                v = 3.0 * rng.standard_normal(d)
                for act_tol in (0.0, 1e-8):
                    fixed, G, lo, hi = reg.subdiff_generators(x, act_tol)
                    dig.add(reg.kind.value, d, act_tol, fixed + 0.0,
                            np.array(G, float).reshape(-1, d) + 0.0,
                            np.array(lo, float) + 0.0, np.array(hi, float),
                            reg.subdiff_project(x, v, act_tol) + 0.0)
    return dig.short()


def digest_oracle_checks() -> str:
    dig = Digest()
    for pid, rep in oracle_reports():
        dig.add(pid, rep.check, rep.n_repeats, rep.n_passed, rep.worst_ratio, rep.passed)
    return dig.short()


def digest_stationarity() -> str:
    dig = Digest()
    for pid in STATIONARITY_IDS:
        problem = problem_from_id(pid)
        lam = _envelope_lam(problem)
        for x in np.linspace(-2.5, 2.5, 21):
            for tol in (1e-6, 1e-10):
                rep = stationarity_report(moreau_prox(problem, np.array([x]), lam, tol), problem)
                dig.add(pid, rep.grad_norm, rep.grad_norm_sq, rep.exact_subdiff_dist)
    return dig.short()


def digest_problems() -> str:
    dig = Digest()
    for pid in PROBLEM_IDS:
        p = problem_from_id(pid)
        probes = np.random.default_rng([p.dim, 29]).uniform(-1.5, 1.5, (7, p.dim))
        dig.add(pid, default_x0(p), p.planted_point, p.rho, p.lipschitz_L, p.sigma,
                p.domain_diameter, p.g_value(probes), p.g_full_subgradient(probes))
    return dig.short()


def digest_bounds() -> str:
    dig = Digest()
    names = ("delta", "rho", "rho_hat", "L", "sigma", "gamma", "T")
    for values in itertools.product(*BOUND_GRID):
        inputs = BoundInputs(**dict(zip(names, values)))
        for variant in VARIANTS:
            try:
                dig.add(variant, values, theoretical_bound(variant, inputs))
            except ValueError as exc:
                dig.add(variant, values, type(exc).__name__)
    # a variant missing a constant it reads
    for variant in VARIANTS:
        try:
            dig.add(variant, theoretical_bound(variant, BoundInputs(delta=1.0, rho=1.0)))
        except ValueError as exc:
            dig.add(variant, type(exc).__name__)
    kw = dict(delta=1.0, rho=1.0, rho_hat=1.5, L=1.0, sigma=1.0, gamma=0.5, T=3)
    for name, bad in BOUND_REFUSED:
        try:
            BoundInputs(**{**kw, name: bad})
            dig.add(name, bad, "accepted")
        except ValueError as exc:
            dig.add(name, bad, type(exc).__name__)
    return dig.short()


def digest_descent_lemma() -> str:
    dig = Digest()
    for k, pid in enumerate(LEMMA_IDS):
        problem = problem_from_id(pid)
        rho_hat = 2.0 * problem.rho if problem.rho > 0 else 1.0
        radius = 0.5 * problem.domain_diameter if problem.domain_diameter else 2.0
        anchors = sample_domain_points(problem, 10, radius, np.random.default_rng([17, k]))
        for j, x in enumerate(anchors):
            rep = solver.check_descent_lemma(problem, x, rho_hat, 0.5 / rho_hat, 100_000,
                                             np.random.default_rng([23, k, j]), inner_tol=1e-10)
            dig.add(pid, j, *(getattr(rep, f.name) for f in dataclasses.fields(rep)), rep.violated)
    return dig.short()


def main() -> int:
    areas = (
        ("run_psgm", digest_runs),
        ("moreau_prox", digest_moreau_prox),
        ("moreau_grid_oracle", digest_grid_oracle),
        ("run_sweep", digest_sweeps),
        ("boost", digest_boost),
        ("check_details", digest_checks),
        ("prox_subdiff", digest_prox_subdiff),
        ("oracle_checks", digest_oracle_checks),
        ("stationarity", digest_stationarity),
        ("problems", digest_problems),
        ("bounds", digest_bounds),
        ("descent_lemma", digest_descent_lemma),
    )
    for name, fn in areas:
        print(f"{name:<20} {fn()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
