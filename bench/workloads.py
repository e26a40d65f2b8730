"""The benchmark's workloads: inputs from a seed, one pass of work, checks.

Each workload builds its inputs from ``--seed`` in ``setup`` and then runs
identical passes.  A pass reports one latency per item (a sweep trial, a
finite-difference point, or a check suite), one outcome per attempted
operation, the seeded outputs that go into the digest, and whether the
correctness gate held.  Seed 0 reproduces the acceptance-test instances;
other seeds shift every instance seed and the finite-difference anchors.
The library only ever receives generated problem ids and points.

BENCHMARK.json lists only the workloads whose cost does not depend on the
seed's instance.  In ``rate_phase_retrieval`` and ``envelope_fd_tight`` an
envelope solve needs 3-5x the usual number of QP calls at some points, so
their wall time moves by 15-20% between seeds; they stay here for
per-layer profiling of the envelope oracle on the criterion-01 and
criterion-05 shapes.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from proxsgm import checks, harness
from proxsgm.core import sample_domain_points
from proxsgm.moreau import InnerAccuracyError, envelope_grad_fd_check
from proxsgm.problems import default_x0, problem_from_id

from tracer import trace_problem


@dataclasses.dataclass
class PassResult:
    item_ms: dict            # item key -> latency in ms
    outcomes: list[bool]     # one per attempted operation, True if it succeeded
    outputs: list            # seeded outputs, hashed into the digest
    gate_ok: bool
    notes: dict              # printed, never gated


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, 1e3 * (time.perf_counter() - t0)


def _build(problem_ids: list[str], timing: dict) -> list:
    """Build problems and their default starts, recording both latencies."""
    problems = []
    for pid in problem_ids:
        problem, ms = _timed(problem_from_id, pid)
        timing.setdefault("build_ms", []).append(ms)
        _, ms = _timed(default_x0, problem)
        timing.setdefault("x0_ms", []).append(ms)
        problems.append(problem)
    return problems


class Sweep:
    """`run_sweep` over one horizon grid on the instance ``family:seed+offset``."""

    inner_tol = 1e-6

    def __init__(self, name, why, family, seed_offset, horizons, gamma, n_seeds):
        self.name, self.why = name, why
        self.family, self.seed_offset = family, seed_offset
        self.horizons, self.gamma, self.n_seeds = horizons, gamma, n_seeds

    def setup(self, seed: int, timing: dict):
        pid = f"{self.family}:{seed + self.seed_offset}"
        config = harness.ExperimentConfig(
            problem_id=pid,
            horizons=self.horizons,
            gamma=self.gamma,
            n_seeds=self.n_seeds,
            inner_tol=self.inner_tol,
            workers=1,
            output="",
        )
        return config, _build([pid], timing)[0]

    def n_items(self, state) -> int:
        return len(self.horizons) * self.n_seeds

    def run_pass(self, state, tracer=None) -> PassResult:
        config, problem = state
        if tracer is not None:
            problem = trace_problem(problem, tracer)
        # looked up on the module so the traced run sees its wrapper
        rep = harness.run_sweep(config, problem=problem)
        res = PassResult({}, [], [], True, {"slope": rep.slope})
        for row in rep.rows:
            res.item_ms[(row.T, row.seed)] = row.wall_ms
            res.outcomes.append(row.inner_tol_achieved <= config.inner_tol)
            res.outputs.append((row.T, row.seed, row.grad_norm_sq, row.oracle_calls))
        res.gate_ok = all(h.bound_satisfied for h in rep.per_horizon)
        return res


class EnvelopeFD:
    """`envelope_grad_fd_check` at h = 1e-4 and inner tol 1e-10 on sampled
    anchors: one cold envelope solve plus 2d warm-started ones per point."""

    name = "envelope_fd_tight"
    why = ("moreau layer alone at tight tolerance with warm starts; "
           "the solver does no work")
    h, inner_tol, max_rel_err = 1e-4, 1e-10, 1e-4

    def __init__(self, n_points):
        self.n_points = n_points  # per problem id, in id order

    def setup(self, seed: int, timing: dict):
        ids = [f"phase_retrieval:30:5:{seed + 4}", f"robust_regression:40:2:{seed + 1}"]
        state = []
        for k, problem in enumerate(_build(ids, timing)):
            lam = 1.0 / (2.0 * problem.rho) if problem.rho > 0 else 1.0
            rng = np.random.default_rng([7, seed, k])
            pts = sample_domain_points(
                problem, self.n_points[k], 0.5 * problem.domain_diameter, rng
            )
            state.append((ids[k], problem, lam, pts))
        return state

    def n_items(self, state) -> int:
        return sum(len(pts) for *_, pts in state)

    def run_pass(self, state, tracer=None) -> PassResult:
        res = PassResult({}, [], [], True, {"max_rel_err": 0.0})
        for pid, problem, lam, pts in state:
            if tracer is not None:
                problem = trace_problem(problem, tracer)
            for i, x in enumerate(pts):
                t0 = time.perf_counter()
                try:
                    err = envelope_grad_fd_check(
                        problem, x, lam, h=self.h, inner_tol=self.inner_tol
                    )
                except InnerAccuracyError:
                    err = None
                res.item_ms[(pid, i)] = 1e3 * (time.perf_counter() - t0)
                res.outcomes.append(err is not None)
                res.outputs.append((pid, i, err))
                if err is not None:
                    res.notes["max_rel_err"] = max(res.notes["max_rel_err"], err)
                    res.gate_ok &= err <= self.max_rel_err
        return res


class CheckSuite:
    """`checks.run_all_checks()`: what `proxsgm check` runs, without printing."""

    name = "check_suite"
    why = ("the seven invariant suites behind proxsgm check; "
           "the only workload on core certifications and all five prox kinds")

    def setup(self, seed: int, timing: dict):
        return None  # the suites fix their own seeds and build their own problems

    def n_items(self, state) -> int:
        return 32  # checks the seven suites return

    def run_pass(self, state, tracer=None) -> PassResult:
        suite_ms = {}

        def progress(name, seconds):
            suite_ms[name] = 1e3 * seconds

        results = checks.run_all_checks(progress=progress)
        return PassResult(
            item_ms=suite_ms,
            outcomes=[r.passed for r in results],
            outputs=[(r.name, r.passed) for r in results],
            gate_ok=all(r.passed for r in results),
            notes={"checks": len(results)},
        )


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "rate_phase_retrieval",
            "criterion-01 sweep shape: envelope solves at tol 1e-6 and the "
            "solver on a ball share the time",
            "phase_retrieval:50:10",
            seed_offset=0,
            horizons=(100, 1_000, 10_000),
            gamma="optimal",
            n_seeds=10,
        ),
        Sweep(
            "rate_smooth_ls_long",
            "solver-bound: the top horizon takes the truncated long-horizon "
            "path, the lower ones keep full trajectories",
            "smooth_ls:60:5",
            seed_offset=2,
            # (T + 2) * d exceeds solver.TRAJECTORY_CAP only at the top horizon
            horizons=(1_000, 10_000, 200_000),
            gamma=0.5,
            # bound_satisfied needs a confidence interval: two seeds at least
            n_seeds=2,
        ),
        EnvelopeFD(n_points=(10, 10)),
        CheckSuite(),
    )
}
