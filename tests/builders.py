"""Builders only the tests use: an oracle that draws nothing, the exact
minimum of a one-dimensional robust regression to check solvers against,
and a shipped instance under a regularizer that is no indicator."""

import dataclasses
from typing import Callable

import numpy as np

from proxsgm.core import CompositeProblem, StochasticOracle
from proxsgm.problems import _linear_data, problem_from_id
from proxsgm.prox import l1_regularizer

Array = np.ndarray


def no_draws(rng: np.random.Generator, n: int) -> Array:
    """Randomness of a deterministic oracle: n empty rows, no variates."""
    return np.empty((n, 0))


def deterministic_oracle(subgradient: Callable[[Array], Array]) -> StochasticOracle:
    """Oracle that returns the subgradient selection itself and draws nothing."""

    def sample(x: Array, w: Array) -> Array:
        v = subgradient(x)
        return v if w.ndim == 1 else np.tile(v, (len(w), 1))

    return StochasticOracle(sample=sample, draw=no_draws)


# the instance `with_l1` puts under 0.1 ||x||_1
L1_BASE = "robust_regression:40:2:1"


def with_l1(base: CompositeProblem | None = None, rho: float = 0.5) -> CompositeProblem:
    """``base`` (default `L1_BASE`) with r = 0.1 ||x||_1 and the declared modulus
    rho, so its row is ProximalThm26.  Its g is convex, so every rho >= 0 is a
    valid modulus; dom r is the whole space, so it has no diameter."""
    base = problem_from_id(L1_BASE) if base is None else base
    return dataclasses.replace(base, regularizer=l1_regularizer(0.1), rho=rho,
                               domain_diameter=None)


def exact_min_1d_robust_regression(problem: CompositeProblem) -> tuple[float, float]:
    """Exact minimizer and value of a one-dimensional robust regression.

    mean_i |a_i x - b_i| restricted to the box is piecewise linear; the
    minimum sits at a breakpoint b_i / a_i or a box endpoint, so scanning
    the breakpoints is exact.  The data is regenerated from the instance's
    meta, outlier fraction included.
    """
    meta = problem.meta
    if meta is None or meta.family != "robust_regression" or problem.dim != 1:
        raise ValueError("exact minimum only for 1-D robust regression")
    A, b, _ = _linear_data(np.random.default_rng(meta.seed), meta.m, meta.d, meta.outlier_fraction)
    r = problem.regularizer
    lo, hi = float(r.lo[0]), float(r.hi[0])
    candidates = [lo, hi]
    a = A[:, 0]
    nz = np.abs(a) > 0
    candidates.extend(np.clip(b[nz] / a[nz], lo, hi).tolist())
    vals = [problem.g_value(np.array([c])) for c in candidates]
    k = int(np.argmin(vals))
    return candidates[k], vals[k]
