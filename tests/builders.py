"""Builders only the tests use: an oracle that draws nothing, and the exact
minimum of a one-dimensional robust regression to check solvers against."""

from typing import Callable

import numpy as np

from proxsgm.core import CompositeProblem, StochasticOracle
from proxsgm.problems import _linear_data

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
