"""Benchmark problem generators.

Four families, each returning an immutable :class:`CompositeProblem` with
certified constants:

* ``phase_retrieval``  -- g(x) = mean_i |<a_i, x>^2 - b_i|, ball constraint.
* ``robust_regression`` -- g(x) = mean_i |<a_i, x> - b_i|, box constraint.
* ``smooth_ls``        -- g(x) = ||Ax - b||^2 / (2m) with additive gradient
                          noise, box constraint.
* ``toy1d``            -- one-dimensional sanity problems ("abs", "absquad").

``phase_retrieval`` and ``robust_regression`` are finite sums built by
``_finite_sum`` from a loss and its one coefficient (``_PHASE``, ``_LAD``);
the two toys are one-term sums of the same two losses.  A draw is a row
index; a point call (a solver step) computes its row, a stack gathers
from the table of the m component subgradients.
A draw of ``smooth_ls`` is its Gaussian noise with the gradient's
constant folded in (see ``make_smooth_ls_noisy``).

Generators take a nonnegative integer seed and nothing else: a
``Generator``, a float or a bool raises ``TypeError`` and a negative seed
``ValueError``, before any draw.  Regeneration from the same
``(family, m, d, seed)`` is bit-identical, which is what makes the string
ids below ("family:m:d:seed") reproducible addresses.

A real-valued generator parameter that differs from its default rides on
the id as a keyed suffix: ``smooth_ls:m:d:seed:sigma=0.2``,
``robust_regression:m:d:seed:outliers=0.3``.

The g callables are batch-first (see :mod:`proxsgm.core`) and take every
matrix product through ``_matvec``: with the data matrix, or for
``smooth_ls`` with its precomputed Gram matrix H = A^T A / m.  So each row
of a stack is computed exactly as its point is: stacks match point calls
bit for bit.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .core import (
    ID_PARAMS,
    CompositeProblem,
    ProblemMeta,
    StochasticOracle,
    _in_range,
    point_value,
    row_dots,
)
from .prox import ball_indicator, box_indicator, zero_regularizer

Array = np.ndarray


def _matvec(M: Array, x: Array) -> Array:
    """``M @ x`` for a point, ``M @ x[i]`` in row i for an ``(n, k)`` stack.

    A point takes ``M.dot(x)``, the same BLAS gemv as ``M @ x`` without the
    ufunc dispatch of ``matmul``, which dominates at these sizes.  A stack is
    a stacked matrix-vector product, one gemv per row like the point's own;
    a single gemm (``x @ M.T``) would sum the rows in another order.
    """
    return M.dot(x) if x.ndim == 1 else (M @ x[:, :, None])[:, :, 0]


def _finite_sum(
    A: Array,
    b: Array,
    loss: Callable[[Array, Array], Array],
    coef: Callable[[Array, Array], Array],
    **fields,
) -> CompositeProblem:
    """g(x) = mean_i loss(<a_i, x>, b_i), with ``fields`` the rest of the problem.

    ``coef(<a_i, x>, b_i)``, a derivative of the loss in its first argument,
    is the one coefficient the selection A^T coef / m and the oracle read.
    A draw is a row index i.  A point call (a solver step) takes its row:
    one inner product and one scaling.  A stack takes the m component
    subgradients at x once, then one gather, so the oracle's mean is the
    selection up to the order of a sum.
    """
    m = len(b)

    def g_value(x: Array) -> float | Array:
        return point_value(np.mean(loss(_matvec(A, x), b), axis=-1))

    def g_full_subgradient(x: Array) -> Array:
        # + 0.0: a one-term point keeps a -0.0 that a stack's matmul sums to +0.0
        return _matvec(A.T, coef(_matvec(A, x), b)) / m + 0.0

    def draw(rng: np.random.Generator, n: int) -> Array:
        return rng.integers(m, size=n)

    def sample(x: Array, i: Array) -> Array:
        if i.ndim:
            return (coef(_matvec(A, x), b)[:, None] * A).take(i, axis=0)
        row = A[i]
        return coef(row.dot(x), b[i]) * row

    return CompositeProblem(
        dim=A.shape[1],
        g_oracle=StochasticOracle(sample=sample, draw=draw),
        g_value=g_value,
        g_full_subgradient=g_full_subgradient,
        **fields,
    )


# (loss, coef) of each finite sum, y = <a_i, x>: least absolute deviations
# and the quadratic measurements of phase retrieval
_LAD = (lambda y, b: np.abs(y - b), lambda y, b: np.sign(y - b))
_PHASE = (lambda y, b: np.abs(y**2 - b), lambda y, b: 2.0 * np.sign(y**2 - b) * y)


def _phase_retrieval_data(m: int, d: int, rng: np.random.Generator):
    A = rng.standard_normal((m, d))
    x_sharp = rng.standard_normal(d)
    x_sharp /= np.linalg.norm(x_sharp)
    b = (A @ x_sharp) ** 2
    return A, x_sharp, b


def _spectral_start(A: Array, b: Array) -> Array:
    """Leading eigenvector of the measurement-weighted covariance.

    Classical initializer for quadratic measurements: the top eigenvector
    of (1/m) sum_i b_i a_i a_i^T correlates with the planted direction,
    and sqrt(mean b) estimates its norm.  The sign is fixed by the largest
    entry so the start is deterministic.
    """
    cov = (A.T * b) @ A / len(b)
    _, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    v = v * np.sign(v[np.argmax(np.abs(v))])
    return v * min(float(np.sqrt(b.mean())), 2.0)


def make_phase_retrieval(m: int, d: int, seed: int) -> CompositeProblem:
    """Real phase retrieval with a planted unit signal.

    Rows a_i are standard Gaussian, b_i = <a_i, x_sharp>^2, and
    g(x) = mean_i |<a_i, x>^2 - b_i|.  The constraint is the Euclidean ball
    of radius 2, which contains the signal.  Certified constants:
    rho = 2 * max_i ||a_i||^2 and the oracle norm bound
    L = 2 * radius * max_i ||a_i||^2.  Starts at the spectral estimate of
    the signal from these A and b.
    """
    _in_range("(m, d)", (m, d), 1, ends="[)")
    # built first: it checks the seed before any data is drawn
    meta = ProblemMeta("phase_retrieval", m, d, seed)
    A, x_sharp, b = _phase_retrieval_data(m, d, np.random.default_rng(seed))
    radius = 2.0
    row_sq = np.sum(A**2, axis=1)
    rho = 2.0 * float(np.max(row_sq))
    L = 2.0 * radius * float(np.max(row_sq))

    return _finite_sum(
        A, b, *_PHASE, regularizer=ball_indicator(np.zeros(d), radius), rho=rho, lipschitz_L=L,
        domain_diameter=2.0 * radius, planted_point=x_sharp, x0=_spectral_start(A, b), meta=meta,
    )


def _linear_data(
    rng: np.random.Generator, m: int, d: int, outlier_fraction: float
) -> tuple[Array, Array, Array]:
    """Gaussian A, x_sharp ~ U[-0.5, 0.5]^d, b = A x_sharp plus outlier noise."""
    A = rng.standard_normal((m, d))
    x_sharp = rng.uniform(-0.5, 0.5, size=d)
    b = A @ x_sharp
    n_out = int(np.ceil(outlier_fraction * m)) if outlier_fraction > 0 else 0
    if n_out:
        idx = rng.choice(m, size=n_out, replace=False)
        b[idx] += rng.normal(0.0, 10.0, size=n_out)
    return A, b, x_sharp


def make_robust_regression(
    m: int, d: int, seed: int, outlier_fraction: float = ID_PARAMS["robust_regression"].default
) -> CompositeProblem:
    """Least absolute deviations with sparse outliers in the responses.

    g(x) = mean_i |<a_i, x> - b_i| with Gaussian rows, b = A x_sharp plus
    large noise on a ceil(outlier_fraction * m) subset.  Convex (rho = 0),
    L = max_i ||a_i||, box constraint [-2, 2]^d with the signal interior.
    Starts at the midpoint of the upper box corner, (1, ..., 1).
    """
    _in_range("(m, d)", (m, d), 1, ends="[)")
    # built first: it checks the seed and the fraction before any data is drawn
    meta = ProblemMeta("robust_regression", m, d, seed, outlier_fraction=float(outlier_fraction))
    A, b, x_sharp = _linear_data(np.random.default_rng(seed), m, d, outlier_fraction)
    L = float(np.max(np.linalg.norm(A, axis=1)))

    lo, hi = -2.0 * np.ones(d), 2.0 * np.ones(d)
    return _finite_sum(
        A, b, *_LAD, regularizer=box_indicator(lo, hi), rho=0.0, lipschitz_L=L, x0=0.5 * hi,
        domain_diameter=float(np.linalg.norm(hi - lo)), planted_point=x_sharp, meta=meta,
    )


def make_smooth_ls_noisy(m: int, d: int, sigma: float, seed: int) -> CompositeProblem:
    """Least squares with an exact-gradient-plus-Gaussian-noise oracle.

    g(x) = ||Ax - b||^2 / (2m); the oracle returns grad g(x) + sigma * w with
    w standard normal, so the certified variance constant is sigma * sqrt(d).
    rho = lambda_max(H) is the gradient Lipschitz constant, where
    H = A^T A / m is the Hessian.  The gradient is taken in Gram form,
    H x - c with c = A^T b / m: one d x d product per point instead of two
    m x d ones and a division.  The oracle is the affine map H x + xi with
    xi = sigma * w - c ~ N(-c, sigma^2 I): ``draw`` folds the constant into
    each chunk of noise with one vectorised subtraction, so a solver step
    pays one gemv and one add.  At sigma = 0 a draw is exactly -c and a
    sample equals ``g_full_subgradient`` bit for bit.  The value keeps the
    residual form, which does not cancel near the minimum.  Starts at 0.
    """
    _in_range("(m, d)", (m, d), 1, ends="[)")
    # built first: it checks the seed and sigma before any data is drawn
    meta = ProblemMeta(family="smooth_ls", m=m, d=d, seed=seed, sigma=float(sigma))
    A, b, x_sharp = _linear_data(np.random.default_rng(seed), m, d, 0.0)
    H = A.T @ A / m
    c = A.T @ b / m
    rho = float(np.linalg.eigvalsh(H)[-1])

    def g_value(x: Array) -> float | Array:
        resid = _matvec(A, x) - b
        return point_value(row_dots(resid, resid) / (2.0 * m))

    def g_gradient(x: Array) -> Array:
        return _matvec(H, x) - c

    def draw(rng: np.random.Generator, n: int) -> Array:
        # scaled and shifted in place: one (n, d) array per chunk
        xi = rng.standard_normal((n, d))
        xi *= sigma
        xi -= c
        return xi

    def sample(x: Array, xi: Array) -> Array:
        return _matvec(H, x) + xi

    lo, hi = -2.0 * np.ones(d), 2.0 * np.ones(d)
    return CompositeProblem(
        dim=d,
        g_oracle=StochasticOracle(sample=sample, draw=draw),
        regularizer=box_indicator(lo, hi),
        rho=rho,
        g_value=g_value,
        g_full_subgradient=g_gradient,
        sigma=sigma * float(np.sqrt(d)),
        domain_diameter=float(np.linalg.norm(hi - lo)),
        smooth=True,
        planted_point=x_sharp,
        x0=np.zeros(d),
        meta=meta,
    )


def make_toy1d(kind: str) -> CompositeProblem:
    """One-dimensional test problems with known structure.

    ``"abs"``:     g(x) = |x|, r == 0, convex, L = 1.
    ``"absquad"``: g(x) = |x^2 - 1| on [-2, 2], rho = 2, L = 4.

    Each is a one-term finite sum with a = 1: "abs" is robust regression's
    loss at b = 0, "absquad" phase retrieval's at b = 1.  A draw takes no
    variates.  "abs" starts at 0.5, "absquad" at 1.8.
    """
    meta = ProblemMeta(family="toy1d", m=0, d=1, seed=0, detail=kind)
    if kind == "abs":
        return _finite_sum(
            np.ones((1, 1)), np.zeros(1), *_LAD, regularizer=zero_regularizer(),
            rho=0.0, lipschitz_L=1.0, x0=np.array([0.5]), meta=meta,
        )
    if kind == "absquad":
        return _finite_sum(
            np.ones((1, 1)), np.ones(1), *_PHASE, regularizer=box_indicator(-2.0, 2.0),
            rho=2.0, lipschitz_L=4.0, domain_diameter=4.0, x0=np.array([1.8]), meta=meta,
        )
    raise ValueError(f"unknown toy kind {kind!r}")


# The integer fields of a seeded id, with the least value each may take
_ID_INTS = (("m", 1), ("d", 1), ("seed", 0))


def _id_int(problem_id: str, name: str, least: int, text: str) -> int:
    """The integer field ``name`` of ``problem_id``; a ``ValueError`` naming the
    id and the field when ``text`` is not a decimal integer or is below ``least``."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"problem id {problem_id!r}: {name} must be an integer, got {text!r}")
    value = int(text)
    if value < least:
        raise ValueError(
            f"problem id {problem_id!r}: {name} must be at least {least}, got {value}"
        )
    return value


def problem_from_id(problem_id: str) -> CompositeProblem:
    """Build a problem from its string address.

    ``phase_retrieval:m:d:seed``, ``robust_regression:m:d:seed`` and
    ``smooth_ls:m:d:seed`` regenerate data deterministically from the seed;
    ``toy1d:abs`` and ``toy1d:absquad`` take no size arguments.  The
    family's ``ID_PARAMS`` suffix (``:sigma=`` for smooth_ls, ``:outliers=``
    for robust_regression) sets that parameter; without it the default
    applies.  The inverse of ``ProblemMeta.problem_id``.  A ``ValueError``
    names the id and the bad field when m, d or seed is not a decimal
    integer, m or d is below 1, or the seed is negative.
    """
    parts = problem_id.strip().split(":")
    family = parts[0]
    if family == "toy1d":
        if len(parts) != 2:
            raise ValueError("toy1d ids look like 'toy1d:abs' or 'toy1d:absquad'")
        return make_toy1d(parts[1])
    if len(parts) not in (4, 5):
        raise ValueError(f"malformed problem id {problem_id!r}; expected family:m:d:seed")
    m, d, seed = (
        _id_int(problem_id, name, least, text)
        for (name, least), text in zip(_ID_INTS, parts[1:4])
    )
    param = ID_PARAMS.get(family)
    value = None if param is None else param.default
    if len(parts) == 5:
        key, sep, text = parts[4].partition("=")
        if param is None or not sep or key != param.key:
            raise ValueError(f"unknown suffix {parts[4]!r} in problem id {problem_id!r}")
        value = float(text)
    if family == "phase_retrieval":
        return make_phase_retrieval(m, d, seed)
    if family == "robust_regression":
        return make_robust_regression(m, d, seed, value)
    if family == "smooth_ls":
        return make_smooth_ls_noisy(m, d, value, seed)
    raise ValueError(f"unknown problem family {family!r}")


def default_x0(problem: CompositeProblem) -> Array:
    """A copy of the start ``problem.x0`` its factory states, or the
    projection of the origin onto dom r for a problem without one."""
    if problem.x0 is None:
        return problem.regularizer.project_domain(np.zeros(problem.dim))
    return np.array(problem.x0, dtype=float)
