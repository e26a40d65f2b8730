"""Composite weakly convex problems and their standing-assumption checks.

A problem is min phi(x) = g(x) + r(x) where g is rho-weakly convex (adding
(rho/2)*||.||^2 makes it convex), accessed through a stochastic subgradient
oracle, and r is prox-friendly convex.  A problem's data comes from a
nonnegative integer seed, recorded in its id; every run draws from a
``numpy.random.Generator`` its caller passes or seeds.  Identical seeds give
bit-identical results.  Problem objects are immutable after construction.

The maps of a problem are batch-first, with one formula per family: a
``(d,)`` point gives a Python ``float`` value or a ``(d,)`` vector, an
``(n, d)`` stack gives ``(n,)`` values or ``(n, d)`` vectors.  That covers
``g_value``, ``g_full_subgradient``, ``ProxFriendly.value`` and the oracle:
``StochasticOracle.draw`` produces the randomness of many draws at once and
``StochasticOracle.sample`` maps one row of it, or all rows, to
subgradients.  The solver draws in chunks and samples one row per step;
the certifications below evaluate whole stacks of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .prox import ProxFriendly

Array = np.ndarray

# The largest length or coordinate the maps may square: squared norms such as
# ||x - center||^2 stay finite below it in any dimension under 1e8.
_LENGTH_MAX = 1e150


class CapabilityError(RuntimeError):
    """An operation needs an oracle this problem does not expose."""


def _in_range(name: str, v, lo=0.0, hi=math.inf, ends: str = "()", error=ValueError):
    """``v`` as a float (a list or array as a float array) once lo < v < hi,
    with <= at an end that ``ends`` closes ("[" or "]"); else ``error`` names
    ``name``, the range and the value, or an array's first bad entry.  The one
    range check of every public entry: NaN and an integer beyond the floats lie
    in no range, an infinite end is open, and None, a parameter left unset, passes."""
    if v is None:
        return None
    ends = ("(" if lo == -math.inf else ends[0]) + (")" if hi == math.inf else ends[1])
    arr = isinstance(v, (np.ndarray, list, tuple))
    try:
        a = np.asarray(v, dtype=float) if arr else float(v)
    except OverflowError:
        a, arr, v = math.nan, False, "an integer too large for a float"
    def within(b):
        return (lo < b if ends[0] == "(" else lo <= b) & (b < hi if ends[1] == ")" else b <= hi)
    # an array lies in range when its least and largest entries do, and a NaN
    # makes both NaN: no array-long temporary unless an entry is bad
    if (a.size == 0 or within(a.min()) and within(a.max())) if arr else within(a):
        return a
    ok = within(a)
    got = f"{a.flat[np.argmin(ok)]} at index {np.argmin(ok)}" if arr else v
    must = {(0, math.inf, "()"): "be finite and positive", (-math.inf, math.inf, "()"): "be finite",
            (0, math.inf, "[)"): "be finite and nonnegative"}
    must = must.get((lo, hi, ends), f"lie in {ends[0]}{lo}, {hi}{ends[1]}")
    raise error(f"{name} must {must}, got {got}")


def _integer(name: str, v, error=ValueError):
    """``v`` once it is an integer, Python's or numpy's; else ``error`` names
    ``name`` and the type.  A bool, a float or a str is refused, not rounded."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise error(f"{name} must be an integer, got {type(v).__name__}")
    return v


def _generator(rng_or_seed) -> np.random.Generator:
    """``np.random.default_rng(rng_or_seed)``; None (fresh OS entropy) or a bool: ``TypeError``."""
    if rng_or_seed is None or isinstance(rng_or_seed, (bool, np.bool_)):
        raise TypeError(f"rng_or_seed must be a Generator or a seed, got {rng_or_seed!r}")
    return np.random.default_rng(rng_or_seed)


def _formula(name: str, formula: Callable[[], float]) -> float:
    """``formula()`` once finite, else ``ValueError`` naming ``name``: numpy's
    overflow gives inf, Python's float ``**`` raises ``OverflowError``, and a
    power that underflows to 0 can raise ``ZeroDivisionError``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _in_range(name, formula(), -math.inf)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"{name} leaves the range of floats at these inputs") from None


def point_value(v) -> float | Array:
    """A Python ``float`` for the value at one point, the ``(n,)`` array
    for a stack: the return convention of every batch-first value map."""
    return v if np.ndim(v) else float(v)


def row_dots(U: Array, V: Array) -> Array:
    """``U[i] @ V[i]`` per row, bit for bit the 1-D dot (``np.sum(U * V, axis=-1)``
    is not); a pair of ``(d,)`` vectors gives their dot as a 0-d array."""
    return (U[..., None, :] @ V[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class StochasticOracle:
    """Sampling access to subgradients of g, split into randomness and map.

    ``draw(rng, n)`` returns the randomness of n independent draws as an
    array with n rows (component indices, noise vectors, or empty rows
    for a deterministic oracle).  It consumes the generator exactly as n
    draws of one would, so drawing in chunks of any size gives the same
    stream.  A row is the oracle's randomness, not a subgradient, and may
    carry a constant term of the map: a ``smooth_ls`` row is sigma * z - c,
    and its ``sample`` is the affine map H x + w.  Only ``sample(x, w)``
    gives subgradients: one row ``w = W[k]`` gives a ``(dim,)`` vector,
    the whole ``W`` an ``(n, dim)`` array whose rows match the single
    calls up to the rounding of a matrix-vector product.  The mean over
    the randomness lies in the subdifferential of g at x;
    ``check_oracle_unbiasedness`` compares it with the problem's
    ``g_full_subgradient``.
    """

    sample: Callable[[Array, Array], Array]
    draw: Callable[[np.random.Generator, int], Array]


@dataclass(frozen=True)
class IdParam:
    """A real generator parameter that rides on a family's id as ``:key=value``.

    ``key`` is its spelling in the id, ``field`` the ``ProblemMeta`` field
    that holds it, ``default`` the value a bare ``family:m:d:seed`` means.
    """

    key: str
    field: str
    default: float


# The one keyed suffix each family's id may carry, by family
ID_PARAMS = {
    "smooth_ls": IdParam("sigma", "sigma", 0.1),
    "robust_regression": IdParam("outliers", "outlier_fraction", 0.1),
}


@dataclass(frozen=True)
class ProblemMeta:
    """Where a problem's data came from.

    ``seed`` is a nonnegative integer: a ``TypeError`` refuses any other
    type (a live generator, whose seed cannot be read back, a float or a bool).
    ``sigma`` (smooth_ls noise per coordinate) and ``outlier_fraction``
    (robust_regression) are None for the families without them; ``detail``
    names the toy1d kind.
    """

    family: str
    m: int = 0
    d: int = 1
    seed: int = 0
    detail: str = ""
    sigma: float | None = None
    outlier_fraction: float | None = None

    def __post_init__(self) -> None:
        _in_range("seed", _integer("seed", self.seed, TypeError), 0, ends="[)")
        _in_range("sigma", self.sigma, ends="[)")
        _in_range("outlier_fraction", self.outlier_fraction, 0.0, 1.0, "[)")

    def problem_id(self) -> str:
        """``family:m:d:seed``, plus the family's ``ID_PARAMS`` suffix when that
        parameter is not its default, so the id names exactly one instance."""
        if self.family == "toy1d":
            return f"toy1d:{self.detail}"
        pid = f"{self.family}:{self.m}:{self.d}:{self.seed}"
        param = ID_PARAMS.get(self.family)
        if param is not None:
            value = getattr(self, param.field)
            if value not in (None, param.default):
                pid += f":{param.key}={value!r}"
        return pid


@dataclass(frozen=True)
class CompositeProblem:
    """min g(x) + r(x) with g weakly convex and r prox-friendly.

    ``rho`` is a certified weak-convexity modulus of g (0 means convex).
    ``lipschitz_L`` bounds the oracle's second moment, ``sigma`` bounds the
    variance around the exact gradient when g is smooth; the bounds and
    schemes that need a constant check for it.  ``smooth`` declares that g
    is continuously differentiable and ``g_full_subgradient`` returns the
    exact gradient.  ``x0``, the family's start, is a finite ``(dim,)`` vector.

    ``g_value`` and ``g_full_subgradient`` are batch-first: a ``(d,)``
    point gives a ``float`` and a ``(d,)`` subgradient, an ``(n, d)`` stack
    gives ``(n,)`` values and ``(n, d)`` subgradients whose rows match the
    point calls (bit for bit on the shipped families).  The subgradient
    selection is also the mean of the oracle's samples over its draws.
    """

    dim: int
    g_oracle: StochasticOracle
    regularizer: ProxFriendly
    rho: float
    g_value: Callable[[Array], float] | None = None
    g_full_subgradient: Callable[[Array], Array] | None = None
    lipschitz_L: float | None = None
    sigma: float | None = None
    domain_diameter: float | None = None
    smooth: bool = False
    planted_point: Array | None = None
    x0: Array | None = None
    meta: ProblemMeta | None = None

    def __post_init__(self) -> None:
        _in_range("dim", self.dim, 1, ends="[)")
        for name in ("rho", "lipschitz_L", "sigma"):
            _in_range(name, getattr(self, name), ends="[)")
        _in_range("domain_diameter", self.domain_diameter)
        if self.x0 is not None and np.shape(_in_range("x0", self.x0, -math.inf)) != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},), got {np.shape(self.x0)}")

    def phi(self, x: Array) -> float:
        """Full objective g + r; inf outside dom r."""
        self.require_deterministic()
        rv = self.regularizer.value(x)
        if math.isinf(rv):
            return math.inf
        return self.g_value(x) + rv

    def require_deterministic(self) -> "CompositeProblem":
        if self.g_value is None or self.g_full_subgradient is None:
            raise CapabilityError("problem does not expose deterministic g oracles")
        return self


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a sampled inequality certification."""

    check: str
    n_pairs: int
    max_violation: float
    tolerance: float
    violated: bool
    worst_pair: tuple[Array, Array] | None = None


def sample_domain_points(
    problem: CompositeProblem, n: int, radius: float, rng: np.random.Generator
) -> Array:
    """n points uniform in the given ball, mapped into dom r by projection."""
    d = problem.dim
    raw = rng.standard_normal((n, d))
    raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
    raw *= radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return problem.regularizer.project_domain(raw)


def _sampled_pairs(
    problem: CompositeProblem, n_pairs: int, radius: float, rng: np.random.Generator
) -> tuple[Array, Array]:
    problem.require_deterministic()
    _in_range("n_pairs", n_pairs, 1, ends="[)")
    _in_range("radius", radius, 0.0, _LENGTH_MAX)
    xs = sample_domain_points(problem, n_pairs, radius, rng)
    ys = sample_domain_points(problem, n_pairs, radius, rng)
    return xs, ys


def _on_stack(problem: CompositeProblem, name: str, xs: Array) -> Array:
    """``problem.g_value(xs)`` or ``problem.g_full_subgradient(xs)`` on an
    ``(n, d)`` stack, checked to be batch-first: a callable that fails on the
    stack or returns another shape than ``(n,)`` or ``(n, d)`` raises
    ``CapabilityError``."""
    shape, want = ("(n,)", xs.shape[:1]) if name == "g_value" else ("(n, d)", xs.shape)
    need = f"{name} must map an (n, d) stack to shape {shape}, here {want}"
    try:
        out = getattr(problem, name)(xs)
    except (ValueError, TypeError, IndexError) as exc:
        raise CapabilityError(f"{need}; it raised {type(exc).__name__}: {exc}") from exc
    if np.shape(out) != want:
        raise CapabilityError(f"{need}; it returned shape {np.shape(out)}")
    return out


def _violation_report(
    check: str, gap: Array, g_ys: Array, xs: Array, ys: Array
) -> ViolationReport:
    """Flag every pair whose gap is not at most 1e-9 * (1 + |g(y)|), a NaN gap
    included; the worst pair is the first one of largest gap, or the first NaN."""
    tol = 1e-9 * (1.0 + np.abs(g_ys))
    k = int(np.argmax(gap))
    return ViolationReport(
        check=check,
        n_pairs=len(gap),
        max_violation=float(gap[k]),
        tolerance=float(tol[k]),
        violated=not np.all(gap <= tol),
        worst_pair=(xs[k], ys[k]),
    )


def check_weak_convexity(
    problem: CompositeProblem,
    n_pairs: int,
    radius: float,
    rng: np.random.Generator,
) -> ViolationReport:
    """Sampled certification that g is rho-weakly convex.

    For pairs (x, y) in dom r the inequality
    g(y) >= g(x) + <v, y - x> - (rho/2)*||y - x||^2 must hold for the
    subgradient selection v at x.  The violation margin is the left-over of
    the right side; anything above 1e-9 * (1 + |g(y)|) is flagged.  g is
    evaluated on ``(n_pairs, d)`` stacks: a ``g_value`` or
    ``g_full_subgradient`` that is not batch-first raises ``CapabilityError``.
    """
    xs, ys = _sampled_pairs(problem, n_pairs, radius, rng)
    D = ys - xs
    g_ys = _on_stack(problem, "g_value", ys)
    gap = (
        _on_stack(problem, "g_value", xs)
        + row_dots(_on_stack(problem, "g_full_subgradient", xs), D)
        - 0.5 * problem.rho * row_dots(D, D)
        - g_ys
    )
    return _violation_report("weak_convexity", gap, g_ys, xs, ys)


def check_hypomonotonicity(
    problem: CompositeProblem,
    n_pairs: int,
    radius: float,
    rng: np.random.Generator,
) -> ViolationReport:
    """Sampled certification of <v - w, x - y> >= -rho * ||x - y||^2.

    Evaluates g on stacks like ``check_weak_convexity``, with the same error.
    """
    xs, ys = _sampled_pairs(problem, n_pairs, radius, rng)
    D = xs - ys
    V = _on_stack(problem, "g_full_subgradient", xs)
    V = V - _on_stack(problem, "g_full_subgradient", ys)
    gap = -(row_dots(V, D) + problem.rho * row_dots(D, D))
    g_ys = _on_stack(problem, "g_value", ys)
    return _violation_report("hypomonotonicity", gap, g_ys, xs, ys)


@dataclass(frozen=True)
class OracleReport:
    check: str
    n_repeats: int
    n_passed: int
    worst_ratio: float
    passed: bool


def check_oracle_unbiasedness(
    problem: CompositeProblem,
    x: Array,
    rng: np.random.Generator,
) -> OracleReport:
    """Empirical mean of oracle draws against the subgradient selection
    ``g_full_subgradient(x)``, which the oracle's mean must equal.

    Each of 20 repeats draws n = 10 000 subgradients g_k and passes when
    the mean deviates by at most five empirical standard errors,
    5 s / sqrt(n), plus a rounding floor.  The ``(n, d)`` stack is reduced
    on the calling thread by numpy's own loops, never by BLAS, whose pool
    would take the larger reductions onto other threads: the mean is the
    column sums divided by n, the spread s^2 = sum_k ||g_k - mean||^2 / n
    one flat sum of squares of the deviations, written into one ``(n, d)``
    buffer per call.  The floor (n + 1) eps sqrt(s^2 + ||mean||^2) bounds
    the rounding error of the computed mean: a sum of n terms, in any
    order, errs by at most gamma_n ~ n eps times the sum of their
    magnitudes (Higham 2002, section 4.2), the one division by n adds one
    eps, and ||(1/n) sum_k |g_k| || is at most the root mean square of
    ||g_k||, which is sqrt(s^2 + ||mean||^2).  So a zero-variance oracle
    passes exactly instead of failing on a one-ulp error divided by a
    spread made of that same error.  At least 95% of the repeats must pass.
    """
    n_samples, n_repeats = 10_000, 20
    oracle = problem.g_oracle
    target = problem.require_deterministic().g_full_subgradient(x)
    dev = np.empty((n_samples, problem.dim))
    n_passed = 0
    worst = 0.0
    for _ in range(n_repeats):
        draws = oracle.sample(x, oracle.draw(rng, n_samples))
        mean = np.einsum("ij->j", draws) / n_samples
        np.subtract(draws, mean, out=dev)
        spread_sq = float(np.einsum("ij,ij->", dev, dev)) / n_samples
        err = float(np.linalg.norm(mean - target))
        floor = (n_samples + 1) * math.ulp(1.0) * math.sqrt(spread_sq + float(mean @ mean))
        allowance = 5.0 * math.sqrt(spread_sq / n_samples) + floor
        if allowance == 0.0:
            ok = err == 0.0
            ratio = 0.0 if ok else math.inf
        else:
            ratio = err / allowance
            ok = ratio <= 1.0
        worst = max(worst, ratio)
        n_passed += ok
    return OracleReport(
        check="unbiasedness",
        n_repeats=n_repeats,
        n_passed=n_passed,
        worst_ratio=worst,
        passed=n_passed >= math.ceil(0.95 * n_repeats),
    )


def check_second_moment(
    problem: CompositeProblem,
    rng: np.random.Generator,
) -> OracleReport:
    """Empirical second moment of the oracle against lipschitz_L squared.

    At each of 100 points sampled in the ball of radius ``domain_diameter``
    (2 when the problem has none), the estimate sum_k ||g_k||^2 / n over
    n = 4 000 draws is one flat sum of squares of the ``(n, d)`` stack, by
    numpy's own loop on the calling thread rather than a BLAS dot; the
    point passes when it is at most 1.1 L^2.
    """
    if problem.lipschitz_L is None:
        raise CapabilityError("problem does not certify lipschitz_L")
    n_points, n_samples = 100, 4_000
    pts = sample_domain_points(problem, n_points, problem.domain_diameter or 2.0, rng)
    bound = 1.1 * problem.lipschitz_L**2
    worst = 0.0
    n_passed = 0
    for x in pts:
        draws = problem.g_oracle.sample(x, problem.g_oracle.draw(rng, n_samples))
        est = float(np.einsum("ij,ij->", draws, draws)) / n_samples
        worst = max(worst, est / bound)
        n_passed += est <= bound
    return OracleReport(
        check="second_moment",
        n_repeats=n_points,
        n_passed=n_passed,
        worst_ratio=worst,
        passed=n_passed == n_points,
    )
