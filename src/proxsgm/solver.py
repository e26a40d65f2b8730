"""Proximal stochastic subgradient method and its per-step guarantees.

The method is the obvious one: draw a stochastic subgradient, take a step,
apply the proximal map of r.  The only nonstandard piece is the returned
point, which is sampled from the iterates with probabilities proportional
to the step sizes; all the convergence statements in `harness` are about
that randomly selected iterate.  A run keeps no trajectory: besides that
iterate it returns the last one and the plain and (t+1)-weighted means of
the iterates, which the convex stages in `boost` start from.

`check_descent_lemma` and `check_prox_identity` turn the two single-step
facts the analysis rests on into Monte-Carlo / algebraic checks that run
against live problem instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CompositeProblem, coerce_rng
from .moreau import MoreauPoint, moreau_prox

Array = np.ndarray

# No run reads this; it stays only because bench/tracer.py reads it to label
# its spans, until the benchmark's next version drops that split.
TRAJECTORY_CAP = 1_000_000
# Steps whose randomness, step sizes and iterates `run_psgm` handles at once.
CHUNK = 4096


class DomainError(ValueError):
    """Start point outside dom r."""


class OracleError(RuntimeError):
    """Non-finite stochastic subgradient, or a non-finite last iterate;
    carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes for one run.

    ``StepSchedule(alphas)`` takes any finite positive steps (a sequence or
    array); ``constant`` builds the gamma / sqrt(T+1) schedule the
    constant-step corollaries analyze.  When rho_hat is supplied the steps
    must not exceed 1/rho_hat, which the descent lemma needs.
    """

    alphas: Array
    rho_hat: float | None = None

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("schedule needs a nonempty 1-D array of steps")
        bad = np.flatnonzero(~(np.isfinite(a) & (a > 0)))
        if bad.size:
            t = bad[0]
            raise ValueError(f"steps must be finite and positive, alpha_{t} = {a[t]}")
        if self.rho_hat is not None and self.rho_hat > 0:
            if float(a.max()) > 1.0 / self.rho_hat + 1e-15:
                raise ValueError(
                    f"max step {a.max()} exceeds 1/rho_hat = {1.0 / self.rho_hat}"
                )
        object.__setattr__(self, "alphas", a)

    @property
    def horizon(self) -> int:
        """T, so the run takes T+1 steps indexed 0..T."""
        return self.alphas.size - 1

    @staticmethod
    def constant(gamma: float, T: int, rho_hat: float | None = None) -> "StepSchedule":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if T < 0:
            raise ValueError("horizon must be nonnegative")
        alpha = gamma / math.sqrt(T + 1)
        return StepSchedule(alphas=np.full(T + 1, alpha), rho_hat=rho_hat)


@dataclass(frozen=True)
class RunResult:
    """What a run keeps of its trajectory x_0..x_{T+1}.

    ``x_star`` is x_{t_star}, the iterate that the step-weighted draw
    selects, and ``x_last`` is x_{T+1}.  ``mean`` is the plain average of
    x_0..x_T and ``weighted_mean`` their average with weight t+1 on x_t.
    """

    t_star: int
    x_star: Array
    x_last: Array
    mean: Array
    weighted_mean: Array
    oracle_calls: int


def sample_tstar(alphas, rng: np.random.Generator, size: int | None = None) -> int | Array:
    """Index t with probability alpha_t / sum(alphas), by inverse CDF.

    Consumes one uniform variate per index drawn: ``size=None`` gives one
    ``int``, an integer ``size`` an array equal to that many such calls.
    """
    a = np.asarray(alphas, dtype=float)
    if a.size == 0:
        raise ValueError("empty step list")
    if not np.all(a > 0):
        raise ValueError("steps must be positive")
    cdf = np.cumsum(a)
    t = np.searchsorted(cdf, rng.uniform(0.0, cdf[-1], size), side="right")
    t = t.clip(0, a.size - 1)
    return int(t) if size is None else t


def run_psgm(
    problem: CompositeProblem,
    x0: Array,
    schedule: StepSchedule,
    rng_or_seed,
) -> RunResult:
    """Run the proximal stochastic subgradient method for T+1 steps.

    Deterministic given (seed, problem data, x0, schedule).  The selection
    index t* is drawn first, from a substream spawned off the generator, so
    the subgradient stream does not depend on it.  Randomness
    (``g_oracle.draw``) and step sizes are then prepared CHUNK steps at a
    time, and each step makes one ``g_oracle.sample`` call, one finite
    check and one prox call; the last iterate gets one finite check of its
    own.  Each chunk's iterates are folded into the two means and dropped,
    keeping x_star if t* falls in the chunk, so the iterates held take
    O(CHUNK d) memory at every horizon.
    """
    rng, _ = coerce_rng(rng_or_seed)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise DomainError(f"x0 has shape {x0.shape}, problem dim {problem.dim}")
    if math.isinf(problem.regularizer.value(x0)):
        raise DomainError("x0 outside dom r")

    alphas = schedule.alphas
    n_iter = alphas.size
    t_star = sample_tstar(alphas, rng.spawn(1)[0])

    draw, sample = problem.g_oracle.draw, problem.g_oracle.sample
    prox = problem.regularizer.prox
    # 0 * v is 0 for finite v and NaN for an infinite or NaN one, so this
    # dot is finite exactly when every entry of g is.  inf * 0 raises the
    # invalid flag, whose warning would pre-empt the OracleError, so the loop
    # ignores that flag: invalid-value warnings from `draw`, `sample` and
    # `prox` are suppressed too.  A NaN made inside `sample` fails the check;
    # one made by `prox` (an overflowed step fed to the ball's rescale,
    # inf * 0) stays in the iterates, as the shipped proxes keep a NaN, and
    # fails the one check on the final iterate.
    zero = np.zeros(problem.dim)
    # row 0: the plain sum of x_0..x_T, row 1: the sum with weight t+1 on x_t
    sums = np.zeros((2, problem.dim))
    x = x0
    with np.errstate(invalid="ignore"):
        for start in range(0, n_iter, CHUNK):
            stop = min(start + CHUNK, n_iter)
            xs = []
            keep = xs.append
            for t, a, w in zip(
                range(start, stop), alphas[start:stop].tolist(), draw(rng, stop - start)
            ):
                keep(x)
                g = sample(x, w)
                if not math.isfinite(g.dot(zero)):
                    raise OracleError(f"non-finite subgradient at iteration {t}", t)
                x = prox(x - a * g, a)
            if start <= t_star < stop:
                x_star = xs[t_star - start]
            # x0 and every prox output are contiguous float64 (d,) arrays, so
            # their joined bytes are the chunk's rows (join or reshape raises
            # if one is not); per row this costs a third of np.concatenate
            n = stop - start
            weights = np.stack((np.ones(n), np.arange(start + 1.0, stop + 1.0)))
            sums += weights @ np.frombuffer(b"".join(xs)).reshape(n, problem.dim)
        if not math.isfinite(x.dot(zero)):
            raise OracleError(f"non-finite iterate after iteration {n_iter - 1}", n_iter - 1)

    return RunResult(
        t_star=t_star,
        x_star=x_star,
        x_last=x,
        mean=sums[0] / n_iter,
        weighted_mean=sums[1] / (n_iter * (n_iter + 1) / 2),
        oracle_calls=n_iter,
    )


# ---------------------------------------------------------------------------
# single-step guarantees


@dataclass(frozen=True)
class LemmaReport:
    """Monte-Carlo estimate of the one-step contraction vs its bound."""

    estimate: float
    ci_half_width: float
    bound: float
    n_samples: int
    variant: str
    violated: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "violated", self.estimate - self.ci_half_width > self.bound
        )


def check_descent_lemma(
    problem: CompositeProblem,
    x_t: Array,
    rho_hat: float,
    alpha: float,
    n_samples: int,
    rng_or_seed,
    inner_tol: float = 1e-10,
) -> LemmaReport:
    """One-step mean-square contraction toward the proximal point.

    Estimates E||x_{t+1} - x_hat||^2 over n_samples independent draws and
    compares against the closed-form right side of the variant that
    ``problem.smooth`` picks: "weakly_convex", a (rho_hat - rho)-strength
    contraction plus 2 alpha^2 L^2, or "smooth", the alpha^2 sigma^2 term of
    an exact gradient plus noise.  Flags violation when the estimate minus
    its 95% confidence half-width exceeds the bound.
    """
    rng, _ = coerce_rng(rng_or_seed)
    variant = "smooth" if problem.smooth else "weakly_convex"
    if rho_hat <= problem.rho:
        raise ValueError("rho_hat must exceed rho")
    if variant == "weakly_convex" and problem.rho > 0 and rho_hat > 2 * problem.rho:
        raise ValueError("weakly convex variant needs rho_hat <= 2 rho")
    if alpha > 1.0 / rho_hat:
        raise ValueError("alpha must not exceed 1/rho_hat")
    x_t = np.asarray(x_t, dtype=float)

    point = moreau_prox(problem, x_t, 1.0 / rho_hat, inner_tol)
    x_hat = point.x_hat
    dist_sq = float(np.sum((x_t - x_hat) ** 2))

    if variant == "weakly_convex":
        L = problem.lipschitz_L
        if L is None:
            raise ValueError("weakly convex variant needs a certified lipschitz_L")
        noise_term = 2.0 * alpha * alpha * L * L
        contraction = 2.0 * alpha * (rho_hat - problem.rho)
    else:
        if problem.sigma is None:
            raise ValueError("smooth variant needs a certified sigma")
        noise_term = alpha * alpha * problem.sigma**2
        contraction = alpha * (rho_hat - problem.rho)
    bound = dist_sq + noise_term - contraction * dist_sq

    draws = problem.g_oracle.sample(x_t, problem.g_oracle.draw(rng, n_samples))
    stepped = problem.regularizer.prox(x_t - alpha * draws, alpha)
    sq = np.sum((stepped - x_hat) ** 2, axis=-1)
    est = float(sq.mean())
    sem = float(sq.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return LemmaReport(
        estimate=est,
        ci_half_width=1.96 * sem,
        bound=bound,
        n_samples=n_samples,
        variant=variant,
    )


def check_prox_identity(
    problem: CompositeProblem,
    x: Array,
    rho_hat: float,
    alpha: float,
    inner_tol: float = 1e-10,
    point: MoreauPoint | None = None,
) -> float:
    """Fixed-point restatement of the proximal subproblem optimality.

    With x_hat = prox at parameter 1/rho_hat and the certificate
    zeta_hat, the update written with the *mean* subgradient must return
    x_hat itself:  x_hat = prox_{alpha r}(alpha rho_hat x - alpha zeta_hat
    + (1 - alpha rho_hat) x_hat).  Returns the residual norm; the contract
    is residual <= inner tolerance times a conditioning factor of 10.

    Pass ``point`` to reuse an already computed MoreauPoint (for example
    from the grid oracle); it must have been evaluated at (x, 1/rho_hat).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    if point is None:
        point = moreau_prox(problem, x, 1.0 / rho_hat, inner_tol)
    x_hat = point.x_hat
    arg = alpha * rho_hat * x - alpha * point.zeta_hat + (1.0 - alpha * rho_hat) * x_hat
    return float(np.linalg.norm(x_hat - problem.regularizer.prox(arg, alpha)))
