"""Proximal stochastic subgradient method and its per-step guarantees.

The method is the obvious one: draw a stochastic subgradient, take a step,
apply the proximal map of r.  The only nonstandard piece is the returned
point, which is sampled from the iterates with probabilities proportional
to the step sizes; all the convergence statements in `harness` are about
that randomly selected iterate.  `run_psgm` draws its index t* first and
stops there.  `run_averaged` runs the whole schedule and returns the last
iterate and the plain and (t+1)-weighted means of the iterates, which the
convex stages in `boost` start from.  Neither keeps a trajectory: a run,
t* included, holds O(CHUNK d) memory at every horizon.

`LEMMAS` holds the one-step lemma behind each theorem.  `check_descent_lemma`
checks the one that covers a problem by Monte Carlo, and `check_prox_identity`
the fixed point of the proximal subproblem, on live problem instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, _formula, _generator, _in_range, _integer
from .moreau import MoreauPoint, moreau_prox
from .prox import ProxKind

Array = np.ndarray

# No run reads this; it stays only because bench/tracer.py reads it to label
# its spans, until the benchmark's next version drops that split.
TRAJECTORY_CAP = 1_000_000
# Steps whose randomness, step sizes and iterates a run handles at once.
CHUNK = 4096


class DomainError(ValueError):
    """Start point outside dom r."""


class OracleError(RuntimeError):
    """Non-finite stochastic subgradient, or a non-finite last iterate;
    carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


def step_cap(rho_hat: float) -> float:
    """The largest step at rho_hat: 1/rho_hat, which the descent lemma needs,
    times 1 + 4 eps.  The relative slack admits a capped step gamma/sqrt(T+1)
    with gamma = sqrt(T+1)/rho_hat, which rounds up to 1 ulp above 1/rho_hat."""
    return (1.0 / rho_hat) * (1.0 + 4.0 * np.finfo(float).eps)


def constant_step(gamma: float, T: int, rho_hat: float | None = None) -> float:
    """The step gamma/sqrt(T+1) of the T + 1 constant steps the corollaries
    analyze, once gamma is finite and positive, T is a nonnegative integer
    and, when rho_hat is given, the step is at most ``step_cap(rho_hat)``;
    else ``ValueError``.  The one check of a constant schedule, for a run
    (`StepSchedule.constant`) and for its bound (`harness.theoretical_bound`)."""
    _in_range("gamma", gamma)
    _in_range("T", _integer("T", T), 0, ends="[)")
    cap = math.inf if rho_hat is None else step_cap(_in_range("rho_hat", rho_hat))
    return _in_range("step gamma/sqrt(T+1)", gamma / math.sqrt(T + 1), 0.0, cap, "(]")


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes for one run.

    ``StepSchedule(alphas)`` takes any finite positive steps (a sequence or
    array); ``constant`` builds the gamma / sqrt(T+1) schedule the
    constant-step corollaries analyze as a read-only broadcast view of its
    one step, so it takes O(1) memory at every horizon and writing to its
    steps raises.  When rho_hat is supplied, finite and positive, the steps
    must not exceed ``step_cap(rho_hat)``.
    """

    alphas: Array
    rho_hat: float | None = None

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("schedule needs a nonempty 1-D array of steps")
        cap = math.inf if self.rho_hat is None else step_cap(_in_range("rho_hat", self.rho_hat))
        _in_range("steps", a, 0.0, cap, "(]")
        object.__setattr__(self, "alphas", a)

    @property
    def horizon(self) -> int:
        """T, so the run takes T+1 steps indexed 0..T."""
        return self.alphas.size - 1

    @staticmethod
    def constant(gamma: float, T: int, rho_hat: float | None = None) -> "StepSchedule":
        alpha = constant_step(gamma, T, rho_hat)
        return StepSchedule(alphas=np.broadcast_to(alpha, (T + 1,)), rho_hat=rho_hat)


@dataclass(frozen=True)
class RunResult:
    """The method's output: x_{t_star}, where the run stopped.

    ``t_star`` is drawn before the first step with probability
    alpha_t / sum(alphas), and the run takes steps 0..t_star-1 only, so
    ``x_star`` is x_{t_star} and ``oracle_calls`` equals ``t_star``.
    """

    t_star: int
    x_star: Array
    oracle_calls: int


@dataclass(frozen=True)
class AveragedRun:
    """What a full run keeps of its trajectory x_0..x_{T+1}.

    ``x_last`` is x_{T+1}, ``mean`` the plain average of x_0..x_T and
    ``weighted_mean`` their average with weight t+1 on x_t; the run makes
    T+1 oracle calls.
    """

    x_last: Array
    mean: Array
    weighted_mean: Array
    oracle_calls: int


def _partial_sums(a: Array):
    """``np.cumsum(a)`` CHUNK entries at a time, with its bytes: each chunk's
    scan starts from the running sum, so every partial sum is the same
    left-to-right sum of floats."""
    total = np.zeros(1)
    for start in range(0, a.size, CHUNK):
        cdf = np.cumsum(np.concatenate((total, a[start:start + CHUNK])))[1:]
        total = cdf[-1:]
        yield cdf


def sample_tstar(alphas, rng: np.random.Generator, size: int | None = None) -> int | Array:
    """Index t with probability alpha_t / sum(alphas), by inverse CDF.

    Consumes one uniform variate per index drawn: ``size=None`` gives one
    ``int``, an integer ``size`` an array equal to that many such calls.
    The steps must be finite and positive, and so must their sum.  The
    partial sums are scanned in chunks of CHUNK entries, once for the total
    and once to count those at or below each variate, and have the bytes
    of ``np.cumsum``, so the draw takes O(CHUNK + size) memory.
    """
    a = _in_range("steps", np.asarray(alphas, dtype=float))
    _in_range("number of steps", a.size, 1, ends="[)")
    for cdf in _partial_sums(a):
        pass  # the last chunk ends in the total
    _in_range("sum of steps", cdf[-1])
    u = rng.uniform(0.0, cdf[-1], size)
    u_max = np.max(u, initial=0.0)
    t = None
    for cdf in _partial_sums(a):
        # searchsorted counts the chunk's partial sums <= u; later chunks'
        # counts add in place, so t stays one array beside u
        n = np.searchsorted(cdf, u, side="right")
        if t is None:
            t = n
        else:
            t += n
        if cdf[-1] > u_max:
            break
    if size is None:
        return int(min(t, a.size - 1))
    return np.minimum(t, a.size - 1, out=t)


def _iterate(problem: CompositeProblem, x0, alphas: Array, rng, fold=None) -> Array:
    """The iterate after one step per entry of ``alphas``, from x0.

    Randomness (``g_oracle.draw``) and step sizes are prepared CHUNK steps
    at a time, and each step makes one ``g_oracle.sample`` call, one finite
    check and one prox call; the returned iterate gets one finite check of
    its own.  Given a ``fold``, ``fold(start, xs)`` receives each chunk's
    iterates x_start..x_{start+n-1} before they are dropped; without one no
    iterate is kept.  Either way the loop holds O(CHUNK d) memory at every
    horizon.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (problem.dim,):
        raise DomainError(f"x0 has shape {x.shape}, problem dim {problem.dim}")
    if not np.isfinite(x).all() or math.isinf(problem.regularizer.value(x)):
        raise DomainError("x0 must be finite and in dom r")
    draw, sample = problem.g_oracle.draw, problem.g_oracle.sample
    prox = problem.regularizer.prox
    # 0 * v is 0 for finite v and NaN for an infinite or NaN one, so this
    # dot is finite exactly when every entry of g is.  inf * 0 raises the
    # invalid flag, whose warning would pre-empt the OracleError, so the loop
    # ignores that flag: invalid-value warnings from `draw`, `sample` and
    # `prox` are suppressed too.  A NaN made inside `sample` fails the check;
    # one made by `prox` (an overflowed step fed to the ball's rescale,
    # inf * 0) stays in the iterates, as the shipped proxes keep a NaN, and
    # fails the one check on the returned iterate.
    zero = np.zeros(problem.dim)
    n_iter = alphas.size
    with np.errstate(invalid="ignore"):
        for start in range(0, n_iter, CHUNK):
            stop = min(start + CHUNK, n_iter)
            n = stop - start
            steps = alphas[start:stop]
            # row t holds alpha_t d times: g * row is the IEEE product a * g
            # without numpy's Python-float scalar path.  A read-only
            # broadcast view, so the chunk adds no (n, d) array.
            rows = np.broadcast_to(steps[:, None], (n, problem.dim))
            xs = []
            keep = xs.append
            for t, a, ar, w in zip(range(start, stop), steps.tolist(), rows, draw(rng, n)):
                if fold:
                    keep(x)
                g = sample(x, w)
                if not math.isfinite(g.dot(zero)):
                    raise OracleError(f"non-finite subgradient at iteration {t}", t)
                x = prox(x - g * ar, a)
            if fold:
                fold(start, xs)
            # w, a row view, would keep this chunk's draws alive during the next draw
            del w
        if not math.isfinite(x.dot(zero)):
            raise OracleError(f"non-finite iterate after iteration {n_iter - 1}", n_iter - 1)
    return x


def run_psgm(
    problem: CompositeProblem,
    x0: Array,
    schedule: StepSchedule,
    rng_or_seed,
) -> RunResult:
    """Run the proximal stochastic subgradient method to its output x_{t*}.

    Deterministic given (seed, problem data, x0, schedule); a None or bool
    seed raises ``TypeError``.  The output index t* is drawn first, from a
    substream spawned off the generator, with probability
    alpha_t / sum(alphas) over t = 0..T; the run then takes steps 0..t*-1
    of the schedule from the generator itself and stops (at t* = 0 it takes
    none and returns x0).  The steps after t* would not change x_{t*}, and
    x_{t*} has the bytes it has in the full run of `run_averaged` from the
    same generator.  The run makes t* oracle calls.
    """
    rng = _generator(rng_or_seed)
    t_star = sample_tstar(schedule.alphas, rng.spawn(1)[0])
    x_star = _iterate(problem, x0, schedule.alphas[:t_star], rng)
    return RunResult(t_star=t_star, x_star=x_star, oracle_calls=t_star)


def run_averaged(
    problem: CompositeProblem,
    x0: Array,
    schedule: StepSchedule,
    rng_or_seed,
) -> AveragedRun:
    """Run all T+1 steps of the schedule and average the iterates.

    The convex stages in `boost` start from these averages.  The steps use
    the generator as `run_psgm` does, which draws no t* here, so the two
    runs from equal generators share their iterates.  Each chunk's
    iterates are folded into the two means and dropped.
    """
    rng = _generator(rng_or_seed)
    n_iter = schedule.alphas.size
    # row 0: the plain sum of x_0..x_T, row 1: the sum with weight t+1 on x_t
    sums = np.zeros((2, problem.dim))

    def fold(start, xs):
        nonlocal sums
        n = len(xs)
        # x0 and every prox output are contiguous float64 (d,) arrays, so
        # their joined bytes are the chunk's rows (join or reshape raises
        # if one is not); per row this costs a third of np.concatenate
        weights = np.stack((np.ones(n), np.arange(start + 1.0, start + n + 1.0)))
        sums += weights @ np.frombuffer(b"".join(xs)).reshape(n, problem.dim)

    x_last = _iterate(problem, x0, schedule.alphas, rng, fold)
    return AveragedRun(
        x_last=x_last,
        mean=sums[0] / n_iter,
        weighted_mean=sums[1] / (n_iter * (n_iter + 1) / 2),
        oracle_calls=n_iter,
    )


# ---------------------------------------------------------------------------
# single-step guarantees

# lemma: (a, b, M, rho_hat at most 2 rho, steps at most 1/rho_hat) of its one step
# E||x+ - x_hat||^2 <= (1 - a alpha (rho_hat - rho)) ||x - x_hat||^2 + b alpha^2 M^2;
# README "Experiments" derives each theorem of `harness` from its row
LEMMAS = {
    "ProjectedThm21": (2.0, 1.0, "L", False, False),
    "ProximalThm26": (2.0, 2.0, "L", True, True),
    "SmoothCor29": (1.0, 1.0, "sigma", False, True),
}
LEMMA_ROUNDOFF = 16  # a one-step check's allowance, in eps (||x - x_hat||^2 + noise)


def lemma_of(problem: CompositeProblem) -> str:
    """The row of `LEMMAS` that covers ``problem``, whose bound a sweep prints."""
    indicator = problem.regularizer.kind in (ProxKind.ZERO, ProxKind.BOX, ProxKind.BALL)
    return "SmoothCor29" if problem.smooth else "ProjectedThm21" if indicator else "ProximalThm26"


@dataclass(frozen=True)
class LemmaReport:
    """Monte-Carlo estimate of the one-step contraction vs the bound of the
    `LEMMAS` row ``variant``, with the roundoff ``allowance`` of that bound."""

    estimate: float
    ci_half_width: float
    bound: float
    allowance: float
    n_samples: int
    variant: str

    @property
    def violated(self) -> bool:
        """True unless estimate - ci_half_width - bound <= allowance: a NaN is violated."""
        return not self.estimate - self.ci_half_width - self.bound <= self.allowance


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

    Estimates E||x_{t+1} - x_hat||^2 over n_samples independent draws against
    the one-step bound of the `LEMMAS` row `lemma_of` picks, the row under
    the bound a sweep prints.  Flags violation when the estimate minus its
    95% confidence half-width exceeds the bound by more than LEMMA_ROUNDOFF
    eps (||x_t - x_hat||^2 + noise term): `toy1d:abs` meets it with equality.

    Raises ``ValueError`` before any solve unless rho_hat exceeds rho, alpha
    is positive, both meet the row's caps, its constant is certified, its
    noise term is finite and n_samples >= 2, which the half-width needs.  At
    alpha = 0 estimate and bound are equal, so the verdict would be roundoff.
    """
    rng = _generator(rng_or_seed)
    variant = lemma_of(problem)
    a, b, m, rho_hat_capped, steps_capped = LEMMAS[variant]
    cap = 2.0 * problem.rho if rho_hat_capped else math.inf
    _in_range("rho_hat", rho_hat, problem.rho, cap, "(]")
    _in_range("alpha", alpha, 0.0, step_cap(rho_hat) if steps_capped else math.inf, "(]")
    _in_range("n_samples", n_samples, 2, ends="[)")
    M = {"L": problem.lipschitz_L, "sigma": problem.sigma}[m]
    if M is None:
        raise ValueError(f"{variant} needs a certified {'lipschitz_L' if m == 'L' else m}")
    noise_term = _formula("noise term b alpha^2 M^2", lambda: b * alpha * alpha * M**2)
    contraction = a * alpha * (rho_hat - problem.rho)
    x_t = np.asarray(x_t, dtype=float)

    x_hat = moreau_prox(problem, x_t, 1.0 / rho_hat, inner_tol).x_hat
    dist_sq = float(np.sum((x_t - x_hat) ** 2))
    bound = dist_sq + noise_term - contraction * dist_sq

    draws = problem.g_oracle.sample(x_t, problem.g_oracle.draw(rng, n_samples))
    stepped = problem.regularizer.prox(x_t - alpha * draws, alpha)
    sq = np.sum((stepped - x_hat) ** 2, axis=-1)
    sem = float(sq.std(ddof=1) / math.sqrt(n_samples))
    allowance = LEMMA_ROUNDOFF * math.ulp(1.0) * (dist_sq + noise_term)
    return LemmaReport(estimate=float(sq.mean()), ci_half_width=1.96 * sem, bound=bound,
                       allowance=allowance, n_samples=n_samples, variant=variant)


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

    Pass ``point`` to reuse a MoreauPoint from any solve of the same
    subproblem; it must have been evaluated at (x, 1/rho_hat), else
    ``ValueError``.  Raises ``ValueError`` before any solve unless
    rho_hat exceeds rho and alpha lies in (0, step_cap(rho_hat)].
    """
    _in_range("rho_hat", rho_hat, problem.rho)
    _in_range("alpha", alpha, 0.0, step_cap(rho_hat), "(]")
    x = np.asarray(x, dtype=float)
    if point is None:
        point = moreau_prox(problem, x, 1.0 / rho_hat, inner_tol)
    elif point.lam != 1.0 / rho_hat or not np.array_equal(point.x, x):
        raise ValueError("point must be evaluated at (x, 1/rho_hat)")
    x_hat = point.x_hat
    arg = alpha * rho_hat * x - alpha * point.zeta_hat + (1.0 - alpha * rho_hat) * x_hat
    return float(np.linalg.norm(x_hat - problem.regularizer.prox(arg, alpha)))
