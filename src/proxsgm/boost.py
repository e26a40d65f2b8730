"""Convex-case accelerations: quadratic regularization and two-stage runs.

For convex g the generic guarantee can be sharpened.  Adding
(mu/2)||. - x_c||^2 to the objective makes it strongly convex, a cheap
first stage shrinks the objective gap, and the main method then runs with
a step size tuned to that smaller gap.  The envelope of the regularized
objective relates to the envelope of the original one by an exact identity
(`envelope_shift_identity_check`), and `map_back` converts near-stationary
points of the regularized problem into near-stationary points of the
original, which is what makes the whole construction pay off.

Parametrization note: this module states identities in terms of the
quadratic coefficients lam and mu (the envelope evaluated for coefficient
lam is the one with envelope parameter 1/lam).  `moreau_prox` takes the
envelope parameter, so calls here pass 1/lam and 1/(lam + mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CapabilityError,
    CompositeProblem,
    StochasticOracle,
    _formula,
    _generator,
    _in_range,
    _integer,
    point_value,
)
from .moreau import moreau_prox
from .solver import RunResult, StepSchedule, run_averaged, run_psgm

Array = np.ndarray


@dataclass(frozen=True)
class RegularizedProblem:
    """g + (mu/2)||. - x_c||^2 with the quadratic folded into the g oracle.

    The base problem must declare rho = 0 (convex g); the sum is then
    mu-strongly convex.  Every stochastic subgradient sample gains the
    deterministic shift mu (x - x_c), so the noise structure is unchanged
    and the subgradient norm bound becomes L + mu D.
    """

    base: CompositeProblem
    mu: float
    x_c: Array
    problem: CompositeProblem = field(init=False)

    def __post_init__(self):
        if self.base.rho != 0:
            raise ValueError("regularization transform expects a convex base (rho = 0)")
        _in_range("mu", self.mu)
        x_c = np.asarray(self.x_c, dtype=float)
        if x_c.shape != (self.base.dim,):
            raise ValueError("anchor shape mismatch")
        if math.isinf(self.base.regularizer.value(x_c)):
            raise ValueError("anchor outside dom r")
        object.__setattr__(self, "x_c", x_c)
        object.__setattr__(self, "problem", _build_regularized(self.base, self.mu, x_c))


def _build_regularized(base: CompositeProblem, mu: float, x_c: Array) -> CompositeProblem:
    oracle = base.g_oracle

    def sample(x: Array, w: Array) -> Array:
        return oracle.sample(x, w) + mu * (x - x_c)

    g_value = lambda x: point_value(
        base.g_value(x) + 0.5 * mu * np.sum((x - x_c) ** 2, axis=-1)
    )
    g_sub = lambda x: base.g_full_subgradient(x) + mu * (x - x_c)

    L_hat = None
    if base.lipschitz_L is not None and base.domain_diameter is not None:
        L_hat = base.lipschitz_L + mu * base.domain_diameter

    return CompositeProblem(
        dim=base.dim,
        g_oracle=StochasticOracle(sample=sample, draw=oracle.draw),
        regularizer=base.regularizer,
        rho=0.0,
        g_value=g_value,
        g_full_subgradient=g_sub,
        lipschitz_L=L_hat,
        sigma=base.sigma,
        domain_diameter=base.domain_diameter,
        smooth=base.smooth,
        planted_point=None,
        meta=None,
    )


# ---------------------------------------------------------------------------
# identities


def map_back(x: Array, mu: float, lam: float, x_c: Array) -> Array:
    """Anchor-weighted combination z = (mu x_c + lam x) / (mu + lam).

    Near-stationarity transfers: the envelope gradient of the base problem
    for coefficient lam + mu at z is bounded by ((lam + mu)/lam) times the
    regularized problem's envelope gradient at x, plus mu D.
    """
    _in_range("lam", lam)
    _in_range("mu", mu, ends="[)")
    x = np.asarray(x, dtype=float)
    if mu == 0:
        return x.copy()
    x_c = np.asarray(x_c, dtype=float)
    return (mu * x_c + lam * x) / (mu + lam)


def envelope_shift_identity_check(
    base: CompositeProblem,
    mu: float,
    x_c: Array,
    lam: float,
    x: Array,
) -> float:
    """|LHS - RHS| for the regularized-envelope identity.

    LHS: envelope of g + (mu/2)||. - x_c||^2 + r with quadratic coefficient
    lam, at x.  RHS: envelope of the base problem with coefficient lam + mu
    at z = map_back(x), plus the completed square
    lam mu / (2 (mu + lam)) ||x - x_c||^2.  Both envelope solves use the fixed
    inner tolerance 1e-10, so each value is off by at most 1e-10.
    """
    z = map_back(x, mu, lam, x_c)
    x = np.asarray(x, dtype=float)
    x_c = np.asarray(x_c, dtype=float)
    if mu == 0:
        lhs_problem = base
    else:
        lhs_problem = RegularizedProblem(base, mu, x_c).problem
    shift = lam * mu / (2.0 * (mu + lam)) * float(np.sum((x - x_c) ** 2))
    # right side first: its smaller parameter 1/(lam + mu) fails before any solve
    rhs = moreau_prox(base, z, 1.0 / (lam + mu), 1e-10).envelope_value + shift
    lhs = moreau_prox(lhs_problem, x, 1.0 / lam, 1e-10).envelope_value
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# step size selection


def optimal_gamma(R: float, rho: float, L: float) -> float:
    """Argmin of gamma -> (R + rho L^2 gamma^2) / gamma, namely
    sqrt(R / (rho L^2))."""
    _in_range("(R, rho, L)", (R, rho, L))
    return math.sqrt(R / (rho * L * L))


def iteration_bound(rho: float, L: float, D: float, eps: float) -> int:
    """Subgradient evaluations sufficient for a point with
    E||grad envelope|| <= eps, using the a-priori gap R = min(rho D^2, D L):
    ceil(16 (rho L D)^2 min(1, L / (rho D)) / eps^4).
    """
    _in_range("(rho, L, D, eps)", (rho, L, D, eps))
    bound = lambda: 16.0 * (rho * L * D) ** 2 * min(1.0, L / (rho * D)) / eps**4
    return math.ceil(_formula("iteration bound", bound))


# ---------------------------------------------------------------------------
# staged schemes


def _convex_constants(base: CompositeProblem, what: str) -> tuple[float, float]:
    """(L, D) of a convex base; ``what`` names the scheme in the errors."""
    if base.rho != 0:
        raise ValueError(f"{what} expects a convex base (rho = 0)")
    L, D = base.lipschitz_L, base.domain_diameter
    if L is None or D is None:
        raise CapabilityError(f"{what} needs lipschitz_L and domain_diameter")
    return L, D


def _pipeline_constants(
    base: CompositeProblem, rho: float, eps: float
) -> tuple[float, float, float, float]:
    """(L, D, mu, lam) of the pipeline: mu = eps/(2D), lam = 2 rho - mu."""
    L, D = _convex_constants(base, "pipeline")
    _in_range("(rho, eps)", (rho, eps))
    if eps > 2.0 * rho * D:
        raise ValueError(f"eps={eps} violates the eps <= 2 rho D = {2 * rho * D} guard")
    mu = eps / (2.0 * D)
    return L, D, mu, _in_range("lam = 2 rho - mu", 2.0 * rho - mu)


@dataclass(frozen=True)
class TwoStageResult:
    """Stage-2 run plus the stage-1 warm start metadata.

    ``total_oracle_calls`` is the budget 2 (T+1) that the guarantees are
    stated for: stage 1 makes T+1 calls and stage 2 stops at its output,
    after ``result.oracle_calls`` <= T+1 calls.
    """

    result: RunResult
    stage1_point: Array
    stage1_gamma: float
    stage2_gamma: float
    gap_estimate_R: float
    total_oracle_calls: int


def two_stage_convex(
    base: CompositeProblem,
    T: int,
    rho_hat: float,
    rng_or_seed,
) -> TwoStageResult:
    """Gap-shrinking stage followed by the tuned main run.

    Stage 1 starts at the projection of the origin onto dom r, runs T+1
    plain steps with gamma = D/L and starts stage 2 from the run's
    ``mean``, the average of x_0..x_T, which brings the objective gap down
    to R = L D / sqrt(T+1).
    Stage 2 restarts the method there with gamma tuned to that gap, using
    rho_hat / 2 as the declared modulus (the rho_hat = 2 rho convention
    used everywhere else), and stops at its output.  Total budget: 2 (T+1)
    oracle calls.
    """
    L, D = _convex_constants(base, "two-stage scheme")
    _in_range("rho_hat", rho_hat)
    # both schedules are built, and so checked, before either stage runs
    gamma1 = D / L
    schedule1 = StepSchedule.constant(gamma1, T)
    R = L * D / math.sqrt(T + 1)
    gamma2 = optimal_gamma(R, rho_hat / 2.0, L)
    # the envelope argument needs steps <= 1/rho_hat; binding only for
    # tiny T with rho_hat D >> L
    gamma2 = min(gamma2, math.sqrt(T + 1) / rho_hat)
    schedule2 = StepSchedule.constant(gamma2, T, rho_hat=rho_hat)

    rng = _generator(rng_or_seed)
    kid1, kid2 = rng.spawn(2)
    x0 = base.regularizer.project_domain(np.zeros(base.dim))
    stage1_point = run_averaged(base, x0, schedule1, kid1).mean
    stage2 = run_psgm(base, stage1_point, schedule2, kid2)
    return TwoStageResult(
        result=stage2,
        stage1_point=stage1_point,
        stage1_gamma=gamma1,
        stage2_gamma=gamma2,
        gap_estimate_R=R,
        total_oracle_calls=2 * (T + 1),
    )


def strongly_convex_gap_bound(L: float, mu: float, D: float, T: int) -> float:
    """Objective-gap guarantee of the strongly convex stage:
    4 (L^2 + mu^2 D^2) / (mu (T+1))."""
    return 4.0 * (L * L + mu * mu * D * D) / (mu * (T + 1))


def strongly_convex_stage(
    reg: RegularizedProblem,
    T: int,
    rng_or_seed,
) -> Array:
    """Projected stochastic subgradient method tuned for strong convexity.

    Starts at the anchor ``reg.x_c`` and steps 2/(mu (t+1)); returns the
    run's ``weighted_mean``, the average of
    x_0..x_T with weight t+1 on x_t, whose expected objective gap on the
    regularized problem is at most `strongly_convex_gap_bound`.
    """
    alphas = 2.0 / (reg.mu * (np.arange(_integer("T", T) + 1) + 1.0))
    return run_averaged(reg.problem, reg.x_c, StepSchedule(alphas), rng_or_seed).weighted_mean


def pipeline_budget(base: CompositeProblem, rho: float, eps: float) -> int:
    """Per-stage horizon the pipeline's own certificate needs for target eps.

    Chains the three guarantees backward: the map-back bound costs mu*D =
    eps/2 plus a factor (lam+mu)/lam on the regularized envelope gradient;
    the tuned main run bounds the squared gradient by K/(T+1) with
    K = 4*(L+mu*D)*sqrt(2*lam*(L^2+mu^2 D^2)/mu) once the first stage has
    run T+1 steps.  Solving for the smallest admissible T gives a budget
    that grows as eps^(-5/2), which is the scale the analysis predicts.
    The base must be convex, as for `regularized_pipeline`.
    """
    L, D, mu, lam = _pipeline_constants(base, rho, eps)
    l_hat = L + mu * D
    big_k = 4.0 * l_hat * math.sqrt(2.0 * lam * (L * L + mu * mu * D * D) / mu)
    factor = (lam + mu) / lam
    budget = lambda: 4.0 * big_k * factor * factor / (eps * eps)
    return max(0, math.ceil(_formula("pipeline budget", budget)) - 1)


@dataclass(frozen=True)
class PipelineResult:
    """Output of the regularize -> strongly convex stage -> tuned run chain.

    ``total_oracle_calls`` is the budget 2 (T+1) that `pipeline_budget`
    sizes: the strongly convex stage makes T+1 calls and the tuned run
    stops at its output, after at most T+1 calls.
    """

    z: Array
    x_reg_star: Array
    mu: float
    lam: float
    gap_estimate_R: float
    gamma: float
    total_oracle_calls: int


def regularized_pipeline(
    base: CompositeProblem,
    rho: float,
    eps: float,
    T: int,
    rng_or_seed,
) -> PipelineResult:
    """Full convex-case pipeline targeting E||grad envelope|| <= eps.

    Regularizes with mu = eps/(2D) and lam = 2 rho - mu (so lam + mu =
    2 rho) around the anchor x_c, the projection of the origin onto dom r,
    runs the strongly convex stage for T+1 calls, then the main method on
    a (T+1)-step schedule with gamma tuned to the stage-one gap, up to its
    output, and maps the result back.  The returned z targets the base problem's envelope
    with coefficient 2 rho.  Requires eps <= 2 rho D.
    """
    L, D, mu, lam = _pipeline_constants(base, rho, eps)
    _in_range("T", _integer("T", T), 0, ends="[)")
    x_c = base.regularizer.project_domain(np.zeros(base.dim))
    reg = RegularizedProblem(base, mu, x_c)
    # the main run's schedule is built, and so checked, before either stage runs
    R = strongly_convex_gap_bound(L, mu, D, T)
    # the regularized problem is treated as (lam/2)-weakly convex so the
    # measured envelope has coefficient lam, matching map_back
    L_hat = L + mu * D
    gamma = optimal_gamma(R, lam / 2.0, L_hat)
    gamma = min(gamma, math.sqrt(T + 1) / lam)
    schedule = StepSchedule.constant(gamma, T, rho_hat=lam)

    rng = _generator(rng_or_seed)
    kid1, kid2 = rng.spawn(2)
    y0 = strongly_convex_stage(reg, T, kid1)
    run = run_psgm(reg.problem, y0, schedule, kid2)
    z = map_back(run.x_star, mu, lam, reg.x_c)
    return PipelineResult(
        z=z,
        x_reg_star=run.x_star,
        mu=mu,
        lam=lam,
        gap_estimate_R=R,
        gamma=gamma,
        total_oracle_calls=2 * (T + 1),
    )
