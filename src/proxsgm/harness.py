"""Sweep driver: run trials, evaluate envelope gradients, check bounds.

A sweep fixes a problem and a step rule, runs the method across horizons
and seeds, evaluates the envelope gradient at each returned iterate, and
compares per-horizon means (with normal-approximation confidence
intervals) against the matching theoretical right side.  Results land in
a CSV with a frozen column set; `fit_rate` extracts the empirical decay
exponent from the per-horizon means.

The gap constant in every bound involves the unknown min phi; sweeps use
the best objective value ever observed (including the planted point's
value when the problem has one) as its stand-in, which can only shrink
the computed bound, so a bound check that passes with the surrogate would
also pass with the true constant.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .boost import optimal_gamma
from .core import _LENGTH_MAX, CompositeProblem, _formula, _in_range, _integer
from .moreau import InnerAccuracyError, moreau_prox
from .problems import default_x0, problem_from_id
from .solver import StepSchedule, run_psgm

Array = np.ndarray

CSV_COLUMNS = (
    "problem_id",
    "family",
    "d",
    "m",
    "T",
    "seed",
    "gamma",
    "rho",
    "rho_hat",
    "lambda",
    "grad_norm_sq",
    "envelope_value_x0",
    "phi_best",
    "bound_value",
    "bound_satisfied",
    "oracle_calls",
    "inner_tol_achieved",
    "wall_ms",
)

BOUND_VARIANTS = ("ProjectedThm21", "ProximalThm26", "Cor22", "Cor27", "SmoothCor29")


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, invalid value, ...)."""


# ---------------------------------------------------------------------------
# theoretical bounds


@dataclass(frozen=True)
class BoundInputs:
    """Constants a bound formula may consume.

    ``delta`` upper-bounds envelope(x0) - min phi.  Constant-step variants
    need gamma and T; the general variants need the explicit step sequence.
    A negative or non-finite delta, rho, rho_hat, L or sigma, a gamma or
    step that is not finite and positive, or a T that is negative or not an
    integer raises ``ValueError``.
    """

    delta: float
    rho: float
    rho_hat: float | None = None
    L: float | None = None
    sigma: float | None = None
    gamma: float | None = None
    T: int | None = None
    alphas: Array | None = None

    def __post_init__(self) -> None:
        # a negative or non-finite constant makes a formula's value no bound
        for name in ("delta", "rho", "rho_hat", "L", "sigma"):
            _in_range(name, getattr(self, name), ends="[)")
        _in_range("gamma", self.gamma)
        if self.T is not None:
            _integer("T", self.T)
        _in_range("T", self.T, 0, ends="[)")
        _in_range("step sequence", self.alphas)


def _need(inputs: BoundInputs, *names: str) -> None:
    missing = [n for n in names if getattr(inputs, n) is None]
    if missing:
        raise ValueError(f"bound variant needs {', '.join(missing)}")


def _sums(inputs: BoundInputs, cap: float = math.inf) -> tuple[float, float]:
    """Sums of the steps and of their squares, each step at most ``cap``."""
    a = _in_range("step sequence", np.asarray(inputs.alphas, dtype=float), 0.0, cap, "(]")
    _in_range("number of steps", a.size, 1, ends="[)")
    return float(a.sum()), float((a**2).sum())


def theoretical_bound(variant: str, inputs: BoundInputs) -> float:
    """Exact right side of the selected guarantee on E||grad envelope||^2.

    Step-range preconditions are validated per variant.  The constant-step
    corollaries state a horizon-free cap gamma <= 1/(2 rho); what their
    parent theorem needs at a fixed horizon is alpha = gamma/sqrt(T+1) <=
    1/(2 rho), and that weaker per-horizon form is what gets enforced, so
    tuned step sizes with gamma above the cap remain admissible whenever
    every actual step is.  A value beyond the floats raises ``ValueError``,
    as ``BoundInputs`` does for a constant out of range.
    """
    return _formula(f"{variant} bound", lambda: _bound(variant, inputs))


def _bound(variant: str, inputs: BoundInputs) -> float:
    d = inputs.delta
    rho = inputs.rho

    if variant == "ProjectedThm21":
        _need(inputs, "rho_hat", "L", "alphas")
        rh = _in_range("rho_hat", inputs.rho_hat, rho)
        s1, s2 = _sums(inputs)
        return (rh / (rh - rho)) * (d + 0.5 * rh * inputs.L**2 * s2) / s1

    if variant == "ProximalThm26":
        _need(inputs, "rho_hat", "L", "alphas")
        _in_range("rho", rho)
        rh = _in_range("rho_hat", inputs.rho_hat, rho, 2.0 * rho + 1e-12, "(]")
        s1, s2 = _sums(inputs, 1.0 / rh + 1e-15)
        return (rh / (rh - rho)) * (d + rh * inputs.L**2 * s2) / s1

    if variant in ("Cor22", "Cor27"):
        _need(inputs, "L", "gamma", "T")
        _in_range("rho", rho)
        g, T = inputs.gamma, inputs.T
        if variant == "Cor27":
            _in_range("step gamma/sqrt(T+1)", g / math.sqrt(T + 1), 0.0, 0.5 / rho + 1e-15, "(]")
        return 2.0 * (d + rho * inputs.L**2 * g * g) / (g * math.sqrt(T + 1))

    if variant == "SmoothCor29":
        _need(inputs, "rho_hat", "sigma", "alphas")
        rh = _in_range("rho_hat", inputs.rho_hat, rho)
        s1, s2 = _sums(inputs, 1.0 / rh + 1e-15)
        return (2.0 * rh / (rh - rho)) * (d + 0.5 * rh * inputs.sigma**2 * s2) / s1

    raise ValueError(f"unknown bound variant {variant!r}; expected one of {BOUND_VARIANTS}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    problem_id: str
    horizons: tuple[int, ...]
    gamma: float | str  # positive real or "optimal"
    output: str = "sweep.csv"
    rho_hat: float | None = None
    lam: float | None = None
    n_seeds: int = 50
    inner_tol: float = 1e-6
    # No sweep reads this; it stays only because bench/workloads.py passes
    # workers=1, until the benchmark's next version drops it.
    workers: int = 1

    def __post_init__(self):
        for t in self.horizons:
            _integer("horizons", t, ConfigError)
        if _integer("workers", self.workers, ConfigError) != 1:
            raise ConfigError(f"workers must be 1, got {self.workers}")
        hs = tuple(int(t) for t in self.horizons)
        _in_range("number of horizons", len(hs), 1, ends="[)", error=ConfigError)
        _in_range("horizons", hs, 0, ends="[)", error=ConfigError)
        _in_range("horizon increments", np.diff(hs), 0, error=ConfigError)
        object.__setattr__(self, "horizons", hs)
        if isinstance(self.gamma, str) and self.gamma != "optimal":
            raise ConfigError('gamma must be a positive real or "optimal"')
        # named as in a .cfg file
        for key, val in (("gamma", None if self.gamma == "optimal" else self.gamma),
                         ("inner_tol", self.inner_tol), ("rho_hat", self.rho_hat),
                         ("lambda", self.lam)):
            _in_range(key, val, error=ConfigError)
        _in_range("n_seeds", _integer("n_seeds", self.n_seeds, ConfigError), 1, ends="[)",
                  error=ConfigError)


_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "problem_id": str,
    "horizons": lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    "gamma": lambda s: s if s == "optimal" else float(s),
    "output": str,
    "rho_hat": float,
    "lambda": float,
    "n_seeds": int,
    "inner_tol": float,
}

_CONFIG_ATTR = {"lambda": "lam"}


def parse_config_file(path: str | Path) -> ExperimentConfig:
    """Flat key=value config; '#' starts a comment; unknown keys rejected."""
    values: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr = _CONFIG_ATTR.get(key, key)
        if attr in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[attr] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for required in ("problem_id", "horizons", "gamma"):
        if required not in values:
            raise ConfigError(f"{path}: missing required key {required!r}")
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class TrialRow:
    T: int
    seed: int
    grad_norm_sq: float
    phi_at_star: float
    oracle_calls: int
    inner_tol_achieved: float
    wall_ms: float


@dataclass(frozen=True)
class HorizonStats:
    T: int
    mean: float
    ci_half_width: float
    bound_value: float
    bound_satisfied: bool
    # trials whose envelope solve ended above config.inner_tol; their
    # grad_norm_sq is still pooled into ``mean``
    n_inner_missed: int


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    family: str
    d: int
    m: int
    gamma: float
    rho: float
    rho_hat: float
    lam: float
    variant: str
    envelope_value_x0: float
    phi_best: float
    rows: tuple[TrialRow, ...]
    per_horizon: tuple[HorizonStats, ...]
    slope: float | None
    slope_stderr: float | None


def _resolve_parameters(
    problem: CompositeProblem, config: ExperimentConfig
) -> tuple[float, float, float]:
    """(gamma, rho_hat, lam) with defaults and admissibility checks."""
    rho = problem.rho
    rho_hat = config.rho_hat
    if rho_hat is None:
        rho_hat = 2.0 * rho if rho > 0 else 1.0
    _in_range("rho_hat", rho_hat, rho, error=ConfigError)
    lam = config.lam if config.lam is not None else 1.0 / rho_hat
    _in_range("lambda", lam, 1.0 / _LENGTH_MAX, 1.0 / rho if rho > 0 else math.inf,
              error=ConfigError)

    if config.gamma == "optimal":
        L, D = problem.lipschitz_L, problem.domain_diameter
        if L is None or D is None:
            raise ConfigError('gamma="optimal" needs lipschitz_L and domain_diameter')
        rho_eff = rho_hat / 2.0
        gamma = optimal_gamma(min(rho_eff * D * D, D * L), rho_eff, L)
    else:
        gamma = float(config.gamma)
    return gamma, rho_hat, lam


def run_sweep(
    config: ExperimentConfig,
    problem: CompositeProblem | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> ExperimentReport:
    """Execute the sweep and (when configured) write the CSV report.

    Each horizon T gets one constant schedule gamma / sqrt(T+1), built
    before any solve: a step above 1/rho_hat raises ``ConfigError`` naming
    gamma and T.  Every trial of that horizon runs it, and the SmoothCor29
    bound reads its steps.  Trials run one after another in (T, seed)
    order, each with its own generator keyed by (seed, T) and the
    instance's data seed (0 without ``meta``).  Inner-solver shortfalls are
    recorded in inner_tol_achieved rather than aborting the sweep, and each
    horizon counts them in ``n_inner_missed``.  ``clock`` exists so tests
    can pin wall_ms; every other column is bit-deterministic for a fixed
    config.
    """
    if problem is None:
        problem = problem_from_id(config.problem_id)
    problem.require_deterministic()
    gamma, rho_hat, lam = _resolve_parameters(problem, config)
    schedules = {}
    for T in config.horizons:
        try:
            schedules[T] = StepSchedule.constant(gamma, T, rho_hat=rho_hat)
        except ValueError as exc:
            raise ConfigError(f"gamma={gamma!r} at T={T}: {exc}") from None
    x0 = default_x0(problem)

    variant = "SmoothCor29" if problem.smooth else "Cor27"
    envelope_x0 = moreau_prox(problem, x0, lam, config.inner_tol).envelope_value
    phi_x0 = problem.phi(x0)

    problem_key = problem.meta.seed if problem.meta is not None else 0

    def one_trial(T: int, seed: int) -> TrialRow:
        t_start = clock()
        rng = np.random.default_rng([seed, T, problem_key])
        run = run_psgm(problem, x0, schedules[T], rng)
        try:
            pt = moreau_prox(problem, run.x_star, lam, config.inner_tol)
        except InnerAccuracyError as exc:
            pt = exc.point
        gn = float(np.linalg.norm(pt.envelope_grad))
        return TrialRow(
            T=T,
            seed=seed,
            grad_norm_sq=gn * gn,
            phi_at_star=problem.phi(run.x_star),
            oracle_calls=run.oracle_calls,
            inner_tol_achieved=pt.inner_tol,
            wall_ms=(clock() - t_start) * 1e3,
        )

    rows = tuple(one_trial(T, s) for T in config.horizons for s in range(config.n_seeds))

    phi_best = min(min(r.phi_at_star for r in rows), phi_x0)
    if problem.planted_point is not None:
        phi_best = min(phi_best, problem.phi(problem.planted_point))
    # the true gap envelope(x0) - min phi is >= 0 and this surrogate lies at
    # or below it, so the clipped value does too
    delta = max(envelope_x0 - phi_best, 0.0)

    per_horizon = []
    for T in config.horizons:
        horizon_rows = [r for r in rows if r.T == T]
        vals = np.array([r.grad_norm_sq for r in horizon_rows])
        mean = float(vals.mean())
        sem = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        if variant == "SmoothCor29":
            inputs = BoundInputs(delta=delta, rho=problem.rho, rho_hat=rho_hat,
                                 sigma=problem.sigma, alphas=schedules[T].alphas)
        else:
            inputs = BoundInputs(delta=delta, rho=rho_hat / 2.0, L=problem.lipschitz_L,
                                 gamma=gamma, T=T)
        bound = theoretical_bound(variant, inputs)
        per_horizon.append(
            HorizonStats(
                T=T,
                mean=mean,
                ci_half_width=1.96 * sem,
                bound_value=bound,
                bound_satisfied=mean - 1.96 * sem <= bound,
                n_inner_missed=sum(
                    r.inner_tol_achieved > config.inner_tol for r in horizon_rows
                ),
            )
        )
    per_horizon = tuple(per_horizon)

    slope = stderr = None
    if len(config.horizons) >= 3:
        slope, stderr = fit_rate(
            [h.T for h in per_horizon], [h.mean for h in per_horizon]
        )

    meta = problem.meta
    report = ExperimentReport(
        config=config,
        family=meta.family if meta is not None else config.problem_id,
        d=meta.d if meta is not None else problem.dim,
        m=meta.m if meta is not None else 0,
        gamma=gamma,
        rho=problem.rho,
        rho_hat=rho_hat,
        lam=lam,
        variant=variant,
        envelope_value_x0=envelope_x0,
        phi_best=phi_best,
        rows=rows,
        per_horizon=per_horizon,
        slope=slope,
        slope_stderr=stderr,
    )
    if config.output:
        write_csv(report, config.output)
    return report


def write_csv(report: ExperimentReport, path: str | Path) -> None:
    stats = {h.T: h for h in report.per_horizon}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in report.rows:
            h = stats[r.T]
            writer.writerow(
                [
                    report.config.problem_id,
                    report.family,
                    report.d,
                    report.m,
                    r.T,
                    r.seed,
                    repr(report.gamma),
                    repr(report.rho),
                    repr(report.rho_hat),
                    repr(report.lam),
                    repr(r.grad_norm_sq),
                    repr(report.envelope_value_x0),
                    repr(report.phi_best),
                    repr(h.bound_value),
                    h.bound_satisfied,
                    r.oracle_calls,
                    repr(r.inner_tol_achieved),
                    repr(r.wall_ms),
                ]
            )


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(horizons, means) -> tuple[float, float]:
    """Least-squares slope of log(mean) vs log(T), with its standard error.

    Needs at least three horizons; the standard error is the classical
    sqrt(RSS / (n-2) / Sxx) of simple linear regression.
    """
    T = np.asarray(horizons, dtype=float)
    y = np.asarray(means, dtype=float)
    _in_range("number of horizons", T.size, 3, ends="[)")
    # positive for a log-log fit
    _in_range("horizons", T)
    _in_range("means", y)
    lx, ly = np.log(T), np.log(y)
    lx_c = lx - lx.mean()
    sxx = float(lx_c @ lx_c)
    slope = float(lx_c @ (ly - ly.mean()) / sxx)
    resid = ly - (ly.mean() + slope * lx_c)
    stderr = math.sqrt(float(resid @ resid) / (T.size - 2) / sxx)
    return slope, stderr


def fit_rate_from_csv(path: str | Path) -> tuple[float, float]:
    by_T: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_T.setdefault(int(row["T"]), []).append(float(row["grad_norm_sq"]))
    horizons = sorted(by_T)
    means = [float(np.mean(by_T[T])) for T in horizons]
    return fit_rate(horizons, means)
