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
from .core import CompositeProblem, _formula, _in_range, _integer
from .moreau import InnerAccuracyError, MoreauPoint, moreau_prox
from .problems import default_x0, problem_from_id
from .solver import LEMMAS, StepSchedule, constant_step, lemma_of, run_psgm

Array = np.ndarray

# each column of a sweep CSV and its cell, read from the report, a trial's row
# r and the stats h of its horizon; floats are written as their repr
_CSV_CELLS = (
    ("problem_id", lambda rep, r, h: rep.config.problem_id),
    ("family", lambda rep, r, h: rep.family),
    ("d", lambda rep, r, h: rep.d),
    ("m", lambda rep, r, h: rep.m),
    ("T", lambda rep, r, h: r.T),
    ("seed", lambda rep, r, h: r.seed),
    ("gamma", lambda rep, r, h: repr(rep.gamma)),
    ("rho", lambda rep, r, h: repr(rep.rho)),
    ("rho_hat", lambda rep, r, h: repr(rep.rho_hat)),
    ("lambda", lambda rep, r, h: repr(rep.lam)),
    ("grad_norm_sq", lambda rep, r, h: repr(r.grad_norm_sq)),
    ("envelope_value_x0", lambda rep, r, h: repr(rep.envelope_value_x0)),
    ("phi_best", lambda rep, r, h: repr(rep.phi_best)),
    ("bound_value", lambda rep, r, h: repr(h.bound_value)),
    ("bound_satisfied", lambda rep, r, h: h.bound_satisfied),
    ("oracle_calls", lambda rep, r, h: r.oracle_calls),
    ("inner_tol_achieved", lambda rep, r, h: repr(r.inner_tol_achieved)),
    ("wall_ms", lambda rep, r, h: repr(r.wall_ms)),
)
CSV_COLUMNS = tuple(name for name, _ in _CSV_CELLS)


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, invalid value, ...)."""


# ---------------------------------------------------------------------------
# theoretical bounds


@dataclass(frozen=True)
class BoundInputs:
    """Constants a bound formula may consume.

    ``delta`` upper-bounds envelope(x0) - min phi.  Every variant reads its
    steps as gamma and T: the T + 1 constant steps gamma/sqrt(T+1).
    A negative or non-finite delta, rho, rho_hat, L or sigma, a gamma that
    is not finite and positive, or a T that is negative or not an integer
    raises ``ValueError``.
    """

    delta: float
    rho: float
    rho_hat: float | None = None
    L: float | None = None
    sigma: float | None = None
    gamma: float | None = None
    T: int | None = None

    def __post_init__(self) -> None:
        # a negative or non-finite constant makes a formula's value no bound
        for name in ("delta", "rho", "rho_hat", "L", "sigma"):
            _in_range(name, getattr(self, name), ends="[)")
        _in_range("gamma", self.gamma)
        if self.T is not None:
            _integer("T", self.T)
        _in_range("T", self.T, 0, ends="[)")


# theorem: (c, k, M, caps) of c rho_hat/(rho_hat - rho) (delta + k rho_hat M^2 sum alpha^2) /
# sum alpha, its row (a, b, M, caps) of `solver.LEMMAS` summed: c = 2/a, k = b/2
_THEOREMS = {name: (2.0 / a, b / 2.0, m, *caps) for name, (a, b, m, *caps) in LEMMAS.items()}
# corollary: its theorem at rho_hat = 2 rho and T + 1 steps gamma/sqrt(T+1)
COROLLARIES = {"Cor22": "ProjectedThm21", "Cor27": "ProximalThm26"}
BOUND_VARIANTS = (*_THEOREMS, *COROLLARIES)


def theoretical_bound(variant: str, inputs: BoundInputs) -> float:
    """Exact right side of the selected guarantee on E||grad envelope||^2.

    Every variant reads the T + 1 constant steps gamma/sqrt(T+1) as gamma
    and T, summed in closed form (gamma sqrt(T+1) and gamma^2) at any T, and
    a theorem also reads rho_hat.  A corollary is its theorem at rho_hat =
    2 rho > 0 under that theorem's caps.  A cap that fails, or a value
    beyond the floats, raises ``ValueError``.
    """
    return _formula(f"{variant} bound", lambda: _bound(variant, inputs))


def _bound(variant: str, inputs: BoundInputs) -> float:
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}; expected one of {BOUND_VARIANTS}")
    rho, corollary = inputs.rho, variant in COROLLARIES
    c, k, m, rho_hat_capped, steps_capped = _THEOREMS[COROLLARIES.get(variant, variant)]
    needs = [m] + ([] if corollary else ["rho_hat"]) + ["gamma", "T"]
    missing = [n for n in needs if getattr(inputs, n) is None]
    if missing:
        raise ValueError(f"bound variant needs {', '.join(missing)}")
    rh = _in_range("rho_hat = 2 rho" if corollary else "rho_hat",
                   2.0 * rho if corollary else inputs.rho_hat,
                   rho, 2.0 * rho if rho_hat_capped else math.inf, "(]")
    g, T = inputs.gamma, inputs.T
    constant_step(g, T, rh if steps_capped else None)
    s1, s2 = g * math.sqrt(T + 1), g * g
    return (c * rh / (rh - rho)) * (inputs.delta + k * rh * getattr(inputs, m)**2 * s2) / s1


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep; its .cfg keys are problem_id, horizons, gamma, output, n_seeds
    and inner_tol.  rho_hat and lambda are derived, not keys (`_resolve_parameters`).
    """

    problem_id: str
    horizons: tuple[int, ...]
    gamma: float | str  # positive real or "optimal"
    output: str = "sweep.csv"
    n_seeds: int = 50
    inner_tol: float = 1e-6
    # No sweep reads this; it stays only because bench/workloads.py passes
    # workers=1, until the benchmark's next version drops it.
    workers: int = 1

    def __post_init__(self):
        try:
            hs = tuple(self.horizons)
        except TypeError:
            raise ConfigError("horizons must be a sequence of integers, got "
                              f"{type(self.horizons).__name__}") from None
        for t in hs:
            _integer("horizons", t, ConfigError)
        if _integer("workers", self.workers, ConfigError) != 1:
            raise ConfigError(f"workers must be 1, got {self.workers}")
        hs = tuple(int(t) for t in hs)
        _in_range("number of horizons", len(hs), 1, ends="[)", error=ConfigError)
        _in_range("horizons", hs, 0, ends="[)", error=ConfigError)
        _in_range("horizon increments", np.diff(hs), 0, error=ConfigError)
        object.__setattr__(self, "horizons", hs)
        if isinstance(self.gamma, str) and self.gamma != "optimal":
            raise ConfigError('gamma must be a positive real or "optimal"')
        # named as in a .cfg file
        for key, val in (("gamma", None if self.gamma == "optimal" else self.gamma),
                         ("inner_tol", self.inner_tol)):
            # float(True) is 1.0: a bool would run as that value
            if isinstance(val, bool):
                raise ConfigError(f"{key} must be a real number, got bool")
            _in_range(key, val, error=ConfigError)
        _in_range("n_seeds", _integer("n_seeds", self.n_seeds, ConfigError), 1, ends="[)",
                  error=ConfigError)


_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "problem_id": str,
    "horizons": lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    "gamma": lambda s: s if s == "optimal" else float(s),
    "output": str,
    "n_seeds": int,
    "inner_tol": float,
}


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
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for required in ("problem_id", "horizons", "gamma"):
        if required not in values:
            raise ConfigError(f"{path}: missing required key {required!r}")
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class TrialRow:
    """One trial of a sweep: the run's output x_{t*} and its envelope solve.

    ``oracle_calls`` counts the calls the run made, t*, not the horizon's
    T+1: the run stops at its output.
    """

    T: int
    seed: int
    grad_norm_sq: float
    phi_at_star: float
    oracle_calls: int
    inner_tol_achieved: float
    wall_ms: float


@dataclass(frozen=True)
class HorizonStats:
    """The trials of one horizon against the bound at that horizon.

    ``bound_value`` evaluates the bound at the surrogate gap Delta =
    envelope(x0) - eps(x0) - (least phi observed), clipped at 0, where
    eps(x0) is the certified gap of the x0 envelope solve.  It lies at or
    below the true gap phi_lam(x0) - min phi.  The bound grows with Delta,
    so ``bound_value`` is at most the theorem's right side: a stricter
    test than the theorem, not its bound.
    """

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
    inner_tol_x0: float
    phi_best: float
    rows: tuple[TrialRow, ...]
    per_horizon: tuple[HorizonStats, ...]
    slope: float | None
    slope_stderr: float | None


def _resolve_parameters(
    problem: CompositeProblem, config: ExperimentConfig
) -> tuple[float, float, float]:
    """(gamma, rho_hat, lam) with rho_hat = 2 rho (1 for convex g) and lam =
    1/rho_hat: the constants at which the corollaries are stated."""
    rho = problem.rho
    rho_hat = 2.0 * rho if rho > 0 else 1.0
    lam = 1.0 / rho_hat

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

    rho_hat and the envelope parameter lam = 1/rho_hat come from
    `_resolve_parameters`.  Each horizon T gets one constant schedule
    gamma / sqrt(T+1), built before any solve: a step above 1/rho_hat
    raises ``ConfigError`` naming gamma and T.  Every trial of that
    horizon runs it up to the trial's output index t* (`run_psgm`), and
    its bound reads the same gamma and T.  Trials run one after another
    in (T, seed) order, each with its own generator keyed by (seed, T) and
    the instance's data seed (0 without ``meta``).  Inner-solver
    shortfalls, at x0 as at a trial's output, do not abort the sweep: a
    trial records its own in inner_tol_achieved, each horizon counts them
    in ``n_inner_missed``, and Delta subtracts the x0 solve's certified
    gap, ``inner_tol_x0``.  An ``output`` whose directory does not exist
    raises ``ConfigError`` before any solve; one that cannot be written
    (permissions, a full disk) raises ``OSError`` at the write, after the
    trials.  ``clock`` exists so tests can pin wall_ms; every other column
    is bit-deterministic for a fixed config.
    """
    if config.output and not Path(config.output).parent.is_dir():
        raise ConfigError(f"output directory {str(Path(config.output).parent)!r} does not exist")
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

    theorem = lemma_of(problem)
    variant = next((c for c, t in COROLLARIES.items() if t == theorem), theorem)
    # a corollary derives rho_hat = 2 rho, so it reads rho_hat / 2 (1/2 for convex g)
    rho = rho_hat / 2.0 if variant in COROLLARIES else problem.rho

    # a solve that misses inner_tol still returns its point and certified gap
    def envelope_point(x: Array) -> MoreauPoint:
        try:
            return moreau_prox(problem, x, lam, config.inner_tol)
        except InnerAccuracyError as exc:
            return exc.point

    at_x0 = envelope_point(x0)
    phi_x0 = problem.phi(x0)

    problem_key = problem.meta.seed if problem.meta is not None else 0

    def one_trial(T: int, seed: int) -> TrialRow:
        t_start = clock()
        rng = np.random.default_rng([seed, T, problem_key])
        run = run_psgm(problem, x0, schedules[T], rng)
        pt = envelope_point(run.x_star)
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
    # envelope(x0) - eps(x0) <= phi_lam(x0), so this surrogate lies at or below
    # the true gap phi_lam(x0) - min phi >= 0, and so does the clipped value
    delta = max(at_x0.envelope_value - at_x0.inner_tol - phi_best, 0.0)

    per_horizon = []
    for T in config.horizons:
        horizon_rows = [r for r in rows if r.T == T]
        vals = np.array([r.grad_norm_sq for r in horizon_rows])
        mean = float(vals.mean())
        sem = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        bound = theoretical_bound(variant, BoundInputs(
            delta=delta, rho=rho, rho_hat=rho_hat, L=problem.lipschitz_L,
            sigma=problem.sigma, gamma=gamma, T=T))
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
        envelope_value_x0=at_x0.envelope_value,
        inner_tol_x0=at_x0.inner_tol,
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
            writer.writerow([cell(report, r, stats[r.T]) for _, cell in _CSV_CELLS])


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
