"""References the envelope solves are checked against, owned by the tests.

For phi = g + r and 0 < lam < 1/rho, ``proxsgm.moreau.moreau_prox`` solves

    min_y  psi(y) = g(y) + r(y) + ||y - x||^2 / (2 lam)

iteratively.  The references here solve the same subproblem without its
search code: ``moreau_grid_oracle`` by exhaustive search on refined grids
at dim <= 2, and ``separable_prox`` exactly, at any dim, on the one
instance ``separable_problem`` builds.  Each writes psi with its own
expression, not ``moreau._psi``; the grid takes from ``moreau`` only
``_validate_lam`` and ``_finish_point``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from proxsgm.core import CompositeProblem, _in_range
from proxsgm.moreau import MoreauPoint, _finish_point, _validate_lam
from proxsgm.problems import _PHASE, _finite_sum
from proxsgm.prox import ProxKind, box_indicator

Array = np.ndarray

# Grid rows whose subproblem values are evaluated at once: a block's
# temporaries stay cache-sized where a whole 801^2 grid's take 154 MB.
_GRID_BLOCK = 4096

_EPS = float(np.finfo(float).eps)
# ulps of roundoff in each compared value of psi
_ROUNDOFF = 16


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive-search control: points per axis and the number of
    refinement passes around the best cell."""

    points_per_dim: int = 241
    n_refine: int = 1


def _r_lipschitz(problem: CompositeProblem, center: Array, reach: float) -> float:
    """Lipschitz constant of r on dom r within ``reach`` of ``center``: 0 for
    r = 0 or an indicator, constant on its domain."""
    r = problem.regularizer
    if r.kind is ProxKind.L1:
        return r.weight * math.sqrt(problem.dim)
    if r.kind is ProxKind.QUADRATIC:
        return r.weight * (float(np.linalg.norm(center - r.center)) + reach)
    return 0.0


def _bracket(t: Array, vals: Array, k: int) -> float:
    """Half-width around t[k] of an interval that holds the minimizer of a
    convex psi whose values on the increasing grid t are ``vals``, least at k.

    A grid point whose value exceeds the least by more than the roundoff of
    both has the larger true value, so by convexity the minimizer lies on
    t[k]'s side of it; an infinite value marks a point outside dom r.
    """
    above = np.isinf(vals) | (vals - vals[k] > _ROUNDOFF * _EPS * (
        2.0 + abs(vals[k]) + np.abs(vals)))
    left = np.flatnonzero(above[:k])
    right = np.flatnonzero(above[k + 1:])
    lo = t[left[-1]] if left.size else t[0]
    hi = t[k + 1 + right[0]] if right.size else t[-1]
    return float(max(t[k] - lo, hi - t[k]))


def moreau_grid_oracle(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    grid: GridSpec = GridSpec(),
) -> MoreauPoint:
    """Brute-force proximal point for dim <= 2 problems, with a gap that
    bounds psi(x_hat) - min psi.

    Each level takes the least psi over the n^d points of a cube of centre b
    and half-width hw, spaced step = 2 hw / (n - 1).  While the minimizer z*
    lies in the cube, the level's point p has psi(p) - psi(z*) <= gap:

    * ``problem.smooth`` and r = 0 or an indicator: gap = (1/lam + rho) d
      step^2 / 8, the grid point nearest z* lying within step sqrt(d) / 2.
      This reads rho as the Lipschitz constant of grad g, as ``smooth_ls``
      declares it (rho = lambda_max(H)), and takes grad psi(z*) = 0 there,
      so a constraint active at z* leaves a first-order term it omits.
    * otherwise gap = L_psi h, with ``lipschitz_L`` required.  Each point of
      dom r in the cube lies within h = step sqrt(d) of a feasible grid point
      (round each coordinate to a grid value inside the box, or to the
      nearest one without a domain; `test_reference.py` checks a disc), and
      psi is L_psi-Lipschitz on dom r in the cube: L_psi = ``lipschitz_L`` +
      r's constant there (0 for an indicator) + (||x - b|| + sqrt(d) hw) / lam.

    Both add 16 eps (1 + |psi(p)|) for the roundoff of the compared values.
    The first cube is centred at the projection c of x onto dom r, with hw
    the larger of lam L + ||x - c|| + 1/2 and (||zeta|| + ||s||) / mu, where
    mu = 1/lam - rho, zeta = ``g_full_subgradient(c)`` and s is an
    r-subgradient at c: weak convexity and the mu-strong convexity of psi
    put z* that close to c.  Strong convexity puts z* within sqrt(2 gap / mu)
    of p: the next cube is centred at p with that half-width, or less where
    `_bracket` gives less in one dimension, and at least one step.  Refuses
    dim > 2 with ``ValueError``.
    """
    problem.require_deterministic()
    _validate_lam(problem, lam)
    _in_range("dim", problem.dim, 1, 2, "[]")
    _in_range("points_per_dim", grid.points_per_dim, 3, ends="[)")
    # a negative count searches no grid, yet the gap below would be reported
    _in_range("n_refine", grid.n_refine, 0, ends="[)")
    r = problem.regularizer
    # the smooth bound needs psi differentiable at z*: no kink of r
    smooth_psi = problem.smooth and r.kind in (ProxKind.ZERO, ProxKind.BOX, ProxKind.BALL)
    L = problem.lipschitz_L
    if L is None and not smooth_psi:
        raise ValueError("the grid bounds a nonsmooth gap only with a certified lipschitz_L")
    x = np.asarray(x, dtype=float)
    d, n = problem.dim, grid.points_per_dim
    mu = 1.0 / lam - problem.rho
    first = r.project_domain(x)
    zeta = float(np.linalg.norm(problem.g_full_subgradient(first)))
    hw = max(
        lam * (zeta + 1.0 if L is None else L) + float(np.linalg.norm(x - first)) + 0.5,
        (zeta + float(np.linalg.norm(r.subdiff_select(first)))) / mu,
    )
    center = first
    for level in range(grid.n_refine + 1):
        axes = [np.linspace(center[j] - hw, center[j] + hw, n) for j in range(d)]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        # rows are independent, so a block's values are the whole grid's;
        # a later block wins only below the minimum so far, and a NaN (the
        # whole grid's argmin) ends the scan, as np.argmin picks the first
        scanned = []
        for row in range(0, len(pts), _GRID_BLOCK):
            block = pts[row:row + _GRID_BLOCK]
            vals = (
                problem.g_value(block)
                + r.value(block)
                + np.sum((block - x) ** 2, axis=1) / (2.0 * lam)
            )
            scanned.append(vals)
            j = int(np.argmin(vals))
            if row == 0 or not vals[j] >= v_best:
                k, v_best = row + j, float(vals[j])
            if math.isnan(v_best):
                break
        if v_best == math.inf:
            raise ValueError("grid window contains no feasible point")
        if not math.isfinite(v_best):
            what = "NaN" if math.isnan(v_best) else "unbounded below (-inf)"
            raise ValueError(f"subproblem value is {what} at grid point {pts[k]}")
        step = 2.0 * hw / (n - 1)
        if smooth_psi:
            gap = (1.0 / lam + problem.rho) * d * step**2 / 8.0
        else:
            reach = math.sqrt(d) * hw  # the cube's half-diagonal
            L_psi = L + _r_lipschitz(problem, center, reach) + (
                float(np.linalg.norm(x - center)) + reach) / lam
            gap = L_psi * step * math.sqrt(d)
        gap += _ROUNDOFF * _EPS * (1.0 + abs(v_best))
        radius = math.sqrt(2.0 * gap / mu)
        if d == 1:
            radius = min(radius, _bracket(pts[:, 0], np.concatenate(scanned), k))
        center = pts[k]
        hw = max(radius, step)
    return _finish_point(problem, x, lam, center, gap)


def separable_problem(d: int) -> CompositeProblem:
    """g(y) = (1/d) sum_j |y_j^2 - 1| on the box [-2, 2]^d, rho = 2, L = 4.

    Phase retrieval's loss with A = I and b = 1: to the solver one nonsmooth
    g with a kink surface in every coordinate, yet its envelope subproblem
    splits into d one-dimensional ones, which `separable_prox` solves.
    """
    box = box_indicator(np.full(d, -2.0), np.full(d, 2.0))
    return _finite_sum(np.eye(d), np.ones(d), *_PHASE, regularizer=box, rho=2.0, lipschitz_L=4.0)


def separable_psi(z: Array, x: Array, lam: float) -> Array:
    """The terms |z_j^2 - 1| / d + (z_j - x_j)^2 / (2 lam) of psi at z in the
    box, for `separable_problem(d)`, d the length of x; their sum is psi."""
    return np.abs(z * z - 1.0) / len(x) + (z - x) ** 2 / (2.0 * lam)


def separable_prox(x: Array, lam: float) -> tuple[Array, float]:
    """Exact proximal point and least psi of `separable_problem(len(x))`.

    Coordinate j minimizes |z^2 - 1| / d + (z - x_j)^2 / (2 lam) over
    [-2, 2].  With c = 2 lam / d < 1 that is a strictly convex quadratic on
    each of [-2, -1], [-1, 1] and [1, 2], least at its piece's ends or at its
    stationary point: x_j / (1 + c) on |z| >= 1, x_j / (1 - c) on |z| <= 1.
    So the minimum is the least of at most six candidates, the ends +-1 and
    +-2 and each stationary point that lies on its own piece.
    """
    x = np.asarray(x, dtype=float)
    c = 2.0 * lam / len(x)
    if not 0.0 < c < 1.0:
        raise ValueError(f"separable_prox needs 0 < lam < d / 2, got lam = {lam}")
    outer, inner = x / (1.0 + c), x / (1.0 - c)
    ends = np.array([-2.0, -1.0, 1.0, 2.0])[:, None] + np.zeros_like(x)
    # a stationary point off its piece is replaced by an end, already listed
    cands = np.vstack([
        ends,
        np.where((1.0 <= np.abs(outer)) & (np.abs(outer) <= 2.0), outer, 1.0),
        np.where(np.abs(inner) <= 1.0, inner, 1.0),
    ])
    terms = separable_psi(cands, x, lam)
    k = np.argmin(terms, axis=0)
    cols = np.arange(len(x))
    return cands[k, cols], float(terms[k, cols].sum())
