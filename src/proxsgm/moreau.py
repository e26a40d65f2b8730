"""Moreau envelope oracle: proximal points, envelope gradients, stationarity.

For phi = g + r with g rho-weakly convex and 0 < lam < 1/rho, the envelope
subproblem

    min_y  g(y) + r(y) + ||y - x||^2 / (2 lam)

is strongly convex with modulus 1/lam - rho, so it has a unique solution
x_hat, and the envelope gradient is exactly (x - x_hat) / lam.  Its norm is
the stationarity measure everything else in this package reports.

Two oracles are provided.  ``moreau_prox`` solves the subproblem
iteratively: bisection on the subgradient selection in one dimension,
proximal gradient for smooth g, and otherwise a subdifferential-sampling
polish, started on a cold solve after a 50-step deterministic proximal
subgradient warm-up.  The polish certifies the gap on its own; the
warm-up only moves its start off x.
``moreau_grid_oracle`` brute-forces low-dimensional subproblems on a
refined grid and exists so the iterative path can be cross-checked against
an implementation that shares none of its code.

Each polish round probes g-subgradients at y and at y + delta u_j in one
stacked call and finds the min-norm point v of their convex hull plus the
r-subdifferential: Wolfe's min-norm-point problem, reduced exactly to one
nonnegative least-squares problem and solved by a Lawson-Hanson active set
in numpy.  Certified accuracy is the subproblem optimality gap bound
(||v|| + rho delta)^2 / (2 (1/lam - rho)) plus the probe offset, sound
for rho-weakly convex g; the probe radius shrinks to the scale of
roundoff.  Backtracking along -v scores its 40 trial steps as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CapabilityError, CompositeProblem, row_dots

Array = np.ndarray

_EPS = float(np.finfo(float).eps)

# Proximal-gradient step budget of a smooth solve.
_SMOOTH_MAX_ITER = 1_000_000

# Subgradient steps before a cold nonsmooth polish.  Started at x itself,
# the polish can stall far above its tolerance (gap 3e-4 against 1e-10 on
# make_phase_retrieval(20, 2, 51) at x = (3, 3)).
_WARMUP_STEPS = 50


# Importing scipy.optimize costs more than importing the rest of the package,
# so it is imported on first call.  No solve path and no test calls either
# name; they stay only because bench/tracer.py wraps both, until the
# benchmark's next version times the exact QP instead.
def lsq_linear(*args, **kwargs):
    """``scipy.optimize.lsq_linear``, imported on first use."""
    from scipy.optimize import lsq_linear as solve

    return solve(*args, **kwargs)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as solve

    return solve(*args, **kwargs)


class ParameterError(ValueError):
    """Envelope parameter outside (0, 1/rho)."""


class DimensionError(ValueError):
    """Grid oracle restricted to dim <= 2."""


class InnerAccuracyError(RuntimeError):
    """Inner solver exhausted its budget above the requested gap.

    Carries the best point found so the caller can decide whether the
    achieved accuracy is still useful.
    """

    def __init__(self, message: str, point: "MoreauPoint"):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class MoreauPoint:
    """A proximal point of phi with its envelope data and certificate.

    ``envelope_grad`` is (x - x_hat) / lam exactly.  ``zeta_hat`` is the
    g-side certificate recovered from optimality: (x - x_hat)/lam minus the
    nearest r-subgradient.  ``inner_tol`` is the achieved optimality-gap
    bound of the subproblem solve.
    """

    x: Array
    lam: float
    x_hat: Array
    envelope_value: float
    envelope_grad: Array
    zeta_hat: Array
    inner_tol: float


@dataclass(frozen=True)
class StationarityReport:
    grad_norm: float
    grad_norm_sq: float
    dist_to_xhat: float
    subdiff_dist_bound: float
    exact_subdiff_dist: float | None = None


def _validate_lam(problem: CompositeProblem, lam: float) -> None:
    if lam <= 0:
        raise ParameterError("envelope parameter lam must be positive")
    if problem.rho > 0 and lam >= 1.0 / problem.rho:
        raise ParameterError(
            f"lam={lam} is not below 1/rho={1.0 / problem.rho}; envelope not smooth"
        )


def _psi(problem: CompositeProblem, x: Array, lam: float, y: Array) -> float:
    rv = problem.regularizer.value(y)
    if math.isinf(rv):
        return math.inf
    diff = y - x
    return problem.g_value(y) + rv + float(diff.dot(diff)) / (2.0 * lam)


def _finish_point(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    x_hat: Array,
    gap: float,
) -> MoreauPoint:
    grad = (x - x_hat) / lam
    act_tol = 1e-7 * (1.0 + float(np.max(np.abs(x_hat))))
    s_r = problem.regularizer.subdiff_project(
        x_hat, grad - problem.g_full_subgradient(x_hat), act_tol
    )
    return MoreauPoint(
        x=np.array(x, dtype=float, copy=True),
        lam=lam,
        x_hat=x_hat,
        envelope_value=_psi(problem, x, lam, x_hat),
        envelope_grad=grad,
        zeta_hat=grad - s_r,
        inner_tol=gap,
    )


# ---------------------------------------------------------------------------
# certificates


def _bvls(E: Array, b: Array, lo: Array, hi: Array) -> tuple[Array, int]:
    """min ||E x - b|| over lo <= x <= hi (lo finite): Lawson & Hanson's
    NNLS active set in Stark & Parker's bounded-variable form.

    Each outer step frees the bound variable whose gradient most wants it
    off its bound; ``np.linalg.lstsq`` on the free columns (not the normal
    equations, which square the conditioning of near-parallel probe
    columns) gives the trial point, cut back to the first bound it crosses.
    A variable enters only if its gradient beats 1e-11 ||E_j|| ||r|| plus
    the residual's roundoff, and the loop ends if the entering variable
    would move the wrong way, so it cannot cycle.  Returns x and the number
    of lstsq calls, at most 3 n + 20 for n variables.
    """
    n = E.shape[1]
    max_steps = 3 * n + 20
    x = lo.copy()
    free = np.zeros(n, dtype=bool)
    col_norm = np.linalg.norm(E, axis=0)
    absE = np.abs(E)
    b_norm = float(np.linalg.norm(b))
    steps = 0
    while steps < max_steps:
        r = b - E @ x
        w = E.T @ r
        noise = 64.0 * _EPS * (b_norm + float(np.linalg.norm(absE @ np.abs(x))))
        thr = col_norm * (1e-11 * float(np.linalg.norm(r)) + noise)
        wants = ~free & (((x <= lo) & (w > thr)) | ((x >= hi) & (w < -thr)))
        if not wants.any():
            break
        j = int(np.argmax(np.where(wants, np.abs(w) / col_norm, -1.0)))
        free[j] = True
        entering = True
        while steps < max_steps:
            steps += 1
            idx = np.flatnonzero(free)
            rhs = b - E[:, ~free] @ x[~free]
            z = np.linalg.lstsq(E[:, idx], rhs, rcond=None)[0]
            xf, lof, hif = x[idx], lo[idx], hi[idx]
            below, above = z <= lof, z >= hif
            if not (below.any() or above.any()):
                x[idx] = z
                break
            pos = int(np.searchsorted(idx, j))
            if entering and (below[pos] if x[j] <= lo[j] else above[pos]):
                # the best gradient is roundoff: its variable moves the wrong way
                free[j] = False
                return x, steps
            entering = False
            ratio = np.full(idx.size, np.inf)
            ratio[below] = (xf[below] - lof[below]) / (xf[below] - z[below])
            ratio[above] = (hif[above] - xf[above]) / (z[above] - xf[above])
            step = float(ratio.min())
            xf = np.minimum(np.maximum(xf + step * (z - xf), lof), hif)
            hit = ratio <= step
            xf[hit & below] = lof[hit & below]
            xf[hit & above] = hif[hit & above]
            x[idx] = xf
            free[idx[hit]] = False
    return x, steps


def _min_norm_qp(
    Z: Array, t: Array, G: Array, lo: Array, hi: Array
) -> tuple[Array, Array, Array, int]:
    """Nearest point to zero of conv{Z_j - t} + {G^T c : lo <= c <= hi}.

    ``Z`` is ``(J, d)`` with the hull points as rows, ``G`` is ``(K, d)``
    with the generator rows; ``lo`` is 0 for a cone generator (``hi`` inf)
    and ``-hi`` for a bounded l1 column.  With P = Z - t the point is
    v = P^T theta + G^T c with theta in the simplex, returned as
    ``(v, theta, c, lstsq calls)``.

    Wolfe's min-norm-point problem, solved exactly by one bounded least
    squares on E = [[P^T, G^T], [1^T, 0^T]] against e_{d+1}: with
    (alpha, beta) = s (theta, c) the objective is s^2 N + (s - 1)^2,
    N = ||P^T theta + G^T c||^2, whose minimum over s, N / (1 + N),
    increases with N; so theta = alpha / sum(alpha), c = beta / sum(alpha).
    Cone bounds are scale free.  Finite bounds on c scale with s, so then a
    secant search finds sum(alpha(s)) = s, where (theta, c) satisfy the
    QP's optimality conditions.
    """
    P = Z - t
    J, d = P.shape
    # the reduction holds for kappa P, kappa G at any kappa > 0; scaling the
    # hull to unit size keeps its columns and the ones row commensurate
    kappa = max(float(np.max(np.linalg.norm(P, axis=1))), 1e-300)
    E = np.zeros((d + 1, J + G.shape[0]))
    E[:d, :J] = P.T / kappa
    E[:d, J:] = G.T / kappa
    E[d, :J] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    lo_all = np.concatenate([np.zeros(J), lo])
    hi_all = np.concatenate([np.full(J, np.inf), hi])
    scaled = bool(np.any(lo != 0.0) or np.any(np.isfinite(hi)))
    s, prev, calls = 1.0, None, 0
    for _ in range(40):
        sol, k = _bvls(E, b, s * lo_all, s * hi_all)
        calls += k
        h = float(sol[:J].sum()) - s
        if not scaled or abs(h) <= 4.0 * _EPS * s:
            break
        if prev is None or h == prev[1]:
            s_new = s + h
        else:
            s_new = s - h * (s - prev[0]) / (h - prev[1])
        prev, s = (s, h), (s_new if s_new > 0.0 else 0.5 * s)
    total = float(sol[:J].sum())
    theta = sol[:J] / total
    c = np.minimum(np.maximum(sol[J:] / total, lo), hi)
    return theta @ P + c @ G, theta, c, calls


def _residual_qp(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    y: Array,
    delta: float,
    probe_dirs: Array,
) -> tuple[float, Array, float]:
    """Distance of zero to the sampled subdifferential of the subproblem at y.

    One stacked ``g_full_subgradient`` call probes g at y and at y + delta *
    (each unit probe direction).  The r-subdifferential at y is
    {fixed + c @ G : lo <= c <= hi}, whose arrays ``subdiff_generators``
    returns and this passes on as they are.  With t = -(fixed + (y - x) /
    lam), the residual is the min-norm point v of conv{Z_j - t} +
    {c @ G : lo <= c <= hi} over the probed subgradients Z_j, solved
    exactly by :func:`_min_norm_qp`.  Returns ||v||, v, and the largest probed
    subgradient norm (needed to account for the probe offset in the gap
    certificate).
    """
    Z = problem.g_full_subgradient(np.concatenate([y[None], y + delta * probe_dirs]))
    fixed, G, gen_lo, gen_hi = problem.regularizer.subdiff_generators(
        y, act_tol=1e-9 * (1.0 + float(np.max(np.abs(y))))
    )
    v, _, _, _ = _min_norm_qp(Z, -(fixed + (y - x) / lam), G, gen_lo, gen_hi)
    grad_scale = float(np.max(np.linalg.norm(Z, axis=1)))
    return float(np.linalg.norm(v)), v, grad_scale


def _cert_gap(res: float, mu: float, rho: float, delta: float, grad_scale: float) -> float:
    """Optimality gap certified by a sampled-subdifferential residual.

    With y_j = y + delta u_j, ||u_j|| <= 1, and w = z - y, weak convexity at
    the probe points gives, for every z,

        psi(z) >= psi(y) + <v, w> - rho delta ||w|| + (mu / 2) ||w||^2 - err,

    where rho delta <u_j, w> is the term linear in w that the probe offset
    leaves and err <= 2 grad_scale delta + rho delta^2.  Minimizing over w
    bounds the gap by (||v|| + rho delta)^2 / (2 mu) + err.
    """
    offset_err = 2.0 * grad_scale * delta + rho * delta * delta
    return (res + rho * delta) ** 2 / (2.0 * mu) + offset_err


def _probe_directions(d: int) -> Array:
    dirs = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
    if d >= 2:
        extra = np.random.default_rng(12345).standard_normal((4, d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs = np.concatenate([dirs, extra], axis=0)
    return dirs


# ---------------------------------------------------------------------------
# inner solvers


def _inner_1d(
    problem: CompositeProblem, x: Array, lam: float, tol: float
) -> tuple[Array, float]:
    """Bisection on the (strictly increasing) subgradient selection of psi."""
    r = problem.regularizer
    x0 = float(np.atleast_1d(x)[0])

    def slope(y: float) -> float:
        ya = np.array([y])
        return (
            float(problem.g_full_subgradient(ya)[0])
            + float(r.subdiff_select(ya)[0])
            + (y - x0) / lam
        )

    dom_lo, dom_hi = -math.inf, math.inf
    if r.lo is not None:
        dom_lo = float(np.atleast_1d(r.lo)[0])
    if r.hi is not None:
        dom_hi = float(np.atleast_1d(r.hi)[0])
    if r.radius is not None:
        c = float(np.atleast_1d(r.center)[0])
        dom_lo, dom_hi = c - r.radius, c + r.radius

    t = max(1.0, lam) * (1.0 + abs(x0))
    a, b = x0 - t, x0 + t
    for _ in range(200):
        if a <= dom_lo:
            a = dom_lo
            break
        if slope(a) <= 0:
            break
        a -= t
        t *= 2.0
    t = max(1.0, lam) * (1.0 + abs(x0))
    for _ in range(200):
        if b >= dom_hi:
            b = dom_hi
            break
        if slope(b) >= 0:
            break
        b += t
        t *= 2.0
    # endpoint optima: normal cone absorbs the remaining slope
    if a == dom_lo and slope(a) >= 0:
        return np.array([a]), 0.0
    if b == dom_hi and slope(b) <= 0:
        return np.array([b]), 0.0

    width_floor = 1e-15 * (1.0 + abs(x0))
    for _ in range(200):
        if b - a <= width_floor:
            break
        mid = 0.5 * (a + b)
        if slope(mid) < 0:
            a = mid
        else:
            b = mid
    x_hat = 0.5 * (a + b)
    gap = (b - a) * max(abs(slope(a)), abs(slope(b))) + (b - a) ** 2 / (2.0 * lam)
    return np.array([x_hat]), gap


def _inner_smooth(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    tol: float,
    warm: Array | None,
) -> tuple[Array, float]:
    """Proximal gradient with a secant-estimated curvature step.

    rho only bounds the negative curvature of g, not its smoothness, so a
    fixed step keyed to rho can sit on the stability boundary (a convex
    quadratic declared with rho = 0 oscillates forever).  Instead the
    Lipschitz constant of the smooth part is estimated from observed
    gradient secants; a step that reveals more curvature than estimated is
    rejected and retried.  Estimates only grow, so the tail runs at a fixed
    step and converges linearly to machine precision, without the floating
    point floor a value-based line search hits.
    """
    r = problem.regularizer
    mu = 1.0 / lam - problem.rho
    ell = 1.0 / lam + max(problem.rho, 1.0 / lam)
    y = r.project_domain(warm if warm is not None else x)
    grad = problem.g_full_subgradient(y) + (y - x) / lam
    best_y, best_gap = y, math.inf
    k = 0
    while k < _SMOOTH_MAX_ITER:
        k += 1
        step = 1.0 / (1.01 * ell)
        cand = r.prox(y - step * grad, step)
        g_cand = problem.g_full_subgradient(cand) + (cand - x) / lam
        dy = cand - y
        denom = float(np.linalg.norm(dy))
        if denom > 1e-14 * (1.0 + float(np.linalg.norm(y))):
            ell_obs = float(np.linalg.norm(g_cand - grad)) / denom
            if ell_obs > ell:
                ell = ell_obs
                continue
        y, grad = cand, g_cand
        s = r.subdiff_project(y, -grad, act_tol=1e-11 * (1.0 + float(np.max(np.abs(y)))))
        gap = float(np.linalg.norm(grad + s)) ** 2 / (2.0 * mu)
        if gap < best_gap:
            best_y, best_gap = y, gap
        if gap <= tol:
            return y, gap
    return best_y, best_gap


def _inner_subgradient_phase(
    problem: CompositeProblem,
    x: Array,
    lam: float,
) -> Array:
    """``_WARMUP_STEPS`` steps of deterministic proximal subgradient with
    weighted averaging, to start a cold polish.

    Steps 2 / ((1/lam - rho) (k + 2)); returns the best of the final
    weighted average and the best visited iterate.
    """
    r = problem.regularizer
    mu = 1.0 / lam - problem.rho
    y = r.project_domain(x)
    acc = np.zeros_like(y)
    acc_w = 0.0
    best, best_val = y, _psi(problem, x, lam, y)
    for k in range(_WARMUP_STEPS):
        step = 2.0 / (mu * (k + 2))
        v = problem.g_full_subgradient(y) + (y - x) / lam
        y = r.prox(y - step * v, step)
        w = k + 1.0
        acc += w * y
        acc_w += w
        if k % 20 == 19:
            val = _psi(problem, x, lam, y)
            if val < best_val:
                best, best_val = y, val
    avg = acc / acc_w if acc_w > 0 else y
    for cand in (avg, y):
        val = _psi(problem, x, lam, cand)
        if val < best_val:
            best, best_val = cand, val
    return best


def _armijo_step(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    y: Array,
    v: Array,
    val: float,
    res: float,
    t0: float,
) -> tuple[Array, float] | None:
    """Backtracking along -v, scored as one stack.

    The 40 trial points project_domain(y - t_k v), t_k = 2 t0 / 2^k, are
    evaluated with one ``g_value`` and one ``value`` call; the first that
    lowers psi by 1e-4 t_k res^2 is returned with its value, or None.  Stack
    rows equal point calls bit for bit, so this picks the point a loop over
    the same t_k would pick.
    """
    r = problem.regularizer
    ts = (2.0 * t0) * 0.5 ** np.arange(40)
    cands = r.project_domain(y - ts[:, None] * v)
    diff = cands - x
    vals = problem.g_value(cands) + r.value(cands) + row_dots(diff, diff) / (2.0 * lam)
    ok = np.flatnonzero(vals < val - 1e-4 * ts * res * res)
    if ok.size == 0:
        return None
    return cands[ok[0]], float(vals[ok[0]])


def _inner_polish(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    y: Array,
    tol: float,
) -> tuple[Array, float]:
    """Descent on sampled subdifferential directions with certified gaps.

    Each round solves the min-norm-element problem over the convex hull of
    probed g-subgradients plus the exact r-subdifferential; the negative
    residual is a descent direction, and its norm certifies the gap.  The
    probe radius shrinks 16-fold whenever the direction stops producing
    descent or the radius terms dominate the certificate, so kinks of g
    (where a fixed subgradient selection would stall) are resolved.  If none
    of the 150 rounds meets ``tol``, the point of the best round is
    certified again at 1/2, 1/4 and 1/8 of its radius before giving up.
    """
    mu = 1.0 / lam - problem.rho
    dirs = _probe_directions(problem.dim)
    scale = 1.0 + float(np.max(np.abs(y)))
    delta = 1e-5 * scale
    delta_min = 1e-13 * scale
    t0 = 1.0 / (1.0 / lam + max(problem.rho, 1.0 / lam))
    val = _psi(problem, x, lam, y)
    best_gap, best_y, best_delta = math.inf, y, delta
    stalls = 0
    for _ in range(150):
        res, v, gscale = _residual_qp(problem, x, lam, y, delta, dirs)
        gap = _cert_gap(res, mu, problem.rho, delta, gscale)
        if gap < best_gap:
            best_gap, best_y, best_delta = gap, y, delta
        if gap <= tol:
            return y, gap
        step = _armijo_step(problem, x, lam, y, v, val, res, t0)
        if step is not None:
            y, val = step
            stalls = 0
        elif delta <= delta_min:
            stalls += 1
            if stalls >= 3:
                break
        # once the probe terms outweigh res^2 / (2 mu) in the bound, descent
        # cannot lower it much: shrink the radius even after a step
        if step is None or gap * mu > res * res:
            delta = max(delta / 16.0, delta_min)
    d_fin = max(delta, delta_min)
    res, _, gscale = _residual_qp(problem, x, lam, y, d_fin, dirs)
    best_gap = min(best_gap, _cert_gap(res, mu, problem.rho, d_fin, gscale))
    # the best round's probes straddled the kinks near its point, and the
    # next radius, 16 times smaller, may not have: try the radii between.
    # Steps only lower psi, so a gap certified there also holds at y.
    for k in (2.0, 4.0, 8.0):
        if best_gap <= tol or best_delta / k < delta_min:
            break
        res, _, gscale = _residual_qp(problem, x, lam, best_y, best_delta / k, dirs)
        best_gap = min(best_gap, _cert_gap(res, mu, problem.rho, best_delta / k, gscale))
    return y, best_gap


def moreau_prox(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    tol: float = 1e-10,
    warm_start: Array | None = None,
) -> MoreauPoint:
    """Proximal point of phi = g + r at x with envelope parameter lam.

    Requires 0 < lam < 1/rho so the subproblem is strongly convex, and
    0 < tol < inf (``ValueError`` before any solve otherwise).  The
    returned point certifies an optimality gap ``inner_tol``; when the gap
    budget cannot be met an :class:`InnerAccuracyError` is raised carrying
    the best point found.  For nonsmooth g in d >= 2, a cold solve (no
    ``warm_start``) takes 50 proximal subgradient steps from x before the
    certified polish; a warm one starts the polish at the projection of
    ``warm_start``.
    """
    problem.require_deterministic()
    _validate_lam(problem, lam)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    x = np.asarray(x, dtype=float)

    if problem.dim == 1:
        x_hat, gap = _inner_1d(problem, x, lam, tol)
    elif problem.smooth:
        x_hat, gap = _inner_smooth(problem, x, lam, tol, warm_start)
    else:
        if warm_start is not None:
            y0 = problem.regularizer.project_domain(warm_start)
        else:
            y0 = _inner_subgradient_phase(problem, x, lam)
        x_hat, gap = _inner_polish(problem, x, lam, y0, tol)

    point = _finish_point(problem, x, lam, x_hat, gap)
    if gap > tol:
        raise InnerAccuracyError(
            f"inner solver reached gap {gap:.3e} > tol {tol:.3e}", point
        )
    return point


# ---------------------------------------------------------------------------
# grid oracle


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive-search control: points per axis and the number of
    refinement passes around the best cell."""

    points_per_dim: int = 241
    n_refine: int = 1


def moreau_grid_oracle(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    grid: GridSpec = GridSpec(),
) -> MoreauPoint:
    """Brute-force proximal point for dim <= 2 problems.

    Minimizes the subproblem over a grid covering a dom-r window around x
    whose radius is lam * L plus the distance from x to dom r, then
    refines around the best cell.  Shares no code with the iterative path on
    purpose; it is the cross-check oracle.
    """
    problem.require_deterministic()
    _validate_lam(problem, lam)
    if problem.dim > 2:
        raise DimensionError("grid oracle supports dim <= 2 only")
    if grid.points_per_dim < 3:
        raise ValueError("points_per_dim must be at least 3")
    x = np.asarray(x, dtype=float)
    r = problem.regularizer
    center = r.project_domain(x)
    L = problem.lipschitz_L
    if L is None:
        L = float(np.linalg.norm(problem.g_full_subgradient(center))) + 1.0
    hw = lam * L + float(np.linalg.norm(x - center)) + 0.5

    d = problem.dim
    n = grid.points_per_dim
    best = center
    step = 2.0 * hw / (n - 1)
    for level in range(grid.n_refine + 1):
        axes = [np.linspace(best[j] - hw, best[j] + hw, n) for j in range(d)]
        if d == 1:
            pts = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.stack([g0.ravel(), g1.ravel()], axis=1)
        vals = (
            problem.g_value(pts)
            + r.value(pts)
            + np.sum((pts - x) ** 2, axis=1) / (2.0 * lam)
        )
        k = int(np.argmin(vals))
        if not math.isfinite(float(vals[k])):
            raise ValueError("grid window contains no feasible point")
        best = pts[k]
        step = 2.0 * hw / (n - 1)
        # conditioning of the subproblem can put the true minimizer up to
        # sqrt((1+rho lam)/(1-rho lam)) coarse steps away from the argmin
        hw = 2.5 * step
    gap = (1.0 / lam + problem.rho) * d * step**2 / 8.0
    return _finish_point(problem, x, lam, best, gap)


# ---------------------------------------------------------------------------
# derived checks


def stationarity_report(
    point: MoreauPoint, problem: CompositeProblem | None = None
) -> StationarityReport:
    """Near-stationarity summary of a proximal point.

    ``subdiff_dist_bound`` is the envelope gradient norm, which upper-bounds
    the distance of zero to the subdifferential of phi at x_hat.  When the
    problem exposes a one-dimensional subdifferential interval the exact
    distance is reported too, taken over the inner certificate's uncertainty
    interval around x_hat: a certified objective gap eps localizes the true
    proximal point within sqrt(2 eps / mu), and the numeric x_hat often
    lands a few ulps off a kink.  Since v -> subdiff phi(v) + rho v is
    monotone, its union over [a, b] is the interval between its low end at
    a and its high end at b, which makes that sweep computable.
    """
    gn = float(np.linalg.norm(point.envelope_grad))
    exact = None
    if (
        problem is not None
        and problem.dim == 1
        and problem.g_subdiff_interval is not None
    ):
        r = problem.regularizer
        y = float(np.atleast_1d(point.x_hat)[0])
        mu = 1.0 / point.lam - problem.rho
        delta = math.sqrt(2.0 * max(point.inner_tol, 0.0) / mu) if mu > 0 else 0.0
        delta = max(delta, 1e-12 * (1.0 + abs(y)))
        a_pt = r.project_domain(np.array([y - delta]))
        b_pt = r.project_domain(np.array([y + delta]))

        def r_interval(yy: Array) -> tuple[float, float]:
            fixed, G, clo, chi = r.subdiff_generators(yy, 1e-9 * (1.0 + float(abs(yy[0]))))
            ends = fixed[0] + np.sort(G[:, :1] * np.stack([clo, chi], axis=1), axis=1).sum(axis=0)
            return float(ends[0]), float(ends[1])

        pad = problem.rho * max(0.0, float(b_pt[0] - a_pt[0]))
        lo_tot = problem.g_subdiff_interval(a_pt)[0] + r_interval(a_pt)[0] - pad
        hi_tot = problem.g_subdiff_interval(b_pt)[1] + r_interval(b_pt)[1] + pad
        if lo_tot > 0:
            exact = lo_tot
        elif hi_tot < 0:
            exact = -hi_tot
        else:
            exact = 0.0
    return StationarityReport(
        grad_norm=gn,
        grad_norm_sq=gn * gn,
        dist_to_xhat=point.lam * gn,
        subdiff_dist_bound=gn,
        exact_subdiff_dist=exact,
    )


def envelope_grad_fd_check(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    h: float = 1e-4,
    inner_tol: float | None = None,
) -> float:
    """Max relative error between central differences of the envelope value
    and the closed-form envelope gradient.  Inner solves run at a tolerance
    far below h^2 so the differencing error dominates."""
    if h <= 0:
        raise ValueError("h must be positive")
    if inner_tol is None:
        inner_tol = min(1e-10, h * h * 1e-2)
    x = np.asarray(x, dtype=float)
    center = moreau_prox(problem, x, lam, inner_tol)
    grad = center.envelope_grad
    denom = max(float(np.max(np.abs(grad))), 1e-8)
    worst = 0.0
    for j in range(problem.dim):
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        vp = moreau_prox(problem, xp, lam, inner_tol, warm_start=center.x_hat)
        vm = moreau_prox(problem, xm, lam, inner_tol, warm_start=center.x_hat)
        fd = (vp.envelope_value - vm.envelope_value) / (2.0 * h)
        worst = max(worst, abs(fd - float(grad[j])) / denom)
    return worst


def prox_gradient_mapping(problem: CompositeProblem, x: Array, lam: float) -> Array:
    """Prox-gradient mapping (x - prox_{lam r}(x - lam grad g(x))) / lam.

    Only defined when g is smooth; its norm sandwiches the envelope
    gradient norm within factors (1 -+ rho lam)."""
    if not problem.smooth:
        raise CapabilityError("prox-gradient mapping needs a smooth g")
    if lam <= 0:
        raise ParameterError("lam must be positive")
    x = np.asarray(x, dtype=float)
    step_point = problem.regularizer.prox(x - lam * problem.g_full_subgradient(x), lam)
    return (x - step_point) / lam
