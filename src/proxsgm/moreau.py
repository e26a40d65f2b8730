"""Moreau envelope oracle: proximal points, envelope gradients, stationarity.

For phi = g + r with g rho-weakly convex and 0 < lam < 1/rho, the envelope
subproblem

    min_y  g(y) + r(y) + ||y - x||^2 / (2 lam)

is strongly convex with modulus 1/lam - rho, so it has a unique solution
x_hat, and the envelope gradient is exactly (x - x_hat) / lam.  Its norm is
the stationarity measure everything else in this package reports.

Two oracles are provided.  ``moreau_prox`` solves the subproblem
iteratively: bisection on the subgradient selection in one dimension,
proximal gradient for smooth g, and a deterministic proximal subgradient
phase followed by a subdifferential-sampling polish otherwise.
``moreau_grid_oracle`` brute-forces low-dimensional subproblems on a
refined grid and exists so the iterative path can be cross-checked against
an implementation that shares none of its code.

Certified accuracy is tracked as a subproblem optimality gap bound derived
from the distance of zero to a sampled inner approximation of the
subdifferential: gap <= dist^2 / (2 (1/lam - rho)).  The sampling radius is
shrunk to the scale of roundoff, so the certificate is exact up to
curvature times that radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CapabilityError, CompositeProblem

Array = np.ndarray


# Importing scipy.optimize costs more than importing the rest of the package,
# and only the QP path and its fallback use it, so it is imported on first call.
def lsq_linear(*args, **kwargs):
    """``scipy.optimize.lsq_linear``, imported on first use."""
    from scipy.optimize import lsq_linear as solve

    return solve(*args, **kwargs)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as solve

    return solve(*args, **kwargs)


class MoreauMethod(Enum):
    ITERATIVE_INNER = "IterativeInner"
    GRID_BRUTE_FORCE = "GridBruteForce"


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
    method: MoreauMethod


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
    return problem.g_value(y) + rv + float(diff @ diff) / (2.0 * lam)


def _finish_point(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    x_hat: Array,
    gap: float,
    method: MoreauMethod,
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
        method=method,
    )


# ---------------------------------------------------------------------------
# certificates


def _residual_qp(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    y: Array,
    delta: float,
    probe_dirs: Array,
) -> tuple[float, Array, float]:
    """Distance of zero to the sampled subdifferential of the subproblem at y.

    Probes g-subgradients at y and at y + delta * (each probe direction),
    takes their convex hull, adds the exact generator description of the
    r-subdifferential and the quadratic's gradient, and solves the resulting
    bound-constrained least-squares problem.  Returns the residual norm, the
    residual vector, and the largest probed subgradient norm (needed to
    account for the probe offset in the gap certificate).
    """
    grads = [problem.g_full_subgradient(y)]
    for u in probe_dirs:
        grads.append(problem.g_full_subgradient(y + delta * u))
    Z = np.stack(grads, axis=1)  # d x J
    fixed, gen_cols, gen_lo, gen_hi = problem.regularizer.subdiff_generators(
        y, act_tol=1e-9 * (1.0 + float(np.max(np.abs(y))))
    )
    cols = [Z] + ([np.stack(gen_cols, axis=1)] if gen_cols else [])
    A = np.concatenate(cols, axis=1)
    target = -(fixed + (y - x) / lam)
    J = Z.shape[1]
    lo = np.concatenate([np.zeros(J), np.asarray(gen_lo, float)])
    hi = np.concatenate([np.ones(J), np.asarray(gen_hi, float)])
    # simplex constraint on the hull weights via a heavy penalty row
    w = 1e5 * (1.0 + float(np.max(np.abs(A))) + float(np.linalg.norm(target)))
    pen = np.zeros(A.shape[1])
    pen[:J] = 1.0
    A_aug = np.vstack([A, w * pen])
    b_aug = np.concatenate([target, [w]])
    sol = lsq_linear(A_aug, b_aug, bounds=(lo, hi), tol=1e-14, lsmr_tol=1e-14)
    u = sol.x
    theta = np.maximum(u[:J], 0.0)
    s = theta.sum()
    theta = theta / s if s > 0 else np.full(J, 1.0 / J)
    v = Z @ theta - target + (A[:, J:] @ u[J:] if A.shape[1] > J else 0.0)
    grad_scale = float(np.max(np.linalg.norm(Z, axis=0)))
    return float(np.linalg.norm(v)), v, grad_scale


def _cert_gap(res: float, mu: float, rho: float, delta: float, grad_scale: float) -> float:
    """Optimality gap certified by a sampled-subdifferential residual.

    The hull element v satisfies psi(z) >= psi(y) + <v, z-y> - err for every
    z, with err <= 2 * grad_scale * delta + rho * delta^2 coming from the
    probe offset; minimizing the strongly convex lower model gives the bound.
    """
    offset_err = 2.0 * grad_scale * delta + rho * delta * delta
    return res * res / (2.0 * mu) + offset_err


def _probe_directions(d: int, n_extra: int = 4) -> Array:
    dirs = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
    if d >= 2 and n_extra > 0:
        extra = np.random.default_rng(12345).standard_normal((n_extra, d))
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
    max_iter: int,
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
    while k < max_iter:
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
    n_iter: int,
) -> Array:
    """Deterministic proximal subgradient with weighted averaging.

    Steps 2 / ((1/lam - rho) (k + 2)); returns the best of the final
    weighted average and the best visited iterate.
    """
    r = problem.regularizer
    mu = 1.0 / lam - problem.rho
    y = r.project_domain(x)
    acc = np.zeros_like(y)
    acc_w = 0.0
    best, best_val = y, _psi(problem, x, lam, y)
    for k in range(n_iter):
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


def _inner_polish(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    y: Array,
    tol: float,
    max_rounds: int,
) -> tuple[Array, float]:
    """Descent on sampled subdifferential directions with certified gaps.

    Each round solves the min-norm-element problem over the convex hull of
    probed g-subgradients plus the exact r-subdifferential; the negative
    residual is a descent direction, and its norm certifies the gap.  The
    probe radius shrinks whenever the direction stops producing descent, so
    kinks of g (where a fixed subgradient selection would stall) are
    resolved.
    """
    r = problem.regularizer
    mu = 1.0 / lam - problem.rho
    dirs = _probe_directions(problem.dim)
    scale = 1.0 + float(np.max(np.abs(y)))
    delta = 1e-5 * scale
    delta_min = 1e-13 * scale
    t0 = 1.0 / (1.0 / lam + max(problem.rho, 1.0 / lam))
    val = _psi(problem, x, lam, y)
    best_gap = math.inf
    stalls = 0
    for _ in range(max_rounds):
        res, v, gscale = _residual_qp(problem, x, lam, y, delta, dirs)
        gap = _cert_gap(res, mu, problem.rho, delta, gscale)
        best_gap = min(best_gap, gap)
        if gap <= tol:
            return y, gap
        moved = False
        t = 2.0 * t0
        for _ in range(40):
            cand = r.project_domain(y - t * v)
            cval = _psi(problem, x, lam, cand)
            if cval < val - 1e-4 * t * res * res:
                y, val, moved = cand, cval, True
                break
            t *= 0.5
        if moved:
            stalls = 0
        else:
            if delta <= delta_min:
                stalls += 1
                if stalls >= 3:
                    break
            delta = max(delta / 16.0, delta_min)
    d_fin = max(delta, delta_min)
    res, _, gscale = _residual_qp(problem, x, lam, y, d_fin, dirs)
    return y, min(best_gap, _cert_gap(res, mu, problem.rho, d_fin, gscale))


def _nelder_mead_fallback(
    problem: CompositeProblem, x: Array, lam: float, y: Array
) -> Array:
    """Value-only polish; handles minimizers pinned to subdifferential kinks."""
    r = problem.regularizer

    def objective(z: Array) -> float:
        p = r.project_domain(z)
        out = _psi(problem, x, lam, p)
        return out + float((z - p) @ (z - p)) / (2.0 * lam)

    res = minimize(
        objective,
        y,
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxfev": 4000 * problem.dim},
    )
    cand = r.project_domain(res.x)
    return cand if _psi(problem, x, lam, cand) < _psi(problem, x, lam, y) else y


def moreau_prox(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    tol: float = 1e-10,
    warm_start: Array | None = None,
    max_iter: int = 1_000_000,
) -> MoreauPoint:
    """Proximal point of phi = g + r at x with envelope parameter lam.

    Requires 0 < lam < 1/rho so the subproblem is strongly convex.  The
    returned point certifies an optimality gap ``inner_tol``; when the gap
    budget cannot be met an :class:`InnerAccuracyError` is raised carrying
    the best point found.
    """
    problem.require_deterministic()
    _validate_lam(problem, lam)
    x = np.asarray(x, dtype=float)

    if problem.dim == 1:
        x_hat, gap = _inner_1d(problem, x, lam, tol)
    elif problem.smooth:
        x_hat, gap = _inner_smooth(problem, x, lam, tol, warm_start, max_iter)
    else:
        if warm_start is not None:
            y0 = problem.regularizer.project_domain(warm_start)
        else:
            n_sub = int(min(max(600, 120 * problem.dim), max_iter))
            y0 = _inner_subgradient_phase(problem, x, lam, n_sub)
        x_hat, gap = _inner_polish(problem, x, lam, y0, tol, max_rounds=150)
        if gap > tol:
            y1 = _nelder_mead_fallback(problem, x, lam, x_hat)
            x_hat2, gap2 = _inner_polish(problem, x, lam, y1, tol, max_rounds=60)
            if gap2 < gap:
                x_hat, gap = x_hat2, gap2

    point = _finish_point(problem, x, lam, x_hat, gap, MoreauMethod.ITERATIVE_INNER)
    if gap > tol:
        raise InnerAccuracyError(
            f"inner solver reached gap {gap:.3e} > tol {tol:.3e}", point
        )
    return point


# ---------------------------------------------------------------------------
# grid oracle


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive-search control: points per axis, window half width, and
    the number of refinement passes around the best cell."""

    points_per_dim: int = 241
    half_width: float | None = None
    n_refine: int = 1


def moreau_grid_oracle(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    grid: GridSpec = GridSpec(),
) -> MoreauPoint:
    """Brute-force proximal point for dim <= 2 problems.

    Minimizes the subproblem over a grid covering a dom-r window around x
    whose radius defaults to lam * L plus the distance from x to dom r, then
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
    if grid.half_width is not None:
        hw = grid.half_width
    else:
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
    return _finish_point(problem, x, lam, best, gap, MoreauMethod.GRID_BRUTE_FORCE)


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
            act_tol = 1e-9 * (1.0 + float(np.max(np.abs(yy))))
            fixed, cols, clos, chis = r.subdiff_generators(yy, act_tol)
            rlo = rhi = float(np.atleast_1d(fixed)[0])
            for col, cl, ch in zip(cols, clos, chis):
                c0 = float(np.atleast_1d(col)[0])
                lo_t, hi_t = sorted((c0 * cl, c0 * ch))
                rlo += lo_t
                rhi += hi_t
            return rlo, rhi

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
