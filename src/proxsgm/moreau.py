"""Moreau envelope oracle: proximal points, envelope gradients, stationarity.

For phi = g + r with g rho-weakly convex and 0 < lam < 1/rho, the envelope
subproblem

    min_y  g(y) + r(y) + ||y - x||^2 / (2 lam)

is strongly convex with modulus 1/lam - rho, so it has a unique solution
x_hat, and the envelope gradient is exactly (x - x_hat) / lam.  Its norm is
the stationarity measure everything else in this package reports.

``moreau_prox`` solves the subproblem iteratively: bisection on the
subgradient selection in one dimension, proximal gradient for smooth g,
and otherwise a subdifferential-sampling polish, started on a cold solve
after a 50-step deterministic proximal subgradient warm-up.  The polish
and the proximal gradient certify the gap with one bound, `_cert_gap`; the
warm-up only moves its start off x.  `stationarity_report` and
`solver.check_prox_identity` read a `MoreauPoint` from any solve of the
subproblem.

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

from .core import _LENGTH_MAX, CapabilityError, CompositeProblem, _in_range, point_value, row_dots

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
    """Envelope parameter outside (1e-150, 1/rho)."""


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
    exact_subdiff_dist: float | None = None


def _validate_lam(problem: CompositeProblem, lam: float) -> None:
    """lam below 1/rho, where the envelope is smooth, and above 1/_LENGTH_MAX,
    below which the weight 1/(2 lam) of ||y - x||^2 overflows."""
    hi = 1.0 / problem.rho if problem.rho > 0 else math.inf
    _in_range("lam", lam, 1.0 / _LENGTH_MAX, hi, error=ParameterError)


def _psi(problem: CompositeProblem, x: Array, lam: float, y: Array) -> float | Array:
    """g(y) + r(y) + ||y - x||^2 / (2 lam): a float at a point, (n,) on a stack."""
    diff = y - x
    vals = problem.g_value(y) + problem.regularizer.value(y) + row_dots(diff, diff) / (2.0 * lam)
    return point_value(vals)


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
    bounds the gap by (||v|| + rho delta)^2 / (2 mu) + err.  The smooth
    path's residual is exact: at delta = 0 the bound is ||v||^2 / (2 mu).
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


def _inner_1d(problem: CompositeProblem, x: Array, lam: float) -> tuple[Array, float]:
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

    # step out from x0, doubling, until the slope changes sign or dom r ends
    ends = []
    for sign, end in ((-1.0, dom_lo), (1.0, dom_hi)):
        t = max(1.0, lam) * (1.0 + abs(x0))
        e = x0 + sign * t
        for _ in range(200):
            if sign * e >= sign * end:
                e = end
                break
            if sign * slope(e) >= 0:
                break
            e += sign * t
            t *= 2.0
        ends.append(e)
    a, b = ends
    # endpoint optima: normal cone absorbs the remaining slope
    if a == dom_lo and slope(a) >= 0:
        return np.array([a]), 0.0
    if b == dom_hi and slope(b) <= 0:
        return np.array([b]), 0.0

    width_floor = 1e-15 * (1.0 + abs(x0))
    # halve down to the floor, or until no float lies strictly between a
    # and b; 2100 halvings close any finite bracket
    for _ in range(2100):
        mid = 0.5 * (a + b)
        if b - a <= width_floor or not a < mid < b:
            break
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
    point floor a value-based line search hits.  At one estimate a step is a
    function of y, so an accepted iterate equal to the current one or the
    one before it repeats gaps already seen, and the solve stops.  Each
    accepted y is certified by `_cert_gap` at delta = 0 of ||grad + s||,
    grad = grad g(y) + (y - x)/lam and s the r-subgradient nearest -grad.
    """
    r = problem.regularizer
    mu = 1.0 / lam - problem.rho
    ell = 1.0 / lam + max(problem.rho, 1.0 / lam)
    y = r.project_domain(warm if warm is not None else x)
    grad = problem.g_full_subgradient(y) + (y - x) / lam
    best_y, best_gap = y, math.inf
    recent = (y,)  # the last two accepted iterates since ell last grew
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
                ell, recent = ell_obs, ()
                continue
        y, grad = cand, g_cand
        s = r.subdiff_project(y, -grad, act_tol=1e-11 * (1.0 + float(np.max(np.abs(y)))))
        gap = _cert_gap(float(np.linalg.norm(grad + s)), mu, problem.rho, 0.0, 0.0)
        if gap < best_gap:
            best_y, best_gap = y, gap
        if gap <= tol:
            return y, gap
        if any(np.array_equal(y, z) for z in recent):
            break
        recent = (recent[-1], y) if recent else (y,)
    return best_y, best_gap


def _inner_subgradient_phase(
    problem: CompositeProblem,
    x: Array,
    lam: float,
) -> Array:
    """``_WARMUP_STEPS`` steps of deterministic proximal subgradient with
    weighted averaging, to start a cold polish.

    Steps 2 / ((1/lam - rho) (k + 2)); returns the best of the start, every
    20th iterate, the final weighted average and the last iterate.
    """
    r = problem.regularizer
    mu = 1.0 / lam - problem.rho
    y = r.project_domain(x)
    acc = np.zeros_like(y)
    acc_w = 0.0
    cands = [y]
    for k in range(_WARMUP_STEPS):
        step = 2.0 / (mu * (k + 2))
        v = problem.g_full_subgradient(y) + (y - x) / lam
        y = r.prox(y - step * v, step)
        w = k + 1.0
        acc += w * y
        acc_w += w
        if k % 20 == 19:
            cands.append(y)
    cands += [acc / acc_w, y]
    vals = _psi(problem, x, lam, np.stack(cands))
    # a scan keeping strictly lower values: the first least value wins, a
    # NaN never does, and nothing replaces a NaN start
    if math.isnan(vals[0]):
        return cands[0]
    return cands[int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))]


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
    scored by one ``_psi`` call; the first that lowers psi by 1e-4 t_k res^2
    is returned with its value, or None.  Stack rows equal point calls bit
    for bit, so this picks the point a loop over the same t_k would pick.
    """
    ts = (2.0 * t0) * 0.5 ** np.arange(40)
    cands = problem.regularizer.project_domain(y - ts[:, None] * v)
    vals = _psi(problem, x, lam, cands)
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
    # certify y at its last radius; then the best round's probes straddled
    # the kinks near its point, and the next radius, 16 times smaller, may
    # not have: try the radii between.  Steps only lower psi, so a gap
    # certified there also holds at y.  No round met tol: y is always probed.
    probes = [(y, max(delta, delta_min))] + [(best_y, best_delta / k) for k in (2.0, 4.0, 8.0)]
    for pt, rad in probes:
        if best_gap <= tol or rad < delta_min:
            break
        res, _, gscale = _residual_qp(problem, x, lam, pt, rad, dirs)
        best_gap = min(best_gap, _cert_gap(res, mu, problem.rho, rad, gscale))
    return y, best_gap


def moreau_prox(
    problem: CompositeProblem,
    x: Array,
    lam: float,
    tol: float = 1e-10,
    warm_start: Array | None = None,
) -> MoreauPoint:
    """Proximal point of phi = g + r at x with envelope parameter lam.

    Requires 1e-150 < lam < 1/rho (``ParameterError``), so the subproblem is
    strongly convex, and 0 < tol < inf (``ValueError``), before any solve.  The
    returned point certifies an optimality gap ``inner_tol``; when the gap
    budget cannot be met an :class:`InnerAccuracyError` is raised carrying
    the best point found.  For nonsmooth g in d >= 2, a cold solve (no
    ``warm_start``) takes 50 proximal subgradient steps from x before the
    certified polish; a warm one starts the polish at the projection of
    ``warm_start``.
    """
    problem.require_deterministic()
    _validate_lam(problem, lam)
    _in_range("tol", tol)
    x = np.asarray(x, dtype=float)

    if problem.dim == 1:
        x_hat, gap = _inner_1d(problem, x, lam)
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
# derived checks


def stationarity_report(point: MoreauPoint, problem: CompositeProblem) -> StationarityReport:
    """Near-stationarity summary of a proximal point.

    ``grad_norm`` is the envelope gradient norm, which upper-bounds the
    distance of zero to the subdifferential of phi at x_hat.  For a
    one-dimensional problem the exact distance is reported too, taken over
    the inner certificate's uncertainty interval [a, b] around x_hat: a
    certified objective gap eps localizes the true proximal point within
    delta = sqrt(2 eps / mu), and the numeric x_hat often lands a few ulps
    off a kink.  Since v -> subdiff g(v) + rho v is monotone, the selection
    s = ``g_full_subgradient`` just outside, at a' = a - delta and
    b' = b + delta, bounds subdiff g(u) for every u in [a, b] between
    s(a') - rho (b' - a') and s(b') + rho (b' - a'); subdiff r, monotone
    too, lies between its low end at a and its high end at b.
    """
    gn = float(np.linalg.norm(point.envelope_grad))
    exact = None
    if problem.dim == 1:
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

        pad = problem.rho * float(b_pt[0] - a_pt[0] + 2.0 * delta)
        lo_tot = problem.g_full_subgradient(a_pt - delta)[0] - pad + r_interval(a_pt)[0]
        hi_tot = problem.g_full_subgradient(b_pt + delta)[0] + pad + r_interval(b_pt)[1]
        # [lo_tot, hi_tot] holds subdiff phi over [a, b]: its distance to zero
        exact = float(max(lo_tot, -hi_tot, 0.0))
    return StationarityReport(
        grad_norm=gn,
        grad_norm_sq=gn * gn,
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
    _in_range("h", h, 0.0, _LENGTH_MAX)
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

    Only defined when g is smooth, and for 0 < lam < 1/rho; its norm
    sandwiches the envelope gradient norm within factors (1 -+ rho lam)."""
    if not problem.smooth:
        raise CapabilityError("prox-gradient mapping needs a smooth g")
    _validate_lam(problem, lam)
    x = np.asarray(x, dtype=float)
    step_point = problem.regularizer.prox(x - lam * problem.g_full_subgradient(x), lam)
    return (x - step_point) / lam
