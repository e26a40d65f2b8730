"""Convex regularizers with exact proximal maps.

Every regularizer used by the solver is one of five closed convex model
classes with a closed-form prox.  All maps are batch-first with the
coordinate axis last: ``prox`` on an ``(n, d)`` array applies the map row
by row, and ``value`` gives a ``float`` for a ``(d,)`` point and ``(n,)``
values for an ``(n, d)`` stack, each row equal to its point's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

Array = np.ndarray

# Feasibility slack for indicator values: prox outputs sit on the boundary up
# to roundoff, and must still evaluate as feasible.
_FEAS_REL = 1e-9


def prox_zero(x: Array, alpha: float) -> Array:
    """Prox of r == 0: the identity."""
    return np.array(x, dtype=float, copy=True)


def proj_box(x: Array, lo, hi) -> Array:
    """Coordinatewise clamp onto the box [lo, hi].

    The values of ``np.clip`` without its call overhead, which dominates on
    a single vector.  NaN propagates and a bound wins a tie, so a signed
    zero at a zero bound takes the bound's sign (``np.clip`` does that too
    unless it broadcasts the bound).
    """
    return np.minimum(np.maximum(x, lo), hi)


def proj_ball(x: Array, center, radius: float) -> Array:
    """Euclidean projection onto the closed ball of given center and radius."""
    x = np.asarray(x, dtype=float)
    diff = x - center
    if diff.ndim == 1:
        # the batched formula below without its broadcasting: the norm is
        # summed as np.linalg.norm sums it along an axis, and an inside
        # point gets center + diff, so both paths agree bit for bit
        nrm = math.sqrt(np.add.reduce(diff * diff))
        if nrm > radius:
            return center + diff * (radius / max(nrm, 1e-300))
        return center + diff
    nrm = np.linalg.norm(diff, axis=-1, keepdims=True)
    # scale only the rows that lie outside; the max() guards div-by-zero
    scale = np.where(nrm > radius, radius / np.maximum(nrm, 1e-300), 1.0)
    return center + diff * scale


def prox_l1(x: Array, alpha: float, weight: float) -> Array:
    """Soft thresholding: componentwise sign(x) * max(|x| - alpha*weight, 0)."""
    x = np.asarray(x, dtype=float)
    t = alpha * weight
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def prox_quadratic(x: Array, alpha: float, weight: float, center) -> Array:
    """Prox of (weight/2)*||y - center||^2."""
    x = np.asarray(x, dtype=float)
    aw = alpha * weight
    return (x + aw * np.asarray(center, dtype=float)) / (1.0 + aw)


class ProxKind(Enum):
    ZERO = "zero"
    BOX = "box"
    BALL = "ball"
    L1 = "l1"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class ProxFriendly:
    """A convex regularizer r together with its exact prox machinery.

    ``value`` may return ``math.inf`` (deliberately, as the indicator flag;
    it is never the result of floating overflow).  ``prox(x, alpha)`` ignores
    ``alpha`` for indicator kinds but keeps the two-argument signature.
    """

    kind: ProxKind
    lo: Array | None = None
    hi: Array | None = None
    center: Array | None = None
    radius: float | None = None
    weight: float | None = None

    def value(self, x: Array) -> float | Array:
        """r at a point, or per row of a stack; inf marks infeasibility."""
        x = np.asarray(x, dtype=float)
        if self.kind is ProxKind.ZERO:
            v = np.zeros(x.shape[:-1])
        elif self.kind is ProxKind.BOX:
            slack = _FEAS_REL * (1.0 + float(np.max(np.abs(self.hi - self.lo))))
            ok = np.all((x >= self.lo - slack) & (x <= self.hi + slack), axis=-1)
            v = np.where(ok, 0.0, math.inf)
        elif self.kind is ProxKind.BALL:
            slack = _FEAS_REL * (1.0 + self.radius)
            ok = np.linalg.norm(x - self.center, axis=-1) <= self.radius + slack
            v = np.where(ok, 0.0, math.inf)
        elif self.kind is ProxKind.L1:
            v = self.weight * np.sum(np.abs(x), axis=-1)
        else:
            v = 0.5 * self.weight * np.sum((x - self.center) ** 2, axis=-1)
        return v if v.ndim else float(v)

    def prox(self, x: Array, alpha: float) -> Array:
        if alpha < 0:
            raise ValueError("prox step must be nonnegative")
        # an indicator's prox is its projection at every alpha >= 0, so the
        # two kinds of the solver's step loop dispatch first
        if self.kind is ProxKind.BOX:
            return proj_box(x, self.lo, self.hi)
        if self.kind is ProxKind.BALL:
            return proj_ball(x, self.center, self.radius)
        if alpha == 0:
            # continuous limit: prox_{0.r} is the projection onto dom r
            return self.project_domain(x)
        if self.kind is ProxKind.ZERO:
            return prox_zero(x, alpha)
        if self.kind is ProxKind.L1:
            return prox_l1(x, alpha, self.weight)
        return prox_quadratic(x, alpha, self.weight, self.center)

    def project_domain(self, x: Array) -> Array:
        """Nearest point of dom r: the identity unless r is an indicator."""
        if self.kind is ProxKind.BOX:
            return proj_box(x, self.lo, self.hi)
        if self.kind is ProxKind.BALL:
            return proj_ball(x, self.center, self.radius)
        return np.array(x, dtype=float, copy=True)

    def domain_diameter(self) -> float | None:
        if self.kind is ProxKind.BOX:
            return float(np.linalg.norm(np.asarray(self.hi, float) - self.lo))
        if self.kind is ProxKind.BALL:
            return 2.0 * self.radius
        return None

    # -- subdifferential structure -------------------------------------------
    #
    # The three methods below expose just enough of the subdifferential of r
    # to recover optimality certificates at a computed proximal point.

    def subdiff_select(self, x: Array) -> Array:
        """A deterministic element of the subdifferential of r at x.

        Kinks and normal cones resolve to the zero element of the interval.
        """
        x = np.asarray(x, dtype=float)
        if self.kind is ProxKind.L1:
            return self.weight * np.sign(x)
        if self.kind is ProxKind.QUADRATIC:
            return self.weight * (x - self.center)
        return np.zeros_like(x)

    def subdiff_project(self, x: Array, v: Array, act_tol: float = 1e-8) -> Array:
        """Nearest element of the subdifferential of r at x to the vector v.

        ``act_tol`` decides boundary activity; points within it of a face are
        treated as on that face.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind is ProxKind.ZERO:
            return np.zeros_like(v)
        if self.kind is ProxKind.BOX:
            s = np.zeros_like(v)
            at_hi = x >= self.hi - act_tol
            at_lo = x <= self.lo + act_tol
            s[at_hi] = np.maximum(v[at_hi], 0.0)
            s[at_lo] = np.minimum(v[at_lo], 0.0)
            s[at_hi & at_lo] = v[at_hi & at_lo]
            return s
        if self.kind is ProxKind.BALL:
            diff = x - self.center
            nrm = float(np.linalg.norm(diff))
            if nrm >= self.radius - act_tol and nrm > 0:
                u = diff / nrm
                return max(float(u @ v), 0.0) * u
            return np.zeros_like(v)
        if self.kind is ProxKind.L1:
            s = self.weight * np.sign(x)
            kink = np.abs(x) <= act_tol
            s[kink] = np.clip(v[kink], -self.weight, self.weight)
            return s
        return self.weight * (x - self.center)

    def subdiff_generators(
        self, x: Array, act_tol: float = 1e-8
    ) -> tuple[Array, list[Array], list[float], list[float]]:
        """Generator description of the subdifferential of r at x.

        Returns ``(fixed, columns, lows, highs)`` such that the set equals
        ``fixed + sum_i c_i * columns[i]`` with ``c_i in [lows[i], highs[i]]``.
        """
        x = np.asarray(x, dtype=float)
        d = x.shape[-1] if x.ndim else 1
        fixed = np.zeros(d)
        cols: list[Array] = []
        los: list[float] = []
        his: list[float] = []
        if self.kind is ProxKind.ZERO:
            return fixed, cols, los, his
        if self.kind is ProxKind.BOX:
            hi = np.broadcast_to(np.asarray(self.hi, float), (d,))
            lo = np.broadcast_to(np.asarray(self.lo, float), (d,))
            for j in range(d):
                if x[j] >= hi[j] - act_tol:
                    e = np.zeros(d)
                    e[j] = 1.0
                    cols.append(e), los.append(0.0), his.append(np.inf)
                if x[j] <= lo[j] + act_tol:
                    e = np.zeros(d)
                    e[j] = -1.0
                    cols.append(e), los.append(0.0), his.append(np.inf)
            return fixed, cols, los, his
        if self.kind is ProxKind.BALL:
            diff = x - self.center
            nrm = float(np.linalg.norm(diff))
            if nrm >= self.radius - act_tol and nrm > 0:
                cols.append(diff / nrm), los.append(0.0), his.append(np.inf)
            return fixed, cols, los, his
        if self.kind is ProxKind.L1:
            fixed = self.weight * np.sign(x) * (np.abs(x) > act_tol)
            for j in range(d):
                if abs(x[j]) <= act_tol:
                    e = np.zeros(d)
                    e[j] = 1.0
                    cols.append(e), los.append(-self.weight), his.append(self.weight)
            return fixed, cols, los, his
        return self.weight * (x - self.center), cols, los, his


def zero_regularizer() -> ProxFriendly:
    """r == 0."""
    return ProxFriendly(kind=ProxKind.ZERO)


def box_indicator(lo, hi) -> ProxFriendly:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(hi < lo):
        raise ValueError("box upper bounds must dominate lower bounds")
    return ProxFriendly(kind=ProxKind.BOX, lo=lo, hi=hi)


def ball_indicator(center, radius: float) -> ProxFriendly:
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    return ProxFriendly(
        kind=ProxKind.BALL, center=np.atleast_1d(np.asarray(center, float)), radius=float(radius)
    )


def l1_regularizer(weight: float) -> ProxFriendly:
    if weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    return ProxFriendly(kind=ProxKind.L1, weight=float(weight))


def quadratic_regularizer(weight: float, center) -> ProxFriendly:
    if weight <= 0:
        raise ValueError("quadratic weight must be positive")
    return ProxFriendly(
        kind=ProxKind.QUADRATIC, weight=float(weight), center=np.atleast_1d(np.asarray(center, float))
    )
