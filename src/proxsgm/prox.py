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
from numpy._core import umath as _umath

from .core import _LENGTH_MAX, _formula, _in_range

Array = np.ndarray

# Feasibility slack for indicator values: prox outputs sit on the boundary up
# to roundoff, and must still evaluate as feasible.
_FEAS_REL = 1e-9


# proj_box(x, lo, hi): coordinatewise clamp onto the box [lo, hi], equal
# byte for byte to np.minimum(np.maximum(x, lo), hi): NaN propagates and a
# bound wins a tie, so a signed zero at a zero bound takes the bound's sign.
# The one exception is bounds constant along numpy's inner loop (scalars, or
# a (1,) box against an (n, 1) stack): the ufunc's vectorised loop then keeps
# x's zero on a tie with a zero bound, so only the sign of a zero can differ.
# It is the ufunc that np.clip ends in, bound directly: one dispatch where
# the minimum/maximum pair makes two, and without np.clip's wrapper, whose
# overhead dominates on a single vector.  numpy exposes the bare ufunc only
# under the private path numpy._core.umath (numpy >= 2.0).
proj_box = _umath.clip


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

    def __post_init__(self) -> None:
        if self.kind is ProxKind.BOX:
            # finite only when both bounds are; an infinite width would also
            # make the feasibility slack of ``value`` infinite
            width = _formula("box width hi - lo", lambda: self.hi - self.lo)
            _in_range("box width hi - lo", width, ends="[)")
        elif self.kind is ProxKind.BALL:
            _in_range("radius", self.radius)
        elif self.kind is not ProxKind.ZERO:
            _in_range("weight", self.weight, ends="[)" if self.kind is ProxKind.L1 else "()")
        _in_range("center", self.center, -_LENGTH_MAX, _LENGTH_MAX)

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
        # inline, not the range helper: this runs once per solver step
        if not alpha >= 0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        # an indicator's prox is its projection at every alpha >= 0, so the
        # two kinds of the solver's step loop dispatch first
        if self.kind is ProxKind.BOX:
            return proj_box(x, self.lo, self.hi)
        if self.kind is ProxKind.BALL:
            return proj_ball(x, self.center, self.radius)
        if alpha == 0 or self.kind is ProxKind.ZERO:
            # continuous limit: prox_{0.r} is the projection onto dom r, and
            # the prox of r == 0 is that identity at every alpha
            return self.project_domain(x)
        # the l1 and quadratic formulas give NaN once this product is not finite
        if not alpha * self.weight < math.inf:
            raise ValueError(f"alpha * weight must be finite, got {alpha} * {self.weight}")
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

    # -- subdifferential structure -------------------------------------------
    #
    # The methods below expose just enough of the subdifferential of r to
    # recover optimality certificates at a computed proximal point.
    # ``subdiff_generators`` is the one description of that set per kind;
    # ``subdiff_select`` is a cheap selection for the 1-D bisection.

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

        Clamps the coefficients of v - fixed on the rows of
        :meth:`subdiff_generators`.  That is the exact projection because
        every generator row is a unit vector orthogonal to every other row
        except its own negative: a box coordinate with lo == hi carries both
        +e_j and -e_j, and the two clamps cover the whole line.
        """
        fixed, G, lo, hi = self.subdiff_generators(x, act_tol)
        return fixed + proj_box(G @ (np.asarray(v, dtype=float) - fixed), lo, hi) @ G

    def subdiff_generators(
        self, x: Array, act_tol: float = 1e-8
    ) -> tuple[Array, Array, Array, Array]:
        """Generator description of the subdifferential of r at x.

        Returns arrays ``(fixed (d,), G (k, d), lo (k,), hi (k,))`` such that
        the set is ``{fixed + c @ G : lo <= c <= hi}``.  A cone row (box face,
        ball surface) has bounds [0, inf), an l1 kink row e_j has [-w, w].
        Points within ``act_tol`` of a face or kink count as on it.  A box
        gives, for each coordinate j in turn, +e_j if its upper face is
        active and then -e_j if its lower face is.
        """
        x = np.asarray(x, dtype=float)
        d = x.size
        fixed, G = np.zeros(d), np.zeros((0, d))
        lo, hi = 0.0, np.inf
        if self.kind is ProxKind.BOX:
            # rows +e_0, -e_0, +e_1, ...; 0.0 - eye keeps its zeros positive
            eye = np.eye(d)
            active = np.array([x >= self.hi - act_tol, x <= self.lo + act_tol]).T.ravel()
            G = np.hstack([eye, 0.0 - eye]).reshape(2 * d, d)[active]
        elif self.kind is ProxKind.BALL:
            diff = x - self.center
            nrm = float(np.linalg.norm(diff))
            if nrm >= self.radius - act_tol and nrm > 0:
                G = (diff / nrm)[None]
        elif self.kind is ProxKind.L1:
            kink = np.abs(x) <= act_tol
            fixed = self.weight * np.sign(x) * ~kink
            G, lo, hi = np.eye(d)[kink], -self.weight, self.weight
        elif self.kind is ProxKind.QUADRATIC:
            fixed = self.weight * (x - self.center)
        return fixed, G, np.full(len(G), lo), np.full(len(G), hi)


def zero_regularizer() -> ProxFriendly:
    """r == 0."""
    return ProxFriendly(kind=ProxKind.ZERO)


def box_indicator(lo, hi) -> ProxFriendly:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    return ProxFriendly(kind=ProxKind.BOX, lo=lo, hi=hi)


def ball_indicator(center, radius: float) -> ProxFriendly:
    return ProxFriendly(
        kind=ProxKind.BALL, center=np.atleast_1d(np.asarray(center, float)), radius=float(radius)
    )


def l1_regularizer(weight: float) -> ProxFriendly:
    return ProxFriendly(kind=ProxKind.L1, weight=float(weight))


def quadratic_regularizer(weight: float, center) -> ProxFriendly:
    return ProxFriendly(
        kind=ProxKind.QUADRATIC, weight=float(weight), center=np.atleast_1d(np.asarray(center, float))
    )
