"""Proximal operators: hand-computed values, optimality, and contraction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxsgm.checks import _prox_zoo
from proxsgm.prox import (
    ProxKind,
    ball_indicator,
    box_indicator,
    l1_regularizer,
    proj_box,
    quadratic_regularizer,
    zero_regularizer,
)


def prox_objective(reg, z, y, alpha):
    return reg.value(z) + float(np.dot(z - y, z - y)) / (2.0 * alpha)


# a small zoo reused by the property tests; parameters are arbitrary but fixed
def zoo(d):
    return [
        zero_regularizer(),
        box_indicator(np.full(d, -1.5), np.full(d, 2.0)),
        ball_indicator(np.zeros(d), 1.3),
        l1_regularizer(0.7),
        quadratic_regularizer(0.4, np.full(d, 0.2)),
    ]


def test_soft_threshold_hand_values():
    r = l1_regularizer(1.0)
    assert r.prox(np.array([3.0]), 1.0) == pytest.approx([2.0])
    assert r.prox(np.array([0.5]), 1.0) == pytest.approx([0.0])
    assert r.prox(np.array([-3.0]), 1.0) == pytest.approx([-2.0])
    # componentwise on a mixed vector, threshold alpha*weight = 0.35
    r2 = l1_regularizer(0.7)
    out = r2.prox(np.array([1.0, -0.2, 0.35]), 0.5)
    assert out == pytest.approx([0.65, 0.0, 0.0])


def test_ball_projection_hand_values():
    r = ball_indicator(np.zeros(2), 1.0)
    assert r.prox(np.array([3.0, 4.0]), 1.0) == pytest.approx([0.6, 0.8])
    inside = np.array([0.3, -0.4])
    assert r.prox(inside, 10.0) is not inside
    np.testing.assert_array_equal(r.prox(inside, 10.0), inside)


def test_ball_projection_alpha_irrelevant():
    r = ball_indicator(np.array([1.0, -1.0]), 0.5)
    y = np.array([4.0, 4.0])
    np.testing.assert_array_equal(r.prox(y, 1e-3), r.prox(y, 1e3))


def test_box_clamp_hand_values():
    r = box_indicator(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert r.prox(np.array([2.0, -2.0]), 1.0) == pytest.approx([1.0, -1.0])
    y = np.array([0.2, -0.9])
    np.testing.assert_array_equal(r.prox(y, 7.0), y)


def _clamp_reference(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


def _assert_clamp_bytes(x, lo, hi):
    got = proj_box(x, lo, hi)
    want = _clamp_reference(x, lo, hi)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got is not x and not np.shares_memory(got, x)


def test_proj_box_matches_the_minimum_maximum_pair_byte_for_byte():
    rng = np.random.default_rng(5)
    lo, hi = np.array([-1.0, 0.0, -0.5, 2.0]), np.array([1.0, 0.0, 3.0, 2.0])
    # a point, a stack with per-coordinate bounds, and a stack with bounds
    # broadcast from scalars and from a (n, 1) column
    _assert_clamp_bytes(rng.normal(size=4) * 3, lo, hi)
    _assert_clamp_bytes(rng.normal(size=(50, 4)) * 3, lo, hi)
    _assert_clamp_bytes(rng.normal(size=(50, 4)), -0.3, 0.4)
    _assert_clamp_bytes(rng.normal(size=(50, 4)), -rng.random((50, 1)), rng.random((50, 1)))
    # a pinned coordinate (lo == hi, second and fourth) takes the bound
    got = proj_box(np.array([5.0, -5.0, 1.0, -7.0]), lo, hi)
    assert got[1] == 0.0 and got[3] == 2.0


def test_proj_box_special_values_match_the_reference():
    # every pairing of ±0.0, NaN, ±inf and finite entries with per-coordinate
    # bounds, so signed zeros at zero bounds and NaN propagation are pinned
    vals = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 0.5]
    x, lo, hi = (a.ravel() for a in np.meshgrid(vals, vals, vals, indexing="ij"))
    with np.errstate(invalid="ignore"):
        _assert_clamp_bytes(x, lo, hi)
        _assert_clamp_bytes(x.reshape(-1, 8), lo.reshape(-1, 8), hi.reshape(-1, 8))
    # a point's zero at a zero bound of the other sign takes the bound's sign
    got = proj_box(np.array([0.0, -0.0]), np.array([-0.0, 0.0]), np.array([1.0, 1.0]))
    assert [math.copysign(1.0, v) for v in got] == [-1.0, 1.0]


def test_proj_box_with_constant_bounds_differs_only_in_the_sign_of_a_zero():
    # Bounds that stay constant along numpy's inner loop (scalars, or a (1,)
    # box against a (n, 1) stack) take the ufunc's vectorised loop, which
    # keeps x's zero on a tie with a zero bound of the other sign.  The values
    # still equal the reference's, NaN included; only a zero's sign can differ.
    vals = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 0.5]
    x = np.array(vals * 3)
    with np.errstate(invalid="ignore"):
        for lo in vals:
            for hi in vals:
                for got, want in (
                    (proj_box(x, lo, hi), _clamp_reference(x, lo, hi)),
                    (
                        proj_box(x[:, None], np.array([lo]), np.array([hi])),
                        _clamp_reference(x[:, None], np.array([lo]), np.array([hi])),
                    ),
                ):
                    np.testing.assert_array_equal(got, want)
                    moved = got.view(np.int64) != want.view(np.int64)
                    assert np.all(got[moved] == 0.0)
    # so with nonzero bounds, such as every shipped box's, the bytes agree
    _assert_clamp_bytes(x[:, None], np.array([-1.5]), np.array([2.0]))
    _assert_clamp_bytes(x, -2.0, 2.0)


def test_proj_box_with_infinite_bounds_and_integer_input():
    # subdiff_project clamps cone coefficients onto [0, inf) and l1 ones
    # onto [-w, w]
    c = np.array([-2.0, -0.0, 0.0, 3.5, math.inf])
    _assert_clamp_bytes(c, np.zeros(5), np.full(5, math.inf))
    _assert_clamp_bytes(c, -math.inf, math.inf)
    _assert_clamp_bytes(c, np.full(5, -0.7), np.full(5, 0.7))
    ints = np.array([[-3, 0, 4], [7, -1, 2]])
    _assert_clamp_bytes(ints, 0, 2)
    _assert_clamp_bytes(ints, np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.5, 3.0]))


def test_quadratic_prox_hand_value():
    # argmin_z (w/2)||z-c||^2 + ||z-y||^2/(2a) = (y + a*w*c) / (1 + a*w)
    r = quadratic_regularizer(1.0, np.zeros(1))
    assert r.prox(np.array([2.0]), 1.0) == pytest.approx([1.0])
    r2 = quadratic_regularizer(0.5, np.array([2.0, -2.0]))
    out = r2.prox(np.array([1.0, 1.0]), 4.0)
    assert out == pytest.approx([(1.0 + 4.0 * 0.5 * 2.0) / 3.0, (1.0 - 4.0) / 3.0])


def test_zero_prox_is_identity():
    r = zero_regularizer()
    y = np.array([5.0, -3.0, 0.0])
    np.testing.assert_array_equal(r.prox(y, 0.01), y)
    assert r.value(y) == 0.0


def test_l1_weight_to_zero_approaches_identity():
    y = np.array([1.0, -2.0, 0.5])
    out = l1_regularizer(1e-12).prox(y, 1.0)
    assert np.max(np.abs(out - y)) <= 1e-9


def test_indicator_values():
    box = box_indicator(np.zeros(2), np.ones(2))
    assert box.value(np.array([0.5, 0.5])) == 0.0
    assert math.isinf(box.value(np.array([0.5, 1.5])))
    ball = ball_indicator(np.zeros(2), 1.0)
    assert ball.value(np.array([2.0, 0.0])) == math.inf
    # value on a stack agrees with value pointwise
    pts = np.array([[0.5, 0.5], [0.5, 1.5], [-0.1, 0.0]])
    vb = box.value(pts)
    assert list(np.isinf(vb)) == [False, True, True]


def test_prox_optimality_vs_sampled_competitors():
    rng = np.random.default_rng(1)
    for reg in zoo(3):
        for alpha in (0.05, 1.0, 20.0):
            y = rng.normal(size=3) * 2.0
            p = reg.prox(y, alpha)
            base = prox_objective(reg, p, y, alpha)
            for _ in range(300):
                z = reg.project_domain(rng.normal(size=3) * 2.0)
                assert prox_objective(reg, z, y, alpha) >= base - 1e-10


def test_prox_idempotent_projections():
    rng = np.random.default_rng(2)
    for reg in (box_indicator(np.full(4, -1.0), np.full(4, 1.0)),
                ball_indicator(np.zeros(4), 2.0)):
        for _ in range(50):
            y = rng.normal(size=4) * 3.0
            p = reg.prox(y, 1.0)
            assert np.max(np.abs(reg.prox(p, 1.0) - p)) <= 1e-12


@given(st.integers(0, 4), st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 10_000))
def test_prox_nonexpansive(kind_idx, alpha, seed):
    rng = np.random.default_rng(seed)
    reg = zoo(3)[kind_idx]
    x = rng.normal(size=3) * 5.0
    y = rng.normal(size=3) * 5.0
    dpx = np.linalg.norm(reg.prox(x, alpha) - reg.prox(y, alpha))
    assert dpx <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("kind", [name for name, _ in _prox_zoo(1)])
def test_batch_maps_equal_row_maps(kind, alpha):
    # the check suites and sample_domain_points map (n, d) arrays and must
    # reproduce the per-row calls byte for byte
    for d in (1, 2, 4, 10, 33):
        reg = dict(_prox_zoo(d))[kind]
        rng = np.random.default_rng(d)
        rows = np.vstack([
            3.0 * rng.standard_normal((300, d)),
            np.zeros((2, d)),
            0.1 * rng.standard_normal((20, d)),  # inside the ball
        ])
        prox = reg.prox(rows, alpha)
        assert prox.tobytes() == np.stack([reg.prox(r, alpha) for r in rows]).tobytes()
        proj = reg.project_domain(rows)
        assert proj.tobytes() == np.stack([reg.project_domain(r) for r in rows]).tobytes()
        for pts in (rows, prox):
            values = [reg.value(r) for r in pts]
            assert all(type(v) is float for v in values)
            assert reg.value(pts).tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("kind", [name for name, _ in _prox_zoo(1)])
def test_zero_step_prox_is_the_projection(kind):
    # prox_{0 r} is the projection onto dom r, and an indicator's prox is
    # that projection at every step, so box and ball may ignore alpha
    for d in (1, 3):
        reg = dict(_prox_zoo(d))[kind]
        rows = 3.0 * np.random.default_rng(d).standard_normal((50, d))
        for x in (rows, *rows[:5]):
            proj = reg.project_domain(x).tobytes()
            assert reg.prox(x, 0.0).tobytes() == proj
            assert reg.prox(x, 0).tobytes() == proj
            if reg.kind in (ProxKind.BOX, ProxKind.BALL):
                for alpha in (1e-300, 1e-3, 1.0, 1e3, math.inf):
                    assert reg.prox(x, alpha).tobytes() == proj


def normal_cone_violation(reg, x, s, rng, n=200):
    """Max of <s, z - x> over random feasible z; nonpositive iff s is normal."""
    worst = -math.inf
    for _ in range(n):
        z = reg.project_domain(rng.normal(size=x.size) * 3.0)
        worst = max(worst, float(np.dot(s, z - x)))
    return worst


def test_subdiff_project_box():
    reg = box_indicator(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    # interior: subdifferential is {0}
    s = reg.subdiff_project(np.array([0.2, -0.3]), np.array([5.0, -5.0]))
    np.testing.assert_array_equal(s, np.zeros(2))
    # active upper face: outward multiples of e_0 only
    s = reg.subdiff_project(np.array([1.0, 0.0]), np.array([2.0, 3.0]))
    assert s == pytest.approx([2.0, 0.0])
    s = reg.subdiff_project(np.array([1.0, 0.0]), np.array([-2.0, 0.0]))
    np.testing.assert_array_equal(s, np.zeros(2))


def test_subdiff_project_l1():
    reg = l1_regularizer(0.7)
    # away from kinks the subdifferential is the single point w*sign(x)
    s = reg.subdiff_project(np.array([2.0, -1.0]), np.array([9.0, 9.0]))
    assert s == pytest.approx([0.7, -0.7])
    # at a kink, clip to [-w, w]
    s = reg.subdiff_project(np.array([0.0, 2.0]), np.array([0.3, 0.0]))
    assert s == pytest.approx([0.3, 0.7])
    s = reg.subdiff_project(np.array([0.0]), np.array([5.0]))
    assert s == pytest.approx([0.7])


def test_subdiff_project_is_normal_cone_member():
    rng = np.random.default_rng(3)
    for reg in (box_indicator(np.full(3, -1.5), np.full(3, 2.0)),
                ball_indicator(np.zeros(3), 1.3)):
        for _ in range(25):
            x = reg.project_domain(rng.normal(size=3) * 2.0)
            v = rng.normal(size=3) * 4.0
            s = reg.subdiff_project(x, v)
            assert normal_cone_violation(reg, x, s, rng) <= 1e-8


def test_subdiff_project_closest_among_selections():
    # the projection is at least as close to v as the canonical selection
    rng = np.random.default_rng(4)
    for reg in zoo(3):
        for _ in range(25):
            x = reg.project_domain(rng.normal(size=3) * 1.5)
            v = rng.normal(size=3) * 4.0
            s = reg.subdiff_project(x, v)
            s0 = reg.subdiff_select(x)
            assert np.linalg.norm(v - s) <= np.linalg.norm(v - s0) + 1e-10


def test_subdiff_generators_consistency():
    reg = ball_indicator(np.zeros(2), 1.0)
    base, G, lo, hi = reg.subdiff_generators(np.array([1.0, 0.0]))
    np.testing.assert_array_equal(base, np.zeros(2))
    assert G.shape == (1, 2) and G[0] == pytest.approx([1.0, 0.0])
    assert lo[0] == 0.0 and math.isinf(hi[0])
    # members reconstructed from the generators stay in the normal cone
    rng = np.random.default_rng(5)
    for t in (0.0, 0.5, 3.0):
        member = base + t * G[0]
        assert normal_cone_violation(reg, np.array([1.0, 0.0]), member, rng) <= 1e-8


# Reference descriptions of the subdifferential: one hand-written projection
# per kind and a per-coordinate generator loop.  The library derives its
# projection from the generator arrays; both must agree with these.


def reference_subdiff_project(reg, x, v, act_tol):
    s = np.zeros_like(v)
    if reg.kind is ProxKind.BOX:
        at_hi = x >= reg.hi - act_tol
        at_lo = x <= reg.lo + act_tol
        s[at_hi] = np.maximum(v[at_hi], 0.0)
        s[at_lo] = np.minimum(v[at_lo], 0.0)
        s[at_hi & at_lo] = v[at_hi & at_lo]
    elif reg.kind is ProxKind.BALL:
        diff = x - reg.center
        nrm = float(np.linalg.norm(diff))
        if nrm >= reg.radius - act_tol and nrm > 0:
            u = diff / nrm
            s = max(float(u @ v), 0.0) * u
    elif reg.kind is ProxKind.L1:
        s = reg.weight * np.sign(x)
        kink = np.abs(x) <= act_tol
        s[kink] = np.clip(v[kink], -reg.weight, reg.weight)
    elif reg.kind is ProxKind.QUADRATIC:
        s = reg.weight * (x - reg.center)
    return s


def reference_subdiff_generators(reg, x, act_tol):
    d = x.size
    fixed, rows, los, his = np.zeros(d), [], [], []

    def unit(j, sign):
        e = np.zeros(d)
        e[j] = sign
        return e

    if reg.kind is ProxKind.BOX:
        for j in range(d):
            if x[j] >= reg.hi[j] - act_tol:
                rows.append(unit(j, 1.0)), los.append(0.0), his.append(np.inf)
            if x[j] <= reg.lo[j] + act_tol:
                rows.append(unit(j, -1.0)), los.append(0.0), his.append(np.inf)
    elif reg.kind is ProxKind.BALL:
        diff = x - reg.center
        nrm = float(np.linalg.norm(diff))
        if nrm >= reg.radius - act_tol and nrm > 0:
            rows.append(diff / nrm), los.append(0.0), his.append(np.inf)
    elif reg.kind is ProxKind.L1:
        fixed = reg.weight * np.sign(x) * (np.abs(x) > act_tol)
        for j in range(d):
            if abs(x[j]) <= act_tol:
                rows.append(unit(j, 1.0)), los.append(-reg.weight), his.append(reg.weight)
    elif reg.kind is ProxKind.QUADRATIC:
        fixed = reg.weight * (x - reg.center)
    return fixed, np.array(rows, float).reshape(-1, d), np.array(los), np.array(his)


def subdiff_cases(d, rng):
    """Points on box faces (one box pins coordinate 0 with lo == hi), at l1
    kinks, and on, near and inside the ball, for every kind."""
    lo, hi = np.full(d, -1.5), np.full(d, 2.0)
    pinned_lo, pinned_hi = lo.copy(), hi.copy()
    pinned_lo[0] = pinned_hi[0] = 0.5
    regs = [
        zero_regularizer(),
        box_indicator(lo, hi),
        box_indicator(pinned_lo, pinned_hi),
        ball_indicator(np.linspace(-0.5, 0.5, d), 1.3),
        l1_regularizer(0.7),
        quadratic_regularizer(0.4, np.full(d, 0.2)),
    ]
    for reg in regs:
        for _ in range(12):
            x = reg.project_domain(rng.normal(size=d) * 2.0)
            pick = rng.random(d) < 0.5
            near = rng.choice([0.0, 5e-9, 1e-6], size=d)
            if reg.kind is ProxKind.BOX:
                face = np.where(rng.random(d) < 0.5, reg.lo + near, reg.hi - near)
                x = np.where(pick, face, x)
            elif reg.kind is ProxKind.L1:
                x = np.where(pick, near * rng.choice([-1.0, 1.0], size=d), x)
            elif reg.kind is ProxKind.BALL:
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                x = reg.center + rng.choice([1.0, 1.0 - 4e-9, 0.5]) * reg.radius * u
            yield reg, x


@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_subdiff_arrays_match_the_per_kind_references(d):
    rng = np.random.default_rng(d)
    n_rows = 0
    for reg, x in subdiff_cases(d, rng):
        v = rng.normal(size=d) * 3.0
        for act_tol in (0.0, 1e-8):
            fixed, G, lo, hi = reg.subdiff_generators(x, act_tol)
            ref = reference_subdiff_generators(reg, x, act_tol)
            for got, want in zip((fixed, G, lo, hi), ref):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                reg.subdiff_project(x, v, act_tol), reference_subdiff_project(reg, x, v, act_tol)
            )
            n_rows += len(G)
    assert n_rows > 0


def test_construction_validation():
    with pytest.raises(ValueError):
        box_indicator(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        ball_indicator(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        l1_regularizer(-0.5)
    with pytest.raises(ValueError):
        quadratic_regularizer(-1.0, np.zeros(2))


@pytest.mark.parametrize(
    "lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (-1e308, 1e308), (np.nan, 1.0)]
)
def test_box_bounds_must_be_finite(lo, hi):
    # with an infinite width hi - lo the feasibility slack of value was
    # infinite: box_indicator(0.0, inf).value([-5.0]) read 0.0, so every
    # point was feasible; a NaN bound gave a prox of [nan]
    with pytest.raises(ValueError, match="box width hi - lo must be finite"):
        box_indicator(lo, hi)
