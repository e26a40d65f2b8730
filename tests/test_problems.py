"""Benchmark factory tests: constants, determinism, and closed-form anchors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxsgm.boost import RegularizedProblem
from proxsgm.core import ID_PARAMS, CompositeProblem, sample_domain_points
from proxsgm.problems import (
    _phase_retrieval_data,
    _linear_data,
    default_x0,
    make_phase_retrieval,
    make_robust_regression,
    make_smooth_ls_noisy,
    make_toy1d,
    problem_from_id,
)

from builders import exact_min_1d_robust_regression


# ---------------------------------------------------------------- toy 1-D


def test_toy_abs_values_and_subgradients():
    p = make_toy1d("abs")
    assert p.rho == 0.0 and p.lipschitz_L == 1.0
    assert p.g_value(np.array([0.5])) == 0.5
    assert p.g_full_subgradient(np.array([-2.0])) == pytest.approx([-1.0])
    # at the kink the selection is the zero element of [-1, 1]
    assert p.g_full_subgradient(np.zeros(1)) == [0.0]


def test_toy_absquad_values_and_subgradients():
    p = make_toy1d("absquad")
    assert p.rho == 2.0
    assert p.g_value(np.array([2.0])) == pytest.approx(3.0)
    # d(|x^2-1|)/dx = 2x sign(x^2-1) away from the kinks
    assert p.g_full_subgradient(np.array([2.0])) == pytest.approx([4.0])
    assert p.g_full_subgradient(np.array([0.5])) == pytest.approx([-1.0])
    # at the kink x = 1 the selection is the zero element of [-2, 2]
    assert p.g_full_subgradient(np.ones(1)) == [0.0]


# the toys' closed forms as written out before they became one-term finite sums
TOY_CLOSED_FORMS = {
    "abs": (lambda v: np.abs(v[..., 0]), np.sign),
    "absquad": (lambda v: np.abs(v[..., 0] * v[..., 0] - 1.0),
                lambda v: 2.0 * v * np.sign(v * v - 1.0)),
}


@pytest.mark.parametrize("kind", sorted(TOY_CLOSED_FORMS))
def test_toy_is_its_closed_form(kind):
    value, subgradient = TOY_CLOSED_FORMS[kind]
    p = make_toy1d(kind)
    pts = np.concatenate([
        np.linspace(-2.0, 2.0, 4001), [0.0, -0.0, 1.0, -1.0, 2.0, -2.0],
        np.random.default_rng(0).uniform(-3.0, 3.0, 1000),
    ])[:, None]
    assert p.g_value(pts).tobytes() == value(pts).tobytes()
    assert np.array([p.g_value(x) for x in pts]).tobytes() == value(pts).tobytes()
    want = subgradient(pts)
    for got in (p.g_full_subgradient(pts), np.stack([p.g_full_subgradient(x) for x in pts])):
        np.testing.assert_array_equal(got, want)
        # bytes agree wherever the value is nonzero; a zero is now +0.0
        # everywhere, where the closed form gave -0.0 for absquad at x = +0.0
        # and x = -1
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert not np.signbit(got[~nonzero]).any()
    # the one row is the only draw: no variates, and the oracle is the selection
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    draws = p.g_oracle.draw(rng, 4096)
    assert rng.bit_generator.state == state
    for x in pts[::50]:
        np.testing.assert_array_equal(p.g_oracle.sample(x, draws), np.tile(subgradient(x), (4096, 1)))
        np.testing.assert_array_equal(p.g_oracle.sample(x, draws[0]), subgradient(x))


def test_toy_kinds_rejected():
    with pytest.raises(ValueError):
        make_toy1d("cubic")


# ---------------------------------------------------------- phase retrieval


def test_phase_retrieval_constants():
    p = make_phase_retrieval(50, 10, 0)
    assert p.rho > 0
    # L = 2 * radius * max||a_i||^2 and rho = 2 * max||a_i||^2, radius = 2
    assert p.lipschitz_L == pytest.approx(2.0 * p.rho, rel=1e-12)
    assert p.regularizer.radius == 2.0
    assert p.domain_diameter == 4.0
    assert np.linalg.norm(p.planted_point) == pytest.approx(1.0)
    assert p.regularizer.value(p.planted_point) == 0.0


def test_phase_retrieval_planted_point_is_noiseless():
    p = make_phase_retrieval(40, 6, 9)
    assert p.g_value(p.planted_point) <= 1e-12
    assert p.phi(p.planted_point) <= 1e-12


def test_phase_retrieval_single_row_oracle_matches_full_subgradient():
    # with m = 1 every draw is the one term, so sample == full subgradient
    p = make_phase_retrieval(1, 3, 13)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = sample_domain_points(p, 1, 1.5, rng)[0]
        draw = p.g_oracle.sample(x, p.g_oracle.draw(rng, 1)[0])
        np.testing.assert_allclose(draw, p.g_full_subgradient(x), atol=1e-14)


def test_phase_retrieval_regeneration_deterministic():
    a = make_phase_retrieval(20, 3, 11)
    b = make_phase_retrieval(20, 3, 11)
    np.testing.assert_array_equal(a.planted_point, b.planted_point)
    assert a.rho == b.rho
    x = np.array([0.3, -0.8, 1.1])
    assert a.g_value(x) == b.g_value(x)
    c = make_phase_retrieval(20, 3, 12)
    assert c.rho != a.rho


def test_phase_retrieval_spectral_start():
    p = make_phase_retrieval(50, 10, 0)
    x0 = default_x0(p)
    assert np.linalg.norm(x0) <= 2.0 + 1e-12
    np.testing.assert_array_equal(x0, default_x0(make_phase_retrieval(50, 10, 0)))
    # scale never exceeds the cap and tracks the measurement energy
    assert np.linalg.norm(x0) > 0.1


# --------------------------------------------------------- robust regression


def test_robust_regression_constants():
    p = make_robust_regression(20, 2, 1)
    assert p.rho == 0.0
    assert p.domain_diameter == pytest.approx(
        float(np.linalg.norm(p.regularizer.hi - p.regularizer.lo)))
    # each draw has norm ||a_i|| wherever the residual is nonzero, so the
    # sampled norms are bounded by L and attain it
    rng = np.random.default_rng(2)
    x = np.array([1.7, -0.4])
    norms = [float(np.linalg.norm(p.g_oracle.sample(x, w))) for w in p.g_oracle.draw(rng, 300)]
    assert max(norms) <= p.lipschitz_L + 1e-12
    assert max(norms) == pytest.approx(p.lipschitz_L, rel=1e-9)


def test_robust_regression_exact_min_1d():
    p = make_robust_regression(15, 1, 2)
    xm, vm = exact_min_1d_robust_regression(p)
    assert p.phi(np.array([xm])) == pytest.approx(vm, abs=1e-12)
    lo, hi = float(p.regularizer.lo[0]), float(p.regularizer.hi[0])
    grid = np.linspace(lo, hi, 20_001)
    vals = [p.phi(np.array([t])) for t in grid]
    assert vm <= min(vals) + 1e-9


def test_robust_regression_exact_min_needs_1d():
    with pytest.raises(ValueError):
        exact_min_1d_robust_regression(make_robust_regression(15, 2, 2))


# ----------------------------------------------------------- smooth noisy LS


def test_smooth_ls_sigma_zero_is_deterministic():
    p = make_smooth_ls_noisy(20, 3, 0.0, 5)
    x = np.array([0.4, -0.2, 1.0])
    rng = np.random.default_rng(0)
    d1, d2 = (p.g_oracle.sample(x, w) for w in p.g_oracle.draw(rng, 2))
    # at sigma = 0 a draw is exactly -c, and H x + (-c) is H x - c
    assert d1.tobytes() == d2.tobytes() == p.g_full_subgradient(x).tobytes()


def test_smooth_ls_noise_variance():
    # stored sigma aggregates the per-coordinate noise: sigma^2 = d * s^2
    d, s = 3, 0.2
    p = make_smooth_ls_noisy(30, d, s, 8)
    assert p.sigma == pytest.approx(s * np.sqrt(d))
    x = np.array([0.5, 0.1, -0.9])
    mean = p.g_full_subgradient(x)
    draws = p.g_oracle.sample(x, p.g_oracle.draw(np.random.default_rng(9), 100_000))
    var = float(np.mean(np.sum((draws - mean) ** 2, axis=1)))
    assert abs(var - p.sigma**2) <= 0.05 * p.sigma**2


def test_smooth_ls_rho_matches_power_iteration():
    # rho is the largest eigenvalue of the quadratic's Hessian; recover it
    # through gradient differences, which is an independent route
    p = make_smooth_ls_noisy(25, 4, 0.0, 3)
    g0 = p.g_full_subgradient(np.zeros(4))
    hess = lambda v: p.g_full_subgradient(v) - g0
    v = np.ones(4) / 2.0
    for _ in range(3000):
        v = hess(v)
        v = v / np.linalg.norm(v)
    lam = float(v @ hess(v))
    assert abs(lam - p.rho) <= 1e-8 * (1.0 + p.rho)


@pytest.mark.parametrize("pid", [
    "smooth_ls:60:5:2", "smooth_ls:30:3:2", "smooth_ls:10:40:1", "smooth_ls:200:20:3",
])
def test_smooth_ls_gradient_matches_the_residual_formula(pid):
    # the gradient is taken in Gram form, H x - A^T b / m; regenerate A and
    # b from the seed and compare with A^T (A x - b) / m
    p = problem_from_id(pid)
    m, d, seed = p.meta.m, p.meta.d, p.meta.seed
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    b = A @ rng.uniform(-0.5, 0.5, size=d)
    pts = sample_domain_points(p, 50, 2.0, np.random.default_rng(6))
    for x in [*pts[:5], np.zeros(d), np.full(d, 2.0)]:
        ref = A.T @ (A @ x - b) / m
        tol = 1e-13 * (1.0 + np.abs(ref).max())
        assert np.abs(p.g_full_subgradient(x) - ref).max() <= tol
    ref = (pts @ A.T - b) @ A / m
    tol = 1e-13 * (1.0 + np.abs(ref).max())
    assert np.abs(p.g_full_subgradient(pts) - ref).max() <= tol


def test_smooth_ls_rejects_bad_sigma():
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            make_smooth_ls_noisy(10, 2, sigma, 0)


def test_smooth_ls_flags():
    p = make_smooth_ls_noisy(20, 2, 0.1, 4)
    assert p.smooth
    assert p.lipschitz_L is None and p.sigma is not None


# ------------------------------------------------------------- id round trip


@pytest.mark.parametrize("pid", [
    "phase_retrieval:12:3:7",
    "robust_regression:9:2:4",
    "smooth_ls:15:2:6",
    "toy1d:abs",
    "toy1d:absquad",
])
def test_problem_from_id_roundtrip(pid):
    p = problem_from_id(pid)
    assert p.meta.problem_id() == pid


def test_problem_from_id_uses_default_sigma():
    p = problem_from_id("smooth_ls:20:3:5")
    assert p.sigma == pytest.approx(ID_PARAMS["smooth_ls"].default * np.sqrt(3))


def test_non_default_parameters_ride_on_the_id():
    p = make_smooth_ls_noisy(20, 3, 0.2, 5)
    assert p.meta.problem_id() == "smooth_ls:20:3:5:sigma=0.2"
    assert problem_from_id("smooth_ls:20:3:5:sigma=0.2").sigma == p.sigma
    q = make_robust_regression(20, 1, 2, 0.7)
    assert q.meta.problem_id() == "robust_regression:20:1:2:outliers=0.7"
    # the exact minimum regenerates the data with the instance's own outliers;
    # here it leaves the inliers' common breakpoint, so it depends on them
    xm, vm = exact_min_1d_robust_regression(q)
    assert vm <= q.g_value(np.linspace(-2.0, 2.0, 20_001)[:, None]).min() + 1e-12
    assert (xm, vm) == exact_min_1d_robust_regression(problem_from_id(q.meta.problem_id()))
    assert make_robust_regression(20, 1, 5).meta.problem_id() == "robust_regression:20:1:5"


ID_FAMILIES = st.sampled_from(["phase_retrieval", "robust_regression", "smooth_ls"])
ID_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0.0, 0.1, 0.3]),
    st.floats(0.0, 0.99, allow_subnormal=False),
)


@given(ID_FAMILIES, st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**32),
       ID_VALUES)
def test_problem_id_round_trip(family, m, d, seed, value):
    pid = f"{family}:{m}:{d}:{seed}"
    if value is not None and family != "phase_retrieval":
        pid += f":{ID_PARAMS[family].key}={value!r}"
    p = problem_from_id(pid)
    canonical = p.meta.problem_id()
    q = problem_from_id(canonical)
    # id -> problem -> id is the identity up to spelling out a default value,
    # and the regenerated instance is the same one
    assert q.meta.problem_id() == canonical
    assert canonical == pid.removesuffix(":sigma=0.1").removesuffix(":outliers=0.1")
    assert q.meta == p.meta and q.rho == p.rho and q.sigma == p.sigma
    x = np.linspace(-1.0, 1.0, d)
    assert q.g_value(x) == p.g_value(x)


@pytest.mark.parametrize("bad", [
    "nope:1:2:3",
    "toy1d:cubic",
    "phase_retrieval:0:3:1",
    "phase_retrieval:5",
    "robust_regression:10:-1:2",
    "phase_retrieval:a:b:c",
    "phase_retrieval:10:2:1:sigma=0.2",
    "smooth_ls:10:2:1:outliers=0.3",
    "smooth_ls:10:2:1:sigma",
    "smooth_ls:10:2:1:sigma=-1",
    "smooth_ls:10:2:1:sigma=0.2:sigma=0.3",
    "robust_regression:10:2:1:outliers=1.0",
    "smooth_ls:10:2:-1",
    "phase_retrieval:10:2:-4",
    "smooth_ls:10:2.5:1",
    "robust_regression:1e1:2:1",
    "smooth_ls:10:2:x",
    "smooth_ls:0:2:1",
    "robust_regression:10:0:1",
])
def test_problem_from_id_rejects_malformed(bad):
    with pytest.raises(ValueError):
        problem_from_id(bad)


@pytest.mark.parametrize("bad, message", [
    ("smooth_ls:10:2.5:1", "d must be an integer, got '2.5'"),
    ("robust_regression:x:2:1", "m must be an integer, got 'x'"),
    ("phase_retrieval:10:0:1", "d must be at least 1, got 0"),
    ("phase_retrieval:10:2:-4", "seed must be at least 0, got -4"),
])
def test_problem_from_id_names_the_id_and_the_bad_field(bad, message):
    with pytest.raises(ValueError, match=f"problem id '{bad}': {message}"):
        problem_from_id(bad)


def test_problem_from_id_refuses_sizes_on_a_toy():
    with pytest.raises(ValueError, match="toy1d ids look like 'toy1d:abs' or 'toy1d:absquad'"):
        problem_from_id("toy1d:abs:1")


FACTORIES = {
    "phase_retrieval": lambda seed: make_phase_retrieval(10, 2, seed),
    "robust_regression": lambda seed: make_robust_regression(10, 2, seed),
    "smooth_ls": lambda seed: make_smooth_ls_noisy(10, 2, 0.1, seed),
}


@pytest.mark.parametrize("family", FACTORIES)
@pytest.mark.parametrize("seed, error, message", [
    (np.random.default_rng(3), TypeError, "seed must be an integer, got Generator"),
    (3.0, TypeError, "seed must be an integer, got float"),
    (True, TypeError, "seed must be an integer, got bool"),
    (-1, ValueError, "seed must be finite and nonnegative, got -1"),
])
def test_factories_take_only_a_nonnegative_integer_seed(
    monkeypatch, family, seed, error, message
):
    # a problem id names exactly one instance, so a factory refuses any seed
    # an id cannot carry, before it seeds a generator or draws from one
    seeded = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seeded.append(a))
    state = seed.bit_generator.state if isinstance(seed, np.random.Generator) else None
    with pytest.raises(error, match=message):
        FACTORIES[family](seed)
    assert seeded == []
    if state is not None:
        assert seed.bit_generator.state == state


def test_factories_take_a_numpy_integer_seed():
    p = make_smooth_ls_noisy(10, 2, 0.1, np.int64(3))
    assert p.meta.problem_id() == "smooth_ls:10:2:3"
    same = problem_from_id("smooth_ls:10:2:3")
    np.testing.assert_array_equal(p.planted_point, same.planted_point)


def test_default_x0_feasible_everywhere():
    for pid in ("phase_retrieval:10:3:1", "robust_regression:10:2:1",
                "smooth_ls:10:2:1", "toy1d:abs", "toy1d:absquad"):
        p = problem_from_id(pid)
        x0 = default_x0(p)
        assert x0.shape == (p.dim,)
        assert p.regularizer.value(x0) == 0.0


def _documented_start(pid):
    """Each family's start as the family switch of default_x0 once spelled it,
    the phase-retrieval data drawn a second time from the id's seed."""
    p = problem_from_id(pid)
    family = pid.split(":")[0]
    if family == "phase_retrieval":
        m, d, seed = (int(t) for t in pid.split(":")[1:4])
        A, _, b = _phase_retrieval_data(m, d, np.random.default_rng(seed))
        v = np.linalg.eigh((A.T * b) @ A / m)[1][:, -1]
        v = v * np.sign(v[np.argmax(np.abs(v))])
        return v * min(float(np.sqrt(b.mean())), 2.0)
    if family == "robust_regression":
        return 0.5 * np.broadcast_to(np.asarray(p.regularizer.hi, float), (p.dim,)).copy()
    if family == "smooth_ls":
        return np.zeros(p.dim)
    return np.array([0.5]) if pid == "toy1d:abs" else np.array([1.8])


@pytest.mark.parametrize("pid", [
    "phase_retrieval:50:10:0", "phase_retrieval:7:3:4", "phase_retrieval:30:6:7",
    "robust_regression:40:2:1", "robust_regression:9:4:3:outliers=0.3",
    "smooth_ls:60:5:2", "smooth_ls:15:2:6:sigma=0.2", "toy1d:abs", "toy1d:absquad",
])
def test_each_factory_states_the_documented_start(pid):
    p = problem_from_id(pid)
    x0 = default_x0(p)
    want = _documented_start(pid)
    assert x0.dtype == want.dtype and x0.tobytes() == want.tobytes()
    # a caller that steps its start in place leaves the problem's own
    x0 += 1.0
    assert default_x0(p).tobytes() == want.tobytes()


def test_a_problem_without_a_start_starts_at_the_projected_origin():
    # the box [0.5, 2]^2 leaves the origin out
    p = make_robust_regression(10, 2, 1)
    shifted = dataclasses.replace(p.regularizer, lo=np.full(2, 0.5))
    p = dataclasses.replace(p, regularizer=shifted, x0=None)
    np.testing.assert_array_equal(default_x0(p), [0.5, 0.5])


@pytest.mark.parametrize("x0, message", [
    (np.zeros(3), "x0 must have shape"),
    (np.zeros((1, 2)), "x0 must have shape"),
    (0.0, "x0 must have shape"),
    (np.array([0.0, np.nan]), "x0 must be finite"),
    (np.array([np.inf, 0.0]), "x0 must be finite"),
])
def test_a_start_of_the_wrong_shape_or_not_finite_is_refused(x0, message):
    p = make_smooth_ls_noisy(10, 2, 0.1, 1)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(p, x0=x0)
    with pytest.raises(ValueError, match=message):
        CompositeProblem(dim=2, g_oracle=p.g_oracle, regularizer=p.regularizer, rho=p.rho, x0=x0)


# ------------------------------------------------------ oracle stream contract

ORACLE_IDS = [
    "phase_retrieval:12:3:7",
    "robust_regression:9:2:4",
    "smooth_ls:15:2:6",
    "toy1d:abs",
    "toy1d:absquad",
]


@pytest.mark.parametrize("pid", ORACLE_IDS)
def test_draw_consumes_the_stream_like_single_draws(pid):
    oracle = problem_from_id(pid).g_oracle
    batch_rng, single_rng = np.random.default_rng(21), np.random.default_rng(21)
    batch = oracle.draw(batch_rng, 40)
    singles = [oracle.draw(single_rng, 1)[0] for _ in range(40)]
    assert len(batch) == 40
    assert np.asarray(singles).tobytes() == np.asarray(batch).tobytes()
    # the generator is left in the same state: the next variate agrees
    assert batch_rng.uniform() == single_rng.uniform()


@pytest.mark.parametrize("pid", ORACLE_IDS)
def test_batch_sample_rows_match_single_samples(pid):
    p = problem_from_id(pid)
    x = sample_domain_points(p, 1, 1.5, np.random.default_rng(3))[0]
    draws = p.g_oracle.draw(np.random.default_rng(8), 60)
    batch = p.g_oracle.sample(x, draws)
    assert batch.shape == (60, p.dim)
    rows = np.stack([p.g_oracle.sample(x, w) for w in draws])
    if p.meta.family in ("smooth_ls", "toy1d"):
        assert rows.tobytes() == batch.tobytes()
    else:
        # the batch takes all inner products in one matrix-vector product
        np.testing.assert_allclose(rows, batch, rtol=1e-12, atol=1e-12)


def _finite_sum_reference(pid):
    """The family's data and its per-draw subgradient, spelled row by row."""
    family, m, d, seed = pid.split(":")
    m, d, rng = int(m), int(d), np.random.default_rng(int(seed))
    if family == "phase_retrieval":
        A, _, b = _phase_retrieval_data(m, d, rng)

        def subgradient(x, i):
            rows = A[i]
            inner = rows.dot(x)
            coef = 2.0 * np.sign(inner**2 - b[i]) * inner
            return coef[..., None] * rows

    else:
        A, b, _ = _linear_data(rng, m, d, ID_PARAMS[family].default)

        def subgradient(x, i):
            rows = A[i]
            return np.sign(rows.dot(x) - b[i])[..., None] * rows

    return m, d, subgradient


FINITE_SUM_IDS = [
    "phase_retrieval:7:3:2",
    "phase_retrieval:1:4:5",
    "robust_regression:9:2:4",
    "robust_regression:1:3:6",
]


@pytest.mark.parametrize("pid", FINITE_SUM_IDS)
def test_finite_sum_oracle_forms_match_the_row_reference(pid):
    # a stack of any size gathers from the table of the m component
    # subgradients, equal to the row reference up to the rounding of a gemv;
    # a point call must stay the row reference's exact bytes, since it is
    # what a solver step pays
    p = problem_from_id(pid)
    m, d, subgradient = _finite_sum_reference(pid)
    rng = np.random.default_rng(17)
    for x in sample_domain_points(p, 3, 1.5, rng):
        for n in (1, m - 1, m, 3 * m):
            draws = p.g_oracle.draw(rng, n)
            stack = p.g_oracle.sample(x, draws)
            assert stack.shape == (n, d)
            points = [p.g_oracle.sample(x, w) for w in draws]
            reference = [subgradient(x, w) for w in draws]
            for got, want in zip(points, reference):
                assert got.shape == (d,) and got.tobytes() == want.tobytes()
            np.testing.assert_allclose(
                stack, np.reshape(reference, (n, d)), rtol=1e-12, atol=1e-12
            )
        # the table and the selection read one coefficient: its mean over the
        # m rows is the selection up to the order of a sum
        table = p.g_oracle.sample(x, np.arange(m))
        np.testing.assert_allclose(
            table.mean(axis=0), p.g_full_subgradient(x), rtol=1e-12, atol=1e-12
        )


# --------------------------------------------------- batch-first g callables

BATCH_IDS = ORACLE_IDS + [
    "phase_retrieval:50:10:0",
    "phase_retrieval:1:1:0",
    "phase_retrieval:30:1:4",
    "robust_regression:25:1:3",
    "smooth_ls:20:1:5",
    "smooth_ls:10:40:1",
]
REGULARIZED_ANCHORS = {"robust_regression:9:2:4": [0.1, -0.2], "toy1d:abs": [0.3]}


@pytest.mark.parametrize(
    "name", BATCH_IDS + [f"regularized {pid}" for pid in REGULARIZED_ANCHORS]
)
def test_g_callables_on_a_stack_match_point_calls(name):
    pid = name.removeprefix("regularized ")
    p = problem_from_id(pid)
    if pid != name:
        p = RegularizedProblem(p, 0.5, np.array(REGULARIZED_ANCHORS[pid])).problem
    # every row of a stack is computed as its point is, so the stack
    # reproduces the point calls byte for byte (at the kinks too)
    radius = (p.domain_diameter or 4.0) / 2.0
    pts = np.vstack([
        sample_domain_points(p, 200, radius, np.random.default_rng(5)),
        np.zeros((1, p.dim)),
        np.ones((1, p.dim)),
    ])
    values = [p.g_value(x) for x in pts]
    assert all(type(v) is float for v in values)
    stacked = p.g_value(pts)
    assert stacked.shape == (len(pts),)
    assert stacked.tobytes() == np.array(values).tobytes()
    subgradients = p.g_full_subgradient(pts)
    assert subgradients.shape == pts.shape
    rows = np.stack([p.g_full_subgradient(x) for x in pts])
    assert subgradients.tobytes() == rows.tobytes()
