"""Problem contract tests: standing-assumption checks and capability gating."""

import dataclasses
import math

import numpy as np
import pytest

from proxsgm.core import (
    CapabilityError,
    CompositeProblem,
    ProblemMeta,
    StochasticOracle,
    check_hypomonotonicity,
    check_oracle_unbiasedness,
    check_second_moment,
    check_weak_convexity,
    point_value,
    sample_domain_points,
)
from proxsgm.problems import (
    default_x0,
    make_phase_retrieval,
    make_robust_regression,
    make_toy1d,
    problem_from_id,
)
from proxsgm.prox import box_indicator, zero_regularizer

from builders import deterministic_oracle


def constant_oracle(c):
    vec = np.asarray(c, dtype=float)
    return deterministic_oracle(lambda x: vec.copy())


def test_weak_convexity_certified_modulus_passes():
    p = make_toy1d("absquad")
    rep = check_weak_convexity(p, n_pairs=4000, radius=2.0, rng=np.random.default_rng(0))
    assert not rep.violated
    assert rep.n_pairs == 4000


def test_weak_convexity_understated_modulus_fails():
    # |x^2 - 1| is 2-weakly convex but not 0.1-weakly convex
    p = dataclasses.replace(make_toy1d("absquad"), rho=0.1)
    rep = check_weak_convexity(p, n_pairs=4000, radius=2.0, rng=np.random.default_rng(0))
    assert rep.violated
    assert rep.max_violation > rep.tolerance
    assert rep.worst_pair is not None


def test_hypomonotonicity_certified_and_understated():
    p = make_toy1d("absquad")
    ok = check_hypomonotonicity(p, n_pairs=4000, radius=2.0, rng=np.random.default_rng(1))
    assert not ok.violated
    bad = check_hypomonotonicity(
        dataclasses.replace(p, rho=0.1), n_pairs=4000, radius=2.0,
        rng=np.random.default_rng(1),
    )
    assert bad.violated


def test_convex_problem_passes_with_rho_zero():
    p = make_robust_regression(15, 2, 3)
    assert p.rho == 0.0
    rep = check_weak_convexity(p, n_pairs=2000, radius=2.0, rng=np.random.default_rng(2))
    assert not rep.violated


def test_certifications_reject_g_callables_that_are_not_batch_first():
    grad = lambda x: x.copy()
    scalar_value = CompositeProblem(
        dim=2, g_oracle=deterministic_oracle(grad), regularizer=zero_regularizer(),
        rho=0.0, g_value=lambda x: 0.5 * float(x @ x), g_full_subgradient=grad,
    )
    point_subgradient = dataclasses.replace(
        scalar_value,
        g_value=lambda x: point_value(0.5 * np.sum(x * x, axis=-1)),
        g_full_subgradient=lambda x: np.ones(2),
    )
    for check in (check_weak_convexity, check_hypomonotonicity):
        rng = np.random.default_rng(0)
        with pytest.raises(CapabilityError, match=r"g_value .* shape \(n,\), here \(10,\)"):
            check(scalar_value, n_pairs=10, radius=1.0, rng=rng)
        with pytest.raises(
            CapabilityError,
            match=r"g_full_subgradient .* shape \(n, d\), here \(10, 2\); "
            r"it returned shape \(2,\)",
        ):
            check(point_subgradient, n_pairs=10, radius=1.0, rng=rng)


def test_oracle_unbiasedness_phase_retrieval():
    p = make_phase_retrieval(30, 4, 7)
    x = sample_domain_points(p, 1, 1.5, np.random.default_rng(3))[0]
    rep = check_oracle_unbiasedness(p, x, np.random.default_rng(4))
    assert rep.passed
    assert rep.n_passed >= math.ceil(0.95 * rep.n_repeats)


@pytest.mark.parametrize("pid, x", [
    ("toy1d:abs", [0.5]),
    ("toy1d:absquad", [0.3]),
    ("toy1d:absquad", [1.7]),
    ("smooth_ls:30:3:4:sigma=0.0", [0.3, -0.7, 1.1]),
])
def test_zero_variance_oracle_passes_unbiasedness(pid, x):
    # every draw is the same vector; the mean of 10000 copies may still be
    # off by an ulp, and the rounding floor must absorb that
    rep = check_oracle_unbiasedness(problem_from_id(pid), np.array(x), np.random.default_rng(0))
    assert rep.passed and rep.n_passed == rep.n_repeats
    assert rep.worst_ratio < 1.0


def test_zero_allowance_passes_an_exact_zero_mean():
    # sign(0) = 0: every draw is 0, so the spread, the rounding floor and the
    # allowance are all 0, and only an exact match passes
    rep = check_oracle_unbiasedness(make_toy1d("abs"), np.zeros(1), np.random.default_rng(0))
    assert rep.passed and rep.n_passed == rep.n_repeats
    assert rep.worst_ratio == 0.0


def test_zero_allowance_fails_any_error():
    # an oracle of zeros whose selection is ones: zero allowance, nonzero error
    ones = lambda x: np.ones_like(x)
    problem = CompositeProblem(
        dim=2,
        g_oracle=deterministic_oracle(np.zeros_like),
        regularizer=zero_regularizer(),
        rho=0.0,
        g_value=lambda x: point_value(np.sum(x, axis=-1)),
        g_full_subgradient=ones,
    )
    rep = check_oracle_unbiasedness(problem, np.array([0.5, -1.0]), np.random.default_rng(0))
    assert not rep.passed and rep.n_passed == 0
    assert rep.worst_ratio == math.inf


@pytest.mark.parametrize(
    "pid", ["phase_retrieval:50:10:0", "robust_regression:40:2:1", "smooth_ls:60:5:2"]
)
def test_bias_of_ten_standard_errors_fails_unbiasedness(pid):
    problem = problem_from_id(pid)
    x = default_x0(problem)
    base = problem.g_oracle
    draws = base.sample(x, base.draw(np.random.default_rng(1), 10_000))
    spread = math.sqrt(np.mean(np.sum((draws - draws.mean(axis=0)) ** 2, axis=1)))
    shift = np.zeros(problem.dim)
    shift[0] = 10.0 * spread / math.sqrt(10_000)
    biased = dataclasses.replace(
        problem,
        g_oracle=StochasticOracle(sample=lambda y, w: base.sample(y, w) + shift, draw=base.draw),
    )
    rep = check_oracle_unbiasedness(biased, x, np.random.default_rng(3))
    assert not rep.passed and rep.n_passed == 0
    assert rep.worst_ratio > 1.5


def test_second_moment_phase_retrieval():
    p = make_phase_retrieval(30, 4, 7)
    rep = check_second_moment(p, np.random.default_rng(5))
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + 1e-9


def test_second_moment_needs_lipschitz_constant():
    p = CompositeProblem(
        dim=1, g_oracle=constant_oracle([1.0]), regularizer=zero_regularizer(),
        rho=0.0, g_value=lambda x: point_value(x[..., 0]),
    )
    with pytest.raises(CapabilityError):
        check_second_moment(p, np.random.default_rng(0))


def test_phi_adds_regularizer_and_respects_domain():
    p = make_robust_regression(10, 1, 4)
    inside = np.array([0.5])
    assert p.phi(inside) == pytest.approx(p.g_value(inside) + 0.0)
    lo = p.regularizer.lo
    outside = lo - 1.0
    assert math.isinf(p.phi(outside))


def test_require_deterministic():
    p = CompositeProblem(
        dim=1, g_oracle=constant_oracle([1.0]), regularizer=zero_regularizer(), rho=0.0,
    )
    with pytest.raises(CapabilityError):
        p.phi(np.zeros(1))


def test_deterministic_oracle_batch_shape():
    p = CompositeProblem(
        dim=2, g_oracle=constant_oracle([1.0, -1.0]), regularizer=zero_regularizer(),
        rho=0.0,
    )
    out = p.g_oracle.sample(np.zeros(2), p.g_oracle.draw(np.random.default_rng(0), 7))
    assert out.shape == (7, 2)
    np.testing.assert_array_equal(out[3], [1.0, -1.0])


def test_sample_domain_points_feasible():
    p = make_robust_regression(10, 3, 5)
    pts = sample_domain_points(p, 200, 10.0, np.random.default_rng(6))
    assert pts.shape == (200, 3)
    for z in pts:
        assert p.regularizer.value(z) == 0.0


@pytest.mark.parametrize("check", [check_weak_convexity, check_hypomonotonicity])
@pytest.mark.parametrize(
    "n_pairs, radius",
    [(10, math.nan), (10, math.inf), (10, 1e308), (10, 0.0), (math.nan, 1.0), (0, 1.0)],
)
def test_certifications_reject_a_sample_that_measures_nothing(check, n_pairs, radius):
    # at radius nan or inf every sampled point was nan and the verdict read
    # violated=False; at 1e308 the squared norms of the projection overflowed
    with pytest.raises(ValueError, match="n_pairs|radius"):
        check(make_toy1d("absquad"), n_pairs, radius, np.random.default_rng(0))


def test_post_init_validation():
    ora = constant_oracle([1.0])
    with pytest.raises(ValueError):
        CompositeProblem(dim=0, g_oracle=ora, regularizer=zero_regularizer(), rho=0.0)
    with pytest.raises(ValueError):
        CompositeProblem(dim=1, g_oracle=ora, regularizer=zero_regularizer(), rho=-1.0)
    with pytest.raises(ValueError):
        CompositeProblem(
            dim=1, g_oracle=ora, regularizer=zero_regularizer(), rho=0.0,
            lipschitz_L=-2.0,
        )


@pytest.mark.parametrize(
    "field, value",
    [("rho", math.nan), ("rho", math.inf), ("lipschitz_L", math.inf),
     ("lipschitz_L", math.nan), ("sigma", math.nan), ("sigma", math.inf),
     ("domain_diameter", math.nan), ("domain_diameter", math.inf),
     ("domain_diameter", 0.0)],
)
def test_post_init_rejects_non_finite_constants(field, value):
    # NaN fails no `val < 0` test, so each constant needs a finiteness check
    kwargs = {"rho": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        CompositeProblem(
            dim=1, g_oracle=constant_oracle([1.0]), regularizer=zero_regularizer(),
            **kwargs,
        )


def test_problem_meta_id_formats():
    assert ProblemMeta("phase_retrieval", 50, 10, 0).problem_id() == "phase_retrieval:50:10:0"
    assert ProblemMeta("toy1d", detail="abs").problem_id() == "toy1d:abs"


def test_problems_are_frozen():
    p = make_toy1d("abs")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.rho = 5.0
