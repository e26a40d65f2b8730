"""Solver loop: recursion exactness, t* sampling, descent lemma checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import proxsgm.solver as solver_mod
from proxsgm.core import (
    CompositeProblem,
    StochasticOracle,
    deterministic_oracle,
    point_value,
)
from proxsgm.moreau import moreau_grid_oracle
from proxsgm.problems import (
    default_x0,
    make_phase_retrieval,
    make_smooth_ls_noisy,
    make_toy1d,
    problem_from_id,
)
from proxsgm.prox import ProxFriendly, ball_indicator, box_indicator, zero_regularizer
from proxsgm.solver import (
    DomainError,
    OracleError,
    StepSchedule,
    check_descent_lemma,
    check_prox_identity,
    run_psgm,
    sample_tstar,
)


def constant_gradient_problem(c, reg=None):
    vec = np.asarray(c, dtype=float)
    grad = lambda x: np.broadcast_to(vec, np.shape(x)).copy()
    return CompositeProblem(
        dim=vec.size,
        g_oracle=deterministic_oracle(grad),
        regularizer=reg if reg is not None else zero_regularizer(),
        rho=0.0,
        g_value=lambda x: point_value(x @ vec),
        g_full_subgradient=grad,
        lipschitz_L=float(np.linalg.norm(vec)) + 1.0,
    )


# -------------------------------------------------------------- schedules


def test_constant_schedule_sums():
    s = StepSchedule.constant(2.0, 3)
    # alpha_t = gamma / sqrt(T+1) = 1 for all four steps
    np.testing.assert_allclose(s.alphas, np.ones(4))
    assert s.horizon == 3


def test_explicit_schedule_roundtrip():
    s = StepSchedule([0.5, 0.25, 0.125])
    assert s.horizon == 2
    np.testing.assert_array_equal(s.alphas, [0.5, 0.25, 0.125])


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule.constant(-1.0, 5)
    with pytest.raises(ValueError):
        StepSchedule.constant(1.0, -1)
    with pytest.raises(ValueError):
        StepSchedule([])
    with pytest.raises(ValueError):
        StepSchedule([0.1, -0.2])


@pytest.mark.parametrize(
    "build",
    [lambda: StepSchedule([0.1, np.inf, 0.1]),
     lambda: StepSchedule([0.1, np.nan]),
     lambda: StepSchedule([-np.inf]),
     lambda: StepSchedule.constant(np.inf, 3),
     lambda: StepSchedule.constant(np.nan, 3)],
    ids=["explicit_inf", "explicit_nan", "explicit_minus_inf", "constant_inf",
         "constant_nan"],
)
def test_schedule_rejects_non_finite_steps(build):
    # an infinite step used to pass, and run_psgm then died inside
    # sample_tstar with numpy's OverflowError
    with pytest.raises(ValueError, match="finite and positive"):
        build()


def test_schedule_respects_rho_hat_cap():
    # steps above 1/rho_hat break the envelope argument; reject them early
    with pytest.raises(ValueError):
        StepSchedule([0.6], rho_hat=2.0)
    StepSchedule([0.5], rho_hat=2.0)  # boundary is fine


# ------------------------------------------------------------ trajectories


def run_bytes(run):
    return [np.asarray(getattr(run, f.name)).tobytes() for f in dataclasses.fields(run)]


def test_linear_recursion_exact():
    c = np.array([1.0, -2.0])
    p = constant_gradient_problem(c)
    alphas = [0.3] * 6
    out = run_psgm(p, np.zeros(2), StepSchedule(alphas), 7)
    traj = [np.zeros(2)]
    for a in alphas:
        traj.append(traj[-1] - a * c)
    np.testing.assert_array_equal(out.x_star, traj[out.t_star])
    np.testing.assert_array_equal(out.x_last, traj[6])
    np.testing.assert_allclose(out.mean, np.mean(traj[:6], axis=0), rtol=1e-15)


def test_projection_clamp_hand_value():
    # x0 = 0.5, step 1, gradient 2, box [0, 1]: next iterate clamps to 0
    p = constant_gradient_problem([2.0], box_indicator(np.array([0.0]), np.array([1.0])))
    out = run_psgm(p, np.array([0.5]), StepSchedule([1.0]), 0)
    assert out.x_last == pytest.approx([0.0])
    assert out.t_star == 0 and out.x_star == pytest.approx([0.5])


def test_run_psgm_feasibility_and_bookkeeping():
    p = problem_from_id("robust_regression:12:2:3")
    sched = StepSchedule.constant(0.5, 40)
    out = run_psgm(p, np.zeros(2), sched, 123)
    assert out.oracle_calls == 41
    # the box is convex, so the two means of feasible iterates are feasible
    for z in (out.x_star, out.x_last, out.mean, out.weighted_mean):
        assert z.shape == (2,)
        assert p.regularizer.value(z) == 0.0
    assert 0 <= out.t_star <= 40


def test_run_psgm_bit_identical_reruns():
    p = make_phase_retrieval(15, 4, 2)
    sched = StepSchedule.constant(0.05, 30)
    x0 = np.full(4, 0.5)  # origin is a stationary point, start off it
    a = run_psgm(p, x0, sched, np.random.default_rng([4, 9]))
    b = run_psgm(p, x0, sched, np.random.default_rng([4, 9]))
    assert run_bytes(a) == run_bytes(b)
    c = run_psgm(p, x0, sched, np.random.default_rng([5, 9]))
    assert a.x_last.tobytes() != c.x_last.tobytes()


# one instance of every shipped family
FAMILY_IDS = ["phase_retrieval:12:3:7", "robust_regression:9:2:4", "smooth_ls:15:2:6",
              "toy1d:abs", "toy1d:absquad"]


DEFAULT_CHUNK = solver_mod.CHUNK


@pytest.mark.parametrize("pid", FAMILY_IDS)
@pytest.mark.parametrize("past_chunk", [False, True])
def test_run_psgm_bytes_do_not_depend_on_chunk_length(monkeypatch, pid, past_chunk):
    # past_chunk: the run is longer than one default chunk
    p = problem_from_id(pid)
    x0 = default_x0(p)
    sched = StepSchedule.constant(0.05, 40 + past_chunk * DEFAULT_CHUNK)
    runs = []
    for chunk in (1, 7, DEFAULT_CHUNK):
        monkeypatch.setattr(solver_mod, "CHUNK", chunk)
        runs.append(run_psgm(p, x0, sched, np.random.default_rng(5)))
    for r in runs:
        assert r.x_last.tobytes() == runs[0].x_last.tobytes()
        assert r.x_star.tobytes() == runs[0].x_star.tobytes()
        assert r.t_star == runs[0].t_star
        # the means sum the same iterates in other groupings
        np.testing.assert_allclose(r.mean, runs[0].mean, rtol=1e-12)
        np.testing.assert_allclose(r.weighted_mean, runs[0].weighted_mean, rtol=1e-12)


@pytest.mark.parametrize("pid", FAMILY_IDS)
@pytest.mark.parametrize("past_chunk", [False, True])
@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
def test_run_psgm_step_contract_call_counts(monkeypatch, pid, past_chunk, chunk):
    # one sample and one prox call per step, one draw per chunk: the
    # benchmark's traced step count is the number of sample calls;
    # past_chunk: the run is longer than one default chunk
    p = problem_from_id(pid)
    n_steps = 41 + past_chunk * DEFAULT_CHUNK
    calls = {"sample": 0, "draw": 0, "prox": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    oracle = StochasticOracle(
        sample=counted("sample", p.g_oracle.sample), draw=counted("draw", p.g_oracle.draw)
    )
    monkeypatch.setattr(ProxFriendly, "prox", counted("prox", ProxFriendly.prox))
    monkeypatch.setattr(solver_mod, "CHUNK", chunk)
    out = run_psgm(
        dataclasses.replace(p, g_oracle=oracle), default_x0(p),
        StepSchedule.constant(0.05, n_steps - 1), 3,
    )
    assert out.oracle_calls == n_steps
    assert calls == {"sample": n_steps, "draw": -(-n_steps // chunk), "prox": n_steps}


@pytest.mark.parametrize("pid", ["robust_regression:9:2:4", "smooth_ls:15:2:6"])
@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
def test_run_psgm_matches_a_reference_trajectory(monkeypatch, pid, chunk):
    # rebuild x_0..x_{T+1} from the same stream: t* from the spawned
    # substream first, then the draws, which do not depend on how they are
    # split into chunks; T + 1 spans several chunks of either length
    monkeypatch.setattr(solver_mod, "CHUNK", chunk)
    p = problem_from_id(pid)
    x0 = default_x0(p)
    sched = StepSchedule.constant(0.05, 3 * DEFAULT_CHUNK + 4)
    n = sched.alphas.size
    for seed in range(3):
        out = run_psgm(p, x0, sched, np.random.default_rng([seed, 21]))
        rng = np.random.default_rng([seed, 21])
        t_star = sample_tstar(sched.alphas, rng.spawn(1)[0])
        traj = [x0]
        for a, w in zip(sched.alphas, p.g_oracle.draw(rng, n)):
            x = traj[-1]
            traj.append(p.regularizer.prox(x - a * p.g_oracle.sample(x, w), a))
        traj = np.array(traj)
        assert out.t_star == t_star
        assert out.x_star.tobytes() == traj[t_star].tobytes()
        assert out.x_last.tobytes() == traj[n].tobytes()
        weights = np.arange(1.0, n + 1.0)
        np.testing.assert_allclose(out.mean, traj[:n].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            out.weighted_mean, weights @ traj[:n] / weights.sum(), rtol=1e-12
        )


def test_run_psgm_memory_does_not_grow_with_the_horizon():
    # a stored trajectory at T = 50 000 in d = 50 holds 20 MB; a run keeps
    # one chunk of iterates and one chunk of draws at a time
    p = problem_from_id("smooth_ls:60:50:1")
    x0 = default_x0(p)
    sched = StepSchedule.constant(0.05, 50_000)
    run_psgm(p, x0, StepSchedule.constant(0.05, 10), 0)  # warm numpy's caches
    tracemalloc.start()
    try:
        run_psgm(p, x0, sched, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_run_psgm_rejects_infeasible_start():
    p = problem_from_id("robust_regression:12:2:3")
    with pytest.raises(DomainError):
        run_psgm(p, np.array([99.0, 0.0]), StepSchedule.constant(0.1, 5), 0)


def test_run_psgm_flags_nonfinite_oracle():
    calls = {"n": 0}

    def sample(x, w):
        calls["n"] += 1
        return np.array([np.nan]) if calls["n"] == 3 else np.array([1.0])

    p = CompositeProblem(
        dim=1, g_oracle=StochasticOracle(sample=sample), regularizer=zero_regularizer(),
        rho=0.0, lipschitz_L=1.0,
    )
    with pytest.raises(OracleError, match="iteration 2"):
        run_psgm(p, np.zeros(1), StepSchedule.constant(1.0, 10), 0)


@pytest.mark.parametrize("chunk_end", [False, True])
def test_run_psgm_flags_infinite_oracle_inside_a_box(monkeypatch, chunk_end):
    # the box clamps the step x - a * inf back onto its face, so the
    # iterates stay finite and only the per-step check can catch the draw;
    # with CHUNK = 4 step k = 8 opens the third chunk and k = 11 closes it
    k = 11 if chunk_end else 8
    monkeypatch.setattr(solver_mod, "CHUNK", 4)
    calls = {"n": 0}

    def sample(x, w):
        calls["n"] += 1
        return np.array([np.inf, 1.0]) if calls["n"] == k + 1 else np.array([0.5, 1.0])

    box = box_indicator(-np.ones(2), np.ones(2))
    assert np.isfinite(box.prox(np.zeros(2) - 0.1 * np.array([np.inf, 1.0]), 0.1)).all()
    p = CompositeProblem(
        dim=2, g_oracle=StochasticOracle(sample=sample), regularizer=box,
        rho=0.0, lipschitz_L=2.0,
    )
    with pytest.raises(OracleError) as err:
        run_psgm(p, np.zeros(2), StepSchedule.constant(0.1, 20), 0)
    assert err.value.iteration == k
    assert calls["n"] == k + 1


@pytest.mark.parametrize("chunk_end", [False, True])
def test_run_psgm_flags_a_non_finite_last_iterate(monkeypatch, chunk_end):
    # a finite but huge last draw overflows the step to -inf, and the ball's
    # rescale turns that into inf * 0 = NaN; no later draw sees it, so only
    # the check on the final iterate can; with CHUNK = 4 the last of 11
    # steps is inside a chunk, the last of 12 closes one
    monkeypatch.setattr(solver_mod, "CHUNK", 4)
    n = 12 if chunk_end else 11
    calls = {"n": 0}

    def sample(x, w):
        calls["n"] += 1
        return np.full(2, 1e308) if calls["n"] == n else np.array([0.5, 1.0])

    p = CompositeProblem(
        dim=2, g_oracle=StochasticOracle(sample=sample),
        regularizer=ball_indicator(np.zeros(2), 1.0), rho=0.0, lipschitz_L=2.0,
    )
    with np.errstate(over="ignore"), pytest.raises(OracleError) as err:
        run_psgm(p, np.zeros(2), StepSchedule.constant(10.0, n - 1), 0)
    assert err.value.iteration == n - 1
    assert calls["n"] == n


# ------------------------------------------------------------- t* sampling


def test_sample_tstar_singleton():
    rng = np.random.default_rng(0)
    assert all(sample_tstar([1.0], rng) == 0 for _ in range(20))


def test_sample_tstar_weight_proportions():
    rng = np.random.default_rng(1)
    draws = sample_tstar([1.0, 3.0], rng, 100_000)
    assert abs(np.mean(draws == 1) - 0.75) <= 0.01


def test_sample_tstar_uniform_chi_square():
    from scipy import stats

    rng = np.random.default_rng(2)
    draws = sample_tstar([2.0] * 10, rng, 20_000)
    counts = np.bincount(draws, minlength=10)
    assert stats.chisquare(counts).pvalue >= 1e-3


def test_sample_tstar_size_equals_scalar_calls():
    alphas = np.arange(1.0, 8.0)
    batch_rng, row_rng = np.random.default_rng(3), np.random.default_rng(3)
    batch = sample_tstar(alphas, batch_rng, 1000)
    rows = [sample_tstar(alphas, row_rng) for _ in range(1000)]
    assert all(type(t) is int for t in rows)
    np.testing.assert_array_equal(batch, rows)
    # both consumed one uniform per index
    assert batch_rng.uniform() == row_rng.uniform()


# ------------------------------------------------------------ lemma checks


def test_descent_lemma_alpha_zero_degenerates_to_equality():
    p = make_toy1d("absquad")
    rep = check_descent_lemma(p, np.array([0.8]), 4.0, 0.0, 500, 3)
    assert not rep.violated
    assert rep.estimate == pytest.approx(rep.bound, rel=1e-12)


def test_descent_lemma_weakly_convex_no_violation():
    p = make_phase_retrieval(20, 5, 6)
    x = np.array([0.4, -0.2, 0.1, 0.6, -0.5])
    rep = check_descent_lemma(p, x, 2.0 * p.rho, 1.0 / (4.0 * p.rho), 20_000, 11)
    assert rep.variant == "weakly_convex"
    assert not rep.violated
    assert rep.n_samples == 20_000


def test_descent_lemma_smooth_variant_no_violation():
    p = make_smooth_ls_noisy(25, 3, 0.1, 4)
    x = np.array([0.5, -0.4, 0.9])
    rep = check_descent_lemma(p, x, 2.0 * p.rho, 1.0 / (4.0 * p.rho), 20_000, 12)
    assert rep.variant == "smooth"
    assert not rep.violated


def test_descent_lemma_validation():
    p = make_toy1d("absquad")
    with pytest.raises(ValueError):
        check_descent_lemma(p, np.array([0.5]), p.rho, 0.1, 100, 0)  # rho_hat <= rho
    with pytest.raises(ValueError):
        check_descent_lemma(p, np.array([0.5]), 4.0, 0.3, 100, 0)  # alpha > 1/rho_hat


# ------------------------------------------------------- prox fixed point


def test_prox_identity_boxed_1d_grid_oracle():
    from proxsgm.moreau import GridSpec

    p = make_toy1d("absquad")
    x = np.array([0.7])
    pt = moreau_grid_oracle(p, x, 0.25, GridSpec(points_per_dim=100_001, n_refine=2))
    res = check_prox_identity(p, x, 4.0, 0.1, point=pt)
    assert res <= 1e-6


def test_prox_identity_alpha_at_cap():
    # alpha = 1/rho_hat makes the two sides cancel structurally
    p = make_toy1d("absquad")
    res = check_prox_identity(p, np.array([0.7]), 4.0, 0.25, inner_tol=1e-12)
    assert res <= 1e-10


def test_prox_identity_zero_regularizer():
    p = make_toy1d("abs")
    res = check_prox_identity(p, np.array([0.5]), 2.0, 0.2, inner_tol=1e-12)
    assert res <= 1e-9
