"""Solver loop: recursion exactness, t* sampling, descent lemma checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import proxsgm.solver as solver_mod
from proxsgm.boost import regularized_pipeline, two_stage_convex
from proxsgm.core import (
    CompositeProblem,
    StochasticOracle,
    point_value,
    sample_domain_points,
)
from proxsgm.harness import BoundInputs, theoretical_bound
from proxsgm.moreau import moreau_prox
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
    run_averaged,
    run_psgm,
    sample_tstar,
)

from builders import deterministic_oracle, no_draws, with_l1
from reference import GridSpec, moreau_grid_oracle


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


def test_one_check_gives_the_constant_step_of_a_run_and_of_its_bound(monkeypatch):
    # StepSchedule.constant and every bound variant take gamma/sqrt(T+1) from
    # solver.constant_step, which checks gamma, T and the cap step_cap(rho_hat)
    from proxsgm import harness

    assert solver_mod.constant_step(2.0, 3) == 1.0
    assert StepSchedule.constant(0.3, 8).alphas[0] == solver_mod.constant_step(0.3, 8)
    gamma = math.sqrt(5) / 7.0  # the step 1/7 at T = 4, on the cap at rho_hat = 7
    assert solver_mod.constant_step(gamma, 4, rho_hat=7.0) <= solver_mod.step_cap(7.0)
    with pytest.raises(ValueError, match=r"step gamma/sqrt\(T\+1\) must lie in \(0\.0, 0\.5"):
        solver_mod.constant_step(1.0, 0, rho_hat=2.0)
    with pytest.raises(ValueError, match=r"step gamma/sqrt\(T\+1\) must lie in \(0\.0, 0\.5"):
        StepSchedule.constant(1.0, 0, rho_hat=2.0)
    calls = []

    def record(gamma, T, rho_hat=None):
        calls.append((gamma, T, rho_hat))
        return solver_mod.constant_step(gamma, T, rho_hat)

    monkeypatch.setattr(harness, "constant_step", record)
    inputs = harness.BoundInputs(delta=1.0, rho=1.0, rho_hat=1.5, L=1.0, sigma=1.0, gamma=0.5,
                                 T=3)
    for variant in harness.BOUND_VARIANTS:
        harness.theoretical_bound(variant, inputs)
    assert dict(zip(harness.BOUND_VARIANTS, calls)) == {
        "ProjectedThm21": (0.5, 3, None), "ProximalThm26": (0.5, 3, 1.5),
        "SmoothCor29": (0.5, 3, 1.5), "Cor22": (0.5, 3, None), "Cor27": (0.5, 3, 2.0)}


# ------------------------------------------------------------ trajectories


def run_bytes(run):
    return [np.asarray(getattr(run, f.name)).tobytes() for f in dataclasses.fields(run)]


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def test_linear_recursion_exact():
    c = np.array([1.0, -2.0])
    p = constant_gradient_problem(c)
    alphas = [0.3] * 6
    out = run_psgm(p, np.zeros(2), StepSchedule(alphas), 7)
    full = run_averaged(p, np.zeros(2), StepSchedule(alphas), 7)
    traj = [np.zeros(2)]
    for a in alphas:
        traj.append(traj[-1] - a * c)
    np.testing.assert_array_equal(out.x_star, traj[out.t_star])
    np.testing.assert_array_equal(full.x_last, traj[6])
    np.testing.assert_allclose(full.mean, np.mean(traj[:6], axis=0), rtol=1e-15)


def test_projection_clamp_hand_value():
    # x0 = 0.5, step 1, gradient 2, box [0, 1]: next iterate clamps to 0
    p = constant_gradient_problem([2.0], box_indicator(np.array([0.0]), np.array([1.0])))
    full = run_averaged(p, np.array([0.5]), StepSchedule([1.0]), 0)
    assert full.x_last == pytest.approx([0.0])
    out = run_psgm(p, np.array([0.5]), StepSchedule([1.0]), 0)
    assert out.t_star == 0 and out.x_star == pytest.approx([0.5])


def test_run_psgm_feasibility_and_bookkeeping():
    p = problem_from_id("robust_regression:12:2:3")
    sched = StepSchedule.constant(0.5, 40)
    out = run_psgm(p, np.zeros(2), sched, 123)
    full = run_averaged(p, np.zeros(2), sched, 123)
    assert full.oracle_calls == 41
    assert out.oracle_calls == out.t_star
    # the box is convex, so the two means of feasible iterates are feasible
    for z in (out.x_star, full.x_last, full.mean, full.weighted_mean):
        assert z.shape == (2,)
        assert p.regularizer.value(z) == 0.0
    assert 0 <= out.t_star <= 40


def test_run_psgm_bit_identical_reruns():
    p = make_phase_retrieval(15, 4, 2)
    sched = StepSchedule.constant(0.05, 30)
    x0 = np.full(4, 0.5)  # origin is a stationary point, start off it
    for run in (run_psgm, run_averaged):
        a, b = (run(p, x0, sched, np.random.default_rng([4, 9])) for _ in range(2))
        assert run_bytes(a) == run_bytes(b)
    a, c = (run_averaged(p, x0, sched, np.random.default_rng([s, 9])) for s in (4, 5))
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
    runs, fulls = [], []
    for chunk in (1, 7, DEFAULT_CHUNK):
        monkeypatch.setattr(solver_mod, "CHUNK", chunk)
        runs.append(run_psgm(p, x0, sched, np.random.default_rng(5)))
        fulls.append(run_averaged(p, x0, sched, np.random.default_rng(5)))
    for r, f in zip(runs, fulls):
        assert f.x_last.tobytes() == fulls[0].x_last.tobytes()
        assert r.x_star.tobytes() == runs[0].x_star.tobytes()
        assert r.t_star == runs[0].t_star
        # the means sum the same iterates in other groupings
        np.testing.assert_allclose(f.mean, fulls[0].mean, rtol=1e-12)
        np.testing.assert_allclose(f.weighted_mean, fulls[0].weighted_mean, rtol=1e-12)


@pytest.mark.parametrize("pid", FAMILY_IDS)
@pytest.mark.parametrize("n_steps", [1, 41, 41 + DEFAULT_CHUNK],
                         ids=["one_step", "in_chunk", "past_chunk"])
@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
@pytest.mark.parametrize("run", [run_averaged, run_psgm], ids=["averaged", "psgm"])
def test_run_step_contract_call_counts(monkeypatch, pid, n_steps, chunk, run):
    # one sample and one prox call per step, one draw per chunk: the
    # benchmark's traced step count is the number of sample calls.  The
    # averaged run takes all n_steps, run_psgm stops after t* of them; at
    # n_steps = 1 that is t* = 0, no call at all, and x_star is x0
    p = problem_from_id(pid)
    x0 = default_x0(p)
    calls = {"sample": 0, "draw": 0, "prox": 0}
    oracle = StochasticOracle(
        sample=counting(calls, "sample", p.g_oracle.sample),
        draw=counting(calls, "draw", p.g_oracle.draw),
    )
    monkeypatch.setattr(ProxFriendly, "prox", counting(calls, "prox", ProxFriendly.prox))
    monkeypatch.setattr(solver_mod, "CHUNK", chunk)
    out = run(
        dataclasses.replace(p, g_oracle=oracle), x0,
        StepSchedule.constant(0.05, n_steps - 1), 3,
    )
    steps = n_steps if run is run_averaged else out.t_star
    assert out.oracle_calls == steps
    assert calls == {"sample": steps, "draw": -(-steps // chunk), "prox": steps}
    if run is run_psgm and n_steps == 1:
        assert out.x_star.tobytes() == x0.tobytes()


def reference_trajectory(p, x0, sched, seed, n):
    """t* and x_0..x_n rebuilt from the stream of a run seeded [seed, 21]:
    t* from the spawned substream first, then the draws, which do not
    depend on how they are split into chunks."""
    rng = np.random.default_rng([seed, 21])
    t_star = sample_tstar(sched.alphas, rng.spawn(1)[0])
    traj = [x0]
    for a, w in zip(sched.alphas[:n], p.g_oracle.draw(rng, n)):
        x = traj[-1]
        traj.append(p.regularizer.prox(x - a * p.g_oracle.sample(x, w), a))
    return t_star, np.array(traj)


@pytest.mark.parametrize("pid", ["robust_regression:9:2:4", "smooth_ls:15:2:6"])
@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
def test_run_averaged_matches_a_reference_trajectory(monkeypatch, pid, chunk):
    # x_0..x_{T+1}, where T + 1 spans several chunks of either length
    monkeypatch.setattr(solver_mod, "CHUNK", chunk)
    p = problem_from_id(pid)
    x0 = default_x0(p)
    sched = StepSchedule.constant(0.05, 3 * DEFAULT_CHUNK + 4)
    n = sched.alphas.size
    for seed in range(3):
        out = run_averaged(p, x0, sched, np.random.default_rng([seed, 21]))
        _, traj = reference_trajectory(p, x0, sched, seed, n)
        assert out.x_last.tobytes() == traj[n].tobytes()
        weights = np.arange(1.0, n + 1.0)
        np.testing.assert_allclose(out.mean, traj[:n].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            out.weighted_mean, weights @ traj[:n] / weights.sum(), rtol=1e-12
        )


@pytest.mark.parametrize("pid", FAMILY_IDS)
@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
def test_run_psgm_matches_a_reference_trajectory(monkeypatch, pid, chunk):
    # x_star is the reference's x_{t*}, reached after exactly t* sample
    # calls; t* falls past the first default chunk about half the time
    monkeypatch.setattr(solver_mod, "CHUNK", chunk)
    p = problem_from_id(pid)
    x0 = default_x0(p)
    sched = StepSchedule.constant(0.05, 2 * DEFAULT_CHUNK + 4)
    calls = {"sample": 0}
    counted = dataclasses.replace(p, g_oracle=StochasticOracle(
        sample=counting(calls, "sample", p.g_oracle.sample), draw=p.g_oracle.draw))
    for seed in range(3):
        calls["sample"] = 0
        out = run_psgm(counted, x0, sched, np.random.default_rng([seed, 21]))
        t_star, traj = reference_trajectory(p, x0, sched, seed, out.t_star)
        assert out.t_star == t_star
        assert calls["sample"] == out.oracle_calls == t_star
        assert out.x_star.tobytes() == traj[t_star].tobytes()


@pytest.mark.parametrize("run, bound", [(run_averaged, 8e6), (run_psgm, 3e6)],
                         ids=["averaged", "psgm"])
def test_run_memory_does_not_grow_with_the_horizon(run, bound):
    # a stored trajectory at T = 50 000 in d = 50 holds 20 MB; a run keeps
    # one chunk of draws at a time, and of iterates only to fold them.  The
    # schedule is built inside the window: a constant one takes O(1) memory
    p = problem_from_id("smooth_ls:60:50:1")
    x0 = default_x0(p)
    run(p, x0, StepSchedule.constant(0.05, 10), 0)  # warm numpy's caches
    tracemalloc.start()
    try:
        out = run(p, x0, StepSchedule.constant(0.05, 50_000), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.oracle_calls > 10 * DEFAULT_CHUNK
    assert peak < bound


def test_constant_schedule_and_tstar_memory_does_not_grow_with_the_horizon():
    # 10^7 + 1 steps, stored or cumulated whole, would take 80 MB each
    tracemalloc.start()
    try:
        t = sample_tstar(StepSchedule.constant(0.5, 10**7).alphas, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 <= t <= 10**7
    assert peak < 2e6


def test_run_psgm_rejects_infeasible_start():
    p = problem_from_id("robust_regression:12:2:3")
    with pytest.raises(DomainError):
        run_psgm(p, np.array([99.0, 0.0]), StepSchedule.constant(0.1, 5), 0)
    # at t* = 0 run_psgm would return a non-finite start as it is
    for run in (run_psgm, run_averaged):
        with pytest.raises(DomainError):
            run(make_toy1d("abs"), np.array([np.nan]), StepSchedule([1.0]), 0)


@pytest.mark.parametrize("run", [run_psgm, run_averaged])
def test_run_rejects_a_start_of_the_wrong_shape(run):
    with pytest.raises(DomainError, match=r"x0 has shape \(2,\), problem dim 1"):
        run(make_toy1d("abs"), np.zeros(2), StepSchedule.constant(0.1, 5), 0)


def test_run_flags_nonfinite_oracle():
    calls = {"n": 0}

    def sample(x, w):
        calls["n"] += 1
        return np.array([np.nan]) if calls["n"] == 3 else np.array([1.0])

    p = CompositeProblem(
        dim=1, g_oracle=StochasticOracle(sample=sample, draw=no_draws), regularizer=zero_regularizer(),
        rho=0.0, lipschitz_L=1.0,
    )
    with pytest.raises(OracleError, match="iteration 2"):
        run_averaged(p, np.zeros(1), StepSchedule.constant(1.0, 10), 0)


@pytest.mark.parametrize("chunk_end", [False, True])
def test_run_flags_infinite_oracle_inside_a_box(monkeypatch, chunk_end):
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
        dim=2, g_oracle=StochasticOracle(sample=sample, draw=no_draws), regularizer=box,
        rho=0.0, lipschitz_L=2.0,
    )
    with pytest.raises(OracleError) as err:
        run_averaged(p, np.zeros(2), StepSchedule.constant(0.1, 20), 0)
    assert err.value.iteration == k
    assert calls["n"] == k + 1


@pytest.mark.parametrize("chunk_end", [False, True])
def test_run_flags_a_non_finite_last_iterate(monkeypatch, chunk_end):
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
        dim=2, g_oracle=StochasticOracle(sample=sample, draw=no_draws),
        regularizer=ball_indicator(np.zeros(2), 1.0), rho=0.0, lipschitz_L=2.0,
    )
    with np.errstate(over="ignore"), pytest.raises(OracleError) as err:
        run_averaged(p, np.zeros(2), StepSchedule.constant(10.0, n - 1), 0)
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


def reference_tstar(alphas, rng, size):
    """The whole-array inverse CDF: one cumsum of every step."""
    cdf = np.cumsum(alphas)
    t = np.searchsorted(cdf, rng.uniform(0.0, cdf[-1], size), side="right")
    t = t.clip(0, alphas.size - 1)
    return int(t) if size is None else t


TSTAR_STEPS = {
    "constant": lambda n: StepSchedule.constant(0.5, n - 1).alphas,
    "uniform": lambda n: 1.0 - np.random.default_rng(n).random(n),
    "harmonic": lambda n: 1.0 / np.arange(1.0, n + 1.0),
    "tiny": lambda n: np.full(n, 1e-300),
}


@pytest.mark.parametrize("n", [1, DEFAULT_CHUNK - 1, DEFAULT_CHUNK, DEFAULT_CHUNK + 1,
                               3 * DEFAULT_CHUNK + 5, 200_001])
@pytest.mark.parametrize("kind", TSTAR_STEPS)
@pytest.mark.parametrize("size", [None, 7, 1000])
def test_sample_tstar_matches_the_whole_array_scan(n, kind, size):
    alphas = TSTAR_STEPS[kind](n)
    for seed in range(10):
        got = sample_tstar(alphas, np.random.default_rng(seed), size)
        want = reference_tstar(alphas, np.random.default_rng(seed), size)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)


class FixedUniform:
    """Stands in for a generator whose uniform variates are given."""

    def __init__(self, u):
        self.u = u

    def uniform(self, low, high, size):
        return np.asarray(self.u, dtype=float)


@pytest.mark.parametrize("kind", [*TSTAR_STEPS, "absorbed"])
def test_sample_tstar_counts_partial_sums_equal_to_u_across_chunks(kind):
    # u at a chunk's last partial sum, its neighbours, 0 and the total,
    # where the scan must go on past the chunk or clip to T.  "absorbed":
    # every step after the first adds nothing, so all partial sums are 1.0
    # and the ones in later chunks equal a u at the first chunk's last
    n = 3 * DEFAULT_CHUNK + 5
    if kind == "absorbed":
        alphas = np.concatenate(([1.0], np.full(n - 1, 1e-300)))
    else:
        alphas = TSTAR_STEPS[kind](n)
    cdf = np.cumsum(alphas)
    edge = cdf[DEFAULT_CHUNK - 1]
    us = [0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), cdf[-2], cdf[-1]]
    got = sample_tstar(alphas, FixedUniform(us), len(us))
    want = reference_tstar(alphas, FixedUniform(us), len(us))
    np.testing.assert_array_equal(got, want)
    assert got[-1] == n - 1
    # one at a time, each u is the largest: the scan's stopping point
    for u in us:
        want = reference_tstar(alphas, FixedUniform(u), None)
        assert sample_tstar(alphas, FixedUniform(u)) == want


# ------------------------------------------------------------ lemma checks


def test_descent_lemma_weakly_convex_no_violation():
    p = make_phase_retrieval(20, 5, 6)
    x = np.array([0.4, -0.2, 0.1, 0.6, -0.5])
    rep = check_descent_lemma(p, x, 2.0 * p.rho, 1.0 / (4.0 * p.rho), 20_000, 11)
    assert rep.variant == "ProjectedThm21"
    assert not rep.violated
    assert rep.n_samples == 20_000


def test_descent_lemma_smooth_variant_no_violation():
    p = make_smooth_ls_noisy(25, 3, 0.1, 4)
    x = np.array([0.5, -0.4, 0.9])
    rep = check_descent_lemma(p, x, 2.0 * p.rho, 1.0 / (4.0 * p.rho), 20_000, 12)
    assert rep.variant == "SmoothCor29"
    assert not rep.violated


def test_descent_lemma_checks_the_proximal_row():
    # an l1 regularizer is no indicator, so its row is ProximalThm26, which
    # the five shipped families never reach
    p = with_l1()
    anchors = sample_domain_points(p, 10, 2.0, np.random.default_rng(31))
    worst = -math.inf
    for j, x in enumerate(anchors):
        rep = check_descent_lemma(p, x, 1.0, 0.5, 100_000, np.random.default_rng([37, j]))
        assert rep.variant == "ProximalThm26"
        assert not rep.violated
        worst = max(worst, rep.estimate - rep.ci_half_width - rep.bound)
    assert worst < -1.0


def test_descent_lemma_refuses_the_proximal_row_at_rho_zero():
    # its contraction needs rho < rho_hat <= 2 rho, an empty range at rho = 0,
    # which theoretical_bound refuses as well
    p = with_l1(rho=0.0)
    with pytest.raises(ValueError, match=r"rho_hat must lie in \(0.0, 0.0\]"):
        check_descent_lemma(p, default_x0(p), 1.0, 0.5, 100, 0)
    with pytest.raises(ValueError, match=r"rho_hat must lie in \(0.0, 0.0\]"):
        theoretical_bound("ProximalThm26", BoundInputs(delta=1.0, rho=0.0, rho_hat=1.0,
                                                       L=p.lipschitz_L, gamma=0.5, T=0))


def test_descent_lemma_flags_a_nan_estimate():
    # estimate - ci > bound is False for a NaN estimate, which read as no violation
    p = make_toy1d("absquad")
    nan_oracle = dataclasses.replace(p.g_oracle, sample=lambda x, w: np.full((len(w), 1), np.nan))
    rep = check_descent_lemma(dataclasses.replace(p, g_oracle=nan_oracle), np.array([0.8]),
                              4.0, 0.1, 100, 0)
    assert math.isnan(rep.estimate)
    assert rep.violated


def test_descent_lemma_allows_roundoff_on_a_tight_bound():
    # toy1d:abs at rho_hat = 1, alpha = 1/2, |x| > 1 meets the projected
    # lemma with equality: x_hat = x - sign(x), ||x+ - x_hat||^2 = 1/4
    p = make_toy1d("abs")
    rep = check_descent_lemma(p, np.array([1.7]), 1.0, 0.5, 10, 0)
    assert rep.variant == "ProjectedThm21"
    assert rep.ci_half_width == 0.0
    assert abs(rep.estimate - rep.bound) <= rep.allowance
    eps = np.finfo(float).eps
    assert rep.allowance == pytest.approx(solver_mod.LEMMA_ROUNDOFF * eps * (1.0 + 0.25))
    assert not rep.violated


def test_descent_lemma_validation():
    p = make_toy1d("absquad")
    with pytest.raises(ValueError):
        check_descent_lemma(p, np.array([0.5]), p.rho, 0.1, 100, 0)  # rho_hat <= rho
    # the caps of the rows that have them: rho_hat <= 2 rho (proximal) and
    # alpha <= 1/rho_hat (proximal and smooth)
    q = with_l1()
    with pytest.raises(ValueError, match=r"rho_hat must lie in \(0.5, 1.0\]"):
        check_descent_lemma(q, default_x0(q), 1.5, 0.1, 100, 0)
    with pytest.raises(ValueError, match="alpha must lie in"):
        check_descent_lemma(q, default_x0(q), 1.0, 1.5, 100, 0)
    s = make_smooth_ls_noisy(25, 3, 0.1, 4)
    with pytest.raises(ValueError, match="alpha must lie in"):
        check_descent_lemma(s, default_x0(s), 4.0 * s.rho, 1.0 / s.rho, 100, 0)
    # the projected row has no step cap: alpha = 1/2 > 1/rho_hat = 1/4 holds
    assert not check_descent_lemma(p, np.array([0.5]), 4.0, 0.5, 100, 0).violated


@pytest.mark.parametrize("problem, field, message", [
    (lambda: problem_from_id("toy1d:absquad"), "lipschitz_L",
     "ProjectedThm21 needs a certified lipschitz_L"),
    (with_l1, "lipschitz_L", "ProximalThm26 needs a certified lipschitz_L"),
    (lambda: problem_from_id("smooth_ls:25:3:4"), "sigma", "SmoothCor29 needs a certified sigma"),
], ids=["projected", "proximal", "smooth"])
def test_descent_lemma_needs_the_constant_of_its_variant(problem, field, message):
    p = dataclasses.replace(problem(), **{field: None})
    rho_hat = 2.0 * p.rho
    with pytest.raises(ValueError, match=message):
        check_descent_lemma(p, default_x0(p), rho_hat, 0.5 / rho_hat, 100, 0)


@pytest.mark.parametrize(
    "rho_hat, alpha, n_samples",
    [
        (4.0, 0.0, 500),  # alpha = 0: estimate == bound, verdict by roundoff
        (4.0, -0.1, 500),
        (4.0, float("nan"), 500),
        (4.0, 0.1, 0),
        (4.0, 0.1, 1),  # no half-width from one sample
        (float("nan"), 0.1, 500),
    ],
)
def test_descent_lemma_rejects_inputs_outside_its_range(monkeypatch, rho_hat, alpha, n_samples):
    def no_solve(*args, **kwargs):
        raise AssertionError("envelope solved before the inputs were validated")

    monkeypatch.setattr(solver_mod, "moreau_prox", no_solve)
    p = make_toy1d("absquad")
    with pytest.raises(ValueError):
        check_descent_lemma(p, np.array([0.8]), rho_hat, alpha, n_samples, 3)


@pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan")])
def test_prox_identity_rejects_a_non_positive_alpha(monkeypatch, alpha):
    def no_solve(*args, **kwargs):
        raise AssertionError("envelope solved before alpha was validated")

    monkeypatch.setattr(solver_mod, "moreau_prox", no_solve)
    with pytest.raises(ValueError):
        check_prox_identity(make_toy1d("absquad"), np.array([0.7]), 4.0, alpha)


# ------------------------------------------------------- prox fixed point


def test_prox_identity_boxed_1d_grid_oracle():
    p = make_toy1d("absquad")
    x = np.array([0.7])
    pt = moreau_grid_oracle(p, x, 0.25, GridSpec(points_per_dim=100_001, n_refine=2))
    res = check_prox_identity(p, x, 4.0, 0.1, point=pt)
    assert res <= 1e-6


@pytest.mark.parametrize("x, lam", [(0.2, 0.25), (0.7, 0.1)], ids=["other_x", "other_lam"])
def test_prox_identity_refuses_a_point_evaluated_elsewhere(x, lam):
    # at (x, 1/rho_hat) = (0.7, 0.25) the residual is 0; a point solved at
    # x = 0.2 once gave 0.2, and one solved at lam = 0.1 gave 0.105, unrefused
    p = make_toy1d("absquad")
    right = moreau_prox(p, np.array([0.7]), 0.25, 1e-12)
    assert check_prox_identity(p, np.array([0.7]), 4.0, 0.1, point=right) == 0.0
    elsewhere = moreau_prox(p, np.array([x]), lam, 1e-12)
    with pytest.raises(ValueError, match="evaluated at"):
        check_prox_identity(p, np.array([0.7]), 4.0, 0.1, point=elsewhere)


def test_prox_identity_alpha_at_cap():
    # alpha = 1/rho_hat makes the two sides cancel structurally
    p = make_toy1d("absquad")
    res = check_prox_identity(p, np.array([0.7]), 4.0, 0.25, inner_tol=1e-12)
    assert res <= 1e-10


def test_prox_identity_zero_regularizer():
    p = make_toy1d("abs")
    res = check_prox_identity(p, np.array([0.5]), 2.0, 0.2, inner_tol=1e-12)
    assert res <= 1e-9


# ------------------------------------------------------------- seed contract


def _counted(problem, calls):
    """``problem`` with every oracle and g callable appending to ``calls``."""
    def count(fn):
        return lambda *a: calls.append(1) or fn(*a)

    oracle = problem.g_oracle
    return dataclasses.replace(
        problem,
        g_oracle=dataclasses.replace(oracle, sample=count(oracle.sample), draw=count(oracle.draw)),
        g_value=count(problem.g_value),
        g_full_subgradient=count(problem.g_full_subgradient),
    )


SEEDED_ENTRIES = {
    "run_psgm": lambda p, s: run_psgm(p, default_x0(p), StepSchedule.constant(0.05, 20), s),
    "run_averaged": lambda p, s: run_averaged(p, default_x0(p), StepSchedule.constant(0.05, 20), s),
    "check_descent_lemma": lambda p, s: check_descent_lemma(p, default_x0(p), 1.0, 0.1, 10, s),
    "two_stage_convex": lambda p, s: two_stage_convex(p, 20, 1.0, s),
    "regularized_pipeline": lambda p, s: regularized_pipeline(p, 0.5, 0.4, 20, s),
}


@pytest.mark.parametrize("seed", [None, True, False])
@pytest.mark.parametrize("entry", SEEDED_ENTRIES)
def test_runs_refuse_a_none_or_bool_seed(entry, seed):
    # None drew fresh OS entropy (two runs stopped at t* = 410 and 401), and
    # True ran as seed 1: neither names a reproducible stream
    calls = []
    p = _counted(problem_from_id("robust_regression:40:2:1"), calls)
    with pytest.raises(TypeError, match="rng_or_seed"):
        SEEDED_ENTRIES[entry](p, seed)
    assert calls == []
    SEEDED_ENTRIES[entry](p, 3)
    assert calls
