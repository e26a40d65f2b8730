"""Tests for the benchmark's tracer and workloads.

    python3 -m pytest bench/test_bench.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from proxsgm import harness  # noqa: E402
from proxsgm.core import sample_domain_points  # noqa: E402
from proxsgm.moreau import envelope_grad_fd_check  # noqa: E402
from proxsgm.problems import problem_from_id  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_span_minus_child_coverage():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def advance(dt):
        clock.t += dt

    leaf = tracer.wrap("leaf", advance)

    def mid_body():
        advance(0.2)
        leaf(0.5)
        advance(0.3)

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        advance(1.0)
        leaf(2.0)
        advance(2.0)
        mid()
        advance(4.0)

    tracer.wrap("root", root_body)()

    # the same tree as explicit (name, start, end, parent) spans
    spans = [
        ("root", 0.0, 10.0, -1),
        ("leaf", 1.0, 3.0, 0),
        ("mid", 5.0, 6.0, 0),
        ("leaf", 5.2, 5.7, 2),
    ]
    ref = tr.self_times(spans)
    assert ref == pytest.approx([7.0, 2.0, 0.5, 0.5])
    assert tracer.get("root").self_total == pytest.approx(ref[0])
    assert tracer.get("mid").self_total == pytest.approx(ref[2])
    assert tracer.get("leaf").self_total == pytest.approx(ref[1] + ref[3])
    assert tracer.get("leaf").calls == 2
    assert tracer.within[("root", "leaf")] == 0  # only OUTER_SPANS attribute work


def test_reference_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 5.0, 0), ("c", 9.0, 12.0, 0)]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tr.tail(list(range(10))) is None
    pct, value = tr.tail([float(v) for v in range(100, 0, -1)])
    assert (pct, value) == (90.0, 90.0)
    assert run.item_latency([]) == {"items": 0, "repeats": 0}


def test_layers_without_calls_report_counts_only():
    tracer = tr.Tracer()
    tracer.wrap("prox.box", abs)
    tracer.wrap("moreau.qp", abs)
    m = tr.layer_metrics(tracer, 1, 1.0)
    assert "prox.box_us" not in m and "moreau.qp_ms" not in m
    assert m["moreau.qp_calls"] == (0.0, "count")
    assert m["solver.oracle_calls"] == (0.0, "count")


def _traced_sweep(problem_id, horizons, gamma):
    config = harness.ExperimentConfig(
        problem_id=problem_id, horizons=horizons, gamma=gamma, n_seeds=2, output=""
    )
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        problem = tr.trace_problem(problem_from_id(problem_id), tracer)
        rep = harness.run_sweep(config, problem=problem)
    return rep, tracer


@pytest.mark.parametrize(
    "problem_id, gamma",
    [("phase_retrieval:20:4:1", "optimal"), ("smooth_ls:60:5:2", 0.5)],
)
def test_traced_counts_match_the_sweep(problem_id, gamma):
    rep, tracer = _traced_sweep(problem_id, (10, 30, 100), gamma)
    m = tr.layer_metrics(tracer, 1, 1.0)
    oracle_calls = sum(r.oracle_calls for r in rep.rows)
    assert tracer.get("oracle.sample").calls == oracle_calls
    assert m["solver.oracle_calls"][0] == oracle_calls
    assert m["moreau.calls"][0] == len(rep.rows) + 1  # one per trial plus x0


def test_truncated_path_is_traced_as_truncated(monkeypatch):
    from proxsgm import solver

    monkeypatch.setattr(solver, "TRAJECTORY_CAP", 5 * 102)
    _, tracer = _traced_sweep("smooth_ls:60:5:2", (10, 100, 200), 0.5)
    assert tracer.get("solver.full").calls == 4
    assert tracer.get("solver.truncated").calls == 2


def test_fd_check_makes_one_cold_and_2d_warm_solves():
    problem = problem_from_id("robust_regression:40:2:1")
    pts = sample_domain_points(problem, 3, 2.0, np.random.default_rng(0))
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        traced = tr.trace_problem(problem, tracer)
        for x in pts:
            envelope_grad_fd_check(traced, x, 1.0, h=1e-4, inner_tol=1e-10)
    assert tracer.get("moreau.cold").calls == 3
    assert tracer.get("moreau.warm").calls == 3 * 2 * problem.dim


def test_instrument_restores_the_library():
    from proxsgm import checks, moreau

    before = (harness.run_psgm, moreau.moreau_prox, moreau.lsq_linear, checks.check_oracles)
    with tr.instrument(tr.Tracer()):
        assert harness.run_psgm is not before[0]
    assert (harness.run_psgm, moreau.moreau_prox, moreau.lsq_linear, checks.check_oracles) == before


@pytest.mark.parametrize(
    "workload",
    [
        workloads.Sweep(
            "small_sweep", "", "phase_retrieval:20:4", seed_offset=0,
            horizons=(10, 30, 100), gamma="optimal", n_seeds=2,
        ),
        workloads.EnvelopeFD(n_points=(1, 3)),
        workloads.WORKLOADS["check_suite"],
    ],
    ids=["sweep", "fd", "checks"],
)
def test_traced_outputs_are_bit_identical(workload):
    state = workload.setup(3, {})
    plain = workload.run_pass(state)
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        traced = workload.run_pass(state, tracer)
    assert tracer.calls("moreau.") > 0
    assert run.digest(traced.outputs) == run.digest(plain.outputs)
    assert traced.outcomes == plain.outcomes
    assert len(plain.outcomes) == workload.n_items(state)


def test_probe_slowdown_scales_the_kernel_slowdown():
    from contention import KERNEL_REF_S, SENSITIVITY, ContentionProbe

    probe = ContentionProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.kernel_s = [KERNEL_REF_S, 2 * KERNEL_REF_S, 3 * KERNEL_REF_S, KERNEL_REF_S]
    assert probe.slowdown(0.5, 2.5) == pytest.approx(1.0 + SENSITIVITY * 1.5)
    assert probe.slowdown(3.5, 4.0) == 1.0  # no sample inside
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert len(probe.kernel_s) > 4  # the timer fired while the loop ran
