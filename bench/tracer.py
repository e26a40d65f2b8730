"""Span tracer for the benchmark's traced run.

Spans are recorded only from this directory: the traced run swaps public
callables of the library for wrappers (`instrument`, `trace_problem`), and
nothing under ``src/`` knows it is being traced.  Calls are synchronous and
single-threaded, so spans nest strictly; each span's self time is its
duration minus the durations of its direct children, which equals the part
of its interval not covered by a child.  Statistics are aggregated as spans
close rather than kept span by span: a long solver run opens about two
spans per step, and a million stored spans would distort the memory the
run reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from collections import Counter
from typing import Callable

# Spans whose individual durations are kept for percentiles.  Everything
# else is summed, because the solver's per-step spans number in the
# hundreds of thousands per pass.
KEEP_DURATIONS = frozenset({"moreau.cold", "moreau.warm"})
# Spans that work inside them is attributed to (see Tracer.within).
OUTER_SPANS = frozenset({"solver.full", "solver.truncated", "moreau.cold", "moreau.warm"})

CHECK_SUITES = (
    "check_prox_nonexpansive",
    "check_prox_optimality",
    "check_certifications",
    "check_oracles",
    "check_tstar_distribution",
    "check_determinism",
    "check_envelope_basics",
)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    errors: int = 0
    durations: list[float] = dataclasses.field(default_factory=list)


class Tracer:
    """Aggregates spans opened by wrapped callables.

    ``within[(outer, name)]`` counts the ``name`` spans that closed while an
    ``outer`` span was open, for ``outer`` in OUTER_SPANS, so work can be
    attributed to the layer that caused it (for example subgradient
    evaluations per envelope solve).  It is the difference of the call
    counters between the outer span's opening and closing, which keeps the
    cost of the innermost, most frequent spans down to two clock reads.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.within: Counter = Counter()
        self._open: list[list] = []  # [stats, start, child_total, snapshot]

    def wrap(self, name: str, fn: Callable) -> Callable:
        st = self.stats.setdefault(name, SpanStats())
        outer = name in OUTER_SPANS
        keep = name in KEEP_DURATIONS
        clock, open_ = self.clock, self._open

        def traced(*args, **kwargs):
            snapshot = self._counts() if outer else None
            frame = [st, 0.0, 0.0, snapshot]
            open_.append(frame)
            failed = True
            frame[1] = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dur = clock() - frame[1]
                open_.pop()
                if open_:
                    open_[-1][2] += dur
                st.calls += 1
                st.total += dur
                st.self_total += dur - frame[2]
                st.errors += failed
                if keep:
                    st.durations.append(dur)
                if outer:
                    for n, c in self._counts().items():
                        if c > snapshot.get(n, 0):
                            self.within[(name, n)] += c - snapshot.get(n, 0)

        return traced

    def _counts(self) -> dict[str, int]:
        return {n: s.calls for n, s in self.stats.items()}

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def total(self, prefix: str) -> float:
        return sum(s.total for n, s in self.stats.items() if n.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(s.calls for n, s in self.stats.items() if n.startswith(prefix))


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Reference self time of explicit spans ``(name, start, end, parent)``.

    Self time is the span's duration minus the measure of the union of its
    children's intervals clipped to the span; ``parent`` is an index into
    ``spans`` or -1.  Tests compare the streaming tracer against this.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# instrumentation of the library


def trace_problem(problem, tracer: Tracer):
    """Copy of ``problem`` whose oracle, g callables and prox open spans."""
    from proxsgm.prox import ProxFriendly

    reg = problem.regularizer
    prox_span = tracer.wrap(f"prox.{reg.kind.value}", ProxFriendly.prox)

    class TracedRegularizer(type(reg)):
        def prox(self, x, alpha):
            return prox_span(self, x, alpha)

    traced_reg = TracedRegularizer(
        **{f.name: getattr(reg, f.name) for f in dataclasses.fields(reg)}
    )
    oracle = dataclasses.replace(
        problem.g_oracle, sample=tracer.wrap("oracle.sample", problem.g_oracle.sample)
    )
    return dataclasses.replace(
        problem,
        g_oracle=oracle,
        g_value=tracer.wrap("problems.g_value", problem.g_value),
        g_full_subgradient=tracer.wrap(
            "problems.g_subgrad", problem.g_full_subgradient
        ),
        regularizer=traced_reg,
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap the library's module-level callables for traced wrappers.

    Covers the names as the calling modules see them: ``run_psgm`` and
    ``moreau_prox`` in ``harness`` and ``checks``, ``moreau_prox`` inside
    ``moreau`` (used by the finite-difference check), scipy's ``lsq_linear``
    and ``minimize`` as ``moreau`` imported them, ``run_sweep``, and the
    check suites.  Problems that ``checks`` builds are traced like the
    benchmark's own.  Everything is restored on exit.
    """
    from proxsgm import checks, harness, moreau, problems, solver

    run_psgm = solver.run_psgm
    full_span = tracer.wrap("solver.full", run_psgm)
    trunc_span = tracer.wrap("solver.truncated", run_psgm)

    def traced_run_psgm(problem, x0, schedule, rng_or_seed):
        # the solver keeps the whole trajectory unless it exceeds the cap
        full = (schedule.horizon + 2) * problem.dim <= solver.TRAJECTORY_CAP
        return (full_span if full else trunc_span)(problem, x0, schedule, rng_or_seed)

    moreau_prox = moreau.moreau_prox
    cold_span = tracer.wrap("moreau.cold", moreau_prox)
    warm_span = tracer.wrap("moreau.warm", moreau_prox)

    def traced_moreau_prox(*args, **kwargs):
        # warm_start is the fifth parameter of moreau_prox
        warm = kwargs.get("warm_start", args[4] if len(args) > 4 else None)
        return (cold_span if warm is None else warm_span)(*args, **kwargs)

    build_span = tracer.wrap("problems.build", problems.problem_from_id)

    def traced_problem_from_id(problem_id):
        return trace_problem(build_span(problem_id), tracer)

    patches = [
        (harness, "run_psgm", traced_run_psgm),
        (checks, "run_psgm", traced_run_psgm),
        (harness, "moreau_prox", traced_moreau_prox),
        (checks, "moreau_prox", traced_moreau_prox),
        (moreau, "moreau_prox", traced_moreau_prox),
        (moreau, "lsq_linear", tracer.wrap("moreau.qp", moreau.lsq_linear)),
        (moreau, "minimize", tracer.wrap("moreau.fallback", moreau.minimize)),
        (harness, "run_sweep", tracer.wrap("harness.sweep", harness.run_sweep)),
        (checks, "problem_from_id", traced_problem_from_id),
        (checks, "default_x0", tracer.wrap("problems.x0", checks.default_x0)),
    ]
    patches += [
        (checks, s, tracer.wrap(f"checks.{s}", getattr(checks, s))) for s in CHECK_SUITES
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield tracer
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    idx = n - 11
    return 100.0 * (idx + 1) / n, sorted(values)[idx]


def layer_metrics(tracer: Tracer, n_passes: int, wall_s: float) -> dict:
    """Per-layer metrics of ``n_passes`` traced passes lasting ``wall_s``.

    Counts are per pass, times are per call, shares are of the traced wall
    time.  Counts are always reported; the times and shares of a layer
    that did no work in this workload are left out.
    """
    m: dict[str, tuple[float, str]] = {}
    get = tracer.get
    within = tracer.within

    solver_s = tracer.total("solver.")
    steps = within[("solver.full", "oracle.sample")] + within[
        ("solver.truncated", "oracle.sample")
    ]
    m["solver.oracle_calls"] = (steps / n_passes, "count")
    if steps:
        m["solver.step_us"] = (1e6 * solver_s / steps, "us")
        for path in ("full", "truncated"):
            n = within[(f"solver.{path}", "oracle.sample")]
            if n:
                m[f"solver.step_us_{path}"] = (1e6 * get(f"solver.{path}").total / n, "us")
        m["solver.share"] = (solver_s / wall_s, "1")

    sample = get("oracle.sample")
    m["oracle.sample_calls"] = (sample.calls / n_passes, "count")
    if sample.calls:
        m["oracle.sample_us"] = (1e6 * sample.total / sample.calls, "us")

    prox_calls = tracer.calls("prox.")
    if prox_calls:
        m["prox.prox_us"] = (1e6 * tracer.total("prox.") / prox_calls, "us")
        m["prox.prox_calls"] = (prox_calls / n_passes, "count")
        for name, st in tracer.stats.items():
            if name.startswith("prox.") and st.calls:
                kind = name.split(".", 1)[1]
                m[f"prox.{kind}_us"] = (1e6 * st.total / st.calls, "us")
                m[f"prox.{kind}_calls"] = (st.calls / n_passes, "count")

    cold, warm, qp = get("moreau.cold"), get("moreau.warm"), get("moreau.qp")
    moreau_calls = cold.calls + warm.calls
    m["moreau.calls"] = (moreau_calls / n_passes, "count")
    m["moreau.fail_count"] = ((cold.errors + warm.errors) / n_passes, "count")
    m["moreau.qp_calls"] = (qp.calls / n_passes, "count")
    m["moreau.fallback_calls"] = (get("moreau.fallback").calls / n_passes, "count")
    if moreau_calls:
        moreau_s = cold.total + warm.total
        m["moreau.share"] = (moreau_s / wall_s, "1")
        for kind, st in (("cold", cold), ("warm", warm)):
            durs = [1e3 * d for d in st.durations]
            if durs:
                m[f"moreau.{kind}_ms_p50"] = (statistics.median(durs), "ms")
                t = tail(durs)
                if t is not None:
                    m[f"moreau.{kind}_ms_tail_pct"] = (t[0], "%")
                    m[f"moreau.{kind}_ms_tail"] = (t[1], "ms")
        if qp.calls:
            m["moreau.qp_ms"] = (1e3 * qp.total / qp.calls, "ms")
            m["moreau.qp_share"] = (qp.total / moreau_s, "1")
        for g in ("g_subgrad", "g_value"):
            n = within[("moreau.cold", f"problems.{g}")] + within[
                ("moreau.warm", f"problems.{g}")
            ]
            m[f"moreau.{g}_per_call"] = (n / moreau_calls, "count")

    sub = get("problems.g_subgrad")
    if sub.calls:
        m["problems.g_subgrad_us"] = (1e6 * sub.total / sub.calls, "us")
    for name, key in (("problems.build", "build_ms"), ("problems.x0", "x0_ms")):
        st = get(name)
        if st.calls:
            m[f"problems.{key}"] = (1e3 * st.total / st.calls, "ms")

    sweep = get("harness.sweep")
    if sweep.calls:
        m["harness.self_ms"] = (1e3 * sweep.self_total / n_passes, "ms")
        m["harness.self_share"] = (sweep.self_total / wall_s, "1")

    for suite in CHECK_SUITES:
        st = get(f"checks.{suite}")
        if st.calls:
            m[f"checks.{suite.removeprefix('check_')}_ms"] = (
                1e3 * st.total / st.calls,
                "ms",
            )
    return m
