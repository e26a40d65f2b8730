"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  Set-up (imports, problem
construction, default starts) is timed first, then identical passes of the
workload repeat until ``--seconds`` would be exceeded, with at least two.
With ``--trace 0`` the passes are untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics come from the traced ones.  The metric names and units
are the ones in ``BENCHMARK.json``.

Timing on a shared host: other tenants' load slows this process by up to
2.5x, switching within fractions of a second (see ``contention.py``).
Each pass's wall time is divided by the slowdown the contention probe
estimated for it, and ``wall_s`` is the median of these over the untraced
passes: an estimate of one pass on an uncontended CPU.  The raw median is
printed in the details as ``raw_wall_s``.  Item latencies are adjusted by
their pass's slowdown; each item's median over passes enters the median
and tail across items.

The last line of standard output is the result object; the line before it
carries the details (per-item latencies with their sample counts, every
per-layer metric the workload exercised, the digest of the seeded outputs,
and the machine facts).  Exit code 2 means the library could not be
imported from this checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracer_mod  # noqa: E402  (imports no library code)
from contention import ContentionProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 2


def import_workloads():
    """Import proxsgm from this checkout's src/, then the workloads."""
    sys.path.insert(0, str(SRC))
    import proxsgm

    where = Path(proxsgm.__file__).resolve().parent
    if where != SRC / "proxsgm":
        raise ImportError(f"proxsgm resolved to {where}, not this checkout")
    import workloads

    return workloads


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "unset (library default)")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Pass:
    result: object     # workloads.PassResult
    raw_s: float       # wall time as measured
    wall_s: float      # wall time divided by the host slowdown during it
    traced: bool


def item_latency(passes: list[Pass]) -> dict:
    """Median and tail across items of each item's median adjusted latency."""
    per_item: dict = {}
    for p in passes:
        scale = p.wall_s / p.raw_s
        for key, ms in p.result.item_ms.items():
            per_item.setdefault(key, []).append(ms * scale)
    values = [statistics.median(v) for v in per_item.values()]
    out = {"items": len(values), "repeats": len(passes)}
    if values:
        out["item_ms_p50"] = statistics.median(values)
    tail = tracer_mod.tail(values)
    if tail is not None:
        out["tail_percentile"], out["item_ms_tail"] = tail
    return out


def run_passes(workload, state, seconds, trace, tracer):
    """Run passes until the next one would end after ``seconds``.

    With ``trace``, untraced and traced passes alternate.  The next pass is
    predicted to take as long as the fastest so far.  At least MIN_PASSES
    untraced passes run, and with ``trace`` at least one of each kind.
    Returns ``[(t0, t1, traced, result)]`` and the traceback of a pass that
    raised, which ends the run.
    """
    passes, failure = [], None
    start = time.perf_counter()
    while True:
        use_trace = trace and sum(p[2] for p in passes) < len(passes) / 2
        t0 = time.perf_counter()
        try:
            if use_trace:
                with tracer_mod.instrument(tracer):
                    res = workload.run_pass(state, tracer)
            else:
                res = workload.run_pass(state)
        except Exception:  # a crashed pass fails the run; report it, do not hide it
            failure = traceback.format_exc()
            break
        passes.append((t0, time.perf_counter(), use_trace, res))
        n_traced = sum(p[2] for p in passes)
        n_plain = len(passes) - n_traced
        done = (n_plain >= 1 and n_traced >= 1) if trace else n_plain >= MIN_PASSES
        fastest = min(p[1] - p[0] for p in passes)
        if done and time.perf_counter() - start + fastest > seconds:
            break
    return passes, failure


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = import_workloads()
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot load the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracer_mod.Tracer() if args.trace else None

    # the check suites write temporary CSVs; keep them inside the checkout
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    tempfile.tempdir = str(tmp)
    try:
        with ContentionProbe() as probe:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                timing = {}
                t0 = time.perf_counter()
                state = workload.setup(args.seed, timing)
                setup_s.append(time.perf_counter() - t0)
            timed, failure = run_passes(
                workload, state, args.seconds, bool(args.trace), tracer
            )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
    passes = [
        Pass(res, t1 - t0, (t1 - t0) / probe.slowdown(t0, t1), traced)
        for t0, t1, traced, res in timed
    ]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    outcomes = [ok for p in passes for ok in p.result.outcomes]
    digests = sorted({digest(p.result.outputs) for p in passes})
    gate_ok = all(p.result.gate_ok for p in passes)
    if failure is not None:
        print(failure, file=sys.stderr)
        outcomes += [False] * workload.n_items(state)
    correct = failure is None and gate_ok and len(digests) == 1
    attempted = len(outcomes)
    failed = outcomes.count(False)

    e2e = {
        "setup_s": import_s + statistics.median(setup_s),
        "wall_s": statistics.median(p.wall_s for p in plain) if plain else None,
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = {
        f"problems.{key}": (statistics.median(timing[key]), "ms")
        for key in ("build_ms", "x0_ms")
        if timing.get(key)
    }
    if traced and plain:
        raw = sum(p.raw_s for p in traced)
        scale = sum(p.wall_s for p in traced) / raw
        for name, (value, unit) in tracer_mod.layer_metrics(tracer, len(traced), raw).items():
            layers[name] = (value * scale if unit in ("us", "ms") else value, unit)
        layers["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in plain)
            - 1.0,
            "1",
        )

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "passes": [
            {"traced": p.traced, "raw_s": p.raw_s, "wall_s": p.wall_s} for p in passes
        ],
        "setup": {"import_s": import_s, "repeats_s": setup_s},
        "probe": probe.summary(),
        "raw_wall_s": statistics.median(p.raw_s for p in plain) if plain else None,
        "latency": item_latency(plain),
        "fail_frac": failed / attempted if attempted else 1.0,
        "gate_ok": gate_ok,
        "notes": passes[-1].result.notes if passes else {},
        "digest": digests,
        "end_to_end": e2e,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())},
        "machine": machine_facts(),
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = layers if args.trace else {k: (v, None) for k, v in e2e.items()}
    metrics = {}
    for m in wanted:
        value, unit = measured.get(m["name"], (None, None))
        if value is None or unit not in (None, m["unit"]):
            # the workloads BENCHMARK.json omits do not exercise every layer
            print(f"bench: {m['name']} [{m['unit']}] not measured here", file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
