#!/usr/bin/env python3
"""Print the cost of each ``proxsgm check`` suite, and how much of it ran
on threads other than the caller.

    python3 scripts/check_cost.py

``checks.run_all_checks`` runs once to warm up, then REPEATS more times in
this process.  For each suite, and for all seven together, the script
prints the min and median over the passes of three figures in ms: wall
time, process CPU time, and the CPU time of threads other than the
calling one (the process CPU minus the caller's).  The suites start no
thread and call no BLAS routine that hands work to OpenBLAS's pool, so the
last column should read about 0; a thread pool or a threaded BLAS call
shows there, which the benchmark's single wall-time figure cannot
separate from the caller's own work.

The process CPU clock counts threads that have already exited, such as a
pool's, and the thread CPU clock counts the caller alone; both read with
ns resolution on Linux, and elsewhere the script prints "not available".
Before each suite it sleeps PAUSE seconds, so that a BLAS worker still
spinning after an earlier call goes idle instead of billing that suite.
"""

import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from proxsgm.checks import run_all_checks  # noqa: E402

REPEATS = 5
PAUSE = 0.3


def pass_cost() -> dict[str, tuple[float, float, float]]:
    """Wall, process CPU and other-thread CPU in ms of each suite of one pass."""
    cost = {}

    def clocks() -> tuple[float, float, float]:
        time.sleep(PAUSE)
        return time.perf_counter(), time.process_time(), time.thread_time()

    def mark(name: str, _seconds: float) -> None:
        nonlocal start
        # read in reverse, so the process clock's interval encloses the thread clock's
        t1, p1, w1 = time.thread_time(), time.process_time(), time.perf_counter()
        w0, p0, t0 = start
        cost[name] = (1e3 * (w1 - w0), 1e3 * (p1 - p0), 1e3 * ((p1 - p0) - (t1 - t0)))
        start = clocks()

    start = clocks()
    run_all_checks(progress=mark)
    return cost


def main() -> None:
    if not sys.platform.startswith("linux"):
        print("check_cost: per-thread CPU time not available off Linux")
        return
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{len(os.sched_getaffinity(0))} cpus, {REPEATS} passes, "
          f"min / median in ms")
    run_all_checks()
    passes = [pass_cost() for _ in range(REPEATS)]
    rows = {name: [p[name] for p in passes] for name in passes[0]}
    rows["all suites"] = [tuple(map(sum, zip(*p.values()))) for p in passes]
    print(f"{'suite':<26}{'wall':>16}{'process cpu':>16}{'other threads':>16}")
    for name, costs in rows.items():
        cols = "".join(
            f"{min(runs):>8.1f}{statistics.median(runs):>8.1f}" for runs in zip(*costs)
        )
        print(f"{name:<26}{cols}")


if __name__ == "__main__":
    main()
