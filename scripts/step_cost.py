#!/usr/bin/env python3
"""Print the cost of one ``run_psgm`` step per problem family, untraced.

    python3 scripts/step_cost.py

For each instance below, ``run_psgm`` takes STEPS + 1 steps of a constant
schedule from the family's default start; the script prints the process
time per step in µs, the least over REPEATS runs, since on a shared host
the least-disturbed run is the closest to the code's own cost.
No tracer wraps the oracle, so the figures carry none of the benchmark
tracer's per-step overhead.  The instances are the shipped families plus
one least-squares instance with more unknowns than rows (d > m).
"""

import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from proxsgm.problems import default_x0, problem_from_id  # noqa: E402
from proxsgm.solver import StepSchedule, run_psgm  # noqa: E402

INSTANCES = (
    "phase_retrieval:50:10:0",
    "robust_regression:40:2:1",
    "smooth_ls:60:5:2",
    "smooth_ls:10:40:1",
    "toy1d:abs",
    "toy1d:absquad",
)
GAMMA = 0.1
STEPS = 20_000
REPEATS = 5


def step_us(pid: str) -> float:
    problem = problem_from_id(pid)
    x0 = default_x0(problem)
    schedule = StepSchedule.constant(GAMMA, STEPS)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.process_time()
        run_psgm(problem, x0, schedule, 0)
        best = min(best, time.process_time() - t0)
    return 1e6 * best / (STEPS + 1)


def main() -> None:
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{len(os.sched_getaffinity(0))} cpus, {STEPS + 1} steps, "
          f"min of {REPEATS}")
    print(f"{'instance':<26}{'us/step':>9}")
    for pid in INSTANCES:
        print(f"{pid:<26}{step_us(pid):>9.2f}")


if __name__ == "__main__":
    main()
