#!/usr/bin/env python3
"""Print the cost of one solver step per problem family, untraced.

    python3 scripts/step_cost.py

For each instance below, ``run_averaged`` takes all STEPS + 1 steps of a
constant schedule from the family's default start, and ``run_psgm``, the
sweep's run, takes the t* steps up to its drawn output index (seed 0 draws
the same t* on every instance and repeat).  A ``run_psgm`` step keeps no
iterate, where a ``run_averaged`` step keeps one for the means, so the two
are timed apart.  The script prints each run's process time divided by its
``oracle_calls``, in µs per step, as the min, median and max over REPEATS
runs, beside the kind of its regularizer (a box step and a ball step differ
in their prox).  On a shared host other tenants slow a core by up to about
2x for seconds at a time, and the spread shows how much of that a line
carries; the min is the closest to the code's own cost but can still be a
slowed run.  So a difference under about 2x between two trees needs the
benchmark's contention-corrected ``wall_s`` (``bench/run.py``), or at least
10 runs of this script alternating between the trees.
No tracer wraps the oracle, so the figures carry none of the benchmark
tracer's per-step overhead.  The instances are the shipped families plus
one least-squares instance with more unknowns than rows (d > m).
"""

import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from proxsgm.problems import default_x0, problem_from_id  # noqa: E402
from proxsgm.solver import StepSchedule, run_averaged, run_psgm  # noqa: E402

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


def step_us(problem, run) -> list[float]:
    """µs per oracle call of each of REPEATS runs of ``run``, ascending."""
    x0 = default_x0(problem)
    schedule = StepSchedule.constant(GAMMA, STEPS)
    runs = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        calls = run(problem, x0, schedule, 0).oracle_calls
        runs.append(1e6 * (time.process_time() - t0) / calls)
    return sorted(runs)


def main() -> None:
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{len(os.sched_getaffinity(0))} cpus, {STEPS + 1} steps, "
          f"{REPEATS} runs")
    stats = f"{'min':>8}{'median':>8}{'max':>8}"
    print(f"{'':<32}{'run_averaged':>24}{'run_psgm':>24}")
    print(f"{'instance':<26}{'r':<6}{stats}{stats}  us/step")
    for pid in INSTANCES:
        problem = problem_from_id(pid)
        line = f"{pid:<26}{problem.regularizer.kind.value:<6}"
        for run in (run_averaged, run_psgm):
            runs = step_us(problem, run)
            line += f"{runs[0]:>8.2f}{statistics.median(runs):>8.2f}{runs[-1]:>8.2f}"
        print(line)


if __name__ == "__main__":
    main()
