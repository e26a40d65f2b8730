#!/usr/bin/env python3
"""Reproduce the T^(-1/2) decay of the squared envelope gradient.

Runs the seeded sweep for one benchmark across several horizons, writes the
per-trial CSV, and prints the fitted log-log slope together with the
per-horizon bound check.  Defaults match the phase retrieval rate
experiment; any benchmark id from proxsgm.problems works.
"""

import argparse
import sys
import time

from proxsgm.harness import ConfigError, ExperimentConfig, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problem", default="phase_retrieval:50:10:0",
                    help="benchmark id family:m:d:seed")
    ap.add_argument("--horizons", default="100,1000,10000",
                    help="comma-separated iteration counts")
    ap.add_argument("--gamma", default="optimal",
                    help="tuned step scale, or 'optimal' to derive it")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--inner-tol", type=float, default=1e-6)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--output", default="rate_sweep.csv")
    args = ap.parse_args()

    config = ExperimentConfig(
        problem_id=args.problem,
        horizons=tuple(int(t) for t in args.horizons.split(",")),
        gamma=args.gamma if args.gamma == "optimal" else float(args.gamma),
        n_seeds=args.seeds,
        inner_tol=args.inner_tol,
        workers=args.workers,
        output=args.output,
    )
    t0 = time.perf_counter()
    try:
        rep = run_sweep(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0

    print(f"problem {rep.problem_id}  gamma {rep.gamma:.6g}  "
          f"rho_hat {rep.rho_hat:.6g}  bound {rep.variant}")
    for h in rep.per_horizon:
        mark = "ok" if h.bound_satisfied else "VIOLATED"
        print(f"  T {h.T:>7}  mean grad^2 {h.mean:.6f} +- {h.ci_half_width:.6f}  "
              f"bound {h.bound_value:.4g}  {mark}  inner missed {h.n_inner_missed}")
    print(f"slope {rep.slope:.4f}  stderr {rep.slope_stderr:.4f}  wall {wall:.1f}s")
    if rep.output_path:
        print(f"trial rows written to {rep.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
