"""Command-line front end.

Subcommands: `run` executes a sweep config, `bounds` prints a theoretical
right side for given constants, `check` runs the invariant suites, `rate`
fits a decay exponent from an existing sweep CSV.  Exit codes: 0 success,
2 configuration problem, 3 invariant violation found by `check`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checks import run_all_checks
from .harness import (
    BOUND_VARIANTS,
    BoundInputs,
    ConfigError,
    fit_rate_from_csv,
    parse_config_file,
    run_sweep,
    theoretical_bound,
)
from .solver import StepSchedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3


def _cmd_run(args) -> int:
    try:
        config = parse_config_file(args.config)
        report = run_sweep(config)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"problem {config.problem_id}  gamma={report.gamma:.6g}  "
          f"rho_hat={report.rho_hat:.6g}  lambda={report.lam:.6g}  "
          f"bound variant {report.variant}")
    for h in report.per_horizon:
        flag = "ok" if h.bound_satisfied else "VIOLATED"
        print(f"  T={h.T:<8d} mean={h.mean:.6g}  ci95=+-{h.ci_half_width:.3g}  "
              f"bound={h.bound_value:.6g}  [{flag}]  "
              f"inner_missed={h.n_inner_missed}")
    if report.slope is not None:
        print(f"  slope={report.slope:.4f}  stderr={report.slope_stderr:.4f}")
    if config.output:
        print(f"  wrote {config.output}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.T is not None and args.T < 0:
        print(f"error: --T must be a nonnegative horizon, got {args.T}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        alphas = None
        # Cor22 and Cor27 read gamma and T, never the (T+1,) steps
        reads_steps = args.variant not in ("Cor22", "Cor27")
        if args.alphas:
            alphas = np.array([float(v) for v in args.alphas.split(",") if v.strip()])
        elif reads_steps and args.gamma is not None and args.T is not None:
            alphas = StepSchedule.constant(args.gamma, args.T).alphas
        inputs = BoundInputs(
            delta=args.delta,
            rho=args.rho,
            rho_hat=args.rho_hat,
            L=args.L,
            sigma=args.sigma,
            gamma=args.gamma,
            T=args.T,
            alphas=alphas,
        )
        value = theoretical_bound(args.variant, inputs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.variant}: {value:.12g}")
    return EXIT_OK


def _cmd_check(args) -> int:
    verbose = not args.quiet
    results = run_all_checks(
        progress=(lambda name, secs: print(f"... {name} ({1e3 * secs:.0f} ms)"))
        if verbose
        else None
    )
    n_fail = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        n_fail += not r.passed
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_VIOLATION if n_fail else EXIT_OK


def _cmd_rate(args) -> int:
    try:
        slope, stderr = fit_rate_from_csv(args.csv)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"slope={slope:.6f} stderr={stderr:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsgm",
        description="Stochastic proximal subgradient experiments with envelope-based stationarity measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep described by a config file")
    p_run.add_argument("config", help="key=value config file")
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="print a theoretical bound value")
    p_bounds.add_argument("--variant", required=True, choices=BOUND_VARIANTS)
    p_bounds.add_argument("--delta", type=float, required=True,
                          help="envelope value at x0 minus (a bound on) min phi")
    p_bounds.add_argument("--rho", type=float, required=True)
    p_bounds.add_argument("--rho-hat", dest="rho_hat", type=float)
    p_bounds.add_argument("--L", type=float)
    p_bounds.add_argument("--sigma", type=float)
    p_bounds.add_argument("--gamma", type=float)
    p_bounds.add_argument("--T", type=int)
    p_bounds.add_argument("--alphas", help="comma-separated explicit step sizes")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--quiet", action="store_true", help="suppress per-suite timing")
    p_check.set_defaults(func=_cmd_check)

    p_rate = sub.add_parser("rate", help="fit a log-log slope from a sweep CSV")
    p_rate.add_argument("csv")
    p_rate.set_defaults(func=_cmd_rate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
