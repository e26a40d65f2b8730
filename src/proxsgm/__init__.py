"""Proximal stochastic subgradient methods for weakly convex composites.

The library splits into: problem containers and sampled certifications
(`core`), prox-friendly regularizers (`prox`), benchmark generators
(`problems`), the envelope smoothing oracle (`moreau`), the method itself
(`solver`), convex and smoothing add-ons (`boost`), and the experiment
harness plus CLI (`harness`, `cli`, `checks`).
"""

from .core import (
    CapabilityError,
    CompositeProblem,
    ProblemMeta,
    StochasticOracle,
    check_hypomonotonicity,
    check_oracle_unbiasedness,
    check_second_moment,
    check_weak_convexity,
)
from .prox import (
    ProxFriendly,
    ball_indicator,
    box_indicator,
    l1_regularizer,
    quadratic_regularizer,
    zero_regularizer,
)
from .problems import (
    default_x0,
    make_phase_retrieval,
    make_robust_regression,
    make_smooth_ls_noisy,
    make_toy1d,
    problem_from_id,
)
from .moreau import (
    InnerAccuracyError,
    MoreauPoint,
    StationarityReport,
    envelope_grad_fd_check,
    moreau_prox,
    prox_gradient_mapping,
    stationarity_report,
)
from .solver import (
    AveragedRun,
    RunResult,
    StepSchedule,
    check_descent_lemma,
    check_prox_identity,
    run_averaged,
    run_psgm,
    sample_tstar,
)
from .boost import (
    PipelineResult,
    RegularizedProblem,
    TwoStageResult,
    envelope_shift_identity_check,
    iteration_bound,
    map_back,
    optimal_gamma,
    pipeline_budget,
    regularized_pipeline,
    strongly_convex_stage,
    two_stage_convex,
)
from .harness import (
    BoundInputs,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    fit_rate,
    parse_config_file,
    run_sweep,
    theoretical_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CompositeProblem",
    "ProblemMeta",
    "StochasticOracle",
    "check_hypomonotonicity",
    "check_oracle_unbiasedness",
    "check_second_moment",
    "check_weak_convexity",
    "ProxFriendly",
    "ball_indicator",
    "box_indicator",
    "l1_regularizer",
    "quadratic_regularizer",
    "zero_regularizer",
    "default_x0",
    "make_phase_retrieval",
    "make_robust_regression",
    "make_smooth_ls_noisy",
    "make_toy1d",
    "problem_from_id",
    "InnerAccuracyError",
    "MoreauPoint",
    "StationarityReport",
    "envelope_grad_fd_check",
    "moreau_prox",
    "prox_gradient_mapping",
    "stationarity_report",
    "AveragedRun",
    "RunResult",
    "StepSchedule",
    "check_descent_lemma",
    "check_prox_identity",
    "run_averaged",
    "run_psgm",
    "sample_tstar",
    "PipelineResult",
    "RegularizedProblem",
    "TwoStageResult",
    "envelope_shift_identity_check",
    "iteration_bound",
    "map_back",
    "optimal_gamma",
    "pipeline_budget",
    "regularized_pipeline",
    "strongly_convex_stage",
    "two_stage_convex",
    "BoundInputs",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "fit_rate",
    "parse_config_file",
    "run_sweep",
    "theoretical_bound",
    "__version__",
]
