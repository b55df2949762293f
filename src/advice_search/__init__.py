"""Expected query costs of search guided by an advice distribution.

The package models a searcher looking for a marked element of {1..n}
with help from a prior (the advice distribution): closed-form and
Monte Carlo expected query counts for a classical scan, for quantum
search over geometrically growing prefixes when the advice is known,
and for sample-then-amplify search when the advice is available only
as a state-preparation oracle, together with the matching lower and
upper bounds and small-instance statevector checks.
"""
from __future__ import annotations

from . import statevector, sweep
from .algorithms import (
    AMPLIFY_RATIO_BOUNDS,
    DEFAULT_AMPLIFY_RATIO,
    DEFAULT_GEOMETRIC_RATIO,
    ExpectationReport,
    GeometricBlocks,
    QueryLedger,
    RunResult,
    classical_expected,
    classical_sampling_expected,
    geometric_blocks,
    geometric_expected,
    monte_carlo,
    unknown_expected_exact,
    unknown_expected_mu,
    unknown_rounds,
    unknown_search,
)
from .bounds import (
    LasVegasBound,
    ScalingClass,
    geometric_upper,
    las_vegas_report,
    powerlaw_exponents,
    q_mu_lower,
    unknown_upper_mu,
    unknown_upper_per_rank,
)
from .distributions import (
    AdviceDistribution,
    ConfigError,
    ParameterError,
    PowerLawSpec,
    compensated_sum,
    dist_from_config,
    make_explicit,
    make_power_law,
    power_law_alpha,
)
from .rotation import (
    RoundCost,
    exact_grover_queries,
    rotation_angle,
    round_cost,
    success_prob,
    uniform_iter_success,
)
from .sweep import (
    HEADER,
    FitResult,
    SweepRow,
    SweepSpec,
    fit_scaling,
    fit_slope,
    read_rows,
    rows_to_csv,
    run_point,
    run_sweep,
)
from .validation import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "AMPLIFY_RATIO_BOUNDS",
    "AdviceDistribution",
    "CheckResult",
    "ConfigError",
    "DEFAULT_AMPLIFY_RATIO",
    "DEFAULT_GEOMETRIC_RATIO",
    "ExpectationReport",
    "FitResult",
    "GeometricBlocks",
    "HEADER",
    "LasVegasBound",
    "ParameterError",
    "PowerLawSpec",
    "QueryLedger",
    "RoundCost",
    "RunResult",
    "ScalingClass",
    "SweepRow",
    "SweepSpec",
    "classical_expected",
    "classical_sampling_expected",
    "compensated_sum",
    "dist_from_config",
    "exact_grover_queries",
    "fit_scaling",
    "fit_slope",
    "geometric_blocks",
    "geometric_expected",
    "geometric_upper",
    "las_vegas_report",
    "make_explicit",
    "make_power_law",
    "monte_carlo",
    "power_law_alpha",
    "powerlaw_exponents",
    "q_mu_lower",
    "read_rows",
    "rotation_angle",
    "round_cost",
    "rows_to_csv",
    "run_point",
    "run_sweep",
    "run_validation",
    "statevector",
    "success_prob",
    "sweep",
    "unknown_expected_exact",
    "unknown_expected_mu",
    "unknown_rounds",
    "unknown_search",
    "unknown_upper_mu",
    "unknown_upper_per_rank",
    "uniform_iter_success",
]
