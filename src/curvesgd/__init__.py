"""Curvature-aware SGD: gauges, schedules, runs, and verification.

The package converts a curvature exponent h of an objective (1 for
strongly convex, 1/2 for quartic-bottomed, lower for flatter minima) into
diminishing step-size schedules with matching convergence-rate envelopes,
and ships the machinery to check every piece numerically: exact one-step
recurrence oracles, closed-form-vs-quadrature rate envelopes, and an
empirical curvature estimator.
"""

from .benchmarks import (
    Benchmark,
    exp_cosh_problem,
    load_benchmark,
    quadratic_mean_problem,
    ridge_regression_problem,
)
from .dataio import (
    ResultTable,
    RunFileConfig,
    build_objective,
    emit_plot_script,
    execute_runfile,
    format_runfile,
    load_libsvm,
    parse_libsvm,
    parse_runfile,
    read_results,
    read_runfile,
    resolve_reference,
    synthesize_dataset,
    write_results,
)
from .engine import (
    EngineError,
    RecurrenceReport,
    RunConfig,
    RunTrace,
    SweepResult,
    moving_mean,
    multi_seed_sweep,
    rate_slope_fit,
    recurrence_check,
    sgd_run,
)
from .objectives import (
    CallableObjective,
    ConvergenceError,
    Dataset,
    LeastSquaresObjective,
    LinearObjective,
    LogisticObjective,
    Objective,
    QuadraticMeanObjective,
    ReferenceSolution,
    regularizer_G_gradient,
    regularizer_G_value,
    solve_reference,
)
from .omega import (
    DeltaEstimate,
    OmegaSpec,
    c_alpha,
    c_alpha_brute,
    estimate_delta,
    fit_curvature,
    omega_derivative,
    omega_eval,
    v_closed_form,
    v_numeric,
)
from .schedule import (
    C_of_t,
    M_of_t,
    QuadratureError,
    ScheduleSpec,
    c_bar,
    exp_neg_M,
    format_schedule,
    ode_residual,
    parse_schedule,
    rate_bound,
    rate_bound_constants,
    step_size,
)
from .verify import CheckResult, verify_all

__version__ = "0.1.0"
