"""Self-contained invariant checks behind the `verify` subcommand.

Every check is hermetic (synthetic data only, fixed seeds) and returns a
CheckResult instead of raising, so the CLI can print one pass/fail line
per check and exit nonzero if any failed. Each check fixes its seed and
tolerance, stated in its docstring; the acceptance tests run the checks
at their default sample sizes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .benchmarks import quadratic_mean_problem
from .dataio import synthesize_dataset
from .engine import RunConfig, recurrence_check, sgd_run
from .objectives import (
    REGION_RADIUS,
    LeastSquaresObjective,
    LinearObjective,
    LogisticObjective,
    regularizer_G_gradient,
    regularizer_G_value,
)
from .omega import OmegaSpec, c_alpha, c_alpha_brute, v_closed_form, v_numeric
from .schedule import (M_of_t, ScheduleSpec, _C_rule, _log_grid_quadrature, _M_rule,
                       c_bar, ode_residual)

CHECK_NAMES = (
    "g_inequality",
    "co_coercivity",
    "convexity",
    "v_agreement",
    "c_alpha",
    "ode_residual",
    "envelope_dominance",
    "recurrence",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name, passed, detail, started):
    return CheckResult(name, bool(passed), detail, time.perf_counter() - started)


def _pairs(rng, pairs: int, d: int):
    """W, then W', each (pairs, d) and uniform on the REGION_RADIUS box."""
    return rng.uniform(-REGION_RADIUS, REGION_RADIUS, size=(2, pairs, d))


def check_g_inequality(pairs_per_dim: int = 100_000) -> CheckResult:
    """G(w) - G(w') - <grad G(w'), w - w'> >= ||w - w'||^4 / (36 d) in
    d = 1, 2, 5 and 10, up to a slack of 1e-12; seed 0."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = math.inf
    violations = 0
    for d in (1, 2, 5, 10):
        W, Wp = _pairs(rng, pairs_per_dim, d)
        diff = W - Wp
        gap = (
            regularizer_G_value(W)
            - regularizer_G_value(Wp)
            - np.einsum("ij,ij->i", regularizer_G_gradient(Wp), diff)
        )
        quartic = np.einsum("ij,ij->i", diff, diff) ** 2 / (36.0 * d)
        margin = gap - quartic
        worst = min(worst, float(margin.min()))
        violations += int(np.count_nonzero(margin < -1e-12))
    detail = "%d pairs/dim, worst margin %.3g, %d violations" % (
        pairs_per_dim, worst, violations,
    )
    return _timed("g_inequality", violations == 0, detail, started)


def _smooth_component_objectives():
    blobs = synthesize_dataset(40, 5, seed=21, kind="blobs")
    linear = synthesize_dataset(40, 5, seed=22, kind="linear")
    slopes = np.linspace(-1.0, 1.0, 18).reshape(6, 3)
    return [
        ("logistic", LogisticObjective(blobs)),
        ("logistic+sq", LogisticObjective(blobs, "norm2_squared", 1e-3)),
        ("least_squares", LeastSquaresObjective(linear)),
        ("linear+G", LinearObjective(slopes, "exp_cosh_G", 0.7)),
    ]


def _pair_margins(name, margins, pairs, started):
    """The result of a check whose margins, one array per objective, must
    stay at or above -1e-10."""
    worst = min((float(m.min(initial=math.inf)) for m in margins), default=math.inf)
    passed = not any(np.any(m < -1e-10) for m in margins)
    detail = "%d pairs x %d objectives, worst margin %.3g" % (pairs, len(margins), worst)
    return _timed(name, passed, detail, started)


def check_co_coercivity(pairs: int = 10_000) -> CheckResult:
    """||g(w) - g(w')||^2 <= L <g(w) - g(w'), w - w'> per smooth component,
    up to a slack of 1e-10; seed 1."""
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    margins = []
    for label, obj in _smooth_component_objectives():
        L = obj.smoothness_bound()
        W, Wp = _pairs(rng, pairs, obj.dimension)
        comps = rng.integers(0, obj.component_count, size=pairs)
        dg = obj.grad_rows(comps, W) - obj.grad_rows(comps, Wp)
        margins.append(L * np.einsum("ij,ij->i", dg, W - Wp) - np.einsum("ij,ij->i", dg, dg))
    return _pair_margins("co_coercivity", margins, pairs, started)


def check_convexity(pairs: int = 10_000) -> CheckResult:
    """f_i(w) - f_i(w') >= <grad f_i(w'), w - w'> on random pairs, up to a
    slack of 1e-10; seed 2."""
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    objectives = _smooth_component_objectives()
    blobs = synthesize_dataset(40, 5, seed=21, kind="blobs")
    objectives.append(("logistic+norm", LogisticObjective(blobs, "norm2", 1e-3)))
    margins = []
    for label, obj in objectives:
        W, Wp = _pairs(rng, pairs, obj.dimension)
        comps = rng.integers(0, obj.component_count, size=pairs)
        margins.append(obj.value_rows(comps, W) - obj.value_rows(comps, Wp)
                       - np.einsum("ij,ij->i", obj.grad_rows(comps, Wp), W - Wp))
    return _pair_margins("convexity", margins, pairs, started)


def check_v_agreement(eta_points: int = 20) -> CheckResult:
    """Closed-form v against one bisection of all 54 step maps, to a relative 1e-8."""
    started = time.perf_counter()
    h, mu, r = np.array(list(itertools.product(
        np.arange(0.1, 0.95, 0.1), (0.1, 1.0, 10.0), (1.0, 10.0)))).T
    # the step map saturates at r(1-h)/h; the closed form is stated for
    # eta <= r; test on the intersection
    cap = np.minimum(r, r * (1.0 - h) / h)
    etas = np.geomspace(1e-3 * cap, 0.999 * cap, eta_points, axis=1)
    a = np.array([v_closed_form(OmegaSpec(float(hg), float(rg), float(mg)), e)
                  for hg, rg, mg, e in zip(h, r, mu, etas)])
    b = v_numeric(OmegaSpec(h=h[:, None], r=r[:, None], mu=mu[:, None]), etas)
    worst = float(np.max(np.abs(a - b) / np.abs(a)))
    detail = "worst relative error %.3g" % worst
    return _timed("v_agreement", worst <= 1e-8, detail, started)


def check_c_alpha(samples: int = 50) -> CheckResult:
    """Closed-form doubling constant against the grid, to 1e-4; seed 3."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    gauges, alphas = [], []
    for k in range(samples):
        h = float(rng.uniform(0.05, 1.0))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
        mu = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        tau = 0.0 if k % 3 == 0 else float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        alphas.append(float(rng.uniform(0.01, 0.5)) * r)
        # every fifth tau = 0 draw keeps mu; the rest use mu / h, which puts
        # the drawn mu on the 2/mu coefficient of (x/r)^h
        gauges.append((h, r, mu if k % 5 == 0 and tau == 0.0 else mu / h, tau))
    spec, alpha = OmegaSpec(*np.array(gauges).reshape(-1, 4).T), np.array(alphas)
    diff = np.abs(c_alpha(spec, alpha) - c_alpha_brute(spec, alpha))
    worst = float(np.max(diff, initial=0.0))
    detail = "%d samples, worst |closed - brute| = %.3g" % (samples, worst)
    return _timed("c_alpha", worst <= 1e-4, detail, started)


def check_ode_residual() -> CheckResult:
    """The closed-form envelope solves its step-size ODE to a relative
    1e-9 (and ode_residual matches its steps to a relative 1e-10)."""
    started = time.perf_counter()
    worst = 0.0
    try:
        for h in (0.25, 0.5, 0.75, 1.0):
            for beta, L in ((0.5, 1.0), (1.0, 2.0), (5.0, 10.0)):
                spec = ScheduleSpec.curvature_matched(h=h, beta=beta, L=L)
                for t in (1.0, 10.0, 1e3):
                    res = ode_residual(spec, t)
                    worst = max(worst, abs(res) / c_bar(spec, t))
    except ArithmeticError as err:
        return _timed("ode_residual", False, str(err), started)
    detail = "worst relative residual %.3g" % worst
    return _timed("ode_residual", worst <= 1e-9, detail, started)


def check_envelope_dominance(t_grid=(1.0, 10.0, 1e2, 1e3, 1e4)) -> CheckResult:
    """Quadrature C(t) never exceeds the closed-form envelope, and the
    quadrature route for M agrees with the closed form to an absolute
    1e-6."""
    started = time.perf_counter()
    worst_gap = -math.inf
    worst_m = 0.0
    for h in (0.25, 0.5, 0.75, 1.0):
        spec = ScheduleSpec.curvature_matched(h=h, beta=1.0, L=2.0)
        for t in t_grid:
            # M_of_t(quadrature=True) and C_of_t, from one refinement
            m_quad, c_quad = _log_grid_quadrature(spec, None, t, (_M_rule, _C_rule))
            worst_gap = max(worst_gap, c_quad - c_bar(spec, t))
            worst_m = max(worst_m, abs(M_of_t(spec, t) - m_quad))
    passed = worst_gap <= 0.0 and worst_m <= 1e-6
    detail = "max C - C_bar = %.3g, max |M_quad - M_closed| = %.3g" % (
        worst_gap, worst_m,
    )
    return _timed("envelope_dominance", passed, detail, started)


def check_recurrence(steps: int = 10_000) -> CheckResult:
    """Exact one-step descent inequality along an SGD run, to 1e-10; seed 5."""
    started = time.perf_counter()
    bench = quadratic_mean_problem()
    config = RunConfig(
        objective=bench.objective,
        schedule=bench.schedule,
        seed=5,
        iterations=steps,
        record_stride=1,
        w0=np.ones(bench.objective.dimension),
        reference=bench.reference,
        keep_iterates=True,
    )
    trace = sgd_run(config)
    report = recurrence_check(bench.objective, trace, bench.reference)
    detail = "%d iterates checked, %d violations, worst margin %.3g" % (
        report.checked, report.violations, report.worst_margin,
    )
    return _timed("recurrence", report.violations == 0, detail, started)


# the smaller sample sizes of `verify --quick`; a check not named here
# runs at its defaults
QUICK_SIZES = {
    "g_inequality": {"pairs_per_dim": 5_000},
    "co_coercivity": {"pairs": 1_000},
    "convexity": {"pairs": 1_000},
    "c_alpha": {"samples": 15},
    "envelope_dominance": {"t_grid": (1.0, 10.0, 1e3)},
    "recurrence": {"steps": 500},
}


def verify_all(quick: bool = False):
    """Run every check; quick mode shrinks sample counts for a fast smoke
    pass with the same coverage. Each check_* is looked up by name when it
    runs, so a wrapper installed on the module is the one called."""
    sizes = QUICK_SIZES if quick else {}
    return [globals()["check_" + name](**sizes.get(name, {}))
            for name in CHECK_NAMES]
