"""Self-contained invariant checks behind the `verify` subcommand.

Every check is hermetic (synthetic data only, fixed seeds) and returns a
CheckResult instead of raising, so the CLI can print one pass/fail line
per check and exit nonzero if any failed. The same functions back the
acceptance tests, which pin the sample sizes and tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .benchmarks import quadratic_mean_problem
from .dataio import synthesize_dataset
from .engine import RunConfig, recurrence_check, sgd_run
from .objectives import (
    LeastSquaresObjective,
    LinearObjective,
    LogisticObjective,
    regularizer_G_gradient,
    regularizer_G_value,
)
from .omega import OmegaSpec, c_alpha, c_alpha_brute, v_closed_form, v_numeric
from .schedule import M_of_t, C_of_t, ScheduleSpec, c_bar, eta, ode_residual

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


def check_g_inequality(pairs_per_dim: int = 100_000, dims=(1, 2, 5, 10),
                       radius: float = 3.0, slack: float = 1e-12,
                       seed: int = 0) -> CheckResult:
    """G(w) - G(w') - <grad G(w'), w - w'> >= ||w - w'||^4 / (36 d)."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = math.inf
    violations = 0
    for d in dims:
        W = rng.uniform(-radius, radius, size=(pairs_per_dim, d))
        Wp = rng.uniform(-radius, radius, size=(pairs_per_dim, d))
        diff = W - Wp
        gap = (
            regularizer_G_value(W)
            - regularizer_G_value(Wp)
            - np.einsum("ij,ij->i", regularizer_G_gradient(Wp), diff)
        )
        quartic = np.einsum("ij,ij->i", diff, diff) ** 2 / (36.0 * d)
        margin = gap - quartic
        worst = min(worst, float(margin.min()))
        violations += int(np.count_nonzero(margin < -slack))
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


def check_co_coercivity(pairs: int = 10_000, radius: float = 3.0,
                        slack: float = 1e-10, seed: int = 1) -> CheckResult:
    """||g(w) - g(w')||^2 <= L <g(w) - g(w'), w - w'> per smooth component."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    objectives = _smooth_component_objectives()
    violations = 0
    worst = math.inf
    for label, obj in objectives:
        L = obj.smoothness_bound(radius)
        d = obj.dimension
        W = rng.uniform(-radius, radius, size=(pairs, d))
        Wp = rng.uniform(-radius, radius, size=(pairs, d))
        comps = rng.integers(0, obj.component_count, size=pairs)
        dg = obj.grad_rows(comps, W) - obj.grad_rows(comps, Wp)
        margin = (L * np.einsum("ij,ij->i", dg, W - Wp)
                  - np.einsum("ij,ij->i", dg, dg))
        worst = min(worst, float(margin.min(initial=math.inf)))
        violations += int(np.count_nonzero(margin < -slack))
    detail = "%d pairs x %d objectives, worst margin %.3g" % (
        pairs, len(objectives), worst,
    )
    return _timed("co_coercivity", violations == 0, detail, started)


def check_convexity(pairs: int = 10_000, radius: float = 3.0,
                    slack: float = 1e-10, seed: int = 2) -> CheckResult:
    """f_i(w) - f_i(w') >= <grad f_i(w'), w - w'> on random pairs."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    objectives = _smooth_component_objectives()
    blobs = synthesize_dataset(40, 5, seed=21, kind="blobs")
    objectives.append(("logistic+norm", LogisticObjective(blobs, "norm2", 1e-3)))
    violations = 0
    worst = math.inf
    for label, obj in objectives:
        d = obj.dimension
        W = rng.uniform(-radius, radius, size=(pairs, d))
        Wp = rng.uniform(-radius, radius, size=(pairs, d))
        comps = rng.integers(0, obj.component_count, size=pairs)
        margin = (obj.value_rows(comps, W) - obj.value_rows(comps, Wp)
                  - np.einsum("ij,ij->i", obj.grad_rows(comps, Wp), W - Wp))
        worst = min(worst, float(margin.min(initial=math.inf)))
        violations += int(np.count_nonzero(margin < -slack))
    detail = "%d pairs x %d objectives, worst margin %.3g" % (
        pairs, len(objectives), worst,
    )
    return _timed("convexity", violations == 0, detail, started)


def check_v_agreement(eta_points: int = 20, rel_tol: float = 1e-8) -> CheckResult:
    """Closed-form v against bisection inversion of the step map."""
    started = time.perf_counter()
    worst = 0.0
    for h in np.arange(0.1, 0.95, 0.1):
        for mu in (0.1, 1.0, 10.0):
            for r in (1.0, 10.0):
                spec = OmegaSpec(h=float(h), r=r, mu=mu)
                # the step map saturates at r(1-h)/h; the closed form is
                # stated for eta <= r; test on the intersection
                cap = min(r, r * (1.0 - h) / h)
                for e in np.geomspace(1e-3 * cap, 0.999 * cap, eta_points):
                    a = v_closed_form(spec, float(e))
                    b = v_numeric(spec, float(e))
                    worst = max(worst, abs(a - b) / abs(a))
    detail = "worst relative error %.3g" % worst
    return _timed("v_agreement", worst <= rel_tol, detail, started)


def check_c_alpha(samples: int = 50, tol: float = 1e-4, seed: int = 3) -> CheckResult:
    """Closed-form doubling constant against the grid inf/sup."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(samples):
        h = float(rng.uniform(0.05, 1.0))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
        mu = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        tau = 0.0 if k % 3 == 0 else float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        alpha = float(rng.uniform(0.01, 0.5)) * r
        if k % 5 == 0 and tau == 0.0:
            spec = OmegaSpec(h=h, r=r, mu=mu)
        else:
            spec = OmegaSpec(h=h, r=r, mu=mu, tau=tau, variant="offset")
        diff = abs(c_alpha(spec, alpha) - c_alpha_brute(spec, alpha))
        worst = max(worst, diff)
    detail = "%d samples, worst |closed - brute| = %.3g" % (samples, worst)
    return _timed("c_alpha", worst <= tol, detail, started)


def check_ode_residual(rel_tol: float = 1e-9,
                       eta_tol: float = 1e-10) -> CheckResult:
    """The closed-form envelope solves its step-size ODE."""
    started = time.perf_counter()
    worst = 0.0
    try:
        for h in (0.25, 0.5, 0.75, 1.0):
            for beta, L in ((0.5, 1.0), (1.0, 2.0), (5.0, 10.0)):
                spec = ScheduleSpec.curvature_matched(h=h, beta=beta, L=L)
                for t in (1.0, 10.0, 1e3):
                    res = ode_residual(spec, t, eta_match_tol=eta_tol)
                    worst = max(worst, abs(res) / c_bar(spec, t))
    except ArithmeticError as err:
        return _timed("ode_residual", False, str(err), started)
    detail = "worst relative residual %.3g" % worst
    return _timed("ode_residual", worst <= rel_tol, detail, started)


def check_envelope_dominance(m_tol: float = 1e-6,
                             t_grid=(1.0, 10.0, 1e2, 1e3, 1e4)) -> CheckResult:
    """Quadrature C(t) never exceeds the closed-form envelope, and the
    quadrature route for M agrees with the closed form."""
    started = time.perf_counter()
    worst_gap = -math.inf
    worst_m = 0.0
    for h in (0.25, 0.5, 0.75, 1.0):
        spec = ScheduleSpec.curvature_matched(h=h, beta=1.0, L=2.0)
        for t in t_grid:
            c_quad = C_of_t(spec, t)
            gap = c_quad - c_bar(spec, t)
            worst_gap = max(worst_gap, gap)
            m_closed = M_of_t(spec, t, method="closed")
            m_quad = M_of_t(spec, t, method="quadrature")
            worst_m = max(worst_m, abs(m_closed - m_quad))
    passed = worst_gap <= 0.0 and worst_m <= m_tol
    detail = "max C - C_bar = %.3g, max |M_quad - M_closed| = %.3g" % (
        worst_gap, worst_m,
    )
    return _timed("envelope_dominance", passed, detail, started)


def check_recurrence(steps: int = 10_000, tol: float = 1e-10) -> CheckResult:
    """Exact one-step descent inequality along a real SGD trajectory."""
    started = time.perf_counter()
    bench = quadratic_mean_problem()
    config = RunConfig(
        objective=bench.objective,
        schedule=bench.schedule,
        seed=5,
        iterations=steps,
        record_stride=1,
        region_radius=bench.region_radius,
        w0=np.ones(bench.objective.dimension),
        reference=bench.reference,
        keep_iterates=True,
    )
    trace = sgd_run(config)
    report = recurrence_check(
        bench.objective, trace, bench.reference, tol=tol,
        region_radius=bench.region_radius,
    )
    detail = "%d iterates checked, %d violations, worst margin %.3g" % (
        report.checked, report.violations, report.worst_margin,
    )
    return _timed("recurrence", report.violations == 0, detail, started)


def verify_all(quick: bool = False):
    """Run every check; quick mode shrinks sample counts for a fast smoke
    pass with the same coverage."""
    if quick:
        return [
            check_g_inequality(pairs_per_dim=5_000),
            check_co_coercivity(pairs=1_000),
            check_convexity(pairs=1_000),
            check_v_agreement(eta_points=5),
            check_c_alpha(samples=15),
            check_ode_residual(),
            check_envelope_dominance(t_grid=(1.0, 10.0, 1e3)),
            check_recurrence(steps=500),
        ]
    return [
        check_g_inequality(),
        check_co_coercivity(),
        check_convexity(),
        check_v_agreement(),
        check_c_alpha(),
        check_ode_residual(),
        check_envelope_dominance(),
        check_recurrence(),
    ]
