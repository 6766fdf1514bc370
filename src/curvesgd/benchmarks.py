"""Small synthetic problems with known minimizers for verification runs.

Each factory builds an objective and the curvature gauge it satisfies;
one builder adds the reference solution, which always comes from
solve_reference, and the step-size schedule matched to the gauge.
Constructions are deterministic: the ridge problem is seeded, the other
two are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .objectives import (
    REGION_RADIUS,
    Dataset,
    LeastSquaresObjective,
    LinearObjective,
    Objective,
    QuadraticMeanObjective,
    ReferenceSolution,
    solve_reference,
)
from .omega import OmegaSpec
from .schedule import ScheduleSpec

RIDGE_SEED = 7


@dataclass(frozen=True)
class Benchmark:
    name: str
    objective: Objective
    reference: ReferenceSolution
    schedule: ScheduleSpec
    omega: OmegaSpec
    region_radius: ClassVar[float] = REGION_RADIUS


def _matched(name: str, objective: Objective, omega: OmegaSpec) -> Benchmark:
    """Bundle an objective with its solved reference and the schedule
    matched to its gauge."""
    schedule = ScheduleSpec.curvature_matched(
        h=omega.h, beta=omega.beta, L=objective.smoothness_bound())
    return Benchmark(name, objective, solve_reference(objective), schedule,
                     omega)


def ridge_regression_problem() -> Benchmark:
    """Least squares plus 0.5*||w||^2; strongly convex with modulus 1.

    50 examples in dimension 10, rows scaled so single-component steps at
    eta <= 1/(2L) stay well inside the unit-curvature regime. The matched
    schedule has h = 1, so eta_t = 4 / (t + 8L).
    """
    d, n = 10, 50
    rng = np.random.default_rng(RIDGE_SEED)
    rows = 0.5 * rng.standard_normal((n, d))
    planted = 0.55 * rng.standard_normal(d)
    labels = rows @ planted + rng.standard_normal(n)
    data = Dataset(rows, labels, planted_weights=planted)
    obj = LeastSquaresObjective(data, "norm2_squared", 1.0)
    return _matched("ridge", obj, OmegaSpec(h=1.0, mu=obj.known_mu))


def quadratic_mean_problem() -> Benchmark:
    """Mean of shifted quadratics (mu/2)*||w - m_i||^2 with mu = 10.

    Centers come in exact plus/minus pairs, so the minimizer is the origin,
    where the reference solver starts and certifies it in 0 iterations.
    Used by the exact one-step recurrence check, where an iterated
    reference would blur the tolerance.
    """
    mu, d = 10.0, 5
    base = np.full((d, d), 0.1)
    for k in range(d):
        base[k, k] += 0.2 * (k + 1)
    centers = np.concatenate([base, -base], axis=0)
    obj = QuadraticMeanObjective(mu, centers)
    return _matched("quadratic_mean", obj, OmegaSpec(h=1.0, mu=mu))


def exp_cosh_problem() -> Benchmark:
    """Linear components plus 4*G(w) in dimension 1; curvature order 1/2.

    The linear slopes are +-10 in balanced halves, so the full objective is
    exactly 4*G and the minimizer is the origin with gradient noise 100.
    G is not strongly convex (its second derivative vanishes at 0), which
    is the regime diminishing steps with h = 1/2 are built for. The
    schedule constant comes from G(w) >= sum_i w_i^4 / 12 >= ||w||^4 / (12 d)
    (cosh's series has no negative terms), so mu = 4 * sqrt(lambda / (12 d))
    around the minimizer 0. The looser lambda / (9 d) also certifies
    curvature 1/2 but would slow the schedule by a factor of about 5 for no
    accuracy gain.
    """
    lam, d, n = 4.0, 1, 10
    slopes = np.array([[10.0]] * (n // 2) + [[-10.0]] * (n // 2))
    obj = LinearObjective(slopes, "exp_cosh_G", lam)
    om = OmegaSpec(h=0.5, mu=4.0 * np.sqrt(lam / (12.0 * d)))
    return _matched("exp_cosh", obj, om)


BENCHMARKS = {
    "ridge": ridge_regression_problem,
    "quadratic_mean": quadratic_mean_problem,
    "exp_cosh": exp_cosh_problem,
}


def load_benchmark(name: str) -> Benchmark:
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            "unknown benchmark %r (choose from %s)"
            % (name, ", ".join(sorted(BENCHMARKS)))
        )
    return factory()
