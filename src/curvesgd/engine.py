"""Single-pass SGD runs, multi-seed sweeps, and diagnostic fits.

Sampling is with replacement: component indices come from a PCG64 generator
seeded with the run's 64-bit seed, drawn in fixed blocks of 8192 regardless
of recording options, so the index stream is a stable function of the seed
alone. Iterates are never projected; excursions outside the stated region
are counted and flagged, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import REGION_RADIUS
from .schedule import ScheduleSpec, step_size

INDEX_BLOCK = 8192


class EngineError(RuntimeError):
    """A run diverged: some seed's iterate became non-finite."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one SGD run exactly."""

    objective: object
    schedule: ScheduleSpec
    seed: int
    iterations: int
    record_stride: int = 1
    region_radius: float = REGION_RADIUS
    w0: np.ndarray = None
    reference: object = None
    keep_iterates: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if not self.region_radius > 0:
            raise ValueError("region_radius must be positive")


@dataclass
class RunTrace:
    """Recorded state of one run at iterations 0, stride, 2*stride, ..., T."""

    seed: int
    t: np.ndarray
    eta: np.ndarray
    F: np.ndarray
    E: np.ndarray          # F - F_min, NaN-free only when a reference exists
    Y: np.ndarray          # ||w - w_star||^2, likewise
    region_violation: np.ndarray
    violation_count: int
    has_reference: bool
    iterates: np.ndarray = None


@dataclass
class SweepResult:
    """One configuration run for every seed, recorded seed-major.

    Row k of F, E, Y and region_violation, each (S, records), and of
    iterates, (S, records, d) and kept only with keep_iterates, belongs to
    seeds[k]; violation_count holds one count per seed, and t and eta are
    the record grid every seed shares. The means are over seeds, and
    traces[k] is the RunTrace of seeds[k], whose arrays are views of row k.
    """

    seeds: tuple
    t: np.ndarray
    eta: np.ndarray
    F: np.ndarray
    E: np.ndarray
    Y: np.ndarray
    region_violation: np.ndarray
    violation_count: np.ndarray
    component_count: int
    has_reference: bool
    iterates: np.ndarray = None
    mean_F: np.ndarray = field(init=False)
    mean_E: np.ndarray = field(init=False)
    mean_Y: np.ndarray = field(init=False)
    traces: list = field(init=False)

    def __post_init__(self):
        self.mean_F = self.F.mean(axis=0)
        self.mean_E = self.E.mean(axis=0)
        self.mean_Y = self.Y.mean(axis=0)
        self.traces = [
            RunTrace(seed, self.t, self.eta, self.F[k], self.E[k], self.Y[k],
                     self.region_violation[k], int(self.violation_count[k]),
                     self.has_reference,
                     None if self.iterates is None else self.iterates[k])
            for k, seed in enumerate(self.seeds)
        ]


def sgd_run(config: RunConfig) -> RunTrace:
    """Run SGD and record the trace. Bit-identical across repeat calls."""
    return multi_seed_sweep(config, (config.seed,)).traces[0]


def moving_mean(values, window: int = 3) -> np.ndarray:
    """Trailing moving mean along the last axis; the first window-1 entries
    average the available prefix. Each window is summed left to right from
    0.0, as numpy's mean does up to 7 entries, and divided by its length."""
    values = np.asarray(values, dtype=float)
    size = values.shape[-1]
    padded = np.concatenate(
        [np.zeros(values.shape[:-1] + (window - 1,)), values], axis=-1)
    total = padded[..., :size] + 0.0
    for j in range(1, window):
        total += padded[..., j : j + size]
    return total / np.minimum(np.arange(1.0, size + 1.0), window)


# the run detects a non-finite iterate itself and raises EngineError, and a
# recorded F may overflow to inf, so numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
def multi_seed_sweep(config: RunConfig, seeds) -> SweepResult:
    """Run one configuration for every seed in lockstep; config.seed is
    not read.

    The iterates of all S seeds form one (S, d) array, and each step
    advances it with a single grad_rows call. Each seed draws its own index
    stream, and every row is computed from that seed's data alone, so a
    seed's trace is the same whichever seeds run beside it, and the same as
    sgd_run gives for that seed alone. A run diverges at the first
    iteration at which an iterate is non-finite; the error names the first
    such seed in sweep order, which is the error that seed's own run
    raises. Recorded values are kept as computed, so F may be inf at a
    record while every iterate is still finite.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    obj = config.objective
    n = obj.component_count
    d = obj.dimension
    sched = config.schedule
    S = len(seeds)
    if config.w0 is None:
        w0 = np.zeros(d)
    else:
        w0 = np.asarray(config.w0, dtype=float)
        if w0.shape != (d,):
            raise ValueError("w0 has shape %s, expected (%d,)" % (w0.shape, d))
        if not np.all(np.isfinite(w0)):
            raise ValueError("w0 must be finite")
    W = np.tile(w0, (S, 1))
    ref = config.reference
    radius = config.region_radius
    stride = config.record_stride
    total = config.iterations
    grad_rows = obj.grad_rows

    # records fall at every multiple of the stride and at the last
    # iteration, so iteration t lands in record column ceil(t / stride)
    records = -(-total // stride) + 1
    t_rec = np.minimum(np.arange(records, dtype=np.int64) * stride, total)
    F = np.empty((S, records))
    Y = np.full((S, records), math.nan)
    flags = np.zeros((S, records), dtype=bool)
    violations = np.zeros(S, dtype=np.int64)
    iterates = np.empty((S, records, d)) if config.keep_iterates else None

    def record(col: int):
        F[:, col] = obj.value_many(W)
        if ref is not None:
            Y[:, col] = ref.squared_distance(W)
        if iterates is not None:
            iterates[:, col] = W

    # one column per seed, each drawn from that seed's own generator
    rngs = [np.random.default_rng(s) for s in seeds]

    record(0)
    # indices are drawn, and the schedule evaluated, one block of
    # iterations at a time: the index stream stays a function of the seed
    # alone, and a step costs an array lookup without materializing all
    # `total` step sizes
    for base in range(0, total, INDEX_BLOCK):
        block = np.stack([rng.integers(0, n, size=INDEX_BLOCK) for rng in rngs],
                         axis=1)
        grid = np.arange(base, min(base + INDEX_BLOCK, total), dtype=float)
        steps = np.asarray(step_size(sched, grid), dtype=float)
        for t_next, idx, step in zip(range(base + 1, total + 1), block, steps):
            W_next = W - step * grad_rows(idx, W)
            top = np.abs(W_next).max()
            # written so that a NaN iterate, for which every comparison is
            # false, lands in the same branch as a region violation
            if not top <= radius:
                row_top = np.abs(W_next).max(axis=1)
                bad = np.flatnonzero(~np.isfinite(row_top))
                if bad.size:
                    raise EngineError(
                        "non-finite iterate at iteration %d (seed %d); the "
                        "schedule is likely too aggressive for this objective"
                        % (t_next, seeds[bad[0]]))
                over = row_top > radius
                violations += over
                flags[:, -(-t_next // stride)] |= over
            W = W_next
            if t_next % stride == 0 or t_next == total:
                record(-(-t_next // stride))

    return SweepResult(
        seeds=seeds,
        t=t_rec,
        eta=step_size(sched, t_rec.astype(float)),
        F=F,
        E=F - ref.f_min if ref is not None else Y,
        Y=Y,
        region_violation=flags,
        violation_count=violations,
        component_count=n,
        has_reference=ref is not None,
        iterates=iterates,
    )


def rate_slope_fit(ts, values, window) -> float:
    """Least-squares slope of log(values) against log(t) inside a window.

    Needs at least 8 points and strictly positive values.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (ts >= lo) & (ts <= hi)
    if np.count_nonzero(mask) < 8:
        raise ValueError("slope window must contain at least 8 points")
    vals = values[mask]
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("slope fit requires positive finite values")
    slope = np.polyfit(np.log(ts[mask]), np.log(vals), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class RecurrenceReport:
    """Outcome of an exact one-step descent check along a trajectory."""

    checked: int
    violations: int
    worst_margin: float
    first_violation_t: int = -1


def recurrence_check(objective, trace: RunTrace, reference) -> RecurrenceReport:
    """Verify the one-step inequality at every recorded iterate.

    At each recorded w_t the conditional expectation of the next squared
    distance is computed exactly as the mean over components of
    ||w_t - eta_t grad f_i(w_t) - w_star||^2 and compared against
    Y_t - 2 eta_t (1 - eta_t L) E_t + 2 eta_t^2 N + 1e-10, with L the
    objective's smoothness bound on the REGION_RADIUS box. Requires
    eta_t <= 1/L throughout and a trace recorded with keep_iterates. All
    records are checked in one pass, which holds a (records, n, d) array
    of component gradients.
    """
    if trace.iterates is None:
        raise ValueError("trace must be recorded with keep_iterates=True")
    L = objective.smoothness_bound()
    eta = np.asarray(trace.eta, dtype=float)
    hot = np.flatnonzero(eta > 1.0 / L + 1e-15)
    if hot.size:
        raise ValueError(
            "recurrence check requires eta_t <= 1/L, got eta=%g, 1/L=%g"
            % (eta[hot[0]], 1.0 / L)
        )
    W = trace.iterates
    records, d = W.shape
    n = objective.component_count
    diff = W - reference.w_star
    Y = reference.squared_distance(W)
    E = objective.value_many(W) - reference.f_min
    # every component gradient at every recorded iterate, (records, n, d)
    G = objective.grad_rows(np.tile(np.arange(n), records),
                            W.repeat(n, axis=0)).reshape(records, n, d)
    nxt = diff[:, None, :] - eta[:, None, None] * G
    expected_next = np.einsum("kij,kij->ki", nxt, nxt).mean(axis=1)
    bound = Y - 2.0 * eta * (1.0 - eta * L) * E \
        + 2.0 * eta * eta * reference.noise_constant
    margin = bound - expected_next
    bad = np.flatnonzero(margin < -1e-10)
    return RecurrenceReport(
        checked=records,
        violations=int(bad.size),
        worst_margin=float(margin.min()),
        first_violation_t=int(trace.t[bad[0]]) if bad.size else -1,
    )
