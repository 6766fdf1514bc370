"""Single-pass SGD runs, multi-seed sweeps, and diagnostic fits.

Sampling is with replacement: component indices come from a PCG64 generator
seeded with the run's 64-bit seed, drawn in fixed blocks of 8192 regardless
of recording options, so the index stream is a stable function of the seed
alone. Iterates are never projected; excursions outside the stated region
are counted and flagged, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .schedule import ScheduleSpec, step_size

INDEX_BLOCK = 8192


class EngineError(RuntimeError):
    """A run aborted (non-finite iterate or objective value, or overflow)."""


def _diverged(what: str, t: int, seed: int) -> EngineError:
    return EngineError(
        "%s at iteration %d (seed %d); the schedule is likely too "
        "aggressive for this objective" % (what, t, seed)
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one SGD run exactly."""

    objective: object
    schedule: ScheduleSpec
    seed: int
    iterations: int
    record_stride: int = 1
    region_radius: float = 3.0
    w0: np.ndarray = None
    reference: object = None
    keep_iterates: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.region_radius <= 0:
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
    """Per-seed traces plus their pointwise mean and epoch-level series."""

    traces: list
    seeds: tuple
    t: np.ndarray
    mean_F: np.ndarray
    mean_E: np.ndarray
    mean_Y: np.ndarray
    component_count: int
    has_reference: bool
    epoch_t: np.ndarray
    mean_epoch_F: np.ndarray
    smoothed_epoch_F: np.ndarray


def sgd_run(config: RunConfig) -> RunTrace:
    """Run SGD and record the trace. Bit-identical across repeat calls."""
    obj = config.objective
    n = obj.component_count
    d = obj.dimension
    sched = config.schedule
    if config.w0 is None:
        w = np.zeros(d)
    else:
        w = np.asarray(config.w0, dtype=float).copy()
        if w.shape != (d,):
            raise ValueError("w0 has shape %s, expected (%d,)" % (w.shape, d))
    ref = config.reference
    radius = config.region_radius
    stride = config.record_stride
    total = config.iterations

    rec_t, rec_eta, rec_f, rec_e, rec_y, rec_flag = [], [], [], [], [], []
    iterates = [] if config.keep_iterates else None
    violations = 0
    violated_since_record = False

    def record(t_now: int):
        nonlocal violated_since_record
        try:
            f_val = obj.value(w)
        except OverflowError as err:
            raise _diverged("overflow (%s)" % err, t_now, config.seed) from err
        if not math.isfinite(f_val) or not np.all(np.isfinite(w)):
            raise _diverged("non-finite iterate", t_now, config.seed)
        rec_t.append(t_now)
        rec_eta.append(step_size(sched, t_now))
        rec_f.append(f_val)
        if ref is not None:
            rec_e.append(f_val - ref.f_min)
            diff = w - ref.w_star
            rec_y.append(float(diff @ diff))
        else:
            rec_e.append(math.nan)
            rec_y.append(math.nan)
        rec_flag.append(violated_since_record)
        violated_since_record = False
        if iterates is not None:
            iterates.append(w.copy())

    rng = np.random.default_rng(config.seed)
    buf = rng.integers(0, n, size=INDEX_BLOCK)
    pos = 0

    # evaluating the schedule one block at a time keeps the per-iteration
    # cost at an array lookup without materializing all `total` step sizes
    def step_block(base: int) -> np.ndarray:
        grid = np.arange(base, min(base + INDEX_BLOCK, total), dtype=float)
        return np.asarray(step_size(sched, grid), dtype=float)

    steps = np.empty(0)
    block_base = 0

    record(0)
    for t in range(total):
        k = t - block_base
        if k == steps.size:
            block_base = t
            steps = step_block(t)
            k = 0
        i = int(buf[pos])
        pos += 1
        if pos == INDEX_BLOCK:
            buf = rng.integers(0, n, size=INDEX_BLOCK)
            pos = 0
        try:
            w -= steps[k] * obj.component_gradient(i, w)
        except OverflowError as err:
            raise _diverged("overflow (%s)" % err, t + 1, config.seed) from err
        top = np.abs(w).max()
        # written so that a NaN iterate, for which every comparison is
        # false, lands in the same branch as a region violation
        if not top <= radius:
            if not math.isfinite(top):
                raise _diverged("non-finite iterate", t + 1, config.seed)
            violations += 1
            violated_since_record = True
        t_next = t + 1
        if t_next % stride == 0 or t_next == total:
            record(t_next)

    return RunTrace(
        seed=config.seed,
        t=np.array(rec_t, dtype=np.int64),
        eta=np.array(rec_eta),
        F=np.array(rec_f),
        E=np.array(rec_e),
        Y=np.array(rec_y),
        region_violation=np.array(rec_flag, dtype=bool),
        violation_count=violations,
        has_reference=ref is not None,
        iterates=np.array(iterates) if iterates is not None else None,
    )


def moving_mean(values, window: int = 3) -> np.ndarray:
    """Trailing moving mean; the first window-1 entries average the
    available prefix."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for k in range(values.size):
        lo = max(0, k - window + 1)
        out[k] = values[lo : k + 1].mean()
    return out


def multi_seed_sweep(config: RunConfig, seeds) -> SweepResult:
    """Repeat one configuration across seeds and aggregate.

    Runs execute one after another, each exactly as sgd_run would run it
    alone. The epoch series takes F at every record landing on a multiple
    of the component count and applies a trailing moving mean of window 3.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    traces = [sgd_run(replace(config, seed=s)) for s in seeds]

    t_grid = traces[0].t
    mean_f = np.mean([tr.F for tr in traces], axis=0)
    mean_e = np.mean([tr.E for tr in traces], axis=0)
    mean_y = np.mean([tr.Y for tr in traces], axis=0)

    n = config.objective.component_count
    epoch_mask = (t_grid > 0) & (t_grid % n == 0)
    epoch_t = t_grid[epoch_mask]
    mean_epoch_f = mean_f[epoch_mask]
    smoothed = moving_mean(mean_epoch_f) if epoch_t.size else mean_epoch_f.copy()

    return SweepResult(
        traces=traces,
        seeds=seeds,
        t=t_grid,
        mean_F=mean_f,
        mean_E=mean_e,
        mean_Y=mean_y,
        component_count=n,
        has_reference=traces[0].has_reference,
        epoch_t=epoch_t,
        mean_epoch_F=mean_epoch_f,
        smoothed_epoch_F=smoothed,
    )


def tail_average(sweep: SweepResult, t: int) -> float:
    """Mean of the mean optimality gap over iterations t+1 .. 2t.

    Requires every iteration in that window to be present in the record
    grid (run with record_stride = 1 for exact tail averages).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if not sweep.has_reference:
        raise ValueError("tail averages need a reference solution")
    index = {int(ti): k for k, ti in enumerate(sweep.t)}
    total = 0.0
    for i in range(t + 1, 2 * t + 1):
        if i not in index:
            raise ValueError(
                "tail window [%d, %d] is not fully recorded" % (t + 1, 2 * t)
            )
        total += sweep.mean_E[index[i]]
    return total / t


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


def recurrence_check(objective, sched: ScheduleSpec, trace: RunTrace,
                     reference, tol: float = 1e-10,
                     region_radius: float = 3.0) -> RecurrenceReport:
    """Verify the one-step inequality at every recorded iterate.

    At each recorded w_t the conditional expectation of the next squared
    distance is computed exactly as the mean over components of
    ||w_t - eta_t grad f_i(w_t) - w_star||^2 and compared against
    Y_t - 2 eta_t (1 - eta_t L) E_t + 2 eta_t^2 N + tol. Requires
    eta_t <= 1/L throughout and a trace recorded with keep_iterates.
    """
    if trace.iterates is None:
        raise ValueError("trace must be recorded with keep_iterates=True")
    L = objective.smoothness_bound(region_radius)
    n = objective.component_count
    w_star = reference.w_star
    f_min = reference.f_min
    noise = reference.noise_constant
    worst = math.inf
    violations = 0
    first_t = -1
    checked = 0
    for k in range(trace.t.size):
        step = float(trace.eta[k])
        if step > 1.0 / L + 1e-15:
            raise ValueError(
                "recurrence check requires eta_t <= 1/L, got eta=%g, 1/L=%g"
                % (step, 1.0 / L)
            )
        w = trace.iterates[k]
        diff = w - w_star
        y_now = float(diff @ diff)
        e_now = objective.value(w) - f_min
        expected_next = 0.0
        for i in range(n):
            nxt = diff - step * objective.component_gradient(i, w)
            expected_next += float(nxt @ nxt)
        expected_next /= n
        bound = y_now - 2.0 * step * (1.0 - step * L) * e_now \
            + 2.0 * step * step * noise
        margin = bound - expected_next
        if margin < worst:
            worst = margin
        if margin < -tol:
            violations += 1
            if first_t < 0:
                first_t = int(trace.t[k])
        checked += 1
    return RecurrenceReport(
        checked=checked,
        violations=violations,
        worst_margin=worst,
        first_violation_t=first_t,
    )
