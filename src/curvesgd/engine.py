"""Single-pass SGD runs, multi-seed sweeps, and diagnostic fits.

Sampling is with replacement: component indices come from a PCG64 generator
seeded with the run's 64-bit seed, drawn in fixed blocks of 8192 regardless
of recording options, so the index stream is a stable function of the seed
alone. Iterates are never projected; excursions outside the stated region
are counted and flagged, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    return _run_seeds(config, (config.seed,))[0]


def _run_seeds(config: RunConfig, seeds: tuple) -> list:
    """Run one configuration for every seed in lockstep.

    The iterates of all S seeds form one (S, d) array, and each step
    advances it with a single grad_rows call. Each seed draws its own index
    stream, and every row is computed from that seed's data alone, so a
    seed's trace is the same whichever seeds run beside it. A divergence is
    reported at the earliest iteration at which any seed fails, naming the
    first such seed in sweep order, with the error that seed's own run
    raises.
    """
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
    W = np.tile(w0, (S, 1))
    ref = config.reference
    radius = config.region_radius
    stride = config.record_stride
    total = config.iterations
    grad_rows = obj.grad_rows

    rec_t, rec_f, rec_y, rec_flag = [], [], [], []
    iterates = [] if config.keep_iterates else None
    violations = np.zeros(S, dtype=np.int64)
    violated_since_record = np.zeros(S, dtype=bool)

    def is_record(t_now: int) -> bool:
        return t_now % stride == 0 or t_now == total

    def checked_value(k: int, t_now: int, w: np.ndarray) -> float:
        try:
            f_val = obj.value(w)
        except OverflowError as err:
            raise _diverged("overflow (%s)" % err, t_now, seeds[k]) from err
        if not math.isfinite(f_val) or not np.all(np.isfinite(w)):
            raise _diverged("non-finite iterate", t_now, seeds[k])
        return f_val

    def record(t_now: int):
        rec_t.append(t_now)
        try:
            values = obj.value_many(W)
        except OverflowError:
            values = math.nan
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(W))):
            # redo the rows one at a time, so that the error is the one
            # that seed's own run raises
            values = [checked_value(k, t_now, W[k]) for k in range(S)]
        rec_f.append(values)
        if ref is not None:
            rec_y.append([float(diff @ diff) for diff in W - ref.w_star])
        rec_flag.append(violated_since_record.copy())
        violated_since_record[:] = False
        if iterates is not None:
            iterates.append(W.copy())

    def raise_first_failure(t_now: int, idx: np.ndarray, step: float):
        # redo the failed step one row at a time, in sweep order, checking
        # each row as that seed's own run checks it; rows are independent,
        # so this reproduces the batched step bit for bit
        for k in range(S):
            try:
                g = grad_rows(idx[k : k + 1], W[k : k + 1])[0]
            except OverflowError as err:
                raise _diverged("overflow (%s)" % err, t_now, seeds[k]) from err
            w = W[k] - step * g
            if not np.all(np.isfinite(w)):
                raise _diverged("non-finite iterate", t_now, seeds[k])
            if is_record(t_now):
                checked_value(k, t_now, w)
        raise EngineError("iteration %d failed as a batch but in no single "
                          "row" % t_now)

    # one column per seed, each drawn from that seed's own generator
    rngs = [np.random.default_rng(s) for s in seeds]

    def index_block() -> np.ndarray:
        return np.stack([rng.integers(0, n, size=INDEX_BLOCK) for rng in rngs],
                        axis=1)

    buf = index_block()
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
        idx = buf[pos]
        pos += 1
        if pos == INDEX_BLOCK:
            buf = index_block()
            pos = 0
        t_next = t + 1
        try:
            W_next = W - steps[k] * grad_rows(idx, W)
        except OverflowError:
            raise_first_failure(t_next, idx, steps[k])
        top = np.abs(W_next).max()
        # written so that a NaN iterate, for which every comparison is
        # false, lands in the same branch as a region violation
        if not top <= radius:
            row_top = np.abs(W_next).max(axis=1)
            if not np.all(np.isfinite(row_top)):
                raise_first_failure(t_next, idx, steps[k])
            over = row_top > radius
            violations += over
            violated_since_record |= over
        W = W_next
        if is_record(t_next):
            record(t_next)

    t_rec = np.array(rec_t, dtype=np.int64)
    eta = step_size(sched, t_rec.astype(float))
    F = np.array(rec_f)
    if ref is not None:
        Y = np.array(rec_y)
        E = F - ref.f_min
    else:
        Y = E = np.full((t_rec.size, S), math.nan)
    flags = np.array(rec_flag, dtype=bool)
    stacked = np.array(iterates) if iterates is not None else None
    return [
        RunTrace(
            seed=seed,
            t=t_rec.copy(),
            eta=eta.copy(),
            F=F[:, k].copy(),
            E=E[:, k].copy(),
            Y=Y[:, k].copy(),
            region_violation=flags[:, k].copy(),
            violation_count=int(violations[k]),
            has_reference=ref is not None,
            iterates=stacked[:, k].copy() if stacked is not None else None,
        )
        for k, seed in enumerate(seeds)
    ]


def moving_mean(values, window: int = 3) -> np.ndarray:
    """Trailing moving mean; the first window-1 entries average the
    available prefix. Each window is summed left to right from 0.0, as
    numpy's mean does up to 7 entries, and divided by its length."""
    values = np.asarray(values, dtype=float)
    size = values.size
    padded = np.concatenate([np.zeros(window - 1), values])
    total = padded[:size] + 0.0
    for j in range(1, window):
        total += padded[j : j + size]
    return total / np.minimum(np.arange(1.0, size + 1.0), window)


def multi_seed_sweep(config: RunConfig, seeds) -> SweepResult:
    """Repeat one configuration across seeds and aggregate.

    All seeds advance together, and each seed's trace is bit-identical to
    the one sgd_run gives for that seed alone. The epoch series takes F at
    every record landing on a multiple of the component count and applies a
    trailing moving mean of window 3.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    traces = _run_seeds(config, seeds)

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
    every = np.arange(n)
    w_star = reference.w_star
    f_min = reference.f_min
    noise = reference.noise_constant
    gaps = objective.value_many(trace.iterates) - f_min
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
        e_now = gaps[k]
        nxt = diff - step * objective.grad_rows(every, np.tile(w, (n, 1)))
        expected_next = float(np.einsum("ij,ij->i", nxt, nxt).mean())
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
