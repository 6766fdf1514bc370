"""Single-pass SGD runs, multi-seed and multi-schedule sweeps, and diagnostic
fits.

Sampling is with replacement: component indices come from a PCG64 generator
seeded with the run's 64-bit seed, drawn in blocks of 8192 regardless of
recording options, the last block only as long as the run needs. A shorter
draw is a prefix of the longer one, so a run's indices are a prefix of its
seed's stream, a stable function of the seed alone. Iterates are never
projected; excursions outside the stated region are counted and flagged,
not corrected.

A sweep steps in chunks of at most objectives._BLOCK_TERMS (row, coordinate)
terms of iterates. The sweep builds the objective's gradient kernel,
_grad_kernel(rows), once, and the kernel owns its scratch. The objective
gathers the component data of a whole chunk's indices in one call. Each
step is then one call of that kernel, into a gradient buffer the sweep
reuses, and one update into the chunk's buffer; a one-schedule step size
is a Python float: a list of them iterates faster than an array.
After the chunk, its largest and smallest entry settle the region check and
the divergence test of a chunk that stayed inside the box, which is
capped at the largest float so that an infinite entry never passes; only
a chunk that did not is checked step by step and row by row. Its records
are then taken in a few whole-array calls. Every row is computed
from its own data alone, so the chunk length never changes a bit, and a
divergence is reported exactly as a step-by-step run reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import objectives
from .objectives import REGION_RADIUS
from .schedule import ScheduleSpec, format_schedule, step_size

INDEX_BLOCK = 8192


class EngineError(RuntimeError):
    """A run diverged: some seed's iterate became non-finite."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one SGD run exactly, or a lockstep
    sweep of several schedules: schedule is one ScheduleSpec or a non-empty
    tuple of them, and every other field is shared by all of them."""

    objective: object
    schedule: ScheduleSpec | tuple
    seed: int
    iterations: int
    record_stride: int = 1
    region_radius: float = REGION_RADIUS
    w0: np.ndarray = None
    reference: object = None
    keep_iterates: bool = False

    def __post_init__(self):
        scheds = self.schedule if type(self.schedule) is tuple else (self.schedule,)
        if not scheds or not all(isinstance(s, ScheduleSpec) for s in scheds):
            raise ValueError("schedule must be a ScheduleSpec or a non-empty "
                             "tuple of them")
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
    if not isinstance(config.schedule, ScheduleSpec):
        raise ValueError("sgd_run takes one schedule, not a tuple of them")
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


def _start_point(config: RunConfig) -> np.ndarray:
    d = config.objective.dimension
    if config.w0 is None:
        return np.zeros(d)
    w0 = np.asarray(config.w0, dtype=float)
    if w0.shape != (d,):
        raise ValueError("w0 has shape %s, expected (%d,)" % (w0.shape, d))
    if not np.all(np.isfinite(w0)):
        raise ValueError("w0 must be finite")
    return w0


# the run detects a non-finite iterate itself and raises EngineError, and a
# recorded F may overflow to inf, so numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
def multi_seed_sweep(config: RunConfig, seeds):
    """Run a configuration for every seed, and every schedule of it in
    lockstep; config.seed is not read.

    Given a config of one ScheduleSpec this returns its SweepResult; given
    a tuple of them, even of one, it returns one SweepResult per schedule,
    in order.

    The iterates of every (schedule, seed) pair form one array, schedule
    major, and each step advances it with a single call of the objective's
    gradient kernel, on component data gathered once per chunk. Each
    seed draws its own index stream once, and every schedule's row of that
    seed takes the same draws; every row is computed from its own data
    alone, so a trace is the same whichever seeds and schedules run beside
    it, and the same as sgd_run gives for that seed alone. A run diverges
    at the first iteration at which an iterate is non-finite; the error
    names the first such row in (schedule, seed) order, which is the error
    that row's own run raises. A chunk may step past that iterate, and the
    gradient may raise there; the error is then still the EngineError,
    while an exception raised at a finite iterate propagates unchanged.
    Recorded values are kept as computed, so F may be inf at a record while
    every iterate is still finite.
    """
    single = isinstance(config.schedule, ScheduleSpec)
    scheds = (config.schedule,) if single else config.schedule
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    obj = config.objective
    n = obj.component_count
    d = obj.dimension
    S = len(seeds)
    rows = len(scheds) * S
    W = np.tile(_start_point(config), (rows, 1))
    ref = config.reference
    radius = config.region_radius
    # the box of the whole-chunk check in settle, finite even for an
    # unbounded region, so that an infinite iterate always fails it
    bound = min(radius, np.finfo(float).max)
    stride = config.record_stride
    total = config.iterations
    gather = obj._gather
    kernel = obj._grad_kernel(rows)
    multiply, subtract = np.multiply, np.subtract

    # records fall at every multiple of the stride and at the last
    # iteration; iteration t lands in the first record column at or after t
    records = -(-total // stride) + 1
    t_rec = np.minimum(np.arange(records, dtype=np.int64) * stride, total)
    F = np.empty((rows, records))
    Y = np.full((rows, records), math.nan)
    flags = np.zeros((rows, records), dtype=bool)
    violations = np.zeros(rows, dtype=np.int64)
    iterates = np.empty((rows, records, d)) if config.keep_iterates else None

    def record(cols, W_rec):
        # W_rec holds one (rows, d) iterate per record column in cols
        flat = W_rec.reshape(-1, d)
        F[:, cols] = obj.value_many(flat).reshape(len(cols), rows).T
        if ref is not None:
            Y[:, cols] = ref.squared_distance(flat).reshape(len(cols), rows).T
        if iterates is not None:
            iterates[:, cols] = W_rec.swapaxes(0, 1)

    # a chunk of at most _BLOCK_TERMS (row, coordinate) terms of iterates,
    # H[j] being the iterate after the chunk's step j
    chunk = max(1, min(objectives._BLOCK_TERMS // (rows * d), INDEX_BLOCK,
                       total))
    H = np.empty((chunk, rows, d))
    # a step's gradient, then its step size times the gradient
    G = np.empty((rows, d))

    def settle(lo, count):
        """Settle the first `count` steps of the chunk that follows
        iteration lo: their region check, their records and, if an iterate
        is non-finite, the EngineError of the first one, whose records stop
        before it as a step-by-step run's do."""
        part = H[:count]
        end, bad = count, ()
        # a chunk whose iterates all stayed finite and inside the box is
        # settled by its largest and smallest entry, both NaN if any is
        if not (count and part.max() <= bound and part.min() >= -bound):
            tops = np.abs(part).max(axis=2)
            # a NaN iterate, for which every comparison is false, is caught
            # here with the infinite ones
            bad = np.flatnonzero(~np.isfinite(tops))
            end = count if not bad.size else int(bad[0]) // rows
            over = tops[:end] > radius
            if over.any():
                violations[:] += over.sum(axis=0)
                # unbuffered, as several steps may share a record column
                cols = t_rec.searchsorted(np.arange(lo + 1, lo + end + 1))
                np.logical_or.at(flags.T, cols, over)
        start, stop = t_rec.searchsorted((lo, lo + end), side="right")
        if stop > start:
            record(np.arange(start, stop), H[t_rec[start:stop] - lo - 1])
        if len(bad):
            j, row = divmod(int(bad[0]), rows)
            c, k = divmod(row, S)
            raise EngineError(
                "non-finite iterate at iteration %d (seed %d) under "
                "schedule %r; the schedule is likely too aggressive "
                "for this objective"
                % (lo + 1 + j, seeds[k], format_schedule(scheds[c])))

    # one column per seed, each drawn from that seed's own generator
    rngs = [np.random.default_rng(s) for s in seeds]
    # the indices are drawn as int64, which fixes the stream, and stored as
    # int32 at half the memory: component counts stay far below 2**31
    block = np.empty((INDEX_BLOCK, S), dtype=np.int32)

    record([0], W[None])
    # indices are drawn, and the schedules evaluated, one block of
    # iterations at a time: the index stream stays a function of the seed
    # alone, and a step costs an array lookup without materializing all
    # `total` step sizes
    for base in range(0, total, INDEX_BLOCK):
        stop = min(base + INDEX_BLOCK, total)
        for k, rng in enumerate(rngs):
            block[: stop - base, k] = rng.integers(0, n, size=stop - base)
        grid = np.arange(base, stop, dtype=float)
        steps = np.stack([step_size(s, grid) for s in scheds], axis=1)
        for lo in range(base, stop, chunk):
            m = min(chunk, stop - lo)
            idx = block[lo - base : lo - base + m]
            step = steps[lo - base : lo - base + m]
            # one schedule steps by a Python float; several by a contiguous
            # (rows, 1) column, so that each row's update keeps the bits of
            # its solo run, and every schedule's row of a seed takes that
            # seed's draws
            if len(scheds) == 1:
                step = step[:, 0].tolist()
            else:
                step = step.repeat(S, axis=1)[:, :, None]
                idx = np.tile(idx, (1, len(scheds)))
            data = gather(idx)
            j = 0
            try:
                for j, (out, eta, step_data) in enumerate(
                        zip(H, step, zip(*data))):
                    W = subtract(W, multiply(kernel(step_data, W, G), eta, G), out)
            except Exception:
                # past a non-finite iterate the gradient may raise; a
                # step-by-step run stops at that iterate with EngineError
                settle(lo, j)
                raise
            # drop the gathered data before settling, so that the chunk
            # holds about two buffers of its size at a time
            data = step_data = None
            settle(lo, m)

    E = F - ref.f_min if ref is not None else Y
    results = []
    for c, sched in enumerate(scheds):
        part = slice(c * S, (c + 1) * S)
        results.append(SweepResult(
            seeds=seeds,
            t=t_rec,
            eta=step_size(sched, t_rec.astype(float)),
            F=F[part],
            E=E[part],
            Y=Y[part],
            region_violation=flags[part],
            violation_count=violations[part],
            component_count=n,
            has_reference=ref is not None,
            iterates=None if iterates is None else iterates[part],
        ))
    return results[0] if single else results


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
