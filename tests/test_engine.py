"""Engine tests: deterministic recurrences, recording, sweeps, checks."""

import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvesgd as cg
from curvesgd import objectives
from curvesgd.engine import INDEX_BLOCK
from curvesgd.schedule import step_size

from test_objectives import OBJECTIVE_KINDS, make_objective


def contraction_problem():
    # single component f(w) = (1/2)(w - 1)^2, gradient w - 1
    obj = cg.QuadraticMeanObjective(1.0, np.array([[1.0]]))
    ref = cg.ReferenceSolution(w_star=np.ones(1), f_min=0.0, noise_constant=0.0,
                               gradient_norm_at_solution=0.0)
    return obj, ref


def test_deterministic_contraction_trace():
    obj, ref = contraction_problem()
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=5, record_stride=1, reference=ref)
    trace = cg.sgd_run(cfg)
    # w_t = 1 - 0.5^t, so F_t = 0.5 * 0.25^t and Y_t = 0.25^t
    assert np.array_equal(trace.t, np.arange(6))
    for k, t in enumerate(trace.t):
        assert trace.F[k] == pytest.approx(0.5 * 0.25 ** t, rel=1e-14)
        assert trace.Y[k] == pytest.approx(0.25 ** t, rel=1e-14)
        assert trace.E[k] == trace.F[k]
    assert np.array_equal(trace.eta, np.full(6, 0.5))
    assert trace.violation_count == 0
    assert trace.has_reference


def test_record_grid_strides():
    obj, _ = contraction_problem()
    sched = cg.ScheduleSpec.constant(0.1)
    t1 = cg.sgd_run(cg.RunConfig(objective=obj, schedule=sched, seed=0,
                                 iterations=10, record_stride=4))
    assert np.array_equal(t1.t, np.array([0, 4, 8, 10]))
    t2 = cg.sgd_run(cg.RunConfig(objective=obj, schedule=sched, seed=0,
                                 iterations=8, record_stride=4))
    # the final iterate is not recorded twice when it lands on the stride
    assert np.array_equal(t2.t, np.array([0, 4, 8]))
    with pytest.raises(ValueError):
        cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=0)


def test_recording_does_not_consume_randomness():
    data = cg.Dataset(np.array([[1.0], [1.0], [1.0]]),
                      np.array([1.0, -1.0, 2.0]))
    obj = cg.LeastSquaresObjective(data)
    sched = cg.ScheduleSpec.constant(0.05)
    fine = cg.sgd_run(cg.RunConfig(objective=obj, schedule=sched, seed=3,
                                   iterations=60, record_stride=1))
    coarse = cg.sgd_run(cg.RunConfig(objective=obj, schedule=sched, seed=3,
                                     iterations=60, record_stride=25))
    for t, f in zip(coarse.t, coarse.F):
        k = int(np.where(fine.t == t)[0][0])
        assert fine.F[k] == f


def _check_index_stream(targets):
    # the sampling contract: indices come from default_rng(seed) drawn in
    # blocks of INDEX_BLOCK, so runs are reproducible past block boundaries
    n = targets.size
    obj = cg.LeastSquaresObjective(cg.Dataset(np.ones((n, 1)), targets))
    eta0 = 0.05
    total = INDEX_BLOCK + 5
    trace = cg.sgd_run(cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(eta0),
                                    seed=9, iterations=total, record_stride=total))
    rng = np.random.default_rng(9)
    idx = np.concatenate([rng.integers(0, n, size=INDEX_BLOCK),
                          rng.integers(0, n, size=INDEX_BLOCK)])[:total]
    w = np.zeros(1)
    for i in idx:
        w = w - eta0 * obj.grad_rows([i], w[None])[0]
    assert trace.F[-1] == obj.value(w)


def test_index_stream_matches_block_rng():
    _check_index_stream(np.array([1.0, -1.0, 2.0]))


def test_index_stream_keeps_indices_past_int16():
    # distinct targets over 40,000 components: an index block stored in a
    # type narrower than int32 wraps indices past 127 or 32,767, and with
    # them the components the replay steps on
    _check_index_stream(np.arange(40_000.0))


def test_repeat_runs_identical():
    b = cg.quadratic_mean_problem()
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=5,
                       iterations=500, record_stride=50, reference=b.reference)
    a = cg.sgd_run(cfg)
    c = cg.sgd_run(cfg)
    assert np.array_equal(a.F, c.F)
    assert np.array_equal(a.Y, c.Y)


def test_w0_validation():
    obj, _ = contraction_problem()
    # a wrong shape, and a non-finite start, which no step could report
    for w0 in (np.zeros(2), np.array([math.nan])):
        cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.1),
                           seed=0, iterations=1, w0=w0)
        with pytest.raises(ValueError):
            cg.sgd_run(cfg)


def test_region_violations_counted_not_projected():
    # pure linear drift: gradient is the constant -10, so w_t = t/2
    obj = cg.LinearObjective(np.array([[-10.0]]))
    sched = cg.ScheduleSpec.constant(0.05)
    cfg = cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=10,
                       record_stride=5, region_radius=3.0)
    trace = cg.sgd_run(cfg)
    # w_t = 0.5 t passes 3.0 strictly from t = 7 on
    assert trace.violation_count == 4
    assert not trace.region_violation[0]   # t = 0
    assert not trace.region_violation[1]   # covers t in 1..5
    assert trace.region_violation[2]       # covers t in 6..10
    # the iterate kept moving: no projection happened
    assert trace.F[-1] == pytest.approx(obj.value(np.array([5.0])), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_divergence_raises_engine_error():
    obj, _ = contraction_problem()
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(3.0),
                       seed=0, iterations=2000, record_stride=1)
    with pytest.raises(cg.EngineError):
        cg.sgd_run(cfg)


@pytest.mark.filterwarnings("error")
def test_divergence_reported_at_the_step_it_happens():
    # w <- -8 w + 3 grows until it overflows to inf and then turns NaN,
    # long before the first record at t = 1000
    obj = cg.LeastSquaresObjective(cg.Dataset([[3.0]], [1.0]))
    w = np.zeros(1)
    first_bad = 0
    with np.errstate(all="ignore"):
        while np.all(np.isfinite(w)):
            w = w - 0.5 * obj.grad_rows([0], w[None])[0]
            first_bad += 1
    assert first_bad < 1000
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=4, iterations=2000, record_stride=1000)
    with pytest.raises(cg.EngineError) as err:
        cg.sgd_run(cfg)
    assert "iteration %d (seed 4)" % first_bad in str(err.value)


@pytest.mark.filterwarnings("error")
def test_overflowing_value_is_recorded_not_a_divergence():
    # w <- -8 w + 3: F = (3w - 1)^2 overflows near t = 171, w only near 342
    obj = cg.LeastSquaresObjective(cg.Dataset([[3.0]], [1.0]))
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=200, record_stride=50,
                       reference=cg.solve_reference(obj), keep_iterates=True)
    trace = cg.sgd_run(cfg)
    assert trace.t[-1] == 200
    assert trace.F[-1] == math.inf and trace.E[-1] == math.inf
    assert np.all(np.isfinite(trace.F[:-1]))
    assert np.all(np.isfinite(trace.iterates))


@pytest.mark.filterwarnings("error")
def test_overflow_in_a_step_raises_engine_error():
    # a drift of -10 throws w far past the exp-cosh range, where grad G
    # overflows and the next iterate is non-finite
    obj = cg.LinearObjective(np.array([[-10.0]]), "exp_cosh_G", 1.0)
    w = np.zeros(1)
    first_bad = 0
    with np.errstate(all="ignore"):
        while np.all(np.isfinite(w)):
            w = w - 5.0 * obj.grad_rows([0], w[None])[0]
            first_bad += 1
    assert first_bad < 50
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(5.0),
                       seed=2, iterations=100, record_stride=50)
    with pytest.raises(cg.EngineError) as err:
        cg.sgd_run(cfg)
    assert "iteration %d (seed 2)" % first_bad in str(err.value)


def test_power_law_schedule_starts_at_one():
    obj, _ = contraction_problem()
    spec = cg.ScheduleSpec.power_law(0.1, 0.5)
    trace = cg.sgd_run(cg.RunConfig(objective=obj, schedule=spec, seed=0,
                                    iterations=2, record_stride=1))
    # iteration 0 uses the t = 1 step, and the recorded eta at t = 0 shows it
    assert trace.eta[0] == pytest.approx(0.1, rel=1e-14)
    w1 = 0.1  # one step from 0 toward 1 with eta = 0.1
    assert trace.F[1] == pytest.approx(0.5 * (w1 - 1.0) ** 2, rel=1e-14)


def test_moving_mean_prefix_behavior():
    out = cg.moving_mean([1.0, 2.0, 3.0, 4.0], window=3)
    assert np.allclose(out, [1.0, 1.5, 2.0, 3.0])
    assert np.array_equal(cg.moving_mean([5.0, 7.0], window=1), [5.0, 7.0])


def test_rate_slope_fit_exact_power_law():
    ts = np.arange(1, 200, dtype=float)
    vals = 7.0 * ts ** (-1.3)
    assert cg.rate_slope_fit(ts, vals, (1.0, 199.0)) == pytest.approx(-1.3, abs=1e-12)
    with pytest.raises(ValueError):
        cg.rate_slope_fit(ts[:5], vals[:5], (1.0, 199.0))
    with pytest.raises(ValueError):
        cg.rate_slope_fit(ts, 0.0 * vals, (1.0, 199.0))


def test_multi_seed_sweep_aggregates():
    # 12 seeds: from 8 up numpy sums a contiguous axis pairwise, so only a
    # seed-major layout gives the means of the stacked traces bit for bit
    b = cg.quadratic_mean_problem()
    n = b.objective.component_count
    seeds = tuple(range(12))
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=0,
                       iterations=3 * n, record_stride=1, reference=b.reference)
    sweep = cg.multi_seed_sweep(cfg, seeds=seeds)
    assert sweep.seeds == seeds
    assert sweep.component_count == n
    assert sweep.F.shape == (len(seeds), 3 * n + 1)
    for name in ("F", "E", "Y"):
        stacked = np.stack([getattr(tr, name) for tr in sweep.traces])
        assert np.array_equal(getattr(sweep, "mean_" + name), stacked.mean(axis=0))
    with pytest.raises(ValueError):
        cg.multi_seed_sweep(cfg, seeds=())
    with pytest.raises(ValueError):
        cg.multi_seed_sweep([], seeds=seeds)


def test_sweep_seed_matches_solo_sweep():
    # a seed's trace does not depend on which other seeds run beside it
    for problem, seeds in (("quadratic_mean", 4), ("ridge", 32), ("exp_cosh", 32)):
        b = cg.load_benchmark(problem)
        cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=0,
                           iterations=300, record_stride=30,
                           reference=b.reference, region_radius=b.region_radius)
        together = cg.multi_seed_sweep(cfg, seeds=range(seeds))
        for seed, trace in zip(range(seeds), together.traces):
            alone = cg.multi_seed_sweep(cfg, seeds=(seed,)).traces[0]
            assert trace.seed == alone.seed == seed
            for name in ("t", "eta", "F", "E", "Y", "region_violation"):
                assert np.array_equal(getattr(trace, name), getattr(alone, name))
            assert trace.violation_count == alone.violation_count


# one schedule of each kind, and power laws on both sides of the t >= 1 clamp
LOCKSTEP_SCHEDULES = ("const:0.01", "power:scale=0.05,h=0", "power:scale=0.05,h=0.5")
SWEEP_ARRAYS = ("t", "eta", "F", "E", "Y", "region_violation", "violation_count",
                "iterates", "mean_F", "mean_E", "mean_Y")


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("problem, start", [("ridge", 0.0), ("quadratic_mean", 8.0)])
def test_lockstep_schedule_matches_its_solo_sweep(problem, start, stride):
    # a (schedule, seed) trace does not depend on which schedules run beside
    # it; quadratic_mean starts outside the box, so region flags are set
    b = cg.load_benchmark(problem)
    schedules = [cg.parse_schedule(text) for text in LOCKSTEP_SCHEDULES]
    schedules.append(b.schedule)  # the matched paper-opt schedule
    configs = [cg.RunConfig(objective=b.objective, schedule=sched, seed=k,
                            iterations=150, record_stride=stride,
                            w0=np.full(b.objective.dimension, start),
                            reference=b.reference, region_radius=b.region_radius,
                            keep_iterates=True)
               for k, sched in enumerate(schedules)]
    seeds = (4, 0, 9)
    together = cg.multi_seed_sweep(configs, seeds)
    assert len(together) == len(configs)
    for config, sweep in zip(configs, together):
        alone = cg.multi_seed_sweep(config, seeds)
        assert sweep.seeds == alone.seeds == seeds
        assert sweep.component_count == alone.component_count
        assert sweep.has_reference and alone.has_reference
        for name in SWEEP_ARRAYS:
            assert np.array_equal(getattr(sweep, name), getattr(alone, name))
    if problem == "quadratic_mean":
        assert all(sweep.violation_count.min() > 0 for sweep in together)


def _replay(obj, schedules, seeds, w0, iterations):
    """The iterates of every (schedule, seed) row, schedule major, stepped
    one at a time as W = W - eta * grad_rows(idx, W) from each seed's own
    index stream: an array (rows, iterations + 1, d)."""
    draws = [np.random.default_rng(s).integers(0, obj.component_count,
                                               size=iterations)
             for s in seeds]
    idx = np.tile(np.stack(draws, axis=1), (1, len(schedules)))
    grid = np.arange(iterations, dtype=float)
    eta = np.stack([step_size(s, grid) for s in schedules],
                   axis=1).repeat(len(seeds), axis=1)
    W = np.tile(w0, (idx.shape[1], 1))
    trail = [W]
    for t in range(iterations):
        W = W - eta[t][:, None] * obj.grad_rows(idx[t], W)
        trail.append(W)
    return np.stack(trail, axis=1)


def _assert_sweeps_replay(obj, texts, seeds, w0, iterations):
    # the engine's in-place steps, with one schedule and in lockstep, keep
    # the bits of the step-by-step replay through grad_rows
    schedules = [cg.parse_schedule(text) for text in texts]
    configs = [cg.RunConfig(objective=obj, schedule=sched, seed=0,
                            iterations=iterations, w0=w0, keep_iterates=True)
               for sched in schedules]
    expected = _replay(obj, schedules, seeds, w0, iterations)
    solo = cg.multi_seed_sweep(configs[0], seeds).iterates
    assert np.array_equal(solo, expected[: len(seeds)])
    together = [s.iterates for s in cg.multi_seed_sweep(configs, seeds)]
    assert np.array_equal(np.concatenate(together), expected)


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("regularizer", objectives.REGULARIZERS)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_sweep_steps_are_the_grad_rows_replay(kind, regularizer, lam):
    obj = make_objective(kind, np.random.default_rng(3), 5, 3, regularizer, lam)
    # from the origin, the kink of norm2, where its subgradient 0 is taken
    _assert_sweeps_replay(obj, ["const:0.05", "power:scale=0.1,h=0.5"],
                          (4, 0, 9), np.zeros(3), 40)


def test_sweep_steps_near_the_exp_cosh_overflow_are_the_replay():
    # e^709.7 is within a factor 1.1 of the largest float, so grad G is
    # near it; the tiny steps keep every iterate finite
    obj = cg.LinearObjective(np.zeros((2, 2)), "exp_cosh_G", 0.5)
    _assert_sweeps_replay(obj, ["const:1e-307", "const:3e-308"], (1, 2),
                          np.array([709.7, -709.75]), 20)


@pytest.mark.parametrize("field, value", [
    ("objective", cg.QuadraticMeanObjective(10.0, np.eye(5))),
    ("iterations", 21),
    ("record_stride", 2),
    ("w0", np.ones(5)),
    ("reference", None),
    ("region_radius", 2.0),
    ("keep_iterates", True),
])
def test_lockstep_configs_differ_only_in_schedule(field, value):
    b = cg.quadratic_mean_problem()
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=0,
                       iterations=20, reference=b.reference)
    # the schedule and the unread seed may differ
    cg.multi_seed_sweep([cfg, dataclasses.replace(
        cfg, schedule=cg.ScheduleSpec.constant(0.01), seed=3)], (0,))
    with pytest.raises(ValueError, match="differ in %s$" % field):
        cg.multi_seed_sweep([cfg, dataclasses.replace(cfg, **{field: value})], (0,))


@pytest.mark.filterwarnings("error")
def test_lockstep_divergence_names_the_earliest_row():
    # as in test_sweep_divergence_at_a_record_names_the_seed: component 0
    # multiplies w by 1 - 18 eta per draw, so each (schedule, seed) row
    # diverges at an iteration set by its step and its seed's draws
    obj = cg.LeastSquaresObjective(cg.Dataset([[3.0], [0.5]], [1.0, 1.0]))
    texts = ("const:0.4", "const:0.5")
    seeds = (0, 5, 2)

    def failure(texts, seeds):
        configs = [cg.RunConfig(objective=obj, schedule=cg.parse_schedule(text),
                                seed=0, iterations=3000, record_stride=5)
                   for text in texts]
        with pytest.raises(cg.EngineError) as err:
            cg.multi_seed_sweep(configs, seeds)
        return str(err.value)

    def iteration(message):
        return int(re.search(r"iteration (\d+)", message).group(1))

    solo = {(c, k): failure([text], [seed])
            for c, text in enumerate(texts) for k, seed in enumerate(seeds)}
    assert len({iteration(m) for m in solo.values()}) == len(solo)
    first = min(solo, key=lambda row: iteration(solo[row]))
    # the later-listed schedule diverges first, and not in the first seed
    assert first[0] == 1 and first[1] != 0
    message = failure(texts, seeds)
    assert message == solo[first]
    assert "(seed %d) under schedule 'const:0.5'" % seeds[first[1]] in message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("texts", [("const:0.2", "const:0.1"),
                                   ("const:0.1", "const:0.2")])
def test_lockstep_divergence_tie_names_the_first_schedule(texts):
    # drawing the poisoned component throws w to inf whatever the step, so
    # every schedule's row of a seed diverges at the same iteration
    n = 20
    X = np.full((n, 1), 0.5)
    X[0] = 1e300
    y = np.ones(n)
    y[0] = 1e10
    obj = cg.LeastSquaresObjective(cg.Dataset(X, y))
    configs = [cg.RunConfig(objective=obj, schedule=cg.parse_schedule(text),
                            seed=0, iterations=30) for text in texts]
    seeds = tuple(seed for seed, hit in _seeds_by_first_draw(n, 0, 30, 40)
                  if hit is not None)[:3]
    with pytest.raises(cg.EngineError) as err:
        cg.multi_seed_sweep(configs, seeds)
    with pytest.raises(cg.EngineError) as solo:
        cg.multi_seed_sweep(configs[0], seeds)
    assert str(err.value) == str(solo.value)
    assert "under schedule %r" % texts[0] in str(err.value)


@pytest.fixture(scope="module")
def benchmarks():
    return {name: cg.load_benchmark(name)
            for name in ("quadratic_mean", "ridge", "exp_cosh")}


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(("quadratic_mean", "ridge", "exp_cosh")),
       seed=st.integers(0, 2 ** 63), strides=st.tuples(st.integers(1, 50),
                                                       st.integers(1, 50)))
def test_trace_does_not_depend_on_stride(benchmarks, name, seed, strides):
    b = benchmarks[name]
    traces = [
        cg.multi_seed_sweep(
            cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=seed,
                         iterations=120, record_stride=stride,
                         reference=b.reference, region_radius=b.region_radius),
            seeds=(seed, seed + 1)).traces
        for stride in strides
    ]
    for one, other in zip(*traces):
        shared, at_one, at_other = np.intersect1d(one.t, other.t,
                                                  return_indices=True)
        assert shared.size >= 2  # t = 0 and the last iteration at least
        assert np.array_equal(one.F[at_one], other.F[at_other])
        assert np.array_equal(one.Y[at_one], other.Y[at_other])


def _seeds_by_first_draw(n, index, steps, count):
    """Seeds in increasing order with the step at which each first draws
    `index` (None when it does not within `steps`)."""
    found = []
    for seed in range(count):
        draws = np.random.default_rng(seed).integers(0, n, size=INDEX_BLOCK)
        hits = np.flatnonzero(draws[:steps] == index)
        found.append((seed, int(hits[0]) if hits.size else None))
    return found


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["non-finite", "overflow"])
@pytest.mark.parametrize("only_one", [True, False])
def test_sweep_divergence_names_the_diverging_seed(kind, only_one):
    # one poisoned component: drawing it throws w to inf (least squares) or
    # past the exp-cosh range (grad G overflows at the next step); the other
    # components contract, so only seeds that draw it diverge
    n, steps = 20, 30
    if kind == "non-finite":
        X = np.full((n, 1), 0.5)
        X[0] = 1e300
        y = np.ones(n)
        y[0] = 1e10
        obj = cg.LeastSquaresObjective(cg.Dataset(X, y))
    else:
        C = np.zeros((n, 1))
        C[0] = -1e4
        obj = cg.LinearObjective(C, "exp_cosh_G", 1.0)
    draws = _seeds_by_first_draw(n, 0, steps, 200)
    safe = [s for s, hit in draws if hit is None]
    hit = sorted((h, s) for s, h in draws if h is not None)
    if only_one:
        culprit = hit[0][1]
        seeds = (safe[0], culprit, safe[1])
    else:
        # two seeds diverge; the one listed first diverges later, so the
        # sweep names the other: the earliest iteration wins
        culprit, late = hit[0][1], hit[-1][1]
        assert hit[0][0] < hit[-1][0]
        seeds = (late, culprit, safe[0])
    messages = set()
    for stride in (1, steps):
        cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.1),
                           seed=culprit, iterations=steps, record_stride=stride)
        with pytest.raises(cg.EngineError) as solo:
            cg.sgd_run(cfg)
        with pytest.raises(cg.EngineError) as swept:
            cg.multi_seed_sweep(cfg, seeds)
        assert str(swept.value) == str(solo.value)
        assert "(seed %d)" % culprit in str(swept.value)
        messages.add(str(swept.value))
    # neither the stride nor the neighbouring seeds move the report
    assert len(messages) == 1


@pytest.mark.filterwarnings("error")
def test_sweep_divergence_at_a_record_names_the_seed():
    # component 0 multiplies w by -8 per draw and component 1 contracts it,
    # so every seed diverges, at an iteration set by its own draws; at
    # stride 1 F overflows at a record while w is still finite, which is
    # recorded and is not a divergence
    obj = cg.LeastSquaresObjective(cg.Dataset([[3.0], [0.5]], [1.0, 1.0]))

    def failure(seed, stride, seeds=None):
        cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                           seed=seed, iterations=2000, record_stride=stride)
        with pytest.raises(cg.EngineError) as err:
            if seeds is None:
                cg.sgd_run(cfg)
            else:
                cg.multi_seed_sweep(cfg, seeds)
        return str(err.value)

    def iteration(message):
        return int(re.search(r"iteration (\d+)", message).group(1))

    seeds = (0, 5, 2)
    solo = {s: failure(s, 1) for s in seeds}
    first, second = sorted(iteration(m) for m in solo.values())[:2]
    assert first < second
    culprit = min(seeds, key=lambda s: iteration(solo[s]))
    assert culprit != seeds[0]
    # divergence is the iterate's alone, so the stride cannot move it
    assert failure(culprit, 7) == failure(culprit, 10 ** 6) == solo[culprit]
    assert failure(culprit, 1, seeds) == solo[culprit]


def _chunked_sweep(configs, seeds, steps):
    """multi_seed_sweep with the engine's chunk bound, objectives._BLOCK_TERMS,
    set to `steps` steps of all rows, or left at its default for None."""
    if steps is None:
        return cg.multi_seed_sweep(configs, seeds)
    single = isinstance(configs, cg.RunConfig)
    first = configs if single else configs[0]
    rows = (1 if single else len(configs)) * len(seeds)
    terms = steps * rows * first.objective.dimension
    with mock.patch.object(objectives, "_BLOCK_TERMS", terms):
        return cg.multi_seed_sweep(configs, seeds)


# (benchmark, schedules, start, iterations, stride) of each chunking case
CHUNK_CASES = {
    # from w0 = 4 the iterates leave the box for 13 or 14 steps, so the
    # excursion straddles 3-step chunk boundaries and ends inside a chunk;
    # stride 5 divides neither the chunk nor the 61 iterations
    "excursion": ("quadratic_mean", ["const:0.002"], 4.0, 61, 5),
    # from w0 = 4 the exp_cosh iterates return to the box after 9 or 10
    # steps and the ridge iterates after 33 to 44
    "exp_cosh_excursion": ("exp_cosh", ["const:0.001"], 4.0, 61, 5),
    "ridge_excursion": ("ridge", ["const:0.01"], 4.0, 61, 5),
    "lockstep": ("ridge", LOCKSTEP_SCHEDULES, 0.0, 100, 7),
    "keep_iterates": ("exp_cosh", ["const:0.01"], 3.5, 50, 1),
    # past the first index block, whose end is also a chunk's end
    "index_block": ("quadratic_mean", ["const:0.01"], 0.0, INDEX_BLOCK + 10, 1000),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunking_does_not_change_a_bit(benchmarks, case):
    # chunks of 1 step, of 3 steps and of the default bound settle the
    # region check, the flags and the records to the same bits
    problem, schedules, start, iterations, stride = CHUNK_CASES[case]
    b = benchmarks[problem]
    configs = [cg.RunConfig(objective=b.objective, schedule=cg.parse_schedule(text),
                            seed=0, iterations=iterations, record_stride=stride,
                            w0=np.full(b.objective.dimension, start),
                            reference=b.reference, region_radius=b.region_radius,
                            keep_iterates=True)
               for text in schedules]
    if len(configs) == 1:
        configs = configs[0]  # the one-schedule path steps by a scalar
    seeds = (4, 0, 9)
    results = [_chunked_sweep(configs, seeds, steps) for steps in (1, 3, None)]
    results = [[r] if isinstance(r, cg.SweepResult) else r for r in results]
    for one, three, default in zip(*results):
        for name in SWEEP_ARRAYS:
            expected = getattr(default, name)
            assert np.array_equal(getattr(one, name), expected), name
            assert np.array_equal(getattr(three, name), expected), name
    if case == "excursion":
        sweep = results[-1][0]
        assert sorted(set(sweep.violation_count)) == [13, 14]
        assert sweep.region_violation[:, 1:4].all()
        assert not sweep.region_violation[:, 4:].any()
        assert sweep.t[-1] == 61
    if case == "index_block":
        assert results[-1][0].t[-1] == INDEX_BLOCK + 10
    if case.endswith("_excursion"):
        sweep = results[-1][0]
        assert sweep.region_violation[:, 1].all()
        assert not sweep.region_violation[:, -1].any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [3, None])
def test_divergence_inside_a_chunk_names_the_earliest_row(steps):
    # the rows of test_lockstep_divergence_names_the_earliest_row diverge at
    # six distinct iterations; the default chunk holds all 3000 steps, and
    # one-step chunks settle each step as it is taken
    obj = cg.LeastSquaresObjective(cg.Dataset([[3.0], [0.5]], [1.0, 1.0]))
    configs = [cg.RunConfig(objective=obj, schedule=cg.parse_schedule(text),
                            seed=0, iterations=3000, record_stride=5)
               for text in ("const:0.4", "const:0.5")]
    seeds = (0, 5, 2)
    messages = []
    for chunk in (1, steps):
        with pytest.raises(cg.EngineError) as err:
            _chunked_sweep(configs, seeds, chunk)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps, to_the_end", [(None, False), (3, False),
                                               (None, True)])
def test_unbounded_region_still_reports_divergence(steps, to_the_end):
    # under an infinite radius w <- w - 1e307 leaves the float range for
    # -inf, where it stays and never turns NaN; that step ends a 3-step
    # chunk and, with to_the_end, the run
    obj = cg.LinearObjective(np.array([[1.0]]))
    w = np.zeros(1)
    first_bad = 0
    with np.errstate(all="ignore"):
        while np.all(np.isfinite(w)):
            w = w - 1e307 * obj.grad_rows([0], w[None])[0]
            first_bad += 1
    assert first_bad % 3 == 0
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(1e307),
                       seed=0, iterations=first_bad if to_the_end else 100,
                       record_stride=5, region_radius=math.inf)
    with pytest.raises(cg.EngineError) as err:
        _chunked_sweep(cfg, (6,), steps)
    assert "iteration %d (seed 6)" % first_bad in str(err.value)


def _cube_gradient(calls, refuse_above=math.inf):
    # the gradient of w^4 / 4, refusing a non-finite argument, and a
    # finite one past refuse_above, as a library routine might
    def grad(w):
        calls.append(w.copy())
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite argument")
        if np.abs(w).max() > refuse_above:
            raise ValueError("argument out of range")
        return w ** 3
    return grad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [1, 3, None])
def test_gradient_raising_past_a_divergence_reports_the_divergence(steps):
    # from w0 = 3, w <- w - w^3 / 2 overflows to -inf at iteration 7; a
    # chunk that keeps stepping calls the gradient at -inf, which raises
    calls = []
    obj = cg.CallableObjective([lambda w: float(w[0] ** 4 / 4)],
                               [_cube_gradient(calls)], 1)
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=50, record_stride=10, w0=np.array([3.0]))
    with pytest.raises(cg.EngineError) as err:
        _chunked_sweep(cfg, (0,), steps)
    assert "iteration 7 (seed 0)" in str(err.value)
    assert np.all(np.isfinite(calls[6]))
    if steps == 1:
        assert len(calls) == 7
    else:
        # a chunk that holds iteration 8 called the gradient at -inf
        assert len(calls) == 8 and calls[7][0] == -math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [1, 3, None])
def test_records_stop_before_a_divergence(steps):
    # the gradient w^3 accepts -inf, so a chunk steps on past iteration 7;
    # the value refuses a non-finite argument, and is never given one
    values = []

    def value(w):
        values.append(w.copy())
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite argument")
        return float(w[0] ** 4 / 4)

    obj = cg.CallableObjective([value], [lambda w: w ** 3], 1)
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=50, record_stride=1, w0=np.array([3.0]))
    with pytest.raises(cg.EngineError, match=r"iteration 7 \(seed 0\)"):
        _chunked_sweep(cfg, (0,), steps)
    # the records at t = 0, ..., 6
    assert len(values) == 7


@pytest.mark.parametrize("steps", [1, 3, None])
def test_gradient_raising_at_a_finite_iterate_propagates(steps):
    # the same run, but the gradient refuses w_2 = 568.3125, long before
    # any iterate is non-finite
    calls = []
    obj = cg.CallableObjective([lambda w: float(w[0] ** 4 / 4)],
                               [_cube_gradient(calls, refuse_above=100.0)], 1)
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=50, record_stride=10, w0=np.array([3.0]))
    with pytest.raises(ValueError, match="^argument out of range$"):
        _chunked_sweep(cfg, (0,), steps)
    assert len(calls) == 3 and calls[-1][0] == 568.3125


def test_sweep_scratch_memory_is_about_two_chunks():
    # 50 seeds of ridge (d = 10) make a chunk of 131 steps, 524,000 bytes
    # of iterates. Beyond its output arrays and the int32 index block that
    # every seed draws, the sweep holds the chunk's iterates and its gathered
    # rows, two such buffers, plus the block's step sizes and the labels
    b = cg.load_benchmark("ridge")
    seeds = tuple(range(50))
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=0,
                       iterations=20000, record_stride=20000, reference=b.reference)
    rows_d = len(seeds) * b.objective.dimension
    chunk_bytes = (objectives._BLOCK_TERMS // rows_d) * rows_d * 8
    index_block_bytes = INDEX_BLOCK * len(seeds) * 4
    cg.multi_seed_sweep(cfg, seeds[:2])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = cg.multi_seed_sweep(cfg, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (sweep.F, sweep.Y, sweep.region_violation,
                                     sweep.violation_count))
    scratch = peak - before - outputs - index_block_bytes
    assert scratch < 3 * chunk_bytes, (scratch, chunk_bytes)


def test_recorded_eta_is_the_step_taken():
    # the run evaluates the schedule on blocks of iterations; a record
    # reports the same bits, including where array and scalar pow differ
    for name in ("exp_cosh", "quadratic_mean"):
        b = cg.load_benchmark(name)
        cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=1,
                           iterations=3000, record_stride=7,
                           reference=b.reference, region_radius=b.region_radius)
        trace = cg.sgd_run(cfg)
        steps = step_size(b.schedule, np.arange(3001, dtype=float))
        assert np.array_equal(trace.eta, steps[trace.t]), name


def _moving_mean_loop(values, window):
    out = np.empty_like(values)
    for k in range(values.size):
        out[k] = values[max(0, k - window + 1) : k + 1].mean()
    return out


@settings(deadline=None)
@given(window=st.integers(1, 5),
       values=st.lists(st.floats(1e-8, 1e8) | st.floats(-1e8, -1e-8),
                       max_size=600))
def test_moving_mean_matches_the_window_loop(window, values):
    values = np.array(values, dtype=float)
    out = cg.moving_mean(values, window)
    assert np.array_equal(out, _moving_mean_loop(values, window))
    # a matrix is averaged along its last axis, each row on its own
    rows = np.stack([values, -3.0 * values[::-1]])
    out = cg.moving_mean(rows, window)
    for row, row_out in zip(rows, out):
        assert np.array_equal(row_out, _moving_mean_loop(row, window))


def test_keep_iterates_stores_trajectory():
    obj, ref = contraction_problem()
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=4, record_stride=1, reference=ref,
                       keep_iterates=True)
    trace = cg.sgd_run(cfg)
    assert trace.iterates.shape == (5, 1)
    expected = 1.0 - 0.5 ** np.arange(5)
    assert np.allclose(trace.iterates[:, 0], expected, rtol=1e-14)


def test_recurrence_check_clean_run():
    b = cg.quadratic_mean_problem()
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=5,
                       iterations=200, record_stride=1, reference=b.reference,
                       keep_iterates=True)
    trace = cg.sgd_run(cfg)
    report = cg.recurrence_check(b.objective, trace, b.reference)
    assert report.violations == 0
    # every stored iterate is visited, including both endpoints
    assert report.checked == 201
    assert report.worst_margin >= 0.0


def _recurrence_loop(objective, trace, reference, tol, L):
    # the one-step check written out one recorded iterate at a time
    n = objective.component_count
    margins = []
    for w, step in zip(trace.iterates, trace.eta):
        diff = w - reference.w_star
        e_now = objective.value(w) - reference.f_min
        nxt = diff - step * objective.grad_rows(np.arange(n), np.tile(w, (n, 1)))
        expected_next = np.einsum("ij,ij->i", nxt, nxt).mean()
        bound = (diff @ diff - 2.0 * step * (1.0 - step * L) * e_now
                 + 2.0 * step * step * reference.noise_constant)
        margins.append(bound - expected_next)
    margins = np.array(margins)
    bad = np.flatnonzero(margins < -tol)
    return (bad.size, int(trace.t[bad[0]]) if bad.size else -1,
            float(margins.min()))


def test_recurrence_check_reports_violations_like_the_loop():
    # without the noise term the bound undercuts the exact expectation
    b = cg.quadratic_mean_problem()
    noiseless = dataclasses.replace(b.reference, noise_constant=0.0)
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=5,
                       iterations=300, record_stride=1, reference=b.reference,
                       w0=np.ones(b.objective.dimension), keep_iterates=True)
    trace = cg.sgd_run(cfg)
    report = cg.recurrence_check(b.objective, trace, noiseless)
    assert report.checked == 301
    assert report.violations > 0
    violations, first_t, worst = _recurrence_loop(
        b.objective, trace, noiseless, 1e-10, b.objective.smoothness_bound())
    assert (report.violations, report.first_violation_t) == (violations, first_t)
    assert report.worst_margin == pytest.approx(worst, rel=1e-12, abs=1e-15)


def test_recurrence_check_requires_iterates_and_stable_step():
    b = cg.quadratic_mean_problem()
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=5,
                       iterations=50, record_stride=1, reference=b.reference)
    trace = cg.sgd_run(cfg)
    with pytest.raises(ValueError):
        cg.recurrence_check(b.objective, trace, b.reference)
    hot = cg.ScheduleSpec.constant(1.0)  # exceeds 1/L for this benchmark
    cfg2 = cg.RunConfig(objective=b.objective, schedule=hot, seed=5,
                        iterations=10, record_stride=1, reference=b.reference,
                        keep_iterates=True)
    trace2 = cg.sgd_run(cfg2)
    with pytest.raises(ValueError):
        cg.recurrence_check(b.objective, trace2, b.reference)


def test_run_config_validation():
    obj, _ = contraction_problem()
    sched = cg.ScheduleSpec.constant(0.1)
    with pytest.raises(ValueError):
        cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=-1)
    with pytest.raises(ValueError):
        cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=1,
                     record_stride=0)
    for radius in (0.0, math.nan):
        with pytest.raises(ValueError):
            cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=1,
                         region_radius=radius)
    # an unbounded region stays legal
    cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=1,
                 region_radius=math.inf)
