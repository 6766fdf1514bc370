"""Engine tests: deterministic recurrences, recording, sweeps, checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvesgd as cg
from curvesgd.engine import INDEX_BLOCK
from curvesgd.schedule import step_size


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


def test_index_stream_matches_block_rng():
    # the sampling contract: indices come from default_rng(seed) drawn in
    # blocks of INDEX_BLOCK, so runs are reproducible past block boundaries
    n = 3
    data = cg.Dataset(np.ones((n, 1)), np.array([1.0, -1.0, 2.0]))
    obj = cg.LeastSquaresObjective(data)
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
    b = cg.quadratic_mean_problem()
    n = b.objective.component_count
    cfg = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=0,
                       iterations=3 * n, record_stride=1, reference=b.reference)
    sweep = cg.multi_seed_sweep(cfg, seeds=(0, 1, 2, 3))
    assert sweep.seeds == (0, 1, 2, 3)
    assert sweep.component_count == n
    stacked = np.stack([tr.F for tr in sweep.traces])
    assert np.allclose(sweep.mean_F, stacked.mean(axis=0), rtol=1e-15)
    # epoch grid: multiples of the component count, t = 0 excluded
    assert np.array_equal(sweep.epoch_t, np.array([n, 2 * n, 3 * n]))
    assert sweep.smoothed_epoch_F.shape == sweep.mean_epoch_F.shape
    with pytest.raises(ValueError):
        cg.multi_seed_sweep(cfg, seeds=())


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


def test_tail_average_exact_window():
    obj, ref = contraction_problem()
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                       seed=0, iterations=10, record_stride=1, reference=ref)
    sweep = cg.multi_seed_sweep(cfg, seeds=(0,))
    expected = np.mean([0.5 * 0.25 ** t for t in (4, 5, 6)])
    assert cg.tail_average(sweep, 3) == pytest.approx(expected, rel=1e-13)
    coarse_cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.5),
                              seed=0, iterations=10, record_stride=5,
                              reference=ref)
    coarse = cg.multi_seed_sweep(coarse_cfg, seeds=(0,))
    with pytest.raises(ValueError):
        cg.tail_average(coarse, 3)


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
    with pytest.raises(ValueError):
        cg.RunConfig(objective=obj, schedule=sched, seed=0, iterations=1,
                     region_radius=0.0)
