"""Acceptance gate: eleven criteria, one printed verdict line each.

Each test prints `[criterion NN] PASS ...` or `[criterion NN] FAIL ...`
directly to the terminal (bypassing capture) and then asserts, so a full
run shows one line per criterion with the measured numbers and timings.
The heavy 32-seed sweeps are shared between criteria 7 and 10.
"""

import math
import os
import time

import numpy as np
import pytest

import curvesgd as cg
from curvesgd import verify


@pytest.fixture
def say(capsys):
    def _say(num, ok, detail):
        with capsys.disabled():
            print("[criterion %2d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    return _say


def _timed_sweep(name):
    bench = cg.load_benchmark(name)
    cfg = cg.RunConfig(objective=bench.objective, schedule=bench.schedule,
                       seed=0, iterations=100_000, record_stride=100,
                       reference=bench.reference,
                       region_radius=bench.region_radius)
    start = time.perf_counter()
    sweep = cg.multi_seed_sweep(cfg, seeds=range(32))
    return bench, sweep, time.perf_counter() - start


@pytest.fixture(scope="module")
def ridge_sweep():
    return _timed_sweep("ridge")


@pytest.fixture(scope="module")
def exp_cosh_sweep():
    return _timed_sweep("exp_cosh")


def test_criterion_01_g_inequality(say):
    res = verify.check_g_inequality()
    ok = res.passed and res.seconds < 10.0
    say(1, ok, "%s (%.2fs < 10s)" % (res.detail, res.seconds))
    assert ok, res.detail


def test_criterion_02_v_map_agreement(say):
    res = verify.check_v_agreement()
    ok = res.passed and res.seconds < 5.0
    say(2, ok, "%s (%.2fs < 5s)" % (res.detail, res.seconds))
    assert ok, res.detail


def test_criterion_03_c_alpha_closed_form(say):
    res = verify.check_c_alpha()
    ok = res.passed and res.seconds < 10.0
    say(3, ok, "%s (%.2fs < 10s)" % (res.detail, res.seconds))
    assert ok, res.detail


def test_criterion_04_ode_residual(say):
    res = verify.check_ode_residual()
    ok = res.passed and res.seconds < 1.0
    say(4, ok, "%s (%.2fs < 1s)" % (res.detail, res.seconds))
    assert ok, res.detail


def test_criterion_05_envelope_dominates_quadrature(say):
    res = verify.check_envelope_dominance()
    ok = res.passed and res.seconds < 30.0
    say(5, ok, "%s (%.2fs < 30s)" % (res.detail, res.seconds))
    assert ok, res.detail


def test_criterion_06_exact_recurrence(say):
    res = verify.check_recurrence()
    ok = res.passed and res.seconds < 30.0
    say(6, ok, "%s (%.2fs < 30s)" % (res.detail, res.seconds))
    assert ok, res.detail


def test_criterion_07_rate_slopes(say, ridge_sweep, exp_cosh_sweep):
    window = (1e3, 1e5)
    _, sweep_r, secs_r = ridge_sweep
    _, sweep_g, secs_g = exp_cosh_sweep
    slope_r = cg.rate_slope_fit(sweep_r.t, sweep_r.mean_Y, window)
    slope_g = cg.rate_slope_fit(sweep_g.t, sweep_g.mean_Y, window)
    total = secs_r + secs_g
    ok = (abs(slope_r - (-1.0)) <= 0.15
          and abs(slope_g - (-1.0 / 3.0)) <= 0.15
          and total < 300.0)
    say(7, ok, "ridge slope %.4f (want -1 +- 0.15), exp-cosh slope %.4f "
               "(want -0.333 +- 0.15), %.1fs < 300s" % (slope_r, slope_g, total))
    assert ok


def _final_loss_ranking(bench, w0, iterations, seeds):
    # the five schedules run in lockstep, one engine call
    hs = (0.0, 0.25, 0.5, 0.75, 1.0)
    configs = [cg.RunConfig(objective=bench.objective,
                            schedule=cg.parse_schedule("power:h=%g,scale=0.1" % h),
                            seed=0, iterations=iterations,
                            record_stride=iterations, reference=bench.reference,
                            w0=w0, region_radius=bench.region_radius)
               for h in hs]
    sweeps = cg.multi_seed_sweep(configs, seeds=range(seeds))
    return {h: float(sweep.mean_E[-1]) for h, sweep in zip(hs, sweeps)}


def test_criterion_08_power_law_ranking(say):
    start = time.perf_counter()
    strong = _final_loss_ranking(cg.load_benchmark("quadratic_mean"),
                                 np.ones(5), 20_000, 10)
    strong_order = sorted(strong, key=strong.get)
    flat = _final_loss_ranking(cg.load_benchmark("exp_cosh"),
                               np.array([1.0]), 200_000, 10)
    flat_order = sorted(flat, key=flat.get)
    secs = time.perf_counter() - start
    g_rank = flat_order.index(0.5) + 1
    ok = strong_order[0] == 1.0 and g_rank <= 2 and secs < 300.0
    say(8, ok, "strongly convex winner h=%g (losses %s), exp-cosh h=0.5 "
               "rank %d of 5, %.1fs < 300s"
               % (strong_order[0],
                  ["%g:%.3g" % (h, strong[h]) for h in strong_order], g_rank, secs))
    assert ok


def test_criterion_09_delta_estimator_oracles(say):
    from curvesgd.omega import GapFunctions, estimate_delta
    from curvesgd.objectives import LinearObjective, ReferenceSolution

    start = time.perf_counter()
    mu = 2.0
    quad = GapFunctions(
        a=lambda W: 0.5 * mu * np.einsum("ij,ij->i", W, W),
        b=lambda W: np.einsum("ij,ij->i", W, W),
    )
    grid = np.geomspace(1e-3, 5.0, 40)
    est = estimate_delta(quad, (-3.0 * np.ones(3), 3.0 * np.ones(3)), grid=grid)
    pred = (2.0 / mu) * est.epsilon_grid
    quad_err = float(np.max(np.abs(est.delta_values - pred) / pred))

    quart = GapFunctions(a=lambda W: W[:, 0] ** 4, b=lambda W: W[:, 0] ** 2)
    est4 = estimate_delta(quart, (np.array([-3.0]), np.array([3.0])))

    lam = 4.0
    obj = LinearObjective(np.array([[0.0]]), "exp_cosh_G", lam)
    ref = ReferenceSolution(w_star=np.zeros(1), f_min=0.0, noise_constant=0.0,
                            gradient_norm_at_solution=0.0)
    h_g = cg.fit_curvature(obj, reference=ref)
    secs = time.perf_counter() - start

    # the quadratic majorant may sit at the top of the 2 percent sample band
    ok = (quad_err <= 0.03 and abs(est4.fitted_h - 0.5) <= 0.02
          and abs(h_g - 0.5) <= 0.05 and secs < 60.0)
    say(9, ok, "quadratic rel err %.3g <= 0.03, quartic h %.4f (0.5 +- 0.02), "
               "exp-cosh h %.4f (0.5 +- 0.05), %.2fs < 60s"
               % (quad_err, est4.fitted_h, h_g, secs))
    assert ok


def test_criterion_10_rate_bound_dominates(say, ridge_sweep):
    bench, sweep, _ = ridge_sweep
    A, B = cg.rate_bound_constants(bench.schedule,
                                   bench.reference.noise_constant,
                                   float(sweep.mean_Y[0]))
    bound = np.array([cg.rate_bound(bench.schedule, A, B, float(t))
                      for t in sweep.t])
    margins = bound - sweep.mean_Y
    ok = bool(np.all(margins >= 0.0))
    say(10, ok, "A=%.4g B=%.4g, bound holds at all %d recorded t "
                "(min margin ratio %.2fx)"
        % (A, B, sweep.t.size, float(np.min(bound / np.maximum(sweep.mean_Y, 1e-300)))))
    assert ok


def test_criterion_11_plumbing_exact(say, tmp_path):
    # parser goldens
    data = cg.parse_libsvm("+1 1:0.5 3:-2")
    parser_ok = (data.dimension == 3
                 and np.array_equal(data.X, np.array([[0.5, 0.0, -2.0]]))
                 and np.array_equal(data.y, np.array([1.0])))
    two = cg.parse_libsvm("2 1:1\n1 1:0\n")
    parser_ok = parser_ok and np.array_equal(two.y, np.array([-1.0, 1.0]))
    try:
        cg.parse_libsvm("")
        parser_ok = False
    except ValueError as err:
        parser_ok = parser_ok and "empty dataset" in str(err)

    # CSV round trip, bit exact
    obj = cg.QuadraticMeanObjective(1.0, np.array([[1.0], [-1.0]]))
    ref = cg.solve_reference(obj)
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.1),
                       seed=0, iterations=8, record_stride=2, reference=ref)
    sweep = cg.multi_seed_sweep(cfg, seeds=(0, 1))
    path = str(tmp_path / "trip.csv")
    table = cg.write_results(sweep, path)
    back = cg.read_results(path)
    csv_ok = back.rows == table.rows and np.array_equal(
        back.column("F"), table.column("F"))

    # deterministic re-run equality
    runfile = cg.parse_runfile(
        "dataset = synth:linear,n=20,d=3,seed=4\n"
        "variant = norm2_squared\nlambda = 0.5\n"
        "schedule = const:0.01\nseeds = 0,1\nepochs = 1\n"
        "stride = 5\nout = same.csv\n")
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    first, _ = cg.execute_runfile(runfile, base_dir=str(dir_a))
    second, _ = cg.execute_runfile(runfile, base_dir=str(dir_b))
    with open(first[0], "rb") as fa, open(second[0], "rb") as fb:
        rerun_ok = fa.read() == fb.read()

    ok = parser_ok and csv_ok and rerun_ok
    say(11, ok, "parser goldens %s, csv round trip %s, deterministic rerun %s"
        % tuple("exact" if flag else "BROKEN"
                for flag in (parser_ok, csv_ok, rerun_ok)))
    assert ok
