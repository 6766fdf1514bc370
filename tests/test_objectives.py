"""Unit tests for the finite-sum objectives and the reference solver."""

import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvesgd as cg
from curvesgd import objectives
from curvesgd.objectives import REGULARIZERS, ConvergenceError


def two_point_least_squares():
    # f_i(w) = (w - b_i)^2 with b = +-1, so F(w) = w^2 + 1
    data = cg.Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    return cg.LeastSquaresObjective(data)


def test_logistic_component_values():
    obj = cg.LogisticObjective(cg.Dataset(np.array([[1.0]]), np.array([1.0])))
    # rows w = 0 and w = 1, both of component 0
    f = obj.value_rows([0, 0], np.array([[0.0], [1.0]]))
    assert f[0] == pytest.approx(math.log(2.0), abs=1e-15)
    # a'w = 1 with label +1: log(1 + e^-1)
    assert f[1] == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)
    g = obj.grad_rows([0], np.ones((1, 1)))[0]
    sig = 1.0 / (1.0 + math.exp(1.0))
    assert g[0] == pytest.approx(-sig, abs=1e-15)


def test_logistic_objective_matches_hand_values():
    data = cg.Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
    obj = cg.LogisticObjective(data)
    assert obj.value(np.zeros(2)) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert obj.value(np.array([0.5, 0.0])) == pytest.approx(0.31326168751822286, abs=1e-15)
    g = obj.gradient(np.array([0.5, 0.0]))
    assert g[0] == pytest.approx(-0.5378828427399902, abs=1e-12)
    assert g[1] == 0.0


def test_least_squares_component_example():
    obj = cg.LeastSquaresObjective(cg.Dataset(np.array([[1.0, -2.0]]), np.array([1.0])))
    W = np.array([[1.0, 1.0]])
    # residual 1 - 2 - 1 = -2
    assert obj.value_rows([0], W)[0] == 4.0
    assert np.array_equal(obj.grad_rows([0], W)[0], np.array([-4.0, 8.0]))


def test_mislabeled_shapes_raise():
    # d = 2 objectives fed one-column or flat weights, or one index too few,
    # must refuse rather than broadcast
    data = cg.Dataset(np.array([[1.0, -2.0]]), np.array([1.0]))
    objectives = (cg.LeastSquaresObjective(data), cg.LogisticObjective(data),
                  cg.LinearObjective(data.X), cg.QuadraticMeanObjective(1.0, data.X))
    for obj in objectives:
        for W in (np.array([[1.0]]), np.array([1.0, -2.0]), np.ones((1, 1, 2))):
            with pytest.raises(ValueError):
                obj.grad_rows([0], W)
            with pytest.raises(ValueError):
                obj.value_rows([0], W)
            with pytest.raises(ValueError):
                obj.value_many(W)
        with pytest.raises(ValueError):
            obj.grad_rows([0], np.ones((2, 2)))
        with pytest.raises(ValueError):
            obj.value_rows([0, 0], np.ones((1, 2)))
        for w in (np.array([1.0]), np.ones((1, 2))):
            with pytest.raises(ValueError):
                obj.value(w)
            with pytest.raises(ValueError):
                obj.gradient(w)


def test_noise_constant_at_minimizer():
    obj = two_point_least_squares()
    ref = cg.solve_reference(obj)
    assert abs(float(ref.w_star[0])) <= 1e-9
    assert ref.f_min == pytest.approx(1.0, abs=1e-12)
    # component gradients at 0 are -2 and +2
    assert ref.noise_constant == pytest.approx(4.0, abs=1e-9)


def test_regularizer_G_basics():
    assert cg.regularizer_G_value(np.zeros(3)) == 0.0
    w = np.array([1.0])
    expected = math.e + math.exp(-1.0) - 3.0
    assert cg.regularizer_G_value(w) == pytest.approx(expected, rel=1e-15)
    # symmetric in w -> -w
    z = np.array([0.3, -1.7, 0.0])
    assert cg.regularizer_G_value(z) == pytest.approx(cg.regularizer_G_value(-z), rel=1e-15)
    g = cg.regularizer_G_gradient(w)
    assert g[0] == pytest.approx(math.e - math.exp(-1.0) - 2.0, rel=1e-14)
    # gradient is odd
    assert np.allclose(cg.regularizer_G_gradient(z), -cg.regularizer_G_gradient(-z))
    # a scalar yields a float, and out receives the same bits
    for scalar in (1.0, np.float64(1.0), np.array(1.0)):
        g0 = cg.regularizer_G_gradient(scalar)
        assert isinstance(g0, np.float64) and g0 == g[0]
    out = np.empty(3)
    assert cg.regularizer_G_gradient(z, out) is out
    assert np.array_equal(out, cg.regularizer_G_gradient(z))


def test_exp_cosh_kernel_allocates_no_rows_array():
    # the gradient kernel takes the scratch of the exp-cosh term from the
    # buffers it is given, so an engine step allocates no (rows, d) array
    obj = cg.LinearObjective(np.ones((1, 50)), "exp_cosh_G", 0.5)
    W = np.full((200, 50), 0.3)
    data = obj._gather(np.zeros(200, dtype=np.int64))
    out, tmp = np.empty(W.shape), np.empty(W.shape)
    expected = obj._grad_gathered(data, W, out, tmp).copy()
    tracemalloc.start()
    try:
        G = obj._grad_gathered(data, W, out, tmp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G is out and np.array_equal(G, expected)
    assert np.array_equal(G, obj.grad_rows(np.zeros(200, dtype=np.int64), W))
    assert peak < W.nbytes // 4, peak


def test_regularizer_G_batch_rows():
    W = np.array([[1.0, 0.0], [0.0, 0.0]])
    vals = cg.regularizer_G_value(W)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(math.e + math.exp(-1.0) - 3.0, rel=1e-15)
    assert vals[1] == 0.0


def test_regularizer_G_tiny_arguments_keep_precision():
    # e^w + e^-w - 2 - w^2 ~ w^4/12 near zero; naive exp arithmetic loses it
    w = np.array([1e-2])
    assert cg.regularizer_G_value(w) == pytest.approx(1e-8 / 12.0, rel=1e-5)


def test_regularizer_G_overflow_guard():
    # past about 709.78, e^|w| leaves the float range and G overflows to inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert cg.regularizer_G_value(np.array([710.0])) == math.inf
        assert cg.regularizer_G_gradient(np.array([710.0]))[0] == math.inf
        assert cg.regularizer_G_gradient(np.array([-710.0]))[0] == -math.inf


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 4))
    y = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
    data = cg.Dataset(X, y)
    objectives = [
        cg.LogisticObjective(data, "norm2_squared", 0.3),
        cg.LeastSquaresObjective(data, "exp_cosh_G", 0.2),
        cg.QuadraticMeanObjective(2.0, rng.standard_normal((3, 4))),
    ]
    step = 1e-5
    for obj in objectives:
        w = 0.5 * rng.standard_normal(4)
        g = obj.gradient(w)
        for k in range(4):
            e = np.zeros(4)
            e[k] = step
            fd = (obj.value(w + e) - obj.value(w - e)) / (2.0 * step)
            assert abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k]))


def test_component_mean_equals_full_objective():
    obj = two_point_least_squares()
    w = np.array([0.7])
    every = np.arange(obj.component_count)
    W = np.tile(w, (every.size, 1))
    assert np.mean(obj.value_rows(every, W)) == pytest.approx(obj.value(w), rel=1e-15)
    grads = obj.grad_rows(every, W)
    assert np.allclose(grads.mean(axis=0), obj.gradient(w), rtol=1e-15)


def test_smoothness_bounds():
    assert two_point_least_squares().smoothness_bound() == pytest.approx(2.0)
    dlog = cg.Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
    assert cg.LogisticObjective(dlog).smoothness_bound() == pytest.approx(1.0)
    # the norm2 regularizer has unbounded curvature at the origin
    data = cg.Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    assert math.isinf(cg.LeastSquaresObjective(data, "norm2", 0.5).smoothness_bound())
    # exp-cosh curvature adds lam (e^R + e^-R - 2) on the box of radius
    # R = REGION_RADIUS
    obj_g = cg.LeastSquaresObjective(data, "exp_cosh_G", 1.0)
    R = objectives.REGION_RADIUS
    expected = 2.0 + (math.exp(R) + math.exp(-R) - 2.0)
    assert obj_g.smoothness_bound() == pytest.approx(expected)


def test_known_mu_tracks_strong_convexity():
    data = cg.Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    assert cg.LeastSquaresObjective(data).known_mu is None
    assert cg.LeastSquaresObjective(data, "norm2_squared", 0.25).known_mu == pytest.approx(0.25)
    assert cg.QuadraticMeanObjective(3.0, np.zeros((2, 1))).known_mu == pytest.approx(3.0)


def test_invalid_regularizer_rejected():
    data = cg.Dataset(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        cg.LeastSquaresObjective(data, "norm1", 0.1)
    with pytest.raises(ValueError):
        cg.LeastSquaresObjective(data, "norm2", -0.1)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cg.LeastSquaresObjective(data, "norm2_squared", lam)
    for mu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            cg.QuadraticMeanObjective(mu, np.zeros((2, 1)))


def test_solve_reference_quadratic_exact():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
    obj = cg.QuadraticMeanObjective(2.0, centers)
    ref = cg.solve_reference(obj)
    assert np.max(np.abs(ref.w_star)) <= 1e-9
    assert ref.f_min == pytest.approx(obj.value(np.zeros(2)), rel=1e-14)
    # noise constant is mu^2 * mean ||m_i||^2
    assert ref.noise_constant == pytest.approx(4.0 * 5.0, rel=1e-9)


@pytest.mark.parametrize("name", ["ridge", "quadratic_mean", "exp_cosh"])
def test_solve_reference_certifies_benchmark(name):
    b = cg.load_benchmark(name)
    ref = b.reference
    assert ref.gradient_norm_at_solution <= 1e-10
    again = cg.solve_reference(b.objective)
    # the solver is deterministic, down to the last bit
    assert np.array_equal(again.w_star, ref.w_star)
    assert again.f_min == ref.f_min
    assert again.noise_constant == ref.noise_constant
    if name == "ridge":
        return
    # the minimizer is the origin, where the solver starts
    assert ref.iterations == 0
    assert np.array_equal(ref.w_star, np.zeros(b.objective.dimension))
    if name == "exp_cosh":
        assert ref.noise_constant == 100.0
    else:
        obj = b.objective
        expected = obj.mu ** 2 * np.mean(np.sum(obj.centers ** 2, axis=1))
        assert ref.noise_constant == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(cg.benchmarks.BENCHMARKS))
def test_benchmark_schedule_and_run_share_the_one_box(name):
    b = cg.load_benchmark(name)
    config = cg.RunConfig(objective=b.objective, schedule=b.schedule, seed=0,
                          iterations=1)
    assert b.region_radius == objectives.REGION_RADIUS == config.region_radius
    assert b.schedule.L == b.objective.smoothness_bound()


def test_solve_reference_reports_divergence():
    # gradient never shrinks on an unbounded linear slope
    obj = cg.LinearObjective(np.array([[-10.0]]))
    with pytest.raises(ConvergenceError):
        cg.solve_reference(obj, max_iterations=200)


def test_solve_reference_separable_logistic_chases_infimum():
    # separable data has no finite minimizer, but the loss infimum is 0 and
    # the solver stops once the gradient is tolerance-small out at large w
    data = cg.Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
    obj = cg.LogisticObjective(data)
    ref = cg.solve_reference(obj, max_iterations=300)
    assert ref.f_min <= 1e-9
    assert ref.gradient_norm_at_solution <= 1e-10


def test_callable_objective_wraps_functions():
    obj = cg.CallableObjective(
        value_fns=[lambda w: float(w[0] ** 4)],
        grad_fns=[lambda w: np.array([4.0 * w[0] ** 3])],
        dimension=1,
    )
    w = np.array([0.5])
    assert obj.value(w) == pytest.approx(0.0625)
    assert obj.gradient(w)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        obj.smoothness_bound()


OBJECTIVE_KINDS = ("logistic", "least_squares", "linear", "quadratic_mean",
                   "callable")


def make_data(kind, rng, n, d):
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    if kind == "logistic":
        return X, np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if kind == "least_squares":
        return X, rng.uniform(-1.0, 1.0, n)
    return X, None


def build_objective(kind, X, y, regularizer, lam):
    if kind == "logistic":
        return cg.LogisticObjective(cg.Dataset(X, y), regularizer, lam)
    if kind == "least_squares":
        return cg.LeastSquaresObjective(cg.Dataset(X, y), regularizer, lam)
    if kind == "linear":
        return cg.LinearObjective(X, regularizer, lam)
    if kind == "quadratic_mean":
        return cg.QuadraticMeanObjective(2.0, X, regularizer, lam)
    # no vectorised form: its row hooks loop over the callables
    return cg.CallableObjective(
        [lambda w, c=c: float(np.sum((w - c) ** 4)) for c in X],
        [lambda w, c=c: 4.0 * (w - c) ** 3 for c in X],
        X.shape[1], regularizer, lam)


def make_objective(kind, rng, n, d, regularizer, lam):
    return build_objective(kind, *make_data(kind, rng, n, d), regularizer, lam)


def textbook_base(kind, x, y, w):
    """f(w) and grad f(w) of one unregularized component with data row x
    (and label y), by the textbook formula in float scalars. Each comes
    with a scale, the same formula on absolute values, which bounds the
    terms whose rounding the result carries."""
    xw = [a * b for a, b in zip(x, w)]
    xw_abs = math.fsum(abs(t) for t in xw)
    if kind == "logistic":
        # f = log(1 + e^-z) at the margin z = y x'w; grad = -y x / (1 + e^z)
        z = y * math.fsum(xw)
        f = math.log1p(math.exp(-z))
        s = 1.0 / (1.0 + math.exp(z))
        return (f, f + xw_abs, [-y * a * s for a in x],
                [abs(a) * (s + xw_abs) for a in x])
    if kind == "least_squares":
        # f = (x'w - y)^2, grad = 2 (x'w - y) x
        r = math.fsum(xw + [-y])
        r_abs = xw_abs + abs(y)
        return r * r, r_abs * r_abs, [2.0 * r * a for a in x], \
            [2.0 * r_abs * abs(a) for a in x]
    if kind == "linear":
        # f = c'w, grad = c
        return math.fsum(xw), xw_abs, list(x), [abs(a) for a in x]
    if kind == "quadratic_mean":
        # f = (mu/2) ||w - m||^2 with mu = 2, grad = mu (w - m)
        diff = [b - a for a, b in zip(x, w)]
        size = [abs(a) + abs(b) for a, b in zip(x, w)]
        return (math.fsum(t * t for t in diff), math.fsum(t * t for t in size),
                [2.0 * t for t in diff], [2.0 * t for t in size])
    # callable: f = sum (w - c)^4, grad = 4 (w - c)^3
    diff = [b - a for a, b in zip(x, w)]
    size = [abs(a) + abs(b) for a, b in zip(x, w)]
    return (math.fsum(t ** 4 for t in diff), math.fsum(t ** 4 for t in size),
            [4.0 * t ** 3 for t in diff], [4.0 * t ** 3 for t in size])


def textbook_regularizer(regularizer, w):
    """reg(w) and grad reg(w) with scales, as textbook_base gives them."""
    d = len(w)
    if regularizer == "plain":
        return 0.0, 0.0, [0.0] * d, [0.0] * d
    if regularizer == "norm2":
        # ||w||, with the subgradient 0 at the kink w = 0
        norm = math.sqrt(math.fsum(v * v for v in w))
        g = [v / norm if norm else 0.0 for v in w]
        return norm, norm, g, [abs(v) for v in g]
    if regularizer == "norm2_squared":
        half = 0.5 * math.fsum(v * v for v in w)
        return half, half, list(w), [abs(v) for v in w]
    # G(w) = sum e^w + e^-w - 2 - w^2, grad = e^w - e^-w - 2 w
    up = [math.exp(v) for v in w]
    down = [math.exp(-v) for v in w]
    return (math.fsum(u + e - 2.0 - v * v for u, e, v in zip(up, down, w)),
            math.fsum(u + e + 2.0 + v * v for u, e, v in zip(up, down, w)),
            [u - e - 2.0 * v for u, e, v in zip(up, down, w)],
            [u + e + 2.0 * abs(v) for u, e, v in zip(up, down, w)])


@settings(deadline=None)
@given(kind=st.sampled_from(OBJECTIVE_KINDS),
       regularizer=st.sampled_from(REGULARIZERS),
       lam=st.floats(0.0, 2.0),
       n=st.integers(1, 6), d=st.integers(1, 5), rows=st.integers(1, 8),
       data_seed=st.integers(0, 2 ** 32 - 1), zero_row=st.booleans())
def test_grad_rows_match_component_gradients(kind, regularizer, lam, n, d, rows,
                                             data_seed, zero_row):
    rng = np.random.default_rng(data_seed)
    X, y = make_data(kind, rng, n, d)
    obj = build_objective(kind, X, y, regularizer, lam)
    idx = rng.integers(0, n, size=rows)
    W = rng.uniform(-1.0, 1.0, size=(rows, d))
    if zero_row:
        W[0] = 0.0  # the kink of norm2, where the subgradient 0 is taken
    G = obj.grad_rows(idx, W)
    F = obj.value_rows(idx, W)
    assert G.shape == (rows, d) and F.shape == (rows,)
    for k in range(rows):
        i = int(idx[k])
        w = W[k].tolist()
        f, f_scale, g, g_scale = textbook_base(
            kind, X[i].tolist(), None if y is None else float(y[i]), w)
        r, r_scale, h, h_scale = textbook_regularizer(regularizer, w)
        # rtol applies to the size of the terms summed, since a sum that
        # cancels keeps no relative accuracy
        assert abs(F[k] - (f + lam * r)) <= 1e-12 * (f_scale + lam * r_scale)
        for j in range(d):
            assert abs(G[k, j] - (g[j] + lam * h[j])) \
                <= 1e-12 * (g_scale[j] + lam * h_scale[j])


def allocating_grad_rows(kind, X, y, regularizer, lam, idx, W, mu=2.0):
    """grad_rows by the allocating formulas, one new array per operation,
    whose bits the in-place gradient hooks keep."""
    if kind == "logistic":
        yXi = y[idx][:, None] * X[idx]
        z = np.einsum("ij,ij->i", yXi, W)
        s = np.exp(-np.maximum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))
        G = -s[:, None] * yXi
    elif kind == "least_squares":
        G = (2.0 * (np.einsum("ij,ij->i", X[idx], W) - y[idx]))[:, None] * X[idx]
    elif kind == "linear":
        G = X[idx]
    elif kind == "quadratic_mean":
        G = mu * (W - X[idx])
    else:
        G = 4.0 * (W - X[idx]) ** 3
    if not lam:
        return G
    if regularizer == "plain":
        R = np.zeros_like(W)
    elif regularizer == "norm2":
        nrm = np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]
        R = np.divide(W, nrm, out=np.zeros_like(W), where=nrm != 0.0)
    elif regularizer == "norm2_squared":
        R = W
    else:
        R = np.expm1(W) - np.expm1(-W) - 2.0 * W
    return G + lam * R


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("regularizer", REGULARIZERS)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_grad_rows_keep_the_bits_of_the_allocating_formulas(kind, regularizer,
                                                            lam):
    rng = np.random.default_rng(29)
    X, y = make_data(kind, rng, 6, 3)
    obj = build_objective(kind, X, y, regularizer, lam)
    idx = rng.integers(0, 6, size=40)
    W = rng.uniform(-3.0, 3.0, size=(40, 3))
    W[0] = 0.0  # the kink of norm2
    W[1] = -0.0
    # rows near the exp_cosh overflow at |w| = 709.78, and past it
    W[2:8] = [[709.7, -709.7, 1e-300], [709.78, -709.78, 0.0],
              [709.79, -709.79, 3.0], [710.0, -710.0, -1e-300],
              [-709.7, 709.7, 5e-324], [-710.0, 710.0, 2.5]]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = allocating_grad_rows(kind, X, y, regularizer, lam, idx, W)
        G = obj.grad_rows(idx, W)
        assert np.array_equal(G, expected, equal_nan=True)
        if kind == "quadratic_mean":
            # a weight that is not a power of two rounds
            G = cg.QuadraticMeanObjective(0.7, X, regularizer, lam).grad_rows(idx, W)
            expected = allocating_grad_rows(kind, X, y, regularizer, lam, idx,
                                            W, mu=0.7)
            assert np.array_equal(G, expected, equal_nan=True)
    if regularizer == "exp_cosh_G" and lam:
        assert np.isinf(G[4:8]).any()


@pytest.mark.parametrize("regularizer", REGULARIZERS)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_grad_rows_returns_an_array_the_caller_owns(kind, regularizer):
    rng = np.random.default_rng(31)
    for lam in (0.0, 0.3):
        obj = make_objective(kind, rng, 4, 3, regularizer, lam)
        idx = rng.integers(0, 4, size=5)
        W = rng.uniform(-1.0, 1.0, size=(5, 3))
        G = obj.grad_rows(idx, W)
        expected = G.copy()
        assert not np.shares_memory(G, W)
        assert not np.shares_memory(G, obj.grad_rows(idx, W))
        # writing into it changes neither the objective nor the next call
        G[:] = math.nan
        assert np.array_equal(obj.grad_rows(idx, W), expected)


@pytest.mark.parametrize("d", [1, 5, 10, 17, 33])
def test_grad_rows_do_not_depend_on_other_rows(d):
    # the seed-lockstep engine relies on this: a seed's row has the same
    # bits in a 32-seed batch as when it is computed alone
    rng = np.random.default_rng(d)
    for kind in OBJECTIVE_KINDS:
        for regularizer in REGULARIZERS:
            obj = make_objective(kind, rng, 7, d, regularizer, 0.3)
            idx = rng.integers(0, 7, size=32)
            W = rng.uniform(-1.0, 1.0, size=(32, d))
            W[3] = 0.0
            G = obj.grad_rows(idx, W)
            for k in range(32):
                alone = obj.grad_rows(idx[k : k + 1], W[k].copy()[None])
                assert np.array_equal(G[k], alone[0]), (kind, regularizer, k)


@settings(deadline=None)
@given(kind=st.sampled_from(OBJECTIVE_KINDS),
       regularizer=st.sampled_from(REGULARIZERS),
       d=st.sampled_from([1, 5, 10, 17, 33]),
       n=st.integers(1, 7), rows=st.integers(1, 40),
       data_seed=st.integers(0, 2 ** 32 - 1))
def test_value_many_rows_do_not_depend_on_other_rows(kind, regularizer, d, n,
                                                     rows, data_seed):
    # the batched record path relies on this: a seed's F has the same bits
    # in a many-seed record as when that seed runs alone
    rng = np.random.default_rng(data_seed)
    obj = make_objective(kind, rng, n, d, regularizer, 0.3)
    W = rng.uniform(-1.0, 1.0, size=(rows, d))
    W[0] = 0.0
    idx = rng.integers(0, n, size=rows)
    F = obj.value_many(W)
    V = obj.value_rows(idx, W)
    assert F.shape == V.shape == (rows,)
    for k in range(rows):
        assert np.array_equal(F[k], obj.value_many(W[k].copy()[None])[0]), k
        assert np.array_equal(V[k], obj.value_rows(idx[k : k + 1], W[k].copy()[None])[0]), k
    # so the block size cannot matter either
    with mock.patch.object(objectives, "_BLOCK_TERMS", 3 * n):
        assert np.array_equal(obj.value_many(W), F)
        assert np.array_equal(obj.value_rows(idx, W), V)


def test_value_is_the_one_row_case_of_value_many():
    rng = np.random.default_rng(11)
    for kind in OBJECTIVE_KINDS:
        for regularizer in REGULARIZERS:
            obj = make_objective(kind, rng, 6, 4, regularizer, 0.3)
            for w in rng.uniform(-1.0, 1.0, size=(5, 4)):
                assert obj.value(w) == obj.value_many(w[None])[0], (kind, regularizer)


@pytest.mark.parametrize("d", [1, 5, 17])
def test_value_many_matches_component_mean(d):
    rng = np.random.default_rng(100 + d)
    for kind in OBJECTIVE_KINDS:
        for regularizer in REGULARIZERS:
            obj = make_objective(kind, rng, 7, d, regularizer, 0.3)
            W = rng.uniform(-1.0, 1.0, size=(6, d))
            F = obj.value_many(W)
            every = np.arange(7)
            for k in range(W.shape[0]):
                mean = np.mean(obj.value_rows(every, np.tile(W[k], (7, 1))))
                assert F[k] == pytest.approx(mean, rel=1e-13), (kind, regularizer)


def _workers(count):
    """The CPUs the value blocks may use, patched to count."""
    return mock.patch.object(objectives, "_worker_count", lambda: count)


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_value_blocks_keep_their_bits_on_any_worker_count(kind):
    # 40 rows in blocks of 3: fourteen blocks, split between 1 or 4 workers
    rng = np.random.default_rng(7)
    for regularizer in REGULARIZERS:
        obj = make_objective(kind, rng, 5, 4, regularizer, 0.3)
        W = rng.uniform(-2.0, 2.0, size=(40, 4))
        W[5] = 0.0
        idx = rng.integers(0, 5, size=40)
        results = []
        for count in (1, 4):
            with _workers(count), mock.patch.object(objectives, "_BLOCK_TERMS", 15):
                results.append((obj.value_many(W), obj.value_rows(idx, W)))
        (F1, V1), (F4, V4) = results
        assert np.array_equal(F1, F4), regularizer
        assert np.array_equal(V1, V4), regularizer


def test_value_blocks_of_full_size_keep_their_bits_on_any_worker_count():
    # 4,000 rows of 50 logistic components: four blocks of 1,310 rows
    rng = np.random.default_rng(8)
    obj = make_objective("logistic", rng, 50, 10, "norm2_squared", 0.1)
    W = rng.uniform(-3.0, 3.0, size=(4000, 10))
    idx = rng.integers(0, 50, size=4000)
    with _workers(1):
        F1, V1 = obj.value_many(W), obj.value_rows(idx, W)
    with _workers(4):
        assert np.array_equal(obj.value_many(W), F1)
        assert np.array_equal(obj.value_rows(idx, W), V1)


@pytest.mark.filterwarnings("error")
def test_threaded_values_keep_the_callers_errstate():
    # exp_cosh overflows to inf at |w| past 709.78; the caller's errstate
    # must hold in every share, as a warning raised in a pool thread fails
    # the call
    obj = cg.LinearObjective(np.ones((3, 2)), "exp_cosh_G", 0.5)
    W = np.full((30, 2), 800.0)
    with _workers(4), mock.patch.object(objectives, "_BLOCK_TERMS", 9):
        with np.errstate(over="ignore"):
            F = obj.value_many(W)
            V = obj.value_rows(np.zeros(30, dtype=int), W)
        assert np.all(F == math.inf) and np.all(V == math.inf)
        with pytest.raises(RuntimeWarning):
            obj.value_many(W)


def test_an_exception_in_a_share_propagates_unchanged():
    # the last rows, in the last share, make the value raise
    raised = []

    def value(w):
        if w[0] > 1.0:
            raised.append(ValueError("bad row %g" % w[0]))
            raise raised[-1]
        return float(w[0])

    obj = cg.CallableObjective([value], [lambda w: w], 1)
    W = np.linspace(-1.0, 2.0, 40)[:, None]
    with _workers(4), mock.patch.object(objectives, "_BLOCK_TERMS", 3):
        with pytest.raises(ValueError) as err:
            obj.value_many(W)
    assert err.value is raised[0]


def test_one_block_calls_create_no_pool():
    rng = np.random.default_rng(9)
    obj = make_objective("logistic", rng, 50, 10, "norm2_squared", 0.1)
    W = rng.uniform(-3.0, 3.0, size=(1310, 10))
    with _workers(4), mock.patch.object(objectives, "_POOL", None):
        obj.value_many(W)
        obj.value_rows(np.zeros(1310, dtype=int), W)
        obj.value(W[0])
        obj.gradient(W[0])
        assert objectives._POOL is None
        obj.value_many(np.vstack([W, W[:1]]))
        assert objectives._POOL is not None
        objectives._POOL.shutdown()


def test_worker_count_is_the_allowed_cpus_at_most_the_cap():
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(64)),
                           create=True):
        assert objectives._worker_count() == objectives._MAX_WORKERS
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        assert objectives._worker_count() == 1


def test_concurrent_first_calls_create_one_pool():
    # a slow executor start leaves every thread time to find no pool yet
    import concurrent.futures
    made = []

    def slow_executor(*args, **kwargs):
        threading.Event().wait(0.05)
        made.append(object())
        return made[-1]

    start = threading.Barrier(4)
    pools = []

    def first_call():
        start.wait()
        pools.append(objectives._pool())

    with mock.patch.object(objectives, "_POOL", None), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", slow_executor):
        threads = [threading.Thread(target=first_call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert len(made) == 1
    assert len(pools) == 4 and all(p is made[0] for p in pools)


def test_a_value_call_inside_a_share_runs_serially():
    # each component value makes a call of several blocks itself; were it
    # to wait on the pool from a pool thread, it could wait forever
    rng = np.random.default_rng(10)
    inner = make_objective("least_squares", rng, 4, 2, "plain", 0.0)
    inner_W = rng.uniform(-1.0, 1.0, size=(12, 2))
    obj = cg.CallableObjective(
        [lambda w: float(w[0] + inner.value_many(inner_W).sum())],
        [lambda w: w], 1)
    W = np.linspace(-1.0, 1.0, 16)[:, None]
    results = []
    with _workers(4), mock.patch.object(objectives, "_BLOCK_TERMS", 4):
        with _workers(1):
            expected = obj.value_many(W)
        worker = threading.Thread(target=lambda: results.append(obj.value_many(W)))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert np.array_equal(results[0], expected)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool():
    rng = np.random.default_rng(12)
    obj = make_objective("linear", rng, 4, 3, "plain", 0.0)
    W = rng.uniform(-1.0, 1.0, size=(20, 3))
    with _workers(2), mock.patch.object(objectives, "_BLOCK_TERMS", 8):
        expected = obj.value_many(W)
        assert objectives._POOL is not None
        with warnings.catch_warnings():
            # python 3.12 and later warn on a fork of a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = (objectives._POOL is None
                      and np.array_equal(obj.value_many(W), expected))
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("z", [-40.0, -37.0, -30.0, 30.0, 37.0, 40.0])
def test_logistic_is_accurate_at_large_margins(z):
    # one component with x = 1 and label +1, so the margin y x'w is w
    obj = cg.LogisticObjective(cg.Dataset(np.array([[1.0]]), np.array([1.0])))
    w = np.array([z])
    sigmoid = 1.0 / (1.0 + math.exp(z))
    for g in (obj.gradient(w), obj.grad_rows(np.array([0]), w[None])[0]):
        assert g[0] == pytest.approx(-sigmoid, rel=1e-14, abs=0.0)
    # log(1 + e^-z), written so that neither form loses digits
    loss = math.log1p(math.exp(-z)) if z > 0 else -z + math.log1p(math.exp(z))
    assert obj.value(w) == pytest.approx(loss, rel=1e-14, abs=0.0)
    assert obj.value_rows([0], w[None])[0] == pytest.approx(loss, rel=1e-14, abs=0.0)
