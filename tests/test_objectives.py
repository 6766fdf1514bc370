"""Unit tests for the finite-sum objectives and the reference solver."""

import math
import re
import threading
import tracemalloc
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


@pytest.mark.parametrize("make", [
    lambda: cg.LeastSquaresObjective(cg.Dataset(np.zeros((3, 0)), np.ones(3))),
    lambda: cg.LogisticObjective(cg.Dataset(np.zeros((3, 0)), np.ones(3))),
    lambda: cg.LinearObjective(np.zeros((0, 3))),
    lambda: cg.LinearObjective(np.zeros((3, 0))),
    lambda: cg.QuadraticMeanObjective(1.0, np.zeros((0, 3))),
    lambda: cg.QuadraticMeanObjective(1.0, np.zeros((3, 0))),
    lambda: cg.CallableObjective([lambda w: 0.0], [lambda w: w], 0),
], ids=["least-squares-d0", "logistic-d0", "linear-n0", "linear-d0",
        "quadratic-mean-n0", "quadratic-mean-d0", "callable-d0"])
def test_objectives_need_a_component_and_a_coordinate(make):
    # a labels-only LIBSVM file parses to a (rows, 0) dataset; its objective
    # used to divide by zero in gradient and value_many
    with pytest.raises(ValueError, match="at least one component and one "
                                         "coordinate"):
        make()


@pytest.mark.parametrize("method", ["grad_rows", "value_rows"])
def test_component_indices_must_be_integers_in_range(method):
    # three components, rows of 3 weights; a negative index must not wrap
    obj = cg.LeastSquaresObjective(cg.Dataset(np.eye(3), np.array([1.0, 2.0, 3.0])))
    rows = getattr(obj, method)
    W = np.full((2, 3), 4.0)
    for idx, message in (([0, -1], "index -1 at position 1 is outside [0, 3)"),
                         ([3, 0], "index 3 at position 0 is outside [0, 3)"),
                         (np.array([True, False]), "index True at position 0 is not an integer"),
                         ([1.0, 2.0], "index 1.0 at position 0 is not an integer")):
        with pytest.raises(ValueError, match=re.escape(message)):
            rows(idx, W)
    assert rows([], np.empty((0, 3))).shape[0] == 0
    assert rows(np.array([2, 0], dtype=np.uint8), W).shape[0] == 2


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
    # a scalar yields a float
    for scalar in (1.0, np.float64(1.0), np.array(1.0)):
        g0 = cg.regularizer_G_gradient(scalar)
        assert isinstance(g0, np.float64) and g0 == g[0]


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
    # a linear loss has no curvature, so only lam times the box bound is left
    box = objectives._REGULARIZER_TERMS["exp_cosh_G"].box_bound
    assert cg.LinearObjective(data.X, "exp_cosh_G", 0.3).smoothness_bound() == 0.3 * box
    assert cg.LinearObjective(data.X).smoothness_bound() == 0.0
    assert cg.QuadraticMeanObjective(3.0, data.X).smoothness_bound() == 3.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("make, name", [
    (lambda rows: cg.LinearObjective(rows), "C"),
    (lambda rows: cg.QuadraticMeanObjective(1.0, rows), "centers"),
], ids=["linear", "quadratic-mean"])
def test_component_data_must_be_finite(make, name, bad):
    # a non-finite row used to be accepted and fail only in solve_reference,
    # as a line search that failed at a gradient norm of inf or nan
    with pytest.raises(ValueError, match="%s must be finite" % name):
        make(np.array([[bad], [1.0]]))


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


def test_solve_reference_noise_pass_holds_no_n_by_d_array():
    # 20,000 x 100 ridge: the design matrix is 16 MB, and the noise pass
    # used to hold four 16 MB arrays at once
    data = cg.synthesize_dataset(20_000, 100, 1, "linear")
    obj = cg.LeastSquaresObjective(data, "norm2_squared", 1.0)
    tracemalloc.start()
    try:
        ref = cg.solve_reference(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.X.nbytes // 4, peak
    # the blocks keep the bits of one call over every component
    n = obj.component_count
    G = obj.grad_rows(np.arange(n), np.tile(ref.w_star, (n, 1)))
    assert ref.noise_constant == float(np.mean(np.einsum("ij,ij->i", G, G)))


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


def test_solve_reference_takes_one_newton_step_on_ridge():
    # the gradient of least squares plus norm2_squared is affine, so the
    # Newton step from the origin lands on the minimizer up to rounding
    ref = cg.load_benchmark("ridge").reference
    assert ref.iterations == 1
    assert ref.gradient_norm_at_solution <= 1e-12


def pipeline_like_logistic(seed, n=50, d=10, lam=0.1):
    """A logistic runfile objective of the benchmark pipeline's shape:
    sparse rows of norm at most 1, labels from a noisy planted model,
    norm2_squared weight lam."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d)) / np.sqrt(d)
    X[rng.random(size=X.shape) < 0.3] = 0.0
    scores = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    data = cg.Dataset(X, np.where(scores >= 0.0, 1.0, -1.0))
    return cg.LogisticObjective(data, "norm2_squared", lam)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_reference_takes_few_newton_steps_on_logistic(seed):
    ref = cg.solve_reference(pipeline_like_logistic(seed))
    assert ref.iterations <= 5
    assert ref.gradient_norm_at_solution <= 1e-10


def test_solve_reference_without_a_hessian_takes_gradient_steps():
    # the full-gradient path the solver falls back to takes 96 iterations
    # on ridge from the origin
    obj = cg.load_benchmark("ridge").objective
    with mock.patch.object(objectives.Objective, "_hessian_product",
                           return_value=None):
        ref = cg.solve_reference(obj)
    assert ref.iterations == 96
    assert ref.gradient_norm_at_solution <= 1e-10


def test_solve_reference_falls_back_when_no_newton_step_is_accepted():
    # a Hessian of 1e-300 I sends the Newton step past the float range at
    # every one of its 200 halvings, so each iteration takes the gradient
    # step, with the same bits as when there is no Hessian at all
    data = cg.Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
    obj = cg.LeastSquaresObjective(data, "norm2_squared", 0.5)
    with mock.patch.object(objectives.Objective, "_hessian_product",
                           return_value=None):
        plain = cg.solve_reference(obj)
    with mock.patch.object(objectives.Objective, "_hessian_product",
                           side_effect=lambda w: lambda v: v * 1e-300):
        fallback = cg.solve_reference(obj)
    assert fallback.iterations == plain.iterations == 25
    assert np.array_equal(fallback.w_star, plain.w_star)
    assert fallback.f_min == plain.f_min


def solve_counting_products(obj):
    """solve_reference(obj), and the number of Hessian-vector products
    each of its conjugate-gradient solves made."""
    solves = []
    hessian_product = objectives.Objective._hessian_product

    def counted(self, w):
        product = hessian_product(self, w)
        solves.append(0)

        def count(v):
            solves[-1] += 1
            return product(v)
        return count
    with mock.patch.object(objectives.Objective, "_hessian_product", counted):
        ref = cg.solve_reference(obj)
    return ref, solves


@pytest.mark.parametrize("d", [128, 129, 1024])
def test_solve_reference_takes_one_newton_step_on_a_wide_quadratic_mean(d):
    # the Hessian is 2 I at every d, so conjugate gradients solve the
    # Newton system in one product and the first step lands on the mean
    centers = np.vstack([np.full(d, 0.5), np.full(d, 1.5)])
    ref, solves = solve_counting_products(cg.QuadraticMeanObjective(2.0, centers))
    assert ref.iterations == 1 and solves == [1]
    assert np.max(np.abs(ref.w_star - 1.0)) <= 1e-10


@pytest.mark.parametrize("n, d, regularizer, lam, max_iterations, max_products", [
    # 1.5 times the 4, 6 and 11 iterations and 70, 219 and 1,666 products
    # measured on seed 3; gradient descent takes 34, 41 and 1,152 iterations
    (100, 129, "norm2_squared", 1.0, 6, 105),
    (200, 512, "norm2_squared", 0.1, 9, 328),
    (100, 256, "exp_cosh_G", 0.1, 16, 2499),
])
def test_solve_reference_takes_newton_steps_past_d_128(
        n, d, regularizer, lam, max_iterations, max_products):
    data = cg.dataio.load_dataset("synth:blobs,n=%d,d=%d,seed=3" % (n, d))
    ref, solves = solve_counting_products(
        cg.LogisticObjective(data, regularizer, lam))
    assert ref.gradient_norm_at_solution <= 1e-10
    # every iteration solved for a Newton direction, each in at most d
    # products
    assert len(solves) == ref.iterations <= max_iterations
    assert sum(solves) <= max_products
    assert max(solves) <= d


def test_callable_objective_wraps_functions():
    obj = cg.CallableObjective(
        value_fns=[lambda w: float(w[0] ** 4)],
        grad_fns=[lambda w: np.array([4.0 * w[0] ** 3])],
        dimension=1,
    )
    w = np.array([0.5])
    assert obj.value(w) == pytest.approx(0.0625)
    assert obj.gradient(w)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="CallableObjective has no smoothness bound"):
        obj.smoothness_bound()


class PseudoHuberObjective(cg.Objective):
    """f_i(w) = sqrt(1 + r_i^2) - 1 with r_i = x_i'w - y_i: a loss written
    to the Objective contract, four kernels and _base_L."""

    def __init__(self, dataset, regularizer="plain", lam=0.0):
        super().__init__(dataset.size, dataset.dimension, regularizer, lam)
        self.X, self.y = dataset.X, dataset.y
        # the component Hessian x_i x_i' / (1 + r_i^2)^(3/2) is at most ||x_i||^2
        self._base_L = float(np.max(np.einsum("ij,ij->i", self.X, self.X)))

    def _gather(self, idx):
        return self.X[idx], self.y[idx]

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ij->ki", W, self.X, out=out)
        np.subtract(out, self.y, out=out)
        np.subtract(np.hypot(1.0, out, out=out), 1.0, out=out)

    def _base_values_gathered(self, data, W):
        return np.hypot(1.0, np.einsum("ij,ij->i", data[0], W) - data[1]) - 1.0

    def _base_grad_gathered(self, data, W, out):
        r = np.einsum("ij,ij->i", data[0], W) - data[1]
        return np.multiply((r / np.hypot(1.0, r))[:, None], data[0], out)


@pytest.mark.parametrize("regularizer, lam", [("plain", 0.0), ("norm2_squared", 0.5)])
def test_a_loss_written_to_the_contract_runs_end_to_end(regularizer, lam):
    rng = np.random.default_rng(3)
    data = cg.synthesize_dataset(40, 3, 4, "linear")
    obj = PseudoHuberObjective(data, regularizer, lam)
    W = rng.uniform(-2.0, 2.0, size=(5, 3))
    idx = rng.integers(0, 40, size=5)
    r = np.einsum("ij,kj->ki", data.X, W) - data.y
    reg = 0.5 * lam * np.einsum("ij,ij->i", W, W)
    values = np.sqrt(1.0 + r * r) - 1.0 + reg[:, None]
    assert np.allclose(obj.value_many(W), values.mean(axis=1), rtol=1e-13)
    assert np.allclose(obj.value_rows(idx, W), values[np.arange(5), idx], rtol=1e-13)
    # component gradients against central differences of value_rows
    G = obj.grad_rows(idx, W)
    step = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd = (obj.value_rows(idx, W + e) - obj.value_rows(idx, W - e)) / (2.0 * step)
        assert np.allclose(fd, G[:, k], rtol=1e-6, atol=1e-8)
    L = float(np.max(np.einsum("ij,ij->i", data.X, data.X))) + lam
    assert obj.smoothness_bound() == L
    assert obj.known_mu == (lam or None)
    # the loss has no Hessian hook, so the solve takes gradient steps
    assert obj._hessian_product(np.zeros(3)) is None
    ref = cg.solve_reference(obj)
    assert ref.gradient_norm_at_solution <= 1e-10
    if regularizer == "plain":
        # noiseless targets: the planted weights fit every component
        assert np.allclose(ref.w_star, data.planted_weights, atol=1e-9)
        assert ref.f_min == pytest.approx(0.0, abs=1e-18)
    schedule = cg.ScheduleSpec.curvature_matched(h=1.0, beta=0.25, L=L)
    config = cg.RunConfig(objective=obj, schedule=schedule, w0=np.zeros(3),
                          iterations=400, record_stride=100, seed=0, reference=ref)
    sweep = cg.multi_seed_sweep(config, seeds=range(2))
    assert np.all(np.isfinite(sweep.F)) and not sweep.violation_count.any()
    assert np.all(sweep.Y[:, -1] < sweep.Y[:, 0])


def test_a_loss_without_a_smoothness_constant_is_named():
    class BareObjective(cg.Objective):
        pass

    obj = BareObjective(2, 1)
    assert obj.known_mu is None
    with pytest.raises(ValueError, match="^BareObjective has no smoothness bound$"):
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


@settings(deadline=None)
@given(d=st.sampled_from([1, 5, 10, 17, 33]), rows=st.integers(0, 40),
       data_seed=st.integers(0, 2 ** 32 - 1))
def test_squared_distance_rows_do_not_depend_on_other_rows(d, rows, data_seed):
    # the engine's Y and estimate_delta's blocks rely on this: a row has the
    # same bits whichever rows and blocks it is computed with
    rng = np.random.default_rng(data_seed)
    ref = cg.ReferenceSolution(w_star=rng.uniform(-1.0, 1.0, d), f_min=0.0,
                               noise_constant=0.0, gradient_norm_at_solution=0.0)
    W = rng.uniform(-3.0, 3.0, size=(rows, d))
    if rows:
        W[0] = ref.w_star
    Y = ref.squared_distance(W)
    assert Y.shape == (rows,)
    for k in range(rows):
        assert np.array_equal(Y[k], ref.squared_distance(W[k].copy()[None])[0]), k
    # so the block size cannot matter either
    for terms in (1, 3 * d, 10 ** 9):
        with mock.patch.object(objectives, "_BLOCK_TERMS", terms):
            assert np.array_equal(ref.squared_distance(W), Y), terms


def test_squared_distance_of_many_blocks_matches_one_block():
    # 30,000 rows in d = 5 make three blocks at the default size, the last
    # one shorter; a strided view is read as it is
    rng = np.random.default_rng(41)
    ref = cg.ReferenceSolution(w_star=rng.uniform(-1.0, 1.0, 5), f_min=0.0,
                               noise_constant=0.0, gradient_norm_at_solution=0.0)
    W = rng.uniform(-3.0, 3.0, size=(30_000, 10))[:, ::2]
    assert -(-W.shape[0] // (objectives._BLOCK_TERMS // 5)) == 3
    Y = ref.squared_distance(W)
    with mock.patch.object(objectives, "_BLOCK_TERMS", 10 ** 9):
        assert np.array_equal(ref.squared_distance(W), Y)
    diff = W - ref.w_star
    assert np.array_equal(Y, np.einsum("ij,ij->i", diff, diff))


def test_value_rows_call_only_the_component_each_row_names():
    calls = []

    def component(i):
        def value(w):
            calls.append(i)
            return i * float(w[0])
        return value

    obj = cg.CallableObjective([component(i) for i in range(6)],
                               [lambda w: w] * 6, 1)
    idx = np.array([3, 0, 5, 3])
    V = obj.value_rows(idx, np.arange(4.0)[:, None])
    assert calls == [3, 0, 5, 3]
    assert np.array_equal(V, [0.0, 0.0, 10.0, 9.0])


@pytest.mark.parametrize("n, d", [(1, 1), (5, 4), (40, 5)])
@pytest.mark.parametrize("regularizer", REGULARIZERS)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_value_rows_match_the_every_component_kernel(kind, regularizer, n, d):
    rng = np.random.default_rng(1000 * n + d)
    X, y = make_data(kind, rng, n, d)
    obj = build_objective(kind, X, y, regularizer, 0.3)
    rows = 2 * n + 3
    W = rng.uniform(-2.0, 2.0, size=(rows, d))
    W[1] = 0.0
    idx = rng.integers(0, n, size=rows)
    V = obj.value_rows(idx, W)
    # the (rows, n) kernel behind value_many, at the entry each row names
    base = np.empty((rows, n))
    obj._base_values(W, base, np.empty(base.shape))
    base = base[np.arange(rows), idx]
    # the regularizer's term, which plain does not add
    reg = np.zeros(rows) if obj._reg is None else 0.3 * obj._reg.values(W)
    # rtol applies to the size of the terms summed, since a sum that cancels
    # keeps no relative accuracy: the row dot of a linear or least-squares
    # value, and its sum with the regularizer
    dot = np.abs(X[idx] * W).sum(axis=1)
    if kind == "least_squares":
        dot = (dot + np.abs(y[idx])) ** 2
    scale = np.abs(base) + np.abs(reg) + (dot if kind in ("linear", "least_squares") else 0.0)
    assert np.all(np.abs(V - (base + reg)) <= 1e-13 * scale)
    # a row has its bits whatever the other rows hold and wherever it stands
    perm = rng.permutation(rows)
    mixed = obj.value_rows(np.concatenate([idx, idx[perm]]),
                           np.vstack([rng.uniform(-2.0, 2.0, size=W.shape), W[perm]]))
    assert np.array_equal(mixed[rows:], V[perm])
    empty = obj.value_rows(np.array([], dtype=int), np.empty((0, d)))
    assert empty.shape == (0,) and empty.dtype == float


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


def _no_thread_starts():
    """threading.Thread.start patched to fail the test at any thread start."""
    def refuse(thread):
        raise AssertionError("thread started: %r" % (thread,))

    return mock.patch.object(threading.Thread, "start", refuse)


@pytest.mark.filterwarnings("error")
def test_value_blocks_keep_the_callers_errstate():
    # exp_cosh overflows to inf at |w| past 709.78; the caller's errstate
    # must hold in every one of the ten blocks, as a warning raised in any
    # block fails the call
    obj = cg.LinearObjective(np.ones((3, 2)), "exp_cosh_G", 0.5)
    W = np.full((30, 2), 800.0)
    with _no_thread_starts(), mock.patch.object(objectives, "_BLOCK_TERMS", 9):
        assert len(objectives._row_blocks(30, 3)) == 10
        with np.errstate(over="ignore"):
            F = obj.value_many(W)
            V = obj.value_rows(np.zeros(30, dtype=int), W)
        assert np.all(F == math.inf) and np.all(V == math.inf)
        with pytest.raises(RuntimeWarning):
            obj.value_many(W)


@pytest.mark.parametrize("block", ["first", "last"])
def test_an_exception_in_any_value_block_propagates_unchanged(block):
    # 40 rows in blocks of 3: the bad row is in the first block or is the
    # last block's one row
    bad = (lambda x: x < -0.9) if block == "first" else (lambda x: x > 1.95)
    raised = []

    def value(w):
        if bad(w[0]):
            raised.append((ValueError("bad row %g" % w[0]), threading.get_ident()))
            raise raised[-1][0]
        return float(w[0])

    obj = cg.CallableObjective([value], [lambda w: w], 1)
    W = np.linspace(-1.0, 2.0, 40)[:, None]
    with _no_thread_starts(), mock.patch.object(objectives, "_BLOCK_TERMS", 3):
        with pytest.raises(ValueError) as err:
            obj.value_many(W)
    assert err.value is raised[0][0]
    assert raised[0][1] == threading.get_ident()


def test_value_calls_of_many_blocks_start_no_thread():
    # 30 rows in blocks of 2, and a full-size 50,000-row call of 39 blocks
    rng = np.random.default_rng(11)
    obj = make_objective("least_squares", rng, 4, 2, "norm2", 0.3)
    W = rng.uniform(-1.0, 1.0, size=(30, 2))
    wide = make_objective("logistic", rng, 50, 10, "norm2_squared", 0.1)
    W_wide = rng.uniform(-3.0, 3.0, size=(50_000, 10))
    assert len(objectives._row_blocks(50_000, 50)) == 39
    with _no_thread_starts():
        with mock.patch.object(objectives, "_BLOCK_TERMS", 8):
            obj.value_many(W)
            obj.value_rows(np.zeros(30, dtype=int), W)
        wide.value_many(W_wide)
        wide.value(W_wide[0])
        wide.gradient(W_wide[0])


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_value_blocks_keep_their_bits_on_any_block_size(kind):
    # 40 rows of 5 components in one block, or in blocks of 3: fourteen
    # blocks, the last one row
    rng = np.random.default_rng(7)
    for regularizer in REGULARIZERS:
        obj = make_objective(kind, rng, 5, 4, regularizer, 0.3)
        W = rng.uniform(-2.0, 2.0, size=(40, 4))
        W[5] = 0.0
        idx = rng.integers(0, 5, size=40)
        F, V = obj.value_many(W), obj.value_rows(idx, W)
        with _no_thread_starts(), mock.patch.object(objectives, "_BLOCK_TERMS", 15):
            assert len(objectives._row_blocks(40, 5)) == 14
            assert np.array_equal(obj.value_many(W), F), regularizer
            assert np.array_equal(obj.value_rows(idx, W), V), regularizer


@pytest.mark.parametrize("rows, blocks", [(3000, 3), (4000, 4), (50_000, 39)])
def test_value_blocks_of_full_size_keep_their_bits_in_one_block(rows, blocks):
    # rows of 50 logistic components in blocks of 1,310 rows, the last one
    # shorter, against one block of every row: an odd count, an even one,
    # and estimate-curvature's shape
    rng = np.random.default_rng(8)
    obj = make_objective("logistic", rng, 50, 10, "norm2_squared", 0.1)
    assert len(objectives._row_blocks(rows, 50)) == blocks
    W = rng.uniform(-3.0, 3.0, size=(rows, 10))
    idx = rng.integers(0, 50, size=rows)
    F, V = obj.value_many(W), obj.value_rows(idx, W)
    with mock.patch.object(objectives, "_BLOCK_TERMS", 10 ** 9):
        assert len(objectives._row_blocks(rows, 50)) == 1
        assert np.array_equal(obj.value_many(W), F)
        assert np.array_equal(obj.value_rows(idx, W), V)


def test_a_value_call_inside_a_value_block_gets_the_same_bits():
    # each component value makes a call of twelve blocks itself, so two
    # calls run their blocks at once on one thread; neither may disturb the
    # other's scratch or output
    rng = np.random.default_rng(10)
    inner = make_objective("least_squares", rng, 4, 2, "plain", 0.0)
    inner_W = rng.uniform(-1.0, 1.0, size=(12, 2))
    inner_F = inner.value_many(inner_W)
    seen = []

    def value(w):
        seen.append(inner.value_many(inner_W))
        return float(w[0] + seen[-1].sum())

    obj = cg.CallableObjective([value], [lambda w: w], 1)
    W = np.linspace(-1.0, 1.0, 16)[:, None]
    with _no_thread_starts(), mock.patch.object(objectives, "_BLOCK_TERMS", 4):
        assert len(objectives._row_blocks(16, 1)) == 4
        assert len(objectives._row_blocks(12, 4)) == 12
        expected = [obj.value_many(W[k : k + 1])[0] for k in range(16)]
        F = obj.value_many(W)
    assert np.array_equal(F, expected)
    assert len(seen) == 32
    assert all(np.array_equal(s, inner_F) for s in seen)


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


HESSIAN_KINDS = [kind for kind in OBJECTIVE_KINDS if kind != "callable"]


@pytest.mark.parametrize("regularizer", ["plain", "norm2_squared", "exp_cosh_G"])
@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_hessian_product_matches_finite_differences_of_the_gradient(kind, regularizer):
    rng = np.random.default_rng(23)
    n, d, step = 7, 4, 1e-5
    obj = make_objective(kind, rng, n, d, regularizer, 0.3)
    R = objectives.REGION_RADIUS
    for w in rng.uniform(-R, R, size=(3, d)):
        product = obj._hessian_product(w)
        # the columns H e_k
        H = np.column_stack([product(e) for e in np.eye(d)])
        assert H.shape == (d, d)
        scale = max(1.0, float(np.max(np.abs(H))))
        # symmetric up to the rounding of its sums
        assert np.max(np.abs(H - H.T)) <= 1e-14 * scale
        # H v is the derivative of the gradient along v; central
        # differences carry O(step^2) truncation and O(eps / step) rounding
        # error
        for v in rng.standard_normal(size=(3, d)):
            v /= np.linalg.norm(v)
            fd = (obj.gradient(w + step * v) - obj.gradient(w - step * v)) / (2.0 * step)
            assert np.max(np.abs(product(v) - fd)) <= 1e-6 * scale


def test_hessian_product_is_none_for_norm2_and_callables():
    rng = np.random.default_rng(29)
    w = np.full(3, 0.5)
    for kind in HESSIAN_KINDS:
        assert make_objective(kind, rng, 5, 3, "norm2", 0.3)._hessian_product(w) is None
    for regularizer in REGULARIZERS:
        assert make_objective("callable", rng, 5, 3, regularizer,
                              0.3)._hessian_product(w) is None


@pytest.mark.parametrize("regularizer, lam",
                         [(r, 0.0) for r in REGULARIZERS] + [("plain", 0.3)],
                         ids=[*REGULARIZERS, "plain-0.3"])
@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_solve_reference_treats_a_zero_weight_as_plain(kind, regularizer, lam):
    # a zero weight, like plain at any weight, adds no regularizer term to
    # values, gradients or Hessian products, so it takes plain's iterates
    rng = np.random.default_rng(31)
    X, y = make_data(kind, rng, 40, 3)
    if kind == "linear":
        X -= X.mean(axis=0)  # components whose mean slope is 0
    plain = cg.solve_reference(build_objective(kind, X, y, "plain", 0.0))
    ref = cg.solve_reference(build_objective(kind, X, y, regularizer, lam))
    assert ref.iterations == plain.iterations
    assert np.array_equal(ref.w_star, plain.w_star)
    assert ref.f_min == plain.f_min
