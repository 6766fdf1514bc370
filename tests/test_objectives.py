"""Unit tests for the finite-sum objectives and the reference solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvesgd as cg
from curvesgd.objectives import REGULARIZERS, ConvergenceError


def two_point_least_squares():
    # f_i(w) = (w - b_i)^2 with b = +-1, so F(w) = w^2 + 1
    data = cg.Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    return cg.LeastSquaresObjective(data)


def test_logistic_component_values():
    obj = cg.LogisticObjective(cg.Dataset(np.array([[1.0]]), np.array([1.0])))
    assert obj.component_value(0, np.zeros(1)) == pytest.approx(math.log(2.0), abs=1e-15)
    # a'w = 1 with label +1: log(1 + e^-1)
    assert obj.component_value(0, np.ones(1)) == pytest.approx(
        math.log(1.0 + math.exp(-1.0)), abs=1e-15)
    g = obj.component_gradient(0, np.ones(1))
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
    w = np.array([1.0, 1.0])
    # residual 1 - 2 - 1 = -2
    assert obj.component_value(0, w) == 4.0
    assert np.array_equal(obj.component_gradient(0, w), np.array([-4.0, 8.0]))


def test_mislabeled_shapes_raise():
    data = cg.Dataset(np.array([[1.0, -2.0]]), np.array([1.0]))
    for obj in (cg.LeastSquaresObjective(data), cg.LogisticObjective(data)):
        with pytest.raises(ValueError):
            obj.component_value(0, np.array([1.0]))
        with pytest.raises(ValueError):
            obj.component_gradient(0, np.array([1.0]))


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
    with pytest.raises(OverflowError):
        cg.regularizer_G_value(np.array([701.0]))
    with pytest.raises(OverflowError):
        cg.regularizer_G_gradient(np.array([-701.0]))


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
    vals = [obj.component_value(i, w) for i in range(obj.component_count)]
    assert np.mean(vals) == pytest.approx(obj.value(w), rel=1e-15)
    grads = np.stack([obj.component_gradient(i, w) for i in range(obj.component_count)])
    assert np.allclose(grads.mean(axis=0), obj.gradient(w), rtol=1e-15)


def test_smoothness_bounds():
    assert two_point_least_squares().smoothness_bound() == pytest.approx(2.0)
    dlog = cg.Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
    assert cg.LogisticObjective(dlog).smoothness_bound() == pytest.approx(1.0)
    # the norm2 regularizer has unbounded curvature at the origin
    data = cg.Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    assert math.isinf(cg.LeastSquaresObjective(data, "norm2", 0.5).smoothness_bound())
    # exp-cosh curvature adds lam (e^R + e^-R - 2) on the radius-R box
    obj_g = cg.LeastSquaresObjective(data, "exp_cosh_G", 1.0)
    expected = 2.0 + (math.exp(0.1) + math.exp(-0.1) - 2.0)
    assert obj_g.smoothness_bound(region_radius=0.1) == pytest.approx(expected)


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


def test_solve_reference_quadratic_exact():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
    obj = cg.QuadraticMeanObjective(2.0, centers)
    ref = cg.solve_reference(obj)
    assert np.max(np.abs(ref.w_star)) <= 1e-9
    assert ref.f_min == pytest.approx(obj.value(np.zeros(2)), rel=1e-14)
    # noise constant is mu^2 * mean ||m_i||^2
    assert ref.noise_constant == pytest.approx(4.0 * 5.0, rel=1e-9)


def test_solve_reference_ridge_gradient_norm():
    b = cg.ridge_regression_problem()
    assert b.reference.gradient_norm_at_solution <= 1e-10
    again = cg.solve_reference(b.objective)
    # the solver is deterministic, down to the last bit
    assert np.array_equal(again.w_star, b.reference.w_star)
    assert again.f_min == b.reference.f_min


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


def test_composite_objective_adds_regularizer():
    base = two_point_least_squares()
    comp = cg.composite_objective(base, "norm2_squared", 0.5)
    w = np.array([2.0])
    assert comp.value(w) == pytest.approx(base.value(w) + 0.5 * 0.5 * 4.0, rel=1e-14)
    assert comp.component_count == base.component_count


def test_callable_objective_wraps_functions():
    obj = cg.CallableObjective(
        value_fns=[lambda w: float(w[0] ** 4)],
        grad_fns=[lambda w: np.array([4.0 * w[0] ** 3])],
        dimension=1,
    )
    w = np.array([0.5])
    assert obj.value(w) == pytest.approx(0.0625)
    assert obj.gradient(w)[0] == pytest.approx(0.5)


OBJECTIVE_KINDS = ("logistic", "least_squares", "linear", "quadratic_mean",
                   "callable")


def make_objective(kind, rng, n, d, regularizer, lam):
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    if kind == "logistic":
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return cg.LogisticObjective(cg.Dataset(X, labels), regularizer, lam)
    if kind == "least_squares":
        return cg.LeastSquaresObjective(cg.Dataset(X, rng.uniform(-1.0, 1.0, n)),
                                        regularizer, lam)
    if kind == "linear":
        return cg.LinearObjective(X, regularizer, lam)
    if kind == "quadratic_mean":
        return cg.QuadraticMeanObjective(2.0, X, regularizer, lam)
    # no batched hook of its own: grad_rows falls back to the base-class loop
    return cg.CallableObjective(
        [lambda w, c=c: float(np.sum((w - c) ** 4)) for c in X],
        [lambda w, c=c: 4.0 * (w - c) ** 3 for c in X],
        d, regularizer, lam)


@settings(deadline=None)
@given(kind=st.sampled_from(OBJECTIVE_KINDS),
       regularizer=st.sampled_from(REGULARIZERS),
       lam=st.floats(0.0, 2.0),
       n=st.integers(1, 6), d=st.integers(1, 5), rows=st.integers(1, 8),
       data_seed=st.integers(0, 2 ** 32 - 1), zero_row=st.booleans())
def test_grad_rows_match_component_gradients(kind, regularizer, lam, n, d, rows,
                                             data_seed, zero_row):
    rng = np.random.default_rng(data_seed)
    obj = make_objective(kind, rng, n, d, regularizer, lam)
    idx = rng.integers(0, n, size=rows)
    W = rng.uniform(-1.0, 1.0, size=(rows, d))
    if zero_row:
        W[0] = 0.0  # the kink of norm2, where the subgradient 0 is taken
    G = obj.grad_rows(idx, W)
    assert G.shape == (rows, d)
    unregularized = cg.composite_objective(obj, "none", 0.0)
    for k in range(rows):
        expected = obj.component_gradient(int(idx[k]), W[k])
        base = unregularized.component_gradient(int(idx[k]), W[k])
        # dot products may round differently in the two paths, and a sum
        # that cancels keeps no relative accuracy, so rtol applies to the
        # size of the terms summed
        scale = np.abs(base) + np.abs(expected - base)
        assert np.all(np.abs(G[k] - expected) <= 1e-12 * scale)


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
    F = obj.value_many(W)
    assert F.shape == (rows,)
    for k in range(rows):
        assert np.array_equal(F[k], obj.value_many(W[k].copy()[None])[0]), k
    # so the block size cannot matter either
    assert np.array_equal(obj.value_many(W, chunk=3 * n), F)


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
            for k in range(W.shape[0]):
                mean = np.mean([obj.component_value(i, W[k]) for i in range(7)])
                assert F[k] == pytest.approx(mean, rel=1e-13), (kind, regularizer)


@pytest.mark.parametrize("z", [-40.0, -37.0, -30.0, 30.0, 37.0, 40.0])
def test_logistic_is_accurate_at_large_margins(z):
    # one component with x = 1 and label +1, so the margin y x'w is w
    obj = cg.LogisticObjective(cg.Dataset(np.array([[1.0]]), np.array([1.0])))
    w = np.array([z])
    sigmoid = 1.0 / (1.0 + math.exp(z))
    for g in (obj.component_gradient(0, w), obj.gradient(w),
              obj.grad_rows(np.array([0]), w[None])[0]):
        assert g[0] == pytest.approx(-sigmoid, rel=1e-14, abs=0.0)
    # log(1 + e^-z), written so that neither form loses digits
    loss = math.log1p(math.exp(-z)) if z > 0 else -z + math.log1p(math.exp(z))
    assert obj.value(w) == pytest.approx(loss, rel=1e-14, abs=0.0)
    assert obj.component_value(0, w) == pytest.approx(loss, rel=1e-14, abs=0.0)
