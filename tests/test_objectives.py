"""Unit tests for the finite-sum objectives and the reference solver."""

import math
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
        with pytest.raises(ValueError):
            cg.solve_reference(obj, w0=np.array([1.0]))


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
    if regularizer == "none":
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
