"""Finite-sum objectives for SGD experiments.

Datasets, per-component losses (logistic, least squares, linear, quadratic),
regularizers including the exp-cosh penalty G, analytic smoothness and
strong-convexity constants, and a deterministic full-gradient reference
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGULARIZERS = ("plain", "norm2", "norm2_squared", "exp_cosh_G")

# the box ||w||_inf <= REGION_RADIUS shared by smoothness_bound's L (so the
# matched schedules), the engine's region check and estimate_delta's samples
REGION_RADIUS = 3.0

# (row, component) terms per block of a batched value or gradient, and
# (row, coordinate) terms per chunk of engine steps: bounds memory and keeps
# the temporaries in cache
_BLOCK_TERMS = 1 << 16


class ConvergenceError(RuntimeError):
    """The reference solver did not reach its gradient tolerance."""


class Dataset:
    """A fixed design matrix with one label per row.

    Labels are +-1 for classification and arbitrary reals for regression.
    ``planted_weights`` is set by synthetic generators that know the true
    coefficient vector (None otherwise).
    """

    def __init__(self, X, y, planted_weights=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if X.shape[0] < 1:
            raise ValueError("empty dataset")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one entry per row of X")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("X and y must be finite")
        self.X = X
        self.y = y
        self.planted_weights = planted_weights

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

def _g_terms(w: np.ndarray) -> np.ndarray:
    # expm1(w) + expm1(-w) equals e^w + e^-w - 2 with full precision near 0
    return np.expm1(w) + np.expm1(-w) - w * w


def regularizer_G_value(w):
    """G(w) = sum_i (e^{w_i} + e^{-w_i} - 2 - w_i^2); nonnegative.

    Overflows to inf once some |w_i| passes about 709.78, where e^{|w_i|}
    leaves the float range. A 2-d input is treated as a batch of weight
    vectors (one per row) and yields one value per row.
    """
    return np.sum(_g_terms(np.asarray(w, dtype=float)), axis=-1)


def regularizer_G_gradient(w) -> np.ndarray:
    """Component i of grad G is e^{w_i} - e^{-w_i} - 2 w_i."""
    w = np.asarray(w, dtype=float)
    return np.expm1(w) - np.expm1(-w) - 2.0 * w


def _softplus(m):
    """log(1 + e^m) without overflow."""
    return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))


def _sigmoid_neg(z):
    """1 / (1 + e^z) to full relative accuracy for every z: with
    e = exp(-|z|) it is e / (1 + e) for z > 0 and 1 / (1 + e) otherwise,
    the numerator being exp(-max(z, 0))."""
    return np.exp(-np.maximum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


@dataclass(frozen=True)
class ReferenceSolution:
    """Minimizer data produced by solve_reference.

    noise_constant is the mean over components of the squared gradient norm
    at w_star.
    """

    w_star: np.ndarray
    f_min: float
    noise_constant: float
    gradient_norm_at_solution: float
    iterations: int = 0

    def squared_distance(self, W) -> np.ndarray:
        """||W[k] - w_star||^2 for each row k, computed from W[k] alone."""
        diff = W - self.w_star
        return np.einsum("ij,ij->i", diff, diff)


class Objective:
    """Finite-sum objective F(w) = (1/n) sum_i f_i(w).

    Each component is base_i(w) + lam * reg(w): the regularizer is applied
    per component, so a stochastic gradient always carries the regularizer
    gradient. A loss supplies ``_gather``, which looks up the component data
    of some indices, two row-local hooks, ``_base_values`` and
    ``_base_grad_gathered``, and ``_base_smoothness``; every value and
    gradient of the public surface is built from them, and the engine
    gathers the data of many steps at once and calls the same gradient
    kernel. Instances are immutable after construction and safe to share
    across threads.
    """

    def __init__(self, n: int, d: int, regularizer: str = "plain", lam: float = 0.0):
        if regularizer not in REGULARIZERS:
            raise ValueError("unknown regularizer %r" % (regularizer,))
        if not (0.0 <= lam < math.inf):
            raise ValueError("regularization weight must be nonnegative and finite")
        self.component_count = int(n)
        self.dimension = int(d)
        self.regularizer = regularizer
        self.regularization_weight = float(lam)

    # ----- subclass hooks -------------------------------------------------
    def _base_values(self, W: np.ndarray) -> np.ndarray:
        """(rows, n) matrix whose entry [k, i] is base_i(W[k]), row k
        computed from W[k] alone."""
        raise NotImplementedError

    def _gather(self, idx: np.ndarray) -> tuple:
        """The component data of every index in idx, as a tuple of arrays
        whose leading axes are those of idx, e.g. (X[idx], y[idx])."""
        raise NotImplementedError

    def _base_grad_gathered(self, data: tuple, W: np.ndarray) -> np.ndarray:
        """(rows, d) matrix whose row k is grad base_i(W[k]) for the
        component i whose data is row k of each array of data, computed
        from that data and W[k] alone."""
        raise NotImplementedError

    def _base_smoothness(self) -> float:
        """Bound on the base component Hessian, valid everywhere."""
        raise NotImplementedError

    def _base_known_mu(self):
        return None

    # ----- regularizer terms ----------------------------------------------
    def _reg_grad_rows(self, W: np.ndarray) -> np.ndarray:
        kind = self.regularizer
        if kind == "plain":
            return np.zeros_like(W)
        if kind == "norm2":
            nrm = np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]
            # a zero row takes the subgradient 0, valid at the kink
            return np.divide(W, nrm, out=np.zeros_like(W), where=nrm != 0.0)
        if kind == "norm2_squared":
            return W.copy()
        return regularizer_G_gradient(W)

    def _reg_value_rows(self, W: np.ndarray) -> np.ndarray:
        kind = self.regularizer
        if kind == "plain":
            return np.zeros(W.shape[0])
        if kind == "norm2":
            return np.linalg.norm(W, axis=1)
        if kind == "norm2_squared":
            return 0.5 * np.einsum("ij,ij->i", W, W)
        return regularizer_G_value(W)

    def _reg_hessian_bound(self) -> float:
        kind = self.regularizer
        lam = self.regularization_weight
        if kind == "plain" or lam == 0.0:
            return 0.0
        if kind == "norm2":
            return math.inf  # curvature of ||w|| is unbounded at the origin
        if kind == "norm2_squared":
            return lam
        return lam * (math.exp(REGION_RADIUS) + math.exp(-REGION_RADIUS) - 2.0)

    # ----- public surface ---------------------------------------------------
    def _rows(self, W, idx=None):
        """W as a float (rows, dimension) array, and idx, when given, as an
        array with one entry per row; anything else is a ValueError."""
        W = np.asarray(W, dtype=float)
        if idx is not None:
            idx = np.asarray(idx)
            if idx.ndim != 1 or W.shape != (idx.size, self.dimension):
                raise ValueError(
                    "weights of shape %s with indices of shape %s; expected "
                    "(rows, %d) and (rows,)" % (W.shape, idx.shape, self.dimension))
        elif W.ndim != 2 or W.shape[1] != self.dimension:
            raise ValueError("weights of shape %s; expected (rows, %d)"
                             % (W.shape, self.dimension))
        return W, idx

    def grad_rows(self, idx, W) -> np.ndarray:
        """Component gradients row by row: row k is grad f_{idx[k]}(W[k]).

        Each row is computed from its own index and weights alone, with
        elementwise products and per-row sums and never a product across
        rows, so a row has the same bits whatever the other rows hold.
        """
        W, idx = self._rows(W, idx)
        return self._grad_gathered(self._gather(idx), W)

    def _grad_gathered(self, data, W):
        # grad_rows on data _gather has looked up and W it has validated;
        # the engine calls this once per step
        G = self._base_grad_gathered(data, W)
        if self.regularization_weight:
            G = G + self.regularization_weight * self._reg_grad_rows(W)
        return G

    def value_rows(self, idx, W) -> np.ndarray:
        """Component values row by row: entry k is f_{idx[k]}(W[k]).

        Row-local like grad_rows, and taken in blocks like value_many. Each
        block evaluates every component at its rows, so a call costs as
        much as value_many on the same rows.
        """
        W, idx = self._rows(W, idx)
        return self._block_values(W, idx)

    def value_many(self, W) -> np.ndarray:
        """F row by row: entry k is F(W[k]), the mean of the n component
        values at W[k].

        Like grad_rows, each row is computed from its own weights alone, so
        a row has the same bits whatever the other rows hold. Rows are taken
        in blocks of about _BLOCK_TERMS (row, component) terms.
        """
        W, _ = self._rows(W)
        return self._block_values(W, None)

    def _block_values(self, W, idx):
        # one (rows, n) block of base values at a time, reduced to the
        # component idx[k] of each row, or to the row mean when idx is None
        out = np.empty(W.shape[0])
        rows = max(1, _BLOCK_TERMS // self.component_count)
        for lo in range(0, W.shape[0], rows):
            block = W[lo : lo + rows]
            base = self._base_values(block)
            if idx is None:
                vals = base.sum(axis=1) / self.component_count
            else:
                vals = base[np.arange(block.shape[0]), idx[lo : lo + rows]]
            if self.regularization_weight:
                vals = vals + self.regularization_weight * self._reg_value_rows(block)
            out[lo : lo + block.shape[0]] = vals
        return out

    def value(self, w) -> float:
        """F(w), computed as the one-row case of value_many."""
        return float(self.value_many(np.asarray(w, dtype=float)[None])[0])

    def gradient(self, w) -> np.ndarray:
        """grad F(w): the mean of the component gradients at w, summed over
        blocks of components like the rows of value_many."""
        W, _ = self._rows(np.asarray(w, dtype=float)[None])
        n, d = self.component_count, self.dimension
        rows = max(1, _BLOCK_TERMS // d)
        total = np.zeros(d)
        for lo in range(0, n, rows):
            idx = np.arange(lo, min(lo + rows, n))
            total += self._base_grad_gathered(
                self._gather(idx), W.repeat(idx.size, axis=0)).sum(axis=0)
        g = total / n
        if self.regularization_weight:
            # every component carries the same regularizer gradient
            g = g + self.regularization_weight * self._reg_grad_rows(W)[0]
        return g

    @property
    def known_mu(self):
        """Analytic strong-convexity constant when one is available."""
        mu = self._base_known_mu() or 0.0
        if self.regularizer == "norm2_squared":
            mu += self.regularization_weight
        return mu if mu > 0 else None

    def smoothness_bound(self) -> float:
        """Upper bound on the per-component Hessian spectral norm.

        Valid on the box {w : ||w||_inf <= REGION_RADIUS}. The exp-cosh
        regularizer is smooth only on bounded regions, hence the box.
        """
        return self._base_smoothness() + self._reg_hessian_bound()


class LogisticObjective(Objective):
    """Binary logistic regression: f_i(w) = log(1 + exp(-y_i x_i' w))."""

    def __init__(self, dataset: Dataset, regularizer: str = "plain", lam: float = 0.0):
        if not np.all(np.isin(dataset.y, (-1.0, 1.0))):
            raise ValueError("logistic labels must be exactly +-1")
        super().__init__(dataset.size, dataset.dimension, regularizer, lam)
        self.X = dataset.X
        self.y = dataset.y
        self._max_row_sq = float(np.max(np.einsum("ij,ij->i", self.X, self.X)))
        # y_i x_i, and -y_i x_i transposed for the margins -y_i x_i'w
        self._yX = self.y[:, None] * self.X
        self._neg_yX_T = (-self._yX).T.copy()

    def _base_values(self, W):
        return _softplus(np.einsum("kj,ji->ki", W, self._neg_yX_T))

    def _gather(self, idx):
        return (self._yX[idx],)

    def _base_grad_gathered(self, data, W):
        yXi, = data
        z = np.einsum("ij,ij->i", yXi, W)
        return -_sigmoid_neg(z)[:, None] * yXi

    def _base_smoothness(self):
        # sigmoid' <= 1/4, so the component Hessian is bounded by ||x_i||^2/4
        return self._max_row_sq / 4.0


class LeastSquaresObjective(Objective):
    """Squared-error components f_i(w) = (a_i' w - b_i)^2."""

    def __init__(self, dataset: Dataset, regularizer: str = "plain", lam: float = 0.0):
        super().__init__(dataset.size, dataset.dimension, regularizer, lam)
        self.X = dataset.X
        self.y = dataset.y
        self._XT = self.X.T.copy()
        self._max_row_sq = float(np.max(np.einsum("ij,ij->i", self.X, self.X)))

    def _base_values(self, W):
        R = np.einsum("kj,ji->ki", W, self._XT) - self.y
        return R * R

    def _gather(self, idx):
        return self.X[idx], self.y[idx]

    def _base_grad_gathered(self, data, W):
        Xi, yi = data
        r = np.einsum("ij,ij->i", Xi, W) - yi
        return (2.0 * r)[:, None] * Xi

    def _base_smoothness(self):
        return 2.0 * self._max_row_sq


class LinearObjective(Objective):
    """Linear components f_i(w) = c_i' w, usually paired with a regularizer.

    With rows of C summing to zero, F(w) is exactly lam * reg(w) and the
    origin is the exact minimizer for the exp-cosh regularizer.
    """

    def __init__(self, C, regularizer: str = "plain", lam: float = 0.0):
        C = np.asarray(C, dtype=float)
        if C.ndim != 2:
            raise ValueError("C must be a 2-d array of component gradients")
        super().__init__(C.shape[0], C.shape[1], regularizer, lam)
        self.C = C
        self._CT = C.T.copy()

    def _base_values(self, W):
        return np.einsum("kj,ji->ki", W, self._CT)

    def _gather(self, idx):
        return (self.C[idx],)

    def _base_grad_gathered(self, data, W):
        return data[0]

    def _base_smoothness(self):
        return 0.0


class QuadraticMeanObjective(Objective):
    """Components f_i(w) = (mu/2) ||w - m_i||^2 around fixed centers.

    F is mu-strongly convex with minimizer at the mean center; when the
    centers sum to zero exactly, the origin is the exact minimizer.
    """

    def __init__(self, mu: float, centers, regularizer: str = "plain", lam: float = 0.0):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must be a 2-d array")
        if not (0.0 < mu < math.inf):
            raise ValueError("mu must be positive and finite")
        super().__init__(centers.shape[0], centers.shape[1], regularizer, lam)
        self.mu = float(mu)
        self.centers = centers

    def _base_values(self, W):
        D = W[:, None, :] - self.centers
        return (0.5 * self.mu) * np.einsum("kij,kij->ki", D, D)

    def _gather(self, idx):
        return (self.centers[idx],)

    def _base_grad_gathered(self, data, W):
        centers, = data
        return self.mu * (W - centers)

    def _base_smoothness(self):
        return self.mu

    def _base_known_mu(self):
        return self.mu


class CallableObjective(Objective):
    """Components given directly as (value, gradient) callables.

    Handy for one-off test objectives such as F(w) = w^4 in one dimension.
    The callables take one weight vector, so the row hooks loop over rows.
    """

    def __init__(self, value_fns, grad_fns, dimension: int,
                 regularizer: str = "plain", lam: float = 0.0):
        if len(value_fns) != len(grad_fns) or not value_fns:
            raise ValueError("need matching, nonempty value and gradient lists")
        super().__init__(len(value_fns), dimension, regularizer, lam)
        self._values = list(value_fns)
        self._grads = list(grad_fns)

    def _base_values(self, W):
        return np.array([[float(f(w)) for f in self._values] for w in W])

    def _gather(self, idx):
        return (idx,)

    def _base_grad_gathered(self, data, W):
        idx, = data
        out = np.empty(W.shape)
        for k in range(W.shape[0]):
            out[k] = self._grads[int(idx[k])](W[k])
        return out

    def _base_smoothness(self):
        raise ValueError("a callable objective has no smoothness bound")


# a trial point may overflow F or its gradient to inf or NaN, which the
# isfinite test and the norm comparison reject without numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def solve_reference(objective: Objective,
                    max_iterations: int = 10 ** 6) -> ReferenceSolution:
    """Minimize F by full-gradient descent with Armijo backtracking from the
    origin, to a gradient norm of at most 1e-10.

    Deterministic: repeated calls with the same inputs produce bit-identical
    output. The noise constant is the mean of ||grad f_i(w_star)||^2 over
    components.
    """
    w = np.zeros(objective.dimension)
    fw = objective.value(w)
    step = 1.0
    armijo = 1e-4
    iterations = 0
    grad_norm = math.inf
    for iterations in range(max_iterations + 1):
        g = objective.gradient(w)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= 1e-10:
            break
        gg = grad_norm * grad_norm
        step = min(step * 2.0, 1e12)
        accepted = False
        floor = 16.0 * np.finfo(float).eps * max(abs(fw), 1.0)
        for _ in range(200):
            cand = w - step * g
            fc = objective.value(cand)
            if armijo * step * gg >= floor:
                ok = math.isfinite(fc) and fc <= fw - armijo * step * gg
            else:
                # the sufficient-decrease term is below the rounding noise
                # of F, so value comparisons can no longer certify progress
                # (and can trap the iterate on a lucky-low FP plateau);
                # certify by the gradient norm instead
                cand_norm = float(np.linalg.norm(objective.gradient(cand)))
                ok = math.isfinite(fc) and cand_norm < grad_norm
            if ok:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise ConvergenceError(
                "line search failed at iteration %d (gradient norm %.3e)"
                % (iterations, grad_norm)
            )
        w = cand
        fw = fc
    else:
        raise ConvergenceError(
            "no convergence within %d iterations (gradient norm %.3e); the "
            "minimizer may be unattained or non-unique, e.g. unregularized "
            "separable logistic" % (max_iterations, grad_norm)
        )
    n = objective.component_count
    G = objective.grad_rows(np.arange(n), np.tile(w, (n, 1)))
    noise = float(np.mean(np.einsum("ij,ij->i", G, G)))
    return ReferenceSolution(
        w_star=w,
        f_min=fw,
        noise_constant=noise,
        gradient_norm_at_solution=grad_norm,
        iterations=iterations,
    )
