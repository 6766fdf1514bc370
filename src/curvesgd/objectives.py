"""Finite-sum objectives for SGD experiments.

Datasets, per-component losses (logistic, least squares, linear, quadratic),
regularizers including the exp-cosh penalty G, analytic smoothness and
strong-convexity constants, exact Hessian-vector products of F, and a
deterministic reference solver that takes Newton steps, solved by
conjugate gradients on those products, where F has them and full-gradient
steps elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the box ||w||_inf <= REGION_RADIUS shared by smoothness_bound's L (so the
# matched schedules), the engine's region check and estimate_delta's samples
REGION_RADIUS = 3.0

# (row, component) terms per block of a batched value or gradient, and
# (row, coordinate) terms per chunk of engine steps: bounds memory and keeps
# the temporaries in cache
_BLOCK_TERMS = 1 << 16


def _row_blocks(count: int, width: int, terms=None) -> list:
    """The (lo, hi) bounds of the blocks that cover count rows of width
    terms: max(1, terms // width) rows each (terms defaults to _BLOCK_TERMS),
    the last fewer. No rows make one empty block, so blocks[0] sizes scratch."""
    rows = max(1, (_BLOCK_TERMS if terms is None else terms) // width)
    return [(lo, min(lo + rows, count)) for lo in range(0, max(count, 1), rows)]


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


def _constant(value) -> np.ndarray:
    """value as a read-only 0-d float array: a ufunc takes one about as
    cheaply as an array operand, and faster than a Python or numpy float."""
    const = np.array(value, dtype=float)
    const.flags.writeable = False
    return const


def _g_terms(w: np.ndarray) -> np.ndarray:
    # cancels twice near 0, where G is O(w^4): against the series, the
    # relative error is 1.5e-6 at w = 1e-3, 4.4e-4 at 1e-4 and 1.3 at 1e-5
    return np.expm1(w) + np.expm1(-w) - w * w


def regularizer_G_value(w):
    """G(w) = sum_i (e^{w_i} + e^{-w_i} - 2 - w_i^2); nonnegative.

    Overflows to inf once some |w_i| passes about 709.78, where e^{|w_i|}
    leaves the float range. A 2-d input is treated as a batch of weight
    vectors (one per row) and yields one value per row.
    """
    return np.sum(_g_terms(np.asarray(w, dtype=float)), axis=-1)


def regularizer_G_gradient(w):
    """Component i of grad G is e^{w_i} - e^{-w_i} - 2 w_i; a 0-d w yields
    a float."""
    w = np.asarray(w, dtype=float)
    return _g_gradient(w, np.empty_like(w), np.empty_like(w))[()]


def _g_gradient(w, out, scratch):
    # grad G at w written into out, with scratch overwritten: both arrays
    # of w's shape, distinct from w and from each other
    np.negative(w, scratch)
    np.expm1(scratch, scratch)
    np.expm1(w, out)
    np.subtract(out, scratch, out)
    np.add(w, w, scratch)
    return np.subtract(out, scratch, out)


def _norm2_gradient(W, out, scratch):
    # a zero row takes the subgradient 0, valid at the kink
    out.fill(0.0)
    nrm = np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]
    return np.divide(W, nrm, out=out, where=nrm != 0.0)


@dataclass(frozen=True)
class _Regularizer:
    """What one regularizer adds to each component, per unit of weight."""

    values: object  # W -> (rows,) array of reg(W[k])
    # (W, out, scratch) -> the gradient at each row of W in out, or W itself,
    # which callers scale; scratch, distinct from out, may be overwritten
    gradient: object
    hessian_diagonal: object  # w -> the Hessian's diagonal at w, or None
    box_bound: float  # Hessian bound on the REGION_RADIUS box
    mu: float  # strong-convexity modulus


# every regularizer but plain, which adds no term
_REGULARIZER_TERMS = {
    "norm2": _Regularizer(
        values=lambda W: np.linalg.norm(W, axis=1), gradient=_norm2_gradient,
        # the curvature of ||w|| is unbounded at the origin
        hessian_diagonal=None, box_bound=math.inf, mu=0.0),
    "norm2_squared": _Regularizer(
        values=lambda W: 0.5 * np.einsum("ij,ij->i", W, W),
        gradient=lambda W, out, scratch: W,
        hessian_diagonal=lambda w: 1.0, box_bound=1.0, mu=1.0),
    "exp_cosh_G": _Regularizer(
        values=regularizer_G_value, gradient=_g_gradient,
        hessian_diagonal=lambda w: np.expm1(w) + np.expm1(-w),
        box_bound=math.exp(REGION_RADIUS) + math.exp(-REGION_RADIUS) - 2.0,
        mu=0.0),
}
REGULARIZERS = ("plain",) + tuple(_REGULARIZER_TERMS)


def _softplus_inplace(m, tmp):
    """Overwrite m with log(1 + e^m), computed without overflow as
    max(m, 0) + log1p(e^-|m|), using tmp as scratch."""
    np.abs(m, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.log1p(tmp, out=tmp)
    np.maximum(m, 0.0, out=m)
    np.add(m, tmp, out=m)


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
        """||W[k] - w_star||^2 for each row k, computed from W[k] alone.

        Rows are taken in blocks of about _BLOCK_TERMS (row, coordinate)
        terms through one scratch block, so no temporary as large as W is
        made; the bits do not depend on the block size."""
        W = np.asarray(W)
        out = np.empty(W.shape[0])
        blocks = _row_blocks(*W.shape)
        diff = np.empty((blocks[0][1], W.shape[1]))
        for lo, hi in blocks:
            part = np.subtract(W[lo:hi], self.w_star, diff[: hi - lo])
            np.einsum("ij,ij->i", part, part, out=out[lo:hi])
        return out


class Objective:
    """Finite-sum objective F(w) = (1/n) sum_i f_i(w).

    Each component is base_i(w) + lam * reg(w): the regularizer is applied
    per component, so a stochastic gradient always carries the regularizer
    gradient. A loss supplies four kernels, the hooks that depend on w:
    ``_gather`` looks up the component data of some indices, the row-local
    ``_base_values(W, out, tmp)`` takes every component and
    ``_base_values_gathered(data, W)`` and ``_base_grad_gathered(data, W,
    out)`` the component each row names; every value and gradient of the
    public surface is built from them. Its two constants, ``_base_L`` and
    ``_base_mu``, are set when it is built. What each regularizer adds is
    one row of _REGULARIZER_TERMS. The gradient kernel
    ``_grad_gathered(data, W, out, tmp)`` adds lam times the regularizer
    gradient in place. The engine gathers the data of many steps at once and
    calls the same kernel once per step, with buffers it reuses; grad_rows
    and gradient call it with fresh ones. The constants these paths multiply
    by are 0-d arrays made once. Instances are immutable after construction
    and safe to share across threads.
    """

    # a bound on the base component Hessian that holds everywhere, so it takes
    # no radius, and the base loss's strong-convexity modulus; None if it has none
    _base_L = None
    _base_mu = None

    def __init__(self, n: int, d: int, regularizer: str = "plain", lam: float = 0.0):
        if regularizer not in REGULARIZERS:
            raise ValueError("unknown regularizer %r" % (regularizer,))
        if not (0.0 <= lam < math.inf):
            raise ValueError("regularization weight must be nonnegative and finite")
        if n < 1 or d < 1:
            raise ValueError("an objective needs at least one component and one "
                             "coordinate, got n=%d, d=%d" % (n, d))
        self.component_count = int(n)
        self.dimension = int(d)
        self.regularizer = regularizer
        self.regularization_weight = float(lam)
        self._lam = _constant(self.regularization_weight)
        # the regularizer's row of _REGULARIZER_TERMS, or None when it adds
        # no term: plain, or a zero weight
        self._reg = _REGULARIZER_TERMS.get(regularizer) if lam else None

    # ----- subclass hooks -------------------------------------------------
    def _base_values(self, W: np.ndarray, out: np.ndarray, tmp: np.ndarray):
        """Write into the (rows, n) array out the entries [k, i] =
        base_i(W[k]), row k computed from W[k] alone; tmp is a scratch
        array of the same shape."""
        raise NotImplementedError

    def _gather(self, idx: np.ndarray) -> tuple:
        """The component data of every index in idx, as a tuple of arrays
        whose leading axes are those of idx, e.g. (X[idx], y[idx])."""
        raise NotImplementedError

    def _base_values_gathered(self, data: tuple, W: np.ndarray) -> np.ndarray:
        """A new (rows,) array whose entry k is base_i(W[k]) for the component
        i whose data is row k of each array of data, from it and W[k] alone."""
        raise NotImplementedError

    def _base_grad_gathered(self, data: tuple, W: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
        """The (rows, d) matrix whose row k is grad base_i(W[k]) for the
        component i whose data is row k of each array of data, computed
        from that data and W[k] alone: written into out, an array of W's
        shape, or, when the gradient does not depend on W, an array of data
        returned as it is."""
        raise NotImplementedError

    def _base_hessian_product(self, w: np.ndarray):
        """The map v -> H v for the Hessian H of the mean base loss
        (1/n) sum_i base_i at w, or None when the loss has none in closed
        form."""
        return None

    def _hessian_product(self, w: np.ndarray):
        """The map v -> H v for the exact Hessian H of F at w: the loss's
        mean base product plus lam times the regularizer's diagonal. None
        when the loss has no closed form, and for norm2 with lam > 0, whose
        curvature is unbounded at the origin."""
        base = self._base_hessian_product(w)
        if base is None or self._reg is None:
            return base
        if self._reg.hessian_diagonal is None:
            return None
        diag = self.regularization_weight * self._reg.hessian_diagonal(w)
        return lambda v: base(v) + diag * v

    # ----- public surface ---------------------------------------------------
    def _rows(self, W, idx=None):
        """W as a float (rows, dimension) array, and idx, when given, as an
        integer array with one component index in [0, n) per row; anything
        else is a ValueError that names the first bad index."""
        W = np.asarray(W, dtype=float)
        if idx is not None:
            idx = np.asarray(idx)
            if idx.ndim != 1 or W.shape != (idx.size, self.dimension):
                raise ValueError(
                    "weights of shape %s with indices of shape %s; expected "
                    "(rows, %d) and (rows,)" % (W.shape, idx.shape, self.dimension))
            n = self.component_count
            if not idx.size:
                idx = idx.astype(np.intp)
            elif not np.issubdtype(idx.dtype, np.integer):
                raise ValueError("component index %r at position 0 is not an "
                                 "integer (dtype %s)" % (idx[0].item(), idx.dtype))
            elif idx.min() < 0 or idx.max() >= n:
                k = int(np.argmax((idx < 0) | (idx >= n)))
                raise ValueError("component index %d at position %d is outside "
                                 "[0, %d)" % (idx[k], k, n))
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
        return self._grad_gathered(self._gather(idx), W, np.empty(W.shape),
                                   np.empty(W.shape))

    def _grad_gathered(self, data, W, out, tmp):
        # grad_rows on data _gather has looked up and W it has validated:
        # out, or what the loss returned when no regularizer term is added;
        # tmp is scratch of W's shape. The engine calls this once per step,
        # with buffers it reuses.
        if self._reg is None:
            return self._base_grad_gathered(data, W, out)
        # lam times the regularizer term goes into tmp first, with out as
        # its scratch, and the loss's gradient into out after it
        np.multiply(self._reg.gradient(W, tmp, out), self._lam, tmp)
        return np.add(self._base_grad_gathered(data, W, out), tmp, out)

    def value_rows(self, idx, W) -> np.ndarray:
        """Component values row by row: entry k is f_{idx[k]}(W[k]).

        Row-local like grad_rows, and built like it: one gather and one
        kernel that evaluates only the component each row names, so a call
        costs about what grad_rows costs on the same rows.
        """
        W, idx = self._rows(W, idx)
        out = self._base_values_gathered(self._gather(idx), W)
        if self._reg is not None:
            out += self.regularization_weight * self._reg.values(W)
        return out

    def value_many(self, W) -> np.ndarray:
        """F row by row: entry k is F(W[k]), the mean of the n component
        values at W[k].

        Like grad_rows, each row is computed from its own weights alone, so
        a row has the same bits whatever the other rows hold. Rows are taken
        in blocks of about _BLOCK_TERMS (row, component) terms, one after
        another on the calling thread.
        """
        W, _ = self._rows(W)
        out = np.empty(W.shape[0])
        self._value_share(W, out, _row_blocks(W.shape[0], self.component_count))
        return out

    def _value_share(self, W, out, blocks):
        # the rows of out in blocks, consecutive (lo, hi) bounds, through
        # two scratch arrays sized to the first block and reused
        n = self.component_count
        lo, hi = blocks[0]
        base = np.empty((hi - lo, n))
        tmp = np.empty(base.shape)
        for lo, hi in blocks:
            if hi - lo < base.shape[0]:  # the last, shorter block
                base, tmp = base[: hi - lo], tmp[: hi - lo]
            block, vals = W[lo:hi], out[lo:hi]
            self._base_values(block, base, tmp)
            base.sum(axis=1, out=vals)
            vals /= n
            if self._reg is not None:
                vals += self.regularization_weight * self._reg.values(block)

    def value(self, w) -> float:
        """F(w), computed as the one-row case of value_many, straight
        through its block loop."""
        W, _ = self._rows(np.asarray(w, dtype=float)[None])
        out = np.empty(1)
        self._value_share(W, out, _row_blocks(1, self.component_count))
        return float(out[0])

    def gradient(self, w) -> np.ndarray:
        """grad F(w): the mean of the component gradients at w, summed over
        blocks of components like the rows of value_many."""
        W, _ = self._rows(np.asarray(w, dtype=float)[None])
        n, d = self.component_count, self.dimension
        total = np.zeros(d)
        for lo, hi in _row_blocks(n, d):
            block = W.repeat(hi - lo, axis=0)
            total += self._base_grad_gathered(self._gather(np.arange(lo, hi)), block,
                                              np.empty(block.shape)).sum(axis=0)
        g = total / n
        if self._reg is not None:
            # every component carries the same regularizer gradient
            reg = self._reg.gradient(W, np.empty(W.shape), np.empty(W.shape))[0]
            g = g + self.regularization_weight * reg
        return g

    @property
    def known_mu(self):
        """Analytic strong-convexity constant when one is available."""
        mu = self._base_mu or 0.0
        if self._reg is not None:
            mu += self._reg.mu * self.regularization_weight
        return mu if mu > 0 else None

    def smoothness_bound(self) -> float:
        """Upper bound on the per-component Hessian spectral norm.

        Valid on the box {w : ||w||_inf <= REGION_RADIUS}. The exp-cosh
        regularizer is smooth only on bounded regions, hence the box.
        """
        if self._base_L is None:
            raise ValueError("%s has no smoothness bound" % type(self).__name__)
        reg = 0.0 if self._reg is None else self._reg.box_bound
        return self._base_L + self.regularization_weight * reg


class LogisticObjective(Objective):
    """Binary logistic regression: f_i(w) = log(1 + exp(-y_i x_i' w))."""

    def __init__(self, dataset: Dataset, regularizer: str = "plain", lam: float = 0.0):
        if not np.all(np.isin(dataset.y, (-1.0, 1.0))):
            raise ValueError("logistic labels must be exactly +-1")
        super().__init__(dataset.size, dataset.dimension, regularizer, lam)
        self.X = dataset.X
        self.y = dataset.y
        # sigmoid' <= 1/4, so the component Hessian is bounded by ||x_i||^2/4
        self._base_L = float(np.max(np.einsum("ij,ij->i", self.X, self.X))) / 4.0
        # y_i x_i, and -y_i x_i transposed for the margins -y_i x_i'w
        self._yX = self.y[:, None] * self.X
        self._neg_yX_T = (-self._yX).T.copy()

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._neg_yX_T, out=out)
        _softplus_inplace(out, tmp)

    def _gather(self, idx):
        return (self._yX[idx],)

    def _base_values_gathered(self, data, W):
        m = -np.einsum("ij,ij->i", data[0], W)
        _softplus_inplace(m, np.empty_like(m))
        return m

    def _base_grad_gathered(self, data, W, out):
        yXi, = data
        s = _sigmoid_neg(np.einsum("ij,ij->i", yXi, W))
        return np.multiply(np.negative(s, s)[:, None], yXi, out)

    def _base_hessian_product(self, w):
        # (1/n) sum_i s_i (1 - s_i) x_i x_i' v with s_i = sigmoid(-y_i x_i'w);
        # 1 - s_i is taken as sigmoid(y_i x_i'w), which keeps its relative
        # accuracy where s_i rounds to 1
        margins = np.einsum("ij,j->i", self._yX, w)
        weights = _sigmoid_neg(margins) * _sigmoid_neg(-margins)
        weights /= self.component_count
        return lambda v: np.einsum(
            "i,ij->j", weights * np.einsum("ij,j->i", self._yX, v), self._yX)


class LeastSquaresObjective(Objective):
    """Squared-error components f_i(w) = (a_i' w - b_i)^2."""

    def __init__(self, dataset: Dataset, regularizer: str = "plain", lam: float = 0.0):
        super().__init__(dataset.size, dataset.dimension, regularizer, lam)
        self.X = dataset.X
        self.y = dataset.y
        self._XT = self.X.T.copy()
        self._base_L = 2.0 * float(np.max(np.einsum("ij,ij->i", self.X, self.X)))

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._XT, out=out)
        np.subtract(out, self.y, out=out)
        np.multiply(out, out, out=out)

    def _gather(self, idx):
        return self.X[idx], self.y[idx]

    def _base_values_gathered(self, data, W):
        r = np.einsum("ij,ij->i", data[0], W) - data[1]
        return np.multiply(r, r, r)

    def _base_grad_gathered(self, data, W, out):
        Xi, yi = data
        r = np.einsum("ij,ij->i", Xi, W)
        np.subtract(r, yi, r)
        np.add(r, r, r)
        return np.multiply(r[:, None], Xi, out)

    def _base_hessian_product(self, w):
        # (2/n) X'X v, the same map at every w
        scale = 2.0 / self.component_count
        return lambda v: np.einsum(
            "i,ij->j", np.einsum("ij,j->i", self.X, v), self.X) * scale


class LinearObjective(Objective):
    """Linear components f_i(w) = c_i' w, usually paired with a regularizer.

    With rows of C summing to zero, F(w) is exactly lam * reg(w) and the
    origin is the exact minimizer for the exp-cosh regularizer.
    """

    _base_L = 0.0

    def __init__(self, C, regularizer: str = "plain", lam: float = 0.0):
        C = np.asarray(C, dtype=float)
        if C.ndim != 2:
            raise ValueError("C must be a 2-d array of component gradients")
        if not np.all(np.isfinite(C)):
            raise ValueError("C must be finite")
        super().__init__(C.shape[0], C.shape[1], regularizer, lam)
        self.C = C
        self._CT = C.T.copy()

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._CT, out=out)

    def _gather(self, idx):
        return (self.C[idx],)

    def _base_values_gathered(self, data, W):
        return np.einsum("ij,ij->i", data[0], W)

    def _base_grad_gathered(self, data, W, out):
        return data[0]

    def _base_hessian_product(self, w):
        return np.zeros_like  # v -> 0


class QuadraticMeanObjective(Objective):
    """Components f_i(w) = (mu/2) ||w - m_i||^2 around fixed centers.

    F is mu-strongly convex with minimizer at the mean center; when the
    centers sum to zero exactly, the origin is the exact minimizer.
    """

    def __init__(self, mu: float, centers, regularizer: str = "plain", lam: float = 0.0):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must be a 2-d array")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        if not (0.0 < mu < math.inf):
            raise ValueError("mu must be positive and finite")
        super().__init__(centers.shape[0], centers.shape[1], regularizer, lam)
        self.mu = self._base_L = self._base_mu = float(mu)
        self._mu = _constant(mu)
        self.centers = centers

    def _base_values(self, W, out, tmp):
        D = W[:, None, :] - self.centers
        np.einsum("kij,kij->ki", D, D, out=out)
        out *= 0.5 * self.mu

    def _gather(self, idx):
        return (self.centers[idx],)

    def _base_values_gathered(self, data, W):
        D = W - data[0]
        return np.einsum("ij,ij->i", D, D) * (0.5 * self.mu)

    def _base_grad_gathered(self, data, W, out):
        centers, = data
        np.subtract(W, centers, out)
        return np.multiply(out, self._mu, out)

    def _base_hessian_product(self, w):
        return lambda v: self.mu * v


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

    def _base_values(self, W, out, tmp):
        for k, w in enumerate(W):
            out[k] = [float(f(w)) for f in self._values]

    def _gather(self, idx):
        return (idx,)

    def _base_values_gathered(self, data, W):
        return np.array([float(self._values[i](w)) for i, w in zip(*data, W)])

    def _base_grad_gathered(self, data, W, out):
        idx, = data
        for k in range(W.shape[0]):
            out[k] = self._grads[int(idx[k])](W[k])
        return out


def _newton_direction(objective, w, g, grad_norm):
    """(p, -g'p) for the Newton direction p at w, or None when F has no
    exact Hessian there or p is no finite descent direction.

    p solves H p = -g by conjugate gradients from p = 0 on the products
    objective._hessian_product gives: at most d products, stopping once the
    residual norm is at most 16 eps grad_norm (grad_norm = ||g||), the
    relative rounding floor that _line_search puts on F. A direction of nonpositive curvature ends the
    solve with the p reached so far, which is 0, so None, at the first."""
    product = objective._hessian_product(w)
    if product is None:
        return None
    floor = 16.0 * np.finfo(float).eps * grad_norm
    p = np.zeros_like(g)
    q = r = -g  # the search direction and the residual -g - H p
    rr = float(r @ r)
    for _ in range(objective.dimension):
        Hq = product(q)
        curvature = float(q @ Hq)
        if not curvature > 0.0:
            break
        alpha = rr / curvature
        p = p + alpha * q
        r = r - alpha * Hq
        rr, last = float(r @ r), rr
        if math.sqrt(rr) <= floor:
            break
        q = r + (rr / last) * q
    decrease = -float(g @ p)
    return (p, decrease) if 0.0 < decrease < math.inf else None


def _line_search(objective, w, fw, direction, decrease, step, grad_norm):
    """Armijo backtracking from w along direction, whose slope is -decrease:
    (candidate, its value, step) for the first accepted of 200 trial steps,
    each half the last, or None."""
    armijo = 1e-4
    floor = 16.0 * np.finfo(float).eps * max(abs(fw), 1.0)
    for _ in range(200):
        cand = w + step * direction
        fc = objective.value(cand)
        if armijo * step * decrease >= floor:
            ok = math.isfinite(fc) and fc <= fw - armijo * step * decrease
        else:
            # the sufficient-decrease term is below the rounding noise
            # of F, so value comparisons can no longer certify progress
            # (and can trap the iterate on a lucky-low FP plateau);
            # certify by the gradient norm instead
            cand_norm = float(np.linalg.norm(objective.gradient(cand)))
            ok = math.isfinite(fc) and cand_norm < grad_norm
        if ok:
            return cand, fc, step
        step *= 0.5
    return None


# a trial point may overflow F or its gradient to inf or NaN, which the
# isfinite test and the norm comparison reject without numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def solve_reference(objective: Objective,
                    max_iterations: int = 10 ** 6) -> ReferenceSolution:
    """Minimize F from the origin to a gradient norm of at most 1e-10, by
    Newton steps where F has an exact Hessian and gradient steps elsewhere,
    each with Armijo backtracking.

    While objective._hessian_product gives the map v -> H v, an iteration
    first tries the Newton direction p, H p = -g, from step 1. Conjugate
    gradients solve for p with at most d products and stop once the
    residual is at most 16 eps ||g||, so no (d, d) matrix is formed at any
    d. On the quadratic losses (least squares, ridge, quadratic mean) that
    first step lands on the minimizer up to rounding. The first iteration
    in which the products give no finite descent direction, or no step
    along it is accepted, ends the Newton steps: it and every later
    iteration step along -g from twice the last accepted gradient step. So
    an objective without a Hessian takes the iterates of plain
    full-gradient descent, and Newton steps that fail cost at most one
    conjugate-gradient solve and one search of 200 values (and, below the
    rounding floor, 200 gradients) in the whole solve.

    Deterministic: repeated calls with the same inputs produce bit-identical
    output. The noise constant is the mean of ||grad f_i(w_star)||^2 over
    components.
    """
    w = np.zeros(objective.dimension)
    fw = objective.value(w)
    step = 1.0
    newton = True
    iterations = 0
    grad_norm = math.inf
    for iterations in range(max_iterations + 1):
        g = objective.gradient(w)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= 1e-10:
            break
        found = None
        if newton:
            direction = _newton_direction(objective, w, g, grad_norm)
            if direction is not None:
                found = _line_search(objective, w, fw, *direction, 1.0,
                                     grad_norm)
            # the first iteration without an accepted Newton step ends them
            newton = found is not None
        if found is None:
            step = min(step * 2.0, 1e12)
            found = _line_search(objective, w, fw, -g, grad_norm * grad_norm,
                                 step, grad_norm)
            if found is None:
                raise ConvergenceError(
                    "line search failed at iteration %d (gradient norm %.3e)"
                    % (iterations, grad_norm)
                )
            step = found[2]
        w, fw = found[:2]
    else:
        raise ConvergenceError(
            "no convergence within %d iterations (gradient norm %.3e); the "
            "minimizer may be unattained or non-unique, e.g. unregularized "
            "separable logistic" % (max_iterations, grad_norm)
        )
    # ||grad f_i(w)||^2 in gradient's blocks of components: no (n, d) array
    n = objective.component_count
    squares = np.empty(n)
    for lo, hi in _row_blocks(n, objective.dimension):
        G = objective.grad_rows(np.arange(lo, hi), np.tile(w, (hi - lo, 1)))
        np.einsum("ij,ij->i", G, G, out=squares[lo:hi])
    noise = float(np.mean(squares))
    return ReferenceSolution(
        w_star=w,
        f_min=fw,
        noise_constant=noise,
        gradient_norm_at_solution=grad_norm,
        iterations=iterations,
    )
