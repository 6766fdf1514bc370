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


def _row_blocks(count: int, width: int) -> list:
    """The (lo, hi) bounds of the blocks that cover count rows of width
    terms: max(1, _BLOCK_TERMS // width) rows each, the last fewer. No rows
    make one empty block, so blocks[0] sizes scratch."""
    rows = max(1, _BLOCK_TERMS // width)
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


# the ufuncs of the per-step helpers below, bound once here, so that a step
# pays for no attribute lookup on numpy
_abs, _add, _divide, _exp, _minimum, _negative, _sinh, _sqrt, _subtract = (
    np.abs, np.add, np.divide, np.exp, np.minimum, np.negative, np.sinh,
    np.sqrt, np.subtract)


def _constant(value) -> np.ndarray:
    """value as a read-only 0-d float array: a ufunc takes one about as
    cheaply as an array operand, and faster than a Python or numpy float."""
    const = np.array(value, dtype=float)
    const.flags.writeable = False
    return const


# the sigmoid's constants, as 0-d arrays for its per-step calls
_ZERO, _ONE = _constant(0.0), _constant(1.0)


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
    """Component i of grad G is e^{w_i} - e^{-w_i} - 2 w_i, computed as
    2 (sinh w_i - w_i); a 0-d w yields a float. It overflows to +-inf once
    some |w_i| passes 709.782712893384."""
    w = np.asarray(w, dtype=float)
    half = _g_half_gradient(w, np.empty_like(w))
    return np.add(half, half, half)[()]


def _g_half_gradient(w, out):
    # half of grad G at w, sinh w - w, written into out, an array of w's
    # shape distinct from w; finite up to |w| = 710.4758600739439
    _sinh(w, out)
    return _subtract(out, w, out)


# einsum without numpy's __array_function__ dispatch, which costs about a
# microsecond a call: the same c_einsum call, for per-step kernels, whose
# operands are arrays they gathered or own, so no override is skipped
_einsum_direct = np.einsum.__wrapped__


def _norm2_gradient(W, out):
    # a zero row takes the subgradient 0, valid at the kink
    out.fill(0.0)
    nrm = _sqrt(_einsum_direct("ij,ij->i", W, W))[:, None]
    return _divide(W, nrm, out=out, where=nrm != 0.0)


@dataclass(frozen=True)
class _Regularizer:
    """What one regularizer adds to each component, per unit of weight."""

    values: object  # W -> (rows,) array of reg(W[k])
    # (W, out) -> the gradient at each row of W divided by gradient_factor,
    # written into out, an array of W's shape distinct from W, or W itself
    gradient: object
    hessian_diagonal: object  # w -> the Hessian's diagonal at w, or None
    box_bound: float  # Hessian bound on the REGION_RADIUS box
    mu: float  # strong-convexity modulus
    # a power of two that the objective folds into its weight once, so the
    # term costs one multiply per step
    gradient_factor: float = 1.0


# every regularizer but plain, which adds no term
_REGULARIZER_TERMS = {
    "norm2": _Regularizer(
        values=lambda W: np.linalg.norm(W, axis=1), gradient=_norm2_gradient,
        # the curvature of ||w|| is unbounded at the origin
        hessian_diagonal=None, box_bound=math.inf, mu=0.0),
    "norm2_squared": _Regularizer(
        values=lambda W: 0.5 * np.einsum("ij,ij->i", W, W),
        gradient=lambda W, out: W,
        hessian_diagonal=lambda w: 1.0, box_bound=1.0, mu=1.0),
    "exp_cosh_G": _Regularizer(
        values=regularizer_G_value, gradient=_g_half_gradient,
        gradient_factor=2.0,
        hessian_diagonal=lambda w: np.expm1(w) + np.expm1(-w),
        box_bound=math.exp(REGION_RADIUS) + math.exp(-REGION_RADIUS) - 2.0,
        mu=0.0),
}
REGULARIZERS = ("plain",) + tuple(_REGULARIZER_TERMS)


def _folded_weight(regularizer: str, lam: float) -> float:
    """The weight of the regularizer row's gradient, lam times its factor:
    (2 lam) u has the bits of lam (2 u) wherever 2 u is finite. ValueError
    when it overflows; a regularizer without a row has factor 1."""
    row = _REGULARIZER_TERMS.get(regularizer)
    factor = 1.0 if row is None else row.gradient_factor
    if not math.isfinite(factor * lam):
        raise ValueError(
            "regularization weight %r is too large for %s, whose gradient "
            "takes %g times it: it must be at most %.17g"
            % (lam, regularizer, factor, np.finfo(float).max / factor))
    return factor * lam


def _softplus_inplace(m, tmp):
    """Overwrite m with log(1 + e^m), computed without overflow as
    max(m, 0) + log1p(e^-|m|), using tmp as scratch."""
    np.abs(m, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.log1p(tmp, out=tmp)
    np.maximum(m, 0.0, out=m)
    np.add(m, tmp, out=m)


def _sigmoid(m, out=None, tmp=None):
    """1 / (1 + e^-m) to full relative accuracy for every m: with
    e = exp(-|m|) it is e / (1 + e) for m < 0 and 1 / (1 + e) otherwise,
    the numerator being exp(min(m, 0)). Written into out, which may be m,
    with tmp as scratch of m's shape; either is a new array when omitted."""
    num = _minimum(m, _ZERO, out=tmp)
    _exp(num, num)
    den = _abs(m, out=out)
    _negative(den, den)
    _exp(den, den)
    _add(_ONE, den, den)
    return _divide(num, den, den)


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
    ``_base_values(W, out, tmp)`` takes every component,
    ``_base_values_gathered(data, W)`` the component each row names, and
    ``_base_grad_kernel(rows)`` builds the gradient function of that many
    such rows, with its scratch bound inside it; every value and gradient
    of the public surface is built from them. Its two constants,
    ``_base_L`` and ``_base_mu``, are set when it is built. The logistic,
    least-squares and linear losses share one set of kernels,
    _MarginObjective's, and give only their loss of the margin a_i'w and
    its slope. What each regularizer adds is one row of _REGULARIZER_TERMS.
    ``_grad_kernel(rows)`` adds lam times its gradient to the loss's
    kernel: the one gradient formula of grad_rows, gradient and the engine,
    which builds it once per sweep. Scratch belongs to kernels, and the
    constants they multiply by are 0-d arrays made once, so instances are
    immutable after construction and safe to share across threads; a
    kernel, which writes its scratch, is not.
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
        # the regularizer's row of _REGULARIZER_TERMS, or None when it adds
        # no term: plain, or a zero weight
        self._reg = _REGULARIZER_TERMS.get(regularizer) if lam else None
        self._lam = _constant(_folded_weight(regularizer, float(lam)))

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

    def _base_grad_kernel(self, rows: int):
        """A function (data, W, out) of rows-row arguments that gives the
        (rows, d) matrix whose row k is grad base_i(W[k]) for the component
        i whose data is row k of each array of data, computed from that
        data and W[k] alone: written into out, an array of W's shape, or,
        when the gradient does not depend on W, an array of data returned
        as it is. Scratch it needs is made here and bound inside it."""
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
        return self._grad_kernel(W.shape[0])(self._gather(idx), W,
                                             np.empty(W.shape))

    def _grad_kernel(self, rows: int, term: bool = True):
        """The function (data, W, out) that gives grad_rows on data _gather
        has looked up and rows-row W it has validated: out, or what the
        loss's kernel returned when no regularizer term is added. With term
        False it leaves the term out, for gradient, which adds it once to
        the mean."""
        base = self._base_grad_kernel(rows)
        if self._reg is None or not term:
            return base
        reg_gradient, lam = self._reg.gradient, self._lam
        multiply, add = np.multiply, np.add
        # the regularizer term goes into this buffer, times lam, and the
        # loss's gradient into out; x * 1 is x for every float, so a unit
        # weight adds the term without the multiply
        reg = np.empty((rows, self.dimension))
        if lam == 1.0:
            return lambda data, W, out: add(base(data, W, out),
                                            reg_gradient(W, reg), out)

        def kernel(data, W, out):
            multiply(reg_gradient(W, reg), lam, reg)
            return add(base(data, W, out), reg, out)
        return kernel

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
        another on the calling thread, through two scratch arrays sized to
        the first block and reused. This is the one value loop: value is
        its one-row call.
        """
        W, _ = self._rows(W)
        n = self.component_count
        out = np.empty(W.shape[0])
        blocks = _row_blocks(W.shape[0], n)
        base = np.empty((blocks[0][1], n))
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
        return out

    def value(self, w) -> float:
        """F(w): value_many's one-row call."""
        return float(self.value_many(np.asarray(w, dtype=float)[None])[0])

    def gradient(self, w) -> np.ndarray:
        """grad F(w): the mean of the component gradients at w, summed over
        blocks of components like the rows of value_many."""
        W, _ = self._rows(np.asarray(w, dtype=float)[None])
        n, d = self.component_count, self.dimension
        total = np.zeros(d)
        for lo, hi in _row_blocks(n, d):
            block = W.repeat(hi - lo, axis=0)
            kernel = self._grad_kernel(hi - lo, term=False)
            total += kernel(self._gather(np.arange(lo, hi)), block,
                            np.empty(block.shape)).sum(axis=0)
        g = total / n
        if self._reg is not None:
            # every component carries the same regularizer gradient
            reg = self._reg.gradient(W, np.empty(W.shape))[0]
            g = g + self._lam * reg
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


class _MarginObjective(Objective):
    """Components base_i(w) = loss(m_i, b_i) of one margin m_i = a_i'w and
    an optional label b_i, with gradient slope(m_i, b_i) a_i. A loss gives
    A, its labels or None, the curvature bound of its loss in the margin,
    _loss(m, tmp, data) and _slope(m, tmp, data), which overwrite m with
    the loss and the slope (tmp is scratch of m's shape); data holds the
    (A[, b]) rows of the margins. The four kernels and L live here: the
    gradient kernel writes the margins into a (rows, 1) column it owns,
    takes their slope in place, spreads it across out by assignment and
    multiplies out by A, two operands of one shape."""

    def __init__(self, A, b, curvature, regularizer, lam):
        super().__init__(A.shape[0], A.shape[1], regularizer, lam)
        # a loss without labels gathers one array per index: the engine
        # zips the gathered arrays once per step
        self._data = (A,) if b is None else (A, b)
        self._AT = A.T.copy()
        # zero curvature keeps L at exactly 0, also where a row's squared
        # norm overflows and 0 * inf would be nan
        if curvature:
            self._base_L = curvature * float(np.max(np.einsum("ij,ij->i", A, A)))

    def _gather(self, idx):
        return tuple([a.take(idx, axis=0) for a in self._data])

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._AT, out=out)
        self._loss(out, tmp, self._data)

    def _base_values_gathered(self, data, W):
        m = np.einsum("ij,ij->i", data[0], W)
        self._loss(m, np.empty_like(m), data)
        return m

    def _base_grad_kernel(self, rows):
        slope = self._slope
        einsum, multiply = _einsum_direct, np.multiply
        column = np.empty((rows, 1))
        m, tmp = column[:, 0], np.empty(rows)

        def kernel(data, W, out):
            A = data[0]
            einsum("ij,ij->i", A, W, out=m)
            slope(m, tmp, data)
            # an assignment copies each slope exactly, and a product of
            # same-shape operands takes no pass through numpy's buffered
            # broadcasting iterator, which the (rows, 1) column would
            out[...] = column
            return multiply(out, A, out)
        return kernel


class LogisticObjective(_MarginObjective):
    """Binary logistic regression: f_i(w) = log(1 + exp(-y_i x_i' w)), the
    softplus of the margin a_i'w with a_i = -y_i x_i."""

    _loss = staticmethod(lambda m, tmp, data: _softplus_inplace(m, tmp))
    _slope = staticmethod(lambda m, tmp, data: _sigmoid(m, m, tmp))

    def __init__(self, dataset: Dataset, regularizer: str = "plain", lam: float = 0.0):
        if not np.all(np.isin(dataset.y, (-1.0, 1.0))):
            raise ValueError("logistic labels must be exactly +-1")
        # sigmoid' <= 1/4, so the component Hessian is bounded by ||x_i||^2/4
        super().__init__(-(dataset.y[:, None] * dataset.X), None, 0.25,
                         regularizer, lam)

    def _base_hessian_product(self, w):
        # (1/n) sum_i s_i (1 - s_i) a_i a_i' v with s_i = sigmoid(a_i'w);
        # 1 - s_i is taken as sigmoid(-a_i'w), which keeps its relative
        # accuracy where s_i rounds to 1
        A = self._data[0]
        margins = np.einsum("ij,j->i", A, w)
        weights = _sigmoid(margins) * _sigmoid(-margins)
        weights /= self.component_count
        return lambda v: np.einsum(
            "i,ij->j", weights * np.einsum("ij,j->i", A, v), A)


class LeastSquaresObjective(_MarginObjective):
    """Squared-error components f_i(w) = (a_i' w - b_i)^2."""

    def __init__(self, dataset: Dataset, regularizer: str = "plain", lam: float = 0.0):
        super().__init__(dataset.X, dataset.y, 2.0, regularizer, lam)

    @staticmethod
    def _loss(m, tmp, data):
        np.subtract(m, data[1], m)
        np.multiply(m, m, m)

    @staticmethod
    def _slope(m, tmp, data):
        _subtract(m, data[1], m)
        _add(m, m, m)

    def _base_hessian_product(self, w):
        # (2/n) A'A v, the same map at every w
        A = self._data[0]
        scale = 2.0 / self.component_count
        return lambda v: np.einsum(
            "i,ij->j", np.einsum("ij,j->i", A, v), A) * scale


class LinearObjective(_MarginObjective):
    """Linear components f_i(w) = c_i' w, usually paired with a regularizer.

    With rows of C summing to zero, F(w) is exactly lam * reg(w) and the
    origin is the exact minimizer for the exp-cosh regularizer.
    """

    _base_L = 0.0
    _loss = staticmethod(lambda m, tmp, data: None)  # the margin is the value

    def __init__(self, C, regularizer: str = "plain", lam: float = 0.0):
        C = np.asarray(C, dtype=float)
        if C.ndim != 2:
            raise ValueError("C must be a 2-d array of component gradients")
        if not np.all(np.isfinite(C)):
            raise ValueError("C must be finite")
        super().__init__(C, None, 0.0, regularizer, lam)

    def _base_grad_kernel(self, rows):
        return lambda data, W, out: data[0]

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
        return (self.centers.take(idx, axis=0),)

    def _base_values_gathered(self, data, W):
        D = W - data[0]
        return np.einsum("ij,ij->i", D, D) * (0.5 * self.mu)

    def _base_grad_kernel(self, rows):
        mu, multiply, subtract = self._mu, np.multiply, np.subtract
        return lambda data, W, out: multiply(subtract(W, data[0], out), mu, out)

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

    def _base_grad_kernel(self, rows):
        grads = self._grads

        def kernel(data, W, out):
            for k, i in enumerate(data[0]):
                out[k] = grads[int(i)](W[k])
            return out
        return kernel


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
