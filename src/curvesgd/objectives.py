"""Finite-sum objectives for SGD experiments.

Datasets, per-component losses (logistic, least squares, linear, quadratic),
regularizers including the exp-cosh penalty G, analytic smoothness and
strong-convexity constants, and a deterministic full-gradient reference
solver.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
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

# the most workers a value call splits its blocks between: the width at
# which the threaded blocks were measured. Each worker holds two blocks of
# scratch (about 1 MB), and the affinity mask does not see a CPU quota.
_MAX_WORKERS = 2

# the threads that take a share of the blocks of a value_many or value_rows
# call, started on first use under _POOL_LOCK; a forked child starts its own
_POOL = None
_POOL_LOCK = threading.Lock()
# set while a pool thread runs a share, so that a value call nested inside
# one runs serially instead of waiting on the threads it occupies
_IN_SHARE = contextvars.ContextVar("in_value_share", default=False)


def _worker_count() -> int:
    """The CPUs this process may run on, at most _MAX_WORKERS: the calling
    thread and the pool split a call's value blocks between them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _pool():
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                # imported here, as most runs never evaluate more than one
                # block
                from concurrent.futures import ThreadPoolExecutor
                _POOL = ThreadPoolExecutor(max(1, _worker_count() - 1),
                                           thread_name_prefix="curvesgd-values")
    return _POOL


def _drop_pool():
    # the parent's lock may have been held by a thread the child lacks
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


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
    # expm1(w) + expm1(-w) equals e^w + e^-w - 2 with full precision near 0
    return np.expm1(w) + np.expm1(-w) - w * w


def regularizer_G_value(w):
    """G(w) = sum_i (e^{w_i} + e^{-w_i} - 2 - w_i^2); nonnegative.

    Overflows to inf once some |w_i| passes about 709.78, where e^{|w_i|}
    leaves the float range. A 2-d input is treated as a batch of weight
    vectors (one per row) and yields one value per row.
    """
    return np.sum(_g_terms(np.asarray(w, dtype=float)), axis=-1)


def regularizer_G_gradient(w, out=None):
    """Component i of grad G is e^{w_i} - e^{-w_i} - 2 w_i.

    Written into out when it is given, an array of w's shape other than w;
    a 0-d w without out yields a float.
    """
    w = np.asarray(w, dtype=float)
    if out is not None:
        return _g_gradient(w, out, np.empty_like(w))
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
        """||W[k] - w_star||^2 for each row k, computed from W[k] alone."""
        diff = W - self.w_star
        return np.einsum("ij,ij->i", diff, diff)


class Objective:
    """Finite-sum objective F(w) = (1/n) sum_i f_i(w).

    Each component is base_i(w) + lam * reg(w): the regularizer is applied
    per component, so a stochastic gradient always carries the regularizer
    gradient. A loss supplies ``_gather``, which looks up the component data
    of some indices, two row-local hooks, ``_base_values(W, out, tmp)`` and
    ``_base_grad_gathered(data, W, out)``, and ``_base_smoothness``; every
    value and gradient of the public surface is built from them. The
    gradient kernel ``_grad_gathered(data, W, out, tmp)`` adds lam times
    the regularizer gradient in place. The engine gathers the data of many
    steps at once and calls the same kernel once per step, with buffers it
    reuses; grad_rows and gradient call it with fresh ones. The constants
    these paths multiply by are 0-d arrays made once. Instances are
    immutable after construction and safe to share across threads.
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
        self._lam = _constant(self.regularization_weight)

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

    def _base_grad_gathered(self, data: tuple, W: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
        """The (rows, d) matrix whose row k is grad base_i(W[k]) for the
        component i whose data is row k of each array of data, computed
        from that data and W[k] alone: written into out, an array of W's
        shape, or, when the gradient does not depend on W, an array of data
        returned as it is."""
        raise NotImplementedError

    def _base_smoothness(self) -> float:
        """Bound on the base component Hessian, valid everywhere."""
        raise NotImplementedError

    def _base_known_mu(self):
        return None

    # ----- regularizer terms ----------------------------------------------
    def _reg_grad_rows(self, W: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
        # the regularizer gradient at each row of W, written into out, or W
        # itself for norm2_squared, which callers scale into their own
        # array; scratch, of W's shape and distinct from out, may be
        # overwritten
        kind = self.regularizer
        if kind == "norm2_squared":
            return W
        if kind == "exp_cosh_G":
            return _g_gradient(W, out, scratch)
        # a zero row of norm2 takes the subgradient 0, valid at the kink
        out.fill(0.0)
        if kind == "norm2":
            nrm = np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]
            np.divide(W, nrm, out=out, where=nrm != 0.0)
        return out

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
        return self._grad_gathered(self._gather(idx), W, np.empty(W.shape),
                                   np.empty(W.shape))

    def _grad_gathered(self, data, W, out, tmp):
        # grad_rows on data _gather has looked up and W it has validated:
        # out, or what the loss returned when no regularizer term is added;
        # tmp is scratch of W's shape. The engine calls this once per step,
        # with buffers it reuses.
        if not self.regularization_weight:
            return self._base_grad_gathered(data, W, out)
        # lam times the regularizer term goes into tmp first, with out as
        # its scratch, and the loss's gradient into out after it
        np.multiply(self._reg_grad_rows(W, tmp, out), self._lam, tmp)
        return np.add(self._base_grad_gathered(data, W, out), tmp, out)

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
        in blocks of about _BLOCK_TERMS (row, component) terms, and a call of
        several blocks runs them on every CPU the process may use; the bits
        do not depend on how many there are.
        """
        W, _ = self._rows(W)
        return self._block_values(W, None)

    def _block_values(self, W, idx):
        # blocks of rows, each a (rows, n) array of base values reduced to
        # the component idx[k] of each row, or to the row mean when idx is
        # None; a call of several blocks splits them into one contiguous
        # share per worker, the calling thread taking the first. A share
        # writes only its own rows of out, from their own weights, so the
        # bits do not depend on the number of workers.
        out = np.empty(W.shape[0])
        rows = max(1, _BLOCK_TERMS // self.component_count)
        blocks = -(-W.shape[0] // rows)
        shares = 1 if blocks < 2 or _IN_SHARE.get() else min(blocks, _worker_count())
        if shares < 2:
            self._value_share(W, idx, out, rows, 0, W.shape[0])
            return out
        cuts = [rows * (blocks * k // shares) for k in range(shares)] + [W.shape[0]]
        # numpy's errstate lives in a context variable, so every share runs
        # in a copy of the caller's context
        pending = [_pool().submit(contextvars.copy_context().run,
                                  self._pool_share, W, idx, out, rows, lo, hi)
                   for lo, hi in zip(cuts[1:-1], cuts[2:])]
        try:
            self._value_share(W, idx, out, rows, 0, cuts[1])
        finally:
            # the shares write into out: let each finish before leaving
            for future in pending:
                future.exception()
        for future in pending:
            future.result()
        return out

    def _pool_share(self, *args):
        _IN_SHARE.set(True)
        self._value_share(*args)

    def _value_share(self, W, idx, out, rows, start, stop):
        # rows start:stop of out, one block of at most `rows` rows at a
        # time, in two scratch arrays reused across the share's blocks
        n = self.component_count
        base = np.empty((min(rows, stop - start), n))
        tmp = np.empty(base.shape)
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            if hi - lo < base.shape[0]:  # the share's last, shorter block
                base, tmp = base[: hi - lo], tmp[: hi - lo]
            block = W[lo:hi]
            vals = out[lo:hi]
            self._base_values(block, base, tmp)
            if idx is None:
                base.sum(axis=1, out=vals)
                vals /= n
            else:
                vals[:] = base[np.arange(hi - lo), idx[lo:hi]]
            if self.regularization_weight:
                vals += self.regularization_weight * self._reg_value_rows(block)

    def value(self, w) -> float:
        """F(w), computed as the one-row case of value_many, straight
        through its block loop."""
        W, _ = self._rows(np.asarray(w, dtype=float)[None])
        out = np.empty(1)
        self._value_share(W, None, out, 1, 0, 1)
        return float(out[0])

    def gradient(self, w) -> np.ndarray:
        """grad F(w): the mean of the component gradients at w, summed over
        blocks of components like the rows of value_many."""
        W, _ = self._rows(np.asarray(w, dtype=float)[None])
        n, d = self.component_count, self.dimension
        rows = max(1, _BLOCK_TERMS // d)
        total = np.zeros(d)
        for lo in range(0, n, rows):
            idx = np.arange(lo, min(lo + rows, n))
            block = W.repeat(idx.size, axis=0)
            total += self._base_grad_gathered(
                self._gather(idx), block, np.empty(block.shape)).sum(axis=0)
        g = total / n
        if self.regularization_weight:
            # every component carries the same regularizer gradient
            reg = self._reg_grad_rows(W, np.empty(W.shape),
                                      np.empty(W.shape))[0]
            g = g + self.regularization_weight * reg
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

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._neg_yX_T, out=out)
        _softplus_inplace(out, tmp)

    def _gather(self, idx):
        return (self._yX[idx],)

    def _base_grad_gathered(self, data, W, out):
        yXi, = data
        s = _sigmoid_neg(np.einsum("ij,ij->i", yXi, W))
        return np.multiply(np.negative(s, s)[:, None], yXi, out)

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

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._XT, out=out)
        np.subtract(out, self.y, out=out)
        np.multiply(out, out, out=out)

    def _gather(self, idx):
        return self.X[idx], self.y[idx]

    def _base_grad_gathered(self, data, W, out):
        Xi, yi = data
        r = np.einsum("ij,ij->i", Xi, W)
        np.subtract(r, yi, r)
        np.add(r, r, r)
        return np.multiply(r[:, None], Xi, out)

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

    def _base_values(self, W, out, tmp):
        np.einsum("kj,ji->ki", W, self._CT, out=out)

    def _gather(self, idx):
        return (self.C[idx],)

    def _base_grad_gathered(self, data, W, out):
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
        self._mu = _constant(mu)
        self.centers = centers

    def _base_values(self, W, out, tmp):
        D = W[:, None, :] - self.centers
        np.einsum("kij,kij->ki", D, D, out=out)
        out *= 0.5 * self.mu

    def _gather(self, idx):
        return (self.centers[idx],)

    def _base_grad_gathered(self, data, W, out):
        centers, = data
        np.subtract(W, centers, out)
        return np.multiply(out, self._mu, out)

    def _base_smoothness(self):
        return self.mu

    def _base_known_mu(self):
        return self.mu


class CallableObjective(Objective):
    """Components given directly as (value, gradient) callables.

    Handy for one-off test objectives such as F(w) = w^4 in one dimension.
    The callables take one weight vector, so the row hooks loop over rows;
    a value call of several blocks calls them from several threads at once.
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

    def _base_grad_gathered(self, data, W, out):
        idx, = data
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
