"""Curvature gauges and what they buy.

The central object is a one-parameter family of increasing concave gauges
omega_{h,r,mu,tau} used to convert a function-value gap into a squared
distance bound: omega(F(w) - F*) >= ||w - w*||^2. The gauge is

    omega(x) = tau + (2/(mu h)) (x/r)^h          for x <= r,

continued above r by its tangent line. r = inf means the power law applies
everywhere, with r^h absorbed into mu (i.e. treated as 1). From a gauge we
derive

* v(eta): the contraction factor earned by step size eta, defined through
  the inverse of x -> omega(x)/omega'(x) - x,
* c_alpha: the doubling constant sup_e inf_x omega(2x)/omega(x),
* estimate_delta: an empirical majorant of the gap-to-distance profile of
  an objective, whose log-log slope estimates the curvature exponent h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import objectives
from .objectives import REGION_RADIUS

# (sample, coordinate) terms per block of estimate_delta's draw: 4 MB, two
# blocks of 100,000 samples at d = 10. Smaller blocks make more value_many
# calls, and each call of several value blocks on two or more CPUs starts a
# helper thread for the second half of its value blocks.
_SAMPLE_TERMS = 8 * objectives._BLOCK_TERMS


@dataclass(frozen=True)
class OmegaSpec:
    """Parameters (h, r, mu, tau) of one gauge or, as arrays that broadcast
    against the input, of a batch of gauges for omega_eval, omega_derivative,
    v_numeric, c_alpha and c_alpha_brute."""

    h: float
    r: float = math.inf
    mu: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        # asarray(...).all() reduces a scalar's bool and a batch's array alike
        if not np.asarray((0.0 < self.h) & (self.h <= 1.0)).all():
            raise ValueError("h must lie in (0, 1]")
        if not np.asarray(self.r > 0.0).all():
            raise ValueError("r must be positive (math.inf allowed)")
        if not np.asarray((0.0 < self.mu) & (self.mu < math.inf)).all():
            raise ValueError("mu must be positive and finite")
        if not np.asarray((0.0 <= self.tau) & (self.tau < math.inf)).all():
            raise ValueError("tau must be nonnegative and finite")

    @property
    def beta(self) -> float:
        """(mu/2) h^-h (1-h)^-(1-h) r^h, with 0^0 = 1 and r^h -> 1 at r = inf."""
        h = self.h
        r_pow = 1.0 if math.isinf(self.r) else self.r ** h
        return 0.5 * self.mu * h ** (-h) * (1.0 - h) ** (-(1.0 - h)) * r_pow


def _like(out, x):
    """A float for a 0-d x and one gauge. A 0-d x runs as a one-entry array:
    numpy scalars take their own power routine, with other last bits."""
    return out.item() if np.ndim(x) == 0 and out.size == 1 else out


def _omega_core(spec: OmegaSpec):
    """The one home of omega and omega': gauge-only constants, made once, and a map
    from a checked array x to (omega(x), omega'(x)), None for a part not asked for.
    A call makes x/r (one entry at least, see _like) and the mask x <= r once, into
    two full-size buffers at most, and the tangent line only above r, lest it overflow."""
    r = np.where(np.isinf(spec.r), 1.0, spec.r)  # r = inf is taken as 1
    scale, slope = 2.0 / (spec.mu * spec.h), 2.0 / (spec.mu * r)
    knee, tangent, h1 = spec.tau + scale, 2.0 / spec.mu, spec.h - 1.0

    def core(x, value=True, derivative=False):
        z = np.empty(np.broadcast(x, spec.h, spec.r, spec.mu, spec.tau).shape or (1,))
        np.divide(x, r, out=z)
        above, w = ~(x <= spec.r), None
        if value:
            w = z ** spec.h
            w *= scale
            w += spec.tau
            np.subtract(z, 1.0, out=w, where=above)  # tau + 2/(mu h) + (2/mu)(z - 1)
            np.multiply(w, tangent, out=w, where=above)
            np.add(w, knee, out=w, where=above)
        if derivative:
            z **= h1
            z *= slope
            np.copyto(z, slope, where=above)
        return w, (z if derivative else None)
    return core


def omega_eval(spec: OmegaSpec, x):
    """omega(x) for scalar or array x >= 0."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if (xa < 0.0).any():
        raise ValueError("omega is defined for x >= 0")
    return _like(_omega_core(spec)(xa)[0], x)


def omega_derivative(spec: OmegaSpec, x):
    """omega'(x) for x > 0; continuous across the breakpoint at r."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if (xa <= 0.0).any():
        raise ValueError("omega' is defined for x > 0")
    return _like(_omega_core(spec)(xa, value=False, derivative=True)[1], x)


def v_closed_form(spec: OmegaSpec, eta):
    """Closed form of the contraction map v, for a scalar or an array of eta.

    v(eta) = beta h eta^{1-h}. Limits: h = 1 gives the constant (mu/2) r
    (or mu/2 at r = inf). There is no closed form for tau > 0.
    """
    ea = np.atleast_1d(np.asarray(eta, dtype=float))
    if not np.all((0.0 < ea) & (ea <= spec.r)):
        raise ValueError("eta must lie in (0, r]")
    if spec.tau != 0.0:
        raise ValueError("no closed form for tau > 0; use v_numeric")
    return _like(spec.beta * spec.h * ea ** (1.0 - spec.h), eta)


def v_numeric(spec: OmegaSpec, eta):
    """Invert eta = omega(x)/omega'(x) - x by bisection and return 1/omega'(x),
    for a scalar or an array of eta.

    All eta of all gauges are bisected at once on s = log x, by 64 halvings
    of [-700, 700] (r = inf) or [-700, log r]. For finite r the map
    saturates at x = r, to which eta up to 1e-9 past saturation is taken;
    eta beyond is rejected. At h = 1 the map is constant, and v is its limit
    value, which every x gives.
    """
    ea = np.atleast_1d(np.asarray(eta, dtype=float))
    if not np.all(ea > 0.0):
        raise ValueError("eta must be positive")
    bisect, r_inf, core = np.less(spec.h, 1.0), np.isinf(spec.r), _omega_core(spec)

    def step_gap(x):
        x = np.where(bisect, x, 1.0)  # a constant map is probed at x = 1
        w, d = core(x, derivative=True)
        return np.subtract(np.divide(w, d, out=w), x, out=w)

    x_top = np.where(r_inf, math.exp(700.0), spec.r)
    bottom, top = step_gap(math.exp(-700.0)), step_gap(x_top)
    outside = bisect & ((ea < bottom) | (ea > top * np.where(r_inf, 1.0, 1.0 + 1e-9)))
    if np.any(outside):
        e, b, t = (np.broadcast_to(v, outside.shape)[outside][0] for v in (ea, bottom, top))
        raise ValueError("eta=%g lies outside the range [%g, %g] of the step map" % (e, b, t))
    # a gauge's brackets [lo, lo + 2 half] share their bounds, so one half-width
    # per gauge; math.log (exactly 700 at e^700), as np.log can differ in the last bit
    lo = np.full(outside.shape, -700.0)
    half = 0.5 * (np.vectorize(math.log)(x_top) + 700.0)
    for _ in range(64):
        mid = lo + half
        lo = np.where(step_gap(np.exp(mid)) < ea, mid, lo)
        half *= 0.5
    # only a finite r (or h = 1) lets eta pass top
    x = np.where(ea > top, spec.r, np.exp(lo + half))
    return _like(1.0 / omega_derivative(spec, x), eta)


def c_alpha(spec: OmegaSpec, alpha):
    """Doubling constant of the gauge at scale alpha, 0 < alpha <= r/2.

    Closed form 1 + (2^h - 1) / ((mu h tau / 2)(r/alpha)^h + 1); for tau = 0
    this is 2^h.
    """
    _validate_alpha(spec, alpha)
    h = spec.h
    # r^h absorbed at r = inf, so (r/alpha)^h -> alpha^-h
    ratio_pow = np.where(np.isinf(spec.r), alpha ** (-h), (spec.r / alpha) ** h)
    out = 1.0 + (2.0 ** h - 1.0) / (0.5 * spec.mu * h * spec.tau * ratio_pow + 1.0)
    return _like(out, alpha)


def c_alpha_brute(spec: OmegaSpec, alpha):
    """Brute-force doubling constant on a log grid of 4000 points.

    Evaluates sup over e >= alpha of inf over x in [alpha, e] of
    omega(2x)/omega(x), with alpha included in the grid exactly. A batch
    takes an array of alpha; the grid runs along a new first axis.
    """
    _validate_alpha(spec, alpha)
    e_max = np.where(np.isinf(spec.r), 1e4 * alpha, np.maximum(10.0 * spec.r, 4.0 * alpha))
    grid = np.geomspace(alpha, e_max, 4000)
    grid[0] = alpha
    ratios = omega_eval(spec, 2.0 * grid)  # a fresh array, divided in place
    ratios /= omega_eval(spec, grid)
    return _like(np.minimum.accumulate(ratios, axis=0, out=ratios).max(axis=0), alpha)


def _validate_alpha(spec: OmegaSpec, alpha):
    if np.any(alpha <= 0.0):
        raise ValueError("alpha must be positive")
    if np.any(alpha > 0.5 * spec.r):
        raise ValueError("alpha must not exceed r/2")


# ---------------------------------------------------------------------------
# empirical curvature estimation


@dataclass(frozen=True)
class DeltaEstimate:
    """Result of estimate_delta.

    rho_values holds the raw per-level maxima (NaN where a band was empty);
    delta_values is their least concave nondecreasing majorant through the
    origin. fitted_h is the least-squares log-log slope over the lowest
    populated grid decade.
    """

    epsilon_grid: np.ndarray
    rho_values: np.ndarray
    delta_values: np.ndarray
    fitted_h: float
    band_counts: np.ndarray


def _upper_concave_majorant(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Least concave majorant through (0, 0) of the finite (xs, ys) points,
    evaluated at every xs, then made nondecreasing by a running maximum."""
    finite = np.isfinite(ys)
    if not np.any(finite):
        raise ValueError("no level set produced a finite value")
    pts = [(0.0, 0.0)] + sorted(zip(xs[finite], ys[finite]))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point lies on or below the chord
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0.0:
                hull.pop()
            else:
                break
        # keep x strictly increasing; on ties keep the larger y
        if hull and p[0] == hull[-1][0]:
            if p[1] > hull[-1][1]:
                hull[-1] = p
            continue
        hull.append(p)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    vals = np.interp(xs, hx, hy)
    return np.maximum.accumulate(vals)


def _fit_low_decade_slope(eps: np.ndarray, delta: np.ndarray) -> float:
    good = np.isfinite(delta) & (delta > 0.0) & (eps > 0.0)
    if np.count_nonzero(good) < 2:
        return math.nan
    e = eps[good]
    d = delta[good]
    lo = e.min()
    span = 10.0
    for _ in range(12):
        mask = e <= lo * span * (1.0 + 1e-12)
        if np.count_nonzero(mask) >= 8 or np.all(mask):
            break
        span *= 10.0
    slope = np.polyfit(np.log(e[mask]), np.log(d[mask]), 1)[0]
    return float(slope)


def _positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise ValueError("%s must be an integer of at least 1, got %r"
                         % (name, value))
    return int(value)


def estimate_delta(a, b, dimension: int, grid=None, n_samples: int = 100_000,
                   seed: int = 0) -> DeltaEstimate:
    """Empirical gap-to-distance majorant of the maps a(w) = F(w) - F_min
    and b(w) = ||w - w_star||^2, each taking a (rows, d) array to a (rows,)
    array.

    Samples w uniformly over the REGION_RADIUS box in the given dimension,
    bins the samples into relative bands |a(w) - eps| <= 0.02 eps around
    each grid value, records the per-band maximum of b(w), and returns the
    least concave nondecreasing majorant of those maxima. Empty bands are
    reported (NaN rho, zero count), not fatal.

    The samples are the bits of default_rng(seed).uniform over an
    (n_samples, dimension) array, drawn in consecutive blocks of rows into
    one reused buffer of at most _SAMPLE_TERMS terms, so no sample-size
    matrix is held. a and b see each block in turn; they must compute each
    row from that row alone and must not keep the block, which the next
    draw overwrites. dimension and n_samples must be integers of at least 1.
    """
    dimension = _positive_int("dimension", dimension)
    n_samples = _positive_int("n_samples", n_samples)
    # one block of rows at a time into one reused buffer: U * 2R - R is the
    # formula of rng.uniform(-R, R), and rng.random fills the blocks from
    # the same stream, so the points are the bits of one uniform draw
    rng = np.random.default_rng(seed)
    blocks = objectives._row_blocks(n_samples, dimension, _SAMPLE_TERMS)
    block = np.empty((blocks[0][1], dimension))
    av = np.empty(n_samples)
    bv = np.empty(n_samples)
    for lo, hi in blocks:
        W = block[: hi - lo]
        rng.random(out=W)
        W *= 2.0 * REGION_RADIUS
        W -= REGION_RADIUS
        av[lo:hi] = a(W)
        bv[lo:hi] = b(W)
    # freed before the gaps are sorted
    del block, W
    if grid is None:
        pos = av[av > 0.0]
        if pos.size == 0:
            raise ValueError("no sample produced a positive gap value")
        grid = np.geomspace(*np.quantile(pos, [0.001, 0.999]), 48)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be positive and strictly increasing")
    rho = np.full(grid.size, math.nan)
    counts = np.zeros(grid.size, dtype=int)
    # sorted once, NaN last; each band's members lie well inside the window
    # eps +- 2 tol, where the exact test |av - eps| <= tol picks them out
    order = np.argsort(av)
    av, bv = av[order], bv[order]
    tol = 0.02 * grid
    lows = av.searchsorted(grid - 2.0 * tol)
    highs = av.searchsorted(grid + 2.0 * tol, side="right")
    for k, (eps, lo, hi) in enumerate(zip(grid, lows, highs)):
        mask = np.abs(av[lo:hi] - eps) <= tol[k]
        counts[k] = int(np.count_nonzero(mask))
        if counts[k]:
            rho[k] = float(bv[lo:hi][mask].max())
    delta = _upper_concave_majorant(grid, rho)
    fitted = _fit_low_decade_slope(grid, delta)
    return DeltaEstimate(
        epsilon_grid=grid,
        rho_values=rho,
        delta_values=delta,
        fitted_h=fitted,
        band_counts=counts,
    )


def fit_curvature(objective, reference, seed: int = 0) -> float:
    """Estimate the curvature exponent h of an objective, clamped to [0, 1].

    The gaps F(w) - F_min and ||w - w_star||^2 are measured against the
    given reference, at 100,000 points drawn from the REGION_RADIUS box in
    estimate_delta's blocks, one value_many and one squared_distance call
    per block, so memory stays within a block and the per-sample gaps. The
    estimate is the log-log slope of the empirical delta majorant near
    zero, so delta(eps) ~ eps^h by construction: a strongly convex quadratic
    yields h near 1, a quartic-bottomed objective h near 1/2. The slope is
    invariant under rescaling of the objective, up to sampling noise.
    """
    est = estimate_delta(lambda W: objective.value_many(W) - reference.f_min,
                         reference.squared_distance, objective.dimension,
                         seed=seed)
    if math.isnan(est.fitted_h):
        raise ValueError("curvature fit failed: empty delta profile")
    return min(1.0, max(0.0, est.fitted_h))
