"""Step-size schedules and the decay envelope they earn.

Three schedule kinds share one spec type:

* constant: eta_t = eta,
* power_law: eta_t = scale / t^{1/(2-h)} for t >= 1 (the experiment grid),
* curvature_matched: eta_t = (2/(beta (2-h)))^{1/(2-h)} (t + delta)^{-1/(2-h)}
  with delta chosen so the first step is eta_0 = min(1/(2L), r)^{1/(2-h)},
  which equals the cap min(1/(2L), r) only at h = 1 or when the cap is 1;
  the decay exponent is the one the contraction map v(eta) = beta h eta^{1-h}
  rewards with the fastest rate envelope.

For a schedule n(t) and contraction map v, the envelope machinery exposes
M(t) = integral of n v(n), the variance integral C(t), and for the matched
schedule the closed-form majorant C_bar(t) = c (t + delta)^{-h/(2-h)} that
solves C_bar = 2 sqrt(-C_bar') / v(sqrt(-C_bar')) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""


@dataclass(frozen=True)
class ScheduleSpec:
    """One step-size schedule. Use the classmethod constructors."""

    kind: str
    eta0: float = math.nan       # constant
    scale: float = math.nan      # power_law
    h: float = math.nan          # power_law, curvature_matched
    beta: float = math.nan       # curvature_matched
    L: float = math.nan          # curvature_matched
    r: float = math.inf          # curvature_matched

    @classmethod
    def constant(cls, eta: float) -> "ScheduleSpec":
        if not (0.0 < eta < math.inf):
            raise ValueError("constant step size must be positive and finite")
        return cls(kind="constant", eta0=float(eta))

    @classmethod
    def power_law(cls, scale: float, h: float) -> "ScheduleSpec":
        if not (0.0 < scale < math.inf):
            raise ValueError("scale must be positive and finite")
        if not (0.0 <= h <= 1.0):
            raise ValueError("power_law exponent parameter h must lie in [0, 1]")
        return cls(kind="power_law", scale=float(scale), h=float(h))

    @classmethod
    def curvature_matched(cls, h: float, beta: float, L: float,
                          r: float = math.inf) -> "ScheduleSpec":
        if not (0.0 < h <= 1.0):
            raise ValueError("h must lie in (0, 1]")
        if not (0.0 < beta < math.inf):
            raise ValueError("beta must be positive and finite")
        if not (0.0 < L < math.inf):
            raise ValueError("L must be positive and finite")
        if not (r > 0.0):
            raise ValueError("r must be positive (math.inf allowed)")
        return cls(kind="curvature_matched", h=float(h), beta=float(beta),
                   L=float(L), r=float(r))

    @property
    def delta(self) -> float:
        """Time shift 2 max(2L, 1/r) / (beta (2-h)) of the matched schedule."""
        self._require("curvature_matched")
        cap = max(2.0 * self.L, 0.0 if math.isinf(self.r) else 1.0 / self.r)
        return 2.0 * cap / (self.beta * (2.0 - self.h))

    @property
    def envelope_constant(self) -> float:
        """Constant c with C_bar(t) = c (t + delta)^{-h/(2-h)}.

        c = (h/(2-h))^{h/(2-h)} (2/(beta h))^{2/(2-h)}, which is the unique
        constant making C_bar solve the envelope equation with
        v(eta) = beta h eta^{1-h}.
        """
        self._require("curvature_matched")
        h = self.h
        p = h / (2.0 - h)
        return p ** p * (2.0 / (self.beta * h)) ** (2.0 / (2.0 - h))

    def _require(self, kind: str):
        if self.kind != kind:
            raise ValueError("operation requires a %s schedule, got %s"
                             % (kind, self.kind))


def step_size(spec: ScheduleSpec, t):
    """Step size used at iteration (or real time) t >= 0.

    power_law schedules start at t = 1, so below 1 they are frozen at
    their t = 1 value: iteration 0 takes the t = 1 step. A scalar t runs
    as a one-entry array, so it gets the bits of the engine's step at t.
    """
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ta < 0):
        raise ValueError("t must be nonnegative")
    if spec.kind == "constant":
        out = np.broadcast_to(np.float64(spec.eta0), ta.shape).copy()
    elif spec.kind == "power_law":
        out = spec.scale * np.maximum(ta, 1.0) ** (-1.0 / (2.0 - spec.h))
    else:
        k = (2.0 / (spec.beta * (2.0 - spec.h))) ** (1.0 / (2.0 - spec.h))
        out = k * (ta + spec.delta) ** (-1.0 / (2.0 - spec.h))
    return float(out[0]) if np.ndim(t) == 0 else out


def schedule_v(spec: ScheduleSpec):
    """The contraction map v(eta) = beta h eta^{1-h} built into a matched
    schedule."""
    spec._require("curvature_matched")
    b, h = spec.beta, spec.h
    return lambda e: b * h * np.asarray(e, dtype=float) ** (1.0 - h)


# ---------------------------------------------------------------------------
# quadrature on a log grid: x = exp(s) - 1 with s evenly spaced on
# [0, log1p(t)], halved from 2^6 to 2^21 intervals until two successive
# trapezoid values agree to QUAD_TOL

QUAD_TOL = 1e-8
QUAD_LEVELS = range(6, 22)


def _trapezoid(values, ds: float) -> float:
    return float((0.5 * (values[0] + values[-1]) + values[1:-1].sum()) * ds)


def _log_grid_quadrature(spec: ScheduleSpec, v, t: float, rule) -> float:
    """Refine rule(ds, n, g, jac) over log grids on [0, t], where n holds
    the step sizes at the nodes, jac = dx/ds = exp(s) and g = n v(n) jac is
    the integrand of M in s. Each halving evaluates only the new midpoints;
    v = None takes the matched schedule's own map."""
    if t == 0.0:
        return 0.0
    if v is None:
        v = schedule_v(spec)  # raises for non-matched kinds
    smax = math.log1p(t)

    def nodes(s):
        jac = np.exp(s)
        n = step_size(spec, np.expm1(s))
        return np.stack((n, n * np.asarray(v(n), dtype=float) * jac, jac))

    m = 2 ** QUAD_LEVELS[0]
    grid = nodes(np.linspace(0.0, smax, m + 1))
    prev = rule(smax / m, *grid)
    for _ in QUAD_LEVELS[1:]:
        m *= 2
        finer = np.empty((3, m + 1))
        finer[:, 0::2] = grid
        # odd k of k * (smax / m), the nodes np.linspace(0, smax, m + 1) gives
        finer[:, 1::2] = nodes(np.arange(1, m, 2) * (smax / m))
        grid = finer
        val = rule(smax / m, *grid)
        if abs(val - prev) <= QUAD_TOL:
            return val
        prev = val
    raise QuadratureError("log-grid trapezoid did not converge "
                          "(max %d intervals)" % m)


def M_of_t(spec: ScheduleSpec, t: float, v=None, quadrature: bool = False) -> float:
    """M(t) = integral over [0, t] of n(x) v(n(x)) dx; M(0) = 0.

    v may be omitted for a matched schedule (its own power-law map is used).
    Closed forms exist for matched schedules with the built-in v and for
    constant schedules; every other case, and quadrature=True, takes the
    log-grid trapezoid.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    intrinsic = v is None
    vv = schedule_v(spec) if intrinsic else v  # raises for non-matched kinds
    if not quadrature:
        if spec.kind == "curvature_matched" and intrinsic:
            return (2.0 * spec.h / (2.0 - spec.h)) * (
                math.log(t + spec.delta) - math.log(spec.delta))
        if spec.kind == "constant":
            return t * spec.eta0 * float(vv(spec.eta0))
    return _log_grid_quadrature(spec, vv, t,
                                lambda ds, n, g, jac: _trapezoid(g, ds))


def C_of_t(spec: ScheduleSpec, t: float, v=None) -> float:
    """C(t) = exp(-M(t)) * integral over [0, t] of exp(M(x)) n(x)^2 dx.

    Always computed by quadrature (M by a cumulative trapezoid on the same
    log grid), so it provides an independent check of the closed-form
    envelope.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")

    def rule(ds, n, g, jac):
        cum = np.empty_like(g)
        cum[0] = 0.0
        np.cumsum(0.5 * (g[1:] + g[:-1]) * ds, out=cum[1:])
        return _trapezoid(np.exp(cum - cum[-1]) * n * n * jac, ds)

    return _log_grid_quadrature(spec, v, t, rule)


def c_bar(spec: ScheduleSpec, t: float) -> float:
    """Closed-form envelope C_bar(t) = c (t + delta)^{-h/(2-h)}."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    p = spec.h / (2.0 - spec.h)
    return spec.envelope_constant * (t + spec.delta) ** (-p)


def exp_neg_M(spec: ScheduleSpec, t: float) -> float:
    """exp(-M(t))."""
    return math.exp(-M_of_t(spec, t))


def ode_residual(spec: ScheduleSpec, t: float) -> float:
    """Residual C_bar(t) - 2 sqrt(-C_bar') / v(sqrt(-C_bar')) at time t.

    Also asserts that sqrt(-C_bar'(t)) reproduces the schedule's own step
    size to a relative 1e-10; a mismatch means the envelope constant is
    inconsistent with the schedule and raises ArithmeticError.
    """
    step = step_size(spec, t)  # raises for t < 0
    # sqrt(-C_bar'(t)) from the analytic derivative of the envelope, whose
    # constant raises for a schedule that is not matched
    p = spec.h / (2.0 - spec.h)
    n_hat = math.sqrt(spec.envelope_constant * p) \
        * (t + spec.delta) ** (-1.0 / (2.0 - spec.h))
    if abs(n_hat - step) > 1e-10 * step:
        raise ArithmeticError(
            "sqrt(-C_bar') = %.17g disagrees with eta_t = %.17g" % (n_hat, step)
        )
    v_val = float(schedule_v(spec)(n_hat))
    return c_bar(spec, t) - 2.0 * n_hat / v_val


def rate_bound(spec: ScheduleSpec, A: float, B: float, t: float) -> float:
    """Envelope bound A * C_bar(t) + B * exp(-M(t)) for a matched schedule."""
    if A < 0 or B < 0:
        raise ValueError("A and B must be nonnegative")
    return A * c_bar(spec, t) + B * exp_neg_M(spec, t)


def rate_bound_constants(spec: ScheduleSpec, noise_constant: float,
                         y0: float) -> tuple:
    """Constants (A, B) of the envelope bound for a run started at squared
    distance y0 on an objective with the given noise constant:
    A = (2N+1) exp(n(0)) and B = (2N+1) exp(M(1)) n(0)^2 + y0."""
    n0 = step_size(spec, 0.0)
    two_n1 = 2.0 * noise_constant + 1.0
    a = two_n1 * math.exp(n0)
    b = two_n1 * math.exp(M_of_t(spec, 1.0)) * n0 * n0 + y0
    return a, b


# ---------------------------------------------------------------------------
# text form

def parse_fields(entries, table, context: str, optional=()) -> dict:
    """The one key=value rule, shared by schedule text, `synth:` specs and
    runfiles: walk (prefix, key, text) entries against table (key -> value
    parser) and return key -> value. An unknown, repeated or unparsable key
    raises ValueError naming it after its entry's prefix (`line N: `, say);
    a key missing from entries, unless optional, is named after context."""
    values = {}
    for prefix, key, text in entries:
        if key not in table:
            raise ValueError("%sunknown key %r (expected %s)"
                             % (prefix, key, ", ".join(table)))
        if key in values:
            raise ValueError("%sduplicate key %r" % (prefix, key))
        try:
            values[key] = table[key](text)
        except ValueError as err:
            raise ValueError("%sbad %s value %r: %s"
                             % (prefix, key, text, err)) from None
    for key in table:
        if key not in values and key not in optional:
            raise ValueError("%s is missing key %r" % (context, key))
    return values


def comma_entries(body: str, context: str) -> list:
    """parse_fields entries of a `k=v,k=v` body, each prefixed by
    `<context>: `; blank items are skipped."""
    entries = []
    for item in filter(None, map(str.strip, body.split(","))):
        key, sep, text = item.partition("=")
        if not sep:
            raise ValueError("%s: expected key=value, got %r" % (context, item))
        entries.append((context + ": ", key.strip(), text.strip()))
    return entries


# schedule kind -> (text tag, fields in text order, named as in the kind's
# constructor); a const: body is the bare step, not eta=<step>
SCHEDULE_TEXT = {
    "constant": ("const", ("eta",)),
    "power_law": ("power", ("scale", "h")),
    "curvature_matched": ("paper-opt", ("h", "beta", "L", "r")),
}


def format_schedule(spec: ScheduleSpec) -> str:
    """Canonical text form; floats use repr so parsing is bit-exact."""
    tag, fields = SCHEDULE_TEXT[spec.kind]
    if spec.kind == "constant":
        return "%s:%r" % (tag, spec.eta0)
    return "%s:%s" % (tag, ",".join("%s=%r" % (field, getattr(spec, field))
                                    for field in fields))


def parse_schedule(text: str) -> ScheduleSpec:
    """Parse the compact text form `<tag>:<fields>` of SCHEDULE_TEXT:

    const:0.01
    power:scale=0.1,h=0.25
    paper-opt:h=0.5,beta=1.0,L=2.0,r=inf   (r is optional, default inf)

    Fields go through parse_fields after `schedule '<text>'`; the
    constructor of the tag's kind checks their ranges.
    """
    text = text.strip()
    where = "schedule %r" % (text,)
    tag, _, body = text.partition(":")
    kind = {t: k for k, (t, _) in SCHEDULE_TEXT.items()}.get(tag.strip())
    if kind is None:
        raise ValueError("%s: unknown kind %r" % (where, tag.strip()))
    if kind == "constant":
        entries = [(where + ": ", "eta", body.strip())]
    else:
        entries = comma_entries(body, where)
    values = parse_fields(entries, dict.fromkeys(SCHEDULE_TEXT[kind][1], float),
                          where, optional=("r",))
    return getattr(ScheduleSpec, kind)(**values)
