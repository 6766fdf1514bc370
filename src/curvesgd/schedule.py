"""Step-size schedules and the decay envelope they earn.

Three schedule kinds share one spec type, each one row of _KINDS (its text
form, constructor, step map and closed forms):

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
from dataclasses import dataclass, field

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""


@dataclass(frozen=True)
class ScheduleSpec:
    """One step-size schedule. Use the classmethod constructors."""

    kind: str
    eta: float = math.nan        # constant
    scale: float = math.nan      # power_law
    h: float = math.nan          # power_law, curvature_matched
    beta: float = math.nan       # curvature_matched
    L: float = math.nan          # curvature_matched
    r: float = math.inf          # curvature_matched

    @classmethod
    def constant(cls, eta: float) -> "ScheduleSpec":
        if not (0.0 < eta < math.inf):
            raise ValueError("constant step size must be positive and finite")
        return cls(kind="constant", eta=float(eta))

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
        spec = cls(kind="curvature_matched", h=float(h), beta=float(beta),
                   L=float(L), r=float(r))
        if not (0.0 < spec.delta < math.inf and 0.0 < step_size(spec, 0.0) < math.inf):
            raise ValueError("delta = %r: beta, L and r must give a positive, finite "
                             "delta and first step" % spec.delta)
        try:  # raises where beta h underflows to 0 or the power overflows
            in_range = 0.0 < spec.envelope_constant < math.inf
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise ValueError("beta = %r, h = %r: the envelope constant (2/(beta h))"
                             "^(2/(2-h)) overflows or underflows" % (spec.beta, spec.h))
        return spec

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
    if not (ta >= 0).all():
        raise ValueError("t must be nonnegative")
    out = _step_map(spec)(ta)
    return float(out[0]) if np.ndim(t) == 0 else out


def _step_map(spec: ScheduleSpec):
    """Build the step map of spec's row: float times t >= 0, unchecked, to steps."""
    return _KINDS[spec.kind].step_map(spec)


def _matched_steps(spec: ScheduleSpec):
    p = -1.0 / (2.0 - spec.h)
    k = (2.0 / (spec.beta * (2.0 - spec.h))) ** (1.0 / (2.0 - spec.h))
    delta = spec.delta
    return lambda t: k * (t + delta) ** p


def schedule_v(spec: ScheduleSpec):
    """The contraction map v(eta) = beta h eta^{1-h} of a matched schedule."""
    own = _KINDS[spec.kind].v  # None in the other kinds' rows
    if own is None:
        raise ValueError("operation requires a curvature_matched schedule, got "
                         + spec.kind)
    return own(spec)


# ---------------------------------------------------------------------------
# quadrature on a log grid: x = exp(s) - 1 with s evenly spaced on [0, log1p(t)],
# halved from 2^6 to 2^21 intervals. Each level gives a rule's trapezoid value T
# and its Richardson value R = T + (T - T_prev) / 3, of composite Simpson accuracy
# on the same nodes. A rule stops at the first level where its T or its R agrees
# with the previous level's to QUAD_TOL, and returns the value that agreed (T if
# both). On a smooth integrand R agrees levels earlier; where the integrand has a
# kink (a power law's clamp at t = 1) R gains little, the T test usually stops
# first and the value keeps the plain trapezoid's bits. Rules refined together
# share each node; each stops at its own level.

QUAD_TOL = 1e-8
QUAD_LEVELS = range(6, 22)


def _trapezoid(values, ds: float) -> float:
    return float((0.5 * (values[0] + values[-1]) + values[1:-1].sum()) * ds)


def _M_rule(ds, n, g, jac) -> float:
    return _trapezoid(g, ds)


def _C_rule(ds, n, g, jac) -> float:
    cum = np.empty_like(g)
    cum[0] = 0.0
    np.cumsum(0.5 * (g[1:] + g[:-1]) * ds, out=cum[1:])
    return _trapezoid(np.exp(cum - cum[-1]) * n * n * jac, ds)


def _log_grid_quadrature(spec: ScheduleSpec, v, t: float, rules) -> list:
    """The values of rules, each rule(ds, n, g, jac) refined over log grids on
    [0, t]: n holds the step sizes at the nodes, jac = dx/ds = exp(s) and
    g = n v(n) jac is M's integrand in s. Each rule's value is the trapezoid
    or Richardson value that first agreed with its predecessor (see above).
    Each halving evaluates only the new midpoints; v = None takes the matched
    schedule's own map."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    if t == 0.0:
        return [0.0] * len(rules)
    v = schedule_v(spec) if v is None else v  # raises for kinds without one
    smax = math.log1p(t)
    step = _step_map(spec)

    def nodes(s, out):  # s >= 0, so every expm1(s) is a valid time
        jac = np.exp(s)
        n = step(np.expm1(s))
        out[0], out[1], out[2] = n, n * np.asarray(v(n), dtype=float) * jac, jac

    m = 2 ** QUAD_LEVELS[0]
    grid = np.empty((3, m + 1))
    nodes(np.linspace(0.0, smax, m + 1), grid)
    values = [rule(smax / m, *grid) for rule in rules]
    richardson = [math.inf] * len(rules)  # none before the second level
    pending = list(range(len(rules)))
    for _ in QUAD_LEVELS[1:]:
        m *= 2
        finer = np.empty((3, m + 1))
        finer[:, 0::2] = grid
        # odd k of k * (smax / m), the nodes np.linspace(0, smax, m + 1) gives
        nodes(np.arange(1, m, 2) * (smax / m), finer[:, 1::2])
        grid = finer
        for k in list(pending):
            prev, values[k] = values[k], rules[k](smax / m, *grid)
            prev_r, richardson[k] = richardson[k], values[k] + (values[k] - prev) / 3.0
            if abs(values[k] - prev) <= QUAD_TOL:
                pending.remove(k)
            elif abs(richardson[k] - prev_r) <= QUAD_TOL:
                values[k] = richardson[k]
                pending.remove(k)
        if not pending:
            return values
    raise QuadratureError("log-grid trapezoid did not converge "
                          "(max %d intervals)" % m)


def M_of_t(spec: ScheduleSpec, t: float, v=None, quadrature: bool = False) -> float:
    """M(t) = integral over [0, t] of n(x) v(n(x)) dx; M(0) = 0.

    v may be omitted for a matched schedule (its own power-law map is used).
    The closed forms, each kind's M in _KINDS, are the matched one with the
    built-in v and the constant one with any v; every other case, and
    quadrature=True, takes the log-grid quadrature at a finite t: the
    trapezoid or Richardson value that first agrees with the previous
    level's to QUAD_TOL. It may share its refinement with C's rule, and it
    stops at its own level there, with the value it has alone.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    kind = _KINDS[spec.kind]
    vv = schedule_v(spec) if v is None else v  # raises for kinds without one
    if not quadrature and kind.M is not None and (v is None or kind.v is None):
        return kind.M(spec, t, vv)
    return _log_grid_quadrature(spec, vv, t, (_M_rule,))[0]


def C_of_t(spec: ScheduleSpec, t: float, v=None) -> float:
    """C(t) = exp(-M(t)) * integral over [0, t] of exp(M(x)) n(x)^2 dx.

    Always computed by quadrature at a finite t (M by a cumulative trapezoid
    on the same log grid, in a refinement it may share with M's own), so it
    is an independent check of the closed-form envelope. Like M, it is the
    trapezoid or Richardson value of C that first agrees with the previous
    level's to the absolute QUAD_TOL.
    """
    return _log_grid_quadrature(spec, v, t, (_C_rule,))[0]


def c_bar(spec: ScheduleSpec, t: float) -> float:
    """Closed-form envelope C_bar(t) = c (t + delta)^{-h/(2-h)}."""
    if not t >= 0:
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


@dataclass(frozen=True)
class _Kind:
    """One schedule kind; None where it has no closed form."""

    tag: str  # `<tag>:<fields>`
    fields: tuple  # in text order, named as in the constructor and the spec
    bare: bool  # the body is the one field's bare value, as in const:0.01
    build: object  # the ScheduleSpec constructor, which checks the ranges
    step_map: object  # spec -> map from a float array of times t >= 0 to steps
    M: object = None  # (spec, t, v) -> M(t), for the own v if any, else any v
    v: object = None  # spec -> the kind's own contraction map
    columns: dict = field(default_factory=dict)  # `schedule` column -> f(spec, t)


_KINDS = {
    "constant": _Kind(
        tag="const", fields=("eta",), bare=True, build=ScheduleSpec.constant,
        step_map=lambda spec: lambda t: np.full(t.shape, spec.eta),
        M=lambda spec, t, v: t * spec.eta * float(v(spec.eta))),
    "power_law": _Kind(
        tag="power", fields=("scale", "h"), bare=False, build=ScheduleSpec.power_law,
        step_map=lambda spec: lambda t: spec.scale * np.maximum(t, 1.0) ** (
            -1.0 / (2.0 - spec.h))),
    "curvature_matched": _Kind(
        tag="paper-opt", fields=("h", "beta", "L", "r"), bare=False,
        build=ScheduleSpec.curvature_matched, step_map=_matched_steps,
        M=lambda spec, t, v: (2.0 * spec.h / (2.0 - spec.h)) * (
            math.log(t + spec.delta) - math.log(spec.delta)),
        v=lambda spec: lambda e: spec.beta * spec.h * np.asarray(e, dtype=float) ** (
            1.0 - spec.h),
        columns={"M": M_of_t, "exp_neg_M": exp_neg_M, "C": C_of_t, "C_bar": c_bar}),
}


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


def format_schedule(spec: ScheduleSpec) -> str:
    """Canonical text form; floats use repr so parsing is bit-exact."""
    kind = _KINDS[spec.kind]
    if kind.bare:
        return "%s:%r" % (kind.tag, getattr(spec, kind.fields[0]))
    return "%s:%s" % (kind.tag, ",".join("%s=%r" % (name, getattr(spec, name))
                                         for name in kind.fields))


def parse_schedule(text: str) -> ScheduleSpec:
    """Parse the compact text form `<tag>:<fields>` of a row of _KINDS:

    const:0.01
    power:scale=0.1,h=0.25
    paper-opt:h=0.5,beta=1.0,L=2.0,r=inf   (r is optional, default inf)

    Fields go through parse_fields after `schedule '<text>'`; the
    constructor of the tag's kind checks their ranges.
    """
    text = text.strip()
    where = "schedule %r" % (text,)
    tag, _, body = text.partition(":")
    kind = next((k for k in _KINDS.values() if k.tag == tag.strip()), None)
    if kind is None:
        raise ValueError("%s: unknown kind %r" % (where, tag.strip()))
    if kind.bare:
        entries = [(where + ": ", kind.fields[0], body.strip())]
    else:
        entries = comma_entries(body, where)
    values = parse_fields(entries, dict.fromkeys(kind.fields, float),
                          where, optional=("r",))
    return kind.build(**values)
