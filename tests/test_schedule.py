"""Step-size schedule math: closed forms, quadrature, envelopes, text form."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import curvesgd as cg
from curvesgd import cli, schedule
from curvesgd.schedule import _C_rule, _M_rule, _log_grid_quadrature


def matched(h, beta, L, r=math.inf):
    return cg.ScheduleSpec.curvature_matched(h=h, beta=beta, L=L, r=r)


def test_matched_linear_case_closed_form():
    # h = 1 with beta = mu/2 gives eta_t = 4 / (mu t + 8 L)
    mu, L = 2.0, 1.0
    spec = matched(1.0, mu / 2.0, L)
    for t in (0.0, 1.0, 10.0, 500.0):
        assert cg.step_size(spec, t) == pytest.approx(4.0 / (mu * t + 8.0 * L), rel=1e-13)


def test_matched_sqrt_case_closed_form():
    # h = 1/2 with beta = mu gives eta_t = (4 / (3 mu t + 8 L))^(2/3)
    mu, L = 1.0, 1.0
    spec = matched(0.5, mu, L)
    for t in (0.0, 2.0, 77.0):
        assert cg.step_size(spec, t) == pytest.approx(
            (4.0 / (3.0 * mu * t + 8.0 * L)) ** (2.0 / 3.0), rel=1e-13)


def test_initial_step_equals_clipped_inverse_smoothness():
    # eta_0 = min(1/(2L), r) ** (1/(2-h))
    spec = matched(0.5, 2.0, 4.0)
    assert cg.step_size(spec, 0.0) == pytest.approx(0.125 ** (2.0 / 3.0), rel=1e-13)
    clipped = matched(0.5, 2.0, 4.0, r=0.05)
    assert cg.step_size(clipped, 0.0) == pytest.approx(0.05 ** (2.0 / 3.0), rel=1e-13)
    linear = matched(1.0, 0.5, 1.0)
    assert cg.step_size(linear, 0.0) == pytest.approx(0.5, rel=1e-13)


def test_delta_shift():
    spec = matched(1.0, 1.0, 1.0)
    assert spec.delta == pytest.approx(4.0, rel=1e-13)
    finite_r = matched(0.5, 2.0, 0.001, r=0.1)
    # 1/r = 10 dominates 2L = 0.004
    assert finite_r.delta == pytest.approx(2.0 * 10.0 / (2.0 * 1.5), rel=1e-13)


def test_eta_monotone_nonincreasing():
    for spec in (matched(1.0, 0.5, 2.0), matched(0.25, 1.0, 1.0),
                 cg.ScheduleSpec.power_law(0.1, 0.5)):
        ts = np.arange(1.0, 2000.0)
        vals = cg.step_size(spec, ts)
        assert np.all(np.diff(vals) <= 0)


def test_no_overflow_far_out():
    spec = matched(0.5, 1.0, 2.0)
    for t in (1e6, 1e7):
        assert math.isfinite(cg.step_size(spec, t))
        assert math.isfinite(cg.M_of_t(spec, t))
        assert math.isfinite(cg.c_bar(spec, t))
        assert 0.0 <= cg.exp_neg_M(spec, t) <= 1.0


def test_power_law_values_and_domain():
    spec = cg.ScheduleSpec.power_law(0.1, 0.5)
    assert cg.step_size(spec, 1.0) == pytest.approx(0.1, rel=1e-14)
    assert cg.step_size(spec, 16.0) == pytest.approx(0.1 * 16.0 ** (-2.0 / 3.0), rel=1e-13)
    with pytest.raises(ValueError):
        cg.step_size(spec, -0.5)


def test_constant_schedule():
    spec = cg.ScheduleSpec.constant(0.03)
    ts = np.array([0.0, 1.0, 9.0])
    assert np.array_equal(cg.step_size(spec, ts), np.full(3, 0.03))


def test_M_closed_form_and_quadrature_agree():
    spec = matched(0.75, 1.5, 2.0)
    delta = spec.delta
    h = 0.75
    for t in (1.0, 10.0, 1e4):
        closed = (2.0 * h / (2.0 - h)) * math.log((t + delta) / delta)
        assert cg.M_of_t(spec, t) == pytest.approx(closed, rel=1e-12)
        quad = cg.M_of_t(spec, t, quadrature=True)
        assert abs(quad - closed) <= 1e-6
    assert cg.M_of_t(spec, 0.0) == 0.0


def test_exp_neg_M_is_exponential_of_M():
    spec = matched(0.5, 1.0, 1.0)
    for t in (0.0, 3.0, 1e3):
        assert cg.exp_neg_M(spec, t) == pytest.approx(
            math.exp(-cg.M_of_t(spec, t)), rel=1e-10)


def test_C_constant_step_closed_form():
    # with a constant step and linear contraction v(eta) = c eta, the
    # variance integral collapses to C(t) = (1 - e^(-M(t))) / c with
    # M(t) = c eta^2 t
    eta0, c = 0.05, 0.3
    spec = cg.ScheduleSpec.constant(eta0)
    v = lambda e: c * e
    for t in (1.0, 5.0, 40.0):
        m = c * eta0 * eta0 * t
        assert cg.M_of_t(spec, t, v=v) == pytest.approx(m, rel=1e-9)
        expected = (1.0 - math.exp(-m)) / c
        # the quadrature promises an absolute tolerance of 1e-8
        assert cg.C_of_t(spec, t, v=v) == pytest.approx(expected, abs=2e-8)
    assert cg.C_of_t(spec, 0.0, v=v) == 0.0
    # C(0) = 0 whatever v is, so a constant spec needs no v there
    assert cg.C_of_t(spec, 0.0) == 0.0


def test_C_constant_step_closed_form_at_large_t():
    # a plain trapezoid needs 2^20 intervals at t = 1e4 and fails to converge
    # within 2^21 at t = 1e6; the Richardson values agree long before
    v = lambda e: 0.3 * e
    for t in (1e4, 1e6):
        expected = (1.0 - math.exp(-0.3 * 0.05 * 0.05 * t)) / 0.3
        assert cg.C_of_t(cg.ScheduleSpec.constant(0.05), t, v=v) == pytest.approx(
            expected, abs=2e-8)


def test_c_bar_linear_case():
    # h = 1, beta = mu/2: C_bar(t) = (4/mu)^2 / (t + 8L/mu)
    mu, L = 2.0, 1.0
    spec = matched(1.0, mu / 2.0, L)
    for t in (0.0, 5.0, 1e3):
        assert cg.c_bar(spec, t) == pytest.approx(
            (4.0 / mu) ** 2 / (t + 8.0 * L / mu), rel=1e-12)


def test_envelope_constant_sqrt_case():
    # h = 1/2 with beta = mu: c* = (2^8 / 3)^(1/3) mu^(-4/3)
    for mu in (1.0, 3.0):
        spec = matched(0.5, mu, 1.0)
        expected = (256.0 / 3.0) ** (1.0 / 3.0) * mu ** (-4.0 / 3.0)
        assert spec.envelope_constant == pytest.approx(expected, rel=1e-12)


def test_quadrature_C_below_envelope():
    spec = matched(0.5, 1.0, 2.0)
    for t in (1.0, 100.0, 1e4):
        assert cg.C_of_t(spec, t) <= cg.c_bar(spec, t) + 1e-12


def test_ode_residual_small_on_grid():
    for h in (0.25, 0.5, 0.75, 1.0):
        spec = matched(h, 1.0, 2.0)
        for t in (1.0, 10.0, 1e3):
            assert abs(cg.ode_residual(spec, t)) <= 1e-9


def test_sqrt_neg_c_bar_prime_recovers_eta():
    # C_bar(t) = c (t + delta)^(-p) with p = h/(2-h), so
    # sqrt(-C_bar'(t)) = sqrt(c p) (t + delta)^(-1/(2-h))
    spec = matched(0.5, 2.0, 1.0)
    p = spec.h / (2.0 - spec.h)
    for t in (0.0, 1.0, 250.0):
        n_hat = math.sqrt(spec.envelope_constant * p) \
            * (t + spec.delta) ** (-1.0 / (2.0 - spec.h))
        assert n_hat == pytest.approx(cg.step_size(spec, t), rel=1e-10)
        # ode_residual raises ArithmeticError unless its own sqrt(-C_bar')
        # matches eta_t to 1e-10
        cg.ode_residual(spec, t)


def test_rate_bound_constants_formulas():
    spec = matched(1.0, 0.5, 1.0)
    N, y0 = 3.0, 2.0
    A, B = cg.rate_bound_constants(spec, N, y0)
    eta0 = cg.step_size(spec, 0.0)
    assert A == pytest.approx((2.0 * N + 1.0) * math.exp(eta0), rel=1e-12)
    assert B == pytest.approx(
        (2.0 * N + 1.0) * math.exp(cg.M_of_t(spec, 1.0)) * eta0 * eta0 + y0,
        rel=1e-12)
    t = 37.0
    assert cg.rate_bound(spec, A, B, t) == pytest.approx(
        A * cg.c_bar(spec, t) + B * cg.exp_neg_M(spec, t), rel=1e-12)


def test_parse_format_round_trip():
    texts = [
        "const:0.01",
        "power:scale=0.1,h=0.25",
        "paper-opt:h=0.5,beta=1.0,L=2.0,r=inf",
        "paper-opt:h=1,beta=0.5,L=9.5,r=3.0",
    ]
    for text in texts:
        spec = cg.parse_schedule(text)
        assert cg.parse_schedule(cg.format_schedule(spec)) == spec


def test_parse_schedule_rejects_malformed():
    bad = [
        "lin:0.1",                       # unknown kind
        "const:",                        # missing value
        "power:scale=0.1",               # missing h
        "power:scale=0.1,h=0.5,q=2",     # unknown parameter
        "paper-opt:h=2,beta=1,L=1",      # h out of range
        "paper-opt:h=0.5,beta=-1,L=1",   # nonpositive beta
        "plain text",                    # no colon
        "power:scale=0.1,h=0.5,h=0.6",   # duplicate
        "const:nan",                     # non-finite values
        "const:inf",
        "power:scale=inf,h=0.5",
        "paper-opt:h=1,beta=nan,L=1",
        "paper-opt:h=0.5,beta=1,L=1,r=nan",
        "paper-opt:h=1,beta=1e-300,L=1e300",   # delta overflows to inf
        "paper-opt:h=1,beta=1e300,L=1e-300",   # delta underflows to 0
        "paper-opt:h=1,beta=1,L=1,r=1e-320",   # 1/r, so delta, is inf
        "paper-opt:h=0.5,beta=1e-320,L=1e-13", # finite delta, first step inf
        "paper-opt:h=1,beta=1e-200,L=1e-100",  # envelope constant overflows
        "paper-opt:h=1e-200,beta=1e-200,L=1e-100",  # beta h underflows to 0
        "paper-opt:h=1,beta=1e300,L=1e300",    # envelope constant underflows to 0
    ]
    for text in bad:
        with pytest.raises(ValueError):
            cg.parse_schedule(text)


@pytest.mark.parametrize("beta, L", [(1e300, 1e300), (1e-200, 1e-100)])
def test_curvature_matched_rejects_an_envelope_constant_out_of_range(beta, L):
    # at h = 1, c = (2/beta)^2: 4e-600 underflows to 0 and 4e400 overflows,
    # though delta and the first step are finite; the zero once gave a C_bar
    # column of zeros and an ArithmeticError in ode_residual
    assert 0.0 < 4.0 * L / beta < math.inf
    with pytest.raises(ValueError, match="overflows or underflows"):
        cg.ScheduleSpec.curvature_matched(h=1.0, beta=beta, L=L)


def test_schedule_constructor_validation():
    with pytest.raises(ValueError):
        cg.ScheduleSpec.constant(0.0)
    with pytest.raises(ValueError):
        cg.ScheduleSpec.power_law(0.1, 1.5)
    with pytest.raises(ValueError):
        cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=0.0)
    with pytest.raises(ValueError):
        cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=1.0, r=-2.0)

    # every value must be finite, except r = inf, which means no cap
    nan, inf = math.nan, math.inf
    for build in (lambda: cg.ScheduleSpec.constant(nan),
                  lambda: cg.ScheduleSpec.constant(inf),
                  lambda: cg.ScheduleSpec.power_law(inf, 0.5),
                  lambda: cg.ScheduleSpec.power_law(nan, 0.5),
                  lambda: cg.ScheduleSpec.power_law(0.1, nan),
                  lambda: cg.ScheduleSpec.curvature_matched(h=nan, beta=1.0, L=1.0),
                  lambda: cg.ScheduleSpec.curvature_matched(h=0.5, beta=inf, L=1.0),
                  lambda: cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=inf),
                  lambda: cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=1.0, r=nan)):
        with pytest.raises(ValueError):
            build()
    assert cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=1.0, r=inf).r == inf


def test_step_size_freezes_power_law_below_one():
    spec = cg.ScheduleSpec.power_law(0.1, 0.5)
    assert cg.step_size(spec, 0) == cg.step_size(spec, 0.5) == cg.step_size(spec, 1.0)
    grid = np.array([0.0, 1.0, 4.0])
    assert np.array_equal(cg.step_size(spec, grid),
                          cg.step_size(spec, np.array([1.0, 1.0, 4.0])))
    # no other kind is frozen below t = 1
    matched_spec = matched(0.5, 1.0, 2.0)
    assert cg.step_size(matched_spec, 0.0) > cg.step_size(matched_spec, 0.5)
    assert np.array_equal(cg.step_size(cg.ScheduleSpec.constant(0.3), grid),
                          np.full(3, 0.3))


def test_step_size_rejects_negative_time_for_every_kind():
    for spec in (cg.ScheduleSpec.constant(0.3), cg.ScheduleSpec.power_law(0.1, 0.5),
                 matched(0.5, 1.0, 2.0)):
        with pytest.raises(ValueError):
            cg.step_size(spec, -0.5)
        with pytest.raises(ValueError):
            cg.step_size(spec, np.array([1.0, -1.0]))


def inline_step_size(spec, t):
    """step_size with each kind's formula written out inline, its constants
    recomputed on every call: the oracle whose bits the step map keeps."""
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    if spec.kind == "constant":
        out = np.broadcast_to(np.float64(spec.eta), ta.shape).copy()
    elif spec.kind == "power_law":
        out = spec.scale * np.maximum(ta, 1.0) ** (-1.0 / (2.0 - spec.h))
    else:
        k = (2.0 / (spec.beta * (2.0 - spec.h))) ** (1.0 / (2.0 - spec.h))
        out = k * (ta + spec.delta) ** (-1.0 / (2.0 - spec.h))
    return float(out[0]) if np.ndim(t) == 0 else out


@pytest.mark.parametrize("text", [
    "const:0.01", "power:scale=0.1,h=0.3", "paper-opt:h=0.5,beta=1.0,L=2.0",
    "paper-opt:h=0.7,beta=0.3,L=5.0,r=2"])
def test_step_map_keeps_the_bits_of_the_inline_formulas(text):
    spec = cg.parse_schedule(text)
    times = [0.0, 0.5, 1.0, 10.0, 1e6]
    for t in times:
        assert cg.step_size(spec, t).hex() == inline_step_size(spec, t).hex(), t
    grid = np.array(times)
    assert cg.step_size(spec, grid).tobytes() == inline_step_size(spec, grid).tobytes()
    # the quadrature builds one map per refinement; with the oracle in its
    # place every node, so M and C, must come out the same
    v = None if spec.kind == "curvature_matched" else (lambda e: 0.5 * np.asarray(e) ** 0.6)
    oracle = lambda s: (lambda t: inline_step_size(s, t))
    for t in (1.0, 10.0, 1e3):
        with mock.patch.object(schedule, "_step_map", oracle):
            m, c = cg.M_of_t(spec, t, v=v, quadrature=True), cg.C_of_t(spec, t, v=v)
        assert cg.M_of_t(spec, t, v=v, quadrature=True).hex() == m.hex(), t
        assert cg.C_of_t(spec, t, v=v).hex() == c.hex(), t


def test_power_law_quadrature_clamps_below_one():
    # n(x) = 0.1 for x <= 1 and 0.1 x^(-2/3) beyond; with v(e) = c e the
    # integrand is c n^2, so M(t) = c 0.01 t up to 1 and
    # c 0.01 (1 + 3 (1 - t^(-1/3))) after
    spec = cg.ScheduleSpec.power_law(0.1, 0.5)
    c = 0.7
    for t in (0.25, 1.0, 1.5, 3.0, 8.0, 1e3, 1e5, 1e7):
        expected = c * 0.01 * (t if t <= 1.0 else 1.0 + 3.0 * (1.0 - t ** (-1.0 / 3.0)))
        got = cg.M_of_t(spec, t, v=lambda e: c * e, quadrature=True)
        assert got == pytest.approx(expected, abs=2e-8)


def count_nodes(call):
    """call()'s result and the number of nodes at which its refinements
    evaluated the step map."""
    real, nodes = schedule._step_map, [0]

    def spy(spec):
        step = real(spec)

        def counted(t):
            nodes[0] += t.size
            return step(t)
        return counted

    with mock.patch.object(schedule, "_step_map", spy):
        return call(), nodes[0]


def plain_trapezoid_quadrature(spec, v, t, rule):
    """_log_grid_quadrature of one rule as it stood when a rule stopped only
    on two agreeing trapezoid values, with its node count: the oracle for the
    levels and bits below."""
    smax = math.log1p(t)
    step = schedule._step_map(spec)

    def nodes(s, out):
        jac = np.exp(s)
        n = step(np.expm1(s))
        out[0], out[1], out[2] = n, n * np.asarray(v(n), dtype=float) * jac, jac

    m = 2 ** schedule.QUAD_LEVELS[0]
    grid = np.empty((3, m + 1))
    nodes(np.linspace(0.0, smax, m + 1), grid)
    value = rule(smax / m, *grid)
    for _ in schedule.QUAD_LEVELS[1:]:
        m *= 2
        finer = np.empty((3, m + 1))
        finer[:, 0::2] = grid
        nodes(np.arange(1, m, 2) * (smax / m), finer[:, 1::2])
        grid = finer
        prev, value = value, rule(smax / m, *grid)
        if abs(value - prev) <= schedule.QUAD_TOL:
            return value, m + 1
    raise cg.QuadratureError("oracle did not converge")


@pytest.mark.parametrize("h", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_kinked_power_law_takes_no_more_nodes_than_the_plain_trapezoid(h):
    # the clamp at t = 1 kinks the integrand, so Richardson values gain
    # little there and the plain test often stops first; wherever it does,
    # the value keeps the plain trapezoid's bits
    spec, v = cg.ScheduleSpec.power_law(0.1, h), (lambda e: 0.7 * e)
    for t in (0.25, 1.0, 1.5, 3.0, 8.0, 1e3, 1e5, 1e7):
        for rule in (_M_rule, _C_rule):
            (value,), nodes = count_nodes(lambda: _log_grid_quadrature(spec, v, t, (rule,)))
            plain, plain_nodes = plain_trapezoid_quadrature(spec, v, t, rule)
            assert nodes <= plain_nodes, (t, rule)
            if nodes == plain_nodes:
                assert value.hex() == plain.hex(), (t, rule)
    if h == 0.5:
        # M at t = 8 stops on the plain test at 2,049 nodes
        m, nodes = count_nodes(lambda: cg.M_of_t(spec, 8.0, v=v, quadrature=True))
        plain, plain_nodes = plain_trapezoid_quadrature(spec, v, 8.0, _M_rule)
        assert nodes == plain_nodes == 2049 and m.hex() == plain.hex()


@pytest.mark.parametrize("h", [0.25, 0.5, 0.75, 1.0])
def test_matched_envelope_stops_on_agreeing_richardson_values(h):
    # a plain trapezoid needs up to 2^15 intervals here and leaves M 3.2e-9
    # from its closed form; the Richardson values agree within 2^10 and
    # land within 1e-9
    spec = matched(h, 1.0, 2.0)
    for t in (1.0, 10.0, 1e3, 1e4):
        (m, _), nodes = count_nodes(
            lambda: _log_grid_quadrature(spec, None, t, (_M_rule, _C_rule)))
        assert nodes <= 2 ** 10 + 1, t
        assert abs(m - cg.M_of_t(spec, t)) <= 1e-9, t


@pytest.mark.parametrize("user_v", [False, True], ids=["own-v", "user-v"])
@pytest.mark.parametrize("h", [0.25, 0.5, 0.75, 1.0])
def test_one_refinement_gives_M_and_C_bits_of_separate_calls(h, user_v):
    spec = matched(h, 1.0, 2.0)
    v = (lambda e: 0.3 * np.asarray(e) ** (1.0 - 0.5 * h)) if user_v else None
    for t in (0.0, 1.0, 10.0, 1e3, 1e4):
        m, c = _log_grid_quadrature(spec, v, t, (_M_rule, _C_rule))
        assert m.hex() == cg.M_of_t(spec, t, v=v, quadrature=True).hex()
        assert c.hex() == cg.C_of_t(spec, t, v=v).hex()


def test_each_rule_stops_at_its_own_level():
    sizes = []

    def capped(ds, n, g, jac):
        sizes.append(n.size)
        return float(min(n.size, 257))

    spec = matched(0.25, 1.0, 2.0)
    m, c, value = _log_grid_quadrature(spec, None, 1e4, (_M_rule, _C_rule, capped))
    # equal at 257 and 513 nodes, so it stops there while M and C refine on
    assert value == 257.0 and sizes == [65, 129, 257, 513]
    assert (m, c) == (cg.M_of_t(spec, 1e4, quadrature=True), cg.C_of_t(spec, 1e4))


def test_a_rule_that_never_converges_raises_beside_one_that_does(monkeypatch):
    monkeypatch.setattr(schedule, "QUAD_LEVELS", range(6, 9))
    grows = lambda ds, n, g, jac: float(n.size)
    with pytest.raises(cg.QuadratureError,
                       match=r"^log-grid trapezoid did not converge \(max 256 intervals\)$"):
        _log_grid_quadrature(matched(0.5, 1.0, 2.0), None, 10.0, (_M_rule, grows))


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
def test_quadrature_rejects_a_non_finite_time_before_refining(t):
    spec, constant = matched(0.5, 1.0, 2.0), cg.ScheduleSpec.constant(0.1)
    calls = (lambda: cg.C_of_t(spec, t), lambda: cg.M_of_t(spec, t, quadrature=True),
             lambda: cg.C_of_t(constant, t, v=lambda e: e),
             lambda: cg.M_of_t(constant, t, v=lambda e: e, quadrature=True))
    # no node is evaluated: the refinement never starts
    with mock.patch.object(schedule, "_step_map", side_effect=AssertionError):
        for call in calls:
            with pytest.raises(ValueError, match="and finite$" if t > 0 else "^t must be nonnegative"):
                call()
    # the closed form of M is defined at t = inf
    assert cg.M_of_t(spec, math.inf) == math.inf


def test_nan_time_is_rejected_as_negative_time_is():
    spec = matched(0.5, 1.0, 2.0)
    calls = [lambda: cg.M_of_t(spec, math.nan), lambda: cg.c_bar(spec, math.nan),
             lambda: cg.exp_neg_M(spec, math.nan), lambda: cg.ode_residual(spec, math.nan),
             lambda: cg.M_of_t(cg.ScheduleSpec.constant(0.3), math.nan, v=lambda e: e)]
    for kind in (cg.ScheduleSpec.constant(0.3), cg.ScheduleSpec.power_law(0.1, 0.5), spec):
        calls += [lambda kind=kind: cg.step_size(kind, math.nan),
                  lambda kind=kind: cg.step_size(kind, np.array([1.0, math.nan]))]
    for call in calls:
        with pytest.raises(ValueError, match="^t must be nonnegative$"):
            call()


positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False,
                     allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)


def matched_or_none(h, beta, L, r):
    """The matched spec, or None where beta, L and r give a delta or a first
    step that is not positive and finite, which the constructor refuses."""
    try:
        return matched(h, beta, L, r)
    except ValueError:
        return None


schedules = st.one_of(
    st.builds(cg.ScheduleSpec.constant, positive),
    st.builds(cg.ScheduleSpec.power_law, positive, unit),
    st.builds(matched_or_none, unit.filter(lambda h: h > 0.0), positive, positive,
              st.one_of(positive, st.just(math.inf))).filter(lambda s: s is not None),
)


@given(schedules)
def test_parse_format_round_trip_property(spec):
    assert cg.parse_schedule(cg.format_schedule(spec)) == spec


@pytest.mark.parametrize("spec", [cg.ScheduleSpec.constant(0.3),
                                  cg.ScheduleSpec.power_law(0.1, 0.5)])
def test_matched_only_operations_are_input_errors_on_other_kinds(spec):
    calls = [lambda: schedule.schedule_v(spec), lambda: cg.c_bar(spec, 1.0),
             lambda: cg.ode_residual(spec, 1.0), lambda: cg.rate_bound(spec, 1.0, 1.0, 1.0),
             lambda: cg.rate_bound_constants(spec, 1.0, 1.0), lambda: cg.M_of_t(spec, 1.0),
             lambda: spec.delta, lambda: spec.envelope_constant]
    for call in calls:
        with pytest.raises(ValueError, match="^operation requires a curvature_matched "
                           "schedule, got %s$" % spec.kind):
            call()


def test_a_new_kind_is_one_row(capsys):
    # a throwaway kind, decay:scale=<s> with steps s / (1 + t), that reuses
    # the scale field: its row is the only edit it needs
    decay = schedule._Kind(
        tag="decay", fields=("scale",), bare=False,
        build=lambda scale: cg.ScheduleSpec(kind="decay", scale=float(scale)),
        step_map=lambda spec: lambda t: spec.scale / (1.0 + t))
    with mock.patch.dict(schedule._KINDS, decay=decay):
        spec = cg.parse_schedule("decay:scale=0.5")
        assert spec == cg.ScheduleSpec(kind="decay", scale=0.5)
        assert cg.format_schedule(spec) == "decay:scale=0.5"
        assert cg.parse_schedule(cg.format_schedule(spec)) == spec

        times = np.array([0.0, 0.5, 1.0, 10.0, 1e4, 1e6])
        assert cg.step_size(spec, times).tobytes() == (0.5 / (1.0 + times)).tobytes()
        assert cg.step_size(spec, 10.0) == 0.5 / 11.0

        # with v(e) = c e and u = x / (1 + x), M(t) = c s^2 u(t) and
        # C(t) = (1 - exp(-M(t))) / c
        c = 0.7
        for t in (0.5, 10.0, 1e4):
            m = c * 0.25 * t / (1.0 + t)
            assert cg.M_of_t(spec, t, v=lambda e: c * e, quadrature=True) == \
                pytest.approx(m, abs=1e-8)
            assert cg.C_of_t(spec, t, v=lambda e: c * e) == \
                pytest.approx(-math.expm1(-m) / c, abs=1e-8)

        bench = cg.benchmarks.ridge_regression_problem()
        config = cg.RunConfig(objective=bench.objective, schedule=spec, w0=np.zeros(10),
                              iterations=200, record_stride=20, seed=0,
                              reference=bench.reference)
        sweep = cg.multi_seed_sweep(config, seeds=(3, 4))
        assert sweep.eta.tobytes() == (0.5 / (1.0 + sweep.t.astype(float))).tobytes()
        for k, seed in enumerate((3, 4)):
            alone = cg.sgd_run(dataclasses.replace(config, seed=seed))
            assert sweep.traces[k].Y.tobytes() == alone.Y.tobytes()

        assert cli.main(["schedule", "decay:scale=0.5", "--t", "0,1,3"]) == 0
    assert capsys.readouterr().out == "t eta\n0 0.5\n1 0.25\n3 0.125\n"
