"""Step-size schedule math: closed forms, quadrature, envelopes, text form."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import curvesgd as cg
from curvesgd.schedule import MAX_DOUBLINGS


def matched(h, beta, L, r=math.inf):
    return cg.ScheduleSpec.curvature_matched(h=h, beta=beta, L=L, r=r)


def test_matched_linear_case_closed_form():
    # h = 1 with beta = mu/2 gives eta_t = 4 / (mu t + 8 L)
    mu, L = 2.0, 1.0
    spec = matched(1.0, mu / 2.0, L)
    for t in (0.0, 1.0, 10.0, 500.0):
        assert cg.eta(spec, t) == pytest.approx(4.0 / (mu * t + 8.0 * L), rel=1e-13)


def test_matched_sqrt_case_closed_form():
    # h = 1/2 with beta = mu gives eta_t = (4 / (3 mu t + 8 L))^(2/3)
    mu, L = 1.0, 1.0
    spec = matched(0.5, mu, L)
    for t in (0.0, 2.0, 77.0):
        assert cg.eta(spec, t) == pytest.approx(
            (4.0 / (3.0 * mu * t + 8.0 * L)) ** (2.0 / 3.0), rel=1e-13)


def test_initial_step_equals_clipped_inverse_smoothness():
    # eta_0 = min(1/(2L), r) ** (1/(2-h))
    spec = matched(0.5, 2.0, 4.0)
    assert cg.eta(spec, 0.0) == pytest.approx(0.125 ** (2.0 / 3.0), rel=1e-13)
    clipped = matched(0.5, 2.0, 4.0, r=0.05)
    assert cg.eta(clipped, 0.0) == pytest.approx(0.05 ** (2.0 / 3.0), rel=1e-13)
    linear = matched(1.0, 0.5, 1.0)
    assert cg.eta(linear, 0.0) == pytest.approx(0.5, rel=1e-13)


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
        vals = cg.eta(spec, ts)
        assert np.all(np.diff(vals) <= 0)


def test_no_overflow_far_out():
    spec = matched(0.5, 1.0, 2.0)
    for t in (1e6, 1e7):
        assert math.isfinite(cg.eta(spec, t))
        assert math.isfinite(cg.M_of_t(spec, t))
        assert math.isfinite(cg.c_bar(spec, t))
        assert 0.0 <= cg.exp_neg_M(spec, t) <= 1.0


def test_power_law_values_and_domain():
    spec = cg.ScheduleSpec.power_law(0.1, 0.5)
    assert cg.eta(spec, 1.0) == pytest.approx(0.1, rel=1e-14)
    assert cg.eta(spec, 16.0) == pytest.approx(0.1 * 16.0 ** (-2.0 / 3.0), rel=1e-13)
    with pytest.raises(ValueError):
        cg.eta(spec, 0.5)


def test_constant_schedule():
    spec = cg.ScheduleSpec.constant(0.03)
    ts = np.array([0.0, 1.0, 9.0])
    assert np.array_equal(cg.eta(spec, ts), np.full(3, 0.03))


def test_M_closed_form_and_quadrature_agree():
    spec = matched(0.75, 1.5, 2.0)
    delta = spec.delta
    h = 0.75
    for t in (1.0, 10.0, 1e4):
        closed = (2.0 * h / (2.0 - h)) * math.log((t + delta) / delta)
        assert cg.M_of_t(spec, t) == pytest.approx(closed, rel=1e-12)
        quad = cg.M_of_t(spec, t, method="quadrature")
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
    spec = matched(0.5, 2.0, 1.0)
    for t in (0.0, 1.0, 250.0):
        assert cg.sqrt_neg_c_bar_prime(spec, t) == pytest.approx(
            cg.eta(spec, t), rel=1e-10)


def test_rate_bound_constants_formulas():
    spec = matched(1.0, 0.5, 1.0)
    N, y0 = 3.0, 2.0
    A, B = cg.rate_bound_constants(spec, N, y0)
    eta0 = cg.eta(spec, 0.0)
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
    ]
    for text in bad:
        with pytest.raises(ValueError):
            cg.parse_schedule(text)


def test_schedule_constructor_validation():
    with pytest.raises(ValueError):
        cg.ScheduleSpec.constant(0.0)
    with pytest.raises(ValueError):
        cg.ScheduleSpec.power_law(0.1, 1.5)
    with pytest.raises(ValueError):
        cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=0.0)
    with pytest.raises(ValueError):
        cg.ScheduleSpec.curvature_matched(h=0.5, beta=1.0, L=1.0, r=-2.0)


def test_quadrature_doubling_cap():
    assert MAX_DOUBLINGS >= 20


def test_step_size_freezes_power_law_below_one():
    spec = cg.ScheduleSpec.power_law(0.1, 0.5)
    assert cg.step_size(spec, 0) == cg.step_size(spec, 0.5) == cg.eta(spec, 1.0)
    grid = np.array([0.0, 1.0, 4.0])
    assert np.array_equal(cg.step_size(spec, grid), cg.eta(spec, np.array([1.0, 1.0, 4.0])))
    # every other kind is eta itself, including at t = 0
    for other in (cg.ScheduleSpec.constant(0.3), matched(0.5, 1.0, 2.0)):
        assert cg.step_size(other, 0.0) == cg.eta(other, 0.0)
        assert np.array_equal(cg.step_size(other, grid), cg.eta(other, grid))


positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False,
                     allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)
schedules = st.one_of(
    st.builds(cg.ScheduleSpec.constant, positive),
    st.builds(cg.ScheduleSpec.power_law, positive, unit),
    st.builds(cg.ScheduleSpec.curvature_matched,
              unit.filter(lambda h: h > 0.0), positive, positive,
              st.one_of(positive, st.just(math.inf))),
)


@given(schedules)
def test_parse_format_round_trip_property(spec):
    assert cg.parse_schedule(cg.format_schedule(spec)) == spec
