"""Tests for the modulus family, its contraction map, and the curvature
estimators."""

import contextlib
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import curvesgd as cg
from curvesgd import objectives, omega
from curvesgd.omega import estimate_delta


def test_identity_case():
    # h = 1, r = 1, mu = 2 makes the gauge the identity on [0, r],
    # and the tangent continuation keeps it the identity beyond
    spec = cg.OmegaSpec(h=1.0, r=1.0, mu=2.0)
    for x in (0.0, 0.3, 1.0, 2.5, 10.0):
        assert cg.omega_eval(spec, x) == pytest.approx(x, abs=1e-14)
        if x > 0:
            assert cg.omega_derivative(spec, x) == pytest.approx(1.0, abs=1e-14)


def test_value_at_breakpoint():
    spec = cg.OmegaSpec(h=0.5, r=4.0, mu=1.0)
    # (2 / (mu h)) (x/r)^h at x = 1 is 4 * 0.5 = 2
    assert cg.omega_eval(spec, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert cg.omega_eval(spec, 4.0) == pytest.approx(2.0 / (1.0 * 0.5), rel=1e-14)


def test_offset_variant_value():
    spec = cg.OmegaSpec(h=0.5, r=4.0, mu=1.0 / 0.5, tau=0.3)
    # tau + (2/(mu h)) (x/r)^h at the breakpoint
    assert cg.omega_eval(spec, 4.0) == pytest.approx(0.3 + 2.0, rel=1e-14)


# (h, r, mu, tau) -> omega at x = r/10, r/2, r, 3r and c_alpha at
# alpha = r/20, r/2, recorded from the earlier two-form code's offset gauge
# tau + (2/mu)(x/r)^h, which is the one form with mu / h in place of mu
OFFSET_GOLDENS = [
    ((0.5, 4.0, 1.0, 0.3),
     [0.9324555320336758, 1.7142135623730952, 2.3, 4.3],
     [1.2479102864954876, 1.3417231379361878]),
    ((0.8, 4.0, 0.3, 0.7),
     [1.7565954616407422, 4.528994516656783, 7.366666666666667, 18.033333333333335],
     [1.3441398003008729, 1.6265567643267094]),
    ((0.25, 0.6, 2.5, 1e-3),
     [0.4508730601522793, 0.6737171322029717, 0.801, 1.201],
     [1.1887082782262963, 1.1889262744155387]),
]


def test_one_form_reproduces_offset_goldens():
    for (h, r, mu, tau), omegas, c_alphas in OFFSET_GOLDENS:
        spec = cg.OmegaSpec(h=h, r=r, mu=mu / h, tau=tau)
        for x, expected in zip((0.1 * r, 0.5 * r, r, 3.0 * r), omegas):
            assert cg.omega_eval(spec, x) == pytest.approx(expected, rel=1e-13)
        for alpha, expected in zip((0.05 * r, 0.5 * r), c_alphas):
            assert cg.c_alpha(spec, alpha) == pytest.approx(expected, rel=1e-13)


def test_spec_rejects_non_finite_mu_and_tau():
    for kwargs in ({"mu": math.inf}, {"mu": math.nan}, {"mu": 0.0},
                   {"tau": math.inf}, {"tau": math.nan}, {"tau": -0.1},
                   {"r": math.nan}):
        with pytest.raises(ValueError):
            cg.OmegaSpec(**{"h": 0.5, "r": 2.0, **kwargs})
    assert cg.OmegaSpec(h=0.5, r=math.inf, mu=2.0, tau=0.1).r == math.inf


@pytest.mark.parametrize("field, bad", [
    ("h", 0.0), ("h", 1.5), ("h", math.nan), ("r", 0.0), ("r", -1.0), ("r", math.nan),
    ("mu", 0.0), ("mu", math.inf), ("mu", math.nan),
    ("tau", -0.1), ("tau", math.inf), ("tau", math.nan)])
def test_spec_names_the_field_out_of_range_for_a_scalar_and_a_batch(field, bad):
    messages = {"h": "h must lie in (0, 1]", "r": "r must be positive (math.inf allowed)",
                "mu": "mu must be positive and finite",
                "tau": "tau must be nonnegative and finite"}
    good = {"h": 0.5, "r": 2.0, "mu": 1.0, "tau": 0.1}
    with pytest.raises(ValueError, match="^%s$" % re.escape(messages[field])):
        cg.OmegaSpec(**{**good, field: bad})
    # a batch with one bad entry among good ones
    batch = {key: np.full(4, value) for key, value in good.items()}
    batch[field][2] = bad
    with pytest.raises(ValueError, match="^%s$" % re.escape(messages[field])):
        cg.OmegaSpec(**batch)
    batch[field][2] = good[field]
    assert cg.OmegaSpec(**batch).h.shape == (4,)


def test_c1_at_breakpoint():
    spec = cg.OmegaSpec(h=0.35, r=1.5, mu=0.7)
    eps = 1e-7
    left = (cg.omega_eval(spec, spec.r) - cg.omega_eval(spec, spec.r - eps)) / eps
    right = (cg.omega_eval(spec, spec.r + eps) - cg.omega_eval(spec, spec.r)) / eps
    assert left == pytest.approx(right, rel=1e-5)
    assert left == pytest.approx(cg.omega_derivative(spec, spec.r - 1e-12), rel=1e-5)


def test_monotone_and_midpoint_concave():
    for mu, tau in ((1.3, 0.0), (1.3 / 0.6, 0.2)):
        spec = cg.OmegaSpec(h=0.6, r=2.0, mu=mu, tau=tau)
        xs = np.linspace(1e-4, 8.0, 200)
        vals = np.array([cg.omega_eval(spec, x) for x in xs])
        assert np.all(np.diff(vals) > 0)
        mid = np.array([cg.omega_eval(spec, x) for x in 0.5 * (xs[:-1] + xs[1:])])
        assert np.all(mid >= 0.5 * (vals[:-1] + vals[1:]) - 1e-12)


def test_derivative_matches_finite_differences():
    spec = cg.OmegaSpec(h=0.45, r=3.0, mu=2.0)
    for x in (0.2, 1.0, 2.9, 3.5, 7.0):
        step = 1e-6 * max(1.0, x)
        fd = (cg.omega_eval(spec, x + step) - cg.omega_eval(spec, x - step)) / (2 * step)
        assert cg.omega_derivative(spec, x) == pytest.approx(fd, rel=1e-6)


def test_beta_values():
    # beta = (mu/2) h^-h (1-h)^-(1-h) r^h
    spec = cg.OmegaSpec(h=0.5, r=4.0, mu=1.0)
    assert spec.beta == pytest.approx(0.5 * 2.0 * 2.0, rel=1e-12)
    # r = inf drops the r^h factor; h = 1 uses 0^0 = 1
    assert cg.OmegaSpec(h=1.0, mu=2.0).beta == pytest.approx(1.0, rel=1e-12)
    assert cg.OmegaSpec(h=0.5, mu=2.0).beta == pytest.approx(2.0, rel=1e-12)


def test_v_constant_for_linear_modulus():
    spec = cg.OmegaSpec(h=1.0, r=2.0, mu=3.0)
    # v = mu r / 2 independent of eta
    for eta in (1e-6, 0.5, 2.0):
        assert cg.v_closed_form(spec, eta) == pytest.approx(3.0, rel=1e-13)
        assert cg.v_numeric(spec, eta) == pytest.approx(3.0, rel=1e-9)


def test_v_square_root_law():
    spec = cg.OmegaSpec(h=0.5, mu=2.0)
    # beta = mu here, so v(eta) = (mu/2) sqrt(eta) ... times h = 0.5 folded in
    for eta in (0.01, 0.25, 1.0):
        assert cg.v_closed_form(spec, eta) == pytest.approx(
            spec.beta * 0.5 * math.sqrt(eta), rel=1e-13)
    assert cg.v_closed_form(spec, 0.25) == pytest.approx(0.5, rel=1e-13)


def test_v_closed_matches_numeric_inversion():
    spec = cg.OmegaSpec(h=0.3, r=5.0, mu=2.0)
    cap = spec.r * (1.0 - spec.h) / spec.h
    top = min(spec.r, cap)
    for eta in np.geomspace(1e-3 * top, 0.99 * top, 12):
        closed = cg.v_closed_form(spec, float(eta))
        numeric = cg.v_numeric(spec, float(eta))
        assert numeric == pytest.approx(closed, rel=1e-9)


_GAUGE_A = cg.OmegaSpec(h=0.1, r=1.0, mu=0.1)
_GAUGE_B = cg.OmegaSpec(h=0.4, r=3.0, mu=2.0, tau=0.5)
_X = np.geomspace(1e-4, 10.0, 200)
_T = np.arange(2001.0)


@pytest.mark.parametrize("fn, spec, inputs", [
    pytest.param(cg.v_numeric, cg.OmegaSpec(h=0.4, mu=2.0, tau=0.5),
                 np.geomspace(1e-4, 1.5, 200), id="v_numeric-tau"),
    pytest.param(cg.v_numeric, cg.OmegaSpec(h=0.3, r=5.0, mu=2.0),
                 np.geomspace(1e-4, 1.5, 200), id="v_numeric-r"),
    pytest.param(cg.v_closed_form, cg.OmegaSpec(h=0.3, r=5.0, mu=2.0),
                 np.geomspace(1e-4, 5.0, 200), id="v_closed_form"),
    pytest.param(cg.omega_eval, _GAUGE_A, _X, id="omega_eval-A"),
    pytest.param(cg.omega_eval, _GAUGE_B, _X, id="omega_eval-B"),
    pytest.param(cg.omega_derivative, _GAUGE_A, _X, id="omega_derivative-A"),
    pytest.param(cg.omega_derivative, _GAUGE_B, _X, id="omega_derivative-B"),
    pytest.param(cg.step_size, cg.parse_schedule("power:scale=0.1,h=0.3"),
                 _T, id="step_size-power"),
    pytest.param(cg.step_size, cg.parse_schedule("paper-opt:h=0.5,beta=1.0,L=2.0"),
                 _T, id="step_size-matched"),
    pytest.param(cg.step_size, cg.parse_schedule("paper-opt:h=0.7,beta=0.3,L=5.0,r=2"),
                 _T, id="step_size-matched-r"),
])
def test_array_matches_scalar_bits(fn, spec, inputs):
    # a scalar input gets the bits it gets inside an array, so step_size(t)
    # is the step the engine took at t
    together = fn(spec, inputs)
    assert together.shape == inputs.shape
    one_by_one = np.array([fn(spec, float(x)) for x in inputs])
    assert np.array_equal(together, one_by_one)


def test_v_numeric_rejects_one_bad_eta_in_an_array():
    spec = cg.OmegaSpec(h=0.5, r=2.0, mu=1.0)
    top = spec.r * (1.0 - spec.h) / spec.h  # where the step map saturates
    good = np.geomspace(1e-3, 0.9 * top, 5)
    # within 1e-9 of saturation, eta is taken at x = r
    assert cg.v_numeric(spec, top * (1.0 + 1e-10)) == pytest.approx(
        1.0 / cg.omega_derivative(spec, spec.r), rel=1e-15)
    for bad in (0.0, -1.0, top * 1.01):
        with pytest.raises(ValueError):
            cg.v_numeric(spec, np.append(good, bad))


# float.hex of scalar-gauge outputs, recorded from the two-branch code that
# handled r = inf apart: omega_eval and omega_derivative at GOLDEN_X,
# v_numeric at GOLDEN_ETA, c_alpha_brute at alpha = r/4 (1/4 at r = inf)
GOLDEN_X = (0.01, 0.7, 3.0, 12.0)
GOLDEN_ETA = (1e-3, 0.1, 1.0, 3.0)
GOLDEN_BITS = [
    pytest.param((0.3, math.inf, 2.0, 0.0),
                 "0x1.acb1fe271107fp-1 0x1.7f5eb870a2335p+1 0x1.289dc98759791p+2 0x1.c19619686ad93p+2",
                 "0x1.91e6de449ff75p+4 0x1.489a54f2d42c0p+0 0x1.da960f3ef58e9p-2 0x1.67ab4786bbe10p-3",
                 "0x1.1fabcae7a1b86p-8 0x1.c39f86f137c5cp-4 0x1.1aef48625d0b5p-1 0x1.313d60794471cp+0",
                 "0x1.3b2c47bff8328p+0", id="inf"),
    pytest.param((0.3, 5.0, 2.0, 0.0),
                 "0x1.0884fe6ca577dp-1 0x1.d91ac38986e8dp+0 0x1.6e0b6fa2f8dc1p+1 0x1.2eeeeeeeeeeefp+2",
                 "0x1.eff95d0bb6408p+3 0x1.9584a79a73a30p-1 0x1.24d5f2e8c7167p-2 0x1.999999999999ap-3",
                 "0x1.d2374c5beceb5p-8 0x1.6df68889c3775p-3 0x1.ca8a3c776b0c5p-1 0x1.eeb0567e77bdep+0",
                 "0x1.3b2c47bff8328p+0", id="r"),
    pytest.param((0.4, 3.0, 2.0, 0.5),
                 "0x1.82b9d12ce4eabp-1 0x1.e593f241fce68p+0 0x1.8000000000000p+1 0x1.8000000000000p+2",
                 "0x1.46d08af03c4abp+3 0x1.98a914ddb3509p-1 0x1.5555555555555p-2 0x1.5555555555555p-2",
                 "0x1.005c861419c5cp-9 0x1.259b6b43fdd32p-3 0x1.bb451c76d07fdp-1 0x1.e0b85b8614bc2p+0",
                 "0x1.3cab0bcba7f02p+0", id="tau"),
    pytest.param((0.4, math.inf, 2.0, 0.5),
                 "0x1.caddc7b6a3029p-1 0x1.5573ee25eb531p+1 0x1.184b983ec1694p+2 0x1.d04ea5778fa8cp+2",
                 "0x1.fb2a734897866p+3 0x1.3d16c706c3ccbp+0 0x1.08d92aed9b1b0p-1 0x1.cd20b07f882b8p-3",
                 "0x1.f52190608c9cbp-10 0x1.dd6e5e55fd746p-4 0x1.407ae7aeb87d6p-1 0x1.4ecdfad6afa8fp+0",
                 "0x1.3cab0bcba7f02p+0", id="tau-inf"),
    pytest.param((1.0, 2.0, 3.0, 0.0),
                 "0x1.b4e81b4e81b4ep-9 0x1.dddddddddddddp-3 0x1.0000000000000p+0 0x1.fffffffffffffp+1",
                 "0x1.5555555555555p-2 0x1.5555555555555p-2 0x1.5555555555555p-2 0x1.5555555555555p-2",
                 "0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1",
                 "0x1.0000000000000p+1", id="h1"),
    pytest.param((1.0, math.inf, 3.0, 0.0),
                 "0x1.b4e81b4e81b4ep-8 0x1.dddddddddddddp-2 0x1.0000000000000p+1 0x1.0000000000000p+3",
                 "0x1.5555555555555p-1 0x1.5555555555555p-1 0x1.5555555555555p-1 0x1.5555555555555p-1",
                 "0x1.8000000000000p+0 0x1.8000000000000p+0 0x1.8000000000000p+0 0x1.8000000000000p+0",
                 "0x1.0000000000000p+1", id="h1-inf"),
    pytest.param((0.5, 4.0, 1.0, 0.0),
                 "0x1.999999999999ap-3 0x1.ac5eb3f7ab2f8p+0 0x1.bb67ae8584caap+1 0x1.0000000000000p+3",
                 "0x1.4000000000000p+3 0x1.31fa808c55b43p+0 0x1.279a74590331cp-1 0x1.0000000000000p-1",
                 "0x1.030dc4ea03a71p-5 0x1.43d136248490fp-2 0x1.ffffffffffffep-1 0x1.bb67ae8584ca9p+0",
                 "0x1.6a09e667f3bcdp+0", id="half"),
    pytest.param((0.5, math.inf, 2.0, 0.0),
                 "0x1.999999999999ap-3 0x1.ac5eb3f7ab2f8p+0 0x1.bb67ae8584caap+1 0x1.bb67ae8584caap+2",
                 "0x1.4000000000000p+3 0x1.31fa808c55b43p+0 0x1.279a74590331cp-1 0x1.279a74590331cp-2",
                 "0x1.030dc4ea03a71p-5 0x1.43d136248490fp-2 0x1.0000000000000p+0 0x1.bb67ae8584ca9p+0",
                 "0x1.6a09e667f3bcdp+0", id="half-inf"),
]


@pytest.mark.parametrize("fields, evals, derivs, vs, brute", GOLDEN_BITS)
def test_scalar_gauges_keep_their_bits(fields, evals, derivs, vs, brute):
    spec = cg.OmegaSpec(*fields)
    assert [cg.omega_eval(spec, x).hex() for x in GOLDEN_X] == evals.split()
    assert [cg.omega_derivative(spec, x).hex() for x in GOLDEN_X] == derivs.split()
    assert [cg.v_numeric(spec, eta).hex() for eta in GOLDEN_ETA] == vs.split()
    alpha = 0.25 if math.isinf(spec.r) else 0.25 * spec.r
    assert cg.c_alpha_brute(spec, alpha).hex() == brute


def _batch(gauges, column=True):
    """One OmegaSpec of the given (h, r, mu, tau) gauges, as (G, 1) columns
    or as (G,) arrays."""
    return cg.OmegaSpec(*(np.array(f)[:, None] if column else np.array(f)
                          for f in zip(*gauges)))


# r = inf beside finite r, tau > 0 beside tau = 0, h = 1 beside h < 1
_MIXED = [(0.3, math.inf, 2.0, 0.0), (0.3, 5.0, 2.0, 0.0), (0.4, 3.0, 2.0, 0.5),
          (0.4, math.inf, 2.0, 0.5), (1.0, 2.0, 3.0, 0.0), (1.0, math.inf, 3.0, 0.0),
          (0.5, 4.0, 1.0, 0.0), (0.7, 2.0, 0.5, 0.2)]


def test_batch_rows_match_their_gauges():
    batch, flat = _batch(_MIXED), _batch(_MIXED, column=False)
    x = np.geomspace(1e-3, 20.0, 40)  # one grid for every row, past each r
    # one eta row per gauge, inside every step map's range
    eta = np.geomspace(1e-3, 0.5, 7) * (1.0 + 0.1 * np.arange(len(_MIXED)))[:, None]
    alpha = 0.25 * np.where(np.isinf(flat.r), 1.0, flat.r)
    together = [cg.omega_eval(batch, x), cg.omega_derivative(batch, x),
                cg.v_numeric(batch, eta), cg.c_alpha(flat, alpha),
                cg.c_alpha_brute(flat, alpha)]
    assert [t.shape for t in together] == [(8, 40)] * 2 + [(8, 7), (8,), (8,)]
    for g, fields in enumerate(_MIXED):
        spec = cg.OmegaSpec(*fields)
        alone = [cg.omega_eval(spec, x), cg.omega_derivative(spec, x),
                 cg.v_numeric(spec, eta[g]), cg.c_alpha(spec, alpha[g]),
                 cg.c_alpha_brute(spec, alpha[g])]
        for rows, row in zip(together, alone):
            np.testing.assert_allclose(rows[g], row, rtol=1e-15, atol=0.0)


def test_batch_of_small_mu_raises_no_runtime_warning():
    # at mu = 1e-6 and r = inf, the unused tangent part at x = e^700, or the
    # step map of the h = 1 gauge there, would overflow
    hs = (0.1, 0.5, 0.9, 1.0)
    batch = cg.OmegaSpec(h=np.array(hs)[:, None], mu=1e-6)
    eta = np.geomspace(1e-3, 10.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = cg.v_numeric(batch, eta)
        # omega itself overflows there at h = 1, so only the h < 1 gauges
        below_one = cg.OmegaSpec(h=np.array(hs[:-1]), mu=1e-6)
        big = [f(below_one, math.exp(700.0)) for f in (cg.omega_eval, cg.omega_derivative)]
        for g, h in enumerate(hs):
            np.testing.assert_allclose(together[g], cg.v_numeric(cg.OmegaSpec(h, mu=1e-6), eta),
                                       rtol=1e-15, atol=0.0)
    assert all(np.all(np.isfinite(b)) for b in big)


# omega, omega', v_numeric and c_alpha_brute as they stood before omega and
# omega' shared one core: each formula spelled out on its own, v_numeric
# through the two public calls. They are the oracle for the bits below.
def _oracle_omega(spec, x):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    scale = 2.0 / (spec.mu * spec.h)
    below = xa <= spec.r
    z = xa / np.where(np.isinf(spec.r), 1.0, spec.r)
    out = np.where(below, spec.tau + scale * z ** spec.h, spec.tau + scale
                   + (2.0 / spec.mu) * (np.where(below, 1.0, z) - 1.0))
    return omega._like(out, x)


def _oracle_derivative(spec, x):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.where(np.isinf(spec.r), 1.0, spec.r)
    slope = 2.0 / (spec.mu * r)
    return omega._like(np.where(xa <= spec.r, slope * (xa / r) ** (spec.h - 1.0), slope), x)


def _oracle_v_numeric(spec, eta):
    ea = np.atleast_1d(np.asarray(eta, dtype=float))
    bisect, r_inf = np.less(spec.h, 1.0), np.isinf(spec.r)

    def step_gap(x):
        x = np.where(bisect, x, 1.0)
        return _oracle_omega(spec, x) / _oracle_derivative(spec, x) - x

    x_top = np.where(r_inf, math.exp(700.0), spec.r)
    top = step_gap(x_top)
    lo = np.full(np.broadcast_shapes(np.shape(bisect), ea.shape, np.shape(top)), -700.0)
    half = 0.5 * (np.vectorize(math.log)(x_top) + 700.0)
    for _ in range(64):
        mid = lo + half
        lo = np.where(step_gap(np.exp(mid)) < ea, mid, lo)
        half *= 0.5
    x = np.where(ea > top, spec.r, np.exp(lo + half))
    return omega._like(1.0 / _oracle_derivative(spec, x), eta)


def _oracle_c_alpha_brute(spec, alpha):
    e_max = np.where(np.isinf(spec.r), 1e4 * alpha, np.maximum(10.0 * spec.r, 4.0 * alpha))
    grid = np.geomspace(alpha, e_max, 4000)
    grid[0] = alpha
    ratios = _oracle_omega(spec, 2.0 * grid) / _oracle_omega(spec, grid)
    return omega._like(np.minimum.accumulate(ratios).max(axis=0), alpha)


def _same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) \
        and np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_shared_core_keeps_the_bits_of_each_formula():
    # the mixed batch (r = inf and finite, tau = 0 and > 0, h = 1 and < 1)
    # as columns and as one gauge at a time, on arrays and on scalars, at x
    # from below every r to far past it
    batch, flat = _batch(_MIXED), _batch(_MIXED, column=False)
    x = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 97), [math.exp(700.0)]))
    eta = np.geomspace(1e-3, 0.5, 7) * (1.0 + 0.1 * np.arange(len(_MIXED)))[:, None]
    alpha = 0.25 * np.where(np.isinf(flat.r), 1.0, flat.r)
    cases = [(batch, x, eta, flat, alpha)]
    for g, fields in enumerate(_MIXED):
        spec = cg.OmegaSpec(*fields)
        cases += [(spec, x, eta[g], spec, alpha[g]), (spec, 3.0, float(eta[g, 3]), spec, alpha[g])]
    for spec, xs, etas, brute_spec, alphas in cases:
        assert _same_bits(cg.omega_eval(spec, xs), _oracle_omega(spec, xs))
        positive = xs[1:] if np.ndim(xs) else xs
        assert _same_bits(cg.omega_derivative(spec, positive), _oracle_derivative(spec, positive))
        assert _same_bits(cg.v_numeric(spec, etas), _oracle_v_numeric(spec, etas))
        assert _same_bits(cg.c_alpha_brute(brute_spec, alphas),
                          _oracle_c_alpha_brute(brute_spec, alphas))


def test_omega_writes_into_at_most_two_full_size_arrays():
    # x/r and omega' share one buffer and omega takes a second; the mask
    # x <= r and its complement are an eighth of x each
    x = np.geomspace(1e-3, 40.0, 200_000)
    for spec in (cg.OmegaSpec(h=0.3, r=5.0, mu=2.0, tau=0.1), cg.OmegaSpec(h=0.3)):
        for f, arrays in ((cg.omega_eval, 2), (cg.omega_derivative, 1)):
            tracemalloc.start()
            try:
                f(spec, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (arrays + 0.3) * x.nbytes, (f.__name__, peak / x.nbytes)


def test_v_numeric_batch_rejects_one_bad_eta():
    batch = _batch([(0.5, 2.0, 1.0, 0.0), (0.3, math.inf, 2.0, 0.0), (1.0, 2.0, 3.0, 0.0)])
    good = np.tile(np.geomspace(1e-3, 0.9, 5), (3, 1))
    assert cg.v_numeric(batch, good).shape == (3, 5)
    # the first gauge's step map saturates at r(1-h)/h = 2
    for bad in (0.0, -1.0, 2.02):
        eta = good.copy()
        eta[0, 2] = bad
        with pytest.raises(ValueError, match="eta" if bad <= 0 else "eta=2.02 "):
            cg.v_numeric(batch, eta)
    # the h = 1 gauge's map is constant, and v takes any positive eta
    eta = good.copy()
    eta[2, 2] = 1e6
    assert cg.v_numeric(batch, eta)[2, 2] == 3.0  # mu r / 2


def test_v_rejects_bad_eta():
    spec = cg.OmegaSpec(h=0.5, r=2.0, mu=1.0)
    with pytest.raises(ValueError):
        cg.v_closed_form(spec, 0.0)
    with pytest.raises(ValueError):
        cg.v_closed_form(spec, 2.5)


def test_v_monotone_in_eta():
    spec = cg.OmegaSpec(h=0.7, mu=1.0)
    etas = np.geomspace(1e-4, 10.0, 50)
    vals = [cg.v_closed_form(spec, float(e)) for e in etas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_c_alpha_closed_forms():
    # tau = 0 collapses the ratio to 2^h for any alpha in range
    for h in (0.25, 0.5, 1.0):
        spec = cg.OmegaSpec(h=h, r=2.0, mu=1.5)
        assert cg.c_alpha(spec, 0.5) == pytest.approx(2.0 ** h, rel=1e-13)
    # positive tau pulls the constant below 2^h
    spec = cg.OmegaSpec(h=0.5, r=2.0, mu=1.5 / 0.5, tau=0.4)
    val = cg.c_alpha(spec, 0.5)
    assert 1.0 < val < 2.0 ** 0.5
    expected = 1.0 + (2.0 ** 0.5 - 1.0) / ((1.5 * 0.4 / 2.0) * (2.0 / 0.5) ** 0.5 + 1.0)
    assert val == pytest.approx(expected, rel=1e-12)


def test_c_alpha_brute_agreement():
    cases = [
        cg.OmegaSpec(h=0.5, r=2.0, mu=1.0),
        cg.OmegaSpec(h=0.8, r=4.0, mu=0.3 / 0.8, tau=0.7),
    ]
    for spec in cases:
        alpha = spec.r / 4.0
        assert abs(cg.c_alpha(spec, alpha) - cg.c_alpha_brute(spec, alpha)) <= 1e-4


def test_c_alpha_rejects_large_alpha():
    spec = cg.OmegaSpec(h=0.5, r=2.0, mu=1.0)
    with pytest.raises(ValueError):
        cg.c_alpha(spec, 1.5)


def test_delta_estimator_quadratic():
    mu = 2.0
    grid = np.geomspace(1e-3, 5.0, 40)
    est = estimate_delta(lambda W: 0.5 * mu * np.einsum("ij,ij->i", W, W),
                         lambda W: np.einsum("ij,ij->i", W, W), 3, grid=grid)
    pred = (2.0 / mu) * est.epsilon_grid
    rel = np.abs(est.delta_values - pred) / pred
    # the sampling band is 2 percent wide, so the majorant sits at its top
    assert rel.max() <= 0.03
    assert est.fitted_h == pytest.approx(1.0, abs=0.01)


def test_delta_estimator_quartic():
    est = estimate_delta(lambda W: W[:, 0] ** 4, lambda W: W[:, 0] ** 2, 1)
    assert est.fitted_h == pytest.approx(0.5, abs=0.02)


def test_delta_estimator_quadratic_plus_quartic():
    # near zero the quadratic term dominates the gap, so h fits to 1
    est = estimate_delta(lambda W: W[:, 0] ** 2 + W[:, 0] ** 4,
                         lambda W: W[:, 0] ** 2, 1)
    assert est.fitted_h == pytest.approx(1.0, abs=0.03)


def test_delta_estimator_reports_empty_bands():
    # the top grid value is far beyond the sample range
    grid = np.array([0.1, 1.0, 1e6])
    est = estimate_delta(lambda W: W[:, 0] ** 2, lambda W: W[:, 0] ** 2, 1,
                         grid=grid)
    assert est.band_counts[-1] == 0
    assert math.isnan(est.rho_values[-1])
    assert np.all(np.isfinite(est.delta_values[:2]))


def _band_loop(av, bv, grid):
    # the band test of estimate_delta, one full pass per grid value
    rho = np.full(grid.size, math.nan)
    counts = np.zeros(grid.size, dtype=int)
    for k, eps in enumerate(grid):
        mask = np.abs(av - eps) <= 0.02 * eps
        counts[k] = np.count_nonzero(mask)
        if counts[k]:
            rho[k] = bv[mask].max()
    return rho, counts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_estimate_delta_bands_match_the_band_loop():
    # gaps include inf, NaN, zero, negative values, repeats and values on
    # the band edges eps * (1 +- 0.02) of grid points, some subnormal
    rng = np.random.default_rng(23)
    n = 300
    for case in range(200):
        grid = np.sort(np.unique(rng.choice(
            [rng.uniform(1e-3, 10.0), rng.lognormal(0.0, 2.0), 5e-324, 1e-320,
             1e300], size=rng.integers(1, 12))))
        av = rng.choice([rng.lognormal(0.0, 2.0), -rng.uniform(), 0.0,
                         math.inf, -math.inf, math.nan], size=n,
                        p=[0.6, 0.1, 0.05, 0.1, 0.05, 0.1]).astype(float)
        av[: n // 4] = rng.lognormal(0.0, 2.0, n // 4)
        edges = rng.choice(grid, size=n // 4)
        av[n // 4 : n // 2] = edges + 0.02 * edges * rng.choice([-1.0, 1.0], n // 4)
        av[n // 2 : n // 2 + 10] = rng.choice(grid, 10)
        bv = rng.uniform(0.0, 5.0, n)
        est = estimate_delta(lambda W: av, lambda W: bv, 1, grid=grid,
                             n_samples=n, seed=case)
        rho, counts = _band_loop(av, bv, grid)
        assert np.array_equal(est.band_counts, counts), case
        assert np.array_equal(est.rho_values, rho, equal_nan=True), case


def test_estimate_delta_blocks_match_the_band_loop_on_tied_gaps():
    # 5,000 samples in blocks of 64 rows; the gaps are multiples of 1/64,
    # so most are tied with others of distinct distances, and some are
    # -0.0, +0.0 or NaN. The distances each band reads go through the sort
    # order of the gaps, so a tie broken the other way must not change them
    n, d = 5000, 3
    seen_a, seen_b = [], []

    def a(W):
        gaps = np.floor(np.abs(W[:, 0]) * 64.0) / 64.0
        gaps[W[:, 1] < -2.0] = -0.0
        gaps[W[:, 2] > 2.5] = math.nan
        seen_a.append(gaps)
        return gaps

    def b(W):
        seen_b.append(np.einsum("ij,ij->i", W, W))
        return seen_b[-1]

    with _sample_rows(64, d):
        est = estimate_delta(a, b, d, n_samples=n, seed=4)
    av, bv = np.concatenate(seen_a), np.concatenate(seen_b)
    assert len(seen_a) == 79
    assert np.any(np.signbit(av) & (av == 0.0)) and np.any(~np.signbit(av) & (av == 0.0))
    assert np.any(np.isnan(av)) and np.unique(av[av > 0.0]).size < 200
    pos = av[av > 0.0]
    grid = np.geomspace(*np.quantile(pos, [0.001, 0.999]), 48)
    assert np.array_equal(est.epsilon_grid, grid)
    rho, counts = _band_loop(av, bv, grid)
    assert np.array_equal(est.band_counts, counts)
    assert np.array_equal(est.rho_values, rho, equal_nan=True)
    assert counts.max() > 100


def test_estimate_delta_draws_the_region_radius_box():
    n, d, seed = 1000, 4, 5
    seen = []

    def b(W):
        seen.append(W.copy())
        return np.einsum("ij,ij->i", W, W)

    estimate_delta(lambda W: np.einsum("ij,ij->i", W, W), b, d,
                   n_samples=n, seed=seed)
    expected = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, d))
    assert len(seen) == 1 and seen[0].shape == expected.shape
    assert seen[0].tobytes() == expected.tobytes()


def _sample_rows(rows, dimension):
    """estimate_delta's sample block, patched to `rows` rows; the value
    blocks inside each sample block shrink with it."""
    return mock.patch.object(objectives, "_BLOCK_TERMS", rows * dimension)


def _delta_arrays(est):
    return (est.epsilon_grid, est.rho_values, est.delta_values,
            np.array(est.fitted_h), est.band_counts)


@pytest.mark.parametrize("name", ["ridge", "exp_cosh", "quadratic_mean"])
def test_sample_blocks_do_not_change_a_bit(name):
    # 1,003 samples in blocks of 1, 7 and 64 rows, the last block shorter,
    # against one block of all of them
    b = cg.load_benchmark(name)
    obj, ref = b.objective, b.reference

    def estimate():
        return estimate_delta(lambda W: obj.value_many(W) - ref.f_min,
                              ref.squared_distance, obj.dimension,
                              n_samples=1003, seed=3)

    whole = estimate()
    for rows in (1, 7, 64):
        with _sample_rows(rows, obj.dimension):
            blocked = estimate()
        for got, expected in zip(_delta_arrays(blocked), _delta_arrays(whole)):
            assert np.array_equal(got, expected, equal_nan=True), rows


@pytest.mark.parametrize("n, d, rows, blocks", [
    (1003, 4, 7, 144), (1003, 4, None, 1), (100_000, 10, None, 16)])
def test_sample_blocks_are_one_uniform_draw_in_order(n, d, rows, blocks):
    # b sees consecutive blocks of equal rows, the last one shorter, which
    # together are the bits of one uniform draw
    seed = 8
    seen = []

    def b(W):
        seen.append(W.copy())
        return np.einsum("ij,ij->i", W, W)

    with _sample_rows(rows, d) if rows else contextlib.nullcontext():
        estimate_delta(lambda W: np.einsum("ij,ij->i", W, W), b, d,
                       n_samples=n, seed=seed)
        block = objectives._BLOCK_TERMS // d
    assert len(seen) == blocks
    assert {len(W) for W in seen[:-1]} <= {block} and 0 < len(seen[-1]) <= block
    expected = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, d))
    assert np.concatenate(seen).tobytes() == expected.tobytes()


@pytest.mark.parametrize("field, value", [
    ("dimension", 0), ("dimension", -2), ("dimension", 2.0),
    ("dimension", True), ("n_samples", 0), ("n_samples", -3),
    ("n_samples", 10.5), ("n_samples", "100")])
def test_estimate_delta_rejects_a_bad_count(field, value):
    args = {"dimension": 2, "n_samples": 50, field: value}
    with pytest.raises(ValueError, match="^%s must be an integer" % field):
        estimate_delta(lambda W: W[:, 0] ** 2, lambda W: W[:, 0] ** 2,
                       args["dimension"], n_samples=args["n_samples"])


def test_fit_curvature_scratch_memory_is_about_one_sample_block():
    # ridge has d = 10, so its 100,000 samples come in sixteen blocks of
    # _BLOCK_TERMS terms, drawn into one buffer. Beside that buffer the fit
    # holds one value block's scratch (two arrays of _BLOCK_TERMS terms),
    # the gaps a and b of every sample, and a block's value_many output and
    # gap, each much shorter than the samples; the quantiles of the positive
    # gaps, and then their sort order, take one more sample-size vector
    b = cg.load_benchmark("ridge")
    d, n = b.objective.dimension, 100_000
    block_bytes = (objectives._BLOCK_TERMS // d) * d * 8
    value_bytes = 2 * objectives._BLOCK_TERMS * 8
    sample_bytes = n * 8
    cg.fit_curvature(b.objective, b.reference, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cg.fit_curvature(b.objective, b.reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - before
    assert scratch < block_bytes + value_bytes + 3 * sample_bytes, (
        scratch, block_bytes)


def test_fit_curvature_strongly_convex():
    b = cg.ridge_regression_problem()
    h = cg.fit_curvature(b.objective, reference=b.reference)
    assert h >= 0.93


def test_fit_curvature_exp_cosh_regularizer():
    from curvesgd.objectives import LinearObjective, ReferenceSolution
    obj = LinearObjective(np.array([[0.0]]), "exp_cosh_G", 4.0)
    ref = ReferenceSolution(w_star=np.zeros(1), f_min=0.0, noise_constant=0.0,
                            gradient_norm_at_solution=0.0)
    h = cg.fit_curvature(obj, reference=ref)
    assert h == pytest.approx(0.5, abs=0.05)


def test_fit_curvature_scale_invariant():
    centers = np.array([[1.0, -0.5], [-1.0, 0.5]])
    objs = [cg.QuadraticMeanObjective(mu, centers) for mu in (1.0, 10.0)]
    h1, h2 = (cg.fit_curvature(obj, cg.solve_reference(obj)) for obj in objs)
    assert abs(h1 - h2) <= 0.02


def test_omega_separability_of_exp_cosh_gap():
    # omega(lam G(w)) >= ||w||^2 over the sample box with the square-root
    # modulus, both for mu = lam / (9 d) and for the exp_cosh benchmark's
    # mu = 4 sqrt(lam / (12 d)), from G(w) >= ||w||^4 / (12 d), which is
    # tight near 0. 1 % of the samples are scaled toward 0 by 1e-3, and the
    # 1e-9 slack covers the worst margin there, -5.2e-12 at d = 1, where G
    # loses digits to cancellation
    lam = 4.0
    rng = np.random.default_rng(17)
    for d in (1, 3, 10):
        W = rng.uniform(-3.0, 3.0, size=(10_000, d))
        W[:100] *= 1e-3
        gaps = lam * cg.regularizer_G_value(W)
        dist2 = np.einsum("ij,ij->i", W, W)
        for mu in (lam / (9.0 * d), 4.0 * math.sqrt(lam / (12.0 * d))):
            vals = cg.omega_eval(cg.OmegaSpec(h=0.5, mu=mu), gaps)
            assert np.all(vals >= dist2 - 1e-9), (d, mu, np.min(vals - dist2))
