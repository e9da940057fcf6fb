"""Absorption laws: evaluation, derivatives, and tail classification."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorblab import _quad, nonlinearity
from absorblab.errors import DomainError
from absorblab.nonlinearity import (
    Nonlinearity,
    _log_H_at_log,
    classify_conditions,
    dh_dw,
    eval_h,
    h_of_w,
    log_h_at_log,
    log_u_from_w,
    w_from_log_u,
)

LOG15 = Nonlinearity.log_power(1.5)
POW2 = Nonlinearity.power(2.0)


def test_eval_h_closed_points():
    assert eval_h(LOG15, math.e - 1.0) == pytest.approx(1.0, rel=1e-14)
    assert eval_h(Nonlinearity.power(3.0), 2.0) == pytest.approx(4.0, rel=1e-14)
    assert eval_h(POW2, 7.0) == pytest.approx(7.0, rel=1e-14)


def test_constructor_domain_guards():
    with pytest.raises(DomainError):
        Nonlinearity.log_power(0.0)
    with pytest.raises(DomainError):
        Nonlinearity.power(1.0)


@given(s=st.floats(1e-6, 1e6), alpha=st.floats(1.05, 2.0))
@settings(max_examples=80, deadline=None)
def test_h_of_w_agrees_with_linear_evaluation(s, alpha):
    spec = Nonlinearity.log_power(alpha)
    w = math.log1p(s)
    assert float(h_of_w(spec, w)) == pytest.approx(eval_h(spec, s), rel=1e-12)


def test_h_of_w_clamps_negative_log_heights():
    assert float(h_of_w(LOG15, -0.5)) == 0.0
    assert float(h_of_w(POW2, -3.0)) == 0.0


def test_h_of_w_far_beyond_double_range():
    # for the log family h(e^w - 1) = w^alpha exactly once e^w overflows
    assert float(h_of_w(LOG15, 2592.0)) == pytest.approx(2592.0**1.5, rel=1e-14)


@given(w=st.floats(1e-3, 60.0), alpha=st.floats(1.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_dh_dw_matches_finite_differences(w, alpha):
    spec = Nonlinearity.log_power(alpha)
    d = 1e-6 * max(1.0, w)
    fd = (float(h_of_w(spec, w + d)) - float(h_of_w(spec, w - d))) / (2.0 * d)
    assert float(dh_dw(spec, w)) == pytest.approx(fd, rel=5e-6, abs=1e-9)


def test_dh_dw_power_family_derivative():
    # h(e^w - 1) = (e^w - 1)^(p-1); check the chain rule at a plain point
    w = 1.3
    u = math.expm1(w)
    want = (POW2.p - 1.0) * u ** (POW2.p - 2.0) * math.exp(w)
    assert float(dh_dw(POW2, w)) == pytest.approx(want, rel=1e-10)


def test_log_h_at_log_deep_heights():
    # x = ln u with u astronomically large: ln h = alpha ln ln(1+u) ~ alpha ln x
    got = float(log_h_at_log(LOG15, 5000.0))
    assert got == pytest.approx(1.5 * math.log(5000.0), rel=1e-12)


@pytest.mark.parametrize(
    "alpha,slow_tail,barrier_tail",
    [
        (0.8, False, False),
        (1.2, True, False),
        (1.5, True, False),
        (2.0, True, False),
        (2.5, True, True),
        (3.0, True, True),
    ],
)
def test_classification_log_family(alpha, slow_tail, barrier_tail):
    report = classify_conditions(Nonlinearity.log_power(alpha))
    assert report.osgood is slow_tail
    assert report.keller_osserman is barrier_tail
    assert report.all_tails_divergent is (not barrier_tail)


def test_classification_power_family():
    report = classify_conditions(POW2)
    assert report.osgood is True
    assert report.keller_osserman is True


def test_classification_costs_three_kernel_calls(monkeypatch):
    # one classification is the Osgood tail, the Keller-Osserman tail and
    # the single H sweep behind the latter's nodes
    calls = []
    real = _quad.gl_panels

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # the kernel is bound in _quad (for classify_tail) and in nonlinearity
    monkeypatch.setattr(_quad, "gl_panels", counted)
    monkeypatch.setattr(nonlinearity, "gl_panels", counted)
    classify_conditions(LOG15)
    assert len(calls) == 3


def _mp_log_H(alpha, x):
    """ln H(e^x) for log_power(alpha) by mpmath quadrature at 30 digits."""
    with mp.workdps(30):
        s = mp.exp(mp.mpf(x))
        cuts = [0, 1, s] if s > 1 else [0, s]
        return float(mp.log(mp.quad(lambda t: t * mp.log1p(t) ** alpha, cuts)))


# unsorted, with duplicates, spanning the Keller-Osserman nodes' range
_LOG_H_NODES = np.array([27.5, 3.0, 0.0, 12.25, 3.0, 28.0, 0.7, 19.0, 0.0, 6.5])


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_log_H_at_log_against_mpmath(alpha):
    spec = Nonlinearity.log_power(alpha)
    # a lone node just right of 0: one wide panel from -45 misses it by
    # 7e-6 to 7e-5 relative, because ln(1+e^x) is singular at x = i pi
    lone = _log_H_at_log(spec, np.array([0.4]))
    assert lone.shape == (1,)
    assert lone[0] == pytest.approx(_mp_log_H(alpha, 0.4), rel=1e-13)
    got = _log_H_at_log(spec, _LOG_H_NODES)
    want = [_mp_log_H(alpha, x) for x in _LOG_H_NODES]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_log_H_at_log_far_below_minus_45(alpha):
    # a node below -45 gets its own 45 unit lead-in panels; there
    # ln(1+s) = s to double precision, so H(s) = s^(alpha+2)/(alpha+2)
    x = math.log(1e-25)
    got = _log_H_at_log(Nonlinearity.log_power(alpha), np.array([x]))
    assert got[0] == pytest.approx((alpha + 2.0) * x - math.log(alpha + 2.0), rel=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_log_H_at_log_power_closed_form(p):
    # H(s) = s^(p+1)/(p+1); the nodes keep their (2, 10) shape
    x = np.concatenate([_LOG_H_NODES, [0.4, 0.0, 1.0, 28.0, 9.5, 9.5, 0.25, 14.0, 2.0, 0.1]])
    got = _log_H_at_log(Nonlinearity.power(p), x.reshape(2, 10))
    np.testing.assert_allclose(got.ravel(), (p + 1.0) * x - math.log(p + 1.0), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_power_law_tail_slopes_match_closed_forms(p):
    # 1/(s h(s)) = s^-p and 1/sqrt(H(s)) = sqrt(p+1) s^(-(p+1)/2)
    conf = classify_conditions(Nonlinearity.power(p)).confidence
    assert conf["osgood_slope"] == pytest.approx(-p, rel=1e-12)
    assert conf["keller_osserman_slope"] == pytest.approx(-(p + 1.0) / 2.0, rel=1e-12)


def test_log_converters_against_mpmath():
    mp.mp.dps = 40
    w = np.array([1e-300, 1e-12, 1e-3, 0.5, math.log(2.0), 1.0, 30.0, 745.0, 1e5, 1e300])
    log_u = log_u_from_w(w)
    for wi, lu in zip(w, log_u):
        exact = mp.log(mp.expm1(mp.mpf(wi)))
        assert abs(lu - float(exact)) <= 1e-15 * max(1.0, abs(float(exact)))
    # w_from_log_u inverts it on both sides of ln u = 0, and far beyond double
    # range; exp(ln u) amplifies the rounding of ln u by |ln u|
    back = w_from_log_u(log_u)
    assert np.all(np.abs(back - w) / w <= 4e-16 * np.maximum(1.0, np.abs(log_u)))
    for lu in (-800.0, -30.0, -1e-3, 0.0, 1e-3, 30.0, 800.0, 1e300):
        exact = mp.log1p(mp.exp(mp.mpf(lu)))
        assert abs(float(w_from_log_u(lu)) - float(exact)) <= 1e-15 * float(exact)
    assert log_u_from_w(0.0) == -np.inf and np.all(log_u_from_w([-1.0, 0.0]) == -np.inf)
    assert w_from_log_u(-np.inf) == 0.0
