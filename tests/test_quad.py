"""Quadrature helpers against closed forms and library references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import absorblab._quad as _quad
from absorblab._quad import (
    classify_tail,
    cumulative_gl,
    gl_panel,
    gl_panel_refined,
    log_simpson,
    tail_integral,
)
from absorblab.errors import QuadratureError


def test_gl_panel_polynomial_exactness():
    # 15-point Gauss-Legendre integrates polynomials up to degree 29 exactly
    for k in (0, 3, 10, 20, 29):
        exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
        got = gl_panel(lambda x, k=k: x**k, 1.0, 2.0)
        assert got == pytest.approx(exact, rel=1e-14)


def test_gl_panel_transcendental():
    assert gl_panel(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-14)
    assert gl_panel(np.exp, -1.0, 1.0) == pytest.approx(math.e - 1.0 / math.e, rel=1e-14)


def test_gl_panel_refined_matches_single_panel_on_smooth():
    f = lambda x: np.cos(3.0 * x)
    a, b = 0.2, 1.4
    exact = (math.sin(3.0 * b) - math.sin(3.0 * a)) / 3.0
    assert gl_panel_refined(f, a, b) == pytest.approx(exact, rel=1e-13)


@given(
    c0=st.floats(-5, 5),
    c1=st.floats(-5, 5),
    c2=st.floats(-5, 5),
    a=st.floats(-2, 2),
    width=st.floats(0.1, 3),
)
@settings(max_examples=60, deadline=None)
def test_gl_panel_additive_on_subintervals(c0, c1, c2, a, width):
    f = lambda x: c0 + c1 * x + c2 * x**2
    b = a + width
    mid = a + 0.37 * width
    whole = gl_panel(f, a, b)
    split = gl_panel(f, a, mid) + gl_panel(f, mid, b)
    assert split == pytest.approx(whole, abs=1e-11, rel=1e-11)


def test_cumulative_gl_matches_antiderivative():
    xs = np.linspace(0.0, 2.0, 17)
    got = cumulative_gl(np.cos, xs)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, np.sin(xs), atol=1e-13)


def test_tail_integral_exponential():
    got = tail_integral(lambda x: np.exp(-x), 1.0)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_integral_power_decay():
    # integrable power tail: int_2^inf x^-2 = 1/2
    got = tail_integral(lambda x: x**-2.0, 2.0)
    assert got == pytest.approx(0.5, rel=1e-10)


def test_tail_integral_gaussian():
    got = tail_integral(lambda x: np.exp(-(x**2)), 0.5)
    ref, _ = quad(lambda x: math.exp(-x * x), 0.5, np.inf)
    assert got == pytest.approx(ref, rel=1e-12)


def test_tail_integral_divergent_exhausts_budget(monkeypatch):
    monkeypatch.setattr(_quad, "_TAIL_MAX_PANELS", 60)
    with pytest.raises(QuadratureError):
        tail_integral(lambda x: 1.0 / x, 1.0)


def test_classify_tail_known_cases():
    convergent, _ = classify_tail(lambda x: x**-2.0)
    assert convergent is True
    divergent, _ = classify_tail(lambda x: x**-0.8)
    assert divergent is False
    borderline, slope = classify_tail(lambda x: x**-1.0)
    assert borderline is None
    assert abs(slope + 1.0) < 0.05


def test_log_simpson_matches_linear_scale_quadrature():
    ref, _ = quad(lambda x: math.exp(-x * x), 0.0, 3.0, epsabs=1e-14)
    got = math.exp(log_simpson(lambda y: -(y**2), 0.0, 3.0))
    assert got == pytest.approx(ref, rel=1e-10)


def test_log_simpson_shift_invariance_beyond_double_range():
    # adding a constant to log f shifts the result by exactly that constant,
    # even when the linear-scale values would overflow
    base = log_simpson(lambda y: np.sin(y), 0.0, 2.0)
    shifted = log_simpson(lambda y: np.sin(y) + 5000.0, 0.0, 2.0)
    assert shifted - base == pytest.approx(5000.0, abs=1e-9)
