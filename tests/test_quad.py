"""Quadrature helpers against closed forms and library references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import absorblab._quad as _quad
from absorblab import flat_ode
from absorblab._quad import (
    _GL_NODES,
    _GL_WEIGHTS,
    classify_tail,
    gl_panel_refined,
    gl_panels,
    log_simpson,
    tail_integral,
)
from absorblab.errors import QuadratureError
from absorblab.nonlinearity import Nonlinearity


def reference_gl_panel(f, a, b, splits):
    """One Gauss-Legendre panel summed sub-panel by sub-panel.

    The edges come from ``np.linspace``, each sub-panel is one ``np.dot`` of
    its 15 node values, and the sub-panel integrals are added left to right
    from 0.0 (the arithmetic of ``sum`` before Python 3.12).
    """
    edges = np.linspace(a, b, splits + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))
    return total


@pytest.mark.parametrize("splits", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("integrand", ["log_h_at_log", "sin"])
def test_gl_panels_match_reference_bitwise(splits, m, integrand):
    # one integrand call on the (m, splits, 15) node array repeats each
    # panel's own arithmetic byte for byte
    f = flat_ode._inv_h(Nonlinearity.log_power(1.5)) if integrand == "log_h_at_log" else np.sin
    rng = np.random.default_rng(10 * splits + m)
    # every other panel straddles 0 with ends of unequal size, where the
    # last linspace edge must be set to hi: (hi - lo) rounds
    lo = rng.uniform(-5.0, 40.0, m)
    hi = lo + rng.uniform(0.0, 30.0, m)
    lo[::2] = -np.exp(rng.uniform(-5.0, 3.0, len(lo[::2])))
    hi[::2] = np.exp(rng.uniform(-3.0, 3.5, len(hi[::2])))
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return f(x)

    got = gl_panels(counted, lo, hi, splits)
    assert calls == [(m, splits, 15)]
    want = np.array([reference_gl_panel(f, a, b, splits) for a, b in zip(lo, hi)])
    assert got.tobytes() == want.tobytes()


def test_gl_panel_polynomial_exactness():
    # 15-point Gauss-Legendre integrates polynomials up to degree 29 exactly
    for k in (0, 3, 10, 20, 29):
        exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
        got = gl_panel_refined(lambda x, k=k: x**k, 1.0, 2.0, splits=1)
        assert got == pytest.approx(exact, rel=1e-14)


def test_gl_panel_transcendental():
    assert gl_panel_refined(np.sin, 0.0, math.pi, splits=1) == pytest.approx(2.0, rel=1e-14)
    assert gl_panel_refined(np.exp, -1.0, 1.0, splits=1) == pytest.approx(
        math.e - 1.0 / math.e, rel=1e-14
    )


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
    whole = gl_panel_refined(f, a, b, splits=1)
    split = gl_panel_refined(f, a, mid, splits=1) + gl_panel_refined(f, mid, b, splits=1)
    assert split == pytest.approx(whole, abs=1e-11, rel=1e-11)


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
