"""Growth thresholds, absorption bounds, tail exponents, special functions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from absorblab._quad import log_simpson
from absorblab.errors import DomainError, DominationError
from absorblab.flat_ode import solve_phi_log
from absorblab.nonlinearity import Nonlinearity
from absorblab.profiles import c_alpha
from absorblab.threshold import (
    Alpha2Report,
    GrowthFunction,
    absorption_integral_bound,
    alpha2_report,
    critical_flat_height,
    domination_radius,
    erfc_complement,
    exact_absorption_integral,
    gaussian_tail_log_bound,
    growth_threshold_verdict,
    heat_core_log_integral,
    leading_form_remainder,
    log_erfc,
    tail_exponent,
    tail_exponent_maximizer,
    threshold_report,
)

LOG15 = Nonlinearity.log_power(1.5)
QUARTIC = GrowthFunction(gamma=lambda r: 2.0 * r**4.0, beta=4.0, K=2.0)


# ----------------------------------------------------------------------
# complementary error function
# ----------------------------------------------------------------------


def test_erfc_against_mpmath():
    mp.mp.dps = 30
    xs = np.concatenate([np.linspace(-6.0, 6.0, 121), np.linspace(6.0, 30.0, 49)])
    worst = max(abs(erfc_complement(float(x)) - float(mp.erfc(x))) for x in xs)
    assert worst < 1e-13


def test_log_erfc_against_mpmath_far_out():
    mp.mp.dps = 40
    for x in (-5.0, 0.0, 1.4, 5.0, 26.0, 80.0, 300.0):
        ref = float(mp.log(mp.erfc(x)))
        assert log_erfc(x) == pytest.approx(ref, abs=1e-11, rel=1e-11)


@given(x=st.floats(-8.0, 8.0))
@settings(max_examples=80, deadline=None)
def test_erfc_reflection_identity(x):
    assert erfc_complement(x) + erfc_complement(-x) == pytest.approx(2.0, abs=1e-13)


def test_erfc_pins():
    assert erfc_complement(0.0) == pytest.approx(1.0, abs=1e-15)
    assert erfc_complement(40.0) == 0.0  # underflows linearly, by design
    assert log_erfc(40.0) < -1600.0


# ----------------------------------------------------------------------
# domination radius and critical flat height
# ----------------------------------------------------------------------


def test_domination_radius_frozen_crossings():
    # last crossing of 2 r^4 against the height-n profile, one dimension
    expected = {4.0: 1.0509996679611504, 6.0: 1.124958488624543, 8.0: 1.1740159657783806}
    for n, r_n in expected.items():
        got = domination_radius(QUARTIC, LOG15, n, 1, 9.0)
        assert got == pytest.approx(r_n, rel=1e-6)


def test_domination_radius_grows_with_profile_height():
    rs = [domination_radius(QUARTIC, LOG15, n, 1, 9.0) for n in (4.0, 6.0, 8.0)]
    assert rs[0] < rs[1] < rs[2]


def test_domination_radius_crossing_is_genuine():
    # just below the crossing the data is under the profile, just above over
    from absorblab.profiles import shoot_profile

    r_star = domination_radius(QUARTIC, LOG15, 6.0, 1, 9.0)
    prof = shoot_profile(LOG15, 6.0, 1, 9.0)
    assert float(QUARTIC.gamma(r_star - 1e-3)) < prof.w_at(r_star - 1e-3)
    assert float(QUARTIC.gamma(r_star + 1e-3)) > prof.w_at(r_star + 1e-3)


def test_domination_radius_raises_when_data_stays_low():
    low = GrowthFunction(gamma=lambda r: np.full_like(r, 0.1), beta=0.0, K=0.1)
    with pytest.raises(DominationError):
        domination_radius(low, LOG15, 6.0, 1, 9.0)


def test_domination_radius_zero_when_data_dominates_everywhere():
    high = GrowthFunction(gamma=lambda r: 50.0 + r, beta=None, K=None)
    assert domination_radius(high, LOG15, 2.0, 1, 6.0) == 0.0


def test_critical_flat_height_frozen_and_self_consistent():
    a0 = critical_flat_height(LOG15)
    assert a0 == pytest.approx(2.384215854502969, rel=1e-8)
    # independent residual: the decay time from a0 to height 1 equals 1
    val, _ = quad(lambda x: 1.0 / np.log1p(np.exp(x)) ** 1.5, 0.0, math.log(a0),
                  epsabs=1e-12, epsrel=1e-12)
    assert val == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------------------
# absorption integral bounds
# ----------------------------------------------------------------------


def test_absorption_bound_chain_orders_correctly():
    ab = absorption_integral_bound(25.0, 1.5, 0.8)
    ex = exact_absorption_integral(LOG15, 25.0, 0.8)
    assert ex == pytest.approx(22.241182230322472, rel=1e-8)
    assert ab.refined == pytest.approx(37.5, rel=1e-12)
    assert ab.crude == pytest.approx(100.0, rel=1e-12)
    assert ex < ab.refined < ab.crude


def test_absorption_tau_integral_closed_form():
    # beta = 0.5, T = t gamma^0.5: inner integral 2^-2 - (2 + 0.5 T)^-2
    gamma, t = 25.0, 0.8
    T = t * gamma**0.5
    ab = absorption_integral_bound(gamma, 1.5, t)
    assert ab.tau_integral == pytest.approx(0.25 - (2.0 + 0.5 * T) ** -2.0, rel=1e-12)
    # and against direct quadrature of the decay envelope (2 + beta tau)^(-1/beta - 1)
    ref, _ = quad(lambda tau: (2.0 + 0.5 * tau) ** -3.0, 0.0, T, epsabs=1e-13)
    assert ab.tau_integral == pytest.approx(ref, rel=1e-10)


@given(gamma=st.floats(1.0, 60.0), t=st.floats(0.01, 1.0), alpha=st.floats(1.1, 1.9))
@settings(max_examples=60, deadline=None)
def test_absorption_refined_below_crude(gamma, t, alpha):
    ab = absorption_integral_bound(gamma, alpha, t)
    assert 0.0 <= ab.refined <= ab.crude * (1.0 + 1e-12)


def test_absorption_exact_below_refined_across_heights():
    for gamma in (2.0, 10.0, 100.0):
        for t in (0.1, 0.5, 1.0):
            ex = exact_absorption_integral(LOG15, gamma, t)
            ab = absorption_integral_bound(gamma, 1.5, t)
            assert ex <= ab.refined * (1.0 + 1e-9)


def test_absorption_domain_guards():
    with pytest.raises(DomainError):
        absorption_integral_bound(25.0, 1.5, 1.5)  # t beyond validity
    with pytest.raises(DomainError):
        absorption_integral_bound(0.5, 1.5, 0.5)  # height below ln 2
    with pytest.raises(DomainError):
        absorption_integral_bound(25.0, 2.0, 0.5)  # borderline exponent


def test_borderline_absorption_identity():
    # for alpha = 2 the level equation gives a closed antiderivative:
    # d/ds ln Phi = -ln^2(1+Phi), so the time integral of the squared log
    # height equals the drop of ln Phi.  This pits the quadrature route
    # against pure endpoint algebra.
    spec2 = Nonlinearity.log_power(2.0)
    gamma, t = 2592.0, 0.5
    ex = exact_absorption_integral(spec2, gamma, t)
    # data height e^gamma - 1, so ln Phi starts at gamma + ln(1 - e^-gamma) = gamma here
    x1 = float(solve_phi_log(spec2, gamma, [0.0, t])[1])
    assert ex == pytest.approx(gamma - x1, rel=1e-9)


# ----------------------------------------------------------------------
# tail exponent, maximizer, borderline report
# ----------------------------------------------------------------------


def test_maximizer_matches_scipy_golden():
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = float(rng.uniform(0.0, 3.0))
        rn = float(rng.uniform(0.5, 20.0))
        gam = float(rng.uniform(1.0, 200.0))
        alpha = float(rng.uniform(1.1, 2.0))
        N = int(rng.integers(1, 4))
        t_star = tail_exponent_maximizer(x, rn, gam, alpha, N)
        res = minimize_scalar(
            lambda t: -tail_exponent(t, x, rn, gam, alpha, N),
            bracket=(t_star * 0.1, t_star, min(t_star * 10.0, 50.0)),
            method="golden", options={"xtol": 1e-12},
        )
        assert t_star == pytest.approx(float(res.x), rel=1e-6)


@given(
    x=st.floats(0.0, 2.0),
    rn=st.floats(0.5, 10.0),
    gam=st.floats(1.0, 50.0),
    alpha=st.floats(1.1, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_maximizer_stationarity(x, rn, gam, alpha):
    t_star = tail_exponent_maximizer(x, rn, gam, alpha, 1)
    d = 1e-6 * t_star
    b0 = tail_exponent(t_star, x, rn, gam, alpha, 1)
    assert tail_exponent(t_star - d, x, rn, gam, alpha, 1) <= b0 + 1e-12
    assert tail_exponent(t_star + d, x, rn, gam, alpha, 1) <= b0 + 1e-12


def test_maximized_exponent_closed_form():
    # eliminate t from B(t*) algebraically:
    # B = gamma - S/2 - N ln R - (N/2) ln(N R^2/(N+S)), S = sqrt(N^2 + 4 N R^2 gamma^alpha)
    for (x, rn, gam, alpha, N) in [(0.0, 2.0, 30.0, 1.5, 1), (1.0, 5.0, 12.0, 1.8, 3)]:
        R = rn + x
        S = math.sqrt(N * N + 4.0 * N * R * R * gam**alpha)
        want = gam - S / 2.0 - N * math.log(R) - 0.5 * N * math.log(N * R * R / (N + S))
        t_star = tail_exponent_maximizer(x, rn, gam, alpha, N)
        got = tail_exponent(t_star, x, rn, gam, alpha, N)
        assert got == pytest.approx(want, rel=1e-9)


def test_leading_form_remainder_decays():
    nus = [abs(leading_form_remainder(0.0, rn, 2.0 * rn**4, 1.5, 1))
           for rn in (10.0, 20.0, 40.0, 80.0)]
    assert nus[0] == pytest.approx(3.606337264228099e-05, rel=1e-5)
    assert all(n2 < n1 for n1, n2 in zip(nus[:-1], nus[1:]))


def test_alpha2_report_frozen_sequence():
    # exponential data gamma = e^r: the borderline exponent dives to -inf
    expected = {
        5.0: -593.220051240009,
        10.0: -198236.29945674218,
        20.0: -9218138706.93304,
        40.0: -9.180025406643778e18,
    }
    bs = []
    for r, want in expected.items():
        rep = alpha2_report(0.0, r, math.exp(r), 1)
        assert isinstance(rep, Alpha2Report)
        assert rep.B_at_t_star == pytest.approx(want, rel=1e-9)
        bs.append(rep.B_at_t_star)
    assert all(b2 < b1 for b1, b2 in zip(bs[:-1], bs[1:]))


def test_alpha2_report_against_scipy_maximization():
    r, gam = 5.0, math.exp(5.0)
    rep = alpha2_report(0.0, r, gam, 1)
    res = minimize_scalar(
        lambda t: -tail_exponent(t, 0.0, r, gam, 2.0, 1),
        bounds=(1e-8, 1.0), method="bounded",
        options={"xatol": 1e-14},
    )
    assert rep.t_star == pytest.approx(float(res.x), rel=1e-5)
    assert rep.B_at_t_star == pytest.approx(-float(res.fun), rel=1e-10)
    assert rep.nu_measured == pytest.approx(0.0005829471900109517, rel=1e-4)


def test_tail_exponent_domain_guards():
    with pytest.raises(DomainError):
        tail_exponent(0.0, 0.0, 1.0, 5.0, 1.5, 1)
    with pytest.raises(DomainError):
        tail_exponent(0.5, 0.0, 1.0, 5.0, 2.5, 1)
    with pytest.raises(DomainError):
        tail_exponent_maximizer(0.0, 1.0, 5.0, 1.0, 1)


# ----------------------------------------------------------------------
# gaussian tail bound and inner heat term
# ----------------------------------------------------------------------


def test_heat_core_against_mpmath():
    mp.mp.dps = 25
    g = GrowthFunction(gamma=lambda r: 1.0 + r**2 / 4.0, beta=None, K=None)
    for (t, x, rn) in [(0.3, 0.0, 2.0), (0.1, 0.5, 1.5), (0.8, 1.0, 3.0)]:
        got = heat_core_log_integral(t, x, rn, g, 0.7, 1)
        f = lambda y: mp.e ** (-((x - y) ** 2) / (4 * t)) * (mp.e ** (1 + y**2 / 4) - 1)
        ref = mp.log(mp.quad(f, [-rn, 0, rn])) - mp.mpf("0.7") - mp.log(mp.sqrt(4 * mp.pi * t))
        assert got == pytest.approx(float(ref), abs=1e-12)


def test_tail_bound_sits_below_exact_outer_integral():
    # the erfc reduction can only lose mass against the true outer integral
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = float(rng.uniform(0.05, 1.0))
        rn = float(rng.uniform(1.0, 6.0))
        x = float(rng.uniform(0.0, rn / 2.0))
        gam = float(rng.uniform(1.0, 6.0))
        om = absorption_integral_bound(gam, 1.5, min(t, 1.0)).crude
        jb = gaussian_tail_log_bound(t, x, rn, gam, om, 1)
        height = gam + math.log1p(-math.exp(-gam))

        def log_f(y):
            return -((x - y) ** 2) / (4.0 * t) + height

        half = 40.0 * math.sqrt(t) + rn + x
        li = np.logaddexp(log_simpson(log_f, rn, half, n=4001),
                          log_simpson(log_f, -half, -rn, n=4001))
        exact = -om - 0.5 * math.log(4.0 * math.pi * t) + float(li)
        assert jb.log_bound <= exact + 1e-9


def test_tail_bound_asymptotic_agrees_far_out():
    jb = gaussian_tail_log_bound(0.01, 0.0, 8.0, 5.0, 1.0, 1)
    assert jb.difference == pytest.approx(0.0, abs=1e-10)
    jb2 = gaussian_tail_log_bound(0.5, 0.0, 2.0, 5.0, 1.0, 2)
    assert abs(jb2.difference) < 0.5  # series error is real at z near 1.4


def test_heat_core_dimension_guard():
    from absorblab.errors import UnsupportedDimensionError

    g = GrowthFunction(gamma=lambda r: np.full_like(r, 1.0), beta=None, K=None)
    with pytest.raises(UnsupportedDimensionError):
        heat_core_log_integral(0.5, 0.0, 1.0, g, 0.0, 3)


# ----------------------------------------------------------------------
# growth verdicts and the aggregate report
# ----------------------------------------------------------------------


def test_growth_verdict_boundary_logic():
    # alpha = 1.5: critical exponent 4, collapse constant 1 (N = 1),
    # profile constant 1/256
    v = growth_threshold_verdict(QUARTIC, 1.5, 1)
    assert v.critical_exponent == pytest.approx(4.0)
    assert v.collapse_constant == pytest.approx(1.0)
    assert v.profile_constant == pytest.approx(c_alpha(1.5))
    assert v.exceeds_collapse_threshold is True  # K = 2 > 1
    assert v.exceeds_profile_growth is True

    between = GrowthFunction(gamma=lambda r: 0.1 * r**4, beta=4.0, K=0.1)
    vb = growth_threshold_verdict(between, 1.5, 1)
    assert vb.exceeds_collapse_threshold is False  # 0.1 < 1
    assert vb.exceeds_profile_growth is True  # 0.1 > 1/256

    slow = GrowthFunction(gamma=lambda r: 5.0 * r**3, beta=3.0, K=5.0)
    vs = growth_threshold_verdict(slow, 1.5, 1)
    assert vs.exceeds_collapse_threshold is False
    assert vs.exceeds_profile_growth is False

    fast = GrowthFunction(gamma=lambda r: 1e-6 * r**5, beta=5.0, K=1e-6)
    vf = growth_threshold_verdict(fast, 1.5, 1)
    assert vf.exceeds_collapse_threshold is True  # exponent wins at any K


def test_growth_verdict_requires_declared_asymptotic():
    anon = GrowthFunction(gamma=lambda r: r, beta=None, K=None)
    with pytest.raises(DomainError):
        growth_threshold_verdict(anon, 1.5, 1)


def test_growth_function_log_data_edge_values():
    g = GrowthFunction(gamma=lambda r: np.full_like(r, math.log(2.0)), beta=None, K=None)
    assert float(g.log_data(1.0)) == pytest.approx(0.0, abs=1e-15)
    gz = GrowthFunction(gamma=lambda r: np.zeros_like(r), beta=0.0, K=0.0)
    assert float(gz.log_data(1.0)) == -math.inf


def test_threshold_report_assembles_consistent_rows():
    rep = threshold_report(QUARTIC, LOG15, 1, [4.0, 6.0], 9.0)
    assert list(rep.n_values) == [4.0, 6.0]
    assert rep.r_n[0] < rep.r_n[1]
    np.testing.assert_allclose(rep.gamma_rn, 2.0 * rep.r_n**4, rtol=1e-12)
    # maximized exponents and their gaussian counterparts agree in sign logic
    for i in range(2):
        t_i = rep.t_n[i]
        assert rep.B_n[i] == pytest.approx(
            tail_exponent(float(t_i), 0.0, float(rep.r_n[i]), float(rep.gamma_rn[i]), 1.5, 1),
            rel=1e-12,
        )
    assert rep.verdict.exceeds_collapse_threshold is True
