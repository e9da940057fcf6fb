"""Stationary radial profiles: shooting, a-priori bounds, asymptotic fits."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_bvp, solve_ivp
from scipy.optimize import brentq

from absorblab.errors import (
    BracketError,
    DomainError,
    InsufficientRangeError,
    OverflowGuardError,
    PreconditionError,
    ToleranceError,
)
from absorblab.nonlinearity import Nonlinearity, eval_h, h_of_w
from absorblab.profiles import (
    _SHOOT_RTOL,
    RadialProfile,
    apriori_bound,
    c_alpha,
    fit_asymptotics,
    shoot_profile,
)

LOG15 = Nonlinearity.log_power(1.5)
LOG20 = Nonlinearity.log_power(2.0)
POW3 = Nonlinearity.power(3.0)

# center-height table, log scale, one-dimensional, radii (2, 4, 6, 8);
# corroborated independently by the collocation test below
FROZEN_W_N1 = {
    1.0: (1.351885, 4.682502, 14.374092, 35.369383),
    2.0: (2.698758, 9.112310, 24.493546, 54.693780),
    8.0: (6.316676, 18.270229, 42.994914, 87.400621),
}


def test_growth_constant_closed_form():
    assert c_alpha(1.5) == 0.25**4  # ((2-a)/2)^(2/(2-a)) at a = 3/2
    assert c_alpha(1.2) == pytest.approx(0.4**2.5, rel=1e-14)
    with pytest.raises(DomainError):
        c_alpha(2.0)


def test_profile_center_height_table():
    radii = np.array([2.0, 4.0, 6.0, 8.0])
    for a, expected in FROZEN_W_N1.items():
        prof = shoot_profile(LOG15, a, 1, 8.0)
        got, slope = prof.sample(radii)
        np.testing.assert_allclose(got, expected, rtol=2e-6)
        # a scalar radius gives the same pair, as scalars
        for r, w, dw in zip(radii, got, slope):
            assert prof.sample(r) == (w, dw) and np.ndim(prof.sample(r)[0]) == 0


def test_array_sample_equals_one_point_calls_bitwise():
    # non-uniqueness samples its growth profile once per grid; the one-point
    # calls that this replaced give bitwise the same values
    prof = shoot_profile(LOG15, 1.5, 1, 9.0)
    r = np.arange(361) * 0.025
    r[-1] = 9.0
    assert prof.sample(r)[0].tobytes() == np.array([prof.w_at(x) for x in r]).tobytes()


def test_profile_matches_independent_collocation():
    # same boundary-value problem solved by scipy's collocation method from
    # a flat initial guess; agreement validates the shooting route
    N, a, r_max = 1, 2.0, 4.0

    def rhs(r, y):
        W, dW = y
        Wp = np.maximum(W, 0.0)
        src = -np.expm1(-Wp) * h_of_w(LOG15, Wp)
        drift = np.divide((N - 1) * dW, r, out=np.zeros_like(r), where=r > 0)
        return np.vstack([dW, src - dW**2 - drift])

    def bc(ya, yb):
        return np.array([ya[0] - math.log1p(a), ya[1]])

    r_nodes = np.linspace(1e-9, r_max, 400)
    flat = np.vstack([np.full_like(r_nodes, math.log1p(a)), np.zeros_like(r_nodes)])
    sol = solve_bvp(rhs, bc, r_nodes, flat, tol=1e-10, max_nodes=200000)
    assert sol.status == 0
    prof = shoot_profile(LOG15, a, N, r_max)
    for r in (1.0, 2.0, 3.0, 4.0):
        assert prof.w_at(r) == pytest.approx(float(sol.sol(r)[0]), abs=1e-7)


def _scipy_rk45_shoot(spec, a, N, r_max):
    """The shoot by scipy's RK45: the profile equation in W, as an array
    right-hand side on h_of_w, from shoot_profile's Taylor seed."""

    def rhs(r, y):
        w, p = y
        absorb = -np.expm1(-w) * h_of_w(spec, np.asarray(w))
        return [p, float(absorb) - p * p - (N - 1) * p / r]

    r0 = 1e-6 * max(1.0, r_max)
    ha = eval_h(spec, a)
    v0 = a + a * ha * r0 * r0 / (2.0 * N)
    y0 = [math.log1p(v0), a * ha * r0 / N / (1.0 + v0)]
    sol = solve_ivp(rhs, (r0, r_max), y0, method="RK45", rtol=_SHOOT_RTOL,
                    atol=1e-12, dense_output=True)
    assert sol.status == 0
    return sol


# The port and RK45 sum the tableau rows in different orders (numpy's dot
# goes to BLAS, whose kernel, FMA use included, depends on the CPU).  The
# error estimate h sum(E_j K_j) cancels about seven digits, so those last
# bits move each step factor err^(-1/5) by up to about 1e-5 relative: the
# steps are the same steps, but the nodes agree only to about 4e-5.  Where
# the step size is accuracy-limited that moves W and W' by under 5e-14.
_ORACLE_CASES = [
    *[(Nonlinearity.log_power(alpha), N, a, 5.0)
      for alpha in (1.5, 2.0) for N in (1, 3) for a in (1.0, 8.0)],
    (Nonlinearity.power(2.0), 1, 0.1, 1.0),
]


@pytest.mark.parametrize(
    "spec, N, a, r_max", _ORACLE_CASES,
    ids=[f"{s.family}{s.alpha or s.p:g}-N{N}-a{a:g}" for s, N, a, _ in _ORACLE_CASES],
)
def test_shoot_takes_scipy_rk45_steps_and_values(spec, N, a, r_max):
    prof = shoot_profile(spec, a, N, r_max)
    sol = _scipy_rk45_shoot(spec, a, N, r_max)
    ts = prof.dense.ts
    assert len(ts) == len(sol.t)  # the same accepted steps
    np.testing.assert_allclose(ts, sol.t, rtol=1e-4, atol=0.0)
    off_node = 0.5 * (sol.t[1:] + sol.t[:-1])
    for r in (prof.radii[prof.radii >= ts[0]], off_node):
        np.testing.assert_allclose(prof.dense(r), sol.sol(r), rtol=1e-12, atol=0.0)


def test_stiff_alpha2_shoot_takes_scipy_rk45_steps():
    # past r = 6 the alpha = 2, a = 8 profile is stability-limited: the
    # explicit steps shrink like 1/W' and take 2,478 steps to r = 8 against
    # 244 to r = 5, so each step sits at a stability boundary, and the
    # nodes' last bits move W' by about 1.3e-9 relative (W by 6e-13)
    prof = shoot_profile(LOG20, 8.0, 1, 8.0)
    sol = _scipy_rk45_shoot(LOG20, 8.0, 1, 8.0)
    assert len(prof.dense.ts) == len(sol.t) == 2479
    np.testing.assert_allclose(prof.dense.ts, sol.t, rtol=1e-4, atol=0.0)
    w, dw = prof.dense(sol.t)
    np.testing.assert_allclose(w, sol.y[0], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(dw, sol.y[1], rtol=1e-8, atol=0.0)


def test_profile_leaving_double_range_names_its_radius():
    # alpha = 3 is a Keller-Osserman law: the profile blows up at a finite
    # radius and the shoot stops where W = ln 1e300.  The radius is the one
    # scipy's RK45 event located on the same step
    with pytest.raises(OverflowGuardError, match=r"at r = 4\.40403 \(center height 1,"):
        shoot_profile(Nonlinearity.log_power(3.0), 1.0, 1, 10.0)
    with pytest.raises(OverflowGuardError, match=r"at r = 1\.91503 \(center height 8,"):
        shoot_profile(Nonlinearity.log_power(3.0), 8.0, 3, 10.0)
    # the power law's steps shrink below 10 ulp of r before W gets there,
    # at its blow-up radius: from V'^2 / 2 = (V^3 - 1) / 3 at a = 1, N = 1,
    # R = sqrt(3/2) B(1/6, 1/2) / 3
    with pytest.raises(ToleranceError, match="less than spacing between numbers") as err:
        shoot_profile(Nonlinearity.power(2.0), 1.0, 1, 10.0)
    blow_up = math.sqrt(1.5) * math.gamma(1 / 6) * math.gamma(0.5) / (3 * math.gamma(2 / 3))
    assert float(str(err.value).rsplit("r = ", 1)[1]) == pytest.approx(blow_up, rel=1e-5)


@pytest.mark.parametrize("alpha, c", [(1.5, 1.0), (1.2, 0.5), (1.8, 4.0)])
def test_crossing_agrees_with_brentq_on_w_at(alpha, c):
    # the crossing search bisects the shoot's own quartics, so it finds the
    # root that brentq finds on RadialProfile.w_at, the same interpolant
    prof = shoot_profile(Nonlinearity.log_power(alpha), c, 1, 6.0)
    w0, w1 = prof.w_values[0], prof.w_values[-1]
    for frac in (0.01, 0.5, 0.99):
        level = w0 + frac * (w1 - w0)
        r = prof.dense.crossing(level)
        root = brentq(lambda x: prof.w_at(x) - level, 1e-6, 6.0, xtol=1e-15)
        assert abs(r - root) <= 1e-12 * root
        assert prof.w_at(r) >= level > prof.w_at(np.nextafter(r, 0.0))
    # a level the run does not cross has no crossing radius
    for level in (w0, w1 + 1.0):
        with pytest.raises(BracketError, match="does not cross"):
            prof.dense.crossing(level)


def test_shoot_needs_a_range_past_its_seed_radius():
    # the shoot starts at r0 = 1e-6 max(1, r_max) and integrates outward only
    with pytest.raises(DomainError, match="seed radius"):
        shoot_profile(LOG15, 1.0, 1, 1e-6)
    assert shoot_profile(LOG15, 1.0, 1, 1e-5).w_at(1e-5) == pytest.approx(math.log1p(1.0))


def test_profile_center_conditions():
    prof = shoot_profile(LOG15, 3.0, 1, 6.0)
    assert prof.w_at(0.0) == pytest.approx(math.log1p(3.0), abs=1e-9)
    assert prof.sample(np.array([0.0]))[1][0] == pytest.approx(0.0, abs=1e-9)


def test_profiles_increase_in_radius_and_center_height():
    radii = np.linspace(0.0, 6.0, 61)
    p1 = shoot_profile(LOG15, 1.0, 3, 6.0, grid=radii)
    p2 = shoot_profile(LOG15, 2.0, 3, 6.0, grid=radii)
    assert np.all(np.diff(p1.w_values) >= 0.0)
    assert np.max(p1.w_values - p2.w_values) < 0.0


def test_higher_dimension_flattens_profiles():
    # the drift term spreads mass; growth is slower in higher dimension
    p1 = shoot_profile(LOG15, 2.0, 1, 6.0)
    p3 = shoot_profile(LOG15, 2.0, 3, 6.0)
    assert p3.w_at(6.0) < p1.w_at(6.0)


def test_apriori_bound_power_family_closed_form():
    # p = 3: the energy integral is elementary and the bound solves
    # 2 (1/b - 1/v) = sqrt(2) R
    b, R = 1.0, 0.5
    got = apriori_bound(POW3, b, R)
    want = 1.0 / (1.0 / b - R / math.sqrt(2.0))
    assert got == pytest.approx(want, rel=1e-9)


def test_apriori_bound_saturates_for_wide_balls():
    # beyond the finite reach of the energy integral no bound exists, for
    # both Keller-Osserman families; H overflows on the way to 1e300, and
    # that stays silent
    for spec in (POW3, Nonlinearity.log_power(3.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketError):
                apriori_bound(spec, 1.0, 10.0)


def test_apriori_bound_dominates_profiles():
    for a in (1.0, 2.0):
        prof = shoot_profile(LOG15, a, 3, 4.0)
        for R in (1.0, 2.0, 4.0):
            v_at = math.expm1(prof.w_at(R))
            assert v_at <= apriori_bound(LOG15, a, R) * (1.0 + 1e-9)


def test_apriori_bound_fails_typed_and_silent_for_tiny_heights():
    # at b = 1e-25 the bound lies within an ulp of b, so F cannot reach
    # sqrt(2) R at any double; at b = 1e-300 H(b) underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceError):
            apriori_bound(LOG15, 1e-25, 1.0)
        with pytest.raises(PreconditionError, match="H must be positive"):
            apriori_bound(LOG15, 1e-300, 1.0)


@pytest.mark.parametrize("b", [1.0, 2.0])
@pytest.mark.parametrize("R", [1.0, 2.0])
def test_apriori_bound_log_power_against_mpmath(b, R):
    # the returned v solves int_b^v ds / sqrt(H(s)) = sqrt(2) R.  With
    # u = ln(1+t), H(s) = int_0^L (e^{2u} - e^u) u^1.5 du, L = ln(1+s), and
    # int_0^L u^1.5 e^{ku} du = L^2.5 / 2.5 * 1F1(2.5; 3.5; kL)
    v = apriori_bound(LOG15, b, R)
    with mp.workdps(30):
        def H(s):
            L = mp.log1p(s)
            return L**2.5 / 2.5 * (mp.hyp1f1(2.5, 3.5, 2 * L) - mp.hyp1f1(2.5, 3.5, L))

        F = mp.quad(lambda s: 1 / mp.sqrt(H(s)), [b, v])
    assert float(F) == pytest.approx(math.sqrt(2.0) * R, rel=1e-12)


def test_apriori_bound_increases_in_radius_and_height():
    assert apriori_bound(LOG15, 1.0, 2.0) < apriori_bound(LOG15, 1.0, 3.0)
    assert apriori_bound(LOG15, 1.0, 2.0) < apriori_bound(LOG15, 2.0, 2.0)


@pytest.mark.parametrize("alpha, c", [(1.5, c_alpha(1.5)), (1.5, 0.02), (1.2, 0.05)])
@pytest.mark.parametrize("shift", [-0.7, 0.0, 1.3])
def test_fit_is_exact_on_shifted_power_law(alpha, c, shift):
    # W = c (r - s)^k with matching W_r: both estimators are shift-invariant
    # and must return k and c to roundoff, whatever the shift
    k = 2.0 / (2.0 - alpha)
    r = np.linspace(0.0, 10.0, 513)
    x = np.maximum(r - shift, 0.0)
    prof = RadialProfile(
        radii=r, w_values=c * x**k, dw_values=c * k * x ** (k - 1.0),
    )
    fit = fit_asymptotics(prof, alpha)
    assert fit.target_exponent == k
    assert fit.exponent_hat == pytest.approx(k, rel=1e-12)
    assert fit.constant_hat == pytest.approx(c, rel=1e-12)


def test_profile_without_dense_output_cannot_be_sampled():
    # every shot profile carries its dense output, and sampling reads only
    # that: a hand-built profile has none, so sampling it is refused
    r = np.linspace(0.0, 4.0, 65)
    prof = RadialProfile(radii=r, w_values=2.0 * r**2, dw_values=4.0 * r)
    with pytest.raises(PreconditionError, match="dense output"):
        prof.sample(r[:3])
    with pytest.raises(PreconditionError, match="dense output"):
        prof.w_at(1.0)
    assert shoot_profile(LOG15, 1.0, 1, 4.0).w_at(1.0) > math.log1p(1.0)


def test_fit_recovers_quartic_log_growth():
    prof = shoot_profile(LOG15, 1.0, 3, 10.0)
    fit = fit_asymptotics(prof, 1.5)
    assert fit.target_exponent == 4.0
    assert fit.target_constant == c_alpha(1.5)
    # measured pre-asymptotic values at this radius (W(10) = 43.6); frozen
    # as regression pins
    assert fit.exponent_hat == pytest.approx(4.3948818918366905, rel=1e-6)
    assert fit.constant_hat == pytest.approx(0.0035739106828359384, rel=1e-5)


def test_fit_borderline_exponential_rate():
    prof = shoot_profile(LOG20, 1.0, 3, 10.0)
    fit = fit_asymptotics(prof, 2.0)
    assert fit.target_exponent == 1.0 and fit.target_constant is None
    assert fit.exponent_hat == pytest.approx(0.9967253727278454, rel=1e-6)
    # within the headline 5 percent band around slope 1
    assert abs(fit.exponent_hat - 1.0) < 0.05


def test_fit_requires_enough_range():
    prof = shoot_profile(LOG15, 1.0, 1, 2.0)  # W(2) = 1.35, far too low
    with pytest.raises(InsufficientRangeError):
        fit_asymptotics(prof, 1.5)


def test_shoot_log_profile_past_linear_double_range():
    # V leaves double range at r = 20.27 (W = 690.8); the log-power equation
    # in W never forms V, so the shoot continues to the requested radius;
    # W(40) is a regression pin (the growth law gives c_alpha 40^4 = 1.0e4)
    prof = shoot_profile(LOG15, 1.0, 3, 40.0)
    assert prof.radii[-1] == 40.0
    assert prof.w_values[-1] == pytest.approx(1.0234e4, rel=1e-3)
    assert np.all(np.isfinite(prof.w_values)) and np.all(np.isfinite(prof.dw_values))
    # the far part joins the near part: same profile as a shorter shoot
    assert prof.w_at(10.0) == pytest.approx(43.63683788420581, rel=1e-7)


def test_profile_frozen_deep_values():
    p15 = shoot_profile(LOG15, 1.0, 3, 10.0)
    assert p15.w_at(10.0) == pytest.approx(43.63683788420581, rel=1e-7)
    p20 = shoot_profile(LOG20, 1.0, 3, 10.0)
    assert p20.w_at(10.0) == pytest.approx(558.1053407531698, rel=1e-7)
