"""Space-independent decay: closed forms, level inversion, full collapse."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorblab import flat_ode
from absorblab.errors import (
    BracketError,
    DomainError,
    GridError,
    OverflowGuardError,
    PreconditionError,
    ToleranceError,
)
from absorblab.flat_ode import (
    FlatTrajectory,
    osgood_tail_from_log,
    solve_phi,
    solve_phi_infinity,
    solve_phi_infinity_log,
    solve_phi_log,
)
from absorblab.nonlinearity import Nonlinearity

from test_quad import reference_gl_panel

LOG15 = Nonlinearity.log_power(1.5)
POW2 = Nonlinearity.power(2.0)


def test_power_two_closed_form():
    # u' = -u^2 from height a decays as a/(1+at)
    times = np.linspace(0.0, 1.0, 11)
    for a in (0.5, 1.0, 10.0):
        traj = solve_phi(POW2, a, times)
        want = a / (1.0 + a * times)
        np.testing.assert_allclose(traj.values, want, rtol=1e-10)


def test_power_three_closed_form():
    # u' = -u^3 decays as a/sqrt(1+2a^2 t)
    spec = Nonlinearity.power(3.0)
    times = np.linspace(0.0, 2.0, 9)
    a = 3.0
    traj = solve_phi(spec, a, times)
    np.testing.assert_allclose(traj.values, a / np.sqrt(1.0 + 2.0 * a * a * times), rtol=1e-10)


def test_initial_value_round_trips():
    traj = solve_phi(LOG15, 7.5, [0.0, 0.1])
    assert traj.values[0] == pytest.approx(7.5, rel=1e-14)


@given(a=st.floats(1e-3, 1e3), alpha=st.floats(1.05, 3.0))
@settings(max_examples=40, deadline=None)
def test_trajectories_positive_and_nonincreasing(a, alpha):
    spec = Nonlinearity.log_power(alpha)
    traj = solve_phi(spec, a, np.linspace(0.0, 1.0, 7))
    assert np.all(traj.values > 0.0)
    assert np.all(np.diff(traj.values) <= 1e-15)


def test_trajectory_validation():
    with pytest.raises(DomainError):
        FlatTrajectory(times=np.array([0.0, 1.0]), values=np.array([1.0, -0.5]))
    with pytest.raises(DomainError):
        FlatTrajectory(times=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))


def test_osgood_tail_against_mpmath():
    mp.mp.dps = 25
    for v in (5.0, 400.0):
        ref = mp.quad(
            lambda x: 1 / mp.log(1 + mp.e**x) ** mp.mpf("1.5"),
            [mp.log(v), 10, 100, mp.inf],
        )
        assert osgood_tail_from_log(LOG15, math.log(v)) == pytest.approx(float(ref), rel=1e-12)


def test_osgood_tail_requires_convergent_tail():
    with pytest.raises(PreconditionError):
        osgood_tail_from_log(Nonlinearity.log_power(0.9), math.log(10.0))


@given(a=st.floats(0.5, 50.0), t=st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_time_adds_along_trajectories(a, t):
    # the residual lifetime integral drops by exactly the elapsed time
    traj = solve_phi(LOG15, a, [0.0, t])
    lhs = osgood_tail_from_log(LOG15, math.log(traj.values[-1]))
    assert lhs == pytest.approx(
        osgood_tail_from_log(LOG15, math.log(a)) + t, rel=1e-9, abs=1e-11
    )


def test_full_collapse_level_frozen_values():
    # the infinite-data envelope in log scale; (2/t)^2 is the small-t form
    assert solve_phi_infinity_log(LOG15, 1.0) == pytest.approx(3.995563929215997, rel=1e-10)
    assert solve_phi_infinity_log(LOG15, 0.5) == pytest.approx(15.999999990814, rel=1e-10)
    assert solve_phi_infinity(LOG15, 1.0) == pytest.approx(54.35648519239593, rel=1e-9)


def test_full_collapse_level_inverts_lifetime_integral():
    mp.mp.dps = 25
    for t in (0.25, 0.5, 1.0):
        lam = solve_phi_infinity_log(LOG15, t)
        ref = mp.quad(
            lambda x: 1 / mp.log(1 + mp.e**x) ** mp.mpf("1.5"),
            [lam, max(lam, 10) * 2, mp.inf],
        )
        assert float(ref) == pytest.approx(t, rel=1e-10)


def test_full_collapse_small_time_asymptote():
    # deep in the tail the level solves 2/sqrt(x) = t; at t = 1e-9 it is 4e18
    for t in (1e-3, 1e-9):
        lam = solve_phi_infinity_log(LOG15, t)
        assert lam == pytest.approx((2.0 / t) ** 2, rel=1e-3)


def test_full_collapse_power_family_closed_form():
    # u' = -u^2 from infinite data is exactly 1/t
    for t in (0.05, 0.3, 1.0):
        assert solve_phi_infinity(POW2, t) == pytest.approx(1.0 / t, rel=1e-10)


def test_full_collapse_array_matches_scalar_calls():
    # unsorted times, spanning the downward extension and the deep tail
    times = np.array([1.0, 0.01, 20.0, 0.5, 1e-6, 5.0, 0.25])
    lam = solve_phi_infinity_log(LOG15, times)
    assert lam.shape == times.shape
    for t, got in zip(times, lam):
        assert got == pytest.approx(solve_phi_infinity_log(LOG15, float(t)), rel=1e-13)
    np.testing.assert_allclose(
        solve_phi_infinity(POW2, times[times > 0.1]), 1.0 / times[times > 0.1], rtol=1e-10
    )
    assert solve_phi_infinity_log(LOG15, np.array([])).shape == (0,)


@pytest.mark.parametrize("spec", [LOG15, POW2], ids=["log_power_1.5", "power_2"])
@pytest.mark.parametrize(
    "ln_a",
    [math.log(10.0), 2592.0, pytest.param((math.log(10.0), 2592.0, math.inf), id="levels")],
)
def test_finite_data_array_matches_one_time_calls_bitwise(spec, ln_a):
    # all times of a table, and the tables of all levels, are inverted
    # jointly; each (level, time) pair keeps its own arithmetic
    times = np.linspace(0.0, 0.5, 41)
    levels = np.atleast_1d(ln_a)
    joint = flat_ode.solve_phi_levels_log(spec, levels, times)
    if np.ndim(ln_a) == 0:
        np.testing.assert_array_equal(solve_phi_log(spec, ln_a, times), joint[0])
    for x, row in zip(levels, joint):
        if math.isinf(x):
            # the envelope's ascent settles against the least time, so its
            # one-level call takes the same grid
            want = [math.inf, *solve_phi_infinity_log(spec, times[1:])]
        else:
            want = [solve_phi_log(spec, x, [t])[0] for t in times]
        np.testing.assert_array_equal(row, want)


def test_panel_residuals_match_scalar_quadrature_bitwise():
    # the residual of each time repeats the two-sub-panel quadrature of
    # [x, x_hi] alone, as the independent reference sums it
    rng = np.random.default_rng(0)
    for spec in (LOG15, POW2):
        f = flat_ode._inv_h(spec)
        x_hi = rng.uniform(-3.0, 40.0, 25)
        x = x_hi - rng.uniform(0.0, 8.0, 25)
        x[0] = x_hi[0]
        T_hi, t = rng.uniform(0.0, 1.0, 25), rng.uniform(0.0, 1.0, 25)
        want = [
            T_hi[i] + reference_gl_panel(f, x[i], x_hi[i], 2) - t[i] for i in range(25)
        ]
        np.testing.assert_array_equal(flat_ode._panel_residuals(f, x, x_hi, T_hi, t), want)


def test_inversion_failure_reports_the_worst_residual(monkeypatch):
    # the table integrates 1/h and the Newton residual half of it, so times
    # in the upper half of their panel have no root inside their bracket
    real = flat_ode._inv_h

    def inv_h(spec):
        f = real(spec)
        if sys._getframe(1).f_code.co_name == "_level_table":
            return f
        return lambda x: 0.5 * f(x)

    monkeypatch.setattr(flat_ode, "_inv_h", inv_h)
    times = np.linspace(0.0, 0.5, 11)
    with pytest.raises(ToleranceError) as joint:
        solve_phi_log(LOG15, 2592.0, times)
    failing = []
    for t in times[1:]:
        try:
            solve_phi_log(LOG15, 2592.0, [t])
        except ToleranceError as err:
            failing.append(err.residual)
    assert len(failing) > 1  # the worst residual is not just the first
    assert joint.value.residual == max(failing, key=abs)
    # the levels of one call, the envelope included, fail with the worst
    # residual of their one-level calls
    levels = (math.log(10.0), 2592.0, math.inf)
    for spec in (LOG15, POW2):
        with pytest.raises(ToleranceError) as joint:
            flat_ode.solve_phi_levels_log(spec, levels, times)
        failing = []
        for x in levels:
            try:
                if math.isinf(x):
                    solve_phi_infinity_log(spec, times[1:])
                else:
                    solve_phi_log(spec, x, times)
            except ToleranceError as err:
                failing.append(err.residual)
        assert len(failing) > 1
        assert joint.value.residual == max(failing, key=abs)


def test_full_collapse_negative_levels_against_mpmath():
    # t beyond G(0): the envelope level is below 1, so the table extends down
    mp.mp.dps = 25
    for t in (5.0, 20.0):
        lam = solve_phi_infinity_log(LOG15, t)
        assert lam < 0.0
        ref = mp.quad(
            lambda x: 1 / mp.log(1 + mp.e**x) ** mp.mpf("1.5"), [lam, 0, 10, 100, mp.inf]
        )
        assert float(ref) == pytest.approx(t, rel=1e-10)


def test_full_collapse_power_family_log_closed_form():
    # u' = -u^2 from infinite data: ln Phi_inf(t) = -ln t, on both sides of t = 1
    times = np.array([1e-3, 0.05, 0.3, 1.0, 5.0, 20.0])
    np.testing.assert_allclose(solve_phi_infinity_log(POW2, times), -np.log(times),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_full_collapse_rejects_nonpositive_times_in_arrays(bad):
    with pytest.raises(DomainError):
        solve_phi_infinity_log(LOG15, np.array([0.5, bad, 1.0]))


def test_full_collapse_unsettled_tail_raises_typed_error():
    # alpha = 1.001: panels over [X, 2X] shrink like X^-0.001, so the
    # lifetime table cannot settle within its panel budget
    with pytest.raises(BracketError):
        solve_phi_infinity_log(Nonlinearity.log_power(1.001), 0.5)


@pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-3])
def test_full_collapse_slow_tail_against_mpmath(t):
    # alpha = 1.05: tail panels shrink by only 2^-0.05 per doubling of the
    # level, so the table stops on a settled panel ratio; the level is
    # about 1e86 at t = 1e-3 and 1e206 at t = 1e-9
    lam = solve_phi_infinity_log(Nonlinearity.log_power(1.05), t)
    mp.mp.dps = 30

    def integrand(s):
        # G(lam) = integral of dx / ln^1.05(1 + e^x) over [lam, inf), with x = lam e^s
        x = mp.mpf(lam) * mp.exp(s)
        soft = mp.log1p(mp.exp(x)) if x < 1e4 else x  # ln(1 + e^x) to 30 digits
        return x / soft ** mp.mpf("1.05")

    ref = mp.quad(integrand, [0, 1, 10, 100, 1000, mp.inf])
    assert float(ref) == pytest.approx(t, rel=1e-10)


def test_full_collapse_linear_scale_overflow_guard():
    with pytest.raises(OverflowGuardError):
        solve_phi_infinity(LOG15, 1e-3)  # level (2/t)^2 = 4e6 in log scale


def test_full_collapse_requires_convergent_tail():
    with pytest.raises(PreconditionError):
        solve_phi_infinity(Nonlinearity.log_power(1.0), 0.5)


def test_envelope_dominates_every_finite_datum():
    times = np.array([0.1, 0.5, 1.0])
    env = np.array([solve_phi_infinity(LOG15, t) for t in times])
    for a in (1.0, 100.0, 1e6):
        traj = solve_phi(LOG15, a, np.concatenate(([0.0], times)))
        assert np.all(traj.values[1:] < env)


def test_solve_phi_log_matches_linear_route():
    times = np.linspace(0.0, 1.0, 5)
    a = 40.0
    lam = solve_phi_log(LOG15, math.log(a), times)
    traj = solve_phi(LOG15, a, times)
    np.testing.assert_allclose(np.exp(lam), traj.values, rtol=1e-9)


def test_solve_phi_log_far_beyond_double_range():
    # start at ln Phi = 2592, far beyond linear double range
    lam = solve_phi_log(LOG15, 2592.0, np.array([0.0, 0.5]))
    assert lam[0] == 2592.0
    assert lam[1] == pytest.approx(13.753884860448164, rel=1e-9)
    # must stay below the infinite-data level at the same time
    assert lam[1] < solve_phi_infinity_log(LOG15, 0.5)
    # the time to decay from 2592 to lam[1] is 0.5 by construction
    assert osgood_tail_from_log(LOG15, float(lam[1])) - osgood_tail_from_log(
        LOG15, 2592.0
    ) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("ln_a", [1e6, 1e7, 1e12])
def test_solve_phi_log_at_astronomical_data(ln_a):
    times = np.array([0.0, 0.1, 0.5])
    lam = solve_phi_log(LOG15, ln_a, times)
    assert lam[0] == ln_a
    g_a = osgood_tail_from_log(LOG15, ln_a)
    for t, x in zip(times[1:], lam[1:]):
        assert osgood_tail_from_log(LOG15, float(x)) - g_a == pytest.approx(t, rel=1e-9)
    # w' = -w^1.5 up to e^-w corrections, which are 6e-10 relative at w = 16
    w = (ln_a ** -0.5 + 0.5 * times) ** -2.0
    np.testing.assert_allclose(lam, w, rtol=1e-8)
    if ln_a == 1e6:
        # u' = -u^2: ln Phi(t) = -ln(1/a + t)
        lam2 = solve_phi_log(POW2, ln_a, times)
        np.testing.assert_allclose(lam2[1:], -np.log(np.exp(-ln_a) + times[1:]),
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("ln_a", [math.log(1e3), 50.0])
def test_finite_data_without_osgood_tail_against_mpmath(alpha, ln_a):
    # no convergent lifetime tail: only the finite-data route applies
    mp.mp.dps = 25
    spec = Nonlinearity.log_power(alpha)
    times = [0.1, 1.0, 3.0]
    lam = solve_phi_log(spec, ln_a, [0.0] + times)
    for t, x in zip(times, lam[1:]):
        ref = mp.quad(lambda y: 1 / mp.log(1 + mp.e**y) ** alpha, mp.linspace(x, ln_a, 5))
        assert float(ref) == pytest.approx(t, rel=1e-10)


def test_tiny_times_against_mpmath():
    # the level moves by ~1e-9 from ln 2, so the step that converges the
    # inversion can round onto the edge of its bracket
    mp.mp.dps = 25
    times = [1e-9, 1e-6, 1e-3]
    traj = solve_phi(LOG15, 2.0, [0.0] + times)
    for t, v in zip(times, traj.values[1:]):
        ref = mp.quad(lambda y: 1 / mp.log(1 + mp.e**y) ** 1.5, [math.log(v), mp.log(2)])
        # the route's contract plus a few ulps of the level (1/h < 1 here)
        assert abs(float(ref) - t) <= 1e-10 * max(t, 1e-6) + 4 * np.finfo(float).eps


@pytest.mark.parametrize(
    "ln_a, times, err",
    [
        (math.inf, [0.0, 0.5], DomainError),
        (-math.inf, [0.0, 0.5], DomainError),
        (math.nan, [0.0, 0.5], DomainError),
        (math.log(2.0), [0.0, math.nan], GridError),
        (math.log(2.0), [math.nan, 0.5], GridError),
        (math.log(2.0), [0.0, math.inf], GridError),
    ],
)
def test_finite_data_routes_reject_nonfinite_inputs(ln_a, times, err):
    with pytest.raises(err):
        solve_phi_log(LOG15, ln_a, times)
    with pytest.raises(err):
        solve_phi(LOG15, math.exp(ln_a), times)


@pytest.mark.parametrize(
    "spec, ln_tops, err",
    [
        (LOG15, [], DomainError),
        (LOG15, [1.0, math.nan], DomainError),
        (LOG15, [-math.inf], DomainError),
        (Nonlinearity.log_power(0.9), [1.0, math.inf], PreconditionError),
    ],
)
def test_levels_route_rejects_bad_levels(spec, ln_tops, err):
    # +inf is the envelope, which exists only under the osgood condition
    with pytest.raises(err):
        flat_ode.solve_phi_levels_log(spec, ln_tops, [0.0, 0.5])
