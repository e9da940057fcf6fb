"""Stationary radial profiles of the absorption equation.

A stationary profile V solves

    V'' + (N-1)/r V' = V h(V),   V(0) = a,  V'(0) = 0.

For borderline nonlinearities these profiles grow like
``exp(c r^(2/(2-alpha)))`` and overflow doubles around r = 12, so all
integration happens in the log variable W = ln(1+V), which grows only
polynomially.  In that variable the equation reads

    W'' + W'^2 + (N-1)/r W' = (1 - e^(-W)) h(e^W - 1),

and for the log-power family the right-hand factor h(e^W - 1) is exactly
W^alpha -- no exponentials anywhere.

The module provides:

* :func:`shoot_profile` -- initial-value shooting from the center with a
  Taylor seed that steps over the coordinate singularity at r = 0;
* :func:`apriori_bound` -- the universal pointwise bound on any profile,
  the root of an energy integral of 1/sqrt(H): bracketed by doubling
  steps, then found by Newton on the integral's exact slope, with ln H
  from :func:`absorblab.nonlinearity._log_H_at_log` and a residual
  tolerance of 1e-8;
* :func:`fit_asymptotics` -- least-squares measurement of the super-Gaussian
  growth exponent and constant against their predicted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import gl_panels
from .errors import (
    BracketError,
    DomainError,
    GridError,
    InsufficientRangeError,
    OverflowGuardError,
    PreconditionError,
    ToleranceError,
)
from .nonlinearity import Nonlinearity, _log_H_at_log, eval_h, h_of_w

_V_CLIP = 1e300
_SHOOT_RTOL = 1e-9  # relative tolerance of shoot_profile's RK45 integration


def c_alpha(alpha: float) -> float:
    """Growth constant of the super-Gaussian profile law for alpha in (1,2).

    Profiles of the log-power family satisfy
    ``ln V(r) ~ c_alpha * r^(2/(2-alpha))`` with
    ``c_alpha = ((2-alpha)/2)^(2/(2-alpha))``.
    """
    if not (0.0 < alpha < 2.0):
        raise DomainError("growth constant defined for alpha in (0, 2)")
    return ((2.0 - alpha) / 2.0) ** (2.0 / (2.0 - alpha))


@dataclass(frozen=True)
class RadialProfile:
    """A stationary profile sampled on a radial grid, stored in W = ln(1+V)."""

    radii: np.ndarray
    w_values: np.ndarray
    dw_values: np.ndarray
    dense: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.radii)
        if r.ndim != 1 or len(r) < 2 or r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise GridError("radii must be strictly increasing from 0")
        if np.any(np.diff(self.w_values) < -1e-12):
            raise DomainError("profile must be nondecreasing in r")

    def sample(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """(W, W_r) at arbitrary radii inside the computed range, from the
        shoot's dense output: two arrays for a 1-D ``radii``, two scalars for
        a scalar radius.  A profile without dense output cannot be sampled."""
        if self.dense is None:
            raise PreconditionError("profile has no dense output to sample")
        radii = np.asarray(radii, dtype=float)
        if np.any(radii < 0.0) or np.any(radii > self.radii[-1] * (1 + 1e-12)):
            raise DomainError("sample radii outside the computed range")
        out = self.dense(np.clip(radii, self.dense.t_min, None))
        w = np.where(radii < self.dense.t_min, self.w_values[0], out[0])
        dw = np.where(radii < self.dense.t_min, 0.0, out[1])
        return w[()], dw[()]

    def w_at(self, r: float) -> float:
        return float(self.sample(r)[0])


def _w_rhs(spec: Nonlinearity, N: int):
    def rhs(r, y):
        w, p = y
        absorb = -np.expm1(-w) * h_of_w(spec, np.asarray(w))
        return [p, float(absorb) - p * p - (N - 1) * p / r]

    return rhs


def shoot_profile(
    spec: Nonlinearity,
    a: float,
    N: int,
    r_max: float,
    grid: np.ndarray | None = None,
) -> RadialProfile:
    """Integrate the stationary profile with center height ``a`` out to r_max.

    Shooting starts at ``r0 = 1e-6 * max(1, r_max)`` with the Taylor seed
    ``V(r0) = a + a h(a) r0^2 / (2N)``, ``V'(r0) = a h(a) r0 / N``, which is
    the exact curvature of the profile at the origin and steps over the
    (N-1)/r singularity.  Adaptive Runge-Kutta (order 5(4), relative
    tolerance ``_SHOOT_RTOL``) in the W variable; the solution is resampled
    onto ``grid`` (default: 513 uniform nodes).

    Overflow guard.  For the log-power family with alpha <= 2 the right-hand
    side is W^alpha and never forms V, and there is no finite-radius blow-up,
    so the run aborts only if W itself leaves double range (W > 1e300).  V
    may leave double range there without harm (W > 690.8, reached at
    r = 20.27 for alpha = 1.5, a = 1, N = 3).  Every other law aborts where V
    leaves double range: non-log laws evaluate h in linear scale (see
    :func:`h_of_w`), and a log-power profile with alpha > 2 is then inside
    its finite-radius blow-up layer, where the explicit steps shrink like
    1/W'.  The same stiffness makes the cost of an alpha = 2 shoot grow like
    W(r_max) ~ e^(r_max).
    """
    from scipy.integrate import solve_ivp

    if not (a > 0.0):
        raise DomainError(f"center height must be positive, got {a}")
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    if grid is None:
        grid = np.linspace(0.0, r_max, 513)
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or abs(grid[-1] - r_max) > 1e-12 * max(1.0, r_max):
        raise GridError("grid must span [0, r_max]")

    r0 = 1e-6 * max(1.0, r_max)
    ha = eval_h(spec, a)
    v0 = a + a * ha * r0 * r0 / (2.0 * N)
    dv0 = a * ha * r0 / N
    y0 = [math.log1p(v0), dv0 / (1.0 + v0)]

    if spec.family == "log_power" and spec.alpha <= 2.0:
        cap = _V_CLIP
    else:
        cap = math.log(_V_CLIP)

    def overflow_event(r, y):
        return y[0] - cap

    overflow_event.terminal = True

    sol = solve_ivp(
        _w_rhs(spec, N),
        (r0, r_max),
        y0,
        method="RK45",
        rtol=_SHOOT_RTOL,
        atol=1e-12,
        dense_output=True,
        events=overflow_event,
    )
    if sol.status == 1:
        raise OverflowGuardError(
            f"profile left double range at r = {sol.t[-1]:.6g} "
            f"(center height {a:g}, W cap {cap:.6g})"
        )
    if not sol.success:
        raise ToleranceError(f"profile integration failed: {sol.message}")

    w = np.empty_like(grid)
    dw = np.empty_like(grid)
    inside = grid >= r0
    vals = sol.sol(grid[inside])
    w[inside], dw[inside] = vals[0], vals[1]
    w[~inside] = math.log1p(a)
    dw[~inside] = 0.0
    # guard against tiny negative drifts of the monotone solution
    w = np.maximum.accumulate(w)
    return RadialProfile(
        radii=grid,
        w_values=w,
        dw_values=dw,
        dense=sol.sol,
    )


def apriori_bound(spec: Nonlinearity, b: float, R: float) -> float:
    """Universal bound at radius R for any profile with center height >= b.

    Returns the root v of ``F(v) = sqrt(2) R``, where ``F(v)`` is the
    integral of ``1/sqrt(H)`` over [b, v].  In x = ln v, F is the integral
    of ``exp(y - ln H(e^y) / 2)`` over [ln b, x]: one Gauss-Legendre sweep
    over ceil(x - ln b) equal panels, with ln H at its nodes from one
    :func:`_log_H_at_log` call.

    The root is bracketed by doubling the step from ln b + 0.25; F still
    below the target past ln 1e300 raises :class:`BracketError`.  Inside the
    bracket, Newton steps on the exact slope ``dF/dx = exp(x - ln H(e^x)/2)``
    climb to it from the left end, bisecting wherever a step would leave the
    bracket, until a step or the bracket is below ``1e-15 max(1, |x|)``.  A
    residual ``|F - sqrt(2) R|`` above ``1e-8 sqrt(2) R`` raises
    :class:`ToleranceError`, and an H that underflows to 0 at b raises
    :class:`PreconditionError`.
    """
    if not (b > 0.0):
        raise DomainError("lower height must be positive")
    if not (R >= 0.0):
        raise DomainError("radius must be nonnegative")
    if R == 0.0:
        return b
    target = math.sqrt(2.0) * R
    x_b = math.log(b)

    def slope(x):
        # H overflows to inf past x ~ 354, which zeroes the slope; where it
        # underflows to 0 the slope is inf, which the check below refuses
        with np.errstate(over="ignore", divide="ignore"):
            return np.exp(x - 0.5 * _log_H_at_log(spec, x))

    if not slope(x_b) < math.inf:
        raise PreconditionError("H must be positive above the lower limit")

    def F(x):
        edges = np.linspace(x_b, x, max(math.ceil(x - x_b), 1) + 1)
        return float(np.sum(gl_panels(slope, edges[:-1], edges[1:], splits=1)))

    x, r, x_hi = x_b, -target, x_b + 0.25
    r_hi = F(x_hi) - target
    while r_hi < 0.0:
        if x_hi > math.log(_V_CLIP):
            raise BracketError(
                "energy integral saturates below the target before 1e300"
            )
        x, r, x_hi = x_hi, r_hi, 2.0 * x_hi - x_b
        r_hi = F(x_hi) - target
    # F is concave in x (H(s) <= s^2 h(s) / 2), so Newton from the left end
    # of the bracket climbs to the root without overshooting it
    x_lo = x
    for _ in range(64):  # bisection alone would shrink the bracket 2^64-fold
        s = float(slope(x))
        x_new = x - r / s if s > 0.0 else math.nan
        tol = 1e-15 * max(1.0, abs(x))
        if abs(x_new - x) <= tol or x_hi - x_lo <= tol:
            break
        if not x_lo < x_new < x_hi:
            x_new = 0.5 * (x_lo + x_hi)
        x = x_new
        r = F(x) - target
        if r < 0.0:
            x_lo = x
        else:
            x_hi = x
    if abs(r) > 1e-8 * target:
        raise ToleranceError(
            "a-priori bound root residual above tolerance", residual=abs(r)
        )
    return math.exp(x)


@dataclass(frozen=True)
class FitReport:
    """Measured growth law of a computed profile."""

    exponent_hat: float
    constant_hat: float
    target_exponent: float
    target_constant: float | None  # None for the alpha = 2 fit of ln W against r


def fit_asymptotics(profile: RadialProfile, alpha: float) -> FitReport:
    """Least-squares measurement of the profile growth law over the outer fifth.

    For alpha < 2 the target is ``W(r) ~ c_alpha r^k`` with
    ``k = 2/(2-alpha)`` and ``c_alpha`` from :func:`c_alpha`.  To leading
    order the profile equation is ``W' = W^(alpha/2)``, which is autonomous,
    so each profile is close to ``c_alpha (r - s)^k`` with a shift ``s`` that
    depends on the center height and the dimension.  A free fit of ln W
    against ln r carries a bias of order ``k s / r_max`` in its slope, and
    the exponential of its intercept does not measure the coefficient of
    ``r^k``.  Both reported numbers are therefore shift-invariant:

    * exponent: 1 / (least-squares slope of ``W / W_r`` against r), from the
      stored derivative ``dw_values``;
    * constant: (least-squares slope of ``W^(1/k)`` against r)^k.

    Both are exact, to roundoff, on ``W = c (r - s)^k``.  What remains is
    the next-order error of the equation, ``W''`` and ``(N-1) W'/r`` against
    ``W^alpha``: at alpha = 1.5, a = 1, N = 3 the exponent is 9.9% off at
    r_max = 10 (W = 43.6) and 0.04% off at r_max = 40 (W = 1.0e4).

    For alpha = 2 fits ln W against r (target slope 1), which is already
    shift-invariant.  The window is [0.8 r_max, r_max].  Requires
    W(r_max) >= 10 so the asymptotic regime is at least entered.
    """
    if not (1.0 < alpha <= 2.0):
        raise DomainError("asymptotic fit defined for alpha in (1, 2]")
    r = profile.radii
    w = profile.w_values
    dw = profile.dw_values
    if w[-1] < 10.0:
        raise InsufficientRangeError(
            f"profile reaches only W(r_max) = {w[-1]:.3g} < 10"
        )
    sel = (r >= 0.8 * r[-1]) & (w > 0.0) & (dw > 0.0)
    if int(np.count_nonzero(sel)) < 8:
        raise InsufficientRangeError("fewer than 8 grid points in the fit window")
    if alpha < 2.0:
        target_exp = 2.0 / (2.0 - alpha)
        target_const = c_alpha(alpha)
        exponent = 1.0 / np.polyfit(r[sel], w[sel] / dw[sel], 1)[0]
        constant = np.polyfit(r[sel], w[sel] ** (1.0 / target_exp), 1)[0] ** target_exp
    else:
        target_exp = 1.0
        target_const = None
        exponent, intercept = np.polyfit(r[sel], np.log(w[sel]), 1)
        constant = math.exp(intercept)
    return FitReport(
        exponent_hat=float(exponent),
        constant_hat=float(constant),
        target_exponent=target_exp,
        target_constant=target_const,
    )
