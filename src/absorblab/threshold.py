"""Heat-kernel threshold analytics for admissible initial growth.

The collapse experiments feed initial data of the form
``g(r) = exp(gamma(r)) - 1`` with gamma nondecreasing.  Whether the
ball-exhaustion limit keeps or forgets such data is governed by a handful
of scalar functionals built from:

* the *domination radius* -- the last radius past which the data stays
  above a stationary profile of prescribed center height;
* the decay of the flat solution started at the data's edge height, whose
  absorption integral admits closed upper bounds;
* Gaussian-tail lower bounds for the heat convolution of the capped data,
  written entirely in log scale since the data itself is far beyond double
  range at threshold growth rates;
* a concave-in-time *tail exponent* whose interior maximizer has a closed
  form, and whose sign along growing radii decides between collapse
  (exponent diverges to +infinity) and decay (to -infinity).

Everything here is scalar analysis; no PDE is solved in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._quad import gl_panels, log_simpson
from .errors import (
    DomainError,
    DominationError,
    PreconditionError,
    UnsupportedDimensionError,
)
from .flat_ode import solve_phi, solve_phi_log
from .nonlinearity import Nonlinearity, log_u_from_w, w_from_log_u
from .profiles import RadialProfile, c_alpha, shoot_profile

__all__ = [
    "GrowthFunction",
    "domination_radius",
    "critical_flat_height",
    "AbsorptionBound",
    "absorption_integral_bound",
    "exact_absorption_integral",
    "erfc_complement",
    "log_erfc",
    "GaussianTailBound",
    "gaussian_tail_log_bound",
    "heat_core_log_integral",
    "tail_exponent",
    "tail_exponent_maximizer",
    "leading_form_remainder",
    "Alpha2Report",
    "alpha2_report",
    "ThresholdVerdict",
    "growth_threshold_verdict",
    "ThresholdReport",
    "threshold_report",
]

# nodes of domination_radius's profile scan, the largest height that
# critical_flat_height brackets, heat_core_log_integral's Simpson nodes, and
# the fewest Gauss panels of exact_absorption_integral
_DOMINATION_GRID = 2049
_BRACKET_MAX = 1e12
_HEAT_CORE_NODES = 4001
_ABSORPTION_PANELS = 8


@dataclass(frozen=True)
class GrowthFunction:
    """Radial growth descriptor: data height is exp(gamma(r)) - 1.

    ``gamma`` maps an array of radii to the array of its values, and a
    scalar radius to a scalar; it must be nonnegative and nondecreasing.
    ``beta`` and ``K`` declare the leading asymptotic gamma(r) ~ K r^beta,
    which threshold verdicts use directly: a liminf cannot be decided from
    finitely many samples, and every experiment builds its growth from a
    known rate anyway.
    """

    gamma: Callable[[np.ndarray], np.ndarray]
    beta: float
    K: float

    def log_data(self, r) -> np.ndarray:
        """ln(exp(gamma) - 1), the log of the data height; -inf where gamma=0."""
        return log_u_from_w(self.gamma(r))


def domination_radius(
    g: GrowthFunction,
    spec: Nonlinearity,
    n: float,
    N: int,
    search_max: float,
    profile: RadialProfile | None = None,
) -> float:
    """Last radius after which the data dominates the height-n profile.

    Scans ``gamma`` against the log profile W_n on [0, search_max] and
    bisects the last sign change to 1e-8 relative; returns 0.0 when the
    data dominates everywhere.  Raises :class:`DominationError` when the
    data is still below the profile at ``search_max``.  ``profile`` is W_n
    already shot on [0, search_max] in dimension N, if the caller has it;
    the scan samples its dense output instead of shooting again.
    """
    grid = np.linspace(0.0, search_max, _DOMINATION_GRID)
    if profile is None:
        profile = shoot_profile(spec, n, N, search_max)
    diff = g.gamma(grid) - profile.sample(grid)[0]
    if diff[-1] < 0.0:
        raise DominationError(
            f"data stays below the height-{n:g} profile at radius {search_max:g} "
            f"(deficit {diff[-1]:.3g} in log scale)"
        )
    below = np.nonzero(diff < 0.0)[0]
    if len(below) == 0:
        return 0.0
    j = below[-1]  # last grid node strictly below; crossing in (r_j, r_{j+1})
    lo, hi = grid[j], grid[j + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(g.gamma(mid)) - profile.w_at(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-8 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def critical_flat_height(spec: Nonlinearity) -> float:
    """Least initial height whose flat solution still exceeds 1 at t = 1.

    Above this height the flat trajectory keeps ``omega/(omega+1) >= 1/2``
    on [0, 1], the validity range of the closed absorption bounds.  The
    minimum over t is attained at t = 1 because flat solutions decrease,
    so the defining condition reduces to ``Phi_a(1) >= 1``.
    """
    t = np.asarray([1.0])

    def final_value(a: float) -> float:
        return float(solve_phi(spec, a, t).values[0])

    lo, hi = 1.0, 2.0
    if final_value(lo) >= 1.0:
        return 1.0
    while final_value(hi) < 1.0:
        lo, hi = hi, hi * 4.0
        if hi > _BRACKET_MAX:
            raise PreconditionError("no finite height reaches 1 at t = 1")
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if final_value(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AbsorptionBound:
    """Closed upper bounds for the time integral of ln^alpha(omega+1)."""

    refined: float      # geometric-decay bound, tight for small t*gamma^(alpha-1)
    crude: float        # gamma^alpha * t
    tau_integral: float  # the inner closed-form integral of the refined bound


def absorption_integral_bound(
    gamma_rn: float, alpha: float, t: float
) -> AbsorptionBound:
    """Bounds on the absorption integral of the flat solution from height
    exp(gamma_rn) - 1, valid for t at most 1 and gamma_rn at least ln 2.

    The refined bound integrates the closed decay envelope of the log
    height; with beta = alpha - 1 and T = t * gamma_rn^beta the inner
    integral is ``2^(-1/beta) - (2 + beta T)^(-1/beta)`` exactly.  The
    crude bound ``gamma_rn^alpha * t`` always dominates the refined one.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError("refined absorption bound needs alpha in (1, 2)")
    if t < 0.0 or t > 1.0:
        raise DomainError(
            f"absorption bounds are only valid on 0 <= t <= 1, got t = {t}"
        )
    if gamma_rn < math.log(2.0):
        raise DomainError(
            "absorption bounds need a data height of at least 1 "
            f"(gamma = {gamma_rn:g} < ln 2)"
        )
    beta = alpha - 1.0
    T = t * gamma_rn**beta
    tau_integral = 2.0 ** (-1.0 / beta) - (2.0 + beta * T) ** (-1.0 / beta)
    refined = 2.0 ** (alpha / beta) * gamma_rn * tau_integral
    crude = gamma_rn**alpha * t
    return AbsorptionBound(refined=float(refined), crude=float(crude), tau_integral=float(tau_integral))


def exact_absorption_integral(spec: Nonlinearity, gamma_rn: float, t: float) -> float:
    """Quadrature of the absorption integral along the actual flat decay.

    Integrates ln^alpha(omega(s)+1) over [0, t] where omega is the flat
    solution started at height exp(gamma_rn) - 1, using Gauss panels with
    the trajectory evaluated by level inversion at every node.  Works for
    gamma_rn far beyond double range since only logs are formed.
    """
    if spec.family != "log_power":
        raise DomainError("absorption integral defined for the log_power family")
    if t <= 0.0:
        return 0.0
    ln_a = float(log_u_from_w(gamma_rn))
    # the height collapses on the timescale gamma^(1-alpha); uniform panels
    # cannot resolve that layer for large data, so grade them geometrically
    # from a first panel of a quarter of the timescale
    first = min(t / _ABSORPTION_PANELS, 0.25 * gamma_rn ** (1.0 - spec.alpha))
    edge_list = [0.0, first]
    while edge_list[-1] < t:
        edge_list.append(min(t, edge_list[-1] + (edge_list[-1] - edge_list[-2]) * 2.0))
    while len(edge_list) - 1 < _ABSORPTION_PANELS:  # keep at least that many panels
        widths = np.diff(edge_list)
        j = int(np.argmax(widths))
        edge_list.insert(j + 1, edge_list[j] + widths[j] / 2.0)
    edges = np.asarray(edge_list)

    def integrand(s):
        # one level inversion for every node, on the times sorted
        times = s.ravel()
        order = np.argsort(times)
        lam = np.empty_like(times)
        lam[order] = solve_phi_log(spec, ln_a, times[order])
        return (w_from_log_u(lam) ** spec.alpha).reshape(s.shape)

    total = 0.0
    for panel in gl_panels(integrand, edges[:-1], edges[1:], 1).tolist():
        total += panel
    return total


# ----------------------------------------------------------------------
# complementary error function
# ----------------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def _erfc_asym_log1p_arg(x: float) -> float:
    """Alternating asymptotic tail sum for erfc, truncated at its least term."""
    x2_2 = 2.0 * x * x
    term = 1.0
    total = 0.0
    prev = math.inf
    k = 0
    while True:
        k += 1
        term *= -(2 * k - 1) / x2_2
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < 1e-20 or k > 60:
            break
    return total


def erfc_complement(x: float) -> float:
    """Complementary error function (``scipy.special.erfc``).

    Values underflow from x of about 26.5 on and are 0 from 27 on, where
    the true value is below double range; use :func:`log_erfc` there.
    """
    from scipy.special import erfc

    return float(erfc(x))


def log_erfc(x: float) -> float:
    """ln erfc(x), finite for every representable x (no underflow)."""
    from scipy.special import erfc, erfcx

    if x > 0.0:
        # erfcx(x) = e^(x^2) erfc(x) stays in range for every x
        return math.log(erfcx(x)) - x * x
    return math.log(erfc(x))


# ----------------------------------------------------------------------
# Gaussian tail bounds of the heat convolution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTailBound:
    """Log-scale lower bound for the outer part of the heat convolution."""

    log_bound: float        # exact erfc form
    log_asymptotic: float   # large-argument expansion of the same form
    difference: float       # log_bound - log_asymptotic


def gaussian_tail_log_bound(
    t: float,
    x_radius: float,
    r_n: float,
    gamma_rn: float,
    omega_int: float,
    N: int,
) -> GaussianTailBound:
    """Lower bound for the tail contribution of capped data, in log scale.

    The outer region carries the constant data height exp(gamma_rn) - 1;
    reducing its Gaussian integral to the far tail of each coordinate
    yields

        ln J >= -omega_int + ln(e^gamma - 1) + N * ln erfc((r_n+|x|)/(2 sqrt t)).

    ``omega_int`` is the caller's value (or upper bound) of the absorption
    integral.  The asymptotic variant replaces ln erfc by its expansion;
    both stay finite for arbitrarily large arguments.
    """
    if t <= 0.0 or r_n <= 0.0:
        raise DomainError("tail bound needs t > 0 and r_n > 0")
    R = r_n + x_radius
    z = R / (2.0 * math.sqrt(t))
    log_g = float(log_u_from_w(gamma_rn))
    log_bound = -omega_int + log_g + N * log_erfc(z)
    log_asym = (
        -omega_int
        + log_g
        + N * (-z * z - math.log(z * _SQRT_PI) + math.log1p(_erfc_asym_log1p_arg(z)))
    )
    return GaussianTailBound(
        log_bound=float(log_bound),
        log_asymptotic=float(log_asym),
        difference=float(log_bound - log_asym),
    )


def heat_core_log_integral(
    t: float,
    x_radius: float,
    r_n: float,
    g: GrowthFunction,
    omega_int: float,
    N: int = 1,
) -> float:
    """log of the inner heat-convolution term over the ball of radius r_n.

    Direct log-stabilized Simpson quadrature of the Gaussian kernel against
    the data (one dimension only); the absorption damping enters through
    the caller-provided ``omega_int``.  Returns -inf for vanishing data.
    """
    if N != 1:
        raise UnsupportedDimensionError(
            "direct quadrature of the inner term is one-dimensional only"
        )
    if t <= 0.0 or r_n <= 0.0:
        raise DomainError("inner term needs t > 0 and r_n > 0")

    def log_f(y: np.ndarray) -> np.ndarray:
        return -((x_radius - y) ** 2) / (4.0 * t) + g.log_data(np.abs(y))

    log_int = log_simpson(log_f, -r_n, r_n, n=_HEAT_CORE_NODES)
    return float(-omega_int - 0.5 * math.log(4.0 * math.pi * t) + log_int)


# ----------------------------------------------------------------------
# tail exponent and its maximizer
# ----------------------------------------------------------------------


def tail_exponent(
    t: float,
    x_radius: float,
    r_n: float,
    gamma_rn: float,
    alpha: float,
    N: int,
) -> float:
    """The concave-in-t exponent combining data height, Gaussian cost and
    the crude absorption bound:

        gamma - N R^2/(4t) - N ln R - (N/2) ln t - gamma^alpha t,

    with R = r_n + x_radius.  ``alpha = 2`` gives the borderline variant
    (the absorption term becomes gamma^2 t).
    """
    if t <= 0.0:
        raise DomainError("tail exponent defined for t > 0")
    if not (1.0 < alpha <= 2.0):
        raise DomainError("tail exponent defined for alpha in (1, 2]")
    R = r_n + x_radius
    return (
        gamma_rn
        - N * R * R / (4.0 * t)
        - N * math.log(R)
        - 0.5 * N * math.log(t)
        - gamma_rn**alpha * t
    )


def tail_exponent_maximizer(
    x_radius: float, r_n: float, gamma_rn: float, alpha: float, N: int
) -> float:
    """Unique interior maximizer of t -> tail_exponent(t, ...), closed form:

        t* = N R^2 / (N + sqrt(N^2 + 4 N R^2 gamma^alpha)).
    """
    if not (1.0 < alpha <= 2.0):
        raise DomainError("maximizer defined for alpha in (1, 2]")
    R = r_n + x_radius
    ga = gamma_rn**alpha
    return N * R * R / (N + math.sqrt(N * N + 4.0 * N * R * R * ga))


def leading_form_remainder(
    x_radius: float, r_n: float, gamma_rn: float, alpha: float, N: int
) -> float:
    """Remainder nu of the large-radius form of the maximized exponent.

    Writing B(t*) = r_n gamma^(alpha/2) (gamma^(1-alpha/2)/r_n
    - sqrt(N) (1 + nu)), returns the measured nu; it tends to 0 as r_n
    grows with x fixed, and its decay is the quantitative content of the
    leading form.
    """
    t_star = tail_exponent_maximizer(x_radius, r_n, gamma_rn, alpha, N)
    B = tail_exponent(t_star, x_radius, r_n, gamma_rn, alpha, N)
    scale = r_n * gamma_rn ** (alpha / 2.0)
    return (gamma_rn ** (1.0 - alpha / 2.0) / r_n - B / scale) / math.sqrt(N) - 1.0


@dataclass(frozen=True)
class Alpha2Report:
    """Borderline-exponent evaluation at its maximizer for one radius."""

    r_n: float
    gamma_rn: float
    t_star: float
    B_at_t_star: float
    leading_form: float   # gamma - r_n gamma sqrt(N), the nu = 0 value
    nu_measured: float


def alpha2_report(
    x_radius: float, r_n: float, gamma_rn: float, N: int
) -> Alpha2Report:
    """Evaluate the alpha = 2 tail exponent at its maximizer.

    In the borderline case the maximized exponent behaves like
    ``gamma - r_n gamma (sqrt(N) - nu)`` and diverges to -infinity along
    any growing radius sequence: the collapse mechanism shuts down.
    """
    t_star = tail_exponent_maximizer(x_radius, r_n, gamma_rn, 2.0, N)
    B = tail_exponent(t_star, x_radius, r_n, gamma_rn, 2.0, N)
    nu = math.sqrt(N) - (gamma_rn - B) / (r_n * gamma_rn)
    return Alpha2Report(
        r_n=r_n,
        gamma_rn=gamma_rn,
        t_star=t_star,
        B_at_t_star=B,
        leading_form=gamma_rn - r_n * gamma_rn * math.sqrt(N),
        nu_measured=nu,
    )


@dataclass(frozen=True)
class ThresholdVerdict:
    """Comparison of a declared growth rate against both critical constants."""

    exceeds_collapse_threshold: bool  # decides forgetting of initial data
    exceeds_profile_growth: bool      # the weaker headline-rate comparison
    critical_exponent: float          # 2/(2-alpha)
    collapse_constant: float          # N^(1/(2-alpha))
    profile_constant: float           # c_alpha


def growth_threshold_verdict(
    g: GrowthFunction, alpha: float, N: int
) -> ThresholdVerdict:
    """Decide both growth comparisons from the declared asymptotic (beta, K).

    The data, with gamma(r) ~ K r^beta, exceeds a critical rate
    ``C r^(2/(2-alpha))`` iff beta is larger than the critical exponent, or
    equal to it with K strictly above the constant.  Two constants matter:
    ``N^(1/(2-alpha))`` (the sufficient collapse threshold) and the smaller
    ``c_alpha`` (the growth of stationary profiles).  The gap between them
    is reported, not resolved.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError("threshold verdict defined for alpha in (1, 2)")
    if g.beta is None or g.K is None:
        raise DomainError("growth function lacks a declared asymptotic")
    crit = 2.0 / (2.0 - alpha)
    n_const = float(N) ** (1.0 / (2.0 - alpha))
    c_const = c_alpha(alpha)

    def exceeds(constant: float) -> bool:
        if g.beta > crit * (1.0 + 1e-12):
            return True
        if abs(g.beta - crit) <= 1e-12 * crit:
            return g.K > constant
        return False

    return ThresholdVerdict(
        exceeds_collapse_threshold=exceeds(n_const),
        exceeds_profile_growth=exceeds(c_const),
        critical_exponent=crit,
        collapse_constant=n_const,
        profile_constant=c_const,
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Aggregate threshold analytics along a sequence of profile heights."""

    n_values: np.ndarray
    r_n: np.ndarray
    gamma_rn: np.ndarray
    t_n: np.ndarray
    B_n: np.ndarray                  # tail exponent at its maximizer
    log_J_n: np.ndarray              # Gaussian-tail lower bounds (log scale)
    nu_n: np.ndarray                 # leading-form remainders
    verdict: ThresholdVerdict
    x_radius: float
    notes: dict = field(default_factory=dict)


def threshold_report(
    g: GrowthFunction,
    spec: Nonlinearity,
    N: int,
    n_list: Sequence[float],
    search_max: float,
    x_radius: float = 0.0,
) -> ThresholdReport:
    """Assemble the full analytics table along ``n_list``.

    For each profile height n: locate the domination radius, evaluate the
    crude absorption bound at the maximizer, and record the maximized tail
    exponent with its Gaussian-tail counterpart.  Requires the log_power
    family (the exponent alpha enters every formula).
    """
    if spec.family != "log_power" or not (1.0 < spec.alpha <= 2.0):
        raise DomainError("threshold report needs log_power with alpha in (1, 2]")
    alpha = spec.alpha
    n_arr = np.asarray(list(n_list), dtype=float)
    r_vals = np.empty_like(n_arr)
    g_vals = np.empty_like(n_arr)
    t_vals = np.empty_like(n_arr)
    B_vals = np.empty_like(n_arr)
    J_vals = np.empty_like(n_arr)
    nu_vals = np.empty_like(n_arr)
    for i, n in enumerate(n_arr):
        rn = domination_radius(g, spec, float(n), N, search_max)
        grn = float(g.gamma(rn))
        tn = tail_exponent_maximizer(x_radius, rn, grn, alpha, N)
        B_vals[i] = tail_exponent(tn, x_radius, rn, grn, alpha, N)
        omega = absorption_integral_bound(grn, alpha, min(tn, 1.0)).crude if alpha < 2.0 else grn**2 * min(tn, 1.0)
        J_vals[i] = gaussian_tail_log_bound(tn, x_radius, rn, grn, omega, N).log_bound
        nu_vals[i] = (
            leading_form_remainder(x_radius, rn, grn, alpha, N)
            if alpha < 2.0
            else alpha2_report(x_radius, rn, grn, N).nu_measured
        )
        r_vals[i], g_vals[i], t_vals[i] = rn, grn, tn
    verdict = (
        growth_threshold_verdict(g, alpha, N)
        if alpha < 2.0
        else ThresholdVerdict(False, False, math.inf, math.inf, math.nan)
    )
    return ThresholdReport(
        n_values=n_arr,
        r_n=r_vals,
        gamma_rn=g_vals,
        t_n=t_vals,
        B_n=B_vals,
        log_J_n=J_vals,
        nu_n=nu_vals,
        verdict=verdict,
        x_radius=x_radius,
    )
