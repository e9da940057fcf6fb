"""Absorption nonlinearities h, their primitive H, and growth classification.

The package studies the absorption law ``u * h(u)`` for a continuous
nondecreasing ``h`` with ``h(0) = 0``.  Two closed families cover the
experiments:

* ``log_power``: h(s) = ln^alpha(1 + s), the borderline family whose
  integral conditions switch at alpha = 1 and alpha = 2;
* ``power``: h(s) = s^(p-1), p > 1, for which everything is closed form.

A ``custom`` family accepts an arbitrary monotone callable; its
growth conditions are decided by the numerical tail classification alone.

Three integral conditions on h decide the qualitative theory:

* ``osgood``: finiteness of the tail integral of 1/(s h(s)) -- equivalent
  to the existence of a flat solution with infinite initial height;
* ``keller_osserman``: finiteness of the tail integral of 1/sqrt(H(s)),
  H(s) = integral of t h(t) on [0, s] -- equivalent to the existence of
  boundary blow-up stationary profiles;
* the complement of ``keller_osserman`` (divergence for every lower limit),
  under which stationary profiles exist globally in radius.

Built-in families report analytic verdicts cross-checked by a numerical
tail classification; custom families rely on the numerical route alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from ._quad import classify_tail, cumulative_gl
from .errors import (
    DomainError,
    InconclusiveClassificationError,
    OverflowGuardError,
    QuadratureError,
)

_W_OVERFLOW = 700.0  # ln(1+s) above which s itself is not a double


@dataclass(frozen=True)
class Nonlinearity:
    """Immutable absorption law h: a family name and its parameter.

    Use the constructors :meth:`log_power`, :meth:`power`, :meth:`custom`
    rather than instantiating directly.  ``alpha`` is set for log_power,
    ``p`` for power, and ``h_callable`` for custom laws.
    """

    family: str
    alpha: float | None = None
    p: float | None = None
    h_callable: Callable[[float], float] | None = None

    @staticmethod
    def log_power(alpha: float) -> "Nonlinearity":
        if alpha <= 0:
            raise DomainError(f"log_power exponent must be positive, got {alpha}")
        return Nonlinearity(family="log_power", alpha=float(alpha))

    @staticmethod
    def power(p: float) -> "Nonlinearity":
        if p <= 1:
            raise DomainError(f"power exponent must exceed 1, got {p}")
        return Nonlinearity(family="power", p=float(p))

    @staticmethod
    def custom(h: Callable[[float], float]) -> "Nonlinearity":
        spec = Nonlinearity(family="custom", h_callable=h)
        _spot_check_monotone(spec)
        return spec


def _spot_check_monotone(spec: Nonlinearity, n: int = 40) -> None:
    """Verify h(0)=0 and monotonicity on a geometric sample grid."""
    s = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, n)])
    vals = _h_vec(spec, s)
    if abs(vals[0]) > 1e-12:
        raise DomainError(f"h(0) must vanish, got {vals[0]!r}")
    if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, vals[1:])):
        raise DomainError("h must be nondecreasing on [0, infinity)")


def _h_vec(spec: Nonlinearity, s: np.ndarray) -> np.ndarray:
    """Vectorized h(s) for s >= 0 (no domain checks)."""
    s = np.asarray(s, dtype=float)
    if spec.family == "log_power":
        return np.log1p(s) ** spec.alpha
    if spec.family == "power":
        return s ** (spec.p - 1.0)
    return np.vectorize(spec.h_callable, otypes=[float])(s)


def eval_h(spec: Nonlinearity, s: float) -> float:
    """h(s) for a single s >= 0; exact closed form for built-in families."""
    if s < 0:
        raise DomainError(f"h is only defined for s >= 0, got {s}")
    return float(_h_vec(spec, np.asarray([s]))[0])


def h_of_w(spec: Nonlinearity, w) -> np.ndarray:
    """h evaluated at s = exp(w) - 1 given the log variable w = ln(1+s).

    For the log_power family this is just w**alpha, which stays finite for
    every representable w; other families must exponentiate and are guarded
    against w beyond double range.  Extended by zero for w < 0 so that
    implicit solvers may pass transiently negative iterates.
    """
    w = np.maximum(np.asarray(w, dtype=float), 0.0)
    if spec.family == "log_power":
        return w**spec.alpha
    if np.any(w > _W_OVERFLOW):
        raise OverflowGuardError(
            "log variable too large to evaluate h in linear scale "
            f"(max w = {float(np.max(w)):.3g})"
        )
    return _h_vec(spec, np.expm1(w))


def w_from_log_u(log_u) -> np.ndarray:
    """The log variable w = ln(1+u) from ln u, stable on both sides of 0."""
    lam = np.asarray(log_u, dtype=float)
    return np.where(
        lam > 0.0,
        lam + np.log1p(np.exp(-np.minimum(np.abs(lam), 745.0))),
        np.log1p(np.exp(np.minimum(lam, 0.0))),
    )


def log_u_from_w(w) -> np.ndarray:
    """ln u from the log variable w = ln(1+u); -inf where w <= 0.

    Stays accurate for small w, where u = expm1(w) loses no digits, and
    for w far beyond double range, where ln u = w.
    """
    w = np.asarray(w, dtype=float)
    return np.where(w > 0.0, w + np.log(-np.expm1(-np.maximum(w, 1e-300))), -np.inf)


def dh_dw(spec: Nonlinearity, w) -> np.ndarray:
    """Derivative of :func:`h_of_w` with respect to w (for Newton solvers)."""
    w = np.asarray(w, dtype=float)
    if spec.family == "log_power":
        a = spec.alpha
        return a * np.where(w > 0.0, w, 1.0) ** (a - 1.0) * (w > 0.0)
    if np.any(w > _W_OVERFLOW):
        raise OverflowGuardError("log variable too large for dh_dw")
    if spec.family == "power":
        s = np.expm1(w)
        return (spec.p - 1.0) * np.where(s > 0.0, s, 1.0) ** (spec.p - 2.0) * (
            s > 0.0
        ) * (s + 1.0)
    delta = 1e-6 * np.maximum(1.0, np.abs(w))
    return (h_of_w(spec, w + delta) - h_of_w(spec, np.maximum(w - delta, 0.0))) / (
        delta + np.minimum(w, delta)
    )


def log_h_at_log(spec: Nonlinearity, x) -> np.ndarray:
    """ln h(e^x) as a function of x = ln s, stable for arbitrarily large x.

    The flat-solution machinery integrates 1/h along x = ln s; evaluating
    ln h directly avoids forming s = e^x, which overflows long before the
    integrals stop mattering.
    """
    x = np.asarray(x, dtype=float)
    if spec.family == "log_power":
        # ln(1+e^x) computed without overflow on either side
        ell = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
        with np.errstate(divide="ignore"):
            return spec.alpha * np.log(ell)
    if spec.family == "power":
        return (spec.p - 1.0) * x
    if np.any(x > _W_OVERFLOW):
        raise OverflowGuardError("ln s too large to evaluate custom h")
    with np.errstate(divide="ignore"):
        return np.log(_h_vec(spec, np.exp(x)))


def eval_H(spec: Nonlinearity, s: float) -> float:
    """H(s) = integral of t*h(t) over [0, s].

    Power family: closed form s^(p+1)/(p+1).  Otherwise adaptive quadrature
    in the substitution t = e^x (relative tolerance 1e-10), which handles
    the huge upper limits reached by a-priori-bound root finds.
    """
    if s < 0:
        raise DomainError(f"H is only defined for s >= 0, got {s}")
    if s == 0.0:
        return 0.0
    if spec.family == "power":
        return s ** (spec.p + 1.0) / (spec.p + 1.0)

    xs = math.log(s)

    def integrand(x: float) -> float:
        # t^2 h(t) dt/t = e^{2x} h(e^x) dx
        return math.exp(2.0 * x + float(log_h_at_log(spec, x)))

    val, err = quad(integrand, xs - 45.0, xs, epsabs=0.0, epsrel=1e-11, limit=200)
    if err > 1e-10 * max(abs(val), 1e-300):
        raise QuadratureError(
            f"H({s!r}) quadrature stalled above tolerance", achieved=err / max(abs(val), 1e-300)
        )
    return float(val)


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the three integral growth conditions on h.

    ``osgood``            -- tail integral of 1/(s h(s)) finite;
    ``keller_osserman``   -- tail integral of 1/sqrt(H(s)) finite;
    ``all_tails_divergent`` -- the same integral diverges for every lower
    limit (the globally-defined-profile regime).

    ``confidence`` carries the numerical cross-check (each condition's
    numerical verdict and fitted tail slope); for built-in families the
    verdicts themselves are analytic.
    """

    osgood: bool
    keller_osserman: bool
    all_tails_divergent: bool
    confidence: dict = field(default_factory=dict)


def _numeric_H_interpolant(spec: Nonlinearity, x_max: float) -> Callable:
    """Pchip interpolant of ln H(e^x) built from one cumulative sweep."""
    xs = np.linspace(-45.0, x_max, 3000)

    def integrand(x):
        return np.exp(2.0 * np.asarray(x) + log_h_at_log(spec, np.asarray(x)))

    Hs = cumulative_gl(integrand, xs)
    good = Hs > 0.0
    interp = PchipInterpolator(xs[good], np.log(Hs[good]), extrapolate=True)
    return interp


@functools.lru_cache(maxsize=64)
def _numeric_classification(spec: Nonlinearity) -> dict:
    """Numerical verdict and fitted tail slope of both conditions; a
    verdict is None inside the dead band.

    Cached per law (a ``Nonlinearity`` is frozen and hashable): custom laws
    are asked for their verdicts on every flat-envelope and profile call.
    The dict is shared between callers, who must not mutate it.
    """
    def osgood_integrand(s):
        s = np.asarray(s, dtype=float)
        return 1.0 / (s * _h_vec(spec, s))

    verdict_o, slope_o = classify_tail(osgood_integrand)

    lnH = _numeric_H_interpolant(spec, x_max=math.log(2.0) * 42.0)

    def ko_integrand(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-0.5 * lnH(np.log(s)))

    verdict_k, slope_k = classify_tail(ko_integrand)
    return {
        "osgood_numeric": verdict_o,
        "osgood_slope": slope_o,
        "keller_osserman_numeric": verdict_k,
        "keller_osserman_slope": slope_k,
    }


def _condition_holds(spec: Nonlinearity, condition: str) -> bool | None:
    """Whether ``condition`` ("osgood" or "keller_osserman") holds for h.

    The analytic rule for the built-in families: log_power is osgood iff
    alpha > 1 and keller_osserman iff alpha > 2; power laws are both.
    Custom laws get the numerical verdict of :func:`classify_conditions`
    for that condition alone, None when it lands in the dead band.
    """
    if spec.family == "log_power":
        return spec.alpha > (1.0 if condition == "osgood" else 2.0)
    if spec.family == "power":
        return True
    return _numeric_classification(spec)[f"{condition}_numeric"]


def classify_conditions(spec: Nonlinearity) -> ConditionReport:
    """Classify the growth conditions of ``spec``.

    Built-in families return the analytic verdicts of
    :func:`_condition_holds` with the numerical tail classification
    attached as ``confidence``.  For custom families the numerical
    classification is the verdict, and a fitted slope inside the +-0.05
    dead band around -1 raises :class:`InconclusiveClassificationError`
    rather than guessing.
    """
    confidence = dict(_numeric_classification(spec))
    if spec.family != "custom":
        osgood = _condition_holds(spec, "osgood")
        ko = _condition_holds(spec, "keller_osserman")
    else:
        osgood = confidence["osgood_numeric"]
        ko = confidence["keller_osserman_numeric"]
        if osgood is None:
            raise InconclusiveClassificationError(
                "tail slope of 1/(s h(s)) is inside the dead band around -1",
                slope=confidence["osgood_slope"],
            )
        if ko is None:
            raise InconclusiveClassificationError(
                "tail slope of 1/sqrt(H) is inside the dead band around -1",
                slope=confidence["keller_osserman_slope"],
            )
    return ConditionReport(
        osgood=bool(osgood),
        keller_osserman=bool(ko),
        all_tails_divergent=not bool(ko),
        confidence=confidence,
    )
