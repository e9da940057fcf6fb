"""Absorption nonlinearities h, their primitive H, and growth classification.

The package studies the absorption law ``u * h(u)`` for a continuous
nondecreasing ``h`` with ``h(0) = 0``.  Two closed families cover the
experiments:

* ``log_power``: h(s) = ln^alpha(1 + s), the borderline family whose
  integral conditions switch at alpha = 1 and alpha = 2;
* ``power``: h(s) = s^(p-1), p > 1, for which everything is closed form.

Three integral conditions on h decide the qualitative theory:

* ``osgood``: finiteness of the tail integral of 1/(s h(s)) -- equivalent
  to the existence of a flat solution with infinite initial height;
* ``keller_osserman``: finiteness of the tail integral of 1/sqrt(H(s)),
  H(s) = integral of t h(t) on [0, s] -- equivalent to the existence of
  boundary blow-up stationary profiles;
* the complement of ``keller_osserman`` (divergence for every lower limit),
  under which stationary profiles exist globally in radius.

Both families report analytic verdicts cross-checked by a numerical
tail classification.  H itself is provided as ``ln H(e^x)`` at given nodes
x = ln s, by one exact Gauss-Legendre sweep that the classification and the
a-priori bound of :mod:`absorblab.profiles` share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._quad import classify_tail, gl_panels
from .errors import DomainError, OverflowGuardError

_W_OVERFLOW = 700.0  # ln(1+s) above which s itself is not a double


@dataclass(frozen=True)
class Nonlinearity:
    """Immutable absorption law h: a family name and its parameter.

    Use the constructors :meth:`log_power` and :meth:`power` rather than
    instantiating directly.  ``alpha`` is set for log_power, ``p`` for power.
    """

    family: str
    alpha: float | None = None
    p: float | None = None

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


def _h_vec(spec: Nonlinearity, s: np.ndarray) -> np.ndarray:
    """Vectorized h(s) for s >= 0 (no domain checks)."""
    s = np.asarray(s, dtype=float)
    if spec.family == "log_power":
        return np.log1p(s) ** spec.alpha
    return s ** (spec.p - 1.0)


def eval_h(spec: Nonlinearity, s: float) -> float:
    """h(s) for a single s >= 0, in closed form."""
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
    s = np.expm1(w)
    return (spec.p - 1.0) * np.where(s > 0.0, s, 1.0) ** (spec.p - 2.0) * (
        s > 0.0
    ) * (s + 1.0)


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
    return (spec.p - 1.0) * x


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the three integral growth conditions on h.

    ``osgood``            -- tail integral of 1/(s h(s)) finite;
    ``keller_osserman``   -- tail integral of 1/sqrt(H(s)) finite;
    ``all_tails_divergent`` -- the same integral diverges for every lower
    limit (the globally-defined-profile regime).

    ``confidence`` carries the numerical cross-check (each condition's
    numerical verdict and fitted tail slope); the verdicts themselves are
    analytic.
    """

    osgood: bool
    keller_osserman: bool
    all_tails_divergent: bool
    confidence: dict = field(default_factory=dict)


def _log_H_at_log(spec: Nonlinearity, x) -> np.ndarray:
    """ln H(e^x) at each node of ``x``, exactly; the one route to H, read by
    :func:`_numeric_classification` and :func:`absorblab.profiles.apriori_bound`.

    The nodes are sorted and H is the running sum of one Gauss-Legendre
    sweep of e^{2x} h(e^x): unit-width panels up to the smallest node x_0
    (ln(1+e^x) is singular at x = i pi, so one wide panel loses digits),
    then one panel per gap between consecutive nodes.  The lead-in starts
    at min(-45, x_0 - 45), so the part of H it leaves out is below about
    e^-90 relative for either family.
    """
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, axis=None)
    nodes = x.ravel()[order]
    lead_in = np.arange(min(-45.0, nodes[0] - 45.0), nodes[0], 1.0)
    edges = np.concatenate([lead_in, nodes])

    def integrand(t):
        # t^2 h(t) dt/t = e^{2x} h(e^x) dx
        return np.exp(2.0 * t + log_h_at_log(spec, t))

    H = np.cumsum(gl_panels(integrand, edges[:-1], edges[1:], splits=2))
    out = np.empty(nodes.size)
    out[order] = np.log(H[-nodes.size:])
    return out.reshape(x.shape)


def _numeric_classification(spec: Nonlinearity) -> dict:
    """Numerical verdict and fitted tail slope of both conditions; a
    verdict is None inside the dead band.

    Each tail is one :func:`classify_tail` call; the Keller-Osserman
    integrand takes ln H at its nodes from one :func:`_log_H_at_log` sweep.
    """
    def osgood_integrand(s):
        s = np.asarray(s, dtype=float)
        return 1.0 / (s * _h_vec(spec, s))

    verdict_o, slope_o = classify_tail(osgood_integrand)

    def ko_integrand(s):
        return np.exp(-0.5 * _log_H_at_log(spec, np.log(s)))

    verdict_k, slope_k = classify_tail(ko_integrand)
    return {
        "osgood_numeric": verdict_o,
        "osgood_slope": slope_o,
        "keller_osserman_numeric": verdict_k,
        "keller_osserman_slope": slope_k,
    }


def _condition_holds(spec: Nonlinearity, condition: str) -> bool:
    """Whether ``condition`` ("osgood" or "keller_osserman") holds for h.

    The analytic rule: log_power is osgood iff alpha > 1 and
    keller_osserman iff alpha > 2; power laws are both.
    """
    if spec.family == "log_power":
        return spec.alpha > (1.0 if condition == "osgood" else 2.0)
    return True


def classify_conditions(spec: Nonlinearity) -> ConditionReport:
    """Classify the growth conditions of ``spec``.

    Returns the analytic verdicts of :func:`_condition_holds` with the
    numerical tail classification attached as ``confidence``.
    """
    ko = _condition_holds(spec, "keller_osserman")
    return ConditionReport(
        osgood=_condition_holds(spec, "osgood"),
        keller_osserman=ko,
        all_tails_divergent=not ko,
        confidence=_numeric_classification(spec),
    )
