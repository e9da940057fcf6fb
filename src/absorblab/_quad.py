"""Internal quadrature helpers.

Three building blocks used across the package:

* one Gauss-Legendre panel kernel, :func:`gl_panels`, which integrates an
  array of panels, each split into equal 15-node sub-panels, with a single
  integrand call; :func:`gl_panel_refined` is its one-panel form;
* improper-tail integration by doubling panels with geometric-ratio
  extrapolation of the remainder;
* classification of improper integrals by the log-log slope of the
  integrand measured over geometric panels, with an explicit dead band
  around the critical slope -1, returning the verdict with that slope.

Everything here is plain numerics with no knowledge of the application
domain; the public modules wrap these with domain-specific contracts.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# the length ratio of consecutive tail_integral panels and its panel budget;
# classify_tail's panel count, the last panels its slope fit reads, and its
# dead band's half-width
_TAIL_GROWTH = 2.0
_TAIL_MAX_PANELS = 200
_CLASSIFY_PANELS = 40
_FIT_PANELS = 10
_DEAD_BAND = 0.05


def gl_panels(f, lo, hi, splits: int = 4) -> np.ndarray:
    """Gauss-Legendre integrals of vectorized ``f`` over the panels [lo_i, hi_i].

    Each panel is split into ``splits`` equal sub-panels of 15 nodes, and
    ``f`` is called once, on the (m, splits, 15) array of every node.  Each
    entry is the arithmetic of one panel alone: the edges of
    ``np.linspace(lo_i, hi_i, splits + 1)`` (bar subnormal sub-panel
    widths), one ``ddot`` of 15 nodes per sub-panel, and the sub-panel
    integrals added left to right from 0.0.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    e = np.arange(splits + 1.0) * ((hi - lo) / splits)[:, None] + lo[:, None]
    e[:, -1] = hi
    a, b = e[:, :-1], e[:, 1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    # np.dot on a 3-D array takes one ddot per sub-panel; a 2-D array would
    # go through dgemv, which sums in another order
    sub = half * np.dot(f(mid[..., None] + half[..., None] * _GL_NODES), _GL_WEIGHTS)
    total = np.zeros(len(lo))
    for j in range(splits):
        total += sub[:, j]
    return total


def gl_panel_refined(f, a: float, b: float, splits: int = 4) -> float:
    """Gauss-Legendre over [a, b] split into ``splits`` equal sub-panels."""
    return float(gl_panels(f, [a], [b], splits)[0])


def tail_integral(
    f,
    x0: float,
    first_len: float = 1.0,
    rel_tol: float = 1e-13,
) -> float:
    """Integral of ``f`` over [x0, infinity) for eventually geometric decay.

    Panels of geometrically growing length are summed until they are
    negligible, then the remaining tail is estimated by extrapolating the
    observed panel ratio as a geometric series.  This is exact in the limit
    for integrands whose panel sums decay at a fixed ratio (power-law tails
    under a log substitution) and raises :class:`QuadratureError` when the
    panel sums fail to settle.
    """
    total = 0.0
    panels: list[float] = []
    lo = x0
    length = first_len
    for _ in range(_TAIL_MAX_PANELS):
        hi = lo + length
        val = gl_panel_refined(f, lo, hi, splits=4)
        panels.append(val)
        total += val
        if len(panels) >= 4 and abs(val) < rel_tol * max(abs(total), 1e-300):
            break
        lo = hi
        length *= _TAIL_GROWTH
    else:
        raise QuadratureError(
            "tail integral did not settle within panel budget",
            achieved=abs(panels[-1]) / max(abs(total), 1e-300),
        )
    # geometric remainder estimate from the last observed ratio
    if len(panels) >= 2 and panels[-2] != 0.0:
        rho = panels[-1] / panels[-2]
        if 0.0 < rho < 1.0:
            total += panels[-1] * rho / (1.0 - rho)
    return total


def classify_tail(f) -> tuple[bool | None, float]:
    """Decide convergence of ``integral of f over [1, infinity)``.

    The integrand is summed over the geometric panels ``[2^k, 2^(k+1)]``, k
    below ``_CLASSIFY_PANELS``, and the mean integrand level of the last
    ``_FIT_PANELS`` is regressed against the log of the panel midpoint.
    Returns the verdict and the fitted log-log slope.  A slope below
    ``-1 - _DEAD_BAND`` reports convergence (True), above ``-1 + _DEAD_BAND``
    divergence (False), and inside the dead band ``None`` (inconclusive).
    """
    k_max = _CLASSIFY_PANELS
    widths = 2.0 ** np.arange(float(k_max))
    panel_sums = gl_panels(f, widths, 2.0 * widths)
    mids = 1.5 * widths  # arithmetic midpoint of [w, 2w]
    with np.errstate(divide="ignore"):
        log_mean = np.log(np.maximum(panel_sums / widths, 1e-300))
    sel = slice(k_max - _FIT_PANELS, k_max)
    x = np.log(mids[sel])
    y = log_mean[sel]
    slope, _ = np.polyfit(x, y, 1)
    slope = float(slope)
    if slope < -1.0 - _DEAD_BAND:
        return True, slope
    if slope > -1.0 + _DEAD_BAND:
        return False, slope
    return None, slope


def log_simpson(log_f, a: float, b: float, n: int = 2001) -> float:
    """log of ``integral of exp(log_f)`` over [a, b] by composite Simpson.

    ``log_f`` must accept a vector of nodes and return log-integrand values;
    the sum is taken with :func:`scipy.special.logsumexp` so integrands with
    astronomically large log-scale never overflow.  ``n`` must be odd.
    """
    from scipy.special import logsumexp

    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(logsumexp(log_f(x) + np.log(w * h / 3.0)))
