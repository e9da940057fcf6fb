"""Space-independent (flat) solutions of the absorption ODE.

A flat profile solves ``Phi' = -Phi h(Phi)`` with ``Phi(0) = a``.  Since the
equation is separable, the solver never time-steps: it inverts the level-time
relation

    t  =  integral from Phi(t) to a  of  ds / (s h(s))

along x = ln s, from one cumulative table of Gauss-Legendre panels per
initial level, by one safeguarded Newton that runs on the array of every
(level, time) pair at once, each pair on the panel of its level's table that
brackets its time.  That gives machine-accurate values at arbitrary times
with no error accumulation, and extends naturally to two objects a
time-stepper cannot reach:

* ``solve_phi_infinity`` / ``solve_phi_infinity_log`` -- the solution
  started from infinite height, characterized by ``integral from
  Phi_inf(t) to infinity = t``, which exists exactly when the osgood
  condition holds;
* ``solve_phi_log`` -- trajectories whose initial height is given as ln(a),
  for data far beyond double range (``a ~ exp(2500)`` appears routinely in
  the threshold experiments).

Finite and infinite data share the table and the inversion; only the top of
the table differs.  ``solve_phi_levels_log`` inverts several levels, the
infinite one included, on one time grid in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._quad import gl_panel_refined, gl_panels, tail_integral
from .errors import (
    BracketError,
    DomainError,
    GridError,
    OverflowGuardError,
    PreconditionError,
    ToleranceError,
)
from .nonlinearity import Nonlinearity, _condition_holds, log_h_at_log

_V_CAP = 1e300
_EPS = sys.float_info.epsilon
_MAX_TABLE_PANELS = 1000


@dataclass(frozen=True)
class FlatTrajectory:
    """A sampled flat solution.

    Values are strictly decreasing and positive for t > 0.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if np.any(v <= 0.0):
            raise DomainError("flat trajectory values must stay positive")
        if np.any(np.diff(v) > 0.0):
            raise DomainError("flat trajectory values must be nonincreasing")


def _inv_h(spec: Nonlinearity):
    """Integrand 1/h(e^x) of the level-time relation, vectorized in x."""

    def f(x):
        return np.exp(-log_h_at_log(spec, np.asarray(x, dtype=float)))

    return f


def _tail_settled(up: list, t_min: float) -> bool:
    """Whether the ascending tail panels ``up`` (at least three) reach far enough.

    Either the last panel is below 1e-13 t_min, or the panel ratio has
    settled to 1e-14 relative and the geometric remainder it predicts lies
    below t_min, so every time is bracketed by a computed panel.  The second
    rule serves slow tails such as log-power laws near alpha = 1, whose
    panels shrink by only about 2^(1-alpha) per doubling of the level.
    """
    if abs(up[-1]) < 1e-13 * t_min:
        return True
    rho, rho_prev = up[-1] / up[-2], up[-2] / up[-3]
    return 0.0 < rho < 1.0 and abs(rho - rho_prev) <= 1e-14 * rho and (
        up[-1] * rho / (1.0 - rho) < t_min
    )


def _level_table(spec: Nonlinearity, x_top: float, t_min: float, t_max: float):
    """Level-time table: edges ascending in x and the time ``T`` at each edge.

    ``T(x)`` is the time the flat solution from level ``exp(x_top)`` takes
    to fall to ``exp(x)``.  Edges lie on one lattice, ``2^k - 1`` above 0
    and the integers below, so finite data cost O(log x_top) panels: one
    panel from ``x_top`` down to the lattice, then lattice panels.  Infinite
    data (``x_top = inf``) ascend from 0 until the tail has settled (see
    :func:`_tail_settled`) and extrapolate the remainder from the last panel
    ratio as in :func:`tail_integral`.  Both descend until ``T`` covers
    t_max.  ``T`` is summed from the top, so no cancellation occurs.

    The ascent's first four panels take one integrand call, since the
    settle rule cannot fire before four; after that, one call per panel.
    Panels computed ahead of the settle point would be wasted work: it
    falls at about 48 panels on a log-power tail, so rounds of doubling
    length would overshoot it by up to 16 panels.  Such rounds would save
    integrand calls, but at ``flat-ode``'s defaults they evaluate 960 nodes
    past the settle point (74,512 against 73,552), so the ascent stays at
    one panel per call and the node count stays at its pinned budget.
    """
    f = _inv_h(spec)
    if math.isinf(x_top):
        lattice = 2.0 ** np.arange(5.0) - 1.0
        up = gl_panels(f, lattice[:-1], lattice[1:]).tolist()
        while not _tail_settled(up, t_min):
            if len(up) == _MAX_TABLE_PANELS:
                raise BracketError("lifetime tail did not settle within the panel budget")
            k = len(up)
            up.append(gl_panel_refined(f, 2.0**k - 1.0, 2.0 ** (k + 1) - 1.0, splits=4))
        rho = up[-1] / up[-2] if up[-2] != 0.0 else 0.0
        t_top = up[-1] * rho / (1.0 - rho) if 0.0 < rho < 1.0 else 0.0
        edges, panels = list(2.0 ** np.arange(len(up), -1.0, -1.0) - 1.0), up[::-1]
    else:
        edges, panels, t_top = [x_top], [], 0.0
    total = t_top + math.fsum(panels)
    while total < t_max:
        if len(panels) == _MAX_TABLE_PANELS:
            raise BracketError("level-time table failed to bracket t_max")
        hi = edges[-1]  # lo is the next lattice edge below hi
        if hi > 0.0:
            lo = max(2.0 ** (math.ceil(math.log2(hi + 1.0)) - 1) - 1.0, 0.0)
        else:
            lo = math.ceil(hi) - 1.0
        panels.append(gl_panel_refined(f, lo, hi, splits=4))
        edges.append(lo)
        total += panels[-1]
    T = t_top + np.concatenate(([0.0], np.cumsum(panels)))
    return np.array(edges[::-1]), T[::-1]


def _panel_residuals(f, x, x_hi, T_hi, t):
    """T(x) - t for arrays of times, from the table value T_hi at x_hi.

    ``[x, x_hi]`` is split into two 15-point Gauss-Legendre sub-panels, and
    every time's nodes go through one integrand call.
    """
    return T_hi + gl_panels(f, x, x_hi, 2) - t


def _invert_levels(spec: Nonlinearity, x_tops, times: np.ndarray) -> np.ndarray:
    """ln Phi(t) for each initial level exp(x) in ``x_tops`` and positive t in ``times``.

    ``inf`` in ``x_tops`` stands for infinite data (Phi_inf).  Each level
    gets one table on the shared time range, and one safeguarded Newton
    runs on every (level, time) pair at once, so each residual and step
    is one integrand call for all levels.  Each pair keeps its own
    bracketing panel, starts from the panel's linear interpolant, falls
    back to bisection of its bracket and leaves the active set once its
    step is below 4 ulp, so it takes the iterations it would take alone.
    Returns the array of shape ``(len(x_tops), len(times))``.
    """
    t_min, t_max = float(times.min()), float(times.max())
    f = _inv_h(spec)
    # panel j of a table brackets T[j] <= t <= T[j-1]
    brackets = []
    for x_top in x_tops:
        edges, T = _level_table(spec, x_top, t_min, t_max)
        js = np.clip(np.searchsorted(-T, -times), 1, len(T) - 1)
        brackets.append((edges[js - 1], edges[js], T[js - 1], T[js]))
    x_lo, x_hi, T_lo, T_hi = (np.concatenate(c) for c in zip(*brackets))
    ts = np.tile(times, len(brackets))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(T_lo > T_hi, x_hi - (x_hi - x_lo) * (ts - T_hi) / (T_lo - T_hi), x_hi)
    # the active pairs: their indices, iterates, brackets [a, b] and panel data
    idx, xa, a, b = np.arange(len(ts)), x.copy(), x_lo, x_hi
    x_hia, T_hia, ta = x_hi, T_hi, ts
    for _ in range(60):
        res = _panel_residuals(f, xa, x_hia, T_hia, ta)  # >= 0 at a, <= 0 at b
        above = res >= 0.0
        a, b = np.where(above, xa, a), np.where(above, b, xa)
        step = res * np.exp(log_h_at_log(spec, xa))  # dT/dx = -1/h(e^x)
        xa = xa + step
        # test convergence before the safeguard: a converged step can leave
        # the open bracket by rounding once x sits on one of its ends
        done = np.abs(step) <= 4.0 * _EPS * np.maximum(1.0, np.abs(xa))
        xa = np.where(done | ((a < xa) & (xa < b)), xa, 0.5 * (a + b))
        if done.any():
            x[idx[done]] = xa[done]
            keep = ~done
            if not keep.any():
                break
            idx, xa, a, b = idx[keep], xa[keep], a[keep], b[keep]
            x_hia, T_hia, ta = x_hia[keep], T_hia[keep], ta[keep]
    else:
        x[idx] = xa
    res = _panel_residuals(f, x, x_hi, T_hi, ts)
    # where h is tiny (low levels decay slowly) T is steep in x and one
    # ulp of x moves T by eps/h; below that the inversion is exact to
    # representability and the leftover residual is conditioning, not
    # error — the level itself is off by under h*|res| relative, which
    # is far below an ulp exactly when this slack bites
    slack = 4.0 * _EPS * np.maximum(1.0, np.abs(x)) * np.exp(-log_h_at_log(spec, x))
    bad = np.abs(res) > 1e-10 * np.maximum(np.abs(ts), 1e-6) + slack
    if bad.any():
        worst = res[bad][np.argmax(np.abs(res[bad]))]
        raise ToleranceError("level inversion residual above tolerance", residual=float(worst))
    return x.reshape(len(brackets), len(times))


def _solve_log_levels(spec: Nonlinearity, x_tops, times) -> np.ndarray:
    """ln Phi(t) for each initial level exp(x) in ``x_tops`` (inf: Phi_inf) and t in ``times``.

    Row i starts at ``x_tops[i]`` at t = 0, ``inf`` for infinite data.
    """
    x_tops = np.asarray(x_tops, dtype=float)
    if x_tops.ndim != 1 or len(x_tops) == 0:
        raise DomainError("initial levels must be a nonempty 1-D sequence")
    if np.any(np.isnan(x_tops) | (x_tops == -math.inf)):
        raise DomainError(f"initial levels must be finite or +inf, got ln a = {x_tops}")
    if np.any(np.isinf(x_tops)):
        _require_osgood(spec)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise GridError("time grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(times)):
        raise GridError("time grid must be finite")
    if np.any(np.diff(times) <= 0.0):
        raise GridError("time grid must be strictly increasing")
    if times[0] < 0.0:
        raise GridError("time grid must start at t >= 0")
    out = np.repeat(x_tops[:, None], len(times), axis=1)
    positive = times > 0.0
    if np.any(positive):
        out[:, positive] = _invert_levels(spec, x_tops, times[positive])
    return out


def _require_finite_level(x_a: float) -> None:
    if not math.isfinite(x_a):
        raise DomainError(f"initial level must be finite, got ln a = {x_a}")


def solve_phi(spec: Nonlinearity, a: float, times) -> FlatTrajectory:
    """Flat solution with initial height ``a``, sampled on ``times``.

    Inversion of the separable level-time relation with relative tolerance
    1e-10; no step error accumulates between sample times.  ``a`` must be
    positive and finite, ``times`` finite, strictly increasing and >= 0.
    """
    if not (a > 0.0):
        raise DomainError(f"initial height must be positive, got {a}")
    x_a = math.log(a)
    _require_finite_level(x_a)
    xs = _solve_log_levels(spec, [x_a], times)[0]
    return FlatTrajectory(
        times=np.asarray(times, dtype=float),
        values=np.exp(xs),
    )


def solve_phi_log(spec: Nonlinearity, ln_a: float, times) -> np.ndarray:
    """ln Phi(t) for initial height exp(ln_a), for any finite ln_a.

    Returns the array of log-values rather than a trajectory, since the
    linear-scale values may not be representable.  The table costs
    O(log ln_a) panels; it is tested up to ln_a = 1e12.
    """
    _require_finite_level(float(ln_a))
    return _solve_log_levels(spec, [float(ln_a)], times)[0]


def solve_phi_levels_log(spec: Nonlinearity, ln_tops, times) -> np.ndarray:
    """ln Phi(t) for every initial height exp(ln_a) in ``ln_tops``, on one time grid.

    An entry ``inf`` stands for infinite data: its row is ``ln Phi_inf``,
    ``inf`` at t = 0, and needs the osgood condition.  All levels are
    inverted in one Newton, so row i is bitwise :func:`solve_phi_log`'s
    (or, at t > 0, :func:`solve_phi_infinity_log`'s) on the same
    ``times``.  ``times`` must be finite, strictly increasing and >= 0.
    Returns the array of shape ``(len(ln_tops), len(times))``.
    """
    return _solve_log_levels(spec, ln_tops, times)


def osgood_tail_from_log(spec: Nonlinearity, x0: float) -> float:
    """G(v) = integral of 1/(s h(s)) over [v, infinity) with x0 = ln v."""
    _require_osgood(spec)
    return tail_integral(
        _inv_h(spec), float(x0), first_len=max(1.0, 0.1 * abs(x0)), rel_tol=1e-13
    )


def _require_osgood(spec: Nonlinearity) -> None:
    if not _condition_holds(spec, "osgood"):
        raise PreconditionError(
            "the lifetime tail integral diverges without the osgood condition"
        )


def solve_phi_infinity_log(spec: Nonlinearity, t):
    """ln of the infinite-height flat value at each time t > 0.

    ``Phi_inf(t)`` is characterized by the lifetime relation
    ``G(ln Phi_inf(t)) = t`` with ``G(x) = integral of 1/h(e^y) over
    [x, infinity)``.  One call builds one lifetime table covering all of
    ``t`` and inverts all times in one array Newton, each from the linear
    interpolant of its bracketing panel, safeguarded by bisection of that
    bracket, to residual 1e-10 max(t, 1e-6).  Working in log coordinates,
    early values like exp(4e12) pose no problem.

    ``t`` is a float or a 1-D array of times in any order; the result is a
    float or an array of the same shape.
    """
    _require_osgood(spec)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise GridError("times must be a scalar or a 1-D array")
    flat = times.reshape(-1)
    if not np.all(flat > 0.0):
        raise DomainError(f"times must be positive, got {t}")
    out = _invert_levels(spec, [math.inf], flat)[0] if flat.size else np.empty_like(flat)
    return float(out[0]) if times.ndim == 0 else out


def solve_phi_infinity(spec: Nonlinearity, t):
    """Value of the infinite-height flat solution at each time t > 0.

    The exponential of :func:`solve_phi_infinity_log`, with the same scalar
    or array ``t``; raises :class:`OverflowGuardError` where a value exceeds
    1e300, for which the log route is the one to use.
    """
    lam = solve_phi_infinity_log(spec, t)
    if np.any(np.asarray(lam) > math.log(_V_CAP)):
        raise OverflowGuardError(
            "infinite-height value exceeds 1e300 at this time; "
            "use solve_phi_infinity_log"
        )
    return math.exp(lam) if isinstance(lam, float) else np.exp(lam)
