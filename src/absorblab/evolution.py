"""Monotone implicit solver for the radial absorption problem on a ball.

Solves ``u_t - (u_rr + (N-1)/r u_r) + u h(u) = 0`` on 0 <= r <= R with a
Dirichlet condition at R and reflection symmetry at 0, by backward Euler
with an exact per-step Newton solve.  The unknown is stored as
``w = ln(1+u)``: boundary heights of interest are far beyond double range,
while their logs stay small.  A step is iterated in w only while the
family's heights need that range; below the switch ``_U_SWITCH`` (w = 600)
it is iterated in u itself (see "u path" below).

Discretization notes:

* uniform grid, second-order central Laplacian, the (N-1)/r drift switched
  to one-sided where the centered form would break the sign pattern, and a
  ghost node at r = 0 giving ``2N (u_1 - u_0)/h^2``;
* every off-diagonal coefficient is nonnegative and rows sum consistently,
  so the implicit step is an M-matrix solve: the scheme is monotone and
  the discrete comparison principle holds exactly, which is what all the
  sequence-scheme drivers below rely on;
* above the switch the per-step nonlinear system is solved in w with
  residual rows scaled by ``exp(-max(w_j, w_prev_j))``, a warm start that iterates the log-space
  Jacobi form of the step equation (this floods height plateaus one cell a
  sweep and lands within O(1) of the solution), then Newton.  The
  warm start begins from the polynomial through the last four accepted
  steps ``(t_i, w_i)``, evaluated at the new t: the cubic predictor of
  BDF/DASSL codes (Brenan, Campbell & Petzold, *Numerical Solution of IVPs
  in DAEs*, §5.2; Hairer & Wanner, *Solving ODEs II*, §IV.8), clipped per
  run to ``[0, max(max w_m, w_bc)]``, the discrete maximum principle's
  bound on the step solution.  The first step, and any step more than
  ``_RAMP`` times longer than the one before (the step after a short
  landing step), begin from the old values ``w_m`` instead, since there
  the extrapolation would scale the last step's rounding and solve error
  by ``dt/dt_prev``; the history restarts there and the polynomial gains
  one point per step.  One sweep shrinks the start's error about 16-fold at
  ``dt c ≈ 0.064``, so from the cubic start the residual check after it
  usually passes already: on the collapse family over [0, 0.1] the
  costliest run needs 1.94 sweeps and 0.78 Newton solves per step.  A
  sweep shrinks the linear error by ``dt c/(1 + dt c)`` at best, a half or
  more from ``dt c = 1`` on (``_SWEEP_DTC``), and Newton runs after it
  anyway.  So a run whose ``dt c`` is that large takes no sweep when its
  start is predicted, the polynomial through accepted steps alone: it goes
  from the start to the residual check and Newton, as BDF codes go from
  the predictor.  Every other start sweeps: the first step, a restart, and
  a step whose history still holds the data, whose polynomial runs through
  the data's cliffs (at dt = 1 the line from a cliff at t = 0 left Newton
  at residual 407 after 50 solves).  Each sweep evaluates the Jacobi fixed
  point as one log-sum-exp of its four log terms shifted by their maximum
  (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021): a handful of
  vector exponentials per sweep.
  Newton takes the u path's iterates (below), written in w: the scaled
  rows and the correction ``z = du/(1+u)`` leave each Newton step as it is
  in u, and the iterate moves to ``w + log1p(z)`` (see ``_w_correction``),
  so one convergence argument covers both paths and neither needs a line
  search.  It stops at ``_NEWTON_TOL``, or once its correction is within
  four ulps of ``max(1, |w|)``: at large w and dt that roundoff floor of
  the scaled residual lies above ``_NEWTON_TOL``.
* u path: a step whose family cap ``max(max w_m, w_bc)`` lies below
  ``_U_SWITCH`` sweeps, checks its residual and runs Newton in
  ``u = e^w - 1``, and never forms the w-form residual.  The Jacobi form
  ``u_j <- (u_m + dt a u_{j-1} + dt b u_{j+1}) / (1 + dt c + dt h)`` has the
  log-sum-exp's fixed point, and ``R(u) / (1 + max(u, u_m))``, R the step
  equation in u, is the same scaled residual, since ``e^w = 1 + u`` and
  rows sum to c.  Each iterate's ``w = log1p(u)`` is taken once; it feeds
  h, the ``|dw| < 1e-3`` stop rule and the accepted w.  Runs that miss
  ``_NEWTON_TOL`` go on with Newton in u, each iterate clipped to
  ``[0, u_cap]``: every law here makes ``u h(u)`` convex, so from the first
  iterate on the iterates decrease to the step's solution and no line
  search is needed (see ``_u_correction``).  It stops at ``_NEWTON_TOL``,
  or once its correction is within four ulps of ``1 + u``.  The paths
  differ only in the representation, each with its own Jacobi sweep,
  residual and Newton iterate: both run one sweep loop, ``_sweeps``, and
  one Newton loop, ``_newton``, which moves every run still in Newton at
  each solve, stops a run at ``_NEWTON_TOL`` or at a roundoff correction
  (applied too), and raises after ``_NEWTON_MAX`` solves.
  A guard keeps the step in w when ``u_cap (1 + dt (max c + h(u_cap)))`` is
  not finite, as a power law can make it below the switch.  The start's
  history stays in w, and a step takes the ``expm1`` of w_m and of its
  start.
* per-step cost: on ``theorem-c`` at defaults (one 1,444-node family
  vector, 25,009 steps) the first 100 steps take 4,196 family sweeps,
  flooding across the data cliffs; 3,634 steps take a Newton solve (3,930
  family iterations, the last at step 6,261); the other 21,375 steps take
  one sweep and one residual check and nothing else.  So the step's fixed
  cost is what counts.  From step 2,988 (t ≈ 0.06) the family's cap is
  below the switch, and the 22,021 steps from there on take the u path,
  which replaces the w path's nine exponentials and three logs a node by
  two expm1 and one log1p: a one-sweep step at step 15,000 took 120 µs in
  u against 194 µs in w (2-core Xeon VM, best of 7 x 300 calls).  There
  ``dt c = 0.064``, so every step sweeps.  On ``theorem-b`` at defaults
  (nine runs on h = 0.025, 524 steps up to ``dt_max = 1e-3``, where
  ``dt c = 3.2``) the 500 predicted steps from ``dt c = 1`` on (step 22)
  take no sweep.  The family books 2,412 sweeps, 2,339 of them in the
  first 22 steps and the rest at a short landing step and the restart
  after it, and 5,491 Newton solves, where sweeping every step booked
  12,618 and 5,299.  The solves that grow are at the ramp's end:
  steps 22-27 take up to 9 Newton iterations from the prediction, where a
  swept start took at most 3.

Stepper: :func:`evolve` builds one ``_Stepper`` per call and hands it to
every ``_step``.  It holds the family's block layout, the scratch arrays
that the sweeps and Newton iterations compute into with ``out=``
arithmetic, the products of the operator rows with dt (rebuilt only when
dt changes), and each run's solver counters, which every step adds to in
place.  The iterate and the sweep's estimate are one (2, 2, n) pair
buffer with rows (w, u), of which the w path uses row w alone.  The w-form
residual takes its five exponentials as one (5, n) block, clamped below
at -746 where exp is 0, and the Newton loop is skipped when every run
meets ``_NEWTON_TOL`` after the sweep.  Every operation and its order are
those of the plain expressions, so the results are bitwise the same; each
accepted w is a fresh array, as the start's history keeps the last four.
A step hands the next nothing but the counters, the dt products and the
last cap that fitted the u path, and gets its start kind as an argument,
so a reused stepper takes bitwise the step of a fresh one.

Batching: :func:`evolve` steps either one run or a family of runs given
as sequences.  A family's grid vectors are laid end to end in one vector
and every step is taken on that vector: one warm-start sweep, one
residual, one LAPACK ``dgtsv`` solve of the block tridiagonal Newton
system (identity rows at the boundary nodes) per iteration for all runs
together.  This pays numpy's and LAPACK's per-call overhead once per
family instead of once per run.  Rows couple only within their own run, so
elimination never crosses a block.  Each run keeps its own sweep count and
Newton convergence, so it does exactly the arithmetic of a
solo run: its values are bitwise those of the same run stepped alone, as
long as the family and the run take the same path at every step (the
switch goes by the family's cap, so a low run stepped with a high one
takes the w path while the family is above the switch, and agrees with its
solo self to the solve tolerance only).  A family shares one internal step
schedule.  That is what makes batching possible, and it is also required:
the discrete comparison principle, and with it every in-n ordering check
between members, holds only between runs taken through identical step
sequences.

Initial values: :func:`evolve` takes each run's ``w0 = ln(1+u0)`` as an
array on the run's grid and checks its length and that it is finite and
nonnegative.  The drivers build those arrays from the growth ``gamma``,
which maps an array of radii to an array: A4 cuts ``gamma`` to zero beyond
each truncation radius (the node at r = n keeps its value), A8 takes the
lower of the profile and ``gamma`` on each ball, and A8.1 takes ``gamma``
itself.

Drivers cover the three ball-exhaustion sequences used by the collapse
experiments: truncated data on a fixed large ball (A4), profile-capped
data on growing balls (A8), and the two-sided profile-boundary variant
(A8.1).  Each is split into a plan (``_plan_A4``, ``_plan_A8``,
``_plan_A8_1``: the runs' grids, data, boundaries and tags, made after
every precondition check) and a check of the returned fields;
``_step_plans`` steps any number of plans as one :func:`evolve` family and
hands each plan its slice.  Each driver steps its own plan alone (A8 every
center height on every ball), and ``non-uniqueness`` steps A4's and A8.1's
together.  The joint cap sets the u/w path, so an added run keeps the
others bitwise only if it never carries that cap across ``_U_SWITCH``.
A4's runs next to A8.1's do not: the sandwich check keeps their data at or
below V_b(max n), up to its 1e-9 slack, and that is the largest upper
run's boundary value.  The profile balls of A8 and A8.1 (grid, stationary
profile values, constant boundary trace) all come from ``_profile_balls``,
which shoots each center height once, on the largest ball, and every
driver checks and packs its ordering through ``_ordered_sequence``.  A
sequence's diagnostics hold only A8's domination notes; the solver
counters stay on the runs, and a scenario reduces those of all its runs
once with ``_solver_work``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    DominationError,
    GridError,
    MonotonicityError,
    NewtonDivergenceError,
    PreconditionError,
)
from .flat_ode import solve_phi_log
from .nonlinearity import Nonlinearity, dh_dw, eval_h, h_of_w, w_from_log_u
from .profiles import shoot_profile
from .threshold import GrowthFunction, domination_radius

__all__ = [
    "RadialGrid",
    "uniform_grid",
    "BoundaryTrace",
    "EvolutionField",
    "EvolutionFamily",
    "SchemeSequence",
    "evolve",
    "run_scheme_A4",
    "run_scheme_A8",
    "run_scheme_A8_1",
    "check_comparison",
    "discretization_tolerance",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid 0 = r_0 < ... < r_J = R_out in N dimensions."""

    radii: np.ndarray
    dimension: int

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", r)
        if r.ndim != 1 or len(r) < 18:
            raise GridError("grid needs at least 16 interior nodes")
        if not np.all(np.isfinite(r)):
            raise GridError("grid radii must be finite")
        if r[0] != 0.0:
            raise GridError("grid must start at r = 0")
        d = np.diff(r)
        if np.any(d <= 0.0):
            raise GridError("grid radii must be strictly increasing")
        h = d[0]
        if np.max(np.abs(d - h)) > 1e-9 * h:
            raise GridError("solver requires uniform spacing")
        if self.dimension < 1:
            raise GridError("dimension must be a positive integer")

    @property
    def spacing(self) -> float:
        return float(self.radii[1] - self.radii[0])


def uniform_grid(r_out: float, h: float, dimension: int) -> RadialGrid:
    """Grid with exact spacing h; r_out must be a multiple of h."""
    if not (0.0 < r_out < math.inf and 0.0 < h < math.inf):
        raise GridError(f"r_out = {r_out:g} and h = {h:g} must be positive and finite")
    cells = int(round(r_out / h))
    if cells < 17:
        raise GridError("grid needs at least 16 interior nodes")
    if abs(cells * h - r_out) > 1e-9 * max(1.0, r_out):
        raise GridError(f"r_out = {r_out:g} is not a multiple of h = {h:g}")
    radii = np.arange(cells + 1) * h
    radii[-1] = r_out
    return RadialGrid(radii=radii, dimension=dimension)


@dataclass(frozen=True)
class BoundaryTrace:
    """Dirichlet trace at r = R_out, in log form; vector-evaluated in time."""

    w_of_times: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(w_value: float) -> "BoundaryTrace":
        w_value = float(w_value)
        return BoundaryTrace(
            w_of_times=lambda ts, w=w_value: np.full(len(np.atleast_1d(ts)), w)
        )

    @staticmethod
    def flat_trace(spec: Nonlinearity, a: float) -> "BoundaryTrace":
        ln_a = math.log(a)

        def trace(ts: np.ndarray) -> np.ndarray:
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            out = np.empty(len(ts))
            pos = ts > 0.0
            lam = solve_phi_log(spec, ln_a, ts[pos]) if np.any(pos) else np.empty(0)
            out[pos] = w_from_log_u(lam)
            out[~pos] = math.log1p(a)
            return out

        return BoundaryTrace(w_of_times=trace)


@dataclass(frozen=True)
class EvolutionField:
    """One evolution run: values[i, j] = ln(1 + u(times[i], radii[j]))."""

    times: np.ndarray
    grid: RadialGrid
    values: np.ndarray
    scheme_tag: str
    newton_iterations_max: int = 0
    negative_clips: int = 0
    steps: int = 0                  # backward-Euler steps taken
    warm_start_sweeps: int = 0      # summed over the steps
    newton_solves: int = 0          # Newton systems solved, summed over the steps
    worst_residual: float = 0.0     # largest accepted scaled-residual max-norm
    min_dt: float = 0.0             # shortest and longest step of the sequence
    max_dt: float = 0.0
    u_steps: int = 0                # steps whose warm start was taken in u


@dataclass(frozen=True)
class EvolutionFamily:
    """Runs stepped together by one :func:`evolve` call, in call order, with
    the most Newton iterations of any run's step and the summed clips."""

    fields: tuple
    newton_iterations_max: int = 0
    negative_clips: int = 0


@dataclass(frozen=True)
class SchemeSequence:
    """A monotone family of runs with its limit candidate and margins."""

    fields: tuple
    monotone_violation: float     # worst wrong-direction log difference
    diagnostics: dict = field(default_factory=dict)  # A8's domination notes

    @property
    def limit(self) -> EvolutionField:
        """The last run, the candidate for the limit."""
        return self.fields[-1]


def discretization_tolerance(h: float, dt_max: float) -> float:
    """Crude log-scale tolerance h^2 + dt matching the scheme's order."""
    return h * h + dt_max


# ----------------------------------------------------------------------
# core implicit stepper
# ----------------------------------------------------------------------


def _operator_rows(grid: RadialGrid):
    """Nonnegative off-diagonal coefficients (a: lower, b: upper, c = a+b)."""
    r = grid.radii
    h = grid.spacing
    N = grid.dimension
    J = len(r) - 1
    a = np.zeros(J + 1)
    b = np.zeros(J + 1)
    inv_h2 = 1.0 / (h * h)
    b[0] = 2.0 * N * inv_h2
    drift = np.zeros(J + 1)
    drift[1:J] = (N - 1) / r[1:J]
    centered = drift[1:J] <= 2.0 / h
    a[1:J] = np.where(centered, inv_h2 - drift[1:J] / (2.0 * h), inv_h2)
    b[1:J] = np.where(centered, inv_h2 + drift[1:J] / (2.0 * h), inv_h2 + drift[1:J] / h)
    # at r = (N-1)h/2 the centered branch balances exactly; roundoff can
    # leave a tiny negative there, which the log-space warm start cannot take
    a[1:J] = np.maximum(a[1:J], 0.0)
    c = a + b
    return a, b, c


# the step controls: the first step and the ratio of each ramp step to the
# one before, up to the caller's dt_max; the scaled residual a step must
# reach; and the Newton solves a step may take before it raises
_DT_INIT = 1e-6
_RAMP = 1.3
_NEWTON_TOL = 1e-10
_NEWTON_MAX = 50


def _internal_times(times: np.ndarray, dt_max: float):
    """Backward-Euler step sequence hitting every output time exactly."""
    steps = []
    is_output = []
    dt = _DT_INIT
    t = 0.0
    for T in times[1:]:
        while t < T * (1.0 - 1e-14) - 1e-300:
            # a full step that would leave only a rounding-sized sliver before
            # T is stretched to land on T: the sliver would cost a whole solve
            t = T if T - t <= dt * (1.0 + 1e-6) else t + dt
            steps.append(t)
            is_output.append(t == T)
            dt = min(dt * _RAMP, dt_max)
        if not is_output or not is_output[-1]:
            # T coincided with an earlier landing within rounding
            steps.append(T)
            is_output.append(True)
            t = T
    return np.asarray(steps), np.asarray(is_output, dtype=bool)


# a Newton correction below this times max(1, |w|) is within four ulps of w
_ROUNDOFF = 4.0 * np.finfo(float).eps


class _Stepper:
    """The steps of one :func:`evolve` call (see the module notes).  Run i
    owns nodes ``starts[i]..ends[i]`` of the concatenated operator ``rows``
    (``owner`` maps nodes to runs) and takes at most ``sweep_caps[i]``
    warm-start sweeps a step, enough to flood its grid twice over (none on a
    step that goes straight to Newton, see ``_step``).  The dt
    products are rebuilt only when dt changes, at a fixed ``dt_max`` rarely."""

    def __init__(self, spec, grids, tags):
        self.spec, self.tags = spec, tags
        # row j of a run couples only to j-1 and j+1 of the same run: a = 0 at
        # each block start and b = 0 at each block end, so the concatenated rows
        # form a block-diagonal system
        self.rows = tuple(np.concatenate(parts) for parts in zip(*map(_operator_rows, grids)))
        sizes = np.array([len(gr.radii) for gr in grids])
        self.ends = np.cumsum(sizes) - 1
        self.starts = self.ends - sizes + 1
        self.owner = np.repeat(np.arange(len(grids)), sizes)
        self.sweep_caps = 2 * (sizes - 1) + 100
        self.run_c = np.maximum.reduceat(self.rows[2], self.starts)  # each run's max c
        n, runs = int(sizes.sum()), len(grids)
        self.dt = None
        self.terms = np.empty((4, n))       # the sweep's four log terms
        self.terms[1, 0] = self.terms[2, -1] = -np.inf
        self.shifted = np.empty((4, n))
        self.top = np.empty(n)
        self.tmp = np.empty(n)
        self.M = np.empty(n)
        self.dthy = np.empty(n)
        self.pair = np.empty((2, 2, n))  # the iterate and the sweep's estimate
        # the w-form residual G and the pieces the Newton matrix reuses: the
        # exponential block e (rows e^{x-M}, e^{x_{j-1}-M}, e^{x_{j+1}-M},
        # e^{w_m-M}, e^{-M}) and the row products.  The exponents before the
        # shift by M are ``source``, whose rows 1 and 2 keep their zero end,
        # row 3 holds w_m for a step and row 4 stays 0
        self.source = np.zeros((5, n))
        self.e = np.empty((5, n))
        self.self_row, self.lo_row, self.up_row, self.G = (np.empty(n) for _ in range(4))
        self.diag = np.empty(n)
        self.lower = np.empty(n - 1)
        self.upper = np.empty(n - 1)
        self.rhs = np.empty(n)
        # per run, over the steps so far: the most Newton iterations of a step,
        # the summed sweeps, Newton solves and negative clips, and the
        # largest accepted scaled-residual max-norm
        self.iters_max = np.zeros(runs, dtype=int)
        self.sweeps = np.zeros(runs, dtype=int)
        self.solves = np.zeros(runs, dtype=int)
        self.clips = np.zeros(runs, dtype=int)
        self.worst_residual = np.zeros(runs)
        # the u path: the step's u_m, and the residual R and its row factor
        # 1 + dt c + dt h at the current iterate
        self.c_max = float(self.run_c.max())
        self.fit_dt, self.fit_cap = None, -math.inf  # the last cap that fitted, and its dt
        self.um = np.empty(n)
        self.den = np.empty(n)
        self.R = np.empty(n)
        self.u_steps = 0

    def constants(self, dt):
        """``dt a``, ``dt b``, ``1 + dt c``, ``ln(dt a)`` and ``ln(dt b)``."""
        if dt != self.dt:
            a_row, b_row, c_row = self.rows
            dta, dtb = dt * a_row, dt * b_row
            with np.errstate(divide="ignore"):
                self.products = dta, dtb, 1.0 + dt * c_row, np.log(dta), np.log(dtb)
            self.dt = dt
        return self.products


def _scaled_residual(stepper, y, dt):
    """Fill the stepper's residual arrays at the w iterate ``y``; returns
    ``G``.  ``stepper`` must hold this step's dt products and w_m (source row 3).

    Row j is the step equation divided by e^{M_j}, M = max(y, w_m): all five
    exponentials are taken as one (5, n) block, the neighbour terms clamped
    at 700 (the others are at most 0, since M >= w_m >= 0).  The block is
    clamped below at -746 too: exp is exactly 0 there and below, and the
    clamp keeps np.exp off its slow path for underflowing arguments."""
    dta, dtb, one_dtc = stepper.products[:3]
    src, e, self_row = stepper.source, stepper.e, stepper.self_row
    M = np.maximum(y, src[3], out=stepper.M)
    hy = h_of_w(stepper.spec, y)
    src[0] = y
    src[1, 1:] = y[:-1]
    src[2, :-1] = y[1:]
    np.subtract(src, M, out=e)
    np.minimum(e[1:3], 700.0, out=e[1:3])
    np.maximum(e, -746.0, out=e)
    np.exp(e, out=e)
    e_self, e_lo, e_up, e_wm, e_0 = e
    dthy = np.multiply(hy, dt, out=stepper.dthy)
    # the row products, kept for the Newton matrix
    np.multiply(np.add(one_dtc, dthy, out=self_row), e_self, out=self_row)
    lo_row = np.multiply(dta, e_lo, out=stepper.lo_row)
    up_row = np.multiply(dtb, e_up, out=stepper.up_row)
    G = np.subtract(self_row, lo_row, out=stepper.G)
    G -= up_row
    G -= e_wm
    G -= np.multiply(dthy, e_0, out=dthy)
    G[stepper.ends] = 0.0  # boundary rows: the Dirichlet value is already set
    return G


# a step whose family cap max(max w_m, w_bc) lies below this w is taken in
# u = e^w - 1 (see the module notes)
_U_SWITCH = 600.0


def _u_path_fits(stepper, cap, dt):
    """Whether a step with family cap ``cap`` (in w) is taken in u: below the
    switch, and with ``u_cap (1 + dt (max c + h(u_cap)))`` finite, which bounds
    every term of the u-space step equation (a power law can overflow it
    below the switch).  The bound grows with the cap, so a cap at most the
    last one that fitted at this dt fits too."""
    if not cap < _U_SWITCH:
        return False
    if dt == stepper.fit_dt and cap <= stepper.fit_cap:
        return True
    u_cap = math.expm1(cap)
    with np.errstate(over="ignore"):
        h_cap = eval_h(stepper.spec, u_cap)
    fits = math.isfinite(u_cap * (1.0 + dt * (stepper.c_max + h_cap)))
    if fits:
        stepper.fit_dt, stepper.fit_cap = dt, cap
    return fits


def _u_residual(stepper, x, dt):
    """Each run's scaled-residual norm at the u-path iterate ``x``, a pair
    (w, u); leaves the residual R in ``stepper.R`` and its row factor
    ``1 + dt c + dt h`` in ``stepper.den``.  ``stepper`` must hold this
    step's dt products and its u_m.

    R(u) = (1 + dt c + dt h(u)) u - dt a u_{j-1} - dt b u_{j+1} - u_m, zero at
    the boundary nodes, is checked as R / (1 + max(u, u_m)): the w path's G,
    since e^w = 1 + u and rows sum to c."""
    dta, dtb, one_dtc = stepper.products[:3]
    tmp, den, R, um = stepper.tmp, stepper.den, stepper.R, stepper.um
    w, u = x[0], x[1]
    hx = h_of_w(stepper.spec, w)
    np.multiply(np.add(one_dtc, np.multiply(hx, dt, out=den), out=den), u, out=R)
    # a is 0 at each block start and b at each block end, so the neighbour
    # terms never cross from one run into the next
    R[1:] -= np.multiply(dta[1:], u[:-1], out=tmp[1:])
    R[:-1] -= np.multiply(dtb[:-1], u[1:], out=tmp[:-1])
    R -= um
    R[stepper.ends] = 0.0
    G = np.divide(R, np.add(np.maximum(u, um, out=tmp), 1.0, out=tmp), out=tmp)
    return np.maximum.reduceat(np.abs(G, out=tmp), stepper.starts)


def _sweeps(stepper, caps, x, est, jacobi, *state):
    """The warm start's sweeps on either path from the iterate ``x``; returns
    whichever of ``x`` and ``est``, the path's rows of the two pair buffers
    (row w first), holds the last sweep.  ``jacobi(stepper, x, est, *state)``
    fills ``est`` with one sweep from ``x``, boundary nodes included.  Each
    run sweeps until its largest ``|dw|`` lies below 1e-3, or up to its
    step's cap in ``caps``; a run whose cap is 0 keeps ``x`` as it is.
    While every run sweeps the buffers swap, after that the sweeping runs'
    rows are copied across."""
    starts, owner, tmp = stepper.starts, stepper.owner, stepper.tmp
    sweeping = caps > 0
    for sweep in range(1, int(caps.max()) + 1):
        stepper.sweeps += sweeping
        jacobi(stepper, x, est, *state)
        delta = np.maximum.reduceat(np.abs(np.subtract(est[0], x[0], out=tmp), out=tmp), starts)
        if sweeping.all():
            x, est = est, x
        else:
            np.copyto(x, est, where=sweeping[owner])
        settled = delta < 1e-3
        if settled.all():
            break
        sweeping &= ~settled & (sweep < caps)
        if not sweeping.any():
            break
    return x


def _u_jacobi(stepper, x, est, w_bc, dt):
    """One sweep in u from the pair ``x`` into ``est`` (see ``_u_warm_start``)."""
    ends = stepper.ends
    dta, dtb, one_dtc = stepper.products[:3]
    tmp, den, um = stepper.tmp, stepper.den, stepper.um
    w, u, w_est, u_est = x[0], x[1], est[0], est[1]
    hx = h_of_w(stepper.spec, w)
    np.add(one_dtc, np.multiply(hx, dt, out=den), out=den)
    np.add(um[:-1], np.multiply(dtb[:-1], u[1:], out=tmp[:-1]), out=u_est[:-1])
    u_est[-1] = um[-1]
    u_est[1:] += np.multiply(dta[1:], u[:-1], out=tmp[1:])
    u_est /= den
    u_est[ends] = u[ends]  # the start's expm1(w_bc)
    np.log1p(u_est, out=w_est)
    w_est[ends] = w_bc


def _u_warm_start(stepper, caps, wm, w_bc, dt):
    """The warm start, each run up to its sweep cap in ``caps``, and the
    residual check in u from the start in row w of ``stepper.pair[0]``;
    returns the pair (w, u) of the last sweep and each run's scaled-residual
    norm.

    The Jacobi fixed point of the step equation in u,
      u_j <- (u_m + dt a u_{j-1} + dt b u_{j+1}) / (1 + dt c + dt h),
    is that of the w path's log-sum-exp.  Each iterate's w = log1p(u) is
    taken once and serves the stop rule, h and the accepted w.  Every u
    stays in [0, u_cap], where ``_u_path_fits`` has bounded the terms."""
    np.expm1(wm, out=stepper.um)
    x, est = stepper.pair[0], stepper.pair[1]
    np.expm1(x[0], out=x[1])
    x = _sweeps(stepper, caps, x, est, _u_jacobi, w_bc, dt)
    return x, _u_residual(stepper, x, dt)


def _newton_error(stepper, run, message, step_index, norm):
    return NewtonDivergenceError(
        f"{message} at time step {step_index} in run {stepper.tags[run]!r} "
        f"(residual {norm[run]:.3g})", step_index, float(norm[run]),
    )


def _newton_solve(stepper, lower, diag, upper, rhs, norm, active, step_index):
    """The Newton correction of the ``active`` runs: one LAPACK ``dgtsv``
    solve of the block tridiagonal system (``diag`` gets identity rows at the
    boundary nodes).  Block couplings are exact zeros, so elimination and
    pivoting never cross from one run into the next.  A non-finite or
    singular system raises, naming the run."""
    from scipy.linalg.lapack import dgtsv

    starts = stepper.starts
    diag[stepper.ends] = 1.0
    if not (np.all(np.isfinite(norm)) and np.all(np.isfinite(diag))):
        bad = np.maximum.reduceat(~np.isfinite(diag), starts) | ~np.isfinite(norm)
        raise _newton_error(stepper, int(np.argmax(bad)), "non-finite Newton system",
                            step_index, norm)
    stepper.solves += active
    _, _, _, delta, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info > 0:
        raise _newton_error(stepper, int(stepper.owner[info - 1]), "singular Newton matrix",
                            step_index, norm)
    return delta


def _newton(stepper, norm, step_index, correct, *state):
    """Newton for the runs whose ``norm`` misses ``_NEWTON_TOL``, each run on
    its own, on either path; moves their iterate and ``norm`` in place.

    ``correct(stepper, active, norm, step_index, *state)`` solves one Newton
    system for the ``active`` runs, moves their iterate, refreshes their
    norm, and returns the runs whose correction lay at roundoff: they have
    converged as far as the iterate can resolve.  A run stops there, or at
    ``_NEWTON_TOL``, checked after every solve, the last one included; either
    stop books the step at its solves plus one iterations.  A run that has
    reached neither after ``_NEWTON_MAX`` solves raises."""
    iters_max = stepper.iters_max
    active = ~(norm < _NEWTON_TOL)
    for it in range(1, _NEWTON_MAX + 1):
        if not active.any():
            return
        done = active & (correct(stepper, active, norm, step_index, *state)
                         | (norm < _NEWTON_TOL))
        np.maximum(iters_max, it + 1, out=iters_max, where=done)
        active &= ~done
    if active.any():
        raise _newton_error(
            stepper, int(np.argmax(active)),
            f"Newton did not reach {_NEWTON_TOL:g} within {_NEWTON_MAX} iterations",
            step_index, norm,
        )


def _u_correction(stepper, active, norm, step_index, x, cap, w_bc, dt):
    """One Newton iterate in u of the u path (see ``_newton``); moves the
    pair ``x`` in place.

    The Jacobian of R(u) is tridiagonal, with the operator's off-diagonals
    and the diagonal 1 + dt c + dt (h + u h'(u)), where u h'(u) = dh_dw(w)
    u/(1+u); its boundary rows are identity rows.  Every law here makes
    u h(u) convex on u >= 0, so the step map is a convex M-function: by the
    Newton-Baluev theorem (Ortega & Rheinboldt, *Iterative Solution of
    Nonlinear Equations in Several Variables*, 1970, §13.3) every iterate
    after the first is a supersolution, and the iterates decrease to the
    step's solution from any start.  Clipping each iterate to [0, u_cap]
    keeps that, since the flat cap is a supersolution and so is the minimum
    of two, so Newton needs no line search.  A correction within four ulps
    of 1 + u is at roundoff."""
    starts, ends, owner = stepper.starts, stepper.ends, stepper.owner
    dta, dtb = stepper.products[:2]
    tmp = stepper.tmp
    w, u = x[0], x[1]
    diag = np.multiply(dh_dw(stepper.spec, w), dt, out=stepper.diag)
    diag *= np.divide(u, np.add(u, 1.0, out=tmp), out=tmp)
    diag += stepper.den
    delta = _newton_solve(
        stepper, np.negative(dta[1:], out=stepper.lower), diag,
        np.negative(dtb[:-1], out=stepper.upper), np.negative(stepper.R, out=stepper.rhs),
        norm, active, step_index,
    )
    resolved = np.logical_and.reduceat(
        np.abs(delta) <= np.multiply(np.add(u, 1.0, out=tmp), _ROUNDOFF, out=tmp), starts
    )
    nodes = active[owner]
    np.add(u, delta, out=u, where=nodes)
    np.minimum(np.maximum(u, 0.0, out=u, where=nodes), np.expm1(cap)[owner], out=u,
               where=nodes)
    np.log1p(u, out=w, where=nodes)
    w[ends] = w_bc
    np.copyto(norm, _u_residual(stepper, x, dt), where=active)
    return resolved


def _w_jacobi(stepper, x, est, w_bc, dt):
    """One log-space sweep from ``x`` into ``est`` (see ``_w_warm_start``)."""
    log_dta, log_dtb = stepper.products[3:]
    terms, shifted, top, tmp = stepper.terms, stepper.shifted, stepper.top, stepper.tmp
    x, est = x[0], est[0]
    hx = h_of_w(stepper.spec, x)
    np.add(log_dta[1:], x[:-1], out=terms[1, 1:])
    np.add(log_dtb[:-1], x[1:], out=terms[2, :-1])
    np.log(np.multiply(hx, dt, out=terms[3]), out=terms[3])
    np.maximum.reduce(terms, axis=0, out=top)
    # a term below e^-700 of the top one cannot change the sum, and
    # clamping keeps np.exp off its slow path for underflowing arguments
    np.maximum(np.subtract(terms, top, out=shifted), -700.0, out=shifted)
    np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=0, out=est), out=est)
    est += top
    est -= np.log1p(np.multiply(np.add(stepper.rows[2], hx, out=tmp), dt, out=tmp), out=tmp)
    est[stepper.ends] = w_bc


def _w_warm_start(stepper, caps, wm, w_bc, dt):
    """The warm start, each run up to its sweep cap in ``caps``, and the
    residual check in w from the start in row w of ``stepper.pair[0]``;
    returns the last sweep as a (1, n) slice, row w of its pair buffer, whose
    residual the stepper holds, and each run's scaled-residual norm.

    The log-space Jacobi sweep sets x_j to ln of the step equation's fixed
    point with neighbors frozen,
      ln(e^{w_m} + dt a e^{x_{j-1}} + dt b e^{x_{j+1}} + dt h) - ln(1 + dt(c+h)),
    taken as one log-sum-exp of the four log terms shifted by their
    maximum, which is finite (at least w_m), so no exponential overflows.
    In u-space this is plain Jacobi on a strictly dominant M-matrix
    (contraction rate < dt*c/(1+dt*c)), so it converges globally; it floods
    plateaus one cell per sweep, so a cliff in the data needs up to one
    sweep per node to cross the grid.  The -inf log coefficients at block
    edges keep neighbouring runs apart."""
    stepper.terms[0] = wm
    pair = stepper.pair
    with np.errstate(divide="ignore"):
        x = _sweeps(stepper, caps, pair[0, :1], pair[1, :1], _w_jacobi, w_bc, dt)
    stepper.source[3] = wm
    G = _scaled_residual(stepper, x[0], dt)
    return x, np.maximum.reduceat(np.abs(G, out=stepper.tmp), stepper.starts)


def _w_correction(stepper, active, norm, step_index, x, cap, w_bc, dt):
    """One Newton iterate of the w path (see ``_newton``): the u path's
    Newton step, written in the w path's scaled variables; moves row w of
    ``x`` in place and refills the stepper's residual arrays.

    Row j of G is row j of R(u) divided by e^{M_j}.  Dividing the rows of
    Newton's system J du = -R by e^{M} and setting du = (1+u) z leave its
    solution unchanged: the matrix below has the diagonal
    ``self_row + dt dh_dw(w) u e^{-M}`` and the off-diagonals ``-lo_row`` and
    ``-up_row``, and the right side is -G.  The new iterate is
    1 + u + du = (1+u)(1+z), that is w + log1p(z), clipped to [0, cap] as
    the u path clips u.  So every iterate is the u path's up to rounding, and
    the convergence argument of ``_u_correction`` covers both paths.  A
    correction is at roundoff when ``|log1p z|`` is within four ulps of
    ``max(1, |w|)``: at large w and dt that floor of the scaled residual
    lies above ``_NEWTON_TOL``."""
    starts, ends, owner = stepper.starts, stepper.ends, stepper.owner
    w, e = x[0], stepper.e
    diag = np.multiply(dh_dw(stepper.spec, w), dt, out=stepper.diag)
    diag *= np.subtract(e[0], e[4], out=stepper.tmp)
    diag += stepper.self_row
    z = _newton_solve(
        stepper, np.negative(stepper.lo_row[1:], out=stepper.lower), diag,
        np.negative(stepper.up_row[:-1], out=stepper.upper),
        np.negative(stepper.G, out=stepper.rhs), norm, active, step_index,
    )
    # z <= -1 takes u to -1 or below: log1p gives -inf there, which the clip makes 0
    with np.errstate(divide="ignore"):
        dw = np.log1p(np.maximum(z, -1.0, out=z), out=z)
    resolved = np.logical_and.reduceat(
        np.abs(dw) <= _ROUNDOFF * np.maximum(1.0, np.abs(w)), starts
    )
    nodes = active[owner]
    np.add(w, dw, out=w, where=nodes)
    np.minimum(np.maximum(w, 0.0, out=w, where=nodes), cap[owner], out=w, where=nodes)
    w[ends] = w_bc
    G = _scaled_residual(stepper, w, dt)
    np.copyto(norm, np.maximum.reduceat(np.abs(G, out=stepper.tmp), starts), where=active)
    return resolved


# a warm-start sweep shrinks the step's linear error by dt c / (1 + dt c) at
# best, c the run's largest row sum; from dt c = 1 on that is a half or
# more, so a run whose start is predicted goes straight to Newton there
_SWEEP_DTC = 1.0


def _step(stepper, wm, x0, w_bc, dt, step_index, predicted=False):
    """One backward-Euler step of every run from the starting iterate ``x0``;
    returns the accepted w, always a fresh array, and adds the step's solver
    work to the stepper's per-run counters.

    ``predicted`` says that ``x0`` is the polynomial through accepted steps
    alone, not through the data.  Then a run whose dt times its largest
    row sum c is at least ``_SWEEP_DTC`` gets a sweep cap of 0 for the step:
    it goes from the start to the residual check and Newton, and every
    other run sweeps.  The caps are set per run from its own rows, so a
    family member skips exactly when it would alone.

    The family's cap picks the path (see ``_u_path_fits``): a u-path step
    sweeps, checks and runs Newton in u, a w-path step does so in w, with
    the same Newton iterates written in scaled variables (see
    ``_w_correction``).  Both run ``_sweeps`` and ``_newton`` on the
    stepper's pair buffers.  Each run keeps its own convergence state, so it
    does exactly the arithmetic it would do if stepped alone on the same
    path; runs that have finished a phase keep their values while the
    others go on.
    """
    starts, ends, owner = stepper.starts, stepper.ends, stepper.owner
    # the step solution lies in [0, max(max w_m, w_bc)] per run (discrete
    # maximum principle: rows sum to c and h >= 0), so the start does too
    cap = np.maximum(np.maximum.reduceat(wm, starts), w_bc)
    start = stepper.pair[0, 0]
    np.minimum(np.maximum(x0, 0.0, out=start), cap[owner], out=start)
    start[ends] = w_bc
    # a step counts as one iteration at least
    np.maximum(stepper.iters_max, 1, out=stepper.iters_max)
    stepper.constants(dt)
    if _u_path_fits(stepper, float(cap.max()), dt):
        stepper.u_steps += 1
        warm_start, correct = _u_warm_start, _u_correction
    else:
        warm_start, correct = _w_warm_start, _w_correction
    caps = stepper.sweep_caps
    # no run reaches _SWEEP_DTC when the family's largest c does not, which
    # spares a small step (all of theorem-c) the per-run test
    if predicted and dt * stepper.c_max >= _SWEEP_DTC:
        caps = np.where(dt * stepper.run_c < _SWEEP_DTC, caps, 0)
    x, norm = warm_start(stepper, caps, wm, w_bc, dt)
    _newton(stepper, norm, step_index, correct, x, cap, w_bc, dt)
    w = x[0]
    stepper.clips += np.add.reduceat(w < -1e-10, starts, dtype=int)
    np.maximum(stepper.worst_residual, norm, out=stepper.worst_residual)
    return np.maximum(w, 0.0)


# each step starts from the polynomial through this many accepted steps
_START_POINTS = 4


def _extrapolate(ts, ws, t, scratch):
    """Value at t of the polynomial through the points (ts[i], ws[i]), in
    Lagrange form, as a fresh array; one point gives ws[0] itself."""
    x = None
    for ti, wi in zip(ts, ws):
        li = 1.0
        for tj in ts:
            if tj != ti:
                li *= (t - tj) / (ti - tj)
        if x is None:
            x = np.multiply(wi, li)
        else:
            x += np.multiply(wi, li, out=scratch)
    return x


def evolve(
    spec: Nonlinearity,
    grid: RadialGrid | Sequence[RadialGrid],
    w0: np.ndarray | Sequence[np.ndarray],
    boundary: BoundaryTrace | Sequence[BoundaryTrace],
    times: Sequence[float],
    dt_max: float = 1e-3,
    scheme_tag: str | Sequence[str] = "evolve",
) -> EvolutionField | EvolutionFamily:
    """Backward-Euler evolution of the absorption problem on the grid.

    ``w0`` is the initial value ``ln(1+u0)`` at every node of the grid: an
    array of the grid's length, finite and nonnegative.  Its boundary node is
    replaced by the trace's value at t = 0.
    ``times`` are the output instants (times[0] = 0), finite and strictly
    increasing; internal stepping refines geometrically near t = 0 (first
    step ``_DT_INIT``, ratio ``_RAMP``) up to ``dt_max`` and lands on every
    output time exactly.
    The boundary column of the result equals the declared trace exactly.

    Family form: with a sequence of grids, ``w0``, ``boundary`` and
    ``scheme_tag`` are sequences too, one entry per run.  The runs are
    stepped together as one system on one step sequence (see the module
    notes) and an :class:`EvolutionFamily` is returned.
    """
    single = isinstance(grid, RadialGrid)
    if single:
        grids, w0s, bcs, tags = [grid], [w0], [boundary], [scheme_tag]
    else:
        grids, w0s, bcs, tags = map(list, (grid, w0, boundary, scheme_tag))
        if not 0 < len(grids) == len(w0s) == len(bcs) == len(tags):
            raise PreconditionError(
                "a family needs one grid, initial value array, boundary and tag per run"
            )
    for gr, w_run, tag in zip(grids, w0s, tags):
        if np.shape(w_run) != gr.radii.shape:
            raise GridError(
                f"initial values of run {tag!r} have shape {np.shape(w_run)}, "
                f"its grid has {len(gr.radii)} nodes"
            )
        if not np.all(np.isfinite(w_run)) or np.any(np.less(w_run, 0.0)):
            raise DomainError(
                f"initial values of run {tag!r} must be finite and nonnegative in log form"
            )
    times = np.asarray(list(times), dtype=float)
    if len(times) == 0 or times[0] != 0.0:
        raise PreconditionError("output times must start at t = 0")
    if not np.all(np.isfinite(times)):
        raise PreconditionError("output times must be finite")
    if np.any(np.diff(times) <= 0.0):
        raise PreconditionError("output times must be strictly increasing")
    if not 0.0 < dt_max < math.inf:
        raise PreconditionError(f"dt_max must be positive and finite, got {dt_max!r}")

    stepper = _Stepper(spec, grids, tags)
    starts, ends = stepper.starts, stepper.ends
    w = np.concatenate(w0s, dtype=float)
    step_times, is_output = _internal_times(times, dt_max)
    all_times = np.concatenate(([0.0], step_times))
    bc = np.empty((len(all_times), len(grids)))  # row k: boundary values at step k
    for i, trace in enumerate(bcs):
        bc[:, i] = trace.w_of_times(all_times)
    if np.any(bc < 0.0) or not np.all(np.isfinite(bc)):
        raise DomainError("boundary trace must be finite and nonnegative in log form")

    out = np.empty((len(times), len(w)))
    w[ends] = bc[0]
    out[0] = w
    row = 1
    # the accepted steps the start extrapolates from, oldest first
    hist_t, hist_w = [0.0], [w]
    dt_prev = None
    # Python floats: the start's weights are scalar arithmetic
    for k, t in enumerate(step_times.tolist()):
        dt = t - hist_t[-1]
        # restart the history after a step much shorter than this one, whose
        # error the extrapolation would magnify (see the module notes); the
        # slack keeps rounding in t from tripping it on a regular ramp step
        if dt_prev is not None and dt > _RAMP * dt_prev * (1.0 + 1e-9):
            del hist_t[:-1], hist_w[:-1]
        x0 = _extrapolate(hist_t, hist_w, t, stepper.tmp)
        # a start through two accepted steps or more, the data no longer
        # among them, is a prediction that Newton can take from (see _step)
        w = _step(stepper, w, x0, bc[k + 1], dt, k, len(hist_t) > 1 and hist_t[0] > 0.0)
        if is_output[k]:
            out[row] = w
            row += 1
        hist_t.append(t)
        hist_w.append(w)
        del hist_t[:-_START_POINTS], hist_w[:-_START_POINTS]
        dt_prev = dt

    dts = np.diff(all_times)
    min_dt, max_dt = (float(dts.min()), float(dts.max())) if len(dts) else (0.0, 0.0)
    fields = []
    for i, (gr, trace, tag) in enumerate(zip(grids, bcs, tags)):
        values = out[:, starts[i]: ends[i] + 1].copy()
        values[:, -1] = trace.w_of_times(times)  # exact by declaration
        fields.append(EvolutionField(
            times=times, grid=gr, values=values, scheme_tag=tag,
            newton_iterations_max=int(stepper.iters_max[i]),
            negative_clips=int(stepper.clips[i]), steps=len(step_times),
            warm_start_sweeps=int(stepper.sweeps[i]), newton_solves=int(stepper.solves[i]),
            worst_residual=float(stepper.worst_residual[i]), min_dt=min_dt, max_dt=max_dt,
            u_steps=stepper.u_steps,
        ))
    if single:
        return fields[0]
    return EvolutionFamily(
        fields=tuple(fields),
        newton_iterations_max=int(stepper.iters_max.max()),
        negative_clips=int(stepper.clips.sum()),
    )


# ----------------------------------------------------------------------
# scheme drivers
# ----------------------------------------------------------------------


def _profile_balls(spec: Nonlinearity, a: float, n_list: Sequence[float], h: float):
    """The height-a stationary profile shot on the largest of the balls of
    the ascending radii ``n_list``, and for each ball its grid, the
    profile's values on that grid, and the profile's edge value as a
    constant boundary trace.

    The profile is shot once, on the largest ball.  The balls are nested and
    node j of each lies at ``j h``, so a smaller ball's profile is the shot's
    first nodes; only its edge node, which ``uniform_grid`` sets to the
    radius itself, may lie a rounding away from the shot's node."""
    big = uniform_grid(n_list[-1], h, 1)
    shot = shoot_profile(spec, a, 1, n_list[-1], grid=big.radii)
    balls = []
    for n in n_list:
        grid = uniform_grid(n, h, 1)
        w = shot.w_values[: len(grid.radii)]
        balls.append((grid, w, BoundaryTrace.constant(float(w[-1]))))
    return shot, balls


def _solver_work(fields: Sequence[EvolutionField]) -> dict:
    """Solver work of runs on one step schedule: the step count and the
    steps taken in u, the step-size range, the worst accepted residual, and
    the sweeps, Newton solves and clips summed over the runs."""
    return {
        "steps": max(f.steps for f in fields), "runs": len(fields),
        "warm_start_sweeps": sum(f.warm_start_sweeps for f in fields),
        "newton_solves": sum(f.newton_solves for f in fields),
        "negative_clips": sum(f.negative_clips for f in fields),
        "worst_residual": max(f.worst_residual for f in fields),
        "min_dt": min(f.min_dt for f in fields), "max_dt": max(f.max_dt for f in fields),
        "u_steps": max(f.u_steps for f in fields),
    }


def _ordered_sequence(
    fields: Sequence[EvolutionField],
    increasing: bool,
    tol: float,
    name: str,
    diagnostics: dict | None = None,
) -> SchemeSequence:
    """Check that consecutive runs order in n in one direction and pack them.

    Runs are compared on the nodes of the first (smallest) ball.  The worst
    wrong-direction log difference is the sequence's violation; above 10x
    ``tol`` it raises :class:`MonotonicityError`.
    """
    n_common = len(fields[0].grid.radii)
    worst = -np.inf
    for f1, f2 in zip(fields[:-1], fields[1:]):
        d = f2.values[:, :n_common] - f1.values[:, :n_common]
        worst = max(worst, float(np.max(-d if increasing else d)))
    if worst > 10.0 * tol:
        direction = "increasing" if increasing else "decreasing"
        raise MonotonicityError(
            f"{name} family not {direction} in n: worst violation {worst:.3g} "
            f"exceeds 10x tolerance {tol:.3g}", worst,
        )
    return SchemeSequence(
        fields=tuple(fields),
        monotone_violation=worst,
        diagnostics=diagnostics or {},
    )


def _step_plans(
    spec: Nonlinearity, plans: Sequence[tuple], times: Sequence[float], dt_max: float
) -> list:
    """Step the runs of all ``plans`` as one :func:`evolve` family and
    return each plan's checked result, in order.

    A plan is a pair ``(runs, check)``: the runs of one driver, each as
    ``(grid, w0, boundary, tag)``, and ``check``, which takes the runs'
    fields in that order and returns the driver's result.  Every run gets
    the family's step sequence, and its values are bitwise those of its
    plan stepped alone as long as the joint cap takes the same u/w path as
    the plan's own cap at every step (see the module notes): a plan whose
    runs never raise the others' cap leaves them bitwise."""
    grids, w0, bcs, tags = zip(*(run for runs, _ in plans for run in runs))
    fields = evolve(spec, grids, w0, bcs, times, dt_max, tags).fields
    results, start = [], 0
    for runs, check in plans:
        results.append(check(fields[start: start + len(runs)]))
        start += len(runs)
    return results


def _plan_A4(
    g: GrowthFunction, n_list: Sequence[float], r_out: float, h: float, dt_max: float,
    dimension: int,
) -> tuple:
    """The plan ``(runs, check)`` of :func:`run_scheme_A4` (see ``_step_plans``)."""
    n_list = sorted(float(n) for n in n_list)
    if not n_list:
        raise PreconditionError("the truncated scheme needs a truncation radius")
    if n_list[-1] >= r_out:
        raise PreconditionError("truncation radii must stay below r_out")
    grid = uniform_grid(r_out, h, dimension)
    gam = g.gamma(grid.radii)
    zero = BoundaryTrace.constant(0.0)
    runs = tuple(
        (grid, np.where(grid.radii <= n + 1e-12, gam, 0.0), zero, f"truncated n={n:g}")
        for n in n_list
    )
    tol = discretization_tolerance(h, dt_max)
    return runs, lambda fields: _ordered_sequence(fields, True, tol, "truncation")


def run_scheme_A4(
    spec: Nonlinearity,
    g: GrowthFunction,
    n_list: Sequence[float],
    r_out: float,
    times: Sequence[float],
    h: float = 0.025,
    dt_max: float = 1e-3,
    dimension: int = 1,
) -> SchemeSequence:
    """Truncated-data exhaustion: data g cut at radius n, zero boundary.

    All runs share the grid on [0, r_out] with homogeneous Dirichlet at
    r_out (stand-in for the whole-space problem; it under-estimates, which
    suits a minimal-limit construction) and are stepped as one family.
    The family must increase with n; a violation above 10x
    :func:`discretization_tolerance` aborts.

    The runs come from ``_plan_A4``, so a scenario can step them in a
    larger family through ``_step_plans``.  The joint cap then sets the
    u/w path, and a run is bitwise what this driver returns only while that
    cap takes the path of this family's own cap.
    """
    plan = _plan_A4(g, n_list, r_out, h, dt_max, dimension)
    return _step_plans(spec, [plan], times, dt_max)[0]


def _plan_A8(
    spec: Nonlinearity, g: GrowthFunction, a_list: Sequence[float], n_list: Sequence[float],
    h: float, dt_max: float, tol: float | None, domination: str,
) -> tuple:
    """The plan ``(runs, check)`` of :func:`run_scheme_A8` (see ``_step_plans``),
    made after its domination check; the runs are height-major."""
    a_list = [float(a) for a in a_list]
    n_list = sorted(float(n) for n in n_list)
    if not a_list or not n_list:
        raise PreconditionError("the capped scheme needs a center height and a ball radius")
    tol = discretization_tolerance(h, dt_max) if tol is None else tol
    if domination not in ("warn", "require"):
        raise DomainError("domination policy must be warn or require")

    # one shoot per height, on the largest ball; the domination check samples it
    shots, profile_balls = zip(*(_profile_balls(spec, a, n_list, h) for a in a_list))
    notes = []
    for a, shot in zip(a_list, shots):
        diagnostics: dict = {}
        try:
            r_a = domination_radius(g, spec, a, 1, n_list[-1], shot)
            diagnostics["domination_radius"] = r_a
            if r_a > n_list[0] and domination == "require":
                raise DominationError(f"smallest ball radius {n_list[0]:g} is below the "
                                      f"domination radius {r_a:g}")
            if r_a > n_list[0]:
                diagnostics["domination_warning"] = (
                    f"ball radii start below the domination radius {r_a:g}; "
                    "the capped data is not yet the profile at the boundary"
                )
        except DominationError:
            if domination == "require":
                raise
            diagnostics["domination_warning"] = (
                f"data does not dominate the height-{a:g} profile up to {n_list[-1]:g}"
            )
        notes.append(diagnostics)

    # g sampled once per ball serves every height's run on that ball
    gams = [g.gamma(grid.radii) for grid, _, _ in profile_balls[0]]
    runs = tuple(
        (grid, np.minimum(cap, gam), bc, f"capped a={a:g} n={n:g}")
        for a, balls in zip(a_list, profile_balls)
        for n, gam, (grid, cap, bc) in zip(n_list, gams, balls)
    )
    k = len(n_list)
    return runs, lambda fields: tuple(
        _ordered_sequence(fields[i * k: (i + 1) * k], False, tol, "capped", diagnostics)
        for i, diagnostics in enumerate(notes)
    )


def run_scheme_A8(
    spec: Nonlinearity,
    g: GrowthFunction,
    a_list: Sequence[float],
    n_list: Sequence[float],
    times: Sequence[float],
    h: float = 0.025,
    dt_max: float = 1e-3,
    tol: float | None = None,
    domination: str = "warn",
) -> tuple[SchemeSequence, ...]:
    """Profile-capped exhaustion: for each center height a, runs on [0, n]
    with boundary height V_a(n) and initial data min{V_a, g}.

    Returns one sequence per height, in ``a_list`` order; each must
    decrease with n on the common ball.  ``domination`` controls the check
    that g eventually dominates V_a (the scheme's hypothesis), made for
    every height before any stepping: "require" raises when a height's
    domination radius exceeds min(n_list) or cannot be found, "warn"
    records it in that height's diagnostics.  Each height's profile is shot
    once, on the largest ball, and serves the check and every ball (see
    ``_profile_balls``).

    Every height's run on every ball is one :func:`evolve` family
    (``_plan_A8``).  Its cap sets the u/w path, so runs whose caps straddle
    ``_U_SWITCH`` agree with their solo runs only to the solve tolerance.
    """
    plan = _plan_A8(spec, g, a_list, n_list, h, dt_max, tol, domination)
    return _step_plans(spec, [plan], times, dt_max)[0]


def _plan_A8_1(
    spec: Nonlinearity, g: GrowthFunction, c: float, b: float, n_list: Sequence[float],
    h: float, dt_max: float, tol: float | None,
) -> tuple:
    """The plan ``(runs, check)`` of :func:`run_scheme_A8_1` (see
    ``_step_plans``), made after its sandwich check; the lower runs come
    first, then the upper ones."""
    if not 0.0 < c < b:
        raise PreconditionError("need 0 < c < b")
    n_list = sorted(float(n) for n in n_list)
    if not n_list:
        raise PreconditionError("the sandwich scheme needs a ball radius")
    if tol is None:
        tol = discretization_tolerance(h, dt_max)

    _, lower_balls = _profile_balls(spec, c, n_list, h)
    _, upper_balls = _profile_balls(spec, b, n_list, h)
    # g sampled once per ball serves that ball's lower and upper run, and
    # the largest ball's sample the sandwich check
    gams = [g.gamma(grid.radii) for grid, _, _ in lower_balls]
    prof_c, prof_b = lower_balls[-1][1], upper_balls[-1][1]
    slack = 1e-9
    if np.any(gams[-1] < prof_c - slack) or np.any(gams[-1] > prof_b + slack):
        raise PreconditionError(
            "initial data is not sandwiched between the two stationary profiles"
        )

    # one family, so lower and upper runs also share the step sequence that
    # the comparison between the two limits relies on
    runs = tuple(
        (grid, gam, bc, f"sandwich a={center:g} n={n:g}")
        for center, balls in ((c, lower_balls), (b, upper_balls))
        for n, gam, (grid, _, bc) in zip(n_list, gams, balls)
    )
    k = len(n_list)
    return runs, lambda fields: (
        _ordered_sequence(fields[:k], True, tol, "lower sandwich"),
        _ordered_sequence(fields[k:], False, tol, "upper sandwich"),
    )


def run_scheme_A8_1(
    spec: Nonlinearity,
    g: GrowthFunction,
    c: float,
    b: float,
    n_list: Sequence[float],
    times: Sequence[float],
    h: float = 0.025,
    dt_max: float = 1e-3,
    tol: float | None = None,
) -> tuple[SchemeSequence, SchemeSequence]:
    """Two-sided profile-boundary exhaustion for sandwiched data.

    Requires c < b and V_c <= g <= V_b nodewise (checked on the largest
    ball).  For each n the lower run uses boundary height V_c(n) and the
    upper run V_b(n), both with initial data g; the lower family must
    increase and the upper decrease.  Returns ``(lower, upper)``.

    The runs come from ``_plan_A8_1``, so a scenario can step them in a
    larger family through ``_step_plans``.  The joint cap then sets the
    u/w path, and the runs are bitwise what this driver returns only while
    that cap takes the path of this family's own cap; runs that never
    raise the cap, such as data at most V_b(max n), keep them bitwise.
    """
    plan = _plan_A8_1(spec, g, c, b, n_list, h, dt_max, tol)
    return _step_plans(spec, [plan], times, dt_max)[0]


def check_comparison(field1: EvolutionField, field2: EvolutionField) -> float:
    """Max signed log-scale excess of field1 over field2 (ordered inputs
    should give a value at most the discretization tolerance)."""
    g1, g2 = field1.grid, field2.grid
    if len(g1.radii) != len(g2.radii) or np.max(np.abs(g1.radii - g2.radii)) > 1e-12:
        raise GridError("comparison requires identical grids")
    if len(field1.times) != len(field2.times) or np.max(np.abs(field1.times - field2.times)) > 1e-14:
        raise GridError("comparison requires identical output times")
    return float(np.max(field1.values - field2.values))
