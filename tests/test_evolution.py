"""Implicit evolution scheme: exact discrete oracles, orders, comparison."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.optimize import brentq

from absorblab.config import parse_config
from absorblab.errors import (
    DomainError,
    DominationError,
    GridError,
    MonotonicityError,
    NewtonDivergenceError,
    PreconditionError,
)
from absorblab.evolution import (
    BoundaryTrace,
    EvolutionFamily,
    EvolutionField,
    RadialGrid,
    check_comparison,
    discretization_tolerance,
    evolve,
    run_scheme_A4,
    run_scheme_A8,
    run_scheme_A8_1,
    uniform_grid,
    _internal_times,
    _ordered_sequence,
)
import absorblab.evolution as evolution
import absorblab.threshold as threshold
from absorblab.flat_ode import solve_phi
from absorblab.nonlinearity import Nonlinearity, eval_h, h_of_w
from absorblab.profiles import RadialProfile, shoot_profile
from absorblab.scenarios import run_non_uniqueness
from absorblab.threshold import GrowthFunction, domination_radius

LOG15 = Nonlinearity.log_power(1.5)
QUARTIC = GrowthFunction(gamma=lambda r: 2.0 * r**4.0, beta=4.0, K=2.0)


@pytest.fixture
def controls(monkeypatch):
    """Sets the stepper's private controls for one test by their names in
    lower case: ``controls(dt_init=1.0, newton_max=3)`` sets ``_DT_INIT`` and
    ``_NEWTON_MAX``."""
    def set_controls(**values):
        for name, value in values.items():
            monkeypatch.setattr(evolution, f"_{name.upper()}", value)
    return set_controls


def smooth(r):
    return 0.5 + r**2 / 8.0


def cut(n, gamma=QUARTIC.gamma):
    """gamma cut to zero beyond radius n, as the truncated scheme cuts its data."""
    return lambda r: np.where(r <= n + 1e-12, gamma(r), 0.0)


def make_run(r_out, h, gamma, bc, tag):
    """One run of a family: a grid on [0, r_out], gamma on it, a boundary
    trace and a tag."""
    grid = uniform_grid(r_out, h, 1)
    return grid, gamma(grid.radii), bc, tag


def scalar_backward_euler_u(spec, a, step_times):
    """The same implicit stepping for the plain decay equation in u."""
    u = a
    prev = 0.0
    path = {0.0: math.log1p(a)}
    for t in step_times:
        dt = t - prev
        uk = u
        u = brentq(lambda y: y * (1.0 + dt * eval_h(spec, y)) - uk, 0.0, uk,
                   xtol=1e-16, rtol=8.9e-16)
        path[round(float(t), 15)] = math.log1p(u)
        prev = t
    return path


def scalar_backward_euler_log(spec, w0, step_times):
    """Same recursion carried in log scale, valid far beyond double range."""
    w = w0
    prev = 0.0
    path = {0.0: w0}
    for t in step_times:
        dt = t - prev
        wp = w

        def res(y, wp=wp, dt=dt):
            M = max(y, wp)
            hy = float(h_of_w(spec, y))
            return (math.exp(y - M) * (1.0 + dt * hy)
                    - dt * hy * math.exp(-M) - math.exp(wp - M))

        w = brentq(res, 0.0, wp, xtol=1e-14, rtol=8.9e-16)
        path[round(float(t), 15)] = w
        prev = t
    return path


def path_trace(path):
    def w_of_times(ts):
        return np.array([path[round(float(t), 15)] for t in np.atleast_1d(np.asarray(ts, dtype=float))])
    return BoundaryTrace(w_of_times=w_of_times)


# ----------------------------------------------------------------------
# grids, times, data plumbing
# ----------------------------------------------------------------------


def test_uniform_grid_shapes():
    grid = uniform_grid(1.0, 0.05, 1)
    assert len(grid.radii) == 21
    assert grid.radii[0] == 0.0 and grid.radii[-1] == 1.0
    assert grid.dimension == 1


def test_grid_validation():
    with pytest.raises(GridError):
        uniform_grid(0.5, 0.05, 1)  # only 10 cells
    with pytest.raises(GridError):
        uniform_grid(1.0, 0.03, 1)  # not a multiple
    with pytest.raises(GridError):
        RadialGrid(radii=np.linspace(0.1, 1.0, 25), dimension=1)  # no center
    with pytest.raises(GridError):
        RadialGrid(radii=np.concatenate([[0.0], np.geomspace(0.01, 1.0, 30)]),
                   dimension=1)  # nonuniform
    for bad in (math.nan, math.inf):  # every comparison with NaN is False
        with pytest.raises(GridError, match="finite"):
            RadialGrid(radii=np.array([0.0] + [bad] * 17), dimension=1)


@pytest.mark.parametrize("r_out, h", [(1.0, math.nan), (math.nan, 0.1), (math.inf, 0.1),
                                      (1.0, 0.0)])
def test_uniform_grid_rejects_zero_and_non_finite_sizes(r_out, h):
    # these raised ValueError, OverflowError or ZeroDivisionError from the
    # cell count before they reached a grid check
    with pytest.raises(GridError, match="positive and finite"):
        uniform_grid(r_out, h, 1)


def test_internal_times_land_on_outputs(controls):
    controls(dt_init=1e-4, ramp=1.5)
    times = np.array([0.0, 0.013, 0.05])
    steps, is_output = _internal_times(times, 1e-2)
    assert steps[0] == pytest.approx(1e-4)
    assert np.all(np.diff(np.concatenate(([0.0], steps))) <= 1e-2 + 1e-12)
    hit = steps[is_output]
    np.testing.assert_allclose(hit, times[1:], atol=1e-15)


@pytest.mark.parametrize(
    "times", [[0.0, 0.125, 0.25, 0.5], [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]]
)
def test_internal_times_leave_no_sliver_steps(times):
    # summed rounding in t used to leave a last step of 4.8e-14 (2.0e-15) before
    # an output time, each a full Newton solve; that step is now stretched
    steps, is_output = _internal_times(np.array(times), 2e-5)
    assert np.array_equal(steps[is_output], times[1:])
    assert np.min(np.diff(np.concatenate(([0.0], steps)))) >= evolution._DT_INIT


def test_evolve_time_and_data_validation():
    grid = uniform_grid(1.0, 0.05, 1)
    bc = BoundaryTrace.constant(0.0)
    with pytest.raises(PreconditionError):
        evolve(LOG15, grid, np.zeros(21), bc, [0.1, 0.2])
    with pytest.raises(PreconditionError):
        evolve(LOG15, grid, np.zeros(21), bc, [0.0, 0.2, 0.2])
    with pytest.raises(DomainError, match="run 'evolve'"):
        evolve(LOG15, grid, np.full(21, -1.0), bc, [0.0, 0.1])


@pytest.mark.parametrize("times", [[0.0, math.inf], [0.0, 0.25, math.inf], [0.0, math.nan]])
def test_evolve_rejects_non_finite_times(times):
    # [0, inf, inf] passed the ordering check, since inf - inf is NaN, and
    # the step schedule then grew toward T = inf without end
    with pytest.raises(PreconditionError, match="finite"):
        evolve(LOG15, uniform_grid(1.0, 0.05, 1), np.zeros(21),
               BoundaryTrace.constant(0.0), times)


@pytest.mark.parametrize("dt_max", [0.0, -1e-3, math.nan, math.inf])
def test_evolve_rejects_step_caps_outside_zero_to_inf(dt_max):
    # a zero or negative cap stops t from advancing, so the schedule never
    # ended; a NaN cap left the step uncapped
    with pytest.raises(PreconditionError, match="dt_max"):
        evolve(LOG15, uniform_grid(1.0, 0.05, 1), np.zeros(21),
               BoundaryTrace.constant(0.0), [0.0, 0.1], dt_max)


def test_evolve_checks_the_length_of_each_runs_initial_values():
    grid, bc = uniform_grid(1.0, 0.05, 1), BoundaryTrace.constant(0.0)
    with pytest.raises(GridError, match="run 'evolve'"):
        evolve(LOG15, grid, np.zeros(20), bc, [0.0, 0.1])
    with pytest.raises(GridError, match="run 'coarse'"):
        evolve(LOG15, [grid, uniform_grid(2.0, 0.1, 1)], [np.zeros(21), np.zeros(41)],
               [bc, bc], [0.0, 0.1], scheme_tag=["fine", "coarse"])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_evolve_rejects_non_finite_initial_values(monkeypatch, bad):
    # such data used to reach Newton, which failed at step 0 on a NaN
    # residual; it is a domain error naming the run, before any step
    grid, bc = uniform_grid(1.0, 0.05, 1), BoundaryTrace.constant(0.0)
    w0 = np.zeros(21)
    w0[7] = bad
    monkeypatch.setattr(evolution, "_step", lambda *args: pytest.fail("stepped"))
    with pytest.raises(DomainError, match="run 'evolve' must be finite"):
        evolve(LOG15, grid, w0, bc, [0.0, 0.1])
    with pytest.raises(DomainError, match="run 'cliff' must be finite"):
        evolve(LOG15, [grid, grid], [np.zeros(21), w0], [bc, bc], [0.0, 0.1],
               scheme_tag=["flat", "cliff"])


def test_boundary_trace_values():
    tr = BoundaryTrace.flat_trace(LOG15, 3.0)
    vals = tr.w_of_times(np.array([0.0, 0.2, 0.6]))
    assert vals[0] == pytest.approx(math.log1p(3.0), rel=1e-12)
    assert vals[2] < vals[1] < vals[0]


# ----------------------------------------------------------------------
# exact discrete oracles
# ----------------------------------------------------------------------


def test_zero_data_stays_zero():
    grid = uniform_grid(1.0, 0.05, 1)
    fld = evolve(LOG15, grid, np.zeros(21), BoundaryTrace.constant(0.0),
                 [0.0, 0.1, 0.3])
    assert np.max(np.abs(fld.values)) < 1e-12  # roundoff from the solve only
    assert fld.negative_clips == 0


def test_flat_run_reproduces_scalar_recursion():
    # flat data with the matched scalar path on the boundary: the discrete
    # Laplacian vanishes and every node must follow the scalar recursion
    a = 2.0
    times = np.array([0.0, 0.1, 0.3, 0.5])
    step_times, _ = _internal_times(times, 1e-3)
    path = scalar_backward_euler_u(LOG15, a, step_times)
    grid = uniform_grid(2.0, 0.1, 1)
    fld = evolve(LOG15, grid, np.full_like(grid.radii, math.log1p(a)),
                 path_trace(path), times, 1e-3)
    want = np.array([path[round(float(t), 15)] for t in times])
    assert np.max(np.abs(fld.values - want[:, None])) < 1e-9
    assert fld.negative_clips == 0


def test_flat_center_tracks_continuum_from_far_boundary():
    a = 2.0
    times = np.array([0.0, 0.1, 0.3, 0.5])
    grid = uniform_grid(4.0, 0.1, 1)
    fld = evolve(LOG15, grid, np.full_like(grid.radii, math.log1p(a)),
                 BoundaryTrace.flat_trace(LOG15, a), times)
    w_cont = np.log1p(solve_phi(LOG15, a, times).values)
    diff = fld.values[:, 0] - w_cont
    assert np.max(np.abs(diff)) < 1e-3
    # implicit stepping under-damps: never below the continuum decay
    assert np.min(diff) >= -1e-12


def test_time_stepping_is_first_order():
    # halving dt_max should halve the center error against the continuum,
    # on h = 0.1 at dt_max 1e-3 and on h = 0.05 at large steps.  There dt c
    # is 8 and 4 (c = 2/h^2), so every step whose start is predicted from
    # accepted steps goes straight to Newton: far fewer sweeps than steps
    a = 2.0
    times = np.array([0.0, 0.5])
    w_cont = math.log1p(float(solve_phi(LOG15, a, times).values[-1]))
    for h, dts in ((0.1, (1e-3, 5e-4)), (0.05, (1e-2, 5e-3))):
        errs = []
        for dt in dts:
            grid = uniform_grid(4.0, h, 1)
            fld = evolve(LOG15, grid, np.full_like(grid.radii, math.log1p(a)),
                         BoundaryTrace.flat_trace(LOG15, a), times, dt)
            errs.append(abs(float(fld.values[-1, 0]) - w_cont))
            if dt * 2.0 / (h * h) >= 1.0:
                assert fld.warm_start_sweeps < fld.steps / 2
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(2.0, rel=0.2)


def test_space_discretization_is_second_order():
    # stationary data must be preserved up to the truncation shift, which
    # contracts by four per halving of h
    drift = {}
    for h in (0.05, 0.025):
        grid = uniform_grid(4.0, h, 1)
        prof = shoot_profile(LOG15, 2.0, 1, 4.0, grid=grid.radii)
        fld = evolve(LOG15, grid, prof.sample(grid.radii)[0],
                     BoundaryTrace.constant(float(prof.w_values[-1])), [0.0, 0.5])
        drift[h] = float(np.max(np.abs(fld.values[-1] - prof.w_values)))
        assert drift[h] < 5.0 * h * h
    ratio = drift[0.05] / drift[0.025]
    assert 3.2 < ratio < 4.8


def test_capped_data_stays_below_profile():
    (seq,) = run_scheme_A8(LOG15, QUARTIC, [2.0], [4.0], [0.0, 0.25, 0.5], h=0.05)
    prof = shoot_profile(LOG15, 2.0, 1, 4.0, grid=seq.limit.grid.radii)
    excess = float(np.max(seq.limit.values - prof.w_values[None, :]))
    # the corner where the data meets the profile carries an O(h^2) shift
    assert excess < 5.0 * 0.05**2


def test_cliff_data_bounded_by_scalar_majorant():
    # truncated quartic data up to ln(1+u) = 512: the field must stay below
    # the flat implicit decay started from the data maximum (same steps)
    times = np.array([0.0, 0.25, 0.5])
    step_times, _ = _internal_times(times, 1e-3)
    majorant = scalar_backward_euler_log(LOG15, 2.0 * 4.0**4, step_times)
    grid = uniform_grid(9.0, 0.05, 1)
    fld = evolve(LOG15, grid, cut(4.0)(grid.radii),
                 BoundaryTrace.constant(0.0), times, 1e-3)
    for i, t in enumerate(times):
        assert float(np.max(fld.values[i])) <= majorant[round(float(t), 15)] + 1e-9
    assert fld.negative_clips == 0
    assert fld.newton_iterations_max <= 10


def test_giant_cliff_data_solves_cleanly():
    # data reaching ln(1+u) = 2592 over a cliff to zero: the warm start must
    # carry Newton across the free front without divergence
    times = np.array([0.0, 0.5])
    step_times, _ = _internal_times(times, 1e-3)
    majorant = scalar_backward_euler_log(LOG15, 2.0 * 6.0**4, step_times)
    grid = uniform_grid(9.0, 0.05, 1)
    fld = evolve(LOG15, grid, cut(6.0)(grid.radii),
                 BoundaryTrace.constant(0.0), times, 1e-3)
    assert float(np.max(fld.values[-1])) <= majorant[round(0.5, 15)] + 1e-9
    assert np.all(np.isfinite(fld.values))
    assert fld.negative_clips == 0


def test_comparison_randomized_ordered_pairs():
    # ordered data and boundaries must stay ordered, across dimensions
    rng = np.random.default_rng(7)
    times = [0.0, 0.01, 0.02]
    worst = -np.inf
    for k in range(10):
        dim = int(rng.integers(1, 4))
        spec = Nonlinearity.log_power(float(rng.uniform(1.1, 1.9)))
        grid = uniform_grid(1.0, 0.05, dim)
        c0, c1, c2 = rng.uniform(0.2, 3.0, 3)
        b0, b1 = rng.uniform(0.0, 2.0, 2)
        r = grid.radii
        w1 = c0 + c1 * r**2 / (1 + c2 * r)
        w2 = w1 + b0 + b1 * np.sin(3.0 * r) ** 2
        f1 = evolve(spec, grid, w1, BoundaryTrace.constant(float(w1[-1])), times)
        f2 = evolve(spec, grid, w2, BoundaryTrace.constant(float(w2[-1]) + 0.1), times)
        worst = max(worst, check_comparison(f1, f2))
    assert worst <= 1e-9


def test_comparison_requires_matching_layout():
    f1 = evolve(LOG15, uniform_grid(1.0, 0.05, 1), np.zeros(21),
                BoundaryTrace.constant(0.0), [0.0, 0.1])
    f2 = evolve(LOG15, uniform_grid(2.0, 0.1, 1), np.zeros(21),
                BoundaryTrace.constant(0.0), [0.0, 0.1])
    with pytest.raises(GridError):
        check_comparison(f1, f2)


# ----------------------------------------------------------------------
# batched stepping
# ----------------------------------------------------------------------


def _mixed_family():
    zero = BoundaryTrace.constant(0.0)
    return [
        make_run(2.0, 0.05, smooth, zero, "smooth"),
        make_run(3.0, 0.05, cut(2.5), zero, "cliff"),
        make_run(2.0, 0.05, cut(1.0), zero, "truncated"),
        make_run(3.0, 0.05, smooth, BoundaryTrace.constant(0.7), "raised boundary"),
    ]


def _family(runs, times, dt_max=1e-3):
    grids, w0, bcs, tags = zip(*runs)
    return evolve(LOG15, grids, w0, bcs, times, dt_max, tags)


def _h_evals(monkeypatch, run, times, dt_max=1e-3):
    calls = []

    def counted(spec, x):
        calls.append(1)
        return h_of_w(spec, x)

    monkeypatch.setattr(evolution, "h_of_w", counted)
    field = evolve(LOG15, *run[:3], times, dt_max, scheme_tag=run[3])
    monkeypatch.setattr(evolution, "h_of_w", h_of_w)
    return field, len(calls)


def test_batched_family_matches_solo_runs_bitwise(monkeypatch):
    times = [0.0, 0.01, 0.02]
    runs = _mixed_family()
    solo, evals = zip(*(_h_evals(monkeypatch, run, times) for run in runs))
    # the cliff needs several times the warm-start sweeps of the others, so
    # runs leave the sweep loop at different times within one step
    assert evals[1] > 3 * max(evals[0], evals[2], evals[3])
    family = _family(runs, times)
    assert isinstance(family, EvolutionFamily)
    assert [f.scheme_tag for f in family.fields] == [run[3] for run in runs]
    for one, many in zip(solo, family.fields):
        assert np.array_equal(one.values, many.values)
        assert one.newton_iterations_max == many.newton_iterations_max
        assert one.negative_clips == many.negative_clips
        assert (one.warm_start_sweeps, one.newton_solves) == (many.warm_start_sweeps, many.newton_solves)
        assert many.grid is one.grid and np.array_equal(many.times, one.times)
    assert family.fields[3].values[0, -1] == 0.7
    assert family.newton_iterations_max == max(f.newton_iterations_max for f in solo)
    assert family.negative_clips == sum(f.negative_clips for f in solo)


def test_family_needs_one_entry_per_run():
    runs = _mixed_family()
    grids, w0, bcs, tags = zip(*runs)
    with pytest.raises(PreconditionError, match="per run"):
        evolve(LOG15, grids, w0[:-1], bcs, [0.0, 0.01], scheme_tag=tags)
    with pytest.raises(PreconditionError, match="per run"):
        evolve(LOG15, [], [], [], [0.0, 0.01], scheme_tag=[])


def _cliff_trio():
    return [
        make_run(3.0, 0.1, cut(1.0), BoundaryTrace.constant(0.0), "cliff"),
        make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.0), "smooth"),
        make_run(3.0, 0.05, smooth, BoundaryTrace.constant(0.7), "long"),
    ]


def _large_step_solo(monkeypatch, runs, u_path):
    """Each run stepped alone by one step of dt = 1 on the u path, or on the
    w path (the switch at -inf), with its h_of_w count."""
    with monkeypatch.context() as patch:
        if not u_path:
            patch.setattr(evolution, "_U_SWITCH", -math.inf)
        return zip(*(_h_evals(patch, run, [0.0, 1.0], 1.0) for run in runs))


@pytest.mark.parametrize("u_steps", [0, 1], ids=["w_path", "u_path"])
def test_batched_large_step_keeps_caps_per_run(monkeypatch, controls, u_steps):
    # one step of dt = 1: the warm start contracts so slowly that every run
    # stops at its own cap of 2J + 100 sweeps, and every run needs Newton.
    # An h_of_w count is sweeps + Newton iterations.  The w path takes the u
    # path's Newton iterates, so every counter agrees between the paths.  The
    # family is stepped on the u path, or on the w path (the switch at -inf)
    controls(dt_init=1.0)
    runs = _cliff_trio()
    caps = [2 * (len(run[0].radii) - 1) + 100 for run in runs]
    by_path = []
    for u_path in (0, 1):
        solo, evals = _large_step_solo(monkeypatch, runs, u_path)
        assert all(f.u_steps == u_path and f.newton_solves > 0 for f in solo)
        assert [f.warm_start_sweeps for f in solo] == caps == [160, 180, 220]
        assert [n - cap for n, cap in zip(evals, caps)] == [f.newton_iterations_max for f in solo]
        by_path.append(solo)
    w_solo, u_solo = by_path
    assert ([(f.newton_solves, f.newton_iterations_max) for f in w_solo]
            == [(f.newton_solves, f.newton_iterations_max) for f in u_solo])
    # stepped last in the family, the cliff run still gets its own counts,
    # and the family's iteration count is the largest of its runs'
    if not u_steps:
        monkeypatch.setattr(evolution, "_U_SWITCH", -math.inf)
    family = _family(runs[::-1], [0.0, 1.0], 1.0)
    solo = by_path[u_steps]
    for one, many in zip(solo[::-1], family.fields):
        assert np.array_equal(one.values, many.values)
        assert one.newton_iterations_max == many.newton_iterations_max
        assert one.newton_solves == many.newton_solves
    assert family.newton_iterations_max == max(f.newton_iterations_max for f in solo)


@pytest.mark.parametrize("u_switch", [-math.inf, evolution._U_SWITCH], ids=["w_path", "u_path"])
def test_newton_limit_counts_its_last_solve(controls, u_switch):
    # with _NEWTON_MAX equal to the most solves a step needs, the residual
    # after the last allowed solve is checked before Newton gives up: the
    # step completes with the values under the default limit
    controls(dt_init=1.0, u_switch=u_switch)
    default = _family(_cliff_trio(), [0.0, 1.0], 1.0)
    solves = max(f.newton_solves for f in default.fields)
    assert solves > 1
    controls(newton_max=solves)
    limited = _family(_cliff_trio(), [0.0, 1.0], 1.0)
    for one, ref in zip(limited.fields, default.fields):
        assert one.values.tobytes() == ref.values.tobytes()
        assert (one.newton_solves, one.newton_iterations_max) == (
            ref.newton_solves, ref.newton_iterations_max)


def test_batched_newton_limit_names_the_failing_run(controls):
    # one step of dt = 1 in w (the switch at -inf), with Newton allowed the
    # cliff run's 3 solves but not the smooth run's 4: the family raises on
    # the smooth run, the second, exactly as it raises stepped alone, and the
    # cliff run alone completes
    controls(dt_init=1.0, u_switch=-math.inf, newton_max=3)
    cliff, smooth_run = _cliff_trio()[:2]
    with pytest.raises(NewtonDivergenceError, match="'smooth'") as batched:
        _family([cliff, smooth_run], [0.0, 1.0], 1.0)
    assert "within 3 iterations" in str(batched.value)
    with pytest.raises(NewtonDivergenceError) as solo:
        evolve(LOG15, *smooth_run[:3], [0.0, 1.0], 1.0, scheme_tag=smooth_run[3])
    assert str(solo.value) == str(batched.value)
    assert batched.value.step_index == solo.value.step_index == 0
    assert batched.value.residual == solo.value.residual > evolution._NEWTON_TOL
    alone = evolve(LOG15, *cliff[:3], [0.0, 1.0], 1.0, scheme_tag=cliff[3])
    assert alone.newton_solves == 3 and alone.worst_residual < evolution._NEWTON_TOL


@pytest.mark.parametrize("dt", [0.1, 1.0])
def test_newton_stall_at_roundoff_is_accepted(controls, dt):
    # one large step on data reaching w = 800: Newton cannot push the scaled
    # residual below 1.8e-10 (dt = 0.1) or 2.2e-9 (dt = 1), above
    # _NEWTON_TOL, because its last correction is within four ulps of w.
    # That correction is applied, and the step is accepted there with its
    # solves plus one as its iterations, as at _NEWTON_TOL; discarding it
    # left 5.8e-9 at dt = 1
    controls(dt_init=dt)
    grid = uniform_grid(3.0, 0.1, 1)
    fld = evolve(LOG15, grid, cut(2.0, lambda r: 50.0 * r**4)(grid.radii),
                 BoundaryTrace.constant(0.0), [0.0, dt], dt)
    assert np.all(np.isfinite(fld.values))
    assert np.all(fld.values >= 0.0)
    assert np.all(fld.values <= 50.0 * 2.0**4)
    assert fld.newton_iterations_max == fld.newton_solves + 1
    assert fld.worst_residual > evolution._NEWTON_TOL
    if dt == 1.0:
        assert fld.worst_residual <= 2.2e-9


def test_zero_tolerance_settles_at_roundoff(controls):
    # a zero tolerance cannot be met; each run stops where its Newton
    # correction is within four ulps of w, within the default tolerance's own
    # error (a 1e-10 scaled residual) of the default result
    runs = _mixed_family()[:1] + [
        make_run(1.0, 0.05, np.zeros_like, BoundaryTrace.constant(0.0), "flat zero"),
    ]
    default = _family(runs, [0.0, 0.01])
    controls(newton_tol=0.0)
    exact = _family(runs, [0.0, 0.01])
    for one, ref in zip(exact.fields, default.fields):
        assert np.max(np.abs(one.values - ref.values)) < 1e-9
    assert np.max(exact.fields[1].values) < 1e-15


def _nested_logaddexp_warm_start(spec, grid, w0, w_bc, dt):
    """The warm start with the fixed point as nested ``np.logaddexp`` calls,
    on one run alone: the stepper's sweep cap, stop rule and final clip."""
    a, b, c = evolution._operator_rows(grid)
    with np.errstate(divide="ignore"):
        log_dta, log_dtb = np.log(dt * a), np.log(dt * b)
    wm = w0.copy()
    x = w0.copy()
    x[-1] = w_bc
    cap = 2 * (len(x) - 1) + 100
    for _ in range(cap):
        hx = h_of_w(spec, x)
        with np.errstate(divide="ignore"):
            log_dth = np.log(dt * hx)
        lo = np.concatenate(([-np.inf], x[:-1]))
        up = np.concatenate((x[1:], [-np.inf]))
        est = np.logaddexp(
            np.logaddexp(wm, log_dta + lo), np.logaddexp(log_dtb + up, log_dth)
        ) - np.log1p(dt * (c + hx))
        est[-1] = w_bc
        settled = np.max(np.abs(est - x)) < 1e-3
        x = est
        if settled:
            break
    return np.maximum(x, 0.0)


def test_warm_start_matches_nested_logaddexp_oracle(controls):
    # an infinite tolerance returns the warm start itself; one step of dt = 1
    # on a family of two runs of different lengths, one of them a cliff from
    # w = 2592 to zero data (nodes with h = 0) that exhausts its sweep cap
    controls(dt_init=1.0, newton_tol=math.inf)
    runs = [
        make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.7), "smooth"),
        make_run(9.0, 0.05, cut(6.0), BoundaryTrace.constant(0.0), "giant cliff"),
    ]
    family = _family(runs, [0.0, 1.0], 1.0)
    assert float(np.max(family.fields[1].values[0])) == 2.0 * 6.0**4
    for (grid, w0, bc, _), fld in zip(runs, family.fields):
        w0 = w0.copy()
        w_bc = float(bc.w_of_times(np.array([0.0]))[0])
        w0[-1] = w_bc
        want = _nested_logaddexp_warm_start(LOG15, grid, w0, w_bc, 1.0)
        got = fld.values[1]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_extrapolated_start_agrees_with_start_from_previous_step():
    # each step starts from the polynomial through the last four; an
    # in-test loop over the same schedule starts every step from w_m instead.
    # The schedule has ramp steps, full steps and, after the landing on
    # t = 0.0123, a step three times longer than its predecessor.
    times = [0.0, 0.0123, 0.02]
    runs = [
        make_run(9.0, 0.05, cut(6.0), BoundaryTrace.constant(0.0), "giant cliff"),
        make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.7), "smooth"),
    ]
    family = _family(runs, times)

    grids, w0, bcs, tags = zip(*runs)
    stepper = evolution._Stepper(LOG15, grids, tags)
    w_bc = np.array([0.0, 0.7])
    w = np.concatenate(w0)
    w[stepper.ends] = w_bc
    step_times, is_output = _internal_times(np.array(times), 1e-3)
    want, prev_t = [w], 0.0
    for k, t in enumerate(step_times):
        w = evolution._step(stepper, w, w, w_bc, t - prev_t, k)
        if is_output[k]:
            want.append(w)
        prev_t = t
    for i, fld in enumerate(family.fields):
        ref = np.array(want)[:, stepper.starts[i]: stepper.ends[i] + 1]
        assert np.max(np.abs(fld.values - ref)) < 1e-8


def _large_step_family(monkeypatch, runs, times, dt_max):
    """The family stepped over ``times``, with each step's start kind, each
    run's dt c and the sweeps each run booked at that step."""
    records = []
    step = evolution._step

    def recording(stepper, wm, x0, w_bc, dt, k, predicted):
        before = stepper.sweeps.copy()
        w = step(stepper, wm, x0, w_bc, dt, k, predicted)
        records.append((predicted, dt * stepper.run_c, stepper.sweeps - before))
        return w

    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_step", recording)
        return _family(runs, times, dt_max), records


@pytest.mark.parametrize("path", ["u_path", "w_path"])
def test_large_predicted_steps_take_no_sweep(monkeypatch, path):
    # on h = 0.05 grids at dt_max = 2e-3, dt c = 1.6 past the ramp: a step
    # whose start is the polynomial through accepted steps alone books no
    # sweep there, and every other step sweeps (the first steps, whose start
    # runs through the data, and the restart after the landing on t = 0.01).
    # The fields agree to the solve tolerance with an in-test loop that
    # starts every step from w_m and sweeps it.  The w-path family holds the
    # giant cliff, whose cap stays above the switch at every step
    times = [0.0, 0.01, 0.03]
    high = (make_run(9.0, 0.05, cut(6.0), BoundaryTrace.constant(0.0), "giant cliff")
            if path == "w_path" else
            make_run(3.0, 0.05, cut(2.5), BoundaryTrace.constant(0.0), "cliff"))
    runs = [high, make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.7), "smooth")]
    family, records = _large_step_family(monkeypatch, runs, times, 2e-3)
    assert family.fields[0].u_steps == (family.fields[0].steps if path == "u_path" else 0)
    # the data leaves the four-point history after step 3; the first step
    # and the restart start from w_m
    step_times, is_output = _internal_times(np.array(times), 2e-3)
    dts = np.diff(np.concatenate(([0.0], step_times)))
    restarts = [k for k in range(len(dts))
                if k == 0 or dts[k] > evolution._RAMP * dts[k - 1] * (1.0 + 1e-9)]
    assert len(restarts) == 2
    assert [predicted for predicted, _, _ in records] == [
        k > 3 and k not in restarts for k in range(len(dts))]
    skipped = [np.all(dtc >= 1.0) and predicted for predicted, dtc, _ in records]
    assert sum(skipped) > 10
    for skip, (_, _, sweeps) in zip(skipped, records):
        assert np.all(sweeps == 0) if skip else np.all(sweeps >= 1)

    grids, w0, bcs, tags = zip(*runs)
    stepper = evolution._Stepper(LOG15, grids, tags)
    w_bc = np.array([0.0, 0.7])
    w = np.concatenate(w0)
    w[stepper.ends] = w_bc
    want, prev_t = [w], 0.0
    for k, t in enumerate(step_times):
        w = evolution._step(stepper, w, w, w_bc, t - prev_t, k)
        if is_output[k]:
            want.append(w)
        prev_t = t
    for i, fld in enumerate(family.fields):
        ref = np.array(want)[:, stepper.starts[i]: stepper.ends[i] + 1]
        assert np.max(np.abs(fld.values - ref)) < 1e-8


def test_family_straddling_one_sweep_rate_matches_solo_runs_bitwise(monkeypatch):
    # at dt_max = 1e-3 the grids h = 0.025, 0.05 and 0.1 have dt c = 3.2,
    # 0.8 and 0.2: past the ramp the first run takes its predicted steps
    # without a sweep while the others sweep, as each does stepped alone
    times = [0.0, 0.01, 0.02]
    runs = [
        make_run(2.0, 0.025, cut(1.0), BoundaryTrace.constant(0.0), "h=0.025"),
        make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.7), "h=0.05"),
        make_run(3.0, 0.1, cut(2.5), BoundaryTrace.constant(0.0), "h=0.1"),
    ]
    family, records = _large_step_family(monkeypatch, runs, times, 1e-3)
    mixed = [predicted and np.any(dtc >= 1.0) and not np.all(dtc >= 1.0)
             for predicted, dtc, _ in records]
    assert sum(mixed) > 10
    assert all(sweeps[0] == 0 and np.all(sweeps[1:] >= 1)
               for is_mixed, (_, _, sweeps) in zip(mixed, records) if is_mixed)
    for run, many in zip(runs, family.fields):
        one = _family([run], times).fields[0]
        assert one.values.tobytes() == many.values.tobytes()
        assert (one.warm_start_sweeps, one.newton_solves, one.newton_iterations_max) == (
            many.warm_start_sweeps, many.newton_solves, many.newton_iterations_max)


def test_reused_stepper_gives_the_same_step_bitwise():
    # evolve builds one _Stepper whose scratch arrays, per-dt products and
    # counters carry from step to step.  Over the first 40 steps of the mixed
    # family (ramp steps with a new dt each, runs leaving the sweeps at
    # different times, Newton solves) it gives, at each step, bitwise the w
    # of a fresh stepper; its summed counters grow by exactly the fresh one's
    # and its maxima become the larger of the old and the fresh; and every
    # accepted w is a fresh array that later steps leave alone
    grids, w0, bcs, tags = zip(*_mixed_family())
    reused = evolution._Stepper(LOG15, grids, tags)
    w_bc = np.array([float(bc.w_of_times(np.array([0.0]))[0]) for bc in bcs])
    w = np.concatenate(w0)
    w[reused.ends] = w_bc
    step_times, _ = _internal_times(np.array([0.0, 0.0123, 0.02]), 1e-3)
    summed, maxima = ("sweeps", "solves", "clips"), ("iters_max", "worst_residual")
    prev_t, accepted, resweeps, solves = 0.0, [], 0, 0
    for k, t in enumerate(step_times[:40]):
        before = {name: getattr(reused, name).copy() for name in summed + maxima}
        fresh = evolution._Stepper(LOG15, grids, tags)
        got = evolution._step(reused, w, w, w_bc, t - prev_t, k)
        want = evolution._step(fresh, w, w, w_bc, t - prev_t, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for name in summed:
            assert np.array_equal(getattr(reused, name), before[name] + getattr(fresh, name))
        for name in maxima:
            larger = np.maximum(before[name], getattr(fresh, name))
            assert getattr(reused, name).tobytes() == larger.tobytes()
        w, prev_t = got, t
        accepted.append((w, w.copy()))
        resweeps += int(fresh.sweeps.sum() > len(fresh.starts))
        solves += int(fresh.solves.sum())
    assert resweeps > 0 and solves > 0
    assert all(np.array_equal(w, copy) for w, copy in accepted)
    ws = [w for w, _ in accepted]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(ws) for b in ws[i + 1:])


def _plain_scaled_residual(spec, rows, y, wm, ends, dt):
    """The step's scaled residual and Newton pieces as plain array
    expressions, one temporary per operation."""
    a_row, b_row, c_row = rows
    M = np.maximum(y, wm)
    hy = h_of_w(spec, y)
    e_self = np.exp(y - M)
    e_0 = np.exp(-M)
    e_lo = np.exp(np.minimum(np.concatenate(([0.0], y[:-1])) - M, 700.0))
    e_up = np.exp(np.minimum(np.concatenate((y[1:], [0.0])) - M, 700.0))
    self_row = e_self * ((1.0 + dt * c_row) + dt * hy)
    lo_row = (dt * a_row) * e_lo
    up_row = (dt * b_row) * e_up
    G = self_row - lo_row - up_row - np.exp(wm - M) - dt * hy * e_0
    G[ends] = 0.0
    return G, e_self, e_0, self_row, lo_row, up_row


def test_residual_and_start_are_bitwise_the_plain_expressions(monkeypatch, controls):
    # the stepper takes its residual's exponentials as one block in scratch
    # arrays, and accumulates the start's Lagrange terms in place; both must
    # be bitwise the plain expressions, at every residual and start of a
    # family with w up to 2592 (exponentials that underflow) over default
    # steps, and of a dt = 1 family with a cliff in w (the switch at -inf)
    residual, extrapolate, checked = evolution._scaled_residual, evolution._extrapolate, []

    def checked_residual(stepper, y, dt):
        y, wm = y.copy(), stepper.source[3].copy()
        G = residual(stepper, y, dt)
        want = _plain_scaled_residual(stepper.spec, stepper.rows, y, wm, stepper.ends, dt)
        got = (G, stepper.e[0], stepper.e[4], stepper.self_row, stepper.lo_row, stepper.up_row)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        checked.append("residual")
        return G

    def checked_extrapolate(ts, ws, t, scratch):
        x = extrapolate(ts, ws, t, scratch)
        want = sum(
            math.prod((t - tj) / (ti - tj) for tj in ts if tj != ti) * wi
            for ti, wi in zip(ts, ws)
        )
        assert x.tobytes() == want.tobytes()
        checked.append("start")
        return x

    monkeypatch.setattr(evolution, "_scaled_residual", checked_residual)
    monkeypatch.setattr(evolution, "_extrapolate", checked_extrapolate)
    cliff = make_run(9.0, 0.05, cut(6.0), BoundaryTrace.constant(0.0), "giant cliff")
    _family([cliff, *_mixed_family()], [0.0, 0.0123, 0.02])
    controls(dt_init=1.0, u_switch=-math.inf)
    _family(_cliff_trio()[:2], [0.0, 1.0], 1.0)
    assert checked.count("residual") > checked.count("start") > 30


def test_evolving_a_family_twice_gives_bitwise_equal_fields():
    # the scratch arrays live for one evolve call: a second call on the same
    # family repeats the first bitwise, and no values array of either call
    # shares memory with another
    times = [0.0, 0.0123, 0.02]
    first, second = (_family(_mixed_family(), times) for _ in range(2))
    steps, _ = _internal_times(np.array(times), 1e-3)
    dts = np.diff(np.concatenate(([0.0], steps)))
    for one, two in zip(first.fields, second.fields):
        assert one.values.tobytes() == two.values.tobytes()
        assert one.worst_residual == two.worst_residual < evolution._NEWTON_TOL
        assert (one.min_dt, one.max_dt) == (dts.min(), dts.max())
    values = [f.values for fam in (first, second) for f in fam.fields]
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(values) for b in values[i + 1:]
    )


def test_start_falls_back_to_previous_step_after_short_steps(monkeypatch):
    # the first step, and any step more than _RAMP times longer than the one
    # before (here the step after the landing on t = 0.0123, three times
    # longer than the landing step), start from w_m: the extrapolation would
    # scale the last step's rounding and solve error by dt / dt_prev.  A
    # regular ramp step, whose t - prev_t may round above _RAMP * dt_prev,
    # does not trip the guard.
    times = [0.0, 0.0123, 0.02]
    from_wm = []
    step = evolution._step

    def recording(stepper, wm, x0, *rest):
        from_wm.append(np.array_equal(x0, wm))
        return step(stepper, wm, x0, *rest)

    monkeypatch.setattr(evolution, "_step", recording)
    evolve(LOG15, *make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.7), "evolve")[:3], times)
    steps, is_output = _internal_times(np.array(times), 1e-3)
    dts = np.diff(np.concatenate(([0.0], steps)))
    after_landing = int(np.argmax(is_output)) + 1
    want = [k == 0 or dts[k] > evolution._RAMP * dts[k - 1] * (1.0 + 1e-9)
            for k in range(len(dts))]
    assert want[after_landing] and want.count(False) > len(want) / 2
    assert from_wm == want


def _recorded_steps(monkeypatch, run, times):
    """Every step of one run as (w_m, x0, accepted w); the step times from
    t = 0 on, and which steps land on an output time."""
    records = []
    step = evolution._step

    def recording(stepper, wm, x0, *rest):
        w = step(stepper, wm, x0, *rest)
        records.append((wm, x0, w))
        return w

    monkeypatch.setattr(evolution, "_step", recording)
    evolve(LOG15, *run[:3], times, scheme_tag=run[3])
    steps, is_output = _internal_times(np.array(times), 1e-3)
    return records, np.concatenate(([0.0], steps)), is_output


def test_start_rebuilds_its_order_after_a_restart(monkeypatch):
    # each start is the polynomial through the last accepted steps, evaluated
    # at the new t.  Find how many points it used: the m-point polynomial
    # that reproduces x0 to rounding.  A restart (the first step, and the
    # step after the landing on t = 0.0123) starts from w_m, and the order
    # then rises one point per step up to four.
    times = [0.0, 0.0123, 0.02]
    records, ts, is_output = _recorded_steps(monkeypatch, _mixed_family()[0], times)
    ws = [records[0][0]] + [w for _, _, w in records]

    def through(k, m):
        # the m accepted values up to t_k, extrapolated to t_{k+1}
        x = ts[k + 1 - m: k + 1] - ts[k + 1]
        return np.polynomial.polynomial.polyfit(x, np.array(ws[k + 1 - m: k + 1]), m - 1)[0]

    points = []
    for k, (_, x0, _) in enumerate(records):
        misfit = [np.max(np.abs(x0 - through(k, m))) for m in range(1, min(k + 1, 5) + 1)]
        points.append(int(np.argmin(misfit)) + 1)
        assert min(misfit) < 1e-12
    restart = int(np.argmax(is_output)) + 1
    assert np.array_equal(records[0][1], records[0][0])
    assert np.array_equal(records[restart][1], records[restart][0])
    assert points[:4] == [1, 2, 3, 4] and set(points[4:restart]) == {4}
    assert points[restart:] == [1, 2, 3] + [4] * (len(points) - restart - 3)


def test_four_point_start_is_closer_than_two_point_start(monkeypatch):
    # on the smooth run, per four-point step, the max-norm distance from the
    # start to the accepted step against that of the two-point start
    # w_m + (dt/dt_prev)(w_m - w_prev).  The steps near the boundary jump at
    # r = 2 gain least; the median gains about 40-fold.
    times = [0.0, 0.01, 0.02]
    records, ts, _ = _recorded_steps(monkeypatch, _mixed_family()[0], times)
    dts = np.diff(ts)
    restarts = [k for k, (wm, x0, _) in enumerate(records) if np.array_equal(x0, wm)]
    gains = []
    for k in range(3, len(records)):
        if any(k - 2 <= r <= k for r in restarts):
            continue  # fewer than four points since the restart
        wm, x0, w = records[k]
        two = wm + (dts[k] / dts[k - 1]) * (wm - records[k - 1][0])
        gains.append(np.max(np.abs(two - w)) / np.max(np.abs(x0 - w)))
    assert len(gains) > 30
    assert np.median(gains) >= 10.0


@pytest.fixture(scope="module")
def theorem_c_family():
    """The theorem-c family (n = 3..6 on r_out = 9) and n = 6 again on 1.5x
    the domain over [0, 0.1], stepped once for the tests that read it.  Its
    first four runs are bitwise A4's runs of the theorem-c scenario there."""
    ns = [3.0, 4.0, 5.0, 6.0, 6.0]
    grids = [uniform_grid(9.0, 0.025, 1)] * 4 + [uniform_grid(13.5, 0.025, 1)]
    return evolve(
        LOG15, grids, [cut(n)(grid.radii) for n, grid in zip(ns, grids)],
        [BoundaryTrace.constant(0.0)] * 5, [0.0, 0.1], 2e-5,
        [f"n={n:g}" for n in ns[:4]] + ["n=6 on r_out=13.5"],
    )


def test_theorem_c_family_solver_work_budget(theorem_c_family):
    # the theorem-c family, 1,985 nodes, over [0, 0.1]: 5,009 steps.
    # Started from w_m, its costliest run took 5.24 sweeps and 1.86 Newton
    # solves per step; from the linear extrapolation of the last two steps,
    # 2.13 and 1.35; from the cubic one, 1.94 and 0.78.
    family = theorem_c_family
    narrow = family.fields[0].grid
    assert all(fld.steps == 5009 for fld in family.fields)
    assert max(fld.warm_start_sweeps for fld in family.fields) / 5009 < 3.0
    assert max(fld.newton_solves for fld in family.fields) / 5009 < 1.0
    # the zero boundary at r_out = 9 stands in for the whole space: on
    # r <= 4.5 the n = 6 run agrees with its twin on the wider domain
    six, six_wide = family.fields[3:]
    inner = narrow.radii <= 4.5 + 1e-12
    diff = six_wide.values[:, : len(narrow.radii)][:, inner] - six.values[:, inner]
    assert np.max(np.abs(diff)) < discretization_tolerance(0.025, 2e-5)


# ----------------------------------------------------------------------
# the step in u = e^w - 1 below the switch
# ----------------------------------------------------------------------


def _w_path_only(monkeypatch):
    """Every step on the w path: the switch at -inf, and a u warm start that
    fails the test if a step reaches it anyway."""
    monkeypatch.setattr(evolution, "_U_SWITCH", -math.inf)

    def unreachable(*args):
        raise AssertionError("a step took the u path with the switch at -inf")

    monkeypatch.setattr(evolution, "_u_warm_start", unreachable)


def _theorem_c_fields():
    return run_scheme_A4(LOG15, QUARTIC, [3.0, 4.0, 5.0, 6.0], 9.0, [0.0, 0.1],
                         h=0.025, dt_max=2e-5).fields


def _mixed_fields():
    return _family(_mixed_family(), [0.0, 0.01, 0.02]).fields


@pytest.mark.parametrize("family, u_steps", [(_mixed_fields, 44), (_theorem_c_fields, 2021)],
                         ids=["mixed", "theorem-c"])
def test_u_path_agrees_with_w_path(monkeypatch, request, family, u_steps):
    # below the switch a step sweeps, checks its residual and runs Newton in
    # u: the same Jacobi fixed point and the same scaled residual as in w,
    # rounded otherwise, and Newton in u, whose iterates the w path takes in
    # scaled variables, so both take the same Newton solves and iteration
    # maxima.  The mixed family (w <= 78) is below the
    # switch at every one of its 44 steps, the theorem-c family over
    # [0, 0.1] from step 2,988 on.  Against the w path alone the fields
    # agree within 1e-9 in w, and every run's sweeps are equal.  A sweep
    # count may move by a rounding edge (a sweep's |dw| within rounding of
    # 1e-3 falling on the other side); each such edge moves it by one or
    # two, and none occurred when this was written, so at most two are
    # allowed.  The theorem-c family's u-path runs are the module's, not a
    # second A4 run.
    if family is _theorem_c_fields:
        fields = request.getfixturevalue("theorem_c_family").fields[:4]
    else:
        fields = family()
    with monkeypatch.context() as patch:
        _w_path_only(patch)
        w_fields = family()
    for u_fld, w_fld in zip(fields, w_fields):
        assert np.max(np.abs(u_fld.values - w_fld.values)) < 1e-9
        assert abs(u_fld.warm_start_sweeps - w_fld.warm_start_sweeps) <= 2
        assert u_fld.newton_solves == w_fld.newton_solves
        assert u_fld.newton_iterations_max == w_fld.newton_iterations_max
        assert (u_fld.u_steps, w_fld.u_steps) == (u_steps, 0)
        assert u_fld.worst_residual < evolution._NEWTON_TOL
    assert evolution._solver_work(fields)["u_steps"] == u_steps
    assert evolution._solver_work(w_fields)["u_steps"] == 0


def test_overflow_guard_keeps_power_law_steps_in_w(controls):
    # h(s) = s^2 near w = 300, below the switch: one step of dt = 1e-82 from
    # zero data to a boundary at w = 300 makes u·dt·h(u) at the cap e^711,
    # beyond double range, so the step stays in w, bitwise as with the
    # switch at -inf.  At a boundary of w = 240 it is e^531 and the step is
    # taken in u.  The coarse grid (h = 10^4) keeps the step next to the
    # boundary mild enough for the w path.
    spec = Nonlinearity.power(3.0)
    controls(dt_init=1e-82)

    def run(w_bc, switch):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "_U_SWITCH", switch)
            return evolve(spec, uniform_grid(170000.0, 10000.0, 1), np.zeros(18),
                          BoundaryTrace.constant(w_bc), [0.0, 1e-82], 1e-82)

    guarded, w_only = run(300.0, evolution._U_SWITCH), run(300.0, -math.inf)
    assert guarded.u_steps == w_only.u_steps == 0
    assert guarded.values.tobytes() == w_only.values.tobytes()
    assert guarded.newton_solves == w_only.newton_solves > 0
    stepper = evolution._Stepper(spec, [uniform_grid(170000.0, 10000.0, 1)], ["g"])
    assert not evolution._u_path_fits(stepper, 300.0, 1e-82)
    taken, w_only = run(240.0, evolution._U_SWITCH), run(240.0, -math.inf)
    assert (taken.u_steps, w_only.u_steps) == (1, 0)
    assert np.max(np.abs(taken.values - w_only.values)) < 1e-12


def test_u_path_steps_take_no_w_form_residual(monkeypatch):
    # the mixed family is below the switch at every step, and its steps need
    # Newton: none of them evaluates the w-form residual
    calls = []
    monkeypatch.setattr(evolution, "_scaled_residual", lambda *args: calls.append(args))
    fields = _mixed_fields()
    assert calls == []
    assert all(f.u_steps == f.steps == 44 and f.newton_solves > 0 for f in fields)


def _u_newton_steps(monkeypatch, spec, runs, dt):
    """Each u-path step of one step of ``dt`` and one after it, as the
    iterates u_0, u_1, ... that Newton in u checks (u_0 the warm start's)
    and the corrections solved for at each, in order."""
    steps = []
    warm_start, residual = evolution._u_warm_start, evolution._u_residual
    solve = scipy.linalg.lapack.dgtsv

    def recorded_warm_start(*args):
        steps.append(([], []))
        return warm_start(*args)

    def recorded_residual(stepper, x, *rest):
        steps[-1][0].append(x[1].copy())
        return residual(stepper, x, *rest)

    def recorded_solve(*args):
        out = solve(*args)
        steps[-1][1].append(out[3].copy())
        return out

    monkeypatch.setattr(evolution, "_DT_INIT", dt)
    monkeypatch.setattr(evolution, "_u_warm_start", recorded_warm_start)
    monkeypatch.setattr(evolution, "_u_residual", recorded_residual)
    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", recorded_solve)
    grids, w0, bcs, tags = zip(*runs)
    evolve(spec, grids, w0, bcs, [0.0, dt, 2.0 * dt], dt, tags)
    return steps


@pytest.mark.parametrize("spec, dt, solves", [(LOG15, 1.0, 3), (Nonlinearity.power(3.0), 10.0, 7)],
                         ids=["log_power", "power"])
def test_u_newton_iterates_decrease_after_the_first(monkeypatch, spec, dt, solves):
    # u h(u) is convex for both laws, so from the first iterate on every
    # Newton iterate in u is a supersolution and the iterates decrease
    # (Newton-Baluev).  On families of large steps over data cliffs: no
    # correction after the first moves a node up by more than 1e-12 (1+u),
    # and no iterate goes negative before its clip to [0, u_cap]
    if spec.family == "log_power":
        runs = [
            make_run(9.0, 0.05, cut(4.0), BoundaryTrace.constant(0.0), "cliff to w = 512"),
            make_run(3.0, 0.1, cut(1.0), BoundaryTrace.constant(0.0), "cliff to w = 2"),
        ]
    else:
        def gamma(r):
            return 0.5 * r**2
        runs = [
            make_run(4.0, 0.05, cut(3.0, gamma), BoundaryTrace.constant(0.0), "cliff to w = 4.5"),
            make_run(2.0, 0.05, cut(1.0, gamma), BoundaryTrace.constant(0.5), "raised boundary"),
        ]
    steps = _u_newton_steps(monkeypatch, spec, runs, dt)
    assert len(steps) == 2
    assert max(len(corrections) for _, corrections in steps) >= solves
    checked = 0
    for iterates, corrections in steps:
        for u, next_u, delta in zip(iterates[1:], iterates[2:], corrections[1:]):
            moved = next_u != u  # the nodes of the runs still iterating
            assert np.all(delta[moved] <= 1e-12 * (1.0 + u[moved]))
            assert np.all(u[moved] + delta[moved] >= 0.0)
            checked += 1
    assert checked >= solves - 1


def test_power_law_newton_failure_names_its_step_and_run():
    # zero data under a boundary at w = 230 with h(u) = u^2: the family's cap
    # fits the u path.  From the flooded warm start Newton in u removes only
    # part of the excess per iterate, so it misses _NEWTON_TOL within
    # _NEWTON_MAX iterations and raises a typed error naming the step and
    # the run (the w path raised OverflowGuardError with no step here)
    with pytest.raises(NewtonDivergenceError, match="time step 0 in run 'evolve'") as info:
        evolve(Nonlinearity.power(3.0), uniform_grid(1.0, 0.05, 1), np.zeros(21),
               BoundaryTrace.constant(230.0), [0.0, 1e-5], 1e-6)
    assert info.value.step_index == 0
    assert f"within {evolution._NEWTON_MAX} iterations" in str(info.value)


def test_u_path_step_hands_on_only_its_w(monkeypatch):
    # the u-path twin of test_reused_stepper_gives_the_same_step_bitwise, on
    # steps whose runs settle at the warm start's check and steps that need
    # Newton in u.  A u-path step hands the next one no u: that step takes
    # its u_m as expm1(w_m).  At every step of a two-run family over
    # [0, 0.01] at dt_max = 2e-5, a fresh stepper takes bitwise the reused
    # stepper's step, with the same work.
    dt_max, times = 2e-5, [0.0, 0.005, 0.01]
    runs = [
        make_run(2.0, 0.05, cut(1.0), BoundaryTrace.constant(0.0), "truncated"),
        make_run(2.0, 0.05, smooth, BoundaryTrace.constant(0.7), "smooth"),
    ]
    grids, w0, bcs, tags = zip(*runs)
    step, solving_runs = evolution._step, []

    def checked(stepper, wm, x0, w_bc, dt, k, predicted):
        fresh = evolution._Stepper(LOG15, grids, tags)
        want = step(fresh, wm, x0, w_bc, dt, k, predicted)
        before = stepper.sweeps.copy(), stepper.solves.copy()
        got = step(stepper, wm, x0, w_bc, dt, k, predicted)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(stepper.sweeps - before[0], fresh.sweeps)
        assert np.array_equal(stepper.solves - before[1], fresh.solves)
        solving_runs.append(int(np.count_nonzero(fresh.solves)))
        return got

    monkeypatch.setattr(evolution, "_step", checked)
    family = evolve(LOG15, grids, w0, bcs, times, dt_max, tags)
    assert family.fields[0].u_steps == len(solving_runs) == family.fields[0].steps
    # most steps settle both runs at the check; some need Newton in u
    assert solving_runs.count(0) > len(solving_runs) / 2 and max(solving_runs) > 0


# ----------------------------------------------------------------------
# scheme drivers
# ----------------------------------------------------------------------


def test_truncation_family_is_exactly_monotone():
    g = GrowthFunction(gamma=smooth, beta=None, K=None)
    times = [0.0, 0.01, 0.02]
    seq = run_scheme_A4(LOG15, g, [0.4, 0.7], 1.0, times, h=0.05)
    assert seq.monotone_violation <= 1e-12
    assert seq.limit.scheme_tag == "truncated n=0.7"
    # the boundary barely reaches r <= 0.5: a domain 1.5x wider agrees there
    wide = run_scheme_A4(LOG15, g, [0.4, 0.7], 1.5, times, h=0.05)
    inner = seq.limit.grid.radii <= 0.5 + 1e-12
    diff = wide.limit.values[:, : len(inner)][:, inner] - seq.limit.values[:, inner]
    assert np.max(np.abs(diff)) < 1e-3


def test_truncation_radii_must_fit_domain():
    g = GrowthFunction(gamma=lambda r: np.full_like(r, 1.0), beta=None, K=None)
    with pytest.raises(PreconditionError):
        run_scheme_A4(LOG15, g, [1.0, 2.0], 1.5, [0.0, 0.01])


def test_capped_family_policies():
    low = GrowthFunction(gamma=lambda r: np.full_like(r, 0.05), beta=None, K=None)
    with pytest.raises(DominationError):
        run_scheme_A8(LOG15, low, [2.0], [4.0], [0.0, 0.01], h=0.05,
                      domination="require")
    (seq,) = run_scheme_A8(LOG15, low, [2.0], [4.0], [0.0, 0.01], h=0.05,
                           domination="warn")
    assert "domination_warning" in seq.diagnostics
    (seq2,) = run_scheme_A8(LOG15, QUARTIC, [2.0], [4.0], [0.0, 0.01], h=0.05,
                            domination="require")
    assert seq2.diagnostics["domination_radius"] == pytest.approx(0.918, abs=1e-3)
    # the check is always made: there is no policy that skips it
    with pytest.raises(DomainError, match="warn or require"):
        run_scheme_A8(LOG15, QUARTIC, [2.0], [4.0], [0.0, 0.01], h=0.05, domination="skip")


def test_truncated_data_keeps_the_node_at_n_and_zeroes_beyond():
    # the t = 0 row of each A4 run: the truncation is inclusive, so the node
    # at r = n keeps the data, and every node beyond it is zero.  The node
    # of n = 0.7 lies at 0.7000000000000001, a rounding above n
    seq = run_scheme_A4(LOG15, QUARTIC, [0.5, 0.7], 1.0, [0.0, 0.01], h=0.05)
    for n, node, fld in zip([0.5, 0.7], [10, 14], seq.fields):
        w0, r = fld.values[0], fld.grid.radii
        assert r[node] == pytest.approx(n, rel=1e-15)
        assert w0[0] == 0.0
        np.testing.assert_array_equal(w0[: node + 1], QUARTIC.gamma(r[: node + 1]))
        assert w0[node] == pytest.approx(2.0 * n**4, rel=1e-14)
        assert np.all(w0[node + 1:] == 0.0)


def test_capped_data_is_the_lower_of_profile_and_growth():
    # the t = 0 row of each A8 run is min(V_a, gamma) on its ball, with the
    # boundary node at the profile's edge value V_a(n); gamma crosses V_2 at
    # r = 0.918, so both branches of the minimum appear on the larger ball
    a_list, n_list, h = [2.0, 4.0], [1.0, 1.5], 0.05
    seqs = run_scheme_A8(LOG15, QUARTIC, a_list, n_list, [0.0, 0.01], h=h)
    for a, seq in zip(a_list, seqs):
        shot = shoot_profile(LOG15, a, 1, n_list[-1], grid=uniform_grid(n_list[-1], h, 1).radii)
        for fld in seq.fields:
            r = fld.grid.radii
            profile = shot.w_values[: len(r)]
            want = np.minimum(profile, QUARTIC.gamma(r))
            np.testing.assert_array_equal(fld.values[0, :-1], want[:-1])
            assert fld.values[0, -1] == profile[-1]
    capped = seqs[0].fields[-1].values[0]
    assert np.any(capped[:-1] < QUARTIC.gamma(seqs[0].fields[-1].grid.radii[:-1]))
    assert np.any(capped[1:-1] == QUARTIC.gamma(seqs[0].fields[-1].grid.radii[1:-1]))


def _counted_evolve(monkeypatch, fail=False, results=None):
    """Wraps ``evolution.evolve`` for one test; returns its list of calls,
    and appends what each call returns to ``results`` if given.  With
    ``fail`` set, a call raises instead of stepping."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if fail:
            raise AssertionError("evolve called")
        out = evolve(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    monkeypatch.setattr(evolution, "evolve", counted)
    return calls


def test_capped_runs_step_as_one_family(monkeypatch):
    # every height's run on every ball is one evolve family.  Both heights
    # stay far below the u/w switch, so each run takes the u path on every
    # step, batched or alone, and is bitwise its solo run
    a_list, n_list, times, h = [4.0, 2.0], [2.0, 3.0], [0.0, 0.01, 0.02], 0.05
    solo = []
    for a in a_list:
        runs = []
        _, balls = evolution._profile_balls(LOG15, a, n_list, h)
        for n, (grid, prof, bc) in zip(n_list, balls):
            runs.append(evolve(LOG15, grid, np.minimum(prof, QUARTIC.gamma(grid.radii)), bc, times,
                               scheme_tag=f"capped a={a:g} n={n:g}"))
        solo.append(runs)
    calls = _counted_evolve(monkeypatch)
    seqs = run_scheme_A8(LOG15, QUARTIC, a_list, n_list, times, h=h)
    assert len(calls) == 1  # not one per ball or per run
    assert len(seqs) == len(a_list)
    for runs, seq in zip(solo, seqs):
        assert [f.scheme_tag for f in seq.fields] == [f.scheme_tag for f in runs]
        for one, many in zip(runs, seq.fields):
            assert np.array_equal(one.values, many.values)
            assert one.u_steps == many.u_steps == many.steps
            for key in ("warm_start_sweeps", "newton_solves", "newton_iterations_max",
                        "worst_residual"):
                assert getattr(one, key) == getattr(many, key), key
        assert evolution._solver_work(seq.fields) == evolution._solver_work(runs)


def test_capped_runs_straddling_the_u_switch_agree_with_per_ball_families(monkeypatch):
    # the joint cap sets the u/w path.  Ball 15's edge values (397 and 472
    # for heights 2 and 4) lie below _U_SWITCH and ball 18's (739 and 857)
    # above it, so ball 15 stepped as its own family takes the u path on
    # every step and in the joint family the w path.  Its runs then agree
    # with the per-ball family to the solve tolerance only (measured gap
    # 4.6e-13 in w), while ball 18's take their own path and stay bitwise.
    # At this coarse h the discrete runs flood from the boundary past the
    # profile and break the ordering in n by about 300 in w, so the check's
    # guard is switched off: this test is about the path, not the limit
    a_list, n_list, times, h, dt_max = [4.0, 2.0], [15.0, 18.0], [0.0, 0.001], 0.25, 1e-3
    heights = [evolution._profile_balls(LOG15, a, n_list, h)[1] for a in a_list]
    per_ball = []
    for k, n in enumerate(n_list):
        grids, caps, bcs = zip(*(balls[k] for balls in heights))
        w0 = [np.minimum(cap, QUARTIC.gamma(grid.radii)) for grid, cap in zip(grids, caps)]
        assert (max(cap[-1] for cap in caps) < evolution._U_SWITCH) == (k == 0)
        tags = [f"capped a={a:g} n={n:g}" for a in a_list]
        per_ball.append(evolve(LOG15, grids, w0, bcs, times, dt_max, tags).fields)
    calls = _counted_evolve(monkeypatch)
    seqs = run_scheme_A8(LOG15, QUARTIC, a_list, n_list, times, h=h, dt_max=dt_max, tol=math.inf)
    assert len(calls) == 1
    tol = discretization_tolerance(h, dt_max)
    for i, seq in enumerate(seqs):
        small, large = seq.fields
        alone_small, alone_large = per_ball[0][i], per_ball[1][i]
        assert alone_small.u_steps == alone_small.steps == small.steps
        assert small.u_steps < small.steps
        assert 0.0 < np.max(np.abs(small.values - alone_small.values)) <= tol
        assert np.array_equal(large.values, alone_large.values)
        assert large.u_steps == alone_large.u_steps == 0


def test_non_uniqueness_steps_its_drivers_as_one_family(monkeypatch, tmp_path):
    # the scenario steps A4's truncated runs and A8.1's sandwich runs in one
    # evolve call.  A4's data stay below the upper sandwich boundary V_2(4),
    # so the family's cap is the sandwich runs' own, and it stays below the
    # u/w switch: every run is bitwise its run from the driver called alone.
    # The witness growth is sampled once per distinct grid: A4's 91 nodes on
    # [0, 4.5] and the two balls' 61 and 81 nodes
    config = parse_config(
        "non-uniqueness", "n_list = 3, 4\nr_out = 4.5\nh = 0.05\nt_final = 2\ndt_max = 0.02\n"
    )
    times, n_list, h, dt_max = [0.0, 1.0, 2.0], [3.0, 4.0], 0.05, 0.02
    prof_mid = shoot_profile(LOG15, 1.5, 1, 4.5)
    g = GrowthFunction(gamma=lambda r: prof_mid.sample(np.minimum(r, 4.5))[0], beta=None, K=None)
    a4 = run_scheme_A4(LOG15, g, n_list, 4.5, times, h=h, dt_max=dt_max)
    lower, upper = run_scheme_A8_1(LOG15, g, 1.0, 2.0, n_list, times, h=h, dt_max=dt_max, tol=1.0)
    solo = [*a4.fields, *lower.fields, *upper.fields]

    results, sampled = [], []
    calls = _counted_evolve(monkeypatch, results=results)
    real_sample = RadialProfile.sample

    def counted_sample(self, radii):
        if np.ndim(radii):
            sampled.append(len(radii))
        return real_sample(self, radii)

    monkeypatch.setattr(RadialProfile, "sample", counted_sample)
    man = run_non_uniqueness(config, tmp_path)
    assert len(calls) == 1
    assert sorted(sampled) == [61, 81, 91]
    joint = results[0].fields
    assert [f.scheme_tag for f in joint] == [f.scheme_tag for f in solo]
    counters = [f.name for f in dataclasses.fields(EvolutionField)
                if f.name not in ("times", "grid", "values", "scheme_tag")]
    for one, many in zip(solo, joint):
        assert np.array_equal(one.values, many.values)
        assert np.array_equal(one.grid.radii, many.grid.radii)
        assert one.u_steps == many.u_steps == many.steps
        for key in counters:
            assert getattr(one, key) == getattr(many, key), key
    assert man.notes["solver_work"] == evolution._solver_work(solo)
    assert man.notes["lower_family_violation"] == lower.monotone_violation
    assert man.notes["upper_family_violation"] == upper.monotone_violation


def test_capped_balls_share_one_shoot_per_height(monkeypatch):
    # A8 shoots each height's profile once, on the largest ball; the
    # domination check samples that shot, and every smaller ball gets the
    # shot's first nodes.  The oracle shoots each ball's profile on that
    # ball's own grid and steps the same capped run alone; the two routes
    # agree within 1e-9 in w at every output time, the capped data and the
    # boundary column included, and so do the domination radii.  The ball
    # radii need not be multiples of each other.
    a_list, n_list, times, h = [4.0, 2.0], [2.0, 2.65, 3.0], [0.0, 0.01, 0.02], 0.05
    shots = []
    for module in (evolution, threshold):
        monkeypatch.setattr(module, "shoot_profile",
                            lambda *args, **kw: shots.append(args) or shoot_profile(*args, **kw))
    seqs = run_scheme_A8(LOG15, QUARTIC, a_list, n_list, times, h=h)
    assert [args[1] for args in shots] == a_list
    for a, seq in zip(a_list, seqs):
        want = domination_radius(QUARTIC, LOG15, a, 1, n_list[-1])
        assert abs(seq.diagnostics["domination_radius"] - want) < 1e-9
        for n, fld in zip(n_list, seq.fields):
            grid = uniform_grid(n, h, 1)
            prof = shoot_profile(LOG15, a, 1, n, grid=grid.radii)
            bc = BoundaryTrace.constant(float(prof.w_values[-1]))
            w0 = np.minimum(prof.w_values, QUARTIC.gamma(grid.radii))
            oracle = evolve(LOG15, grid, w0, bc, times)
            assert np.max(np.abs(fld.values - oracle.values)) < 1e-9


def test_capped_scheme_checks_every_height_before_stepping(monkeypatch):
    # height 2 dominates from r = 0.918, height 8 only from r = 1.174, past
    # the smallest ball
    times = [0.0, 0.01]
    with monkeypatch.context() as patch:
        _counted_evolve(patch, fail=True)
        with pytest.raises(DominationError, match="1.17"):
            run_scheme_A8(LOG15, QUARTIC, [2.0, 8.0], [1.0, 2.0], times, h=0.05,
                          domination="require")
        for a_list, n_list in (([], [1.0, 2.0]), ([2.0], [])):
            with pytest.raises(PreconditionError):
                run_scheme_A8(LOG15, QUARTIC, a_list, n_list, times, h=0.05)
    low, high = run_scheme_A8(LOG15, QUARTIC, [2.0, 8.0], [1.0, 2.0], times, h=0.05)
    assert "domination_warning" not in low.diagnostics
    assert "1.17" in high.diagnostics["domination_warning"]


@pytest.mark.parametrize("run", [
    lambda times: run_scheme_A4(LOG15, QUARTIC, [], 9.0, times),
    lambda times: run_scheme_A8(LOG15, QUARTIC, [2.0], [], times),
    lambda times: run_scheme_A8_1(LOG15, QUARTIC, 1.0, 2.0, [], times),
], ids=["A4", "A8", "A8_1"])
def test_drivers_reject_empty_ball_lists(monkeypatch, run):
    # A4 and A8.1 used to reach n_list[-1] and raise a bare IndexError; every
    # driver refuses an empty ball list before it shoots or steps anything
    _counted_evolve(monkeypatch, fail=True)
    with pytest.raises(PreconditionError, match="needs"):
        run([0.0, 0.01])


def test_sandwich_scheme_orders_families():
    mid = shoot_profile(LOG15, 1.5, 1, 3.0)
    g = GrowthFunction(gamma=lambda r: mid.sample(np.minimum(r, 3.0))[0], beta=None, K=None)
    lower, upper = run_scheme_A8_1(LOG15, g, 1.0, 2.0, [2.0, 3.0], [0.0, 0.05, 0.1], h=0.05)
    assert lower.monotone_violation <= 1e-9
    assert upper.monotone_violation <= 1e-9
    # lower boundary heights sit below upper ones, so the limits order
    n_common = len(lower.fields[0].grid.radii)
    assert np.max(lower.limit.values[:, :n_common]
                  - upper.limit.values[:, :n_common]) <= 1e-9


def test_sandwich_scheme_rejects_unsandwiched_data():
    g = GrowthFunction(gamma=lambda r: np.full_like(r, 10.0), beta=None, K=None)
    with pytest.raises(PreconditionError):
        run_scheme_A8_1(LOG15, g, 1.0, 2.0, [2.0, 3.0], [0.0, 0.05], h=0.05)
    with pytest.raises(PreconditionError):
        run_scheme_A8_1(LOG15, g, 2.0, 1.0, [2.0, 3.0], [0.0, 0.05], h=0.05)


def _ramp_fields(heights, n_nodes=(20, 24)):
    """Hand-built runs on growing balls: run k is the constant heights[k]."""
    times = np.array([0.0, 0.1])
    out = []
    for w, nodes in zip(heights, n_nodes):
        grid = uniform_grid(0.05 * (nodes - 1), 0.05, 1)
        out.append(EvolutionField(
            times=times, grid=grid, values=np.full((2, nodes), w), scheme_tag=f"w={w:g}",
        ))
    return out


@pytest.mark.parametrize("increasing", [True, False])
def test_ordering_guard_threshold(increasing):
    tol = 0.0625  # binary fractions keep every difference exact

    def pair(excess):
        # a wrong-direction step of ``excess`` from the first run to the second
        lo, hi = 1.0, 1.0 + excess
        return _ramp_fields([hi, lo] if increasing else [lo, hi])

    fields = pair(10.0 * tol)
    seq = _ordered_sequence(fields, increasing, tol, "test")
    assert seq.monotone_violation == 10.0 * tol
    assert seq.limit is fields[-1]
    assert seq.diagnostics == {}
    with pytest.raises(MonotonicityError) as info:
        _ordered_sequence(pair(10.0 * tol + 0.125), increasing, tol, "test")
    assert info.value.violation == 10.0 * tol + 0.125
    # a step in the right direction has a negative violation
    seq = _ordered_sequence(pair(-1.0), increasing, tol, "test")
    assert seq.monotone_violation == -1.0


def test_monotonicity_error_carries_violation():
    err = MonotonicityError("broken ordering", 0.25)
    assert err.violation == 0.25
    nerr = NewtonDivergenceError("stalled", 7, 1e3)
    assert nerr.step_index == 7 and nerr.residual == 1e3


def test_discretization_tolerance_combines_orders():
    assert discretization_tolerance(0.05, 1e-3) == pytest.approx(0.05**2 + 1e-3)
