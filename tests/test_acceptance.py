"""Acceptance suite: one test per numbered criterion, one verdict line each.

Every test prints ``ACCEPTANCE n: PASS/FAIL — ...`` with its measured
numbers before asserting, so a red run still reports what was observed.
Two criteria are currently red; the README gives the measurements:

* 7  — program fault.  The capped-data family is not decreasing in the
       ball radius at the h^2 margin (violations 0.066, 0.140, 0.234 for
       a = 2, 4, 8 at r = 4, t = 0.5).  The ordering argument needs the cap
       V_a to be a discrete supersolution; the continuum profile is not one
       (held as data and boundary on [0, 6] it drifts 0.019-0.078 by
       t = 0.5).  The center floor and monotonicity-in-a clauses pass,
       but the six center floors pass vacuously at the default t_checks:
       Phi_inf is 6.2e27 at t = 0.25 and 8.9e6 at t = 0.5, so every floor
       a - Phi_inf - 0.05 a lies below -8.9e6 while u >= 0.  They bind
       only from t ~ 1.39, 1.67 and 2.14 for a = 8, 4 and 2.
* 8  — test fault.  The 5% gap to the flat envelope is asserted at n = 6,
       but the theorem gives the collapse only as n -> infinity; at n = 6
       the gap is 71.5%, mostly backward-Euler error that is first order in
       dt.  The gap does decrease in n and the field stays below the
       envelope, so only the 5% clause fails.

Criterion 4 measures the alpha = 1.5 growth law at r_max = 40: at
r_max = 10 (W = 43.6) the next-order terms of the profile equation still
shift any local exponent estimate by about 10%, beyond the 2% tolerance.

All tolerances are pinned here, not scaled; runtime budgets are asserted.
"""

import json
import math
import time

import numpy as np
import pytest
from mpmath import mp
from scipy.optimize import minimize_scalar

from absorblab._quad import log_simpson
from absorblab.config import load_config
from absorblab.evolution import (
    BoundaryTrace,
    check_comparison,
    evolve,
    uniform_grid,
)
from absorblab.flat_ode import (
    osgood_tail_from_log,
    solve_phi,
    solve_phi_infinity,
    solve_phi_infinity_log,
)
from absorblab.nonlinearity import Nonlinearity, classify_conditions
from absorblab.profiles import apriori_bound, fit_asymptotics, shoot_profile
from absorblab.scenarios import run_non_uniqueness, run_theorem_b, run_theorem_c
from absorblab.threshold import (
    absorption_integral_bound,
    alpha2_report,
    erfc_complement,
    gaussian_tail_log_bound,
    leading_form_remainder,
    tail_exponent,
    tail_exponent_maximizer,
)

LOG15 = Nonlinearity.log_power(1.5)


def _verdict(num: int, clauses: dict, budget: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    clauses[f"runtime<{budget:g}s"] = elapsed < budget
    ok = all(clauses.values())
    failed = [k for k, v in clauses.items() if not v]
    detail = f"all {len(clauses)} clauses hold" if ok else f"failed: {failed}"
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail} "
          f"({elapsed:.1f}s)")
    assert ok, detail


def test_acceptance_01_condition_classification():
    t0 = time.perf_counter()
    clauses = {}
    for alpha in (1.2, 1.5, 1.9, 2.5, 3.0):
        rep = classify_conditions(Nonlinearity.log_power(alpha))
        clauses[f"osgood(alpha={alpha:g})"] = rep.osgood is (alpha > 1.0)
        clauses[f"barrier(alpha={alpha:g})"] = (
            rep.keller_osserman is (alpha > 2.0)
        )
    _verdict(1, clauses, budget=5.0, t0=t0)


def test_acceptance_02_flat_ode_closed_form():
    t0 = time.perf_counter()
    spec = Nonlinearity.power(2.0)
    times = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for a in (0.5, 1.0, 10.0):
        traj = solve_phi(spec, a, times)
        exact = a / (1.0 + a * times)
        worst = max(worst, float(np.max(np.abs(traj.values / exact - 1.0))))
    worst_inf = max(
        abs(solve_phi_infinity(spec, t) * t - 1.0)
        for t in (0.1, 0.25, 0.5, 1.0)
    )
    print(f"  trajectory rel err {worst:.2e}, infinite-data rel err "
          f"{worst_inf:.2e}")
    clauses = {"trajectories<=1e-8": worst <= 1e-8,
               "phi_infinity<=1e-8": worst_inf <= 1e-8}
    _verdict(2, clauses, budget=1.0, t0=t0)


def test_acceptance_03_lifetime_residual_of_infinite_data_solution():
    t0 = time.perf_counter()
    clauses = {}
    for t in (0.1, 0.5, 1.0):
        lam = solve_phi_infinity_log(LOG15, t)
        resid = abs(osgood_tail_from_log(LOG15, lam) - t)
        print(f"  t={t:g}: lifetime residual {resid:.2e} (allowed {1e-8 * t:.0e})")
        clauses[f"residual(t={t:g})"] = resid <= 1e-8 * t
    _verdict(3, clauses, budget=5.0, t0=t0)


def test_acceptance_04_profile_growth_law_fit():
    t0 = time.perf_counter()
    # the growth law holds as r -> infinity; W(40) = 1.0e4 puts the
    # next-order terms of the profile equation well below the tolerances
    fit = fit_asymptotics(shoot_profile(LOG15, 1.0, 3, 40.0), 1.5)
    fit2 = fit_asymptotics(shoot_profile(Nonlinearity.log_power(2.0), 1.0, 3, 10.0), 2.0)
    print(f"  alpha=1.5, r_max=40: exponent {fit.exponent_hat:.4f} (target 4 +-2%), "
          f"constant {fit.constant_hat:.5f} (target 0.00390625 +-10%)")
    print(f"  alpha=2:   ln-slope {fit2.exponent_hat:.4f} (target 1 +-5%)")
    clauses = {
        "exponent=4+-2%": abs(fit.exponent_hat - 4.0) <= 0.02 * 4.0,
        "constant=c_alpha+-10%": (
            abs(fit.constant_hat - 0.00390625) <= 0.10 * 0.00390625
        ),
        "alpha2_slope=1+-5%": abs(fit2.exponent_hat - 1.0) <= 0.05,
    }
    _verdict(4, clauses, budget=10.0, t0=t0)


def test_acceptance_05_apriori_bound_and_profile_ordering():
    t0 = time.perf_counter()
    profs = {a: shoot_profile(LOG15, a, 3, 4.0) for a in (1.0, 2.0)}
    clauses = {}
    for a, prof in profs.items():
        for R in (1.0, 2.0, 4.0):
            v_at = math.expm1(prof.w_at(R))
            bound = apriori_bound(LOG15, a, R)
            clauses[f"V_{a:g}({R:g})<=bound"] = v_at <= bound * (1.0 + 1e-9)
    gaps = profs[2.0].w_values - profs[1.0].w_values
    print(f"  nodewise ordering margin min {float(np.min(gaps)):.3e}")
    clauses["V_1<V_2_nodewise"] = bool(np.all(gaps > 0.0))
    _verdict(5, clauses, budget=10.0, t0=t0)


def test_acceptance_06_discrete_comparison_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    times = [0.0, 0.01, 0.02]
    worst = -np.inf
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        spec = Nonlinearity.log_power(float(rng.uniform(1.1, 1.9)))
        grid = uniform_grid(1.0, 0.05, dim)
        c0, c1, c2 = rng.uniform(0.2, 3.0, 3)
        b0, b1 = rng.uniform(0.0, 2.0, 2)
        r = grid.radii
        lo = c0 + c1 * r**2 / (1 + c2 * r)
        hi = lo + b0 + b1 * np.sin(3.0 * r) ** 2
        f_lo = evolve(spec, grid, lo, BoundaryTrace.constant(float(lo[-1])), times)
        f_hi = evolve(spec, grid, hi, BoundaryTrace.constant(float(hi[-1]) + 0.1), times)
        worst = max(worst, check_comparison(f_lo, f_hi))
    print(f"  worst ordering violation over 50 pairs: {worst:.2e}")
    clauses = {"violations<=1e-9": worst <= 1e-9}
    _verdict(6, clauses, budget=60.0, t0=t0)


def test_acceptance_07_capped_data_families(tmp_path):
    t0 = time.perf_counter()
    config = load_config("theorem-b", None)
    man = run_theorem_b(config, tmp_path)
    h2 = config["h"] ** 2
    for a in config["a_list"]:
        print(f"  a={a:g}: in-n violation {man.notes[f'in_n_violation_a={a:g}']:.4f} "
              f"(allowed {h2:g})")
    clauses = dict(man.checks)
    clauses["floor_tolerances_pinned"] = all(
        man.tolerances[k] == pytest.approx(0.05 * a)
        for a in config["a_list"]
        for k in man.tolerances
        if k.startswith(f"center_floor_a={a:g}_")
    )
    clauses["in_n_tolerance_pinned"] = all(
        man.tolerances[f"decreasing_in_n_a={a:g}"] == h2
        for a in config["a_list"]
    )
    _verdict(7, clauses, budget=300.0, t0=t0)


def test_acceptance_08_truncated_data_collapse(tmp_path):
    t0 = time.perf_counter()
    config = load_config("theorem-c", None)
    man = run_theorem_c(config, tmp_path)
    gaps = man.notes["relative_gaps"]
    print(f"  relative gaps along n={[int(n) for n in config['n_list']]}: "
          f"{[f'{g:.3f}' for g in gaps]} (final allowed 0.05)")
    print(f"  envelope margin {man.notes['envelope_margin']:.3e} (must be <= 0)")
    clauses = dict(man.checks)
    clauses["gap_tolerance_pinned"] = man.tolerances["final_gap_small"] == 0.05
    _verdict(8, clauses, budget=300.0, t0=t0)


def test_acceptance_09_non_uniqueness_witness(tmp_path):
    t0 = time.perf_counter()
    config = load_config("non-uniqueness", None)
    man = run_non_uniqueness(config, tmp_path)
    n = man.notes
    print(f"  flat limit {n['phi_inf']:.3f} vs truncated-limit sup {n['a4_sup']:.3f}; "
          f"profile {n['v_c_at_r_star']:.3f} at r*={n['r_star']:.3f} vs "
          f"lower-limit {n['lower_at_r_star']:.3f}")
    clauses = dict(man.checks)
    clauses["separation_positive"] = n["separation"] > 0.0
    _verdict(9, clauses, budget=300.0, t0=t0)


def test_acceptance_10_threshold_analytics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.0, 3.0))
        rn = float(rng.uniform(0.5, 20.0))
        gam = float(rng.uniform(1.0, 200.0))
        alpha = float(rng.uniform(1.1, 2.0))
        N = int(rng.integers(1, 4))
        t_star = tail_exponent_maximizer(x, rn, gam, alpha, N)
        res = minimize_scalar(
            lambda t: -tail_exponent(t, x, rn, gam, alpha, N),
            bracket=(t_star * 0.1, t_star, min(t_star * 10.0, 50.0)),
            method="golden", options={"xtol": 1e-12},
        )
        worst = max(worst, abs(t_star / float(res.x) - 1.0))
    nus = [abs(leading_form_remainder(0.0, rn, 2.0 * rn**4, 1.5, 1))
           for rn in (10.0, 20.0, 40.0, 80.0)]
    bs = [alpha2_report(0.0, r, math.exp(r), 1).B_at_t_star
          for r in (5.0, 10.0, 20.0, 40.0)]
    print(f"  maximizer vs golden-section worst rel err {worst:.2e}")
    print(f"  leading-form |nu| along r=10,20,40,80: "
          f"{['%.2e' % n for n in nus]}")
    print(f"  alpha=2 exponent along r=5..40: {['%.3g' % b for b in bs]}")
    clauses = {
        "maximizer<=1e-6": worst <= 1e-6,
        "leading_form_improves": all(b < a for a, b in zip(nus[:-1], nus[1:])),
        "alpha2_strictly_decreasing": all(b < a for a, b in zip(bs[:-1], bs[1:])),
    }
    _verdict(10, clauses, budget=10.0, t0=t0)


def test_acceptance_11_erfc_and_gaussian_tail():
    t0 = time.perf_counter()
    mp.dps = 30
    xs = np.arange(-6.0, 30.0 + 1e-9, 0.1)
    worst = max(abs(erfc_complement(float(x)) - float(mp.erfc(x))) for x in xs)
    rng = np.random.default_rng(3)
    worst_gap = -np.inf
    for _ in range(50):
        t = float(rng.uniform(0.05, 1.0))
        rn = float(rng.uniform(1.0, 6.0))
        x = float(rng.uniform(0.0, rn / 2.0))
        gam = float(rng.uniform(1.0, 6.0))
        om = absorption_integral_bound(gam, 1.5, min(t, 1.0)).crude
        jb = gaussian_tail_log_bound(t, x, rn, gam, om, 1)
        height = gam + math.log1p(-math.exp(-gam))

        def log_f(y):
            return -((x - y) ** 2) / (4.0 * t) + height

        half = 40.0 * math.sqrt(t) + rn + x
        li = np.logaddexp(log_simpson(log_f, rn, half, n=4001),
                          log_simpson(log_f, -half, -rn, n=4001))
        exact = -om - 0.5 * math.log(4.0 * math.pi * t) + float(li)
        worst_gap = max(worst_gap, jb.log_bound - exact)
    print(f"  erfc abs err {worst:.2e} on [-6, 30]; "
          f"tail bound minus exact outer integral, worst {worst_gap:.2e}")
    clauses = {"erfc<=1e-12": worst <= 1e-12,
               "bound_below_exact": worst_gap <= 1e-9}
    _verdict(11, clauses, budget=5.0, t0=t0)
