"""Scenario runners: compose the computational modules into experiments.

Each runner takes a resolved :class:`~absorblab.config.ExperimentConfig`,
writes plot-ready CSV artifacts into the output directory, and returns a
:class:`~absorblab.io.RunManifest` recording every check, tolerance and
file.  Runners are deterministic: identical configs give byte-identical
artifacts.  Each check is graded against its pinned bound, as written
here and recorded under ``tolerances``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import AbsorbLabError, ConfigError
from .evolution import (
    _plan_A4, _plan_A8_1, _solver_work, _step_plans, run_scheme_A4, run_scheme_A8,
)
from .flat_ode import solve_phi_infinity_log, solve_phi_levels_log
from .io import RunManifest, emit_csv, emit_manifest
from .nonlinearity import Nonlinearity, classify_conditions, log_u_from_w
from .profiles import apriori_bound, fit_asymptotics, shoot_profile
from .threshold import GrowthFunction, alpha2_report


def _spec_from(config: ExperimentConfig) -> Nonlinearity:
    if config.params.get("family", "log_power") == "log_power":
        return Nonlinearity.log_power(config["alpha"])
    return Nonlinearity.power(config["p"])


def _power_growth(K: float, beta: float) -> GrowthFunction:
    def gamma(r):
        # a growth beyond double range is inf, which evolve's data check
        # reports as a DomainError naming the run
        with np.errstate(over="ignore"):
            return K * r**beta

    return GrowthFunction(gamma=gamma, beta=beta, K=K)


def _field_rows(prefix: tuple, fld, times) -> list:
    """One CSV row ``[*prefix, t, r, w]`` per node and output time of a field."""
    return [
        [*prefix, float(t), float(r), float(w)]
        for i, t in enumerate(times)
        for r, w in zip(fld.grid.radii, fld.values[i])
    ]


def run_conditions(config, out_dir: Path) -> RunManifest:
    spec = _spec_from(config)
    report = classify_conditions(spec)
    man = RunManifest(config=config)
    # an analytic verdict fails only where the numerical cross-check reads
    # the opposite; None, inside the dead band, is no contradiction
    for name, analytic in (("osgood", report.osgood),
                           ("keller_osserman", report.keller_osserman)):
        numeric = report.confidence[f"{name}_numeric"]
        man.record_check(f"{name}_matches_analytic", numeric is None or numeric == analytic)
    man.record_file(
        emit_csv(
            out_dir / "conditions.csv",
            [
                "family", "alpha", "p", "full_decay_tail", "blowup_barrier_tail",
                "measured_tail_slope", "measured_barrier_slope",
            ],
            [[
                spec.family,
                spec.alpha if spec.alpha is not None else math.nan,
                spec.p if spec.p is not None else math.nan,
                report.osgood,
                report.keller_osserman,
                report.confidence["osgood_slope"],
                report.confidence["keller_osserman_slope"],
            ]],
        )
    )
    return man


def run_flat_ode(config, out_dir: Path) -> RunManifest:
    spec = _spec_from(config)
    times = np.linspace(0.0, config["t_max"], config["time_points"])
    a_list = config["a_list"]
    # every trajectory and the envelope in one inversion, before any file
    *levels, envelope = solve_phi_levels_log(
        spec, [math.log(a) for a in a_list] + [math.inf], times
    )
    man = RunManifest(config=config)
    rows = []
    closed_form_err = None
    monotone_ok = True
    for a, lam in zip(a_list, levels):
        values = np.exp(lam)
        for t, v in zip(times, values):
            rows.append([a, float(t), float(v)])
        # checked on the solved rows, so a bad row fails the check by name
        monotone_ok &= bool(np.all(np.diff(values) <= 0.0)) and bool(np.all(values > 0.0))
        if spec.family == "power" and spec.p == 2.0:
            exact = a / (1.0 + a * times)
            err = float(np.max(np.abs(values - exact) / exact))
            closed_form_err = max(closed_form_err or 0.0, err)
    man.record_check("trajectories_positive_decreasing", monotone_ok)
    if closed_form_err is not None:
        man.record_check("closed_form_match", closed_form_err <= 1e-8, 1e-8)
    man.record_file(emit_csv(out_dir / "flat_ode.csv", ["a", "t", "value"], rows))
    positive = times > 0.0
    env_rows = np.column_stack((times[positive], envelope[positive])).tolist()
    man.record_file(
        emit_csv(out_dir / "flat_envelope.csv", ["t", "log_value"], env_rows)
    )
    return man


def run_stationary(config, out_dir: Path) -> RunManifest:
    spec = _spec_from(config)
    N = config["dimension"]
    man = RunManifest(config=config)
    grid = np.linspace(0.0, config["r_max"], config["grid_points"])
    rows, bound_rows = [], []
    profiles = {}
    for a in config["a_list"]:
        prof = shoot_profile(spec, a, N, config["r_max"], grid=grid)
        profiles[a] = prof
        for r, w, dw in zip(prof.radii, prof.w_values, prof.dw_values):
            rows.append([a, float(r), float(w), float(dw)])
        if spec.family != "log_power":
            man.notes[f"fit_a={a:g}"] = {
                "skipped": "growth-law fit defined only for log-power laws with 1 < alpha <= 2"
            }
            continue
        try:
            fit = fit_asymptotics(prof, spec.alpha)
            man.notes[f"fit_a={a:g}"] = {
                "exponent_hat": fit.exponent_hat,
                "constant_hat": fit.constant_hat,
                "target_exponent": fit.target_exponent,
                "target_constant": fit.target_constant,
            }
        except AbsorbLabError as exc:  # informational only
            man.notes[f"fit_a={a:g}"] = {"error": str(exc)}
    ordered = True
    a_sorted = sorted(config["a_list"])
    for a1, a2 in zip(a_sorted[:-1], a_sorted[1:]):
        d = profiles[a1].w_values - profiles[a2].w_values
        ordered &= bool(np.max(d) < 0.0)
    man.record_check("profiles_ordered_in_center_height", ordered)
    bound_ok = True
    tol = 1e-9
    for a in config["a_list"]:
        for R in config["bound_radii"]:
            vbar = apriori_bound(spec, a, R)
            w_R = float(profiles[a].w_at(R))
            v_R = math.expm1(min(w_R, 690.0))
            bound_rows.append([a, R, v_R, vbar])
            bound_ok &= v_R <= vbar * (1.0 + tol)
    man.record_check("apriori_bound_dominates", bound_ok, tol)
    man.record_file(emit_csv(out_dir / "profiles.csv", ["a", "r", "w", "dw"], rows))
    man.record_file(
        emit_csv(out_dir / "bounds.csv", ["a", "R", "value", "upper_bound"], bound_rows)
    )
    return man


def run_theorem_b(config, out_dir: Path) -> RunManifest:
    spec = _spec_from(config)
    g = _power_growth(config["growth_constant"], config["growth_power"])
    times = [0.0, *config["t_checks"]]
    h = config["h"]
    man = RunManifest(config=config)
    rows = []
    centers = {}
    t_checks = config["t_checks"]
    lam = dict(zip(t_checks, solve_phi_infinity_log(spec, t_checks).tolist()))
    # tol here is only the runaway-scheme guard; the pass/fail threshold
    # for the ordering check is h^2 and lives in the manifest.
    seqs = run_scheme_A8(
        spec, g, config["a_list"], config["n_list"], times, h=h, dt_max=config["dt_max"],
        tol=1.0, domination=config["domination"],
    )
    for a, seq in zip(config["a_list"], seqs):
        man.notes[f"domination_a={a:g}"] = {
            k: v for k, v in seq.diagnostics.items() if k.startswith("domination")
        }
        man.notes[f"in_n_violation_a={a:g}"] = seq.monotone_violation
        man.record_check(f"decreasing_in_n_a={a:g}", seq.monotone_violation <= h * h, h * h)
        for n, fld in zip(config["n_list"], seq.fields):
            rows.extend(_field_rows((a, n), fld, times))
        limit = seq.limit
        for i, t in enumerate(times[1:], start=1):
            u0 = math.expm1(min(limit.values[i, 0], 690.0))
            centers.setdefault(t, {})[a] = u0
            floor = a - math.exp(min(lam[t], 690.0)) - 0.05 * a
            man.record_check(f"center_floor_a={a:g}_t={t:g}", u0 >= floor, 0.05 * a)
    t0 = config["t_checks"][0]
    a_sorted = sorted(config["a_list"])
    inc = all(
        centers[t0][a2] >= centers[t0][a1] - 1e-9
        for a1, a2 in zip(a_sorted[:-1], a_sorted[1:])
    )
    man.record_check("center_nondecreasing_in_a", inc, 1e-9)
    man.notes["solver_work"] = _solver_work([f for seq in seqs for f in seq.fields])
    man.record_file(emit_csv(out_dir / "theorem_b.csv", ["a", "n", "t", "r", "w"], rows))
    return man


def run_theorem_c(config, out_dir: Path) -> RunManifest:
    spec = _spec_from(config)
    g = _power_growth(config["growth_constant"], config["growth_power"])
    tf = config["t_final"]
    times = [0.0, tf / 4.0, tf / 2.0, tf]
    h = config["h"]
    man = RunManifest(config=config)
    seq = run_scheme_A4(
        spec, g, config["n_list"], config["r_out"], times, h=h, dt_max=config["dt_max"],
        dimension=config["dimension"],
    )
    lam = dict(zip(times[1:], solve_phi_infinity_log(spec, times[1:]).tolist()))
    rows = []
    mon = seq.limit.grid.radii <= config["monitor_radius"] + 1e-12
    rel_gaps = []
    for n, fld in zip(config["n_list"], seq.fields):
        rows.extend(_field_rows((n,), fld, times))
        # sup |u - Phi_inf| / Phi_inf over the monitor region, in logs so
        # an overshoot above the envelope is reported, never clamped
        d = log_u_from_w(fld.values[-1, mon]) - lam[tf]
        with np.errstate(over="ignore"):
            rel = float(np.max(np.abs(np.expm1(np.minimum(d, 690.0)))))
        if np.any(d > 690.0):
            rel = 1e300
        rel_gaps.append(rel)
    worst_env = -math.inf
    for fld in seq.fields:
        for i, t in enumerate(times):
            if t <= 0.0:
                continue
            bound_w = lam[t] + math.log1p((1.0 + h * h) * math.exp(-min(lam[t], 700.0)))
            worst_env = max(worst_env, float(np.max(fld.values[i])) - bound_w)
    envelope_ok = worst_env <= 0.0
    man.record_check("below_full_decay_envelope", envelope_ok, h * h)
    man.notes["envelope_margin"] = worst_env
    decreasing = all(g2 < g1 for g1, g2 in zip(rel_gaps[:-1], rel_gaps[1:]))
    man.record_check("gap_decreasing_in_n", decreasing)
    frac = config["gap_fraction"]
    man.record_check("final_gap_small", rel_gaps[-1] <= frac, frac)
    man.notes["relative_gaps"] = rel_gaps
    man.notes["solver_work"] = _solver_work(seq.fields)
    man.record_file(emit_csv(out_dir / "theorem_c.csv", ["n", "t", "r", "w"], rows))
    gap_rows = [[n, rel] for n, rel in zip(config["n_list"], rel_gaps)]
    man.record_file(emit_csv(out_dir / "gaps.csv", ["n", "relative_gap"], gap_rows))
    return man


def run_non_uniqueness(config, out_dir: Path) -> RunManifest:
    spec = _spec_from(config)
    h, dt_max = config["h"], config["dt_max"]
    tf = config["t_final"]
    times = [0.0, tf / 2.0, tf]
    man = RunManifest(config=config)
    r_big = max(config["r_out"], config["n_list"][-1])
    prof_mid = shoot_profile(spec, config["mid"], config["dimension"], r_big)
    g = GrowthFunction(
        gamma=lambda r: prof_mid.sample(np.minimum(r, r_big))[0],
        beta=2.0 / (2.0 - spec.alpha),
        K=0.0,
    )
    lam1 = solve_phi_infinity_log(spec, tf)
    phi_inf = math.exp(lam1)
    prof_c = shoot_profile(spec, config["c"], config["dimension"], config["n_list"][0])
    target_w = math.log1p(2.0 * phi_inf)
    if prof_c.w_values[-1] < target_w:
        raise ConfigError(
            "smallest ball cannot host the witness radius: profile too low; "
            "increase n_list or lower t_final"
        )
    r_star = prof_c.dense.crossing(target_w)
    v_c_star = math.expm1(float(prof_c.w_at(r_star)))

    # A4's and A8.1's runs step as one family.  A4's data stay at or below
    # max g <= V_b(max n), the largest upper sandwich run's boundary value,
    # so the family's cap is the sandwich runs' own at every step: they take
    # their own u/w path and are bitwise A8.1's runs, and so are A4's while
    # that cap is below the u/w switch, as it is at defaults.
    # tol=1.0: ordering drift of the sandwich families is reported below,
    # not fatal (only a log-unit runaway trips the scheme guard).
    a4, (lower, upper) = _step_plans(spec, [
        _plan_A4(g, config["n_list"], config["r_out"], h, dt_max, dimension=1),
        _plan_A8_1(spec, g, config["c"], config["b"], config["n_list"], h, dt_max, tol=1.0),
    ], times, dt_max)
    man.notes["lower_family_violation"] = lower.monotone_violation
    man.notes["upper_family_violation"] = upper.monotone_violation
    man.notes["solver_work"] = _solver_work([*a4.fields, *lower.fields, *upper.fields])

    a4_sup = math.expm1(min(float(np.max(a4.limit.values[-1])), 690.0))
    j_star = int(round(r_star / h))
    lower_val = math.expm1(min(float(lower.limit.values[-1, j_star]), 690.0))
    tol_a4 = 0.05 * phi_inf
    tol_lo = 0.05 * v_c_star
    man.record_check("minimal_limit_below_envelope", a4_sup <= phi_inf + tol_a4, tol_a4)
    man.record_check("lower_limit_attains_profile", lower_val >= v_c_star - tol_lo, tol_lo)
    separation = lower_val - a4_sup
    man.record_check(
        "witness_separation_positive",
        separation >= v_c_star - phi_inf - (tol_a4 + tol_lo),
    )
    man.notes.update(
        r_star=r_star, v_c_at_r_star=v_c_star, phi_inf=phi_inf,
        a4_sup=a4_sup, lower_at_r_star=lower_val, separation=separation,
    )
    rows = []
    for tag, seq in (("truncated", a4), ("profile-boundary-lower", lower)):
        for n, fld in zip(config["n_list"], seq.fields):
            rows.extend(_field_rows((tag, n), fld, times))
    man.record_file(
        emit_csv(out_dir / "witness.csv", ["scheme", "n", "t", "r", "w"], rows)
    )
    man.record_file(
        emit_csv(
            out_dir / "witness_summary.csv",
            ["quantity", "value"],
            [
                ["phi_inf", phi_inf],
                ["r_star", r_star],
                ["profile_at_r_star", v_c_star],
                ["minimal_limit_sup", a4_sup],
                ["lower_limit_at_r_star", lower_val],
                ["separation", separation],
            ],
        )
    )
    return man


def run_alpha2(config, out_dir: Path) -> RunManifest:
    man = RunManifest(config=config)
    N = config["dimension"]
    x = config["x_radius"]
    rows = []
    reports = []
    for r in config["r_list"]:
        rep = alpha2_report(x, float(r), math.exp(r), N)
        reports.append(rep)
        rows.append([rep.r_n, rep.gamma_rn, rep.t_star, rep.B_at_t_star, rep.nu_measured, rep.leading_form])
    decreasing = all(
        r2.B_at_t_star < r1.B_at_t_star for r1, r2 in zip(reports[:-1], reports[1:])
    )
    nu_shrinks = all(
        abs(r2.nu_measured) < abs(r1.nu_measured)
        for r1, r2 in zip(reports[:-1], reports[1:])
    )
    man.record_check("exponent_strictly_decreasing", decreasing)
    man.record_check("leading_form_remainder_shrinks", nu_shrinks)
    man.record_file(
        emit_csv(
            out_dir / "alpha2.csv",
            ["r_n", "gamma", "t_star", "exponent", "nu", "leading_form"],
            rows,
        )
    )
    return man


RUNNERS = {
    "conditions": run_conditions,
    "flat-ode": run_flat_ode,
    "stationary": run_stationary,
    "theorem-b": run_theorem_b,
    "theorem-c": run_theorem_c,
    "non-uniqueness": run_non_uniqueness,
    "alpha2": run_alpha2,
}


def run_scenario(config: ExperimentConfig, out_dir: str | Path) -> RunManifest:
    out = Path(out_dir)
    manifest = RUNNERS[config.scenario](config, out)
    emit_manifest(manifest, out)
    return manifest
