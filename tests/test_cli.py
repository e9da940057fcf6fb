"""Command-line behavior: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from absorblab import _quad, evolution, flat_ode, scenarios
from absorblab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from absorblab.flat_ode import osgood_tail_from_log
from absorblab.io import parse_csv
from absorblab.nonlinearity import Nonlinearity

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _manifest(out: Path) -> dict:
    """The run's manifest, parsed as strict JSON (no NaN or Infinity)."""
    return json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_conditions_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["conditions", "--out", str(out)]) == EXIT_OK
    assert "all" in capsys.readouterr().out
    doc = _manifest(out)
    assert doc["status"] == "pass"
    assert doc["scenario"] == "conditions"
    for name in doc["files"]:
        header, rows = parse_csv(out / name)
        assert header and rows


def test_conditions_check_fails_where_the_numeric_verdict_disagrees(
    tmp_path, monkeypatch, capsys
):
    # each analytic verdict is checked against the numerical tail
    # classification: the opposite verdict fails the check by name (exit 3,
    # manifest written), while None, inside the dead band, is no contradiction
    real = scenarios.classify_conditions
    names = ("osgood", "keller_osserman")
    for flip in names:
        def flipped(spec, flip=flip):
            report = real(spec)
            for name in names:
                analytic = getattr(report, name)
                report.confidence[f"{name}_numeric"] = not analytic if name == flip else None
            return report

        monkeypatch.setattr(scenarios, "classify_conditions", flipped)
        out = tmp_path / flip
        assert main(["conditions", "--out", str(out)]) == EXIT_NUMERICAL
        assert f"1 check(s) failed: {flip}_matches_analytic" in capsys.readouterr().err
        doc = _manifest(out)
        assert doc["status"] == "fail"
        assert doc["checks"] == {f"{name}_matches_analytic": name != flip for name in names}
        assert doc["files"] == ["conditions.csv"]


@pytest.mark.parametrize("scenario", ["alpha2", "non-uniqueness"])
def test_alpha2_is_deterministic_across_runs(tmp_path, scenario):
    # non-uniqueness drives both evolution drivers with batched families
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([scenario, "--out", str(out)]) == EXIT_OK
        _manifest(out)
        outs.append(b"".join(sorted(
            p.read_bytes() for p in out.iterdir() if p.is_file()
        )))
    assert outs[0] == outs[1]


def test_flat_ode_power_family_reports_closed_form(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("family = power\np = 2.0\na_list = 0.5, 1, 10\n")
    out = tmp_path / "run"
    assert main(["flat-ode", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = _manifest(out)
    assert doc["checks"]["closed_form_match"] is True


def _set_last_level(monkeypatch, last_value):
    """Make flat-ode's solver write last_value(levels) as its first row's
    last log-level."""
    solve = scenarios.solve_phi_levels_log

    def bad_row(spec, ln_tops, times):
        levels = solve(spec, ln_tops, times)
        levels[0, -1] = last_value(levels)
        return levels

    monkeypatch.setattr(scenarios, "solve_phi_levels_log", bad_row)


def test_flat_ode_rising_row_fails_its_check_by_name(tmp_path, monkeypatch):
    # a solved row that rises is a failed check with a manifest (exit 3),
    # not a raise: the check reads the rows the scenario writes
    _set_last_level(monkeypatch, lambda lam: lam[0, 0] + 1.0)
    out = tmp_path / "run"
    assert main(["flat-ode", "--out", str(out)]) == EXIT_NUMERICAL
    doc = _manifest(out)
    assert doc["status"] == "fail"
    assert doc["checks"] == {"trajectories_positive_decreasing": False}
    assert sorted(doc["files"]) == ["flat_envelope.csv", "flat_ode.csv"]


def test_failed_check_exits_3_and_writes_artifacts(tmp_path, monkeypatch, capsys):
    # at p = 2 one solved value 1e-6 relative off the closed form fails its
    # match, pinned at 1e-8: an honest failed check, exit 3 with artifacts
    _set_last_level(monkeypatch, lambda lam: lam[0, -1] + math.log1p(1e-6))
    cfg = tmp_path / "p.cfg"
    cfg.write_text("family = power\np = 2.0\n")
    out = tmp_path / "run"
    assert main(["flat-ode", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    assert "1 check(s) failed: closed_form_match" in capsys.readouterr().err
    doc = _manifest(out)
    assert doc["status"] == "fail"
    assert doc["checks"] == {"trajectories_positive_decreasing": True,
                             "closed_form_match": False}
    assert sorted(doc["files"]) == ["flat_envelope.csv", "flat_ode.csv"]


def test_flat_ode_at_defaults_within_budget(tmp_path):
    # log-power alpha = 1.5, 101 output times: 100 envelope levels
    out = tmp_path / "run"
    t0 = time.perf_counter()
    assert main(["flat-ode", "--out", str(out)]) == EXIT_OK
    wall = time.perf_counter() - t0
    _, rows = parse_csv(out / "flat_envelope.csv")
    env = [(float(t), float(lam)) for t, lam in rows]
    assert len(env) == 100
    assert all(b[1] < a[1] for a, b in zip(env[:-1], env[1:]))
    spec = Nonlinearity.log_power(1.5)
    for t, lam in env[::33]:
        assert abs(osgood_tail_from_log(spec, lam) - t) <= 1e-8 * t
    assert wall <= 5.0, f"flat-ode at defaults took {wall:.2f} s"


def test_flat_ode_at_defaults_quadrature_count(tmp_path, monkeypatch):
    # a wall-clock-free guard on the inversion cost: panel quadratures per
    # inverted time, table panels and residual panels alike, for 3 heights
    # and the envelope; and the integrand's nodes and calls, residuals and
    # Newton steps included
    panels = []
    real = _quad.gl_panels

    def counted(f, lo, hi, splits=4):
        panels.append(np.size(lo))
        return real(f, lo, hi, splits)

    h_nodes = []
    real_log_h = flat_ode.log_h_at_log

    def counted_log_h(spec, x):
        h_nodes.append(np.size(x))
        return real_log_h(spec, x)

    # the kernel is bound in _quad (for gl_panel_refined) and in flat_ode
    monkeypatch.setattr(_quad, "gl_panels", counted)
    monkeypatch.setattr(flat_ode, "gl_panels", counted)
    monkeypatch.setattr(flat_ode, "log_h_at_log", counted_log_h)
    out = tmp_path / "run"
    assert main(["flat-ode", "--out", str(out)]) == EXIT_OK
    _, rows = parse_csv(out / "flat_ode.csv")
    _, env = parse_csv(out / "flat_envelope.csv")
    inverted = sum(float(t) > 0.0 for _, t, _ in rows) + len(env)
    assert inverted == 400
    assert sum(panels) <= 8 * inverted, f"{sum(panels) / inverted:.1f} quadratures per time"
    # every time takes the Newton iterations of a one-time inversion, the
    # times of all tables (3 heights and the envelope) share each integrand
    # call, and the ascent's first four panels share one
    assert sum(h_nodes) <= 73_552
    assert len(h_nodes) <= 61


_CLI_MAIN = "import sys; from absorblab import cli; sys.exit(cli.main(sys.argv[1:]))"

_SCIPY_LOADED = """
import json, sys
from absorblab import cli
names = sys.argv[1::2]
codes = [cli.main([name, "--out", out]) for name, out in zip(names, sys.argv[2::2])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _scipy_loaded(tmp_path, *names) -> dict:
    """Exit codes of the scenarios at defaults, run in turn in a fresh
    interpreter (this process has imported scipy already), and the scipy
    modules they loaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [arg for name in names for arg in (name, str(tmp_path / name))]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_LOADED, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_free_scenarios_never_import_scipy(tmp_path):
    # scipy loads where it is called, and flat-ode, alpha2, conditions and
    # stationary call none of it
    result = _scipy_loaded(tmp_path, "flat-ode", "alpha2", "conditions", "stationary")
    assert result["codes"] == [EXIT_OK] * 4
    assert result["scipy"] == [], f"{len(result['scipy'])} scipy modules loaded"


def test_non_uniqueness_loads_no_scipy_optimize(tmp_path):
    # its witness radius is a crossing of the shoot's dense output, and its
    # scipy is the tridiagonal solve of scipy.linalg
    result = _scipy_loaded(tmp_path, "non-uniqueness")
    assert result["codes"] == [EXIT_OK]
    assert "scipy.linalg.lapack" in result["scipy"]
    assert not [m for m in result["scipy"] if m.startswith("scipy.optimize")]


def test_missing_scipy_is_not_a_numerical_failure(tmp_path, monkeypatch):
    # an install fault propagates; exit 3 stays for numerical failures.
    # non-uniqueness's one scipy import is the tridiagonal solver
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
    with pytest.raises(ImportError):
        main(["non-uniqueness", "--out", str(tmp_path / "run")])


def test_stationary_power_family_skips_growth_law_fit(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("family = power\np = 2\nr_max = 1\na_list = 0.1\nbound_radii = 0.5\n")
    out = tmp_path / "run"
    assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    note = _manifest(out)["notes"]["fit_a=0.1"]
    assert note == {
        "skipped": "growth-law fit defined only for log-power laws with 1 < alpha <= 2"
    }


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    out = tmp_path / "run"
    code = main(["conditions", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["conditions", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_tolerance_scale_is_no_option(tmp_path):
    # every check is graded against its pinned bound: argparse refuses a
    # scale before any work
    with pytest.raises(SystemExit) as exc:
        main(["conditions", "--tolerance-scale", "1", "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit"])
    assert exc.value.code == EXIT_CONFIG


def test_overflowing_growth_is_a_domain_error(tmp_path):
    # K r^40 overflows to inf inside the first truncation radius; the data
    # check names the run before Newton meets a NaN residual at step 0, and
    # it is the only report: a fresh interpreter prints numpy's warnings
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("growth_constant = 1e300\ngrowth_power = 40\n")
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_MAIN, "theorem-c", "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert "DomainError" in proc.stderr and "run 'truncated n=3'" in proc.stderr
    assert "NewtonDivergenceError" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert not (tmp_path / "run").exists()


def test_unsettled_envelope_leaves_no_partial_tree(tmp_path, capsys):
    # at alpha = 1.001 the envelope's tail panels shrink by about 2^-0.001
    # per doubling and cannot settle within the panel budget; flat-ode
    # solves every trajectory and the envelope before its first file
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("alpha = 1.001\n")
    out = tmp_path / "run"
    assert main(["flat-ode", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    assert "BracketError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r_last, code", [("348", EXIT_OK), ("350", EXIT_CONFIG), ("800", EXIT_CONFIG)])
def test_alpha2_radii_beyond_double_range_are_a_config_error(tmp_path, capsys, r_last, code):
    # past r = 348 (N = 1, x = 0) the maximizer's 4 N (r + x)^2 e^(2r)
    # leaves double range: r = 350 raised DomainError, r = 800 an
    # OverflowError, both as numerical failures
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(f"r_list = 5, {r_last}\n")
    out = tmp_path / "run"
    assert main(["alpha2", "--config", str(cfg), "--out", str(out)]) == code
    if code == EXIT_CONFIG:
        assert "r_list" in capsys.readouterr().err
        assert not out.exists()


def test_run_all_scenarios_only_takes_known_names(tmp_path):
    proc = _run_script("run_all_scenarios.py", "--out", str(tmp_path), "--only", "flat-ode", "alpha2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[ok]") == 2
    typo = _run_script("run_all_scenarios.py", "--out", str(tmp_path), "--only", "theorem_c")
    assert typo.returncode == 2
    assert "invalid choice" in typo.stderr


def test_theorem_b_solver_notes_reduce_its_three_sequences(tmp_path, monkeypatch):
    # theorem-b steps one capped family, holding every center height's run
    # on every ball, and gets back one sequence per height: three sequences,
    # nine runs on one step sequence.  Its solver_work note is _solver_work
    # over all nine: it sums their counts, but takes the largest worst
    # residual and longest step and the shortest step
    seqs, families = [], []

    def recording(*args, **kwargs):
        result = evolution.run_scheme_A8(*args, **kwargs)
        seqs.extend(result)
        return result

    real_evolve = evolution.evolve

    def counted(*args, **kwargs):
        families.append(real_evolve(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(scenarios, "run_scheme_A8", recording)
    monkeypatch.setattr(evolution, "evolve", counted)
    out = tmp_path / "run"
    assert main(["theorem-b", "--out", str(out)]) == EXIT_NUMERICAL  # acceptance 7
    note = _manifest(out)["notes"]["solver_work"]
    runs = [f for seq in seqs for f in seq.fields]
    assert len(seqs) == 3 and len(runs) == 9
    assert len(families) == 1 and len(families[0].fields) == 9  # one call, height-major
    assert all(one is many for one, many in zip(families[0].fields, runs))
    assert note == evolution._solver_work(runs)
    assert note["steps"] == 524 and note["runs"] == 9
    assert all(f.steps == 524 for f in runs)
    for key in ("warm_start_sweeps", "newton_solves", "negative_clips"):
        assert note[key] == sum(getattr(f, key) for f in runs)
    residuals = [f.worst_residual for f in runs]
    assert len(set(residuals)) > 1 and note["worst_residual"] == max(residuals)
    assert 0.0 < note["worst_residual"] < 1e-10  # newton_tol: no run stalled
    assert note["min_dt"] == 1e-6 and note["max_dt"] == pytest.approx(1e-3)
    assert all((f.min_dt, f.max_dt) == (note["min_dt"], note["max_dt"]) for f in runs)
    # runs on different step ranges
    counts = ("steps", "warm_start_sweeps", "newton_solves", "negative_clips",
              "worst_residual", "u_steps")
    fake = [SimpleNamespace(**{k: getattr(runs[0], k) for k in counts}, min_dt=lo, max_dt=hi)
            for lo, hi in ((1e-6, 2e-3), (3e-7, 1e-3))]
    work = evolution._solver_work(fake)
    assert (work["min_dt"], work["max_dt"]) == (3e-7, 2e-3)


def test_manifest_echoes_resolved_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alpha = 1.25\n")
    out = tmp_path / "run"
    assert main(["conditions", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = _manifest(out)
    assert doc["config"]["alpha"] == 1.25


def test_success_manifest_has_no_tolerance_scale(tmp_path):
    # every check is graded against its pinned bound, so there is no scale
    # to record
    out = tmp_path / "run"
    assert main(["conditions", "--out", str(out)]) == EXIT_OK
    doc = _manifest(out)
    assert doc["status"] == "pass"
    assert "tolerance_scale" not in doc


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(name):
    proc = _run_script(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_stepsize_orders_reaches_both_studies():
    # --help stops before the script's two evolve calls; a short horizon runs them
    proc = _run_script("stepsize_orders.py", "--t-final", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert "observed order in dt:" in proc.stdout
    assert "observed order in h:" in proc.stdout


def test_collapse_gap_study_prints_theorem_c_gaps(tmp_path):
    out = tmp_path / "study"
    proc = _run_script("collapse_gap_study.py", "--n", "3", "4", "--h", "0.1",
                       "--dt-max", "2e-4", "--t-final", "0.5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = _manifest(out)
    assert doc["config"]["n_list"] == [3.0, 4.0]
    assert doc["config"]["r_out"] == 7.0
    gaps = doc["notes"]["relative_gaps"]
    _, rows = parse_csv(out / "gaps.csv")
    assert [float(r[1]) for r in rows] == gaps
    lines = proc.stdout.splitlines()
    for n, gap in zip((3, 4), gaps):
        assert f"{n:4d} {gap:14.4f}" in lines
    assert f"= {doc['notes']['envelope_margin']:.3e} " in proc.stdout
    assert gaps[0] > gaps[1]
    # theorem-c steps the truncated family and nothing else
    assert doc["notes"]["solver_work"]["runs"] == 2
    assert "influence_diff" not in doc["notes"]
