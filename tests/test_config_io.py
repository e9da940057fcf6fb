"""Config parsing, serialization round-trips, CSV and manifest output."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorblab.cli import EXIT_CONFIG, main
from absorblab.config import (
    SCENARIOS,
    SCHEMAS,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from absorblab.errors import ConfigError
from absorblab.io import OutputError, RunManifest, emit_csv, emit_manifest, parse_csv
from absorblab.scenarios import RUNNERS


# ----------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------


def test_defaults_exist_for_every_scenario():
    assert set(RUNNERS) == set(SCHEMAS)
    for scenario in SCENARIOS:
        cfg = parse_config(scenario, "")
        assert cfg.scenario == scenario
        if "family" in cfg.params:
            assert cfg["family"] in ("log_power", "power")


def test_round_trip_through_serializer():
    for scenario in SCENARIOS:
        cfg = parse_config(scenario, "")
        again = parse_config(scenario, serialize_config(cfg))
        assert again.params == cfg.params


def test_overrides_and_comments():
    cfg = parse_config("flat-ode", "alpha = 1.7  # tail exponent\n\n# blank above\n")
    assert cfg["alpha"] == 1.7


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("flat-ode", "alpha = 1.5\nbogus = 1\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("flat-ode", "alpha 1.5\n")


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        parse_config("flat-ode", "alpha = fast\n")
    with pytest.raises(ConfigError):
        parse_config("theorem-c", "n_list = 3, two, 5\n")


def test_empty_list_rejected():
    with pytest.raises(ConfigError):
        parse_config("theorem-c", "n_list =\n")


def test_list_ordering_enforced():
    with pytest.raises(ConfigError):
        parse_config("theorem-c", "n_list = 3, 3, 4\n")


def test_positivity_enforced():
    with pytest.raises(ConfigError):
        parse_config("theorem-b", "h = -0.025\n")


@pytest.mark.parametrize("text", [
    "t_final = inf\n", "t_final = nan\n", "r_out = -inf\n",
    "t_checks = 0.25, inf\n", "n_list = 3, nan\n",
])
def test_non_finite_numbers_rejected(tmp_path, text):
    # t_final = inf and t_checks = 0.25, inf used to parse, and theorem-c
    # then stepped toward T = inf without end
    key = text.split(" =")[0]
    scenario = "theorem-b" if key == "t_checks" else "theorem-c"
    with pytest.raises(ConfigError, match=f"{key}.*finite"):
        parse_config(scenario, text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_family_choice_enforced():
    with pytest.raises(ConfigError):
        parse_config("flat-ode", "family = cubic\n")
    with pytest.raises(ConfigError):
        parse_config("theorem-b", "domination = skip\n")


def test_exponent_ranges_per_scenario():
    # the pde scenarios hold the slow-tail range open at both ends
    with pytest.raises(ConfigError):
        parse_config("theorem-c", "alpha = 2.5\n")
    with pytest.raises(ConfigError):
        parse_config("theorem-c", "alpha = 1.0\n")
    # stationary admits the borderline exponent
    assert parse_config("stationary", "alpha = 2.0\n")["alpha"] == 2.0
    with pytest.raises(ConfigError):
        parse_config("stationary", "alpha = 2.1\n")
    # flat decay only needs the tail to converge
    assert parse_config("flat-ode", "alpha = 3.0\n")["alpha"] == 3.0
    with pytest.raises(ConfigError):
        parse_config("flat-ode", "alpha = 0.9\n")


def test_dimension_restricted_where_profiles_are_shot():
    with pytest.raises(ConfigError):
        parse_config("theorem-b", "dimension = 3\n")
    with pytest.raises(ConfigError):
        parse_config("non-uniqueness", "dimension = 2\n")
    assert parse_config("theorem-c", "dimension = 3\n")["dimension"] == 3


def test_witness_heights_must_nest():
    with pytest.raises(ConfigError):
        parse_config("non-uniqueness", "c = 2.0\nmid = 1.5\n")


def test_truncation_radii_must_fit_domain():
    with pytest.raises(ConfigError):
        parse_config("theorem-c", "n_list = 3, 6\nr_out = 6\n")


def test_witness_truncation_radii_must_fit_domain(tmp_path):
    # used to fail inside run_scheme_A4 with exit code 3
    with pytest.raises(ConfigError, match="r_out"):
        parse_config("non-uniqueness", "n_list = 6, 9\nr_out = 9\n")
    assert parse_config("non-uniqueness", "n_list = 6, 8.5\n")["n_list"] == (6.0, 8.5)
    cfg = tmp_path / "nu.cfg"
    cfg.write_text("n_list = 6, 10\n")
    assert main(["non-uniqueness", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, text", [
    ("theorem-b", "n_list = 4\na_list = 2\nt_checks = 0.05\n"),
    ("non-uniqueness", "n_list = 6\n"),
])
def test_ordering_scenarios_need_two_balls(tmp_path, scenario, text):
    # one ball has no pair to compare: theorem-b used to exit 0 with a
    # vacuous decreasing_in_n check and write -Infinity into the manifest
    with pytest.raises(ConfigError, match="n_list"):
        parse_config(scenario, text)
    cfg = tmp_path / "one.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    # theorem-c keeps single-n runs (the gap study's --n 6)
    assert parse_config("theorem-c", "n_list = 6\n")["n_list"] == (6.0,)


def test_bound_radii_must_fit_profile_range(tmp_path):
    # used to fail in the profile lookup with exit code 3
    with pytest.raises(ConfigError, match="r_max"):
        parse_config("stationary", "r_max = 3\n")  # default radii 1, 2, 4
    with pytest.raises(ConfigError, match="r_max"):
        parse_config("stationary", "bound_radii = 4, 1\nr_max = 2\n")  # not sorted
    assert parse_config("stationary", "r_max = 4\n")["bound_radii"] == (1.0, 2.0, 4.0)
    cfg = tmp_path / "st.cfg"
    cfg.write_text("family = power\np = 2\nr_max = 1\na_list = 0.1\n")
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_stationary_grid_needs_two_points(tmp_path):
    # used to fail in shoot_profile's grid check with exit code 3
    with pytest.raises(ConfigError, match="grid_points"):
        parse_config("stationary", "grid_points = 1\n")
    assert parse_config("stationary", "grid_points = 2\n")["grid_points"] == 2
    cfg = tmp_path / "st.cfg"
    cfg.write_text("grid_points = 1\n")
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_alpha2_x_radius_must_be_nonnegative(tmp_path):
    # -10 used to exit 3 with a math domain error, -2 silently used R = r_n - 2
    for x in ("-10", "-2"):
        with pytest.raises(ConfigError, match="x_radius"):
            parse_config("alpha2", f"x_radius = {x}\n")
        cfg = tmp_path / f"x{x}.cfg"
        cfg.write_text(f"x_radius = {x}\n")
        out = tmp_path / f"o{x}"
        assert main(["alpha2", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
    assert parse_config("alpha2", "x_radius = 0\n")["x_radius"] == 0.0


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        parse_config("speedrun", "")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("flat-ode", tmp_path / "absent.cfg")
    # bytes that are not UTF-8 used to escape as a UnicodeDecodeError
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("conditions", cfg)
    assert main(["conditions", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_load_config_none_gives_defaults():
    assert load_config("alpha2", None).params == parse_config("alpha2", "").params


@given(alpha=st.floats(1.01, 1.99), t_max=st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_serializer_round_trips_arbitrary_floats(alpha, t_max):
    text = f"alpha = {alpha!r}\nt_max = {t_max!r}\n"
    cfg = parse_config("flat-ode", text)
    again = parse_config("flat-ode", serialize_config(cfg))
    assert again["alpha"] == cfg["alpha"]
    assert again["t_max"] == cfg["t_max"]


def test_serializer_is_sorted_and_deterministic():
    cfg = parse_config("conditions", "")
    s1, s2 = serialize_config(cfg), serialize_config(cfg)
    assert s1 == s2
    keys = [line.split(" = ")[0] for line in s1.strip().splitlines()]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------


def test_csv_round_trip_is_bit_identical(tmp_path):
    values = [0.1, 1.0 / 3.0, 2.0**-52, 1e300, -1.5e-300, 16.000000000000004]
    path = emit_csv(tmp_path / "t.csv", ["x"], [[v] for v in values])
    header, rows = parse_csv(path)
    assert header == ["x"]
    assert [float(r[0]) for r in rows] == values  # exact, not approximate


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_csv_round_trip_random_floats(tmp_path_factory, xs):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    emit_csv(path, ["v"], [[x] for x in xs])
    _, rows = parse_csv(path)
    assert [float(r[0]) for r in rows] == xs


def test_csv_layout_and_encoding(tmp_path):
    path = emit_csv(tmp_path / "layout.csv", ["a", "flag"], [[1.5, True], [2.0, False]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[1] == "1.5,true"
    assert raw.endswith(b"\n")


def test_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(OutputError):
        emit_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0]])


# ----------------------------------------------------------------------
# run manifests
# ----------------------------------------------------------------------


def _manifest() -> RunManifest:
    m = RunManifest(config=parse_config("conditions", ""))
    m.record_check("zeta", True, tolerance=1e-8)
    m.record_check("alpha", True)
    m.notes["detail"] = 1.25
    return m


def test_manifest_json_is_deterministic_and_sorted():
    j1, j2 = _manifest().to_json(), _manifest().to_json()
    assert j1 == j2
    doc = json.loads(j1)
    assert list(doc.keys()) == sorted(doc.keys())
    assert doc["status"] == "pass"
    assert doc["tool"] == "absorblab"
    assert doc["checks"] == {"zeta": True, "alpha": True}
    assert doc["tolerances"] == {"zeta": 1e-8}


def test_manifest_contains_no_timestamps():
    doc = json.loads(_manifest().to_json())

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                assert "time" not in k.lower() and "date" not in k.lower()
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)


def test_manifest_failure_flips_status():
    m = _manifest()
    m.record_check("broken", False)
    assert m.all_passed is False
    assert json.loads(m.to_json())["status"] == "fail"


def test_manifest_files_sorted_on_emit(tmp_path):
    m = _manifest()
    m.record_file(tmp_path / "zz.csv")
    m.record_file(tmp_path / "aa.csv")
    path = emit_manifest(m, tmp_path)
    doc = json.loads(path.read_text())
    assert doc["files"] == ["aa.csv", "zz.csv"]


def test_experiment_config_getitem():
    cfg = ExperimentConfig(scenario="conditions", params={"alpha": 1.5})
    assert cfg["alpha"] == 1.5
