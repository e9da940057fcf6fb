"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from absorblab import cli, evolution, scenarios  # noqa: E402
from absorblab.config import parse_config  # noqa: E402
from tracer import Tracer  # noqa: E402

# A small evolution case: the capped driver on two short balls.
TINY_B = workloads.render({
    **workloads.BASE["theorem-b"],
    "a_list": (2.0,), "n_list": (4.0, 5.0), "t_checks": (0.05,),
})


def _run_all(cases, out: Path) -> dict:
    return {scn: cli.main([scn, "--config", str(cfg), "--out", str(out / scn)])
            for scn, cfg in cases}


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    texts = {scn: workloads.render(params)
             for scn, params in workloads.configs("families", 0).items()
             if scn in ("conditions", "stationary", "alpha2")}
    texts["theorem-b"] = TINY_B
    for scn, text in texts.items():
        (d / f"{scn}.cfg").write_text(text, encoding="utf-8")
    return [(scn, d / f"{scn}.cfg") for scn in texts]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_is_the_default_config(workload):
    for scn, params in workloads.configs(workload, workloads.variant_of(0)).items():
        got = parse_config(scn, workloads.render(params)).params
        want = dict(parse_config(scn, "").params)
        want.update(workloads.SCALE.get(workload, {}).get(scn, {}))
        assert got == want


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_references_were_recorded_from_these_configs(workload):
    for variant in range(workloads.VARIANTS):
        ref = gate.load_reference(run.reference_path(workload, variant))
        cfgs = workloads.configs(workload, variant)
        assert ref["configs"] == {s: workloads.render(p) for s, p in cfgs.items()}


def test_traced_outputs_are_byte_identical(cases, tmp_path):
    plain = _run_all(cases, tmp_path / "plain")
    tracer = Tracer()
    originals = (scenarios.run_scheme_A8, evolution.h_of_w, evolution.evolve)
    tracer.install(0)
    try:
        assert scenarios.run_scheme_A8 is not originals[0]
        assert evolution.h_of_w is not originals[1]
        traced = _run_all(cases, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert (scenarios.run_scheme_A8, evolution.h_of_w, evolution.evolve) == originals
    assert traced == plain
    assert _files(tmp_path / "traced") == _files(tmp_path / "plain")
    m = tracer.pass_metrics(0, 1e9)
    assert m["evolution.evolve_calls"] == 2
    assert m["evolution.h_evals"] > m["evolution.newton_iters"] > 0
    assert m["profiles.shoot_calls"] > 0 and m["io.bytes"] > 0


@pytest.fixture(scope="module")
def tiny_run(cases, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    code = cli.main(["theorem-b", "--config", str(cases[-1][1]), "--out", str(out)])
    cfg = parse_config("theorem-b", TINY_B).params
    return out, code, gate.snapshot(out, code), cfg


def _edit(src: Path, dst: Path, name: str, col: str, fn) -> None:
    shutil.copytree(src, dst)
    header, *rows = (dst / name).read_text(encoding="utf-8").splitlines()
    j = header.split(",").index(col)
    cells = rows[len(rows) // 2].split(",")
    cells[j] = repr(fn(float(cells[j])))
    rows[len(rows) // 2] = ",".join(cells)
    (dst / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def test_gate_accepts_identical_outputs(tiny_run):
    out, code, ref, cfg = tiny_run
    assert gate.check_run(out, code, ref, cfg) == ([], True)


def test_gate_rejects_field_beyond_tolerance(tiny_run, tmp_path):
    out, code, ref, cfg = tiny_run
    tol = gate.field_tolerance(cfg)
    _edit(out, tmp_path / "far", "theorem_b.csv", "w", lambda w: w + 2.0 * tol)
    errors, same = gate.check_run(tmp_path / "far", code, ref, cfg)
    assert errors and not same
    _edit(out, tmp_path / "near", "theorem_b.csv", "w", lambda w: w + 0.5 * tol)
    assert gate.check_run(tmp_path / "near", code, ref, cfg) == ([], False)


def test_gate_rejects_input_echo_beyond_relative_tolerance(tiny_run, tmp_path):
    out, code, ref, cfg = tiny_run
    _edit(out, tmp_path / "r", "theorem_b.csv", "r", lambda r: r * (1.0 + 1e-8) if r else 1e-12)
    errors, _ = gate.check_run(tmp_path / "r", code, ref, cfg)
    assert errors


def test_gate_rejects_config_errors_and_verdict_changes(tiny_run):
    out, code, ref, cfg = tiny_run
    assert gate.check_run(out, 2, ref, cfg)[0]
    flipped = {**ref, "checks": {k: not v for k, v in ref["checks"].items()}}
    assert gate.check_run(out, code, flipped, cfg)[0]
