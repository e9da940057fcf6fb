"""Correctness gate: compare one scenario run with its recorded reference.

A scenario run fails when

* the CLI raised, or exited with another code than the reference (exit 2,
  a config error, is never a reference code);
* its manifest check verdicts differ from the reference's.  The reference
  verdicts were recorded at the commit that defined the benchmark; the only
  red ones there are the documented ``decreasing_in_n_a=*`` of
  ``theorem-b`` and ``final_gap_small`` of ``theorem-c``;
* a file is missing or extra, or a table changed shape or text cells;
* an evolution field (``w`` column) leaves the reference by more than
  ``discretization_tolerance(h, dt_max) = h^2 + dt_max`` in log units.
  Values computed from those fields are held to the same log-unit
  tolerance: a relative gap ``|u/Phi - 1|`` may move by ``tol (1 + gap)``,
  a height ``u`` by ``tol`` in ``ln(1+u)``;
* any other number (flat, profile, threshold, classification values and
  the echoed inputs) leaves the reference by more than 1e-9 relative.

Byte identity of every output file, the ROADMAP's meaning of "unchanged"
when the algorithm is unchanged, is reported beside the verdict.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
FIELD_FILES = ("theorem_c.csv", "theorem_b.csv", "witness.csv")
# witness_summary rows computed from evolution fields
FIELD_HEIGHTS = ("minimal_limit_sup", "lower_limit_at_r_star")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_table(path: Path) -> tuple[list, list]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


def field_tolerance(config: dict) -> float:
    """``absorblab.evolution.discretization_tolerance`` of the run."""
    return config["h"] ** 2 + config["dt_max"]


def snapshot(run_dir: Path, exit_code) -> dict:
    """Reference record of one scenario run (its output directory)."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    files = sorted(p.name for p in run_dir.iterdir())
    tables = {}
    for name in files:
        if name.endswith(".csv"):
            header, rows = _read_table(run_dir / name)
            tables[name] = {"header": header, "rows": rows}
    return {
        "exit": exit_code,
        "checks": manifest["checks"],
        "sha256": {name: _sha256(run_dir / name) for name in files},
        "tables": tables,
    }


def _close(x, ref, tol_abs: float) -> bool:
    if isinstance(ref, str) or isinstance(x, str):
        return x == ref
    if math.isnan(ref):
        return math.isnan(x)
    return abs(x - ref) <= tol_abs


def _rel(ref) -> float:
    return REL_TOL * abs(ref) if isinstance(ref, float) else 0.0


def _log_height_close(x, ref, tol: float) -> bool:
    return abs(math.log1p(x) - math.log1p(ref)) <= tol


def _compare_table(name: str, got: dict, ref: dict, tol: float) -> list[str]:
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        return [f"{name}: shape differs"]
    header = ref["header"]
    errors = []
    for k, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        for col, x, r in zip(header, row, ref_row):
            if name in FIELD_FILES and col == "w":
                ok = _close(x, r, tol)
            elif name == "gaps.csv" and col == "relative_gap":
                ok = _close(x, r, tol * (1.0 + abs(r)))
            elif name == "witness_summary.csv" and col == "value" and row[0] in FIELD_HEIGHTS:
                ok = _log_height_close(x, r, tol)
            elif name == "witness_summary.csv" and col == "value" and row[0] == "separation":
                ok = True  # checked below from the two heights it is made of
            else:
                ok = _close(x, r, _rel(r))
            if not ok:
                errors.append(f"{name} row {k} {col}: {x!r} vs reference {r!r}")
                break
    if name == "witness_summary.csv" and not errors:
        v = {row[0]: row[1] for row in got["rows"]}
        if v["separation"] != v["lower_limit_at_r_star"] - v["minimal_limit_sup"]:
            errors.append("witness_summary.csv: separation is not lower - sup")
    return errors[:5]


def check_run(run_dir: Path, exit_code, ref: dict, config: dict) -> tuple[list[str], bool]:
    """Gate one scenario run; returns (errors, byte_identical)."""
    if exit_code != ref["exit"]:
        return [f"exit {exit_code!r}, reference {ref['exit']}"], False
    try:
        got = snapshot(run_dir, exit_code)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"], False
    errors = []
    if got["checks"] != ref["checks"]:
        errors.append(f"check verdicts {got['checks']} differ from reference {ref['checks']}")
    if sorted(got["sha256"]) != sorted(ref["sha256"]):
        errors.append(f"files {sorted(got['sha256'])} differ from {sorted(ref['sha256'])}")
        return errors, False
    tol = field_tolerance(config) if "dt_max" in config else 0.0
    for name, table in ref["tables"].items():
        errors += _compare_table(name, got["tables"][name], table, tol)
    return errors, got["sha256"] == ref["sha256"]


def load_reference(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path: Path, doc: dict) -> None:
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
