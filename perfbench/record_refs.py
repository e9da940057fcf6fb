"""Record the gate's reference outputs for every workload variant.

Usage, from the repository root::

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs one untraced pass per variant with the benchmark's own worker and
stores, per scenario, the exit code, the manifest verdicts, the SHA-256 of
every output file and every table (``w`` columns rounded to 1e-7, far below
the field tolerance) in ``refs/<workload>-<variant>.json.gz``.  A variant
whose verdicts differ from variant 0's (check names compared with their
numeric parameters masked) is refused: its neighbourhood is too wide.
Recording is only correct at a commit whose outputs are trusted.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

import run
from run import HERE, gate, workloads


def _pattern(checks: dict) -> list:
    return sorted((re.sub(r"=[0-9.e+-]+", "=*", k), v) for k, v in checks.items())


def record(workload: str, variant: int) -> dict:
    root = Path.cwd()
    work = HERE / ".work" / f"record-{workload}-{variant}"
    try:
        jobs = run.prepare(root, workload, variant, work)
        res = run.run_passes(run.pinned_env(root), work, jobs, 0.0, False, 3600.0)
        p = res["passes"][0]
        runs = {}
        for scn, code in p["codes"].items():
            snap = gate.snapshot(Path(p["dir"]) / scn, code)
            for name, table in snap["tables"].items():
                if name in gate.FIELD_FILES:
                    col = table["header"].index("w")
                    for row in table["rows"]:
                        row[col] = round(row[col], 7)
            runs[scn] = snap
        configs = {scn: Path(path).read_text(encoding="utf-8") for scn, path in jobs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{workload} variant {variant}: {p['wall_s']:.2f} s, exits "
          f"{ {s: r['exit'] for s, r in runs.items()} }", flush=True)
    return {"workload": workload, "variant": variant, "configs": configs, "runs": runs}


def main(names) -> int:
    (HERE / "refs").mkdir(exist_ok=True)
    bad = 0
    for workload in names or workloads.WORKLOADS:
        base = None
        for variant in range(workloads.VARIANTS):
            doc = record(workload, variant)
            verdicts = {s: _pattern(r["checks"]) for s, r in doc["runs"].items()}
            if any(r["exit"] not in (0, 3) for r in doc["runs"].values()):
                print(f"REFUSED {workload} variant {variant}: a scenario did not complete")
                bad += 1
                continue
            if base is None:
                base = verdicts
            elif verdicts != base:
                print(f"REFUSED {workload} variant {variant}: verdicts {verdicts} "
                      f"differ from variant 0 {base}")
                bad += 1
                continue
            gate.save_reference(run.reference_path(workload, variant), doc)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
