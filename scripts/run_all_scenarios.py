"""Run every CLI scenario at its default configuration into one output tree.

Prints one line per scenario with the exit code and the check summary from
the emitted manifest.  The evolution scenarios get a second line with the
manifest's `solver_work` note (steps, the steps taken in u, runs,
warm-start sweeps, Newton solves, negative clips, the worst accepted
scaled residual, and the shortest and longest step), so
that a slow run can be explained from this one command.  At default
settings two scenarios report failing checks and exit 3 (see README):
`theorem-b` (the capped-data family is not decreasing in the ball radius
at the h^2 margin) and `theorem-c` (the truncated-data limit at n = 6 is
still ~71% above the flat envelope).
Exit code of this driver is 0 if every scenario matched its expected
status, 1 otherwise.
"""

import argparse
import json
from pathlib import Path

from absorblab.cli import main as cli_main

EXPECTED_EXIT = {
    "conditions": 0,
    "flat-ode": 0,
    "stationary": 0,
    "theorem-b": 3,
    "theorem-c": 3,
    "non-uniqueness": 0,
    "alpha2": 0,
}


def run_all(out_root: Path, scenarios) -> int:
    bad = 0
    for name in scenarios:
        out = out_root / name
        code = cli_main([name, "--out", str(out)])
        manifest = out / "manifest.json"
        summary, work = "no manifest", None
        if manifest.exists():
            doc = json.loads(manifest.read_text())
            checks = doc["checks"]
            n_fail = sum(1 for v in checks.values() if not v)
            summary = f"{len(checks) - n_fail}/{len(checks)} checks pass"
            if n_fail:
                summary += " (" + ", ".join(
                    k for k, v in sorted(checks.items()) if not v) + ")"
            work = doc["notes"].get("solver_work")
        expected = EXPECTED_EXIT.get(name)
        tag = "ok" if code == expected else f"UNEXPECTED (wanted {expected})"
        bad += code != expected
        print(f"{name:16s} exit {code}  [{tag}]  {summary}")
        if work:
            print(f"{'':16s} solver_work: " + ", ".join(
                f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}" for k, v in work.items()))
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("runs"),
                    help="root directory for per-scenario outputs")
    ap.add_argument("--only", nargs="*", default=None, choices=tuple(EXPECTED_EXIT),
                    help="subset of scenario names to run")
    args = ap.parse_args()
    scenarios = [s for s in EXPECTED_EXIT if not args.only or s in args.only]
    return run_all(args.out, scenarios)


if __name__ == "__main__":
    raise SystemExit(main())
