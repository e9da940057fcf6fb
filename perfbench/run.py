"""absorblab benchmark: one workload, end-to-end or traced, with a correctness gate.

Usage, from the repository root::

    python3 perfbench/run.py --workload collapse --seed 0 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``.  A run

1. compiles the package sources (the "build": later interpreters start from
   cached bytecode, as an installed CLI would);
2. writes the seeded scenario configs, and checks them against the ones the
   references were recorded with;
3. times ``PROBES`` fresh interpreters that import the CLI and load the
   configs (``setup_s``, median);
4. runs whole passes in one worker process, single client, single thread,
   until ``--seconds`` have elapsed (at least one pass; with ``--trace 1``
   alternating untraced and traced passes, at least one of each);
5. gates every scenario run of every pass against the reference.

It prints a readable summary and, as the last line, one JSON object with
``correct``, ``attempted`` (scenario runs), ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The times ``wall_s``, ``cpu_s`` and ``setup_s`` are at reference CPU speed:
each set-up probe and each pass shorter than ``CAL_MAX_PASS_S`` is scaled
by ``CAL_REF_S`` over the time of a fixed calibration kernel run next to it
(see ``worker.py``), because a shared host's speed drifts by more than any
useful bound.  The summary also prints the medians as measured.
Exit code 0 when the run completed (whatever the gate said), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from worker import CAL_REF_S  # noqa: E402

PROBES = 3
DEADLINE_S = 170.0
MIN_COVERAGE = 0.95
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def pinned_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ABSORBLAB_THREADS"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_path(workload: str, variant: int) -> Path:
    return HERE / "refs" / f"{workload}-{variant}.json.gz"


def prepare(root: Path, workload: str, variant: int, work: Path) -> list:
    """Check the sources, compile them, write the configs; returns the job list."""
    if not (root / "src" / "absorblab" / "cli.py").is_file():
        raise BenchError(f"no absorblab sources under {root / 'src'}")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "absorblab")],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise BenchError(f"compileall failed:\n{done.stdout}{done.stderr}")
    paths = workloads.write_configs(workload, variant, work / "configs")
    return [[scn, str(p)] for scn, p in paths.items()]


def _job_file(work: Path, name: str, doc: dict) -> Path:
    p = work / f"{name}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def setup_times(env: dict, work: Path, jobs: list, n: int) -> tuple[list, list]:
    """Set-up times of ``n`` fresh interpreters: as measured, and at reference speed."""
    job = _job_file(work, "probe", {"scenarios": jobs})
    times, ref_times = [], []
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "probe", str(job)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"setup probe failed:\n{done.stderr[-2000:]}")
        ready, cal = (float(v) for v in done.stdout.split()[-2:])
        times.append(ready - t0)
        ref_times.append((ready - t0) * CAL_REF_S / cal)
    return times, ref_times


def run_passes(env: dict, work: Path, jobs: list, seconds: float, trace: bool,
               timeout: float) -> dict:
    result = work / "result.json"
    job = _job_file(work, "passes", {
        "scenarios": jobs, "out": str(work / "out"), "seconds": seconds,
        "trace": trace, "min_passes": 2 if trace else 1,
        "result": str(result), "spans": str(HERE / ".work" / "spans.json"),
    })
    log = work / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "passes", str(job)],
                env=env, stdout=fh, stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker failed:\n{log.read_text(encoding='utf-8')[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def gate_passes(passes: list, ref: dict, cfgs: dict) -> tuple[int, int, bool, list]:
    attempted = failed = 0
    identical = True
    problems = []
    for p in passes:
        for scn, code in p["codes"].items():
            attempted += 1
            errors, same = gate.check_run(
                Path(p["dir"]) / scn, code, ref["runs"][scn], cfgs[scn]
            )
            identical &= same
            if errors:
                failed += 1
                problems.append(f"{Path(p['dir']).name}/{scn}: " + "; ".join(errors))
    return attempted, failed, identical, problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("coverage", "_per_phi_inf")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    variant = workloads.variant_of(args.seed)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ref_file = reference_path(args.workload, variant)
        if not ref_file.is_file():
            raise BenchError(f"missing reference {ref_file}")
        ref = gate.load_reference(ref_file)
        jobs = prepare(root, args.workload, variant, work)
        cfgs = workloads.configs(args.workload, variant)
        for scn, path in jobs:
            if Path(path).read_text(encoding="utf-8") != ref["configs"][scn]:
                raise BenchError(f"{scn} config differs from the recorded reference")
        env = pinned_env(root)
        setups, setups_ref = setup_times(env, work, jobs, PROBES)
        timeout = DEADLINE_S - (time.monotonic() - started)
        res = run_passes(env, work, jobs, args.seconds, bool(args.trace), timeout)
        attempted, failed, identical, problems = gate_passes(res["passes"], ref, cfgs)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]

    def median(passes, key):
        return statistics.median(p[key] for p in passes)

    correct = failed == 0
    for line in problems[:10]:
        print(f"FAIL {line}")
    print(f"{args.workload} seed {args.seed} (variant {variant}): {len(plain)} untraced "
          f"and {len(traced)} traced passes, {attempted} scenario runs, "
          f"every output byte-identical to the reference: {identical}")
    print(f"  {'failed_frac':12s} {failed / attempted:12.6g} ratio")
    if args.trace:
        layers = {
            k: statistics.median(p["layers"][k] for p in traced)
            for k in traced[0]["layers"]
        }
        coverage = min(p["layers"]["trace.coverage"] for p in traced)
        layers["trace.coverage"] = coverage
        traced_wall = median(traced, "wall_s")
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = median(traced, "wall_ref_s") - median(plain, "wall_ref_s")
        if coverage < MIN_COVERAGE:
            print(f"FAIL spans cover {coverage:.3f} of a traced pass, below {MIN_COVERAGE}")
            correct = False
        for k, v in layers.items():
            share = f"  ({v / traced_wall:6.1%} of traced pass)" if _unit(k) == "s" else ""
            print(f"  {k:34s} {v:14.6g} {_unit(k)}{share}")
        metrics = {k: _metric(v, _unit(k)) for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": _metric(median(plain, "wall_ref_s"), "s"),
            "cpu_s": _metric(median(plain, "cpu_ref_s"), "s"),
            "setup_s": _metric(statistics.median(setups_ref), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        measured = {
            "wall_s": median(plain, "wall_s"), "cpu_s": median(plain, "cpu_s"),
            "setup_s": statistics.median(setups),
        }
        for k, m in metrics.items():
            raw = f"  (as measured: {measured[k]:.6g} s)" if k in measured else ""
            print(f"  {k:12s} {m['value']:12.6g} {m['unit']}{raw}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
