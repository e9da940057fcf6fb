"""Run the benchmark over several seeds and summarise the spread.

Usage, from the repository root::

    python3 perfbench/sweep.py --workloads collapse,envelope --seeds 0-9 \
        [--seconds 15] [--traced] [--out perfbench/baseline.json]

For every workload and seed it runs ``run.py`` once untraced (and, with
``--traced``, once traced at the first seed), then prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread ``(q3 - q1) / median``, which ``BENCHMARK.json``
bounds.  ``--out`` also writes every run's result with machine information.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    return result


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    doc = {"machine": machine(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = _seeds(args.seeds)
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **r})
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} {vals} (run {r['run_s']:.1f} s)", flush=True)
        entry = {"runs": runs, "summary": summarise(runs)}
        for name, s in entry["summary"].items():
            print(f"  {workload:10s} {name:12s} median {s['median']:.4g} {s['unit']} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.2%}", flush=True)
        if args.traced:
            entry["traced"] = {"seed": seeds[0], **run_once(workload, seeds[0], args.seconds, 1)}
            print(f"  {workload} traced: run {entry['traced']['run_s']:.1f} s", flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
