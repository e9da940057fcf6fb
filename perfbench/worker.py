"""Benchmark worker: runs workload passes through ``absorblab.cli.main``.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread and ``ABSORBLAB_THREADS`` unset.  Two modes, both reading a JSON job
file written by ``run.py``:

``worker.py probe JOB``
    import the CLI and the scenario layer, load every config, then print
    ``time.monotonic()``, the moment the process is ready to run, and the
    calibration kernel's time right after.
``worker.py passes JOB``
    run passes (every scenario of the workload, back to back) until
    ``seconds`` have elapsed, at least ``min_passes``; with ``trace`` the
    passes alternate untraced and traced.  Writes per-pass wall and CPU
    times (raw and at reference speed), exit codes, per-layer metrics of
    traced passes and the peak RSS to ``result``, and the spans to
    ``spans``.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

# A shared host's CPU speed swings by tens of percent over minutes.  Each
# pass is bracketed by a fixed calibration kernel, and its times are also
# reported scaled to the speed at which the kernel takes CAL_REF_S seconds
# (its median time on the 2-core Xeon machine the baseline was recorded on,
# so scaled and measured times agree on average).  A pass of CAL_MAX_PASS_S
# or more is not scaled: it averages the host's speed over its own length,
# and the kernel runs at its two ends say little about the middle (scaling
# 45 s passes widened their run-to-run spread from about 20% to 31%).
CAL_REPS = 12000
CAL_REF_S = 0.28
CAL_MAX_PASS_S = 20.0


def _probe(job: dict) -> None:
    from absorblab import cli, scenarios  # noqa: F401  (the import is the work)
    from absorblab.config import load_config

    for scn, cfg in job["scenarios"]:
        load_config(scn, cfg)
    print(repr(time.monotonic()), flush=True)
    print(repr(calibration_s()), flush=True)


def calibration_s() -> float:
    """Wall time of a fixed kernel that shares no code with absorblab.

    Small-array numpy calls and interpreter work, the mix of the solvers'
    inner loops, so it slows down with the host as the passes do.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 361)
    acc = 0.0
    for _ in range(CAL_REPS):
        y = np.logaddexp(x, 0.5 * x) - np.log1p(x)
        z = np.concatenate(([0.0], y[:-1])) * 0.999
        acc += float(np.max(np.abs(z - y)))
        x = np.exp(-x) + 0.5 * x
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def _run_scenario(cli, scn: str, cfg: str, out: Path):
    try:
        return cli.main([scn, "--config", cfg, "--out", str(out / scn)])
    except SystemExit as exc:  # argparse rejects its arguments this way
        return f"SystemExit {exc.code}"
    except Exception as exc:  # the gate counts this run as failed
        return f"raised {type(exc).__name__}: {exc}"


def _passes(job: dict) -> None:
    from absorblab import cli

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    out_root = Path(job["out"])
    passes = []
    start = time.perf_counter()
    cal_before = calibration_s()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        out = out_root / f"pass{i}"
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        c0 = time.process_time()
        codes = {scn: _run_scenario(cli, scn, cfg, out) for scn, cfg in job["scenarios"]}
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        cal_after = calibration_s()
        scale = CAL_REF_S / (0.5 * (cal_before + cal_after)) if wall < CAL_MAX_PASS_S else 1.0
        cal_before = cal_after
        record = {
            "dir": str(out), "traced": traced, "codes": codes, "wall_s": wall, "cpu_s": cpu,
            "wall_ref_s": wall * scale, "cpu_ref_s": cpu * scale,
        }
        if traced:
            record["layers"] = tracer.pass_metrics(i, wall)
        passes.append(record)
        i += 1
        if i >= job["min_passes"] and time.perf_counter() - start >= job["seconds"]:
            break
    if tracer is not None:
        tracer.write(Path(job["spans"]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(
        json.dumps({"passes": passes, "peak_rss_mb": rss_mb}), encoding="utf-8"
    )


if __name__ == "__main__":
    mode, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    {"probe": _probe, "passes": _passes}[mode](job)
