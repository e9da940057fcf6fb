"""How fast does the truncated-data limit close on the flat envelope?

Above the admissible growth threshold the increasing limit of solutions
with truncated data g*chi_{B_n} forgets its data: on a fixed monitor ball
it approaches the space-independent infinite-data solution from below as
the truncation radius n grows.  This study runs the truncation scheme for
a list of n, reports the relative gap to the flat value at the final time,
and extrapolates (crudely, from the last ln-gap decrement) the n needed to
reach a target gap.

At the desk scale n <= 6 the gap is still tens of percent — which is why
the 5% acceptance clause on `theorem-c` is red — but it is monotone in n
and the whole field stays below the flat envelope provided the time step
resolves the absorption at the data height (run with --dt-max 1e-3 to see
the envelope fail when backward Euler under-damps the initial collapse).
"""

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from absorblab.evolution import EvolveConfig, run_scheme_A4
from absorblab.flat_ode import solve_phi_infinity_log
from absorblab.io import emit_csv
from absorblab.nonlinearity import Nonlinearity
from absorblab.threshold import GrowthFunction


@dataclass
class StudyConfig:
    alpha: float = 1.5
    growth_constant: float = 2.0
    growth_power: float = 4.0
    n_list: tuple = (3.0, 4.0, 5.0, 6.0)
    h: float = 0.025
    dt_max: float = 2e-5
    t_final: float = 0.5
    monitor_radius: float = 1.0
    target_gap: float = 0.05
    out: Path | None = None


def relative_gaps(cfg: StudyConfig) -> tuple[list[float], float]:
    spec = Nonlinearity.log_power(cfg.alpha)
    g = GrowthFunction(
        gamma=lambda r: cfg.growth_constant * float(r) ** cfg.growth_power,
        beta=cfg.growth_power, K=cfg.growth_constant,
    )
    times = [0.0, cfg.t_final / 2.0, cfg.t_final]
    r_out = max(cfg.n_list) + 3.0
    seq = run_scheme_A4(
        spec, g, list(cfg.n_list), r_out, times, h=cfg.h,
        cfg=EvolveConfig(dt_max=cfg.dt_max),
    )
    lam = dict(zip(times[1:], solve_phi_infinity_log(spec, times[1:]).tolist()))
    mon = seq.limit.grid.radii <= cfg.monitor_radius + 1e-12
    gaps = []
    worst_env = -math.inf
    for fld in seq.fields:
        w_mon = fld.values[-1, mon]
        log_u = np.where(w_mon > 0.0,
                         w_mon + np.log(-np.expm1(-np.maximum(w_mon, 1e-300))),
                         -np.inf)
        gaps.append(float(np.max(np.abs(np.expm1(log_u - lam[cfg.t_final])))))
        for i, t in enumerate(times):
            if t <= 0.0:
                continue
            bound = lam[t] + math.log1p((1.0 + cfg.h**2) * math.exp(-min(lam[t], 700.0)))
            worst_env = max(worst_env, float(np.max(fld.values[i])) - bound)
    return gaps, worst_env


def run_study(cfg: StudyConfig) -> None:
    gaps, worst_env = relative_gaps(cfg)
    print(f"alpha={cfg.alpha:g}, data w = {cfg.growth_constant:g} r^"
          f"{cfg.growth_power:g}, h={cfg.h:g}, dt_max={cfg.dt_max:g}, "
          f"t={cfg.t_final:g}, monitor r<={cfg.monitor_radius:g}")
    print(f"{'n':>4} {'relative gap':>14}")
    for n, gap in zip(cfg.n_list, gaps):
        print(f"{n:4g} {gap:14.4f}")
    print(f"envelope margin sup(w - flat bound) = {worst_env:.3e} "
          f"({'OK, below' if worst_env <= 0 else 'ABOVE envelope'})")
    if len(gaps) >= 2 and gaps[-1] < gaps[-2]:
        rate = math.log(gaps[-1] / gaps[-2]) / (cfg.n_list[-1] - cfg.n_list[-2])
        n_star = cfg.n_list[-1] + math.log(cfg.target_gap / gaps[-1]) / rate
        print(f"last decrement rate {rate:.3f}/unit n -> gap {cfg.target_gap:g} "
              f"at n ~ {n_star:.0f} (crude extrapolation; the decay "
              f"accelerates, so this is an upper estimate)")
    if cfg.out is not None:
        cfg.out.mkdir(parents=True, exist_ok=True)
        emit_csv(cfg.out / "collapse_gaps.csv", ["n", "relative_gap"],
                 [[n, g] for n, g in zip(cfg.n_list, gaps)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--n", type=float, nargs="+", default=[3.0, 4.0, 5.0, 6.0])
    ap.add_argument("--h", type=float, default=0.025)
    ap.add_argument("--dt-max", type=float, default=2e-5)
    ap.add_argument("--t-final", type=float, default=0.5)
    ap.add_argument("--target-gap", type=float, default=0.05)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    run_study(StudyConfig(alpha=args.alpha, n_list=tuple(args.n), h=args.h,
                          dt_max=args.dt_max, t_final=args.t_final,
                          target_gap=args.target_gap, out=args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
