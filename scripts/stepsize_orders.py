"""Measured convergence orders of the implicit scheme: O(dt) and O(h^2).

Two classical verifications against known solutions:

* time: space-flat data decays along the scalar absorption ODE, whose
  continuum solution is computable by quadrature inversion; the center
  error of the scheme should halve when dt halves (backward Euler).
* space: stationary-profile data with the matching boundary trace should
  not move at all; the drift after a fixed time is pure spatial
  discretization error and should quarter when h halves.

Prints the error tables with observed ratios and log2 slopes.
"""

import argparse
import math
from dataclasses import dataclass

import numpy as np

from absorblab.evolution import BoundaryTrace, evolve, uniform_grid
from absorblab.flat_ode import solve_phi
from absorblab.nonlinearity import Nonlinearity
from absorblab.profiles import shoot_profile


@dataclass
class OrderConfig:
    alpha: float = 1.5
    height: float = 2.0
    t_final: float = 0.1
    dt_list: tuple = (4e-3, 2e-3, 1e-3, 5e-4)
    h_list: tuple = (0.1, 0.05, 0.025)
    dimension: int = 1


def time_order(cfg: OrderConfig) -> None:
    spec = Nonlinearity.log_power(cfg.alpha)
    w0 = math.log1p(cfg.height)
    exact = float(solve_phi(spec, cfg.height, [0.0, cfg.t_final]).values[-1])
    grid = uniform_grid(4.0, 0.1, cfg.dimension)
    flat = np.full(len(grid.radii), w0)
    # the boundary follows the continuum flat decay, so the field stays
    # space-flat and the center error is pure time discretization
    trace = BoundaryTrace.flat_trace(spec, cfg.height)
    print(f"time order: flat decay from u={cfg.height:g} to t={cfg.t_final:g}"
          f" (continuum center value {exact:.8f})")
    print(f"{'dt':>10} {'center err':>12} {'ratio':>7}")
    errs = []
    for dt in cfg.dt_list:
        fld = evolve(spec, grid, flat, trace,
                     [0.0, cfg.t_final], dt_max=dt)
        err = abs(math.expm1(fld.values[-1, 0]) - exact)
        ratio = errs[-1] / err if errs else float("nan")
        errs.append(err)
        print(f"{dt:10.1e} {err:12.3e} {ratio:7.2f}")
    slope = np.polyfit(np.log(cfg.dt_list), np.log(errs), 1)[0]
    print(f"observed order in dt: {slope:.3f} (expected 1)\n")


def space_order(cfg: OrderConfig) -> None:
    spec = Nonlinearity.log_power(cfg.alpha)
    r_max = 2.0
    prof = shoot_profile(spec, cfg.height, cfg.dimension, r_max)
    print(f"space order: stationary data of height {cfg.height:g} held for "
          f"t={cfg.t_final:g} (drift = discretization error)")
    print(f"{'h':>8} {'sup drift':>12} {'drift/h^2':>10} {'ratio':>7}")
    errs = []
    for h in cfg.h_list:
        grid = uniform_grid(r_max, h, cfg.dimension)
        fld = evolve(spec, grid, prof.sample(grid.radii)[0],
                     BoundaryTrace.constant(float(prof.w_at(r_max))),
                     [0.0, cfg.t_final], dt_max=1e-4)
        drift = float(np.max(np.abs(fld.values[-1] - fld.values[0])))
        ratio = errs[-1] / drift if errs else float("nan")
        errs.append(drift)
        print(f"{h:8.3f} {drift:12.3e} {drift / h**2:10.3f} {ratio:7.2f}")
    slope = np.polyfit(np.log(cfg.h_list), np.log(errs), 1)[0]
    print(f"observed order in h: {slope:.3f} (expected 2)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--height", type=float, default=2.0)
    ap.add_argument("--t-final", type=float, default=0.1)
    args = ap.parse_args()
    cfg = OrderConfig(alpha=args.alpha, height=args.height,
                      t_final=args.t_final)
    time_order(cfg)
    space_order(cfg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
