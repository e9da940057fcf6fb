"""How fast does the truncated-data limit close on the flat envelope?

Above the admissible growth threshold the increasing limit of solutions
with truncated data g*chi_{B_n} forgets its data: on a fixed monitor ball
it approaches the space-independent infinite-data solution from below as
the truncation radius n grows.  This study runs the `theorem-c` scenario
for a list of n (with r_out = max(n) + 3), prints the relative gap to the
flat value at the final time and the envelope margin from its manifest,
and extrapolates (crudely, from the last ln-gap decrement) the n needed to
reach a target gap.  Every flag defaults to the `theorem-c` default, so at
defaults the study reproduces that scenario's gaps.

At the desk scale n <= 6 the gap is still tens of percent — which is why
the 5% acceptance clause on `theorem-c` is red — but it is monotone in n
and the whole field stays below the flat envelope provided the time step
resolves the absorption at the data height (run with --dt-max 1e-3 to see
the envelope fail when backward Euler under-damps the initial collapse).
"""

import argparse
import math
import tempfile
from pathlib import Path

from absorblab.config import ExperimentConfig, parse_config, serialize_config
from absorblab.scenarios import run_scenario

# study flag -> theorem-c config key
FLAGS = {
    "alpha": "alpha",
    "n": "n_list",
    "h": "h",
    "dt_max": "dt_max",
    "t_final": "t_final",
    "target_gap": "gap_fraction",
}


def study_config(args: argparse.Namespace) -> ExperimentConfig:
    """The `theorem-c` config for the given flags; unset flags keep its defaults."""
    params = dict(parse_config("theorem-c", "").params)
    for flag, key in FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            params[key] = tuple(value) if key == "n_list" else value
    params["r_out"] = max(params["n_list"]) + 3.0
    # through the parser, so the scenario's own validity checks apply
    return parse_config("theorem-c", serialize_config(ExperimentConfig("theorem-c", params)))


def run_study(config: ExperimentConfig, out: Path) -> None:
    notes = run_scenario(config, out).notes
    gaps, n_list = notes["relative_gaps"], config["n_list"]
    print(f"alpha={config['alpha']:g}, data w = {config['growth_constant']:g} r^"
          f"{config['growth_power']:g}, h={config['h']:g}, dt_max={config['dt_max']:g}, "
          f"t={config['t_final']:g}, monitor r<={config['monitor_radius']:g}")
    print(f"{'n':>4} {'relative gap':>14}")
    for n, gap in zip(n_list, gaps):
        print(f"{n:4g} {gap:14.4f}")
    worst_env = notes["envelope_margin"]
    print(f"envelope margin sup(w - flat bound) = {worst_env:.3e} "
          f"({'OK, below' if worst_env <= 0 else 'ABOVE envelope'})")
    target = config["gap_fraction"]
    if len(gaps) >= 2 and gaps[-1] < gaps[-2]:
        rate = math.log(gaps[-1] / gaps[-2]) / (n_list[-1] - n_list[-2])
        n_star = n_list[-1] + math.log(target / gaps[-1]) / rate
        print(f"last decrement rate {rate:.3f}/unit n -> gap {target:g} "
              f"at n ~ {n_star:.0f} (crude extrapolation; the decay "
              f"accelerates, so this is an upper estimate)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 epilog="Unset flags take the theorem-c defaults.")
    ap.add_argument("--alpha", type=float)
    ap.add_argument("--n", type=float, nargs="+")
    ap.add_argument("--h", type=float)
    ap.add_argument("--dt-max", type=float)
    ap.add_argument("--t-final", type=float)
    ap.add_argument("--target-gap", type=float)
    ap.add_argument("--out", type=Path, default=None,
                    help="write the theorem-c artifacts here (default: a temporary directory)")
    args = ap.parse_args()
    config = study_config(args)
    if args.out is not None:
        run_study(config, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run_study(config, Path(tmp))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
