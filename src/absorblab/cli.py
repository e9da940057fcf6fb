"""Command-line front end.

Usage::

    absorblab SCENARIO [--config PATH] [--out DIR]

where SCENARIO is one of ``conditions``, ``flat-ode``, ``stationary``,
``theorem-b``, ``theorem-c``, ``non-uniqueness``, ``alpha2``.

Every check is graded against the pinned bound its scenario records in
the manifest; no option rescales it.

Exit codes: 0 when every recorded check passed, 2 for configuration
errors (unknown key, bad value, unreadable file), 3 for numerical
failures or failed checks.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import SCENARIOS, load_config
from .errors import ConfigError
from .scenarios import run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorblab",
        description="Absorption-threshold lab: run a scenario and write CSV + manifest.",
    )
    parser.add_argument("--version", action="version", version=f"absorblab {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", metavar="PATH", default=None,
                       help="flat key = value config file (defaults apply if omitted)")
        p.add_argument("--out", metavar="DIR", default=f"out-{name}",
                       help="output directory (created if missing)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.scenario, args.config)
        manifest = run_scenario(config, args.out)
    except ConfigError as exc:
        print(f"absorblab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ImportError:  # scipy loads on first use; a broken install is no numerical failure
        raise
    except Exception as exc:  # typed solver errors and anything unexpected alike
        print(f"absorblab: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    failed = [name for name, ok in manifest.checks.items() if not ok]
    if failed:
        print(
            f"absorblab: {len(failed)} check(s) failed: {', '.join(sorted(failed))}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    print(f"absorblab: {args.scenario}: all {len(manifest.checks)} checks passed "
          f"({args.out}/manifest.json)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
