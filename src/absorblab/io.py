"""Deterministic artifact writers: CSV tables and JSON run manifests.

CSV: UTF-8, LF line endings, header row, floats at 17 significant digits
(lossless for doubles, so emitted files re-parse bit-identically).
Manifest: stable JSON (sorted keys, no timestamps), echoing the resolved
config, tool version, every tolerance used, the pass/fail state of each
scenario check, and the list of emitted files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, config_echo
from .errors import AbsorbLabError


class OutputError(AbsorbLabError):
    """Raised when an artifact cannot be written; carries the path."""


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write a table; floats rendered with 17 significant digits."""
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                if len(row) != len(header):
                    raise OutputError(
                        f"{p}: row of length {len(row)} does not match header {header}"
                    )
                fh.write(",".join(_cell(v) for v in row) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write CSV {p}: {exc}") from exc
    return p


def parse_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read back an emitted table (for round-trip verification)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot read CSV {p}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines else []
    return header, [line.split(",") for line in lines[1:]]


@dataclass
class RunManifest:
    """Everything needed to audit one scenario run."""

    config: ExperimentConfig
    tolerances: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def record_file(self, path: Path) -> None:
        self.files.append(path.name)

    def record_check(self, name: str, passed: bool, tolerance: float | None = None) -> None:
        self.checks[name] = bool(passed)
        if tolerance is not None:
            self.tolerances[name] = float(tolerance)

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        doc = {
            "tool": "absorblab",
            "version": __version__,
            "scenario": self.config.scenario,
            "config": config_echo(self.config),
            "tolerances": self.tolerances,
            "checks": self.checks,
            "files": sorted(self.files),
            "notes": self.notes,
            "status": "pass" if self.all_passed else "fail",
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_manifest(manifest: RunManifest, out_dir: str | Path) -> Path:
    p = Path(out_dir) / "manifest.json"
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(manifest.to_json(), encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError(f"cannot write manifest {p}: {exc}") from exc
    return p
