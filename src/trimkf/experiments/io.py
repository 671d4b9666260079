"""Result emission: delimited tables and the run metadata document.

Tables are UTF-8 comma-delimited text with a header row, ``.`` decimal
separator, and 17 significant digits for float columns, so reruns with the
same seed produce byte-identical files.  The metadata document wraps the
resolved configuration (reusable as a config file) and run bookkeeping.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .config import ExperimentConfig

__all__ = ["format_value", "write_table", "write_metadata"]


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def write_table(path: Path, columns: list[str], rows: list[dict]) -> Path:
    """Write dict-rows as a delimited table with a fixed column order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_metadata(
    out_dir: Path,
    config: ExperimentConfig,
    code_version: str,
    wall_clock_s: float,
    replicate_failures: list[str],
    checks: list[dict] | None = None,
) -> Path:
    """Emit ``metadata.json``: resolved config, overrides, and run record."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "config": config.as_document(),
        "overrides": list(config.overrides),
        "run": {
            "code_version": code_version,
            "wall_clock_s": wall_clock_s,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "replicate_failures": list(replicate_failures),
        },
    }
    if checks is not None:
        doc["run"]["checks"] = checks
    path = out_dir / "metadata.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
