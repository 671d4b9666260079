"""Result emission: delimited tables and the run metadata document.

Tables are UTF-8 comma-delimited text with a header row, ``.`` decimal
separator, and 17 significant digits for float columns, so reruns with the
same seed produce byte-identical files.  The metadata document wraps the
resolved configuration (reusable as a config file) and run bookkeeping.
"""

from __future__ import annotations

import json
import math
import resource
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


def _strict(v):
    """``v`` for strict JSON: a non-finite float becomes the string that
    ``checks.csv`` holds (``inf``, ``-inf`` or ``nan``)."""
    return format_value(v) if isinstance(v, float) and not math.isfinite(v) else v


def write_table(path: Path, columns: list[str], rows: list[dict]) -> Path:
    """Write dict-rows as a delimited table with a fixed column order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _peak_rss_mb(usage: resource.struct_rusage) -> float:
    """``ru_maxrss`` of ``usage`` in MiB; Linux reports it in KiB."""
    return usage.ru_maxrss / 1024.0


def write_metadata(
    out_dir: Path,
    config: ExperimentConfig,
    code_version: str,
    wall_clock_s: float,
    replicate_failures: list[str],
    checks: list[dict] | None = None,
    children_at_start: resource.struct_rusage | None = None,
) -> Path:
    """Emit ``metadata.json``: resolved config, overrides, and run record.

    The record's ``peak_rss_mb`` holds the peak resident memory so far of
    this process (``process``) and of its largest child process waited for,
    such as a forked worker (``workers``).  ``workers`` is 0 if no child
    exited since ``children_at_start``, the ``RUSAGE_CHILDREN`` usage when
    the run began: on Linux that usage is not 0 even at process start, as
    it carries the launcher's children across its exec.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    doc = {
        "config": config.as_document(),
        "overrides": list(config.overrides),
        "run": {
            "code_version": code_version,
            "wall_clock_s": wall_clock_s,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "replicate_failures": list(replicate_failures),
            "peak_rss_mb": {
                "process": _peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF)),
                "workers": 0.0 if children == children_at_start else _peak_rss_mb(children),
            },
        },
    }
    if checks is not None:
        doc["run"]["checks"] = [{k: _strict(v) for k, v in row.items()} for row in checks]
    path = out_dir / "metadata.json"
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path
