"""Experiment configuration: JSON dialect, defaults, and validation.

A configuration document is a JSON object (dialect version 1):

.. code-block:: json

    {
      "config_version": 1,
      "scenario": "l63-limit-dist",
      "seed": 20240501,
      "out_dir": "results/l63",
      "replicates": 1,
      "threads": 0,
      "params": { "n": 20000 }
    }

``params`` is the scenario stanza; every key it omits is defaulted from the
scenario's parameter table, and every key it sets is recorded as an
override in the run metadata.  Unknown keys anywhere are rejected.  A run's
emitted ``metadata.json`` wraps the fully resolved configuration under a
``"config"`` key and can be passed straight back to ``run --config``.

Each scenario declares its parameter table ``{key: (default, lowest)}``,
its default replicate count and its cross-field rule in its
``scenarios.SCENARIOS`` entry; this module checks the document around it.
A default's type decides what may replace it: a ``bool`` takes true/false,
an ``int`` an integer >= lowest, a ``float`` a finite number >= lowest,
and a list a non-empty list of distinct entries of its first entry's kind,
each >= lowest, no two of which share a ``stream_key``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

__all__ = [
    "CONFIG_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "validate_config",
    "load_config_file",
]

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Carries the full list of validation problems, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ExperimentConfig:
    """A fully resolved, validated experiment description."""

    scenario: str
    seed: int
    out_dir: str
    replicates: int
    threads: int
    params: dict
    overrides: list[str] = field(default_factory=list)
    config_version: int = CONFIG_VERSION

    def as_document(self) -> dict:
        """The configuration document this config resolves (its overrides
        are run bookkeeping, not part of it)."""
        doc = asdict(self)
        del doc["overrides"]
        return doc


_TOP_LEVEL_KEYS = {f.name for f in fields(ExperimentConfig)} - {"overrides"}


def stream_key(value: float) -> int:
    """Integer key material for deriving a random stream from a swept float:
    the value in steps of 1e-6, so values closer than that share a key."""
    return int(round(float(value) * 1e6))


def _number_problem(v, integer, lo):
    """Why ``v`` is not an acceptable number (``NaN``/``Infinity`` are not), or None."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        return f"expected {'an integer' if integer else 'a number'}, got {v!r}"
    if isinstance(v, float) and not math.isfinite(v):
        return f"must be finite, got {v!r}"
    if v < lo:
        return f"must be >= {lo}, got {v!r}"
    return None


def _param_problem(name: str, v, default, lo):
    """Why ``v`` is not acceptable for the parameter ``name`` whose table
    entry is ``(default, lo)`` (see the module docstring), or None.  List
    entries key random streams: a repeat would count its results twice."""
    if isinstance(default, bool):
        return None if isinstance(v, bool) else f"{name}: expected true/false, got {v!r}"
    if not isinstance(default, list):
        why = _number_problem(v, isinstance(default, int), lo)
        return why and f"{name}: {why}"
    if not isinstance(v, (list, tuple)) or not v:
        return f"{name}: expected a non-empty list"
    for i, entry in enumerate(v):
        why = _number_problem(entry, isinstance(default[0], int), lo)
        if why:
            return f"{name}[{i}]: {why}"
    repeated = sorted({e for e in v if v.count(e) > 1})
    if repeated:
        return f"{name}: value(s) {repeated} listed more than once"
    keys = [stream_key(e) for e in v]
    shared = sorted(e for e, key in zip(v, keys) if keys.count(key) > 1)
    if shared:
        return (f"{name}: values {shared} share one random stream "
                "(they round to one multiple of 1e-6)")
    return None


def _is_count(v, below=math.inf) -> bool:
    """Whether ``v`` is a non-negative integer (less than ``below``)."""
    return not isinstance(v, bool) and isinstance(v, int) and 0 <= v < below


def config_object(document) -> dict:
    """A document's configuration object: the document itself, or the
    ``"config"`` entry of a run's metadata document."""
    where = "document"
    if isinstance(document, dict) and "config" in document and "scenario" not in document:
        document, where = document["config"], "config"
    if not isinstance(document, dict):
        raise ConfigError([f"{where}: expected a JSON object"])
    return document


def validate_config(raw: dict) -> ExperimentConfig:
    """Resolve and range-check a raw configuration document.

    All problems are collected and reported together.  A metadata document
    (with the configuration nested under ``"config"``) is accepted directly.
    """
    from .scenarios import SCENARIOS  # scenarios imports this module

    raw = config_object(raw)
    errors: list[str] = []
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        errors.append(f"unknown top-level key(s): {sorted(unknown)}")

    version = raw.get("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        errors.append(f"config_version: expected {CONFIG_VERSION}, got {version!r}")

    name = raw.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        errors.append(f"scenario: unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
        raise ConfigError(errors)
    scenario = SCENARIOS[name]

    seed = raw.get("seed", 0)
    if not _is_count(seed, below=2**64):
        errors.append(f"seed: expected an unsigned 64-bit integer, got {seed!r}")

    out_dir = raw.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        errors.append(f"out_dir: expected a non-empty string, got {out_dir!r}")

    replicates = raw.get("replicates", scenario.replicates)
    most = scenario.max_replicates
    if not _is_count(replicates):
        errors.append(f"replicates: expected a non-negative integer, got {replicates!r}")
    elif most is not None and replicates > most:
        errors.append(f"replicates: {name} runs at most {most} replicate"
                      f"{'' if most == 1 else 's'}, got {replicates}")

    threads = raw.get("threads", 0)
    if not _is_count(threads):
        errors.append(f"threads: expected a non-negative integer (0 = auto), got {threads!r}")

    stanza = raw.get("params", {})
    if not isinstance(stanza, dict):
        errors.append(f"params: expected an object, got {type(stanza).__name__}")
        stanza = {}

    unknown_params = set(stanza) - set(scenario.params)
    if unknown_params:
        errors.append(f"params: unknown key(s) for scenario {name}: {sorted(unknown_params)}")

    params: dict = {}
    for key, (default, lo) in scenario.params.items():
        value = stanza.get(key, default)
        why = _param_problem(f"params.{key}", value, default, lo)
        if why:
            errors.append(why)
        params[key] = None if why else list(value) if isinstance(default, list) else value
    if scenario.rule is not None:
        scenario.rule(params, errors)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        scenario=name,
        seed=seed,
        out_dir=out_dir,
        replicates=replicates,
        threads=threads,
        params=params,
        overrides=sorted(set(stanza) & set(scenario.params)),
    )


def load_config_file(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
