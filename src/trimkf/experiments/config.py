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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CONFIG_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "validate_config",
    "load_config_file",
]

CONFIG_VERSION = 1

_TOP_LEVEL_KEYS = {
    "config_version",
    "scenario",
    "seed",
    "out_dir",
    "replicates",
    "threads",
    "params",
}


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
        return {
            "config_version": self.config_version,
            "scenario": self.scenario,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "replicates": self.replicates,
            "threads": self.threads,
            "params": dict(self.params),
        }


def _number_problem(v, integer=False, lo=None, hi=None):
    """Why ``v`` is not an acceptable number (``NaN``/``Infinity`` are not), or None."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        return f"expected {'an integer' if integer else 'a number'}, got {v!r}"
    if isinstance(v, float) and not math.isfinite(v):
        return f"must be finite, got {v!r}"
    if lo is not None and v < lo:
        return f"must be >= {lo}, got {v!r}"
    if hi is not None and v > hi:
        return f"must be <= {hi}, got {v!r}"
    return None


def _positive(name, lo=None, hi=None, integer=False):
    def check(value, errors):
        problem = _number_problem(value, integer, lo, hi)
        if problem:
            errors.append(f"params.{name}: {problem}")
            return None
        return value

    return check


def stream_key(value: float) -> int:
    """Integer key material for deriving a random stream from a swept float:
    the value in steps of 1e-6, so values closer than that share a key."""
    return int(round(float(value) * 1e6))


def _number_list(name, lo=None, integer=False, keyed=False):
    """A non-empty list of distinct numbers: a repeated entry would rerun the
    same random streams and count its results twice.  The entries of a
    ``keyed`` list each key a random stream by ``stream_key``, so they must
    not share a key either."""

    def check(value, errors):
        if not isinstance(value, (list, tuple)) or not value:
            errors.append(f"params.{name}: expected a non-empty list of numbers")
            return None
        for i, v in enumerate(value):
            problem = _number_problem(v, integer, lo=lo)
            if problem:
                errors.append(f"params.{name}[{i}]: {problem}")
                return None
        repeated = sorted({v for v in value if value.count(v) > 1})
        if repeated:
            errors.append(f"params.{name}: value(s) {repeated} listed more than once")
            return None
        keys = [stream_key(v) for v in value] if keyed else []
        shared = sorted(v for v, key in zip(value, keys) if keys.count(key) > 1)
        if shared:
            errors.append(
                f"params.{name}: values {shared} share one random stream "
                "(they round to one multiple of 1e-6)"
            )
            return None
        return list(value)

    return check


def _flag(name):
    def check(value, errors):
        if not isinstance(value, bool):
            errors.append(f"params.{name}: expected true/false, got {value!r}")
            return None
        return value

    return check


def _filters_list(allowed):
    def check(value, errors):
        if not isinstance(value, (list, tuple)) or not value:
            errors.append("params.filters: expected a non-empty list of filter names")
            return None
        bad = [v for v in value if v not in allowed]
        if bad:
            errors.append(f"params.filters: unknown filter(s) {bad}; allowed: {sorted(allowed)}")
            return None
        repeated = sorted({v for v in value if value.count(v) > 1})
        if repeated:
            errors.append(f"params.filters: filter(s) {repeated} listed more than once")
            return None
        return list(value)

    return check


# Per-scenario parameter tables: {key: (default, checker)}.  Defaults follow
# the published experiment tables, desk-scaled where noted in the README.
_SCENARIOS: dict[str, dict] = {
    "l63-limit-dist": {
        "alpha": (10.0, _positive("alpha")),
        "rho": (28.0, _positive("rho")),
        "beta": (8.0 / 3.0, _positive("beta", lo=1e-12)),
        "sigma": (0.01, _positive("sigma", lo=0.0)),
        "tau": (0.2, _positive("tau", lo=1e-12)),
        "t1": (1.0, _positive("t1", lo=1e-12)),
        "dt": (0.01, _positive("dt", lo=1e-12)),
        "n": (100_000, _positive("n", lo=2, integer=True)),
        "x1_0": (1.5, _positive("x1_0", lo=-1e12)),
        "x2_0": (1.5, _positive("x2_0", lo=-1e12)),
        "x3_0": (25.0, _positive("x3_0", lo=-1e12)),
        "sigma1_0": (0.1, _positive("sigma1_0", lo=0.0)),
        "sigma3_0": (0.1, _positive("sigma3_0", lo=0.0)),
        "lambdas": ([10.0, 3.0, 1.0, 0.5, 0.3], _number_list("lambdas", lo=1e-12, keyed=True)),
        "bins": (200, _positive("bins", lo=10, integer=True)),
        "filters": (["enkf", "tenkf", "pf"], _filters_list({"enkf", "tenkf", "pf"})),
    },
    "l96-rmse-sweep": {
        "N": (36, _positive("N", lo=4, integer=True)),
        "F": (8.0, _positive("F")),
        "t_f": (15.0, _positive("t_f", lo=1e-12)),
        "dt_obs": ([0.9], _number_list("dt_obs", lo=1e-12, keyed=True)),
        "dt": (0.01, _positive("dt", lo=1e-12)),
        "sigma": (0.01, _positive("sigma", lo=0.0)),
        "tau": (0.05, _positive("tau", lo=1e-12)),
        "n": ([100, 200, 400, 1000, 4000], _number_list("n", lo=2, integer=True)),
        "target_ne": (50.0, _positive("target_ne", lo=1.0)),
        "augment": (True, _flag("augment")),
        "d_max": (3.0, _positive("d_max", lo=1e-12)),
        "r_max": (3.0, _positive("r_max", lo=1.0)),
        "sigma_p": (0.4, _positive("sigma_p", lo=0.0)),
        "mu0": (1.0, _positive("mu0", lo=-1e12)),
        "mu1": (0.1, _positive("mu1", lo=-1e12)),
        "sigma0": (0.01, _positive("sigma0", lo=0.0)),
        "filters": (["enkf", "tenkf"], _filters_list({"enkf", "tenkf"})),
    },
    "l96-adaptive-aug": {
        "N": (36, _positive("N", lo=4, integer=True)),
        "F": (8.0, _positive("F")),
        "t_f": (32.0, _positive("t_f", lo=1e-12)),
        "dt_obs": ([0.8], _number_list("dt_obs", lo=1e-12, keyed=True)),
        "sigma": (0.0, _positive("sigma", lo=0.0)),
        "tau": (0.05, _positive("tau", lo=1e-12)),
        "n": (200, _positive("n", lo=2, integer=True)),
        "target_ne": (50.0, _positive("target_ne", lo=1.0)),
        "r_max": (3.0, _positive("r_max", lo=1.0)),
        "d_max": (3.0, _positive("d_max", lo=1e-12)),
        "sigma_p": (0.4, _positive("sigma_p", lo=0.0)),
        "mu0": (1.0, _positive("mu0", lo=-1e12)),
        "mu1": (0.1, _positive("mu1", lo=-1e12)),
        "sigma0": (0.01, _positive("sigma0", lo=0.0)),
        "rtol": (1e-6, _positive("rtol", lo=1e-14)),
        "atol": (1e-9, _positive("atol", lo=1e-16)),
        "dt_init": (0.01, _positive("dt_init", lo=1e-12)),
        "filters": (["enkf", "tenkf"], _filters_list({"enkf", "tenkf"})),
    },
    "linear-gaussian-check": {
        "A": (1.0, _positive("A", lo=-1e12)),
        "Q": (0.01, _positive("Q", lo=0.0)),
        "H": (1.0, _positive("H", lo=-1e12)),
        "R": (0.04, _positive("R", lo=1e-12)),
        "steps": (5, _positive("steps", lo=1, integer=True)),
        "n": (100_000, _positive("n", lo=2, integer=True)),
        "prior_mean": (0.0, _positive("prior_mean", lo=-1e12)),
        "prior_var": (1.0, _positive("prior_var", lo=1e-12)),
        "target_ne_fraction": (0.8, _positive("target_ne_fraction", lo=0.01, hi=1.0)),
        "se_factor": (4.0, _positive("se_factor", lo=1e-12)),
        "filters": (["enkf", "tenkf", "pf"], _filters_list({"enkf", "tenkf", "pf"})),
    },
    "bimodal-oracle-check": {
        "points": (2048, _positive("points", lo=64, integer=True)),
        "y_star": (1.5, _positive("y_star", lo=-1e12)),
        "n": (100_000, _positive("n", lo=2, integer=True)),
        "lambdas": ([10.0, 1.0, 0.3, 0.1, 0.03], _number_list("lambdas", lo=1e-12)),
        "lam_large": (1e9, _positive("lam_large", lo=1.0)),
        "lam_small": (0.02, _positive("lam_small", lo=1e-12)),
        "sample_lam": (0.3, _positive("sample_lam", lo=1e-12)),
        "ks_tol_large": (1e-4, _positive("ks_tol_large", lo=0.0)),
        "ks_tol_small": (0.02, _positive("ks_tol_small", lo=0.0)),
        "ks_tol_tenkf_sampling": (0.03, _positive("ks_tol_tenkf_sampling", lo=0.0)),
        "ks_tol_pf_sampling": (0.02, _positive("ks_tol_pf_sampling", lo=0.0)),
    },
}

_DEFAULT_REPLICATES = {
    "l63-limit-dist": 1,
    "l96-rmse-sweep": 30,
    "l96-adaptive-aug": 10,
    "linear-gaussian-check": 1,
    "bimodal-oracle-check": 1,
}


def _cross_checks(scenario: str, params: dict, errors: list[str]):
    if scenario in ("l96-rmse-sweep", "l96-adaptive-aug"):
        ns = params.get("n")
        ns = ns if isinstance(ns, list) else [ns]
        target = params.get("target_ne")
        if target is not None and ns and all(n is not None for n in ns):
            bad = [n for n in ns if target > n]
            if bad:
                errors.append(
                    f"params.target_ne: target_ne={target} exceeds ensemble size n={bad} "
                    "(requires target_ne <= n)"
                )
        if params.get("N") is not None and params["N"] % 2:
            errors.append("params.N: must be even (every other component is observed)")
        # AssimilationProblem.n_steps is floor(t_f / dt_obs + 1e-9): keep it >= 1
        t_f = params.get("t_f")
        long = [dt for dt in params.get("dt_obs") or [] if t_f and t_f / dt + 1e-9 < 1]
        if long:
            errors.append(f"params.t_f: t_f={t_f} is shorter than dt_obs={long} "
                          "(requires at least one observation)")


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
    raw = config_object(raw)
    errors: list[str] = []
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        errors.append(f"unknown top-level key(s): {sorted(unknown)}")

    version = raw.get("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        errors.append(f"config_version: expected {CONFIG_VERSION}, got {version!r}")

    scenario = raw.get("scenario")
    if scenario not in _SCENARIOS:
        errors.append(f"scenario: unknown scenario {scenario!r}; known: {sorted(_SCENARIOS)}")
        raise ConfigError(errors)

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        errors.append(f"seed: expected an unsigned 64-bit integer, got {seed!r}")

    out_dir = raw.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        errors.append(f"out_dir: expected a non-empty string, got {out_dir!r}")

    replicates = raw.get("replicates", _DEFAULT_REPLICATES[scenario])
    if isinstance(replicates, bool) or not isinstance(replicates, int) or replicates < 0:
        errors.append(f"replicates: expected a non-negative integer, got {replicates!r}")
    elif scenario == "bimodal-oracle-check" and replicates > 1:
        errors.append(f"replicates: {scenario} runs at most 1 replicate, got {replicates}")

    threads = raw.get("threads", 0)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 0:
        errors.append(f"threads: expected a non-negative integer (0 = auto), got {threads!r}")

    stanza = raw.get("params", {})
    if not isinstance(stanza, dict):
        errors.append(f"params: expected an object, got {type(stanza).__name__}")
        stanza = {}

    table = _SCENARIOS[scenario]
    unknown_params = set(stanza) - set(table)
    if unknown_params:
        errors.append(f"params: unknown key(s) for scenario {scenario}: {sorted(unknown_params)}")

    params: dict = {}
    overrides: list[str] = []
    for key, (default, checker) in table.items():
        if key in stanza:
            value = checker(stanza[key], errors)
            overrides.append(key)
        else:
            value = list(default) if isinstance(default, list) else default
        params[key] = value
    _cross_checks(scenario, params, errors)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        scenario=scenario,
        seed=seed,
        out_dir=out_dir,
        replicates=replicates,
        threads=threads,
        params=params,
        overrides=sorted(overrides),
    )


def load_config_file(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
