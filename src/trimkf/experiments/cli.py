"""Command-line entry point.

Subcommands::

    trimkf run --config CFG.json [--seed N] [--out DIR] [--replicates N] [--threads N]
    trimkf validate --config CFG.json
    trimkf list-scenarios

Exit codes: 0 all good (including any embedded oracle checks), 1 config
error, 2 runtime failure (a crash or failed replicates), 3 an embedded
acceptance check failed.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from .. import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_object,
    load_config_file,
    validate_config,
)
from .io import write_metadata
from .scenarios import SCENARIOS, run_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimkf",
        description="Sequential data-assimilation experiments (EnKF / trimmed EnKF / PF)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is absent from the namespace; one given overrides
    # the config key it is stored under
    run_p = sub.add_parser("run", help="run a configured scenario",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--config", required=True, help="path to a JSON config or metadata file")
    run_p.add_argument("--seed", type=int, help="override the master seed")
    run_p.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="override the output directory")
    run_p.add_argument("--replicates", type=int, help="override replicate count")
    run_p.add_argument(
        "--threads", type=int,
        help="workers (0 = one per usable CPU) for the replicates, or for the Lorenz-96 "
             "truths and filter runs of all replicates: threads, each with a CPU share "
             "that draws Heun noise ahead and runs a replicate's independent updates and "
             "the oracle's block passes; l96-adaptive-aug's go to THREADS x max(1, "
             "CPUs // THREADS) processes, the caller and forked workers, one CPU each; "
             "the results are the same",
    )

    val_p = sub.add_parser("validate", help="validate a config file and echo the resolved values")
    val_p.add_argument("--config", required=True, help="path to a JSON config file")

    sub.add_parser("list-scenarios", help="list available scenarios")
    return parser


def _load(args) -> ExperimentConfig:
    """The validated config of ``args.config`` with the options given on
    the command line in place of its keys."""
    raw = dict(config_object(load_config_file(args.config)))
    raw.update((k, v) for k, v in vars(args).items() if k not in ("command", "config"))
    return validate_config(raw)


def _cmd_run(cfg: ExperimentConfig) -> int:
    start, children = time.perf_counter(), resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        result = run_scenario(cfg)
        write_metadata(cfg.out_dir, cfg, __version__, time.perf_counter() - start,
                       result.replicate_failures, result.checks, children)
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for f in result.files:
        print(f"wrote {f}")
    print(f"wrote {cfg.out_dir}/metadata.json")

    if result.replicate_failures:
        for failure in result.replicate_failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return EXIT_RUNTIME
    if result.checks is not None:
        for c in result.checks:
            status = "pass" if c["ok"] else "FAIL"
            print(f"{status}: {c['check']} (value={c['value']:.6g}, tol={c['tolerance']:.6g})")
        if not all(c["ok"] for c in result.checks):
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_validate(cfg: ExperimentConfig) -> int:
    print(f"scenario:   {cfg.scenario}")
    print(f"seed:       {cfg.seed}")
    print(f"out_dir:    {cfg.out_dir}")
    print(f"replicates: {cfg.replicates}")
    print(f"threads:    {cfg.threads}")
    print(f"overrides:  {', '.join(cfg.overrides) if cfg.overrides else '(none)'}")
    for key in sorted(cfg.params):
        print(f"params.{key} = {cfg.params[key]}")
    return EXIT_OK


def _cmd_list() -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        print(f"{name:<{width}}  {SCENARIOS[name].description}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        return _cmd_list()
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return (_cmd_run if args.command == "run" else _cmd_validate)(cfg)


if __name__ == "__main__":
    sys.exit(main())
