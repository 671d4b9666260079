"""Layer microbenchmark of the forecast kernels.

Times the Lorenz-96 drift (36 dimensions, n = 200, 1000 and 3000 members),
one stochastic-Heun forecast interval (90 steps of 0.01 on 36x1000, the
``l96-rmse-sweep`` interval) and one adaptive DP45 interval (0.8 time units
on 36x200 at rtol 1e-6, atol 1e-9, the ``l96-adaptive-aug`` interval).
Each layer reports the median wall time of ``--repeats`` runs and the
minor page faults and system time per run, from ``getrusage`` deltas of
this process.  Prints one JSON document on stdout.

    PYTHONPATH=src python bench/layers.py [--repeats 15] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time

import numpy as np

from trimkf.integrators import IntegratorConfig, integrate
from trimkf.models import Lorenz96Params, l96_drift, lorenz96_model

DIM = 36


def _attractor_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` members scattered around one state on the L96 attractor."""
    x = 8.0 + 0.01 * rng.standard_normal(DIM)
    x = integrate(lorenz96_model(Lorenz96Params(dim=DIM)), x, 0.0, 10.0,
                  IntegratorConfig(scheme="rk4", dt=0.01))
    return x[:, None] + 0.5 * rng.standard_normal((DIM, n))


def _drift_calls(x: np.ndarray, p: Lorenz96Params, calls: int) -> None:
    # Many calls per run: one call at n=200 takes microseconds.  Results are
    # dropped as they come, as a stepper drops them.
    for _ in range(calls):
        l96_drift(x, p)


def _measure(fn, repeats: int) -> dict:
    fn()  # warm-up: first-touch faults and lazy imports are not per-run costs
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "minflt_per_run": (after.ru_minflt - before.ru_minflt) / repeats,
        "sys_s_per_run": (after.ru_stime - before.ru_stime) / repeats,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    layers = {}

    p = Lorenz96Params(dim=DIM)
    for n in (200, 1000, 3000):
        x = _attractor_block(n, rng)
        layers[f"l96_drift_n{n}_x100"] = _measure(
            lambda x=x: _drift_calls(x, p, 100), args.repeats
        )

    sde = lorenz96_model(Lorenz96Params(dim=DIM, sigma=0.01))
    heun = IntegratorConfig(scheme="stochastic-heun", dt=0.01)
    x = _attractor_block(1000, rng)
    step_rng = np.random.default_rng(args.seed + 1)
    layers["heun_interval_90x_n1000"] = _measure(
        lambda: integrate(sde, x, 0.0, 0.9, heun, step_rng), args.repeats
    )

    ode = lorenz96_model(p)
    dp45 = IntegratorConfig(scheme="rk45-adaptive", dt=0.01, rtol=1e-6, atol=1e-9)
    x = _attractor_block(200, rng)
    layers["dp45_interval_0.8_n200"] = _measure(
        lambda: integrate(ode, x, 0.0, 0.8, dp45), args.repeats
    )

    print(json.dumps({
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "repeats": args.repeats,
        "seed": args.seed,
        "layers": layers,
    }, indent=1))


if __name__ == "__main__":
    main()
