"""Layer microbenchmark of the forecast kernels and the quadrature oracles.

Times the Lorenz-96 drift (36 dimensions, n = 200, 1000 and 3000 members,
written into one reused buffer), one stochastic-Heun forecast interval (90
steps of 0.01, the ``l96-rmse-sweep`` interval) on 36x1000, 36x2000 and
36x3000 (the block and its augmented sizes), and one adaptive DP45
interval (0.8 time units at rtol 1e-6, atol 1e-9, the ``l96-adaptive-aug``
interval) on 36x200 (the forecast block) and on 36x600 (the block
augmented threefold).
For ``oracle-1e5``'s layers it times building the 2048-point bimodal joint
(in product form: the prior, the conditional and the total, with its
y-marginal), and the scenario's own path on it: that build, the Bayes
posterior and the nine limit densities of ``bimodal-oracle-check`` in one
``limit_pdfs`` call (the last entry uses the marginal's scale in place of
the sample's), with the ``tracemalloc`` peak of one extra untimed run.
Beside it, the same nine limits on the table form: the joint's table is
built once before timing, and a fresh ``JointGrid`` over it is made inside
the timed call, so its y-marginal is not cached yet; the ``tracemalloc``
peak is that of one extra untimed call on a joint made before tracing
starts.
The oracle layers run on every usable CPU, as the scenario does on a
one-replicate run.  Then the Lorenz-63
drift, one stochastic-Heun step (a one-step ``integrate`` call) and one
forecast interval (100 steps; dt 0.01, sigma 0.01, the ``l63-limit-dist``
interval) on a 3x1e5 block, and the KS distance between 1e5 samples and
the 2048-point limit density.
For the update path it times the sample Kalman gain, the lambda bisection
(target n_e 50) and one trimmed update (with that bisection) on a 36x1000
L96 joint observed at every other component, and multinomial resampling
of 1e5 indices from 1e5 weights.
Finally it times ``import trimkf, trimkf.experiments`` in ``--repeats``
fresh interpreters (the import alone, not the interpreter start-up) and
reports the median peak RSS of those interpreters after the import.  The
peak is read from ``VmHWM`` in ``/proc/self/status`` (Linux): a child's
``ru_maxrss`` starts at its parent's high-water mark, which here is the
size of this benchmark, not of the import.
Each layer reports the median wall time of ``--repeats`` runs and the
minor page faults and system time per run, from ``getrusage`` deltas of
this process.  Each DP45 interval also reports its drift calls and its
attempted steps, counted in one extra untimed run, and its median time per
attempt.  Prints one JSON document on stdout.

    PYTHONPATH=src python bench/layers.py [--repeats 15] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from trimkf import integrators
from trimkf.ensemble import Ensemble, JointEnsemble, kalman_gain, resample_indices
from trimkf.filters import TrimConfig, adapt_lambda, tenkf_update, trim_distance
from trimkf.integrators import IntegratorConfig, integrate
from trimkf.metrics import ks_distance
from trimkf.models import (
    DynModel,
    Lorenz63Params,
    Lorenz96Params,
    l63_drift,
    l96_drift,
    lorenz63_model,
    lorenz96_model,
    observe,
    select_observer,
)
from trimkf.oracle import JointGrid, bayes_posterior, bimodal_toy, limit_pdfs

DIM = 36


def _attractor_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` members scattered around one state on the L96 attractor."""
    x = 8.0 + 0.01 * rng.standard_normal(DIM)
    x = integrate(lorenz96_model(Lorenz96Params()), x, 0.0, 10.0,
                  IntegratorConfig(scheme="stochastic-heun", dt=0.01))
    return x[:, None] + 0.5 * rng.standard_normal((DIM, n))


def _drift_calls(x: np.ndarray, p: Lorenz96Params, calls: int) -> None:
    # Many calls per run: one call at n=200 takes microseconds.  Every call
    # writes into the same buffer, as a stepper's work slot is reused.
    out = np.empty_like(x)
    for _ in range(calls):
        l96_drift(x, p, out)


def _dp45_counts(model, x, t1, cfg) -> dict:
    """Drift calls and attempted steps of one DP45 interval."""
    calls = attempts = 0

    def drift(x, t, out):
        nonlocal calls
        calls += 1
        return model.drift(x, t, out)

    def stages(*args):
        nonlocal attempts
        attempts += 1
        return dp_stages(*args)

    dp_stages = integrators._dp_stages
    integrators._dp_stages = stages
    try:
        integrate(DynModel(drift=drift), x, 0.0, t1, cfg)
    finally:
        integrators._dp_stages = dp_stages
    return {"drift_calls": calls, "attempts": attempts}


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


def _traced_peak(fn) -> float:
    """The ``tracemalloc`` peak of one call of ``fn``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _import_layer(repeats: int) -> dict:
    code = ("import time; t0 = time.perf_counter();"
            "import trimkf, trimkf.experiments;"
            "t = time.perf_counter() - t0;"
            "hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')];"
            "print(t, hwm[0])")
    times, rss_kb = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout.split()
        times.append(float(out[0]))
        rss_kb.append(int(out[1]))
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "peak_rss_mb": statistics.median(rss_kb) / 1024,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    layers = {}

    p = Lorenz96Params()
    for n in (200, 1000, 3000):
        x = _attractor_block(n, rng)
        layers[f"l96_drift_n{n}_x100"] = _measure(
            lambda x=x: _drift_calls(x, p, 100), args.repeats
        )

    sde = lorenz96_model(Lorenz96Params(sigma=0.01))
    heun = IntegratorConfig(scheme="stochastic-heun", dt=0.01)
    x = _attractor_block(1000, rng)
    step_rng = np.random.default_rng(args.seed + 1)
    layers["heun_interval_90x_n1000"] = _measure(
        lambda: integrate(sde, x, 0.0, 0.9, heun, step_rng), args.repeats
    )
    # The augmented sizes draw from generators of their own, so that every
    # other layer keeps its inputs.
    aug_rng = np.random.default_rng(args.seed + 2)
    for n in (2000, 3000):
        x = _attractor_block(n, aug_rng)
        layers[f"heun_interval_90x_n{n}"] = _measure(
            lambda x=x: integrate(sde, x, 0.0, 0.9, heun, aug_rng), args.repeats
        )

    ode = lorenz96_model(p)
    dp45 = IntegratorConfig(scheme="rk45-adaptive", dt=0.01, rtol=1e-6, atol=1e-9)
    block = _attractor_block(600, rng)
    for label, x in (("n200", block[:, :200].copy()), ("n600", block)):
        name = f"dp45_interval_0.8_{label}"
        layers[name] = _measure(lambda x=x: integrate(ode, x, 0.0, 0.8, dp45), args.repeats)
        layers[name].update(_dp45_counts(ode, x, 0.8, dp45))
        layers[name]["us_per_attempt"] = 1e6 * layers[name]["median_s"] / layers[name]["attempts"]

    layers["bimodal_toy_2048"] = _measure(lambda: bimodal_toy(points=2048), args.repeats)
    toy = bimodal_toy(points=2048)
    j, gain, y_star = toy.joint, toy.exact_gain, toy.y_star
    trims = [None, (1e9, None), (0.02, None)] + [
        (lam, None) for lam in (10.0, 1.0, 0.3, 0.1, 0.03)] + [(0.3, None)]

    def bimodal_path():
        path = bimodal_toy(points=2048)
        bayes_posterior(path.joint, y_star)
        limit_pdfs(path.joint, gain, y_star, trims)

    layers["bimodal_path_2048"] = _measure(bimodal_path, args.repeats)
    layers["bimodal_path_2048"]["traced_peak_mib"] = _traced_peak(bimodal_path)
    table = j.pdf  # built on every read of a product-form joint
    layers["limit_pdfs_9_2048"] = _measure(
        lambda: limit_pdfs(JointGrid(j.x, j.y, table), gain, y_star, trims), args.repeats
    )
    fresh = JointGrid(j.x, j.y, table)
    layers["limit_pdfs_9_2048"]["traced_peak_mib"] = _traced_peak(
        lambda: limit_pdfs(fresh, gain, y_star, trims))
    del table, fresh

    p63 = Lorenz63Params(sigma=0.01)
    x = np.array([[1.5], [-1.5], [25.0]]) + rng.standard_normal((3, 100_000))
    out = np.empty_like(x)
    layers["l63_drift_3x1e5"] = _measure(lambda: l63_drift(x, p63, out), args.repeats)
    l63 = lorenz63_model(p63)
    layers["heun_step_3x1e5"] = _measure(
        lambda: integrate(l63, x, 0.0, 0.01, heun, step_rng), args.repeats
    )
    layers["heun_interval_100x_3x1e5"] = _measure(
        lambda: integrate(l63, x, 0.0, 1.0, heun, aug_rng), args.repeats
    )

    [limit] = limit_pdfs(j, gain, y_star, [(0.3, None)])
    samples, _ = toy.sample(100_000, rng)
    layers["ks_distance_1e5"] = _measure(lambda: ks_distance(samples, limit), args.repeats)

    meas = select_observer(DIM, np.arange(0, DIM, 2), noise_std=0.05)
    states = _attractor_block(1000, rng)
    joint = JointEnsemble(Ensemble(states), observe(meas, states, rng))
    y_star = observe(meas, states[:, 0], rng)
    trim = TrimConfig(target_ne=50.0)
    d = trim_distance(joint.observations, y_star, joint.observations.std(axis=1, ddof=1))
    layers["kalman_gain_36x1000"] = _measure(lambda: kalman_gain(joint), args.repeats)
    layers["adapt_lambda_n1000"] = _measure(lambda: adapt_lambda(d, 50.0), args.repeats)
    layers["tenkf_update_36x1000"] = _measure(
        lambda: tenkf_update(joint, y_star, trim, step_rng), args.repeats
    )
    w = rng.random(100_000)
    w /= w.sum()
    layers["resample_indices_1e5"] = _measure(
        lambda: resample_indices(w, 100_000, step_rng), args.repeats
    )
    layers["import_trimkf"] = _import_layer(args.repeats)

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
