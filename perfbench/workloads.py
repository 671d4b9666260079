"""The benchmark's workloads: pinned scenario configurations per name.

Each workload is an ordered list of configuration documents that go
through the public runner (``validate_config`` then ``run_scenario``) in one
child process.  Parameters not listed keep their scenario defaults.  The
master seed of every document is the benchmark's ``--seed``.

``QUICK`` holds tiny versions of the same workloads, used by the
benchmark's own check (``run.py --check``) so that it finishes in seconds.
"""

from __future__ import annotations

WORKLOADS = {
    # Stochastic Heun forecasting of 36 x 1000..3000 member blocks, on the
    # replicate thread pool the way users run sweeps.
    "l96-sde-sweep": [
        {
            "scenario": "l96-rmse-sweep",
            "replicates": 2,
            "threads": 2,
            "params": {"n": [1000], "dt_obs": [0.9], "t_f": 5.4},
        }
    ],
    # Adaptive DP45 on small blocks: per-call overhead dominates.  Four
    # 5-cycle replicates rather than one of 20 cycles: the DP45 work of a
    # single replicate depends on its seed (some seeds take 25% fewer
    # steps), and four replicates average that out.
    "l96-ode-aug": [
        {
            "scenario": "l96-adaptive-aug",
            "replicates": 4,
            "threads": 1,
            "params": {"dt_obs": [0.8], "t_f": 4.0, "n": 200},
        }
    ],
    # Update path and quadrature oracles; no L96 kernel and no DP45.
    "oracle-1e5": [
        {"scenario": "l63-limit-dist", "replicates": 1, "threads": 1, "params": {"n": 100_000}},
        {"scenario": "linear-gaussian-check", "replicates": 1, "threads": 1,
         "params": {"n": 100_000}},
        {"scenario": "bimodal-oracle-check", "replicates": 1, "threads": 1, "params": {}},
    ],
}

QUICK = {
    "l96-sde-sweep": [
        {
            "scenario": "l96-rmse-sweep",
            "replicates": 2,
            "threads": 2,
            "params": {"n": [60], "dt_obs": [0.3], "t_f": 0.9, "target_ne": 20.0},
        }
    ],
    "l96-ode-aug": [
        {
            "scenario": "l96-adaptive-aug",
            "replicates": 1,
            "threads": 1,
            "params": {"dt_obs": [0.4], "t_f": 0.8, "n": 40, "target_ne": 20.0},
        }
    ],
    "oracle-1e5": [
        {"scenario": "l63-limit-dist", "replicates": 1, "threads": 1, "params": {"n": 2000}},
        {"scenario": "linear-gaussian-check", "replicates": 1, "threads": 1,
         "params": {"n": 4000}},
        {"scenario": "bimodal-oracle-check", "replicates": 1, "threads": 1, "params": {}},
    ],
}


def documents(workload: str, seed: int, out_root: str, quick: bool = False) -> list[dict]:
    """The configuration documents of ``workload`` for ``seed``.

    Each scenario writes into its own directory under ``out_root``.
    """
    table = QUICK if quick else WORKLOADS
    docs = []
    for spec in table[workload]:
        docs.append({**spec, "params": dict(spec["params"]), "config_version": 1,
                     "seed": seed, "out_dir": f"{out_root}/{spec['scenario']}"})
    return docs
