"""Limiting distributions on the stochastic Lorenz-63 system.

A single noisy observation of the second state component is assimilated at
t = 1 after a chaotic stochastic forecast from a tight Gaussian prior.  The
forecast marginal is visibly non-Gaussian, so the plain ensemble update is
biased; trimming with decreasing lambda walks the posterior from the EnKF
answer to the particle-filter (exact Bayes) answer.

Runs the ``l63-limit-dist`` scenario through the public runner at a reduced
ensemble size in a few seconds, prints its ``ks.csv`` and, when matplotlib
is available, draws ``histograms.csv`` into
``l63_limiting_distributions.png``.
"""

import csv
import tempfile
from pathlib import Path

from trimkf.experiments import run_scenario, validate_config

N_MEMBERS = 40_000


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def label(row):
    return f"tenkf lam={float(row['lam'])}" if row["lam"] else row["filter"]


with tempfile.TemporaryDirectory() as out:
    cfg = validate_config({"scenario": "l63-limit-dist", "seed": 25, "out_dir": out,
                           "params": {"n": N_MEMBERS}})
    result = run_scenario(cfg)
    if result.replicate_failures:
        raise SystemExit("\n".join(result.replicate_failures))
    ks_rows = read_table(Path(out) / "ks.csv")
    hist_rows = read_table(Path(out) / "histograms.csv")

print("KS distance to the particle-filter posterior (x2 marginal):")
for row in ks_rows:
    print(f"  {label(row):16s} {float(row['ks_to_pf']):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    # each filter's posterior density on the replicate's shared bins
    curves = {}
    for row in hist_rows:
        lo, hi, mass = (float(row[k]) for k in ("bin_lo", "bin_hi", "mass"))
        edges, density = curves.setdefault(label(row), ([lo], []))
        edges.append(hi)
        density.append(mass / (hi - lo))
    lams = cfg.params["lambdas"]

    fig, ax = plt.subplots(figsize=(8, 4.5))
    edges, density = curves["pf"]
    ax.stairs(density, edges, fill=True, alpha=0.35, label="PF (exact limit)")
    edges, density = curves["enkf"]
    ax.stairs(density, edges, lw=2, label="EnKF")
    for lam in (lams[0], lams[-1]):
        edges, density = curves[f"tenkf lam={float(lam)}"]
        ax.stairs(density, edges, lw=1.2, label=f"TEnKF lam={lam}")
    ax.set_xlabel("x2 at t=1")
    ax.set_ylabel("posterior density")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("l63_limiting_distributions.png", dpi=130)
    print("\nwrote l63_limiting_distributions.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
