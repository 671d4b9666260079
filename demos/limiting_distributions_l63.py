"""Limiting distributions on the stochastic Lorenz-63 system.

A single noisy observation of the second state component is assimilated at
t = 1 after a chaotic stochastic forecast from a tight Gaussian prior.  The
forecast marginal is visibly non-Gaussian, so the plain ensemble update is
biased; trimming with decreasing lambda walks the posterior from the EnKF
answer to the particle-filter (exact Bayes) answer.

Runs at a reduced ensemble size in a few seconds; writes
``l63_limiting_distributions.png`` when matplotlib is available.
"""

import numpy as np

from trimkf import (
    Ensemble, IntegratorConfig, Lorenz63Params, TrimConfig,
    enkf_update, forecast, integrate, ks_distance, lorenz63_model,
    pf_update, select_observer, tenkf_update,
)

N_MEMBERS = 40_000
TAU = 0.2
LAMBDAS = [10.0, 3.0, 1.0, 0.5, 0.3]

rng = np.random.default_rng([25, 0, 0])
dyn = lorenz63_model(Lorenz63Params(sigma=0.01))
meas = select_observer(3, [1], noise_std=TAU)
cfg = IntegratorConfig(scheme="stochastic-heun", dt=0.01)

# Truth: drawn near (1.5, 1.5, 25), observed at t=0 to anchor the prior,
# then advanced to t=1 where the assimilated measurement is taken.
truth0 = np.array([1.5, 1.5, 25.0]) + 0.1 * rng.standard_normal(3)
y0 = truth0[1] + TAU * rng.standard_normal()
truth1 = integrate(dyn, truth0, 0.0, 1.0, cfg, rng)
y_star = np.array([truth1[1] + TAU * rng.standard_normal()])
print(f"truth x2(1) = {truth1[1]:+.3f}, measured y* = {y_star[0]:+.3f}")

rng_fc = np.random.default_rng([25, 0, 1])
members = np.empty((3, N_MEMBERS))
members[0] = 1.5 + 0.1 * rng_fc.standard_normal(N_MEMBERS)
members[1] = y0 + TAU * rng_fc.standard_normal(N_MEMBERS)
members[2] = 25.0 + 0.1 * rng_fc.standard_normal(N_MEMBERS)
joint = forecast(Ensemble(members), dyn, meas, cfg, 1.0, rng_fc)

pf = pf_update(joint, y_star, meas, np.random.default_rng([25, 0, 3]))
reference = pf.posterior.members[1]
print(f"particle filter reference: effective size {pf.n_e:.0f}")

posteriors = {"enkf": enkf_update(joint, y_star).posterior.members[1]}
for lam in LAMBDAS:
    st = tenkf_update(joint, y_star, TrimConfig(lam=lam),
                      np.random.default_rng([25, 0, 2, int(lam * 1e6)]))
    posteriors[f"tenkf lam={lam}"] = st.posterior.members[1]

print("\nKS distance to the particle-filter posterior (x2 marginal):")
for name, sample in posteriors.items():
    print(f"  {name:16s} {ks_distance(sample, reference):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4.5))
    lo, hi = np.percentile(reference, [0.2, 99.8])
    bins = np.linspace(lo - 0.3, hi + 0.3, 120)
    ax.hist(reference, bins=bins, density=True, alpha=0.35, label="PF (exact limit)")
    ax.hist(posteriors["enkf"], bins=bins, density=True, histtype="step",
            lw=2, label="EnKF")
    for lam in (LAMBDAS[0], LAMBDAS[-1]):
        ax.hist(posteriors[f"tenkf lam={lam}"], bins=bins, density=True,
                histtype="step", lw=1.2, label=f"TEnKF lam={lam}")
    ax.axvline(y_star[0], color="k", ls=":", label="measurement")
    ax.set_xlabel("x2 at t=1")
    ax.set_ylabel("posterior density")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("l63_limiting_distributions.png", dpi=130)
    print("\nwrote l63_limiting_distributions.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
