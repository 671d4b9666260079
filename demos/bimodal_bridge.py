"""The lambda bridge on a bimodal toy problem, by quadrature.

The prior is a symmetric two-mode Gaussian mixture observed with additive
Gaussian noise.  Conditioning on y* = 1.5 puts almost all posterior mass on
the right mode, but the plain linear update's limiting density smears mass
between the modes.  The trimmed update's limiting density interpolates: at
large lambda it equals the plain limit, at small lambda the exact
posterior, and its KS distance to the posterior shrinks monotonically as
lambda decreases.

Pure quadrature; runs in seconds.  Writes ``bimodal_bridge.png`` when
matplotlib is available.
"""


from trimkf import bayes_posterior, bimodal_toy, ks_distance, limit_pdfs

LAMBDAS = [10.0, 1.0, 0.3, 0.1, 0.03]

toy = bimodal_toy(points=2048)
joint, gain, y_star = toy.joint, toy.exact_gain, toy.y_star
posterior = bayes_posterior(joint, y_star)
# the plain limit and every trimmed curve in one pass over the joint
plain_limit, *curve_list = limit_pdfs(joint, gain, y_star, [None] + [(lam, None) for lam in LAMBDAS])
curves = dict(zip(LAMBDAS, curve_list))

print(f"exact posterior: mean {posterior.mean():+.3f}, std {posterior.std():.3f}")
print(f"plain-update limit: mean {plain_limit.mean():+.3f}, "
      f"KS to posterior {ks_distance(plain_limit, posterior):.4f}\n")

print("lambda    KS(trimmed limit, posterior)")
for lam, curve in curves.items():
    print(f"{lam:7.2f}   {ks_distance(curve, posterior):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4.5))
    keep = (posterior.x > -5) & (posterior.x < 5)
    x = posterior.x[keep]
    ax.plot(x, posterior.pdf[keep], "k", lw=2, label="exact posterior")
    ax.plot(x, plain_limit.pdf[keep], lw=2, label="plain-update limit")
    for lam in (1.0, 0.1):
        ax.plot(x, curves[lam].pdf[keep], "--", label=f"trimmed, lam={lam}")
    ax.set_xlabel("state")
    ax.set_ylabel("density")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("bimodal_bridge.png", dpi=130)
    print("\nwrote bimodal_bridge.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
