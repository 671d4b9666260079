"""Error and distribution metrics for assimilation runs.

RMSE is taken over *all* ensemble members and state dimensions, not just
the ensemble mean (a mean-only variant is provided as a secondary column).
Each argument of the KS distance is a sample (any array of numbers) or a
tabulated :class:`~trimkf.oracle.DensityGrid`.
"""

from __future__ import annotations

import numpy as np

from .ensemble import Ensemble
from .oracle import DensityGrid

__all__ = [
    "ensemble_rmse",
    "ensemble_mean_rmse",
    "time_avg_rmse",
    "ks_distance",
    "replicate_quantiles",
]


def ensemble_rmse(e: Ensemble, truth: np.ndarray) -> float:
    """Root-mean-square distance of all members from the truth state."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (e.dim,):
        raise ValueError(f"truth shape {truth.shape} does not match state dim {e.dim}")
    dev = e.members - truth[:, None]
    return float(np.sqrt(np.mean(dev * dev)))


def ensemble_mean_rmse(e: Ensemble, truth: np.ndarray) -> float:
    """Root-mean-square error of the ensemble mean alone."""
    return ensemble_rmse(Ensemble(e.members.mean(axis=1, keepdims=True)), truth)


def time_avg_rmse(values: np.ndarray) -> float:
    """Quadratic time average: the root of the mean squared series value."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot average an empty RMSE series")
    return float(np.sqrt(np.mean(values * values)))


# ---------------------------------------------------------------------------
# Distribution distances
# ---------------------------------------------------------------------------


def _as_cdf(dist) -> tuple[np.ndarray, np.ndarray, bool]:
    """Canonicalize a distribution argument to (support, cdf, is_step).

    Accepts a sample (flattened) or a :class:`DensityGrid`.  Step CDFs
    (samples) jump at the support points; grid CDFs are piecewise linear.
    """
    if isinstance(dist, DensityGrid):
        return dist.x, dist.cdf(), False
    samples = np.asarray(dist, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("empty sample")
    s = np.sort(samples)
    if np.isnan(s[-1]):  # NaN sorts last
        raise ValueError("sample holds NaN")
    return s, np.arange(1, s.size + 1) / s.size, True


def _interp_cdf(x, support, cdf, is_step):
    if is_step:
        idx = np.searchsorted(support, x, side="right")
        return np.where(idx > 0, cdf[np.minimum(idx, cdf.size) - 1], 0.0)
    return np.interp(x, support, cdf, left=0.0, right=1.0)


def _sup_gap(points, a, b) -> float:
    """The largest ``|F_a - F_b|`` over ``points``, for ``_as_cdf`` triples."""
    return float(np.max(np.abs(_interp_cdf(points, *a) - _interp_cdf(points, *b))))


def ks_distance(a, b) -> float:
    """Kolmogorov-Smirnov distance between two 1-D distributions.

    Each argument is a sample (any array-like of numbers, tuples included,
    flattened) or a :class:`DensityGrid`.  The sup of the CDF difference is
    evaluated at all candidate points of both supports, approaching step
    jumps from both sides when a grid is involved.  A sample holding NaN
    raises ``ValueError``: it has no CDF.
    """
    a, b = _as_cdf(a), _as_cdf(b)
    # The sup over both supports is the larger of the sups over each: no
    # sorted union of the supports, nor a joined copy of them, is needed.
    d = max(_sup_gap(a[0], a, b), _sup_gap(b[0], a, b))
    if a[2] and b[2]:
        # Both CDFs are steps that only move at support points, so the pair
        # just below a point is the pair at the support point below it, or
        # (0, 0) below them all: the left limits add no new difference.
        return d
    # At a step jump the sup may be attained just below the point.
    return max(d, *(_sup_gap(x - np.spacing(np.abs(x) + 1.0), a, b) for x in (a[0], b[0])))


def replicate_quantiles(values: np.ndarray) -> np.ndarray:
    """Linear-interpolation quartiles of per-replicate aggregates."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one replicate")
    return np.quantile(values, (0.25, 0.5, 0.75), method="linear")
