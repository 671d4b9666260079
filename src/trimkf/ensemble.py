"""Ensemble containers and weighted-sample primitives.

States are stored column-wise: an ensemble of ``n`` members in ``N``
dimensions is an ``(N, n)`` array, so member ``i`` is column ``i``.  All
routines here are pure functions of their inputs plus an explicit
``numpy.random.Generator``; nothing keeps hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ensemble",
    "JointEnsemble",
    "EnsembleError",
    "GainError",
    "cross_covariance",
    "kalman_gain",
    "normalize_weights",
    "effective_size",
    "resample_indices",
]

# Weights below this are clamped to zero to avoid denormal noise.
_WEIGHT_FLOOR = 1e-300
_NORMALIZATION_TOL = 1e-12
# Diagonal regularization of the observation covariance, relative to its
# mean diagonal entry.
_GAIN_JITTER = 1e-10


class EnsembleError(ValueError):
    """Raised when an ensemble violates a structural precondition."""


class GainError(np.linalg.LinAlgError):
    """Raised when the observation covariance cannot be factorized."""


@dataclass(frozen=True)
class Ensemble:
    """A column-wise sample of state vectors.

    Parameters
    ----------
    members : ndarray, shape (N, n)
        One state vector per column.
    """

    members: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.members, dtype=float)
        if m.ndim != 2:
            raise EnsembleError(f"members must be 2-D (N, n), got shape {m.shape}")
        if m.shape[1] < 1:
            raise EnsembleError("ensemble must contain at least one member")
        if not np.all(np.isfinite(m)):
            raise EnsembleError("ensemble members must be finite")
        object.__setattr__(self, "members", m)

    @property
    def dim(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        return self.members.shape[1]


@dataclass(frozen=True)
class JointEnsemble:
    """Paired state and observed-forecast samples.

    Column ``i`` of ``states.members`` and of ``observations`` belong to the
    same member; every operation here preserves that pairing.
    """

    states: Ensemble
    observations: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2:
            raise EnsembleError(f"observations must be 2-D (M, n), got shape {obs.shape}")
        if obs.shape[1] != self.states.size:
            raise EnsembleError(
                f"state and observation member counts differ: "
                f"{self.states.size} vs {obs.shape[1]}"
            )
        if not np.all(np.isfinite(obs)):
            raise EnsembleError("observed forecasts must be finite")
        object.__setattr__(self, "observations", obs)

    @property
    def size(self) -> int:
        return self.states.size


def cross_covariance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unbiased sample cross-covariance of two column-wise samples.

    Parameters
    ----------
    x : ndarray, shape (N, n)
    y : ndarray, shape (M, n)

    Returns
    -------
    ndarray, shape (N, M)
        ``(x - mean(x)) @ (y - mean(y)).T / (n - 1)``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = x.shape[1]
    if y.shape[1] != n:
        raise EnsembleError(f"member counts differ: {n} vs {y.shape[1]}")
    if n < 2:
        raise EnsembleError("covariance estimation needs at least two members")
    # ``y`` is centered into its own array even when it is ``x``: with one
    # array on both sides, ``@`` takes BLAS's symmetric rank-k (syrk) path,
    # whose sums differ from the general product's in the last bits.
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean(axis=1, keepdims=True)
    return dx @ dy.T / (n - 1)


def kalman_gain(joint: JointEnsemble) -> np.ndarray:
    """Sample Kalman gain ``C_xy @ C_yy^{-1}`` from a joint forecast ensemble.

    The observation covariance is regularized with ``1e-10 * trace / M`` on
    the diagonal before the solve; an explicit inverse is never formed.  A
    constant observation ensemble (zero covariance) yields a zero gain, which
    makes the zero-innovation update a no-op.

    Raises
    ------
    GainError
        If the regularized observation covariance cannot be solved; the
        message carries the condition-number diagnostic.
    """
    x = joint.states.members
    y = joint.observations
    c_xy = cross_covariance(x, y)
    c_yy = cross_covariance(y, y)
    m = c_yy.shape[0]
    tr = float(np.trace(c_yy))
    if tr == 0.0:
        if np.all(c_xy == 0.0):
            return np.zeros((x.shape[0], m))
        raise GainError("observation ensemble is constant but cross-covariance is not zero")
    c_reg = c_yy + (_GAIN_JITTER * tr / m) * np.eye(m)
    try:
        gain = np.linalg.solve(c_reg, c_xy.T).T
    except np.linalg.LinAlgError as exc:
        raise GainError(
            f"observation covariance solve failed (cond={np.linalg.cond(c_reg):.3e})"
        ) from exc
    if not np.all(np.isfinite(gain)):
        raise GainError(
            f"non-finite Kalman gain (cond={np.linalg.cond(c_reg):.3e})"
        )
    return gain


def normalize_weights(w: np.ndarray) -> np.ndarray:
    """Validate and normalize a weight vector to sum to one.

    Negative entries are rejected; entries below 1e-300 are clamped to zero
    before normalization to avoid denormal underflow.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise EnsembleError(f"weights must be a non-empty 1-D array, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise EnsembleError("weights must be finite and non-negative")
    w = np.where(w < _WEIGHT_FLOOR, 0.0, w)  # a new array: the rest is in place
    total = w.sum()
    if total <= 0:
        raise EnsembleError("weights sum to zero; cannot normalize")
    w /= total
    # One more pass for strict normalization after rounding.
    if abs(w.sum() - 1.0) > _NORMALIZATION_TOL:
        w /= w.sum()
    return w


def effective_size(w: np.ndarray) -> float:
    """Effective sample size ``1 / sum(w_i^2)`` of normalized weights."""
    w = np.asarray(w, dtype=float)
    return 1.0 / float(np.sum(w * w))


def resample_indices(w: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw multinomial resampling indices: each output index is drawn
    independently with probability ``w_j`` (duplicates permitted).

    The same indices as ``rng.choice(w.size, size, p=w)``: the same CDF and
    the same uniforms, but the uniforms are looked up in sorted order, which
    is cheaper for large ``size``.
    """
    cdf = normalize_weights(w)  # a new array, so summed in place
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    u = rng.random(size)
    order = np.argsort(u)
    u = u[order]
    found = cdf.searchsorted(u, side="right")
    # The sorted uniforms are read: their buffer takes the indices.
    idx = u.view(np.int64)
    idx[order] = found
    return idx

