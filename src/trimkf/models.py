"""Forecast and measurement model contracts plus the concrete test systems.

A :class:`DynModel` either carries a drift field (continuous dynamics,
advanced by the integrators module) or a one-shot ``transition`` map
(discrete dynamics such as the linear-Gaussian reference model); the
state dimension is the leading axis of the states it is given.  Drift
functions are vectorized over members and write into a buffer the caller
owns: ``drift(x, t, out)`` is given a state ``x`` of shape ``(N,)`` or
``(N, n)`` and an ``out`` of the same shape that does not overlap ``x``,
and returns ``out`` filled with the derivative.  A drift may instead return
another array of that shape, such as ``x`` itself; the integrators then
copy it into ``out``.  They keep ``out`` and reuse it as work space, so a
drift must not hold on to it between calls.

Measurement models are additive diagonal Gaussian by default, matching
``y = h(x) + eps`` with ``eps ~ N(0, tau^2 I)``; a custom noise sampler can
be supplied for non-additive cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DynModel",
    "MeasModel",
    "ModelError",
    "Lorenz63Params",
    "Lorenz96Params",
    "l63_drift",
    "l96_drift",
    "lorenz63_model",
    "lorenz96_model",
    "select_observer",
    "observe",
    "log_likelihood",
    "linear_gaussian_model",
]


class ModelError(ValueError):
    """Raised for invalid model parameters or degenerate likelihoods."""


@dataclass(frozen=True)
class DynModel:
    """Forecast-model contract.

    Exactly one of two flavors applies:

    * continuous: ``drift(x, t, out)`` gives the deterministic derivative
      (see the module docstring for the ``out`` contract) and
      ``noise_intensity`` scales per-component Gaussian white noise; the
      integrators module advances the state.
    * discrete: ``transition(x, t, rng)`` maps the state over one whole
      forecast interval (``drift`` is None).

    With ``noise_intensity == 0`` and no transition noise the model is a
    deterministic map: identical inputs give identical outputs.
    """

    drift: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    noise_intensity: float = 0.0
    transition: Callable[[np.ndarray, float, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if not (np.isfinite(self.noise_intensity) and self.noise_intensity >= 0):
            raise ModelError("noise_intensity must be finite and non-negative")
        if (self.drift is None) == (self.transition is None):
            raise ModelError("exactly one of drift or transition must be given")


@dataclass(frozen=True)
class MeasModel:
    """Measurement-model contract: ``observe`` samples, ``log_likelihood`` scores.

    ``noise_std`` is the additive Gaussian noise scale (scalar or one value
    per observed component).  ``sampler(x, rng)``, when given, replaces the
    additive draw entirely (non-additive noise); the Gaussian log-likelihood
    then no longer applies and must not be requested.
    """

    obs_dim: int
    h: Callable[[np.ndarray], np.ndarray]
    noise_std: float | np.ndarray = 0.0
    sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        std = np.asarray(self.noise_std, dtype=float)
        if not np.all(np.isfinite(std) & (std >= 0)):
            raise ModelError("noise_std must be finite and non-negative")
        if std.ndim > 1 or (std.ndim == 1 and std.size not in (1, self.obs_dim)):
            raise ModelError(f"noise_std must be scalar or length {self.obs_dim}")
        object.__setattr__(self, "noise_std", std)


# ---------------------------------------------------------------------------
# Lorenz systems
# ---------------------------------------------------------------------------


def _require_finite(params) -> None:
    """Raise ``ModelError`` naming the first non-finite field of ``params``."""
    for name, value in vars(params).items():
        if not np.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Lorenz63Params:
    """Three-variable Lorenz convection parameters plus model-noise scale."""

    alpha: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    sigma: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.beta <= 0:
            raise ModelError("beta must be positive")


@dataclass(frozen=True)
class Lorenz96Params:
    """Cyclically-coupled Lorenz-96 parameters.  The drift always carries
    the canonical linear damping term ``-x_j`` (required for the chaotic
    N=36, F=8 regime); N is the leading axis of the state."""

    forcing: float = 8.0
    sigma: float = 0.0

    __post_init__ = _require_finite


def l63_drift(x: np.ndarray, p: Lorenz63Params, out: np.ndarray) -> np.ndarray:
    """Deterministic Lorenz-63 derivative of ``x`` into ``out``; vectorized
    over member columns."""
    x = np.asarray(x, dtype=float)
    # The same IEEE operations on the same operands as alpha*(x1-x0),
    # x0*(rho-x2)-x1 and x0*x1-beta*x2, up to commuted products.
    # ``out[i, ...]`` stays a view even for a 1-D state.
    d0, d1, d2 = out[0, ...], out[1, ...], out[2, ...]
    np.subtract(x[1], x[0], out=d0)
    d0 *= p.alpha
    np.multiply(x[0], x[1], out=d1)  # d1 holds x0*x1 until d2 is done
    np.multiply(p.beta, x[2], out=d2)
    np.subtract(d1, d2, out=d2)
    np.subtract(p.rho, x[2], out=d1)
    d1 *= x[0]
    d1 -= x[1]
    return out


def l96_drift(x: np.ndarray, p: Lorenz96Params, out: np.ndarray) -> np.ndarray:
    """Lorenz-96 derivative ``(x_{j+1} - x_{j-2}) x_{j-1} + F - x_j`` of ``x``
    into ``out``, with cyclic indexing; vectorized over member columns."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        raise ModelError(f"cyclic coupling needs at least 4 components, got {n}")
    # Each row is evaluated as ((x_{j+1} - x_{j-2}) * x_{j-1} + F) - x_j, in
    # that order, which fixes its bits.  The differences of rows 2..n-2, 0..1
    # and n-1 and the factors of rows 1..n-1 are slices of x, so seven ufunc
    # calls fill ``out``.  ``out[j, ...]`` stays a view for a 1-D state.
    np.subtract(x[3:], x[: n - 3], out=out[2 : n - 1])
    np.subtract(x[1:3], x[n - 2 :], out=out[:2])
    np.subtract(x[0], x[n - 3], out=out[n - 1, ...])
    head, tail = out[0, ...], out[1:]
    np.multiply(tail, x[: n - 1], out=tail)
    np.multiply(head, x[n - 1], out=head)
    out += p.forcing
    out -= x
    return out


def lorenz63_model(p: Lorenz63Params) -> DynModel:
    return DynModel(drift=lambda x, t, out: l63_drift(x, p, out), noise_intensity=p.sigma)


def lorenz96_model(p: Lorenz96Params) -> DynModel:
    return DynModel(drift=lambda x, t, out: l96_drift(x, p, out), noise_intensity=p.sigma)


# ---------------------------------------------------------------------------
# Observation operators
# ---------------------------------------------------------------------------


def select_observer(state_dim: int, indices, noise_std: float) -> MeasModel:
    """Measurement model that observes a subset of state components.

    ``indices`` are 0-based positions into the state vector; the Lorenz-96
    experiments observe every other component starting at the first
    (positions 0, 2, ..., N-2) and the Lorenz-63 experiment observes the
    second component (position 1).
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        raise ModelError(f"indices must be a non-empty 1-D integer sequence, got {indices!r}")
    if np.any(idx < 0) or np.any(idx >= state_dim):
        raise ModelError(f"indices out of range for state_dim={state_dim}")
    return MeasModel(obs_dim=idx.size, h=lambda x: np.asarray(x)[idx], noise_std=noise_std)


def observe(m: MeasModel, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample a noisy observation of ``x``; vectorized over member columns."""
    x = np.asarray(x, dtype=float)
    if m.sampler is not None:
        return m.sampler(x, rng)
    hx = np.asarray(m.h(x), dtype=float)
    std = m.noise_std
    if np.all(std == 0):
        return hx
    if std.ndim == 1 and hx.ndim == 2:
        std = std[:, None]
    return hx + std * rng.standard_normal(hx.shape)


def log_likelihood(m: MeasModel, x: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log-likelihood of ``y_star`` given state ``x``.

    Returns ``-||h(x) - y*||^2 / (2 tau^2)`` summed over components, up to
    the additive constant shared across members.  Vectorized: ``x`` of shape
    ``(N, n)`` yields one value per member.
    """
    if m.sampler is not None:
        raise ModelError("no Gaussian log-likelihood for a custom noise sampler")
    std = np.asarray(m.noise_std, dtype=float)
    if np.any(std == 0):
        raise ModelError("log-likelihood is degenerate for zero noise_std")
    hx = np.asarray(m.h(np.asarray(x, dtype=float)), dtype=float)
    y = np.asarray(y_star, dtype=float)
    if hx.ndim == 2:
        y = y.reshape(-1, 1)
        if std.ndim == 1 and std.size > 1:
            std = std[:, None]
    r = (hx - y) / std
    return -0.5 * np.sum(r * r, axis=0)


# ---------------------------------------------------------------------------
# Linear-Gaussian reference model
# ---------------------------------------------------------------------------


def _check_psd(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise ModelError(f"{name} must be square, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ModelError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals.min() < -1e-10 * max(1.0, abs(eigvals.max())):
        raise ModelError(f"{name} must be positive semidefinite")
    return mat


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Lower factor L with L @ L.T = mat, tolerating semidefinite input."""
    eigvals, eigvecs = np.linalg.eigh(mat)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def linear_gaussian_model(
    A: np.ndarray, Q: np.ndarray, H: np.ndarray, R: np.ndarray
) -> tuple[DynModel, MeasModel]:
    """Discrete linear dynamics ``x' = Ax + w`` with observation ``y = Hx + v``.

    ``w ~ N(0, Q)`` and ``v ~ N(0, R)``; both covariances may be singular
    (zero noise).  R must be diagonal so that the Gaussian log-likelihood
    contract of :func:`log_likelihood` applies.  The matching exact Kalman
    recursion lives in the oracle module.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Q = _check_psd(Q, "Q")
    R = _check_psd(R, "R")
    n_state = A.shape[0]
    n_obs = H.shape[0]
    if A.shape[1] != n_state:
        raise ModelError("A must be square")
    if H.shape[1] != n_state or R.shape[0] != n_obs or Q.shape[0] != n_state:
        raise ModelError("inconsistent A/Q/H/R shapes")
    if not np.allclose(R, np.diag(np.diag(R)), atol=1e-12):
        raise ModelError("R must be diagonal for the Gaussian likelihood contract")

    q_factor = _psd_factor(Q)
    noisy = np.any(Q != 0)

    def transition(x, t, rng):
        out = A @ np.asarray(x, dtype=float)
        if noisy:
            out = out + q_factor @ rng.standard_normal(out.shape)
        return out

    dyn = DynModel(transition=transition)
    meas = MeasModel(obs_dim=n_obs, h=lambda x: H @ np.asarray(x, dtype=float),
                     noise_std=np.sqrt(np.diag(R)))
    return dyn, meas
