"""Assimilation algorithms: EnKF, trimmed EnKF, and bootstrap particle filter.

The trimmed update follows its algorithm statement literally: the Kalman
gain is estimated from the *untrimmed* forecast ensemble, distances to the
measurement are turned into exponential weights with scale ``lambda``
(optionally tuned by bisection to hit a target effective size; the search
interval, tolerance and iteration cap are module constants), the joint
ensemble is bootstrap-resampled under those weights, and only then is the
linear update applied.  Large ``lambda`` recovers the plain EnKF update up
to resampling; small ``lambda`` approaches the exact Bayesian posterior.
Every update returns one flat :class:`FilterState` record of the step.
"""

from __future__ import annotations

import warnings
from operator import itemgetter
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .ensemble import (
    Ensemble,
    JointEnsemble,
    effective_size,
    kalman_gain,
    normalize_weights,
    resample_indices,
)
from .integrators import IntegratorConfig, _require_finite, integrate
from .models import DynModel, MeasModel, log_likelihood, observe

__all__ = [
    "TrimConfig",
    "AugmentConfig",
    "FilterState",
    "FilterError",
    "AssimilationError",
    "FilterMethod",
    "AssimilationProblem",
    "TruthRun",
    "AssimilationRun",
    "forecast",
    "enkf_update",
    "trim_distance",
    "trim_weights",
    "adapt_lambda",
    "tenkf_update",
    "augment_forecast",
    "pf_update",
    "simulate_truth",
    "assimilate",
    "run_assimilation",
]

class FilterError(RuntimeError):
    """Raised for degenerate filter states (e.g. zero total likelihood)."""


class AssimilationError(FilterError):
    """A stage of a twin experiment failed; the original error is the cause."""


def _stage_error(stage: str, k: int, t: float, exc: Exception) -> AssimilationError:
    return AssimilationError(f"{stage} step {k} (t={t:.6g}): {type(exc).__name__}: {exc}")


# Bisection of the trimming scale: search interval, n_e tolerance, iteration cap.
LAM_BOUNDS = (1e-6, 1e6)
NE_TOLERANCE = 0.05
MAX_BISECT_ITERS = 60


@dataclass(frozen=True)
class TrimConfig:
    """Trimming scale and effective-size control.

    Members are trimmed by their normalized-L1 distance to the measurement
    (see :func:`trim_distance`).  With ``target_ne`` set, ``lam`` is tuned
    by bisection at every update to keep the effective ensemble size near
    the target; otherwise the fixed ``lam`` is used as-is.
    """

    lam: float = 1.0
    target_ne: float | None = None

    def __post_init__(self):
        _require_finite(self, "lam", "target_ne")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.target_ne is not None and self.target_ne < 1:
            raise ValueError("target_ne must be at least 1")


@dataclass(frozen=True)
class AugmentConfig:
    """Adaptive ensemble augmentation: when fewer than ``n`` forecast members
    fall within ``d_max`` of the measurement, the forecast ensemble is grown
    (up to ``r_max`` times over) from perturbed initial conditions.

    The near-observation count uses the max-abs distance in raw observation
    units, independent of the trimming distance.
    """

    d_max: float
    r_max: float = 3.0
    sigma_p: float = 0.0

    def __post_init__(self):
        _require_finite(self, "d_max", "r_max", "sigma_p")
        if self.d_max <= 0:
            raise ValueError("d_max must be positive")
        if self.r_max < 1:
            raise ValueError("r_max must be at least 1")
        if self.sigma_p < 0:
            raise ValueError("sigma_p must be non-negative")


@dataclass
class FilterState:
    """One update: its posterior, the effective size of its weights and the
    forecast size it saw (after augmentation); a trimmed update adds lambda,
    distance scale and bisection flag, augmentation the near-data count."""

    posterior: Ensemble
    n_e: float
    n_forecast: int
    lambda_used: float | None = None
    distance_scale: np.ndarray | None = None
    flag: str | None = None
    n_d: int | None = None


# ---------------------------------------------------------------------------
# Forecast
# ---------------------------------------------------------------------------


def forecast(
    prior: Ensemble,
    dyn: DynModel,
    meas: MeasModel,
    cfg: IntegratorConfig,
    horizon: float,
    rng: np.random.Generator,
    t0: float = 0.0,
) -> JointEnsemble:
    """Propagate every member over the forecast horizon, then observe it.

    Members stay column-aligned between states and observations.  The whole
    member block advances at once: noiseless Heun is bit-identical to
    per-member stepping, and the adaptive scheme steps the block in lockstep
    with the worst member's error norm controlling the shared step.
    """
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"forecast horizon must be finite and non-negative, got {horizon!r}")
    states = _propagate(dyn, prior.members, t0, t0 + horizon, cfg, rng)
    obs = np.atleast_2d(observe(meas, states, rng))
    return JointEnsemble(states=Ensemble(states), observations=obs)


def _propagate(dyn: DynModel, x, t0, t1, cfg: IntegratorConfig, rng) -> np.ndarray:
    """Advance states from ``t0`` to ``t1``: one call of a discrete
    transition map, or an integration of the drift."""
    if dyn.transition is not None:
        return np.asarray(dyn.transition(x, t0, rng), dtype=float)
    return integrate(dyn, x, t0, t1, cfg, rng)


# ---------------------------------------------------------------------------
# EnKF
# ---------------------------------------------------------------------------


def enkf_update(joint: JointEnsemble, y_star: np.ndarray) -> FilterState:
    """Linear ensemble update ``x_i + K (y* - y_i)`` with the sample gain.

    No perturbation is added to the measurement value: the observation
    ensemble already carries the measurement-noise realizations.
    """
    gain = kalman_gain(joint)
    y_star = np.asarray(y_star, dtype=float).reshape(-1, 1)
    updated = joint.states.members + gain @ (y_star - joint.observations)
    return FilterState(Ensemble(updated), n_e=float(joint.size), n_forecast=joint.size)


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------


def trim_distance(y: np.ndarray, y_star: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Normalized-L1 distance of each observed-forecast member from the
    measurement: per-component absolute deviations divided by the
    per-component ``scale``, summed.  Zero-scale components are skipped
    with a warning.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dev = np.abs(y - np.asarray(y_star, dtype=float).reshape(-1, 1))
    scale = np.asarray(scale, dtype=float)
    keep = scale > 0
    if not np.all(keep):
        warnings.warn(
            f"{int((~keep).sum())} observation dimension(s) have zero spread; "
            "skipped in the normalized-L1 distance",
            stacklevel=2,
        )
        if not np.any(keep):
            return np.zeros(y.shape[1])
    return (dev[keep] / scale[keep, None]).sum(axis=0)


def trim_weights(d: np.ndarray, lam: float) -> np.ndarray:
    """Normalized weights proportional to ``exp(-d / lam)``.

    Computed in log space with max subtraction, so at least the
    smallest-distance member always keeps nonzero weight.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    logw = -d / lam
    logw -= logw.max()
    return normalize_weights(np.exp(logw))


def adapt_lambda(d: np.ndarray, target_ne: float) -> tuple[float, np.ndarray, str | None]:
    """Tune the trimming scale so the effective size hits ``target_ne``.

    The effective size is non-decreasing in ``lambda``, so a bisection on
    ``log(lambda)`` over ``LAM_BOUNDS`` converges; iteration stops when
    ``|n_e - target| / target <= NE_TOLERANCE`` or after
    ``MAX_BISECT_ITERS`` halvings.  If the target is unreachable at a
    bound, that bound is returned together with a diagnostic flag.

    Returns
    -------
    (lambda, weights, flag)
        ``flag`` is None on clean convergence.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    if not 1 <= target_ne <= n:
        raise ValueError(f"target_ne must lie in [1, {n}], got {target_ne}")
    lo, hi = LAM_BOUNDS
    if np.all(d == d[0]):
        return hi, np.full(n, 1.0 / n), "no trim possible"

    def ne_at(lam):
        w = trim_weights(d, lam)
        return effective_size(w), w

    ne_hi, w_hi = ne_at(hi)
    if ne_hi < target_ne * (1 - NE_TOLERANCE):
        return hi, w_hi, "target above reach at lam_max"
    if abs(ne_hi - target_ne) / target_ne <= NE_TOLERANCE:
        # zero-trim already satisfies the target; prefer the mildest trim
        return hi, w_hi, None
    ne_lo, w_lo = ne_at(lo)
    if ne_lo > target_ne * (1 + NE_TOLERANCE):
        return lo, w_lo, "target below reach at lam_min"

    log_lo, log_hi = np.log10(lo), np.log10(hi)
    lam, w, ne = hi, w_hi, ne_hi
    for _ in range(MAX_BISECT_ITERS):
        mid = 0.5 * (log_lo + log_hi)
        lam = 10.0 ** mid
        ne, w = ne_at(lam)
        if abs(ne - target_ne) / target_ne <= NE_TOLERANCE:
            return lam, w, None
        if ne > target_ne:
            log_hi = mid
        else:
            log_lo = mid
    return lam, w, "bisection iteration cap reached"


def tenkf_update(
    joint: JointEnsemble,
    y_star: np.ndarray,
    cfg: TrimConfig,
    rng: np.random.Generator,
    posterior_size: int | None = None,
) -> FilterState:
    """Trimmed ensemble update.

    Order of operations: sample gain from the full forecast ensemble,
    member distances and trimming weights (tuned to ``cfg.target_ne`` when
    set), bootstrap resampling of the joint ensemble, then the linear
    update on the resampled pairs.  ``posterior_size`` lets an augmented
    forecast ensemble shrink back to the configured member count.
    """
    y_star = np.asarray(y_star, dtype=float)
    gain = kalman_gain(joint)

    scale = joint.observations.std(axis=1, ddof=1)
    d = trim_distance(joint.observations, y_star, scale)

    flag = None
    if cfg.target_ne is not None:
        lam, w, flag = adapt_lambda(d, min(cfg.target_ne, joint.size))
    else:
        lam, w = cfg.lam, trim_weights(d, cfg.lam)

    # Resample (state, observation) pairs together, then shift each pair.
    n_out = joint.size if posterior_size is None else int(posterior_size)
    idx = resample_indices(w, n_out, rng)
    x, y = joint.states.members, joint.observations
    updated = x[:, idx] + gain @ (y_star.reshape(-1, 1) - y[:, idx])
    return FilterState(
        Ensemble(updated),
        n_e=effective_size(w),
        n_forecast=joint.size,
        lambda_used=float(lam),
        distance_scale=scale,
        flag=flag,
    )


# ---------------------------------------------------------------------------
# Adaptive ensemble augmentation
# ---------------------------------------------------------------------------


def augment_forecast(
    joint: JointEnsemble,
    prior: Ensemble,
    y_star: np.ndarray,
    aug: AugmentConfig,
    pipeline: Callable[[np.ndarray, np.random.Generator], JointEnsemble],
    rng: np.random.Generator,
) -> tuple[JointEnsemble, int]:
    """Grow the forecast ensemble when too few members are near the data.

    Returns ``(forecast, n_d)``: the forecast the update sees and the count
    of members within ``aug.d_max`` of the measurement under the max-abs
    distance.  When ``n_d < n`` the target size is
    ``floor(n * min(r_max, n / n_d))`` (the cap binds when ``n_d`` is
    zero); the extra initial conditions are drawn uniformly from the
    pre-forecast ensemble, perturbed per dimension with ``N(0, sigma_p^2)``
    noise, and pushed through ``pipeline`` (the same forecast map that
    produced ``joint``).  Otherwise ``joint`` is returned as it is.
    """
    n = joint.size
    dev = np.abs(joint.observations - np.asarray(y_star, dtype=float).reshape(-1, 1))
    n_d = int(np.count_nonzero(dev.max(axis=0) < aug.d_max))
    if n_d >= n:
        return joint, n_d
    ratio = aug.r_max if n_d == 0 else min(aug.r_max, n / n_d)
    extra = int(np.floor(n * ratio)) - n
    if extra <= 0:
        return joint, n_d
    picks = rng.integers(0, prior.size, size=extra)
    ics = prior.members[:, picks] + aug.sigma_p * rng.standard_normal(
        (prior.dim, extra)
    )
    fresh = pipeline(ics, rng)
    merged = JointEnsemble(
        states=Ensemble(np.concatenate([joint.states.members, fresh.states.members], axis=1)),
        observations=np.concatenate([joint.observations, fresh.observations], axis=1),
    )
    return merged, n_d


# ---------------------------------------------------------------------------
# Bootstrap particle filter
# ---------------------------------------------------------------------------


def pf_update(
    joint: JointEnsemble,
    y_star: np.ndarray,
    meas: MeasModel,
    rng: np.random.Generator,
) -> FilterState:
    """Bootstrap particle update: likelihood weights, then pure resampling.

    Weights are proportional to the measurement likelihood of each state
    member, computed in log space; the posterior is the resampled state
    ensemble, with no linear shift.
    """
    loglik = np.asarray(log_likelihood(meas, joint.states.members, y_star), dtype=float)
    peak = loglik.max()
    if not np.isfinite(peak):
        raise FilterError("filter degeneracy: all likelihoods vanished")
    w = normalize_weights(np.exp(loglik - peak))
    idx = resample_indices(w, joint.size, rng)
    posterior = Ensemble(joint.states.members[:, idx])
    return FilterState(posterior, n_e=effective_size(w), n_forecast=joint.size)


# ---------------------------------------------------------------------------
# Sequential assimilation loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssimilationProblem:
    """A twin experiment: dynamics, measurements and timing.

    The problem holds no random draws: the caller draws the true initial
    state (for :func:`simulate_truth`) and the starting members (for
    :func:`assimilate`), so each replicate owns its streams.
    """

    dyn: DynModel
    meas: MeasModel
    integrator: IntegratorConfig
    dt_obs: float
    t_f: float

    def __post_init__(self):
        _require_finite(self, "dt_obs", "t_f")
        if self.dt_obs <= 0:
            raise ValueError("dt_obs must be positive")
        if self.t_f < 0:
            raise ValueError("t_f must be non-negative")

    def n_steps(self) -> int:
        return int(np.floor(self.t_f / self.dt_obs + 1e-9))


@dataclass
class TruthRun:
    """One realization of the true trajectory and its measurements."""

    times: np.ndarray  # length K+1, starting at 0
    states: np.ndarray  # (N, K+1)
    observations: np.ndarray  # (M, K), at times[1:]
    y0: np.ndarray  # (M,), a noisy observation of the truth at time 0


@dataclass
class FilterMethod:
    """Which update to run, plus its trimming/augmentation settings.

    Augmentation grows the forecast ensemble ahead of a trimmed update; the
    other updates do not take it.
    """

    kind: str
    trim: TrimConfig | None = None
    augment: AugmentConfig | None = None

    def __post_init__(self):
        kinds = ("enkf", "tenkf", "pf")
        if self.kind not in kinds:
            raise ValueError(f"unknown filter kind {self.kind!r}; expected {list(kinds)}")
        if self.kind == "tenkf" and self.trim is None:
            raise ValueError("tenkf requires a TrimConfig")
        if self.kind != "tenkf" and self.augment is not None:
            raise ValueError(f"augmentation applies to tenkf only, not {self.kind!r}")

    def update(self, joint: JointEnsemble, y_star: np.ndarray, meas: MeasModel,
               rng: np.random.Generator, size: int | None = None) -> FilterState:
        """Apply this method's update rule to a forecast joint ensemble.

        ``size`` is the posterior member count of a trimmed update (it
        defaults to the forecast count); the other rules keep the forecast
        count.  The update functions are looked up as module globals when
        called, so wrappers installed on this module see every update.
        """
        if self.kind == "enkf":
            return enkf_update(joint, y_star)
        if self.kind == "pf":
            return pf_update(joint, y_star, meas, rng)
        return tenkf_update(joint, y_star, self.trim, rng, posterior_size=size)


@dataclass
class AssimilationRun:
    """Output of one filter pass over one truth realization."""

    truth: TruthRun
    steps: list[FilterState]
    rmse: np.ndarray  # per assimilation step, over all members
    rmse_mean: np.ndarray  # per step, ensemble-mean error only


def simulate_truth(
    problem: AssimilationProblem, truth0: np.ndarray, rng: np.random.Generator
) -> TruthRun:
    """Measure ``truth0`` at time zero (``TruthRun.y0``, for priors
    anchored on an observation), then advance and measure it at every
    observation time, drawing all noise from ``rng`` in that order."""
    truth0 = np.asarray(truth0, dtype=float)
    y0 = np.atleast_1d(observe(problem.meas, truth0, rng))
    k_steps = problem.n_steps()
    times = np.arange(k_steps + 1) * problem.dt_obs
    states = np.empty((truth0.size, k_steps + 1))
    states[:, 0] = truth0
    obs = np.empty((problem.meas.obs_dim, k_steps))
    x = truth0
    for k in range(1, k_steps + 1):
        try:
            x = _propagate(problem.dyn, x, times[k - 1], times[k], problem.integrator, rng)
        except Exception as exc:
            raise _stage_error("truth simulation", k, times[k], exc) from exc
        states[:, k] = x
        obs[:, k - 1] = np.atleast_1d(observe(problem.meas, x, rng))
    return TruthRun(times=times, states=states, observations=obs, y0=y0)


def assimilate(
    problem: AssimilationProblem,
    method: FilterMethod,
    rng: np.random.Generator,
    truth: TruthRun,
    ensemble: Ensemble,
) -> Iterator[tuple[int, JointEnsemble, FilterState]]:
    """Alternate forecast and update against a truth realization.

    Starting from ``ensemble``, yields ``(k, joint, state)`` for each
    observation ``k`` (0-based): the forecast joint ensemble the update saw
    (after any augmentation) and the resulting filter state, whose
    posterior is the next step's prior.  Every posterior has as many
    members as ``ensemble``; an augmented forecast is resampled back to
    that count.  Nothing is kept between steps; a consumer that still holds a
    yielded joint while asking for the next step keeps two forecasts alive
    through that step's update.
    A failing stage is raised as :class:`AssimilationError` naming the
    1-based step, with the original exception as its cause.
    """
    size = ensemble.size
    for k in range(truth.observations.shape[1]):
        t0, t1 = truth.times[k], truth.times[k + 1]
        y_star = truth.observations[:, k]
        try:
            joint = forecast(
                ensemble, problem.dyn, problem.meas, problem.integrator,
                t1 - t0, rng, t0=t0,
            )
            n_d = None
            if method.augment is not None:
                def pipeline(ics, prng):
                    return forecast(
                        Ensemble(ics), problem.dyn, problem.meas,
                        problem.integrator, t1 - t0, prng, t0=t0,
                    )

                joint, n_d = augment_forecast(
                    joint, ensemble, y_star, method.augment, pipeline, rng
                )
            state = method.update(joint, y_star, problem.meas, rng, size=size)
            state.n_d = n_d
        except Exception as exc:
            raise _stage_error("assimilation", k + 1, t1, exc) from exc
        yield k, joint, state
        ensemble = state.posterior


def run_assimilation(
    problem: AssimilationProblem,
    method: FilterMethod,
    rng: np.random.Generator,
    truth: TruthRun,
    initial: Ensemble,
) -> AssimilationRun:
    """Run :func:`assimilate` from ``initial`` and score every step."""
    from .metrics import ensemble_mean_rmse, ensemble_rmse

    # itemgetter drops each forecast as soon as it is yielded; a loop
    # variable would keep it alive through the next step.
    steps = list(map(itemgetter(2), assimilate(problem, method, rng, truth, initial)))
    scored = list(zip((s.posterior for s in steps), truth.states[:, 1:].T))
    rmse = np.array([ensemble_rmse(e, x) for e, x in scored])
    rmse_mean = np.array([ensemble_mean_rmse(e, x) for e, x in scored])
    return AssimilationRun(truth=truth, steps=steps, rmse=rmse, rmse_mean=rmse_mean)
