"""The experiment families behind the CLI, each declared once in ``SCENARIOS``.

Replicate ``m`` always derives its streams from ``(seed, m, ...)`` key
material, so results are independent of worker scheduling and of which
other replicates run.  Every scenario declares its work as a few stages of
keyed units (see ``Scenario``), and ``run_scenario`` maps each stage once
through ``_map_units``, on the workers of ``integrators._map_shared``:
threads, except for ``l96-adaptive-aug``, whose DP45 forecasts run in
forked worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..ensemble import Ensemble, JointEnsemble
from ..filters import (
    AssimilationProblem,
    AugmentConfig,
    FilterMethod,
    TrimConfig,
    assimilate,
    forecast,
    pf_update,
    run_assimilation,
    simulate_truth,
    tenkf_update,
)
from ..integrators import IntegratorConfig, _map_shared, usable_cpus
from ..metrics import ks_distance, replicate_quantiles, time_avg_rmse
from ..models import (
    Lorenz63Params,
    Lorenz96Params,
    MeasModel,
    linear_gaussian_model,
    lorenz63_model,
    lorenz96_model,
    select_observer,
)
from ..oracle import bayes_posterior, bimodal_toy, kalman_filter_sequence, limit_pdfs
from .config import ExperimentConfig, stream_key
from .io import write_table

__all__ = ["SCENARIOS", "Scenario", "ScenarioResult", "run_scenario"]

# Fixed stream identifiers: replicate streams are keyed by value, never by
# position in a sweep grid, so reordering a grid cannot move results.
_STREAM_TRUTH = 0
_STREAM_FILTER = {"enkf": 1, "tenkf": 2, "pf": 3}


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _below(name: str, value: float, tolerance: float) -> dict:
    """A ``checks.csv`` row that passes when ``value`` is below ``tolerance``."""
    return {"check": name, "value": value, "tolerance": tolerance, "ok": value < tolerance}


@dataclass
class ScenarioResult:
    """What a scenario run produced and how it went."""

    files: list[Path]
    replicate_failures: list[str]
    checks: list[dict] | None = None


def _map_units(stage, units: list, cfg: ExperimentConfig, workers: int, forked: bool) -> list:
    """``[stage(cfg, key, value) for key, value in units]`` on ``workers``
    threads (with ``forked``, processes), the calling one among them, where
    a unit that raises gives ``"Type: message"`` and the other units keep
    running."""

    def attempt(unit):
        try:
            return stage(cfg, *unit)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    return _map_shared(attempt, units, workers, forked)


def _run_stages(scenario: "Scenario", cfg: ExperimentConfig, reps, workers: int,
                tables: dict, failed: dict) -> None:
    """Map replicates ``reps`` through every stage of ``scenario``, adding
    their rows to ``tables`` in key order and their failures to ``failed``
    (``{rep: message}``).

    Stage ``i`` maps the units the stage before listed (the first maps one
    ``(rep,)`` unit per replicate, with the value None), all in one map.  A
    stage's units start rank by rank: every parent's first listed child,
    then every parent's second, each rank in parent key order, so a parent
    that lists its longest units first has them started first across all
    replicates.  A replicate reports its first failed unit, in stage and
    then key order, and runs no later stage.
    """
    units = [((rep,), None) for rep in reps]
    for i, stage in enumerate(scenario.stages):
        outs = dict(zip([key for key, _ in units],
                        _map_units(stage, units, cfg, workers, scenario.forked)))
        for key in sorted(outs):
            if isinstance(outs[key], str):
                failed.setdefault(key[0], f"replicate {key[0]}: {outs[key]}")
        parts = [outs[key] for key in sorted(outs) if key[0] not in failed]
        if i + 1 < len(scenario.stages):
            listed = [(rank, unit) for part in parts for rank, unit in enumerate(part.items())]
            units = [unit for _, unit in sorted(listed, key=lambda ranked: ranked[0])]
    for part in parts:
        for name, rows in part.items():
            tables.setdefault(name, []).extend(rows)


# ---------------------------------------------------------------------------
# Lorenz-63 limiting distributions
# ---------------------------------------------------------------------------


# The published setting: Lorenz63Params's alpha, rho and beta with model
# noise 0.01 on Heun steps of 0.01, one observation of x2 at t=1 with noise
# tau, and a truth and members drawn around (1.5, 1.5, 25) with spread 0.1.
_L63_MODEL = Lorenz63Params(sigma=0.01)
_HEUN = IntegratorConfig(scheme="stochastic-heun", dt=0.01)
_L63_T1, _L63_X0, _L63_SD0, _L63_TAU = 1.0, (1.5, 1.5, 25.0), 0.1, 0.2
_L63_MEAS = select_observer(3, [1], noise_std=_L63_TAU)


def _l63_updates(p: dict) -> list[tuple]:
    """The ``(filter, lam)`` of each update, in output order: the PF
    reference, the EnKF, then the trimmed filter's lambda sweep."""
    return [("pf", None), ("enkf", None)] + [("tenkf", lam) for lam in p["lambdas"]]


class _L63Posteriors(NamedTuple):
    """One replicate's posterior samples of the observed component, a row
    per update, and each row's ``(min, max)``, which its update sets."""

    rows: list[np.ndarray]
    extrema: list


def _l63_forecast(cfg: ExperimentConfig, key: tuple, _) -> dict:
    """Replicate ``rep``'s truth and forecast; every update sees the same
    forecast and draws from its own keyed stream."""
    (rep,) = key
    n = int(cfg.params["n"])
    dyn = lorenz63_model(_L63_MODEL)

    rng_t = _rng(cfg.seed, rep, _STREAM_TRUTH)
    truth0 = np.array([x + _L63_SD0 * rng_t.standard_normal() for x in _L63_X0])
    # One observation interval: the measurement at t1 is the one assimilated.
    truth = simulate_truth(
        AssimilationProblem(dyn, _L63_MEAS, _HEUN, _L63_T1, _L63_T1), truth0, rng_t)
    y0, y_star = truth.y0[0], truth.observations[:, 0]

    rng_fc = _rng(cfg.seed, rep, _STREAM_FILTER["enkf"])
    members = np.empty((3, n))
    members[0] = _L63_X0[0] + _L63_SD0 * rng_fc.standard_normal(n)
    members[1] = y0 + _L63_TAU * rng_fc.standard_normal(n)
    members[2] = _L63_X0[2] + _L63_SD0 * rng_fc.standard_normal(n)
    joint = forecast(Ensemble(members), dyn, _L63_MEAS, _HEUN, _L63_T1, rng_fc)
    del members, truth  # the forecast and the measurement are all the updates need
    # Each update copies its posterior row into an array made here, before
    # any update runs: copies made between the updates' temporaries kept
    # 13-16 MB of freed heap resident, not 4-11.
    size = len(_l63_updates(cfg.params))
    posteriors = _L63Posteriors([np.empty(n) for _ in range(size)], [None] * size)
    return {(rep, i): (joint, y_star, posteriors) for i in range(size)}


def _l63_update(cfg: ExperimentConfig, key: tuple, value: tuple) -> dict:
    rep, i = key
    joint, y_star, posteriors = value
    name, lam = _l63_updates(cfg.params)[i]
    stream = [cfg.seed, rep, _STREAM_FILTER[name]] + ([] if lam is None else [stream_key(lam)])
    trim = None if lam is None else TrimConfig(lam=lam)
    state = FilterMethod(name, trim=trim).update(joint, y_star, _L63_MEAS, _rng(*stream))
    row = posteriors.rows[i]
    row[:] = state.posterior.members[1]
    posteriors.extrema[i] = row.min(), row.max()
    return {key: posteriors}


def _l63_summary(cfg: ExperimentConfig, key: tuple, posteriors: _L63Posteriors) -> dict:
    """One update's bin masses, on one binning shared by the replicate's
    updates so that histograms are comparable, and its KS distance to the
    PF's posterior."""
    rep, i = key
    p = cfg.params
    name, lam = _l63_updates(p)[i]
    lo, hi = min(a for a, _ in posteriors.extrema), max(b for _, b in posteriors.extrema)
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    edges = np.linspace(lo - pad, hi + pad, int(p["bins"]) + 1)
    row = posteriors.rows[i]
    masses = np.histogram(row, bins=edges)[0] / int(p["n"])
    hist_rows = [{"replicate": rep, "filter": name, "lam": lam, "bin_lo": float(a),
                  "bin_hi": float(b), "mass": float(m)}
                 for a, b, m in zip(edges[:-1], edges[1:], masses)]
    ks_rows = [{"replicate": rep, "filter": name, "lam": lam,
                "ks_to_pf": ks_distance(row, posteriors.rows[0])}] if i else []
    return {"histograms.csv": hist_rows, "ks.csv": ks_rows}


# ---------------------------------------------------------------------------
# Lorenz-96 twin experiments
# ---------------------------------------------------------------------------


# The published setting: N=36 components with forcing 8 (Lorenz96Params's
# default), every other one observed with noise tau, the EnKF against the
# trimmed filter, augmentation within d_max of the measurement from initial
# conditions perturbed by sigma_p, and a start at mu0 + mu1 z + sigma0 e.
# l96-rmse-sweep adds model noise 0.01 on Heun steps; l96-adaptive-aug has
# none, so that its forecasts can take adaptive DP45 steps.
_L96_N, _L96_FILTERS = 36, ("enkf", "tenkf")
_L96_TAU, _L96_D_MAX, _L96_SIGMA_P = 0.05, 3.0, 0.4
_L96_MU0, _L96_MU1, _L96_SIGMA0 = 1.0, 0.1, 0.01
_L96_SDE, _L96_ODE = Lorenz96Params(sigma=0.01), Lorenz96Params(sigma=0.0)
_DP45 = IntegratorConfig(scheme="rk45-adaptive", dt=0.01, rtol=1e-6, atol=1e-9)
_L96_OBS = np.arange(0, _L96_N, 2)


def _l96_sizes(p: dict) -> list:
    """The ensemble sizes: ``l96-rmse-sweep`` takes a list, ``l96-adaptive-aug`` one size."""
    return p["n"] if isinstance(p["n"], list) else [p["n"]]


def _l96_problem(cfg: ExperimentConfig, dt_obs: float) -> AssimilationProblem:
    model, icfg = _L96_SETTINGS[cfg.scenario][:2]
    meas = select_observer(_L96_N, _L96_OBS, noise_std=_L96_TAU)
    return AssimilationProblem(lorenz96_model(model), meas, icfg, dt_obs, cfg.params["t_f"])


def _l96_truths(cfg: ExperimentConfig, key: tuple, _) -> dict:
    """Replicate ``rep``'s truth at each ``dt_obs``, with the base of its
    members, for each of its runs.

    The truth at one ``dt_obs`` starts at ``mu0 + mu1 z + sigma0 e`` with
    one shared scalar ``z``, and all its runs share it.  The runs are keyed
    ``(rep, dt_obs, n, filter)`` by index into their parameter lists and
    ``_L96_FILTERS``, and listed longest first: larger ``n``, then the
    trimmed run (which, in ``l96-adaptive-aug``, carries about 3/4 of its
    replicate's work) before the EnKF run.
    """
    (rep,) = key
    p = cfg.params
    truths = []
    for dt_obs in p["dt_obs"]:
        rng_t = _rng(cfg.seed, rep, _STREAM_TRUTH, stream_key(dt_obs))
        base = _L96_MU0 + _L96_MU1 * rng_t.standard_normal()
        truths.append((base, simulate_truth(_l96_problem(cfg, dt_obs),
                                            base + _L96_SIGMA0 * rng_t.standard_normal(_L96_N),
                                            rng_t)))
    sizes = _l96_sizes(p)
    by_cost = sorted(range(len(sizes)), key=lambda k: -sizes[k])
    return {(rep, j, k, f): truth for k in by_cost for f in (1, 0)  # tenkf, then enkf
            for j, truth in enumerate(truths)}


def _l96_run(cfg: ExperimentConfig, key: tuple, value: tuple) -> dict:
    """One filter run's rows.  Its members share the truth's ``mu0 + mu1 z``
    in the unobserved components and scatter with noise ``tau`` around the
    truth's time-zero measurement in the observed ones.  The trimmed filter
    also augments, unless ``augment`` is set false."""
    rep, j, k, f = key
    base, truth = value
    p = cfg.params
    dt_obs, n, name = p["dt_obs"][j], _l96_sizes(p)[k], _L96_FILTERS[f]
    aug = None
    if name == "tenkf" and p.get("augment", True):
        aug = AugmentConfig(d_max=_L96_D_MAX, r_max=p["r_max"], sigma_p=_L96_SIGMA_P)
    method = FilterMethod(name, trim=TrimConfig(target_ne=p["target_ne"]), augment=aug)
    rng_f = _rng(cfg.seed, rep, _STREAM_FILTER[name], n, stream_key(dt_obs))
    members = base + _L96_SIGMA0 * rng_f.standard_normal((_L96_N, n))
    members[_L96_OBS] = truth.y0[:, None] + _L96_TAU * rng_f.standard_normal((_L96_OBS.size, n))
    run = run_assimilation(_l96_problem(cfg, dt_obs), method, rng_f, truth, Ensemble(members))
    return _L96_SETTINGS[cfg.scenario][2](rep, dt_obs, n, name, run)


def _l96_rmse_rows(rep: int, dt_obs: float, n: int, name: str, run) -> dict:
    key = {"replicate": rep, "filter": name, "n": n, "dt_obs": dt_obs}
    return {
        "rmse.csv": [{**key, "rmse_time_avg": time_avg_rmse(run.rmse),
                      "rmse_mean_time_avg": time_avg_rmse(run.rmse_mean)}],
        "series.csv": [{**key, "step": k + 1, "time": float(t), "rmse": float(run.rmse[k])}
                       for k, t in enumerate(run.truth.times[1:])],
    }


def _l96_rmse_quantiles(cfg: ExperimentConfig, tables: dict) -> dict:
    """Replicate quantiles of the time-averaged RMSE per (dt_obs, n, filter)."""
    p = cfg.params
    quant_rows = []
    for dt_obs in p["dt_obs"]:
        for n in p["n"]:
            for name in _L96_FILTERS:
                vals = np.array(
                    [
                        r["rmse_time_avg"]
                        for r in tables.get("rmse.csv", [])
                        if r["filter"] == name and r["n"] == n and r["dt_obs"] == dt_obs
                    ]
                )
                if vals.size == 0:
                    continue
                q25, q50, q75 = replicate_quantiles(vals)
                quant_rows.append(
                    {
                        "filter": name,
                        "n": n,
                        "dt_obs": dt_obs,
                        "q25": float(q25),
                        "q50": float(q50),
                        "q75": float(q75),
                    }
                )
    return {"quantiles.csv": quant_rows}


def _l96_aug_rows(rep: int, dt_obs: float, n: int, name: str, run) -> dict:
    key = {"replicate": rep, "filter": name, "dt_obs": dt_obs}
    traces = [{**key, "step": k + 1, "time": float(run.truth.times[k + 1]),
               "n_forecast": s.n_forecast, "n_d": s.n_d, "n_aug": s.n_forecast, "n_e": s.n_e,
               "lam": s.lambda_used, "rmse": float(run.rmse[k])}
              for k, s in enumerate(run.steps)]
    summary = {**key, "aug_ratio_time_avg": float(np.mean([s.n_forecast / n for s in run.steps])),
               "rmse_time_avg": time_avg_rmse(run.rmse),
               "rmse_mean_time_avg": time_avg_rmse(run.rmse_mean)}
    return {"traces.csv": traces, "augmentation.csv": [summary]}


# Each Lorenz-96 scenario's model, integrator and rows of one run.  DP45 on
# small blocks is about 100 short ufunc calls per attempt, which do not run
# faster on threads: l96-adaptive-aug's units go to forked workers.
_L96_SETTINGS = {
    "l96-rmse-sweep": (_L96_SDE, _HEUN, _l96_rmse_rows),
    "l96-adaptive-aug": (_L96_ODE, _DP45, _l96_aug_rows),
}


# ---------------------------------------------------------------------------
# Linear-Gaussian oracle check
# ---------------------------------------------------------------------------


def _gain_noise_term(joint: JointEnsemble, y_star: float) -> float:
    """Variance contribution of the estimated gain to the posterior mean.

    Delta method on K-hat = C_xy / C_yy for the scalar case:
    var(dK) ~ (1 - rho^2) C_xx / (n C_yy), scaled by the squared mean
    innovation it multiplies.
    """
    x, y = joint.states.members[0], joint.observations[0]
    c_xx, c_yy = x.var(ddof=1), y.var(ddof=1)
    c_xy = np.cov(x, y, ddof=1)[0, 1]
    rho2 = min(1.0, c_xy**2 / max(c_xx * c_yy, 1e-300))
    return (y_star - y.mean()) ** 2 * (1 - rho2) * c_xx / (joint.size * c_yy)


# The published prior N(0, 1), the three filters checked, and the trimmed
# filter's effective size of 0.8 n.
_LG_PRIOR_MEAN, _LG_PRIOR_VAR, _LG_FILTERS = 0.0, 1.0, ("enkf", "tenkf", "pf")
_LG_TARGET_NE_FRACTION = 0.8


def _z(deviation: float, se: float) -> float:
    """``deviation / se``; a posterior collapsed to one value has a zero
    standard error, over which a deviation is infinite and none is 0."""
    return deviation / se if se else (np.inf if deviation else 0.0)


def _lingauss_reference(cfg: ExperimentConfig, key: tuple, _) -> dict:
    """Replicate ``rep``'s truth and exact Kalman filter, for each of its
    three filter runs: each draws from its own keyed stream."""
    (rep,) = key
    p = cfg.params
    A, Q, H, R = (np.array([[p[k]]]) for k in ("A", "Q", "H", "R"))
    problem = AssimilationProblem(*linear_gaussian_model(A, Q, H, R), IntegratorConfig(), 1.0,
                                  float(p["steps"]))
    rng_t = _rng(cfg.seed, rep, _STREAM_TRUTH)
    truth0 = np.array([_LG_PRIOR_MEAN + np.sqrt(_LG_PRIOR_VAR) * rng_t.standard_normal()])
    truth = simulate_truth(problem, truth0, rng_t)  # its y0 draw is unused here
    means, covs = kalman_filter_sequence(
        A, Q, H, R,
        np.array([_LG_PRIOR_MEAN]), np.array([[_LG_PRIOR_VAR]]),
        list(truth.observations.T),
    )
    return {(rep, i): (problem, truth, means, covs) for i in range(len(_LG_FILTERS))}


def _lingauss_run(cfg: ExperimentConfig, key: tuple, value: tuple) -> dict:
    """The comparison and check rows of one filter's run."""
    rep, i = key
    problem, truth, means, covs = value
    p = cfg.params
    name, n = _LG_FILTERS[i], int(p["n"])
    trim = TrimConfig(target_ne=max(2.0, _LG_TARGET_NE_FRACTION * n))
    rows, checks = [], []
    rng_f = _rng(cfg.seed, rep, _STREAM_FILTER[name])
    initial = Ensemble(_LG_PRIOR_MEAN + np.sqrt(_LG_PRIOR_VAR) * rng_f.standard_normal((1, n)))
    steps = assimilate(problem, FilterMethod(name, trim=trim), rng_f, truth, initial)
    for k, joint, state in steps:
        y_star = truth.observations[:, k]
        sample = state.posterior.members[0]
        n_e = state.n_e
        est_mean = float(sample.mean())
        est_var = float(sample.var(ddof=1))
        exact_mean = float(means[k][0])
        exact_var = float(covs[k][0, 0])
        se_mean_sq = est_var / n_e
        if name != "pf":  # the Kalman-type updates carry a sampled gain
            se_mean_sq += _gain_noise_term(joint, y_star[0])
        del joint  # not held through the next step's update (n=1e5)
        se_mean = float(np.sqrt(se_mean_sq))
        se_var = float(est_var * np.sqrt(2.0 / max(n_e - 1.0, 1.0)))
        ok = (
            abs(est_mean - exact_mean) <= p["se_factor"] * se_mean
            and abs(est_var - exact_var) <= p["se_factor"] * se_var
        )
        rows.append({"replicate": rep, "filter": name, "step": k + 1,
                     "mean_est": est_mean, "var_est": est_var, "mean_exact": exact_mean,
                     "var_exact": exact_var, "se_mean": se_mean, "se_var": se_var,
                     "ok": bool(ok)})
        # one check per row: the larger of its two z-scores
        z = max(_z(abs(est_mean - exact_mean), se_mean), _z(abs(est_var - exact_var), se_var))
        checks.append({"check": f"{name}-step{k + 1}-rep{rep}", "value": z,
                       "tolerance": p["se_factor"], "ok": bool(ok)})
    return {"comparison.csv": rows, "checks.csv": checks}


# ---------------------------------------------------------------------------
# Bimodal quadrature checks
# ---------------------------------------------------------------------------


# The published measurement, the bridge's lambdas, the large and small lambda
# of the limit checks, the sampling update's lambda, and the KS tolerances.
_BIMODAL_Y_STAR, _BIMODAL_LAMBDAS = 1.5, (10.0, 1.0, 0.3, 0.1, 0.03)
_BIMODAL_LAM_LARGE, _BIMODAL_LAM_SMALL, _BIMODAL_SAMPLE_LAM = 1e9, 0.02, 0.3
_KS_TOL_LARGE, _KS_TOL_SMALL = 1e-4, 0.02
_KS_TOL_TENKF_SAMPLING, _KS_TOL_PF_SAMPLING = 0.03, 0.02


def _bimodal_checks(cfg: ExperimentConfig, key: tuple, _) -> dict:
    (rep,) = key
    p = cfg.params
    toy = bimodal_toy(points=int(p["points"]), y_star=_BIMODAL_Y_STAR)
    joint, gain, y_star = toy.joint, toy.exact_gain, toy.y_star

    # The sampling update runs first, for the distance scale of its limit;
    # every stream is keyed, so the order leaves the bytes alone.
    n = int(p["n"])
    x, y = toy.sample(n, _rng(cfg.seed, rep, 1))
    sample_joint = JointEnsemble(states=Ensemble(x[None, :]), observations=y[None, :])
    trim = TrimConfig(lam=_BIMODAL_SAMPLE_LAM)
    state = tenkf_update(sample_joint, np.array([y_star]), trim, _rng(cfg.seed, rep, 2))
    scale = float(state.distance_scale[0])
    toy_meas = MeasModel(obs_dim=1, h=lambda s: s, noise_std=0.5)
    pf_state = pf_update(sample_joint, np.array([y_star]), toy_meas, _rng(cfg.seed, rep, 3))

    bayes = bayes_posterior(joint, y_star)
    enkf_lim, large, small, *curves, limit = limit_pdfs(
        joint, gain, y_star,
        [None, (_BIMODAL_LAM_LARGE, None), (_BIMODAL_LAM_SMALL, None)]
        + [(lam, None) for lam in _BIMODAL_LAMBDAS] + [(_BIMODAL_SAMPLE_LAM, scale)],
    )
    ks_large = ks_distance(large, enkf_lim)
    ks_small = ks_distance(small, bayes)
    bridge = [ks_distance(curve, bayes) for curve in curves]
    bridge_rows = [{"lam": lam, "ks_to_posterior": ks}
                   for lam, ks in zip(_BIMODAL_LAMBDAS, bridge)]
    ks_tenkf = ks_distance(state.posterior.members[0], limit)
    ks_pf = ks_distance(pf_state.posterior.members[0], bayes)
    steps = list(zip(bridge, bridge[1:]))
    checks = [
        _below("tenkf-limit-large-lam-matches-enkf", ks_large, _KS_TOL_LARGE),
        _below("tenkf-limit-small-lam-matches-posterior", ks_small, _KS_TOL_SMALL),
        {"check": "bridge-ks-non-increasing-as-lam-decreases",
         "value": max(b - a for a, b in steps), "tolerance": 0.0,
         "ok": all(b <= a + 1e-12 for a, b in steps)},
        _below("tenkf-sampling-matches-limit", ks_tenkf, _KS_TOL_TENKF_SAMPLING),
        _below("pf-sampling-matches-posterior", ks_pf, _KS_TOL_PF_SAMPLING),
    ]
    return {"bridge.csv": bridge_rows, "checks.csv": checks}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


class Scenario(NamedTuple):
    """A scenario as plain data, declared once.

    ``stages`` are the scenario's units, stage by stage.  Each stage is a
    function ``stage(cfg, key, value)`` of one unit: its key (a tuple that
    starts with the replicate) and what its parent listed for it.  It
    returns its children in the next stage, ``{key: value}``, their keys
    extending its own, or at the last stage its rows, ``{file: rows}``.  A
    first-stage unit is ``((rep,), None)``.  With ``forked`` the units run
    in forked worker processes, so what a stage returns must pickle; with
    ``windowed`` the stages map ``workers`` replicates at a time, for a
    scenario whose stages pass large values on.  The optional
    ``finish(cfg, tables)`` derives more tables from the rows of all
    replicates, and ``tables`` gives every result file's columns in write
    order.  The rows of a ``checks.csv`` are the scenario's embedded checks.
    ``params`` is its parameter table ``{key: (default, lowest)}``, each
    checked by its default's type (see ``config``), ``replicates`` its
    default replicate count (which a config may raise to ``max_replicates``,
    if set), and the optional ``rule(params, errors)`` checks across
    parameters; a parameter that failed its own check is None there.
    """

    description: str
    stages: tuple[Callable[[ExperimentConfig, tuple, object], dict], ...]
    finish: Callable[[ExperimentConfig, dict], dict] | None
    tables: dict[str, list[str]]
    params: dict[str, tuple]
    replicates: int
    max_replicates: int | None = None
    rule: Callable[[dict, list[str]], None] | None = None
    forked: bool = False
    windowed: bool = False


def _l96_rule(p: dict, errors: list[str]) -> None:
    """What both Lorenz-96 scenarios require across their parameters."""
    sizes = _l96_sizes(p)
    if p["target_ne"] is not None and None not in sizes:
        bad = [n for n in sizes if p["target_ne"] > n]
        if bad:
            errors.append(
                f"params.target_ne: target_ne={p['target_ne']} exceeds ensemble size n={bad} "
                "(requires target_ne <= n)"
            )
    # AssimilationProblem.n_steps is floor(t_f / dt_obs + 1e-9): keep it >= 1
    t_f = p["t_f"]
    long = [dt for dt in p["dt_obs"] or [] if t_f and t_f / dt + 1e-9 < 1]
    if long:
        errors.append(f"params.t_f: t_f={t_f} is shorter than dt_obs={long} "
                      "(requires at least one observation)")


# Defaults follow the published experiment tables, desk-scaled where noted
# in the README; the rest of each published setting is a module constant
# beside the scenario that reads it.  The two Lorenz-96 scenarios share the
# trimming target and the augmentation cap.
_L96_PARAMS = {
    "target_ne": (50.0, 1.0),
    "r_max": (3.0, 1.0),
}

_CHECK_COLUMNS = ["check", "value", "tolerance", "ok"]

SCENARIOS = {
    "l63-limit-dist": Scenario(
        "Lorenz-63 single-step posterior: EnKF vs trimmed sweep vs particle filter",
        (_l63_forecast, _l63_update, _l63_summary),
        None,
        {
            "histograms.csv": ["replicate", "filter", "lam", "bin_lo", "bin_hi", "mass"],
            "ks.csv": ["replicate", "filter", "lam", "ks_to_pf"],
        },
        params={
            "n": (100_000, 2),
            "lambdas": ([10.0, 3.0, 1.0, 0.5, 0.3], 1e-12),
            "bins": (200, 10),
        },
        replicates=1,
        windowed=True,
    ),
    "l96-rmse-sweep": Scenario(
        "Stochastic Lorenz-96 twin experiments: RMSE over (n, dt_obs) grids",
        (_l96_truths, _l96_run),
        _l96_rmse_quantiles,
        {
            "rmse.csv": ["replicate", "filter", "n", "dt_obs", "rmse_time_avg",
                         "rmse_mean_time_avg"],
            "quantiles.csv": ["filter", "n", "dt_obs", "q25", "q50", "q75"],
            "series.csv": ["replicate", "filter", "n", "dt_obs", "step", "time", "rmse"],
        },
        params={
            **_L96_PARAMS,
            "t_f": (15.0, 1e-12),
            "dt_obs": ([0.9], 1e-12),
            "n": ([100, 200, 400, 1000, 4000], 2),
            "augment": (True, None),
        },
        replicates=30,
        rule=_l96_rule,
    ),
    "l96-adaptive-aug": Scenario(
        "Deterministic Lorenz-96 with adaptive trimming and ensemble augmentation",
        (_l96_truths, _l96_run),
        None,
        {
            "traces.csv": ["replicate", "filter", "dt_obs", "step", "time", "n_forecast",
                           "n_d", "n_aug", "n_e", "lam", "rmse"],
            "augmentation.csv": ["replicate", "filter", "dt_obs", "aug_ratio_time_avg",
                                 "rmse_time_avg", "rmse_mean_time_avg"],
        },
        params={
            **_L96_PARAMS,
            "t_f": (32.0, 1e-12),
            "dt_obs": ([0.8], 1e-12),
            "n": (200, 2),
        },
        replicates=10,
        rule=_l96_rule,
        forked=True,
    ),
    "linear-gaussian-check": Scenario(
        "Scalar linear-Gaussian equivalence check against the exact Kalman filter",
        (_lingauss_reference, _lingauss_run),
        None,
        {
            "comparison.csv": ["replicate", "filter", "step", "mean_est", "var_est",
                               "mean_exact", "var_exact", "se_mean", "se_var", "ok"],
            "checks.csv": _CHECK_COLUMNS,
        },
        params={
            "A": (1.0, -1e12),
            "Q": (0.01, 0.0),
            "H": (1.0, -1e12),
            "R": (0.04, 1e-12),
            "steps": (5, 1),
            "n": (100_000, 2),
            "se_factor": (4.0, 1e-12),
        },
        replicates=1,
    ),
    "bimodal-oracle-check": Scenario(
        "Quadrature bridging and sampling checks on the bimodal toy problem",
        (_bimodal_checks,),
        None,
        {"bridge.csv": ["lam", "ks_to_posterior"], "checks.csv": _CHECK_COLUMNS},
        params={
            "points": (2048, 64),
            "n": (100_000, 2),
        },
        replicates=1,
        max_replicates=1,
    ),
}


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Execute a validated configuration, writing result files to its
    output directory.  With zero replicates nothing but metadata is
    produced.

    Every stage maps its units on ``threads * max(1, usable CPUs //
    threads)`` workers (``threads: 0``: one per usable CPU), the calling
    one among them, each holding an equal part of the caller's CPUs; a
    stage with fewer units than workers leaves its units the spare CPUs.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.replicates == 0:
        return ScenarioResult(files=[], replicate_failures=[])
    scenario = SCENARIOS[cfg.scenario]
    cpus = usable_cpus()
    threads = cfg.threads or cpus
    workers = threads * max(1, cpus // threads)
    window = workers if scenario.windowed else cfg.replicates
    tables, failed = {}, {}
    for lo in range(0, cfg.replicates, window):
        _run_stages(scenario, cfg, range(cfg.replicates)[lo:lo + window], workers, tables, failed)
    if scenario.finish is not None:
        tables.update(scenario.finish(cfg, tables))
    files = [
        write_table(out / name, columns, tables.get(name, []))
        for name, columns in scenario.tables.items()
    ]
    checks = tables.get("checks.csv", []) if "checks.csv" in scenario.tables else None
    return ScenarioResult(files=files, replicate_failures=[failed[rep] for rep in sorted(failed)],
                          checks=checks)
