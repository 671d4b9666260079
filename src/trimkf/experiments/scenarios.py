"""The experiment families behind the CLI, each declared once in ``SCENARIOS``.

Replicate ``m`` always derives its streams from ``(seed, m, ...)`` key
material, so results are independent of worker scheduling and of which
other replicates run.  Every scenario's work goes through one unit map,
``_map_units``, on the ``threads`` workers of ``integrators._map_shared``:
a replicate is one unit, except in the two Lorenz-96 scenarios, which map
the truths of every replicate and then every ``(replicate, dt_obs, n,
filter)`` run, so that no worker idles behind one replicate's longest run.
The workers are threads, except for ``l96-adaptive-aug``, whose DP45
forecasts run in forked worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


def _map_units(fn, units, cfg: ExperimentConfig, forked: bool) -> list:
    """``[fn(unit) for unit in units]``, where a unit that raises gives
    ``"Type: message"`` and the other units keep running.

    The units run on ``cfg.threads`` threads (0: one per usable CPU), the
    calling one among them, each with ``max(1, cpus // threads)`` CPUs.
    With ``forked`` each thread's CPUs become as many processes, the caller
    and workers forked from it, ``threads * max(1, cpus // threads)`` in
    all, each with one CPU: so ``threads: 1`` uses every usable CPU.
    """

    def attempt(unit):
        try:
            return fn(unit)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    cpus = usable_cpus()
    workers = cfg.threads or cpus
    if forked:
        workers *= max(1, cpus // workers)
    return _map_shared(attempt, units, workers, forked)


def _first_failures(reps, outcomes, failed: dict) -> dict:
    """``failed`` (``{rep: message}``) with the first failed outcome of each
    replicate not in it yet; ``reps`` gives each outcome's replicate."""
    for rep, out in zip(reps, outcomes):
        if isinstance(out, str):
            failed.setdefault(rep, f"replicate {rep}: {out}")
    return failed


def _joined(reps, parts, failed: dict) -> tuple[dict, list[str]]:
    """The row tables of ``parts`` joined in order, leaving out every
    replicate that failed before (``failed``) or in ``parts``, and each
    failed replicate's first failure, in replicate order."""
    _first_failures(reps, parts, failed)
    tables = _join(part for rep, part in zip(reps, parts) if rep not in failed)
    return tables, [failed[rep] for rep in sorted(failed)]


def _join(parts) -> dict:
    """The row tables ``{file: rows}`` of ``parts``, each joined in order."""
    tables: dict[str, list[dict]] = {}
    for part in parts:
        for name, rows in part.items():
            tables.setdefault(name, []).extend(rows)
    return tables


# ---------------------------------------------------------------------------
# Lorenz-63 limiting distributions
# ---------------------------------------------------------------------------


# The published setting: Lorenz63Params's alpha, rho and beta with model
# noise 0.01 on Heun steps of 0.01, one observation of x2 at t=1 with noise
# tau, and a truth and members drawn around (1.5, 1.5, 25) with spread 0.1.
_L63_MODEL = Lorenz63Params(sigma=0.01)
_HEUN = IntegratorConfig(scheme="stochastic-heun", dt=0.01)
_L63_T1, _L63_X0, _L63_SD0, _L63_TAU = 1.0, (1.5, 1.5, 25.0), 0.1, 0.2


def _l63_replicate(cfg: ExperimentConfig, rep: int) -> dict:
    p = cfg.params
    dyn = lorenz63_model(_L63_MODEL)
    meas = select_observer(3, [1], noise_std=_L63_TAU)
    n = int(p["n"])

    rng_t = _rng(cfg.seed, rep, _STREAM_TRUTH)
    truth0 = np.array([x + _L63_SD0 * rng_t.standard_normal() for x in _L63_X0])
    # One observation interval: the measurement at t1 is the one assimilated.
    truth = simulate_truth(AssimilationProblem(dyn, meas, _HEUN, _L63_T1, _L63_T1), truth0, rng_t)
    y0, y_star = truth.y0[0], truth.observations[:, 0]

    rng_fc = _rng(cfg.seed, rep, _STREAM_FILTER["enkf"])
    members = np.empty((3, n))
    members[0] = _L63_X0[0] + _L63_SD0 * rng_fc.standard_normal(n)
    members[1] = y0 + _L63_TAU * rng_fc.standard_normal(n)
    members[2] = _L63_X0[2] + _L63_SD0 * rng_fc.standard_normal(n)
    joint = forecast(Ensemble(members), dyn, meas, _HEUN, _L63_T1, rng_fc)

    # Every update sees the same forecast and draws from its own keyed
    # stream, so the updates, then their summaries, run on the thread's CPU
    # share.  Output order is fixed: the PF reference, the EnKF, then the
    # trimmed filter's lambda sweep.  Each update copies one posterior row
    # into an array made before any update runs: copies made between the
    # updates' temporaries kept 13-16 MB of freed heap resident, not 4-11.
    runs = [(name, lam) for name, lams in (("pf", [None]), ("enkf", [None]),
                                           ("tenkf", p["lambdas"])) for lam in lams]
    posteriors = [np.empty(n) for _ in runs]

    def update(i):
        name, lam = runs[i]
        key = [cfg.seed, rep, _STREAM_FILTER[name]] + ([] if lam is None else [stream_key(lam)])
        trim = None if lam is None else TrimConfig(lam=lam)
        state = FilterMethod(name, trim=trim).update(joint, y_star, meas, _rng(*key))
        posteriors[i][:] = state.posterior.members[1]

    _map_shared(update, range(len(runs)))

    # One shared binning per replicate so histograms are comparable.
    lo, hi = min(s.min() for s in posteriors), max(s.max() for s in posteriors)
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    edges = np.linspace(lo - pad, hi + pad, int(p["bins"]) + 1)

    def summarize(i):  # bin masses, and the KS distance to the PF's posterior
        masses = np.histogram(posteriors[i], bins=edges)[0] / n
        return masses, (ks_distance(posteriors[i], posteriors[0]) if i else None)

    hist_rows, ks_rows = [], []
    summaries = _map_shared(summarize, range(len(runs)))
    for (name, lam), (masses, ks) in zip(runs, summaries):
        hist_rows += [{"replicate": rep, "filter": name, "lam": lam, "bin_lo": float(a),
                       "bin_hi": float(b), "mass": float(m)}
                      for a, b, m in zip(edges[:-1], edges[1:], masses)]
        if ks is not None:
            ks_rows.append({"replicate": rep, "filter": name, "lam": lam, "ks_to_pf": ks})
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


def _l96_runs(cfg: ExperimentConfig, forked: bool, sizes: list[int], model: Lorenz96Params,
              icfg: IntegratorConfig, augment: bool, rows) -> tuple[dict, list[str]]:
    """The row tables ``rows(rep, dt_obs, n, filter, run)`` of every filter
    run of every replicate, joined in (rep, dt_obs, n, filter) order, and
    the replicate failures.  The trimmed filter also augments when
    ``augment`` is set.

    Replicate ``rep``'s truth at one ``dt_obs`` starts at ``mu0 + mu1 z +
    sigma0 e`` with one shared scalar ``z``, and all its runs at that
    ``dt_obs`` share it.  Each run's members share the truth's ``mu0 + mu1
    z`` in the unobserved components and scatter with noise ``tau`` around
    the truth's time-zero measurement in the observed ones.

    The truths of all replicates go through the unit map first (the
    problems hold the model's drift, a closure that does not pickle, so
    the caller keeps them).  Then every run of every replicate whose truths
    all succeeded goes through it in one map, the trimmed runs first: a
    trimmed DP45 run, which augments, carries about 3/4 of its replicate's
    work.  A replicate reports its first failed truth, else its first
    failed run in (dt_obs, n, filter) order, and writes no rows.
    """
    p = cfg.params
    dim = _L96_N
    obs_idx = np.arange(0, dim, 2)
    dyn = lorenz96_model(model)
    meas = select_observer(dim, obs_idx, noise_std=_L96_TAU)
    trim = TrimConfig(target_ne=p["target_ne"])
    aug = None
    if augment:
        aug = AugmentConfig(d_max=_L96_D_MAX, r_max=p["r_max"], sigma_p=_L96_SIGMA_P)
    methods = {
        name: FilterMethod(name, trim=trim, augment=aug if name == "tenkf" else None)
        for name in _L96_FILTERS
    }
    problems = {dt_obs: AssimilationProblem(dyn, meas, icfg, dt_obs, p["t_f"])
                for dt_obs in p["dt_obs"]}

    def simulate(key):  # the base of (rep, dt_obs)'s members, and its truth
        rep, dt_obs = key
        rng_t = _rng(cfg.seed, rep, _STREAM_TRUTH, stream_key(dt_obs))
        base = _L96_MU0 + _L96_MU1 * rng_t.standard_normal()
        return base, simulate_truth(problems[dt_obs],
                                    base + _L96_SIGMA0 * rng_t.standard_normal(dim), rng_t)

    keys = [(rep, dt_obs) for rep in range(cfg.replicates) for dt_obs in p["dt_obs"]]
    simulated = _map_units(simulate, keys, cfg, forked)
    failed = _first_failures([rep for rep, _ in keys], simulated, {})
    truths = dict(zip(keys, simulated))

    def run(unit):
        rep, dt_obs, n, name = unit
        base, truth = truths[rep, dt_obs]
        rng_f = _rng(cfg.seed, rep, _STREAM_FILTER[name], n, stream_key(dt_obs))
        members = base + _L96_SIGMA0 * rng_f.standard_normal((dim, n))
        members[obs_idx] = truth.y0[:, None] + _L96_TAU * rng_f.standard_normal(
            (obs_idx.size, n)
        )
        return rows(rep, dt_obs, n, name, run_assimilation(
            problems[dt_obs], methods[name], rng_f, truth, Ensemble(members)))

    units = [(rep, dt_obs, n, name) for rep, dt_obs in keys if rep not in failed
             for n in sizes for name in _L96_FILTERS]
    order = sorted(range(len(units)), key=lambda i: units[i][-1] != "tenkf")
    parts = _map_units(run, [units[i] for i in order], cfg, forked)
    parts = [part for _, part in sorted(zip(order, parts))]
    return _joined([rep for rep, *_ in units], parts, failed)


def _l96_rmse_rows(rep: int, dt_obs: float, n: int, name: str, run) -> dict:
    key = {"replicate": rep, "filter": name, "n": n, "dt_obs": dt_obs}
    return {
        "rmse.csv": [{**key, "rmse_time_avg": time_avg_rmse(run.rmse),
                      "rmse_mean_time_avg": time_avg_rmse(run.rmse_mean)}],
        "series.csv": [{**key, "step": k + 1, "time": float(t), "rmse": float(run.rmse[k])}
                       for k, t in enumerate(run.truth.times[1:])],
    }


def _l96_rmse_runs(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    p = cfg.params
    return _l96_runs(cfg, False, p["n"], _L96_SDE, _HEUN, p["augment"], _l96_rmse_rows)


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


def _l96_aug_runs(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    """DP45 on small blocks is about 100 short ufunc calls per attempt, which
    do not run faster on threads: the truths and runs go to forked workers."""
    n = int(cfg.params["n"])
    return _l96_runs(cfg, True, [n], _L96_ODE, _DP45, True, _l96_aug_rows)


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


def _lingauss_replicate(cfg: ExperimentConfig, rep: int) -> dict:
    p = cfg.params
    A, Q, H, R = (np.array([[p[k]]]) for k in ("A", "Q", "H", "R"))
    dyn, meas = linear_gaussian_model(A, Q, H, R)
    problem = AssimilationProblem(dyn, meas, IntegratorConfig(), 1.0, float(p["steps"]))
    n = int(p["n"])
    prior_sd = float(np.sqrt(_LG_PRIOR_VAR))
    trim = TrimConfig(target_ne=max(2.0, _LG_TARGET_NE_FRACTION * n))

    rng_t = _rng(cfg.seed, rep, _STREAM_TRUTH)
    truth0 = np.array([_LG_PRIOR_MEAN + prior_sd * rng_t.standard_normal()])
    truth = simulate_truth(problem, truth0, rng_t)  # its y0 draw is unused here
    means, covs = kalman_filter_sequence(
        A, Q, H, R,
        np.array([_LG_PRIOR_MEAN]), np.array([[_LG_PRIOR_VAR]]),
        list(truth.observations.T),
    )

    def run(name):
        """The comparison and check rows of one filter's run."""
        rows, checks = [], []
        rng_f = _rng(cfg.seed, rep, _STREAM_FILTER[name])
        initial = Ensemble(_LG_PRIOR_MEAN + prior_sd * rng_f.standard_normal((1, n)))
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

    # Each filter draws from its own keyed stream, so the runs share the thread's CPUs.
    return _join(_map_shared(run, _LG_FILTERS))


# ---------------------------------------------------------------------------
# Bimodal quadrature checks
# ---------------------------------------------------------------------------


# The published measurement, the bridge's lambdas, the large and small lambda
# of the limit checks, the sampling update's lambda, and the KS tolerances.
_BIMODAL_Y_STAR, _BIMODAL_LAMBDAS = 1.5, (10.0, 1.0, 0.3, 0.1, 0.03)
_BIMODAL_LAM_LARGE, _BIMODAL_LAM_SMALL, _BIMODAL_SAMPLE_LAM = 1e9, 0.02, 0.3
_KS_TOL_LARGE, _KS_TOL_SMALL = 1e-4, 0.02
_KS_TOL_TENKF_SAMPLING, _KS_TOL_PF_SAMPLING = 0.03, 0.02


def _bimodal_replicate(cfg: ExperimentConfig, rep: int) -> dict:
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

    ``replicate(cfg, rep)`` returns one replicate's rows as ``{file: rows}``,
    each replicate one unit of ``_map_units`` on threads; a scenario whose
    replicates split into independent runs gives None there and
    ``runs(cfg)``, which maps the runs of all replicates and returns their
    joined rows and the replicate failures.  The optional
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
    replicate: Callable[[ExperimentConfig, int], dict] | None
    finish: Callable[[ExperimentConfig, dict], dict] | None
    tables: dict[str, list[str]]
    params: dict[str, tuple]
    replicates: int
    max_replicates: int | None = None
    rule: Callable[[dict, list[str]], None] | None = None
    runs: Callable[[ExperimentConfig], tuple[dict, list[str]]] | None = None


def _l96_rule(p: dict, errors: list[str]) -> None:
    """What both Lorenz-96 scenarios require across their parameters."""
    sizes = p["n"] if isinstance(p["n"], list) else [p["n"]]
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
        _l63_replicate,
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
    ),
    "l96-rmse-sweep": Scenario(
        "Stochastic Lorenz-96 twin experiments: RMSE over (n, dt_obs) grids",
        None,
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
        runs=_l96_rmse_runs,
    ),
    "l96-adaptive-aug": Scenario(
        "Deterministic Lorenz-96 with adaptive trimming and ensemble augmentation",
        None,
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
        runs=_l96_aug_runs,
    ),
    "linear-gaussian-check": Scenario(
        "Scalar linear-Gaussian equivalence check against the exact Kalman filter",
        _lingauss_replicate,
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
        _bimodal_replicate,
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
    produced."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.replicates == 0:
        return ScenarioResult(files=[], replicate_failures=[])
    scenario = SCENARIOS[cfg.scenario]
    if scenario.runs is not None:
        tables, failures = scenario.runs(cfg)
    else:
        reps = range(cfg.replicates)
        parts = _map_units(partial(scenario.replicate, cfg), reps, cfg, forked=False)
        tables, failures = _joined(reps, parts, {})
    if scenario.finish is not None:
        tables.update(scenario.finish(cfg, tables))
    files = [
        write_table(out / name, columns, tables.get(name, []))
        for name, columns in scenario.tables.items()
    ]
    checks = tables.get("checks.csv", []) if "checks.csv" in scenario.tables else None
    return ScenarioResult(files=files, replicate_failures=failures, checks=checks)
