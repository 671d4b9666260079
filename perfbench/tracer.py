"""Outside-in span tracer for the ``trimkf`` package.

``Tracer.install`` replaces every public function of every ``trimkf``
module (the names in each module's ``__all__``) with a timing wrapper, and
rebinds every other module attribute that held the same function object:
``scenarios.forecast``, ``filters.integrate``, the package-level re-exports,
and ``models.l96_drift`` as the model lambdas resolve it.  The ensemble
containers' ``__post_init__`` validators are wrapped on their classes.
Private helpers (``_dp_stages``, ``_checked_drift`` and the like) are left
alone, so the drift calls they make show up as children of the public
integrator span that caused them.

Spans live in memory as tuples ``(id, parent_id, thread_id, name, t0, t1,
info)`` on per-thread stacks and are aggregated or written out once the
run has ended.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "trimkf.ensemble",
    "trimkf.models",
    "trimkf.integrators",
    "trimkf.filters",
    "trimkf.oracle",
    "trimkf.metrics",
    "trimkf.experiments.config",
    "trimkf.experiments.io",
    "trimkf.experiments.scenarios",
)

# Layer of a module: the last dotted component, with the experiments
# sub-modules folded into one layer.
def _layer(module: str) -> str:
    parts = module.split(".")
    return "experiments" if "experiments" in parts else parts[-1]


def _columns(x) -> int:
    a = np.asarray(x)
    return a.shape[1] if a.ndim == 2 else 1


def _size(dist) -> int:
    if isinstance(dist, tuple):
        dist = dist[0]
    if hasattr(dist, "pdf") and hasattr(dist, "x"):
        dist = dist.x
    return int(np.asarray(dist).size)


# Per-function probes: cheap facts about a call, recorded with its span.
_PROBES = {
    "models.l63_drift": lambda a, kw, out: int(np.asarray(a[0]).size),
    "models.l96_drift": lambda a, kw, out: int(np.asarray(a[0]).size),
    "integrators.heun_sde_step": lambda a, kw, out: _columns(a[1]),
    "integrators.integrate": lambda a, kw, out: (
        (a[4] if len(a) > 4 else kw["cfg"]).scheme, _columns(a[1])
    ),
    "filters.forecast": lambda a, kw, out: a[0].size,
    "filters.augment_forecast": lambda a, kw, out: (a[0].size, out[0].size),
    "filters.adapt_lambda": lambda a, kw, out: out[2] is None,
    "ensemble.resample_indices": lambda a, kw, out: int(np.asarray(out).size),
    "metrics.ks_distance": lambda a, kw, out: _size(a[0]) + _size(a[1]),
    "experiments.write_table": lambda a, kw, out: out.stat().st_size,
}

_RUSAGE_SPANS = {"integrators.integrate"}


class Tracer:
    """Collects spans from wrapped ``trimkf`` functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        rusage = name in _RUSAGE_SPANS
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident
        getrusage, who = resource.getrusage, resource.RUSAGE_THREAD

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ru0 = getrusage(who) if rusage else None
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                info = probe(args, kwargs, out) if probe is not None and out is not None else None
                if ru0 is not None:
                    ru1 = getrusage(who)
                    info = (info, ru1.ru_minflt - ru0.ru_minflt, ru1.ru_stime - ru0.ru_stime)
                spans.append((sid, parent, ident(), name, t0, t1, info))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every public function and rebind each of its aliases."""
        replaced = {}
        for modname in MODULES:
            mod = sys.modules[modname]
            layer = _layer(modname)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == modname and id(fn) not in replaced:
                    replaced[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        ensemble = sys.modules["trimkf.ensemble"]
        for cls in (ensemble.Ensemble, ensemble.JointEnsemble):
            orig = cls.__dict__["__post_init__"]
            setattr(cls, "__post_init__", self.wrap(f"ensemble.{cls.__name__}.validate", orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "trimkf" and not modname.startswith("trimkf."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        return self

    def dump(self, path: str, main_thread: int):
        """Write the spans as JSON columns."""
        keys = ("id", "parent", "thread", "name", "t0", "t1", "info")
        cols = {k: [s[i] for s in self.spans] for i, k in enumerate(keys)}
        cols["main_thread"] = main_thread
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cols, fh, separators=(",", ":"))


def _union(intervals):
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _overlap(xs, ys) -> float:
    """Total length of the intersection of two interval lists."""
    return sum(max(0.0, min(b, d) - max(a, c)) for a, b in xs for c, d in ys)


def layer_metrics(spans: list[tuple], main_thread: int, run_s: float) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Self time is a span's duration minus the durations of its child spans
    (children run inside the parent on the same thread, one at a time).
    Summed over the spans of one thread it is the time that thread spent
    inside traced code; ``trace.unattributed_s`` is what the run window
    leaves over, summed over the main thread and the pool threads.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1]:
            child_time[s[1]] += s[5] - s[4]
    total = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    thread_self = defaultdict(float)
    for s in spans:
        dur = s[5] - s[4]
        own = dur - child_time[s[0]]
        total[s[3]] += dur
        self_t[s[3]] += own
        calls[s[3]] += 1
        if s[3] != "experiments.validate_config":  # set-up, outside the run window
            layer_self[s[3].split(".")[0]] += own
            thread_self[s[2]] += own

    def tot(*names):
        return sum(total[n] for n in names)

    def outermost(names):
        """Total time of spans in ``names`` not nested inside another one."""
        return sum(
            s[5] - s[4] for s in spans
            if s[3] in names and not (s[1] and by_id[s[1]][3] in names)
        )

    drift = [s for s in spans if s[3] in ("models.l63_drift", "models.l96_drift")]
    drift_elems = sum(s[6] or 0 for s in drift)
    # A DP45 attempt is seven drift calls made straight from an rk45 integrate;
    # each entry is the (scheme, members) probe of that integrate span.
    rk45 = [
        by_id[s[1]][6][0] for s in drift
        if s[1] and by_id[s[1]][3] == "integrators.integrate"
        and by_id[s[1]][6][0] and by_id[s[1]][6][0][0] == "rk45-adaptive"
    ]
    heun = [s for s in spans if s[3] == "integrators.heun_sde_step"]
    integ = [s for s in spans if s[3] == "integrators.integrate"]
    integ_time = sum(s[5] - s[4] for s in integ)
    member_steps = sum(s[6] or 0 for s in heun) + sum(cols for _, cols in rk45) / 7.0
    aug = [s[6] for s in spans if s[3] == "filters.augment_forecast" and s[6]]
    adapt = [s for s in spans if s[3] == "filters.adapt_lambda"]
    trim_in_adapt = sum(
        1 for s in spans
        if s[3] == "filters.trim_weights" and s[1] and by_id[s[1]][3] == "filters.adapt_lambda"
    )

    workers = {s[2] for s in spans} - {main_thread}
    worker_roots = [(s[4], s[5]) for s in spans if s[2] in workers and not s[1]]
    if workers:
        busy = sum(b - a for a, b in worker_roots) / (len(workers) * run_s)
    else:
        busy = (run_s - self_t["experiments.run_scenario"]) / run_s
    # Self time of run_scenario during which a pool thread was busy is the
    # main thread waiting for replicates, not work of the experiments layer.
    pool_wait = 0.0
    for rs in (s for s in spans if s[3] == "experiments.run_scenario"):
        kids = sorted((c[4], c[5]) for c in spans if c[1] == rs[0])
        gaps, t = [], rs[4]
        for a, b in kids:
            gaps.append((t, a))
            t = b
        gaps.append((t, rs[5]))
        pool_wait += _overlap(gaps, _union(worker_roots))
    accounted = sum(thread_self.values())
    window = run_s * (1 + len(workers))

    return {
        "models.drift_s": tot("models.l63_drift", "models.l96_drift"),
        "models.drift_calls": len(drift),
        "models.drift_ns_per_elem": 1e9 * tot("models.l63_drift", "models.l96_drift")
        / max(drift_elems, 1),
        "models.observe_s": tot("models.observe"),
        "models.likelihood_s": tot("models.log_likelihood"),
        "models.self_s": layer_self["models"],
        "integrators.self_s": layer_self["integrators"],
        "integrators.integrate_calls": len(integ),
        "integrators.heun_steps": len(heun),
        "integrators.dp45_attempts": len(rk45) / 7.0,
        "integrators.member_steps_per_s": member_steps / integ_time if integ_time else 0.0,
        "integrators.minflt": sum(s[6][1] for s in integ),
        "integrators.sys_s": sum(s[6][2] for s in integ),
        "filters.forecast_s": tot("filters.forecast"),
        "filters.forecast_members": sum(
            s[6] or 0 for s in spans if s[3] == "filters.forecast"
        ),
        "filters.augment_s": tot("filters.augment_forecast"),
        "filters.aug_extra_members": sum(b - a for a, b in aug),
        "filters.aug_ratio": sum(b for _, b in aug) / sum(a for a, _ in aug) if aug else 1.0,
        "filters.update_s": tot("filters.enkf_update", "filters.tenkf_update", "filters.pf_update"),
        "filters.tenkf_update_s": tot("filters.tenkf_update"),
        "filters.pf_update_s": tot("filters.pf_update"),
        "filters.adapt_lambda_s": tot("filters.adapt_lambda"),
        "filters.bisect_iters": trim_in_adapt / len(adapt) if adapt else 0.0,
        "filters.lambda_converged_frac": (
            sum(1 for s in adapt if s[6]) / len(adapt) if adapt else 0.0
        ),
        "filters.truth_s": tot("filters.simulate_truth"),
        "filters.loop_self_s": self_t["filters.run_assimilation"],
        "filters.self_s": layer_self["filters"],
        "ensemble.gain_s": tot("ensemble.kalman_gain"),
        "ensemble.resample_s": outermost({"ensemble.bootstrap_resample",
                                          "ensemble.resample_indices"}),
        "ensemble.resampled_members": sum(
            s[6] or 0 for s in spans if s[3] == "ensemble.resample_indices"
        ),
        "ensemble.validate_s": tot("ensemble.Ensemble.validate", "ensemble.JointEnsemble.validate"),
        "ensemble.self_s": layer_self["ensemble"],
        "oracle.limit_pdf_s": tot("oracle.enkf_limit_pdf", "oracle.tenkf_limit_pdf"),
        "oracle.limit_pdf_calls": calls["oracle.enkf_limit_pdf"] + calls["oracle.tenkf_limit_pdf"],
        "oracle.posterior_s": tot("oracle.bayes_posterior"),
        "oracle.grid_s": outermost({"oracle.bimodal_toy", "oracle.grid_from_function",
                                    "oracle.joint_from_conditional"}),
        "oracle.kalman_s": outermost({"oracle.kalman_filter_sequence",
                                      "oracle.kalman_filter_exact"}),
        "oracle.self_s": layer_self["oracle"],
        "metrics.ks_s": tot("metrics.ks_distance"),
        "metrics.ks_points": sum(s[6] or 0 for s in spans if s[3] == "metrics.ks_distance"),
        "metrics.rmse_s": tot("metrics.ensemble_rmse", "metrics.ensemble_mean_rmse",
                              "metrics.time_avg_rmse"),
        "metrics.self_s": layer_self["metrics"],
        "experiments.config_s": tot("experiments.validate_config"),
        "experiments.self_s": self_t["experiments.run_scenario"] - pool_wait,
        "experiments.pool_wait_s": pool_wait,
        "experiments.write_s": tot("experiments.write_table"),
        "experiments.bytes_written": sum(
            s[6] or 0 for s in spans if s[3] == "experiments.write_table"
        ),
        "experiments.thread_busy_frac": busy,
        "trace.spans": len(spans),
        "trace.unattributed_s": window - accounted,
    }
