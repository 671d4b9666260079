"""Time integration: fixed-step stochastic Heun and adaptive RK45.

The stochastic Heun step uses a trapezoidal update of the drift and an
Euler update of the noise, with the same Gaussian increment appearing in
predictor and corrector.  The adaptive scheme is the Dormand-Prince 5(4)
embedded pair with a PI step controller (safety 0.9, growth clamped to
[0.2, 5.0]).

The pair is first-same-as-last: the last stage is the drift at the new
solution, so an accepted attempt's last stage is reused as the next first
stage.  DP45 thus calls the drift six times per attempt plus once per
interval, and a drift must be a pure function of ``(x, t)``.

A non-finite drift result raises ``IntegrationError`` naming its time and
first bad member.  Heun checks each drift result as it is made, as does
DP45 for the first drift of an interval.  A DP45 attempt is checked
once, after its error norm, which every stage but stage 1 enters with a
nonzero weight; stage 1 gets a test of its own.  Within an attempt the
drift may therefore be called on a non-finite stage state before the
attempt raises the error the first bad stage would have raised.

All steppers accept states of shape ``(N,)`` or ``(N, n)`` (member columns)
as long as the model drift is vectorized; without noise, Heun results on a
batch are bit-identical to stepping each column alone.

Drifts write into buffers the steppers own (``drift(x, t, out)``, see
``models``), and nothing is allocated per step.  A Heun ``integrate`` call
runs in one workspace of state-sized arrays allocated once per call: two
state slots used in turn, the first drift ``f0``, the predictor ``xp`` and
the noise increment.  The second drift is written straight into the next
state slot, and the last state slot is the result; a span of one ``dt``
is one step.  The slots are separate arrays, not one stacked block:
freeing a block as large as a 3x1e5 workspace (14 MB) raises glibc's
dynamic mmap and trim thresholds to its size, the heap then kept later
temporaries resident, and the ``oracle-1e5`` benchmark (an L63 forecast,
then the quadrature oracles) peaked 13 MB higher.  DP45 writes each stage
into one of seven preallocated arrays ``k`` and swaps ``k[0]`` and
``k[6]`` on acceptance.

Where the Heun noise is drawn: the steps take their standard-normal
increments in order from an iterator, which draws each one from the
caller's ``rng`` on the calling thread.  When the state is a large block
(at least ``NOISE_HELPER_MIN_ELEMS`` numbers, over more than one step)
and the calling thread's CPU share is more than one CPU, the iterator is
``_drawn_ahead``: it draws each increment one step ahead on a helper
thread, into a second noise slot of the workspace, while the calling
thread computes the current step's drifts.  The order cannot change: the
increments are consecutive draws from one Generator, so drawing them in
another order, count or stream would change the result bytes and the
``rng`` state after the call (``observe`` draws from it next).  The
helper never draws past the interval's last step and is joined before
``integrate`` returns or raises.

A thread's share is set with ``share_cpus``.  The thread map
``_map_shared``, which runs the scenarios' replicates and units and the
oracle's block passes, gives each of its threads ``max(1, share //
threads)``.  A thread never given a share may use every usable CPU, so
library code that calls ``integrate`` from threads of its own calls
``share_cpus`` in each.  CPUs left over go unused:
with 3 CPUs and 2 threads, neither thread ever starts a helper.  Asked to,
the map runs its helpers' items in forked worker processes instead, each
holding the same part of the share: the DP45 scenario's replicates and
filter runs go there, as DP45 on small blocks does not run faster on
threads (see ``_map_shared``).
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

from .models import DynModel

__all__ = [
    "IntegratorConfig",
    "IntegrationError",
    "integrate",
]

SCHEMES = ("stochastic-heun", "rk45-adaptive")

# Attempted adaptive steps per integration interval: a member diverging toward
# a finite-time blow-up fails fast instead of grinding the step size down.
MAX_ADAPTIVE_STEPS = 100_000
# The adaptive controller fails rather than take a step shorter than this.
MIN_ADAPTIVE_STEP = 1e-12
# Fewest numbers in a state whose Heun noise is drawn ahead on a helper
# thread.  The gain was measured on ensemble blocks (36x1000 and up,
# 3x1e5); smaller states, such as a single truth, draw inline.
NOISE_HELPER_MIN_ELEMS = 1 << 14


class IntegrationError(RuntimeError):
    """Raised when a step produces non-finite values or the adaptive
    controller underflows its minimum step."""


def _require_finite(cfg, *names: str) -> None:
    """Raise ``ValueError`` for the first field in ``names`` set to a non-finite value."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step-control parameters.

    ``dt`` is the fixed step of stochastic Heun and the initial step guess
    of the adaptive scheme, which fails below ``MIN_ADAPTIVE_STEP``.
    """

    scheme: str = "stochastic-heun"
    dt: float = 0.01
    rtol: float = 1e-6
    atol: float = 1e-9

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        _require_finite(self, "dt", "rtol", "atol")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme == "rk45-adaptive" and (self.rtol <= 0 or self.atol <= 0):
            raise ValueError("rtol and atol must be positive for the adaptive scheme")


def _nonfinite_drift(f: np.ndarray, t: float) -> IntegrationError:
    """The error for a drift result ``f`` with a non-finite entry, naming
    the first member (column) that has one."""
    if f.ndim == 2:
        bad = np.nonzero(~np.all(np.isfinite(f), axis=0))[0]
        return IntegrationError(f"non-finite drift at t={t:.6g} (member {bad[0]})")
    return IntegrationError(f"non-finite drift at t={t:.6g}")


def _drift_into(drift, x: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """``drift(x, t, out)``; a result other than ``out`` (the drift's input,
    say) is copied into ``out``.  Returns ``out``."""
    f = drift(x, t, out)
    if f is not out:
        np.copyto(out, f)
    return out


def _checked_drift(model: DynModel, x: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    # Overflow here is a diagnosed failure mode (divergent member), not a bug:
    # evaluate quietly, then raise with the member index.  A finite sum proves
    # every entry finite; only a non-finite sum (a bad entry, or an overflow
    # of the sum itself) needs the full scan.
    with np.errstate(over="ignore", invalid="ignore"):
        f = _drift_into(model.drift, x, t, out)
        total_finite = np.isfinite(f.sum())
    if not total_finite and not np.all(np.isfinite(f)):
        raise _nonfinite_drift(f, t)
    return f


def _heun_step(model, x, t, dt, dw, f0, xp, out):
    """One Heun step from ``x`` into ``out`` with the scaled increment
    ``dw`` (0.0 without noise): predictor ``xp = x + f(x,t) dt + dw``,
    corrector ``x + dt/2 (f(x,t) + f(xp, t+dt)) + dw``.  Each in-place
    operation is the same IEEE operation on the same operands as that
    expression (up to commuted operands), so the bits are the same.
    """
    _checked_drift(model, x, t, f0)
    np.multiply(f0, dt, out=xp)
    xp += x
    xp += dw
    _checked_drift(model, xp, t + dt, out)
    out += f0
    out *= 0.5 * dt
    out += x
    out += dw
    return out


# Dormand-Prince 5(4) tableau, in Python floats: a NumPy scalar costs more
# per operation and gives the same bits.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Row 6 is the 5th-order weights b (b_6 = 0) and c_6 = 1: the last stage
# state is the solution and its drift the next step's first stage (FSAL).
# Difference between 5th- and embedded 4th-order weights: the error estimate.
# Only stage 1 has a zero error weight.
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _split_terms(coefs):
    """The nonzero ``(stage, coefficient)`` terms of a combination, in stage
    order, as (first term, remaining terms)."""
    terms = tuple((j, c) for j, c in enumerate(coefs) if c != 0.0)
    return terms[0], terms[1:]


# (stage, node, first term, remaining terms) of each stage 1-6.
_DP_STAGES = tuple((s, _DP_C[s]) + _split_terms(_DP_A[s]) for s in range(1, 7))
_DP_ERR_FIRST, _DP_ERR_REST = _split_terms(_DP_ERR)

_SAFETY = 0.9
_GROW_MIN, _GROW_MAX = 0.2, 5.0
_PI_ALPHA, _PI_BETA = 0.7 / 5.0, 0.4 / 5.0


def _dp_stages(drift, x, t, dt, k, x5, err, tmp):
    """One Dormand-Prince attempt from ``x`` given ``k[0] = f(x, t)``: the
    5th-order solution (the last stage state, as row 6 of the tableau is b)
    into ``x5``, the stage drifts into ``k[1..6]`` and the error estimate
    into ``err``.

    Each combination adds its nonzero terms left to right, scales by ``dt``
    and adds ``x``, the operation order of ``x + dt * sum(a_j k_j)``.  The
    drift results are left unchecked (see ``_check_attempt``).
    """
    for s, c, (j, a), rest in _DP_STAGES:
        np.multiply(k[j], a, out=x5)
        for j, a in rest:
            np.multiply(k[j], a, out=tmp)
            x5 += tmp
        x5 *= dt
        x5 += x
        _drift_into(drift, x5, t + c * dt, k[s])
    j, e = _DP_ERR_FIRST
    np.multiply(k[j], e, out=err)
    for j, e in _DP_ERR_REST:
        np.multiply(k[j], e, out=tmp)
        err += tmp
    err *= dt


def _check_attempt(k, t, dt, err_norm):
    """For an attempt whose error norm or ``k[1]`` sum is not finite, raise
    what checking each drift result in stage order would raise.  Both can
    also overflow on finite stages, so the stages are scanned first.
    """
    for s in range(1, 7):
        if not np.all(np.isfinite(k[s])):
            raise _nonfinite_drift(k[s], t + _DP_C[s] * dt)
    if not math.isfinite(err_norm):
        raise IntegrationError(f"non-finite error estimate at t={t:.6g}")


def _rk45_adaptive(model, x, t0, t1, cfg):
    """Advance to t1 with embedded 5(4) error control.

    A member block of shape (N, n) is stepped in lockstep: the controlling
    error norm is the worst per-member norm, so every member stays within
    tolerance while the whole block shares one step sequence.  The work
    arrays, the seven stage drifts ``k`` among them, belong to this call
    (replicates integrate on several threads at once) and ``x`` itself is
    never written.  An accepted attempt's last stage is the next one's
    first, so ``k[0]`` and ``k[6]`` swap; a rejected one leaves ``k[0]`` as
    it is.
    Each attempt is checked once, on its error norm and ``k[1]``;
    ``integrate`` runs this with overflow and invalid operations quiet.
    """
    drift = model.drift
    x = x.copy()
    x_new, err, ratios, tmp, abs_new = (np.empty_like(x) for _ in range(5))
    abs_x = np.abs(x)
    k = [np.empty_like(x) for _ in range(7)]
    _checked_drift(model, x, t0, k[0])
    t = t0
    dt = min(cfg.dt, t1 - t0)
    prev_err_norm = 1.0
    steps = 0
    while t < t1:
        steps += 1
        if steps > MAX_ADAPTIVE_STEPS:
            raise IntegrationError(
                f"adaptive step budget exhausted ({MAX_ADAPTIVE_STEPS} steps) at t={t:.6g}"
            )
        dt = min(dt, t1 - t)
        if dt < MIN_ADAPTIVE_STEP:
            raise IntegrationError(
                f"adaptive step underflow: dt={dt:.3e} < {MIN_ADAPTIVE_STEP:.3e} at t={t:.6g}"
            )
        _dp_stages(drift, x, t, dt, k, x_new, err, tmp)
        # ratios = (err / (atol + rtol * max(|x|, |x_new|)))**2; max(sum) / N
        # is the same bits as max(mean): dividing by N is monotone.
        np.maximum(abs_x, np.abs(x_new, out=abs_new), out=ratios)
        ratios *= cfg.rtol
        ratios += cfg.atol
        np.divide(err, ratios, out=ratios)
        ratios *= ratios
        err_norm = float(np.sqrt(np.add.reduce(ratios, axis=0).max() / ratios.shape[0]))
        if not (math.isfinite(err_norm) and math.isfinite(np.add.reduce(k[1], axis=None))):
            _check_attempt(k, t, dt, err_norm)
        if err_norm <= 1.0:
            t += dt
            x, x_new = x_new, x
            abs_x, abs_new = abs_new, abs_x
            k[0], k[6] = k[6], k[0]
            # PI controller: uses current and previous accepted error norms.
            factor = _SAFETY * (
                (err_norm + 1e-16) ** -_PI_ALPHA * (prev_err_norm + 1e-16) ** _PI_BETA
            )
            prev_err_norm = err_norm
        else:
            factor = _SAFETY * (err_norm + 1e-16) ** -_PI_ALPHA
        dt = dt * min(_GROW_MAX, max(_GROW_MIN, factor))
    return x


def _fixed_grid_steps(t0: float, t1: float, dt: float):
    """Full steps plus a final partial step landing exactly on t1."""
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    if remainder < 1e-9 * max(dt, 1.0):
        remainder = 0.0
    return n_full, remainder


def integrate(
    model: DynModel,
    x0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Advance a continuous-dynamics state from ``t0`` to ``t1``.

    Stochastic Heun lands exactly on ``t1`` (a final partial step is
    allowed) and needs an ``rng`` whenever noise is active.  The adaptive
    scheme is deterministic and requires ``noise_intensity == 0``.
    """
    if model.drift is None:
        raise IntegrationError("integrate requires a drift-based model")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0!r} and {t1!r}")
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    x = np.asarray(x0, dtype=float)
    if t1 == t0:
        return x.copy()

    if cfg.scheme == "rk45-adaptive":
        if model.noise_intensity > 0:
            raise IntegrationError(
                f"scheme {cfg.scheme!r} is deterministic; model has noise_intensity > 0"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return _rk45_adaptive(model, x, t0, t1, cfg)
    return _heun(model, x, t0, t1, cfg.dt, rng)


def _heun(model, x, t, t1, dt, rng):
    """Stochastic Heun from ``x`` at ``t`` to ``t1``: full steps of ``dt``,
    then a partial one if the grid leaves one, in one workspace (see the
    module docstring).  Returns a new array, also after no steps."""
    noisy = model.noise_intensity > 0
    if noisy and rng is None:
        raise ValueError("stochastic integration needs an rng")
    n_full, remainder = _fixed_grid_steps(t, t1, dt)
    n_steps = n_full + (remainder > 0.0)
    # A helper pays off for a large block with a next step to draw and a second CPU.
    helped = noisy and x.size >= NOISE_HELPER_MIN_ELEMS and n_steps > 1 and thread_cpus() > 1
    with ThreadPoolExecutor(1) if helped else nullcontext() as helper:
        # 0 and 1 the state in turn, 2 f0, 3 xp, 4 (and 5) the noise
        ws = [np.empty(x.shape) for _ in range(4 + noisy + helped)]
        if helped:
            draws = _drawn_ahead(rng, ws[4:], n_steps, helper)
        elif noisy:
            draws = (rng.standard_normal(out=ws[4]) for _ in range(n_steps))
        else:
            draws = itertools.repeat(0.0, n_steps)
        for i, dw in enumerate(draws):
            h = dt if i < n_full else remainder
            if noisy:
                dw *= model.noise_intensity * np.sqrt(h)
            x = _heun_step(model, x, t, h, dw, ws[2], ws[3], ws[i % 2])
            t += dt
        return x if n_steps else x.copy()


def _drawn_ahead(rng, bufs, n_steps, helper):
    """The ``n_steps`` standard-normal increments of a Heun interval, drawn
    from ``rng`` one step ahead on the ``helper`` executor into the two
    workspace slots ``bufs`` in turn.  Step ``i + 1``'s draw is submitted
    once step ``i``'s draw has finished, as its increment is handed out,
    into the slot step ``i - 1`` used, which is done by then."""
    pending = helper.submit(rng.standard_normal, out=bufs[0])
    for i in range(1, n_steps + 1):
        dw = pending.result()
        if i < n_steps:
            pending = helper.submit(rng.standard_normal, out=bufs[i % 2])
        yield dw


# ---------------------------------------------------------------------------
# CPU shares for the Heun noise helper, and the thread map that hands them out
# ---------------------------------------------------------------------------


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


_share = threading.local()


def share_cpus(n: int | None) -> int | None:
    """Give the calling thread ``n`` CPUs, its own included (None: all); return its old share."""
    old, _share.cpus = getattr(_share, "cpus", None), n
    return old


def thread_cpus() -> int:
    """The calling thread's CPU share: what ``share_cpus`` gave it, else every usable CPU."""
    cpus = getattr(_share, "cpus", None)
    return usable_cpus() if cpus is None else cpus


def _map_shared(fn, items, workers: int | None = None, forked: bool = False) -> list:
    """``[fn(item) for item in items]`` on the calling thread and up to
    ``workers - 1`` helpers (``workers`` defaults to the caller's CPU share):
    threads, or with ``forked`` worker processes.

    Workers take items in turn, each holding ``max(1, thread_cpus() //
    workers)`` of the caller's CPU share while it works; the caller's own
    share is restored afterwards.  Once an item raises, or a helper fails
    to start, no new item starts; the started helpers are joined and the
    start's failure, else that of the lowest-index failed item, is raised
    as the serial loop would raise it.  The caller works rather than waits
    because each other thread allocates from its own malloc arena, whose
    freed temporaries stay resident: on ``oracle-1e5`` (2 CPUs) two threads
    beside an idle caller peaked at 89.7 MB, the caller and one thread at
    84-89 MB.

    With ``forked`` the helpers are worker processes forked from the caller
    as the map starts, so ``fn`` and the items need not pickle; what an item
    returns or raises does (an error keeps its type, message and cause).
    Each worker sends its results once no item is left, and the caller
    receives them on its own thread after its own items; a worker that ends
    without sending (killed, or its results do not pickle) fails the map
    with ``RuntimeError``.  DP45 on small
    blocks is about 100 short ufunc calls per attempt, each holding the
    interpreter lock: two threads run it 1.7x slower than one, two
    processes in parallel.  The start method is ``fork``: ``forkserver`` and
    ``spawn`` ran an ``l96-adaptive-aug`` run in 1.17-1.51 and 1.28-1.58 s
    against fork's 1.13-1.32 s, and left ``multiprocessing``'s resource
    tracker (and the fork server) running until the interpreter exits.  A
    process that runs another thread is not forked, as a lock that thread
    holds would be copied held: its items all run on the calling thread.
    Workers inherit the caller's BLAS threads, so their results have the
    bits of the in-process path.
    """
    items = list(items)
    workers = max(1, min(workers or thread_cpus(), len(items)))
    if forked and threading.active_count() > 1:
        workers = 1
    share = max(1, thread_cpus() // workers)
    forked = forked and workers > 1
    if forked:
        import multiprocessing  # only here: the import costs every run 10 ms of set-up

        ctx = multiprocessing.get_context("fork")
        # the next item's index, in memory the forked workers share
        lock, taken = ctx.Lock(), memoryview(mmap.mmap(-1, 8)).cast("q")
    else:
        lock, taken = threading.Lock(), [0]
    done, errors = {}, {}

    def stop():  # no item starts after this
        with lock:
            taken[0] = len(items)

    def work():
        own = share_cpus(share)
        try:
            while True:
                with lock:
                    i = taken[0]
                    taken[0] = i + 1
                if i >= len(items):
                    return
                try:
                    done[i] = fn(items[i])
                except BaseException as exc:  # the caller raises it, after the join
                    errors[i] = exc
                    stop()
        finally:
            share_cpus(own)

    def child(conn):  # a forked worker: its items, then what they gave to the caller
        work()
        conn.send((done, {i: (exc, exc.__cause__) for i, exc in errors.items()}))

    def start():
        """Start one helper; return what joins it."""
        if not forked:
            thread = threading.Thread(target=work)
            thread.start()
            return thread.join
        recv, send = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=child, args=(send,))
        try:
            worker.start()
        except BaseException:
            recv.close()
            raise
        finally:
            send.close()

        def join():
            try:
                with recv:
                    got, failed = recv.recv()
            except EOFError:  # it died, or what it had to send did not pickle
                got, failed = {}, {-1: (RuntimeError("a worker process ended without "
                                                     "sending its results"), None)}
            finally:
                worker.join()
            done.update(got)
            for i, (exc, cause) in failed.items():
                exc.__cause__ = cause
                errors[i] = exc

        return join

    with ExitStack() as joins:
        try:
            for _ in range(workers - 1):
                joins.callback(start())
            work()
        except BaseException:  # a start failed (or the caller was interrupted)
            stop()
            raise
    if errors:
        raise errors[min(errors)]
    return [done[i] for i in range(len(items))]
