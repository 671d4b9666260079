"""Tests for the stochastic Heun and adaptive RK45 steppers."""

import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimkf import integrators
from trimkf.integrators import (
    _DP_A,
    _DP_C,
    SCHEMES,
    IntegrationError,
    IntegratorConfig,
    integrate,
    share_cpus,
    thread_cpus,
    usable_cpus,
)
from trimkf.models import (
    DynModel,
    Lorenz63Params,
    Lorenz96Params,
    lorenz63_model,
    lorenz96_model,
)


def scalar_model(a=1.0, sigma=0.0):
    return DynModel(drift=lambda x, t, out: a * x, noise_intensity=sigma)


def one_step(model, x, t, dt, rng):
    """One stochastic Heun step of ``dt`` from ``(x, t)``."""
    return integrate(model, x, t, t + dt, IntegratorConfig(dt=dt), rng)


class TestHeunStep:
    def test_constant_dynamics_identity(self):
        m = DynModel(drift=lambda x, t, out: np.zeros_like(x))
        x = one_step(m, np.array([2.5]), 0.0, 0.1, np.random.default_rng(0))
        assert x == pytest.approx([2.5])

    def test_linear_drift_trapezoidal_expansion(self):
        # x' = x (1 + a dt + a^2 dt^2 / 2) for f = a x, sigma = 0
        a, dt = 0.7, 0.05
        m = scalar_model(a=a)
        x = one_step(m, np.array([1.0]), 0.0, dt, np.random.default_rng(0))
        assert x == pytest.approx([1.0 + a * dt + (a * dt) ** 2 / 2], rel=1e-14)

    def test_pure_noise_increment_variance(self):
        # f = 0, sigma = 1: x' - x = dW with variance dt
        m = DynModel(drift=lambda x, t, out: np.zeros_like(x), noise_intensity=1.0)
        rng = np.random.default_rng(42)
        dt = 0.04
        n = 100_000
        x = one_step(m, np.zeros((1, n)), 0.0, dt, rng)
        var = x.var(ddof=1)
        assert abs(var - dt) < 3 * dt * np.sqrt(2.0 / n)

    def test_same_increment_in_predictor_and_corrector(self):
        # for f = a x the exact affine map determines the noise coefficient
        # (1 + a dt / 2) sigma sqrt(dt); verify against a single known draw
        a, dt, sigma = 1.0, 0.1, 0.5
        m = scalar_model(a=a, sigma=sigma)
        rng = np.random.default_rng(3)
        zeta = np.random.default_rng(3).standard_normal((1,))
        x = one_step(m, np.array([0.0]), 0.0, dt, rng)
        expected = sigma * np.sqrt(dt) * zeta * (1 + a * dt / 2)
        assert x == pytest.approx(expected, rel=1e-12)

    def test_noise_without_rng_rejected(self):
        m = scalar_model(sigma=0.5)
        with pytest.raises(ValueError, match="stochastic integration needs an rng"):
            one_step(m, np.array([1.0]), 0.0, 0.1, None)

    def test_nonfinite_drift_names_member(self):
        def bad(x, t, out):
            out = np.array(x, dtype=float, copy=True)
            if out.ndim == 2:
                out[:, 1] = np.inf
            return out

        m = DynModel(drift=bad)
        with pytest.raises(IntegrationError, match="member 1"):
            one_step(m, np.zeros((1, 3)), 0.0, 0.1, np.random.default_rng(0))


class TestIntegrate:
    def test_zero_interval_returns_copy(self):
        m = scalar_model()
        x0 = np.array([1.0])
        out = integrate(m, x0, 1.0, 1.0, IntegratorConfig(dt=0.1))
        assert np.array_equal(out, x0) and out is not x0

    def test_rk45_exponential_oracle(self):
        # dx/dt = x over unit time: e within 1e-6 at rtol 1e-8
        m = scalar_model(a=1.0)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.1, rtol=1e-8, atol=1e-10)
        out = integrate(m, np.array([1.0]), 0.0, 1.0, cfg)
        assert abs(out[0] - np.e) < 1e-6

    def test_rk45_initial_step_invariance(self):
        m = scalar_model(a=-2.0)
        outs = []
        for dt0 in (0.001, 0.05, 0.5):
            cfg = IntegratorConfig(scheme="rk45-adaptive", dt=dt0, rtol=1e-8, atol=1e-10)
            outs.append(integrate(m, np.array([3.0]), 0.0, 1.0, cfg)[0])
        exact = 3.0 * np.exp(-2.0)
        for o in outs:
            assert abs(o - exact) < 1e-6

    def test_rk4_vs_rk45_on_lorenz(self):
        # an independent reference: 100 chained textbook RK4 steps
        dyn = lorenz63_model(Lorenz63Params())
        x0 = np.array([-5.9, -6.0, 24.0])
        a = x0
        for i in range(100):
            a = _ref_rk4(dyn, a, i * 0.01, 0.01)
        b = integrate(dyn, x0, 0.0, 1.0,
                      IntegratorConfig(scheme="rk45-adaptive", dt=0.01, rtol=1e-9, atol=1e-12))
        assert np.allclose(a, b, atol=1e-3)

    def test_fixed_step_lands_exactly_with_partial_step(self):
        # 0.25 / 0.1 = 2 full steps plus a 0.05 partial step landing on t1
        m = scalar_model(a=1.0)
        out = integrate(m, np.array([1.0]), 0.0, 0.25, IntegratorConfig(dt=0.1))
        assert out[0] == pytest.approx(np.exp(0.25), rel=1e-3)
        # against hand-chained steps: exp is approximated per Heun truncation
        manual = np.array([1.0])
        for dt in (0.1, 0.1, 0.05):
            manual = one_step(m, manual, 0.0, dt, None)
        assert out[0] == manual[0]

    @pytest.mark.parametrize("scheme", ["stochastic-heun", "rk45-adaptive"])
    @pytest.mark.parametrize("t0, t1", [
        (0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0), (np.inf, np.inf),
    ])
    def test_non_finite_span_rejected_before_any_drift(self, scheme, t0, t1):
        calls = []

        def drift(x, t, out):
            calls.append(t)
            return -x

        with pytest.raises(ValueError, match="t0 and t1 must be finite"):
            integrate(DynModel(drift=drift), np.array([1.0]), t0, t1,
                      IntegratorConfig(scheme=scheme, dt=0.1))
        assert calls == []

    def test_noise_with_deterministic_scheme_rejected(self):
        m = scalar_model(sigma=0.5)
        with pytest.raises(IntegrationError):
            integrate(m, np.array([1.0]), 0.0, 1.0,
                      IntegratorConfig(scheme="rk45-adaptive", dt=0.1), np.random.default_rng(0))

    def test_step_underflow_raises(self, monkeypatch):
        # bounded but unresolvable oscillation forces dt below the minimum step
        monkeypatch.setattr(integrators, "MIN_ADAPTIVE_STEP", 1e-5)
        m = DynModel(drift=lambda x, t, out: np.cos(1e7 * t) * np.ones_like(x))
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.1, rtol=1e-10, atol=1e-12)
        with pytest.raises(IntegrationError, match=r"underflow: dt=.* < 1\.000e-05"):
            integrate(m, np.array([1.0]), 0.0, 10.0, cfg)

    def test_step_budget_exhausted_raises(self, monkeypatch):
        # x' = x at rtol 1e-10 from dt = 0.1 needs far more than 5 attempts
        monkeypatch.setattr(integrators, "MAX_ADAPTIVE_STEPS", 5)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.1, rtol=1e-10, atol=1e-12)
        with pytest.raises(IntegrationError, match=r"adaptive step budget exhausted \(5 steps\)"):
            integrate(scalar_model(a=1.0), np.array([1.0]), 0.0, 10.0, cfg)

    def test_fixed_seed_sde_bit_reproducible(self):
        m = scalar_model(a=0.5, sigma=0.3)
        cfg = IntegratorConfig(scheme="stochastic-heun", dt=0.01)
        a = integrate(m, np.array([1.0]), 0.0, 1.0, cfg, np.random.default_rng(99))
        b = integrate(m, np.array([1.0]), 0.0, 1.0, cfg, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_batch_matches_per_member_for_fixed_step(self):
        dyn = lorenz63_model(Lorenz63Params())  # sigma = 0
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6)) + np.array([[0.0], [0.0], [25.0]])
        cfg = IntegratorConfig(dt=0.02)
        batch = integrate(dyn, x, 0.0, 0.3, cfg)
        for i in range(6):
            single = integrate(dyn, x[:, i], 0.0, 0.3, cfg)
            assert np.array_equal(batch[:, i], single)
            manual = x[:, i]
            for k in range(15):
                manual = one_step(dyn, manual, k * 0.02, 0.02, None)
            assert np.array_equal(_bits(single), _bits(manual))

    @settings(max_examples=200, deadline=None)
    @given(t0=st.floats(-100.0, 100.0), span=st.floats(1e-3, 10.0),
           dt_frac=st.floats(2e-3, 2.0), x0=st.floats(-100.0, 100.0))
    def test_fixed_step_lands_on_t1(self, t0, span, dt_frac, x0):
        # dx/dt = 1 integrates exactly, so the result is x0 + (t1 - t0) up to
        # the rounding of the step sums, and the last step ends at t1
        times = []

        def drift(x, t, out):
            times.append(t)
            return np.ones_like(x)

        t1, dt = t0 + span, span * dt_frac
        tol = 1e-9 * max(dt, 1.0) + 1e-12 * (abs(t0) + abs(x0) + span)
        out = integrate(DynModel(drift=drift), np.array([x0]), t0, t1,
                        IntegratorConfig(dt=dt))
        assert out[0] == pytest.approx(x0 + (t1 - t0), rel=0, abs=tol)
        assert max(times) == pytest.approx(t1, rel=0, abs=tol)


class TestHeunWeakOrder:
    """Mean and variance errors on dX = aX dt + sigma dW decay with dt.

    Exact SDE moments: m(t) = x0 exp(at), v(t) = sigma^2 (exp(2at) - 1) / 2a.
    For linear drift the Heun step is exactly the affine map
    x' = G x + (1 + a dt / 2) sigma sqrt(dt) z with G = 1 + a dt + (a dt)^2/2,
    whose chained moments are closed-form.  The ensemble must match that law
    within Monte Carlo error at every dt, and the law's moment errors against
    the SDE must decay at least linearly across {0.04, 0.02, 0.01} (they are
    in fact second order on this problem).  The ensemble mean error is also
    directly resolvable at n = 4e5 and must itself decay.
    """

    @pytest.mark.slow
    def test_moment_error_decay(self):
        a, sigma, t_end, x0 = 2.0, 0.05, 1.0, 1.0
        n = 400_000
        exact_mean = x0 * np.exp(a * t_end)
        exact_var = sigma**2 * (np.exp(2 * a * t_end) - 1) / (2 * a)
        m = scalar_model(a=a, sigma=sigma)
        ens_mean_err, chain_mean_err, chain_var_err = [], [], []
        for k, dt in enumerate((0.04, 0.02, 0.01)):
            growth = 1 + a * dt + (a * dt) ** 2 / 2
            s2 = sigma**2 * dt * (1 + a * dt / 2) ** 2
            steps = round(t_end / dt)
            chain_mean = x0 * growth**steps
            chain_var = s2 * (growth ** (2 * steps) - 1) / (growth**2 - 1)
            chain_mean_err.append(abs(chain_mean - exact_mean))
            chain_var_err.append(abs(chain_var - exact_var))

            rng = np.random.default_rng(1000 + k)
            cfg = IntegratorConfig(scheme="stochastic-heun", dt=dt)
            x = integrate(m, np.full((1, n), x0), 0.0, t_end, cfg, rng)
            est_mean, est_var = x.mean(), x.var(ddof=1)
            se_mean = np.sqrt(est_var / n)
            se_var = est_var * np.sqrt(2.0 / n)
            # the implementation realizes the affine chain law
            assert abs(est_mean - chain_mean) < 4 * se_mean
            assert abs(est_var - chain_var) < 4 * se_var
            ens_mean_err.append(abs(est_mean - exact_mean))
        # discretization error decays at least linearly (measured: ~quadratic)
        assert chain_mean_err[0] / chain_mean_err[1] > 2.0
        assert chain_mean_err[1] / chain_mean_err[2] > 2.0
        assert chain_var_err[0] / chain_var_err[1] > 2.0
        assert chain_var_err[1] / chain_var_err[2] > 2.0
        # and the directly-resolvable ensemble mean error follows it
        assert ens_mean_err[0] > ens_mean_err[1] > ens_mean_err[2]
        assert ens_mean_err[0] / ens_mean_err[2] > 4.0


class TestConfigValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            IntegratorConfig(scheme="euler")

    def test_positive_steps(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)

    def test_adaptive_needs_positive_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(scheme="rk45-adaptive", rtol=0.0)

    @pytest.mark.parametrize("field, value", [
        ("dt", np.nan), ("dt", np.inf), ("rtol", np.nan), ("atol", np.inf),
    ])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        # nan <= 0 is False, so a plain sign check lets nan through
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(scheme="rk45-adaptive", **{field: value})


# ---------------------------------------------------------------------------
# Frozen references: the allocating textbook forms of the steppers.  The
# in-place kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------


def _fresh_drift(model, x, t):
    """The model's drift at ``(x, t)`` into a buffer of its own."""
    return model.drift(x, t, np.empty(np.shape(x)))


def _ref_heun(model, x, t, dt, rng):
    f0 = np.asarray(_fresh_drift(model, x, t), dtype=float)
    if model.noise_intensity > 0:
        dw = model.noise_intensity * np.sqrt(dt) * rng.standard_normal(x.shape)
    else:
        dw = 0.0
    predictor = x + f0 * dt + dw
    f1 = np.asarray(_fresh_drift(model, predictor, t + dt), dtype=float)
    return x + 0.5 * dt * (f0 + f1) + dw


def _ref_rk4(model, x, t, dt):
    """Classic RK4: an independent reference for DP45 on Lorenz-63."""
    def f(x, t):
        return _fresh_drift(model, x, t)

    k1 = f(x, t)
    k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_REF_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _ref_rk45(model, x, t0, t1, cfg):
    """Generator-sum Dormand-Prince with the PI controller; returns the
    final state and the number of accepted and attempted steps."""

    def stages(x, t, dt):
        k = [None] * 7
        k[0] = _fresh_drift(model, x, t)
        for s in range(1, 7):
            xs = x + dt * sum(a * k[j] for j, a in enumerate(_REF_DP_A[s]) if a != 0.0)
            k[s] = _fresh_drift(model, xs, t + _REF_DP_C[s] * dt)
        x5 = x + dt * sum(b * ki for b, ki in zip(_REF_DP_B5, k) if b != 0.0)
        err = dt * sum(e * ki for e, ki in zip(_REF_DP_ERR, k) if e != 0.0)
        return x5, err

    t, dt, prev, accepted, attempts = t0, min(cfg.dt, t1 - t0), 1.0, 0, 0
    while t < t1:
        attempts += 1
        dt = min(dt, t1 - t)
        x_new, err = stages(x, t, dt)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2, axis=0).max()))
        if err_norm <= 1.0:
            t += dt
            x = x_new
            accepted += 1
            factor = 0.9 * ((err_norm + 1e-16) ** -(0.7 / 5.0) * (prev + 1e-16) ** (0.4 / 5.0))
            prev = err_norm
        else:
            factor = 0.9 * (err_norm + 1e-16) ** -(0.7 / 5.0)
        dt = dt * min(5.0, max(0.2, factor))
    return x, accepted, attempts


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _l96_block(n, seed, sigma=0.0):
    rng = np.random.default_rng(seed)
    x = 8.0 + 3.0 * rng.standard_normal((36, n))
    return lorenz96_model(Lorenz96Params(sigma=sigma)), x


def _dp45_vs_ref(model, x, t1, cfg):
    """Integrate with DP45 and with the frozen ``_ref_rk45``; assert the same
    bits and the same drift-call times, where DP45 reuses an attempt's last
    stage as the next first stage and so skips the reference's stage-0 call
    of every attempt after the first.  Returns the accepted and attempted
    step counts and how many rejections came right after an acceptance."""
    calls = {"new": [], "ref": []}

    def logged(log):
        def drift(x, t, out):
            log.append(t)
            return model.drift(x, t, out)

        return DynModel(drift=drift)

    got = integrate(logged(calls["new"]), x, 0.0, t1, cfg)
    want, accepted, attempts = _ref_rk45(logged(calls["ref"]), x, 0.0, t1, cfg)
    assert np.array_equal(_bits(got), _bits(want))
    ref = calls["ref"]
    assert len(ref) == 7 * attempts
    assert calls["new"] == [t for i, t in enumerate(ref) if i < 7 or i % 7]
    assert len(calls["new"]) == 6 * attempts + 1
    stage0_times = ref[::7]
    took = [b > a for a, b in zip(stage0_times, stage0_times[1:])]
    assert sum(took) + 1 == accepted
    # each skipped stage 0 is at the time of the stage it reuses: the last
    # stage after an acceptance, the previous stage 0 after a rejection
    for i, ok in enumerate(took):
        assert stage0_times[i + 1] == (ref[7 * i + 6] if ok else stage0_times[i])
    return accepted, attempts, sum(a and not b for a, b in zip(took, took[1:]))


class TestFrozenReferences:
    def test_heun_matches_textbook_form_bitwise(self):
        for sigma in (0.0, 0.01):
            model, x = _l96_block(50, 1, sigma)
            for dt in (0.01, 0.003):
                got = one_step(model, x, 0.2, dt, np.random.default_rng(5))
                want = _ref_heun(model, x, 0.2, dt, np.random.default_rng(5))
                assert np.array_equal(_bits(got), _bits(want))
        l63 = lorenz63_model(Lorenz63Params(sigma=0.3))
        x = np.array([[1.5], [1.5], [25.0]]) + np.random.default_rng(2).standard_normal((3, 40))
        got = one_step(l63, x, 0.0, 0.01, np.random.default_rng(7))
        want = _ref_heun(l63, x, 0.0, 0.01, np.random.default_rng(7))
        assert np.array_equal(_bits(got), _bits(want))

    def test_dp45_matches_generator_sum_form(self):
        # Same states bit for bit and the same step sequence: the logged
        # drift-call times pin every accepted and rejected attempt.
        model, x = _l96_block(40, 3)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.01, rtol=1e-6, atol=1e-9)
        accepted, attempts, _ = _dp45_vs_ref(model, x, 0.8, cfg)
        assert attempts > accepted  # the controller's rejection path was exercised

    @pytest.mark.parametrize("layout, rtol", [("1-D", 1e-6), ("F", 1e-3)])
    def test_dp45_state_layouts(self, layout, rtol):
        # the truth path integrates a single (N,) state; a block may be F-ordered
        model, x = _l96_block(40, 3)
        x = x[:, 0].copy() if layout == "1-D" else np.asfortranarray(x)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.1, rtol=rtol, atol=1e-9)
        accepted, attempts, _ = _dp45_vs_ref(model, x, 0.8, cfg)
        assert attempts > accepted

    def test_dp45_rejection_right_after_acceptance(self):
        # the rejected attempt starts from a reused last stage, and so does
        # the retry after it
        model, x = _l96_block(20, 4)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.5, rtol=1e-3, atol=1e-9)
        _, _, reject_after_accept = _dp45_vs_ref(model, x, 0.8, cfg)
        assert reject_after_accept >= 1

    def test_dp45_last_stage_row_is_fifth_order_weights(self):
        # FSAL and the reuse of the last stage state as the solution rest on
        # row 6 of the tableau being b (with b_6 = 0) at node c_6 = 1
        assert _DP_A[6] == _REF_DP_B5[:6] and _REF_DP_B5[6] == 0.0
        assert _DP_C[6] == 1.0


class TestInputNotModified:
    @pytest.mark.parametrize("scheme", ["stochastic-heun", "rk45-adaptive"])
    def test_integrate_leaves_x0_alone(self, scheme):
        sigma = 0.01 if scheme == "stochastic-heun" else 0.0
        model, x0 = _l96_block(20, 4, sigma)
        for x in (x0, np.asfortranarray(x0), x0[:, 3]):
            before = x.copy()
            out = integrate(model, x, 0.0, 0.05, IntegratorConfig(scheme=scheme, dt=0.01),
                            np.random.default_rng(0))
            assert np.array_equal(x, before)
            assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_span_below_grid_tolerance_returns_copy(self, sigma):
        # a positive span too short for a step: no step is taken
        m = DynModel(drift=lambda x, t, out: -x, noise_intensity=sigma)
        x0 = np.array([1.0, 2.0])
        out = integrate(m, x0, 0.0, 1e-12, IntegratorConfig(dt=0.01), np.random.default_rng(0))
        assert np.array_equal(out, x0) and out is not x0

    @pytest.mark.parametrize("scheme", ["stochastic-heun", "rk45-adaptive"])
    def test_drift_returning_its_input(self, scheme):
        # dx/dt = x written as the identity: the drift result aliases the
        # stepper's own state buffer, which must not corrupt the step
        m = DynModel(drift=lambda x, t, out: x)
        x0 = np.array([1.0, 2.0])
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, rtol=1e-10, atol=1e-12)
        out = integrate(m, x0, 0.0, 1.0, cfg, np.random.default_rng(0))
        assert np.array_equal(x0, [1.0, 2.0])
        assert out == pytest.approx(np.e * x0, rel=1e-4)


class TestNonFiniteDrift:
    def test_later_dp45_stage_names_member(self):
        # stage 0 (at t = 0) is finite; member 2 turns non-finite from stage 1
        def drift(x, t, out):
            out = -np.asarray(x, dtype=float)
            if t > 0.0:
                out[:, 2] = np.nan
            return out

        m = DynModel(drift=drift)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.1)
        with pytest.raises(IntegrationError, match="member 2"):
            integrate(m, np.ones((2, 4)), 0.0, 1.0, cfg)

    def test_finite_drift_whose_sum_overflows_passes(self):
        # every entry is finite but the one-sum check overflows: the rescan
        # finds nothing, and the steps run on without a warning, Heun's into
        # a non-finite state that only Ensemble's check rejects
        m = DynModel(drift=lambda x, t, out: np.full_like(x, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scheme in SCHEMES:
                integrate(m, np.zeros((3, 2)), 0.0, 0.02, IntegratorConfig(scheme=scheme, dt=0.01))


def _counted_drift(per_call):
    """The drift ``-x``, with non-finite entries of ``x`` mapped to 0, that
    hands each fresh result and its call index to ``per_call(out, i)`` to
    spoil; call 0 is ``k[0]`` and calls 1-6 are the stages of the first DP45
    attempt, in both DP45 and ``_ref_rk45``."""
    calls = [0]

    def drift(x, t, out):
        i = calls[0]
        calls[0] += 1
        out = np.where(np.isfinite(x), -np.asarray(x, dtype=float), 0.0)
        per_call(out, i)
        return out

    return DynModel(drift=drift)


def _ref_checked(model):
    """The model with each drift result checked as it is made: the
    per-drift reference for the error a scheme raises once per step."""

    def drift(x, t, out):
        f = np.asarray(model.drift(x, t, out), dtype=float)
        if not np.all(np.isfinite(f)):
            bad = np.nonzero(~np.all(np.isfinite(f), axis=0))[0]
            raise IntegrationError(f"non-finite drift at t={t:.6g} (member {bad[0]})")
        return f

    return DynModel(drift=drift, noise_intensity=model.noise_intensity)


class TestDP45AttemptCheck:
    """DP45 tests finiteness once per attempt; it must raise what a check of
    every drift result would raise, and nothing where that check passes."""

    CFG = IntegratorConfig(scheme="rk45-adaptive", dt=0.1)

    @pytest.mark.parametrize("stage", range(1, 7))
    def test_first_bad_stage_and_member_named(self, stage):
        # stage s turns member s non-finite, and every later stage member 0
        # too, so only the first bad stage names member s; stages 5 and 6
        # share their time, so the member tells them apart
        def spoil(out, i):
            if i == stage:
                out[1, stage] = np.nan
            elif i > stage:
                out[:, 0] = np.inf

        x0 = np.ones((2, 8))
        with pytest.raises(IntegrationError) as want:
            _ref_rk45(_ref_checked(_counted_drift(spoil)), x0, 0.0, 1.0, self.CFG)
        with pytest.raises(IntegrationError) as got:
            integrate(_counted_drift(spoil), x0, 0.0, 1.0, self.CFG)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"(member {stage})")

    def test_bad_first_stage_only_is_caught(self):
        # stage 1 has no error weight, and the drift maps the non-finite
        # stage states after it to finite results: only k[1] shows the fault
        def spoil(out, i):
            if i == 1:
                out[0, 3] = np.inf

        with pytest.raises(IntegrationError, match=r"non-finite drift at t=0\.02 \(member 3\)"):
            integrate(_counted_drift(spoil), np.ones((2, 5)), 0.0, 1.0, self.CFG)

    def test_bad_drift_at_interval_start(self):
        def spoil(out, i):
            if i == 0:
                out[1, 1] = np.nan

        with pytest.raises(IntegrationError, match=r"non-finite drift at t=0\.5 \(member 1\)"):
            integrate(_counted_drift(spoil), np.ones((2, 3)), 0.5, 1.0, self.CFG)

    def test_bad_drift_at_interval_start_before_step_underflow(self):
        # the span is shorter than MIN_ADAPTIVE_STEP, so the first attempt
        # underflows; k[0] is checked before it
        t1 = 0.5 + integrators.MIN_ADAPTIVE_STEP / 10
        with pytest.raises(IntegrationError, match="adaptive step underflow"):
            integrate(_counted_drift(lambda out, i: None), np.ones((2, 3)), 0.5, t1, self.CFG)

        def spoil(out, i):
            if i == 0:
                out[1, 1] = np.nan

        with pytest.raises(IntegrationError, match=r"non-finite drift at t=0\.5 \(member 1\)"):
            integrate(_counted_drift(spoil), np.ones((2, 3)), 0.5, t1, self.CFG)

    def test_finite_stages_with_overflowing_error(self):
        # b_6 = 0 keeps the solution at x = 0; e_6 k[6] / atol squares past
        # the float range although every stage is finite
        def spoil(out, i):
            if i == 6:
                out[:] = 1e300

        with pytest.raises(IntegrationError, match=r"non-finite error estimate at t=0$"):
            integrate(_counted_drift(spoil), np.zeros((2, 4)), 0.0, 1.0, self.CFG)

    def test_finite_first_stage_whose_sum_overflows_passes(self):
        # k[1] is finite but its sum overflows, which alone must not raise:
        # the huge stage only gets the first attempt rejected
        def spoil(out, i):
            if i == 1:
                out[:] = 1e308

        out = integrate(_counted_drift(spoil), np.zeros((2, 4)), 0.0, 1.0, self.CFG)
        assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# Heun noise drawn ahead on a second CPU of the thread's share
# ---------------------------------------------------------------------------


@pytest.fixture(params=["helper", "inline"])
def noise_path(request, monkeypatch):
    """Run the test with a share of two CPUs, so that a large block's noise
    is drawn on a helper thread (whatever this host has), or of one CPU, so
    that draws stay inline."""
    monkeypatch.setattr(integrators._share, "cpus", 2 if request.param == "helper" else 1,
                        raising=False)
    return request.param


def _thread_counting(model):
    """``model`` with a drift that records ``threading.active_count()``."""
    counts = []

    def drift(x, t, out):
        counts.append(threading.active_count())
        return model.drift(x, t, out)

    return DynModel(drift=drift, noise_intensity=model.noise_intensity), counts


def _chained_heun(model, x, t0, t1, dt, rng):
    """One-step ``integrate`` calls chained over ``integrate``'s grid, each
    drawing its own increment inline: a one-step call starts no helper."""
    n_full, remainder = integrators._fixed_grid_steps(t0, t1, dt)
    t = t0
    for _ in range(n_full):
        x = one_step(model, x, t, dt, rng)
        t += dt
    if remainder > 0.0:
        x = one_step(model, x, t, remainder, rng)
    return x


class TestNoisePrefetch:
    @pytest.mark.parametrize(
        "shape, t1, helper",
        [
            ((36,), 10.005, False),  # 1001 steps, too small for a helper
            ((36, 1000), 0.905, True),  # partial last step
            ((3, 20000), 0.5, True),
        ],
    )
    def test_same_bits_as_chained_steps(self, noise_path, shape, t1, helper):
        if shape[0] == 36:
            model = lorenz96_model(Lorenz96Params(sigma=0.5))
            x0 = 8.0 + 3.0 * np.random.default_rng(12).standard_normal(shape)
        else:
            model = lorenz63_model(Lorenz63Params(sigma=1.0))
            x0 = np.random.default_rng(12).standard_normal(shape) + [[0.0], [0.0], [25.0]]
        cfg = IntegratorConfig(dt=0.01)
        rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        ref = _chained_heun(model, x0, 0.0, t1, cfg.dt, rng_ref)
        counted, counts = _thread_counting(model)
        threads_before = threading.active_count()
        got = integrate(counted, x0, 0.0, t1, cfg, rng)
        assert np.array_equal(_bits(got), _bits(ref))
        # observe draws from the same rng next
        assert np.array_equal(_bits(rng.standard_normal(8)), _bits(rng_ref.standard_normal(8)))
        # a helper ran during the steps exactly when a large block had a second CPU
        assert max(counts) == threads_before + (helper and noise_path == "helper")
        # the first draw starts before the first drift
        assert counts[0] == max(counts)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize(
        "shape, t1",
        [((3, 20000), 0.01), ((3, 20000), 0.004), ((2, 8191), 0.5)],  # one step; too small
    )
    def test_no_helper_without_a_next_large_draw(self, monkeypatch, shape, t1):
        # nothing to draw ahead: the second CPU of the share stays free
        monkeypatch.setattr(integrators._share, "cpus", 2, raising=False)
        model, counts = _thread_counting(DynModel(drift=lambda x, t, out: -x, noise_intensity=1.0))
        threads_before = threading.active_count()
        cfg, rng = IntegratorConfig(dt=0.01), np.random.default_rng(0)
        integrate(model, np.ones(shape), 0.0, t1, cfg, rng)
        assert max(counts) == threads_before

    def test_failing_step_raises_and_cleans_up(self, noise_path):
        base, x0 = _l96_block(1000, 3, sigma=0.5)

        def drift(x, t, out):
            f = base.drift(x, t, out)
            if t > 0.3:
                f[4, 7] = np.nan
            return f

        model = DynModel(drift=drift, noise_intensity=0.5)
        cfg = IntegratorConfig(dt=0.01)
        with pytest.raises(IntegrationError) as ref:
            _chained_heun(model, x0, 0.0, 0.9, cfg.dt, np.random.default_rng(2))
        threads_before = threading.active_count()
        with pytest.raises(IntegrationError) as got:
            integrate(model, x0, 0.0, 0.9, cfg, np.random.default_rng(2))
        assert str(got.value) == str(ref.value)
        assert str(got.value).endswith("(member 7)")
        assert threading.active_count() == threads_before


class TestHeunStepCheck:
    """Heun tests finiteness once per step, by one sum of its two drifts; it
    must raise what a check of every drift result would raise, and leave the
    ``rng`` where that check left it: after the failing step's draw inline,
    and after the next step's draw too on the helper path, whose draw ahead
    has started by then."""

    @pytest.mark.parametrize("bad", ["f(x)", "f(xp)"])
    def test_first_bad_drift_named_and_rng_state(self, noise_path, bad):
        # from t = 0.5, f(x) of the first step is the only call at t = 0.5;
        # the first call after t = 0.805 is the f(xp) of a step, as each later
        # f(x) shares its time with the f(xp) before it
        base, x0 = _l96_block(1000, 3, sigma=0.5)

        def drift(x, t, out):
            f = base.drift(x, t, out)
            if (t == 0.5) if bad == "f(x)" else (t > 0.805):
                f[4, 7] = np.nan
                f[2, 9] = np.inf
            return f

        model = DynModel(drift=drift, noise_intensity=0.5)
        dt, t1 = 0.01, 1.4
        rng_ref, rng = np.random.default_rng(2), np.random.default_rng(2)
        with pytest.raises(IntegrationError) as want:
            _chained_heun(_ref_checked(model), x0, 0.5, t1, dt, rng_ref)
        with pytest.raises(IntegrationError) as got:
            integrate(model, x0, 0.5, t1, IntegratorConfig(dt=dt), rng)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("(member 7)")
        t_bad = float(re.search(r"t=(\S+) ", str(got.value)).group(1))
        assert t_bad == (0.5 if bad == "f(x)" else 0.81)
        if noise_path == "helper":
            rng_ref.standard_normal(x0.shape)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_heun_interval_memory_does_not_grow_with_steps(noise_path):
    # One workspace per call: the traced peak is the same for 10 and 90
    # steps, and it is the workspace's five state-sized slots (six with a
    # helper's second increment slot; the last state slot is returned), up
    # to a few KiB of Python objects (the helper thread's among them).
    model, x = _l96_block(1000, 6, sigma=0.5)
    cfg, peaks = IntegratorConfig(dt=0.01), []
    for t1 in (0.1, 0.9):
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            integrate(model, x, 0.0, t1, cfg, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    slack = 16 * 2**10
    assert abs(peaks[0] - peaks[1]) < slack
    assert peaks[1] <= (5 + (noise_path == "helper")) * x.nbytes + slack


class TestCpuShare:
    def test_usable_cpus_follows_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
        else:
            assert usable_cpus() == (os.cpu_count() or 1)

    def test_share_belongs_to_the_thread(self, monkeypatch):
        # a thread never given a share may use every usable CPU
        monkeypatch.setattr(integrators, "usable_cpus", lambda: 3)
        seen = []

        def other(n):
            seen.append(thread_cpus())
            if n is not None:
                share_cpus(n)
                seen.append(thread_cpus())

        for n in (None, 1, 2):
            worker = threading.Thread(target=other, args=(n,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        # each new thread starts without the share the last one set
        assert seen == [3, 3, 1, 3, 2]
