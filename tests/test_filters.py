"""Tests for the EnKF, trimmed EnKF, particle filter, and the run loop."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimkf import filters
from trimkf.ensemble import Ensemble, JointEnsemble, effective_size
from trimkf.filters import (
    LAM_BOUNDS,
    NE_TOLERANCE,
    AssimilationError,
    AssimilationProblem,
    AugmentConfig,
    FilterMethod,
    TrimConfig,
    adapt_lambda,
    assimilate,
    augment_forecast,
    enkf_update,
    forecast,
    pf_update,
    run_assimilation,
    simulate_truth,
    tenkf_update,
    trim_distance,
    trim_weights,
)
from trimkf.integrators import IntegratorConfig
from trimkf.models import DynModel, MeasModel, ModelError, linear_gaussian_model, select_observer


def make_joint(x, y):
    return JointEnsemble(states=Ensemble(np.atleast_2d(np.asarray(x, float))),
                         observations=np.atleast_2d(np.asarray(y, float)))


class TestForecast:
    def test_zero_horizon_noiseless(self):
        dyn = DynModel(drift=lambda x, t, out: np.zeros_like(x))
        meas = select_observer(2, [0], noise_std=0.0)
        prior = Ensemble(np.array([[1.0, 2.0], [3.0, 4.0]]))
        j = forecast(prior, dyn, meas, IntegratorConfig(dt=0.1), 0.0,
                     np.random.default_rng(0))
        assert np.array_equal(j.states.members, prior.members)
        assert np.array_equal(j.observations, [[1.0, 2.0]])

    @pytest.mark.parametrize("scheme", ["stochastic-heun", "rk45-adaptive"])
    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -0.1])
    def test_bad_horizon_rejected_before_any_drift(self, scheme, horizon):
        # nan used to return the prior unchanged under DP45
        calls = []

        def drift(x, t, out):
            calls.append(t)
            return -x

        meas = select_observer(1, [0], noise_std=0.0)
        with pytest.raises(ValueError, match="forecast horizon must be finite and non-negative"):
            forecast(Ensemble(np.ones((1, 3))), DynModel(drift=drift), meas,
                     IntegratorConfig(scheme=scheme, dt=0.1), horizon, np.random.default_rng(0))
        assert calls == []

    def test_identity_dynamics_keeps_states(self):
        dyn = DynModel(transition=lambda x, t, rng: x)
        meas = select_observer(1, [0], noise_std=0.0)
        prior = Ensemble(np.array([[1.0, 2.0, 3.0]]))
        j = forecast(prior, dyn, meas, IntegratorConfig(), 1.0, np.random.default_rng(0))
        assert np.array_equal(j.states.members, prior.members)

    def test_linear_gaussian_moment_propagation(self):
        # exact propagation: mean A mu, cov A S A' + Q
        a, q = 0.8, 0.09
        dyn, meas = linear_gaussian_model([[a]], [[q]], [[1.0]], [[0.01]])
        rng = np.random.default_rng(1)
        n = 10_000
        prior = Ensemble(1.0 + 2.0 * rng.standard_normal((1, n)))
        j = forecast(prior, dyn, meas, IntegratorConfig(), 1.0, rng)
        assert abs(j.states.members.mean() - a * 1.0) < 4 * np.sqrt((a**2 * 4 + q) / n) + 4 * 2 * a / np.sqrt(n)
        assert abs(j.states.members.var(ddof=1) - (a**2 * 4 + q)) < 0.2


class TestEnkfUpdate:
    def test_zero_innovation_returns_prior(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 20))
        y = np.full((1, 20), 3.0)
        state = enkf_update(make_joint(x, y), np.array([3.0]))
        assert np.allclose(state.posterior.members, x)

    def test_scalar_arithmetic(self):
        # K = 0.5 built from the ensemble, then shift = K * (y* - y)
        j = make_joint([[0.0, 1.0]], [[0.0, 2.0]])
        state = enkf_update(j, np.array([2.0]))
        expected = j.states.members + 0.5 * (2.0 - j.observations)
        assert np.allclose(state.posterior.members, expected)

    def test_posterior_mean_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 500))
        y = x[:2] + 0.3 * rng.standard_normal((2, 500))
        j = JointEnsemble(states=Ensemble(x), observations=y)
        y_star = np.array([0.4, -0.2])
        from trimkf.ensemble import kalman_gain

        state = enkf_update(j, y_star)
        gain = kalman_gain(j)
        expected = x.mean(axis=1) + gain @ (y_star - y.mean(axis=1))
        assert np.allclose(state.posterior.members.mean(axis=1), expected, atol=1e-12)

    def test_scalar_linear_gaussian_matches_exact_kalman(self):
        # one-step conjugate check at n = 1e5 within 4 Monte Carlo SEs
        rng = np.random.default_rng(4)
        n = 100_000
        prior_mean, prior_var, tau = 0.0, 1.0, 0.5
        x = prior_mean + np.sqrt(prior_var) * rng.standard_normal((1, n))
        y = x + tau * rng.standard_normal((1, n))
        y_star = np.array([0.8])
        state = enkf_update(JointEnsemble(states=Ensemble(x), observations=y), y_star)
        post = state.posterior.members[0]
        exact_var = prior_var * tau**2 / (prior_var + tau**2)
        exact_mean = exact_var * (y_star[0] / tau**2 + prior_mean / prior_var)
        assert abs(post.mean() - exact_mean) < 4 * post.std() / np.sqrt(n)
        assert abs(post.var(ddof=1) - exact_var) < 4 * post.var(ddof=1) * np.sqrt(2.0 / n)


class TestTrimDistance:
    def test_exact_match_is_zero(self):
        d = trim_distance(np.array([[1.0, 2.0]]), np.array([1.0]), np.array([1.0]))
        assert d[0] == 0.0

    def test_scaled_l1(self):
        d = trim_distance(np.array([[5.0]]), np.array([1.0]), np.array([2.0]))
        assert d == pytest.approx([2.0])

    def test_max_abs(self):
        # augmentation counts a member as near by its largest component
        # deviation: one component beyond d_max is enough to make it far
        y = np.array([[0.5, 0.5, 3.0], [-0.5, -3.0, 0.0]])
        j = make_joint(np.arange(3.0)[None, :], y)
        aug = AugmentConfig(d_max=1.0, r_max=1.0)
        out, n_d = augment_forecast(j, Ensemble(np.zeros((1, 3))), np.zeros(2), aug,
                                    None, np.random.default_rng(0))
        assert n_d == 1 and out is j

    def test_zero_spread_dimension_skipped_with_warning(self):
        y = np.array([[1.0, 1.0], [0.0, 2.0]])
        with pytest.warns(UserWarning, match="zero spread"):
            d = trim_distance(y, np.array([0.0, 0.0]), y.std(axis=1, ddof=1))
        assert d == pytest.approx(np.abs(y[1] - 0.0) / y[1].std(ddof=1))


class TestTrimWeights:
    def test_equal_distances_uniform(self):
        w = trim_weights(np.array([2.0, 2.0, 2.0]), 0.5)
        assert np.allclose(w, 1 / 3)

    def test_hand_ratio(self):
        lam = 0.7
        w = trim_weights(np.array([0.0, lam * np.log(2.0)]), lam)
        assert w == pytest.approx([2 / 3, 1 / 3])

    def test_huge_lambda_is_uniform(self):
        w = trim_weights(np.array([0.0, 1.0, 2.0]), 1e12)
        assert np.allclose(w, 1 / 3, atol=1e-9)

    def test_log_space_stability(self):
        # enormous absolute distances would underflow a naive exp; the
        # max-subtracted form keeps the nearest member at weight 1
        w = trim_weights(np.array([1e6, 1e6 + 1.0]), 1e-3)
        assert w[0] == pytest.approx(1.0) and w[1] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=120),
           lam=st.floats(1e-6, 1e6))
    def test_normalized_and_non_negative(self, d, lam):
        w = trim_weights(np.array(d), lam)
        assert w.shape == (len(d),) and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=120),
           lams=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2))
    def test_effective_size_non_decreasing_in_lambda(self, d, lams):
        # adapt_lambda's bisection relies on this ordering
        lo, hi = sorted(lams)
        d = np.array(d)
        ne_lo = effective_size(trim_weights(d, lo))
        ne_hi = effective_size(trim_weights(d, hi))
        assert ne_hi >= ne_lo * (1.0 - 1e-12)


class TestAdaptLambda:
    def test_target_n_uniform_at_upper_bound(self):
        # target equal to n is satisfied by the zero-trim boundary itself
        d = np.array([0.0, 0.5, 1.0, 2.0])
        lam, w, flag = adapt_lambda(d, 4.0)
        assert lam == LAM_BOUNDS[1]
        assert flag is None
        assert effective_size(w) > 3.9
        assert np.allclose(w, 0.25, atol=1e-6)

    def test_two_member_closed_form(self, monkeypatch):
        # d = (0, 1), target 1.6: w = 0.75 and lambda = 1 / ln 3
        monkeypatch.setattr(filters, "NE_TOLERANCE", 1e-6)
        monkeypatch.setattr(filters, "MAX_BISECT_ITERS", 200)
        lam, w, flag = adapt_lambda(np.array([0.0, 1.0]), 1.6)
        assert flag is None
        assert w == pytest.approx([0.75, 0.25], rel=1e-4)
        assert lam == pytest.approx(1.0 / np.log(3.0), rel=1e-3)

    def test_thousand_member_control(self):
        rng = np.random.default_rng(7)
        d = np.abs(rng.standard_normal(1000))
        lam, w, flag = adapt_lambda(d, 50.0)
        assert flag is None
        ne = effective_size(w)
        assert abs(ne - 50.0) / 50.0 <= NE_TOLERANCE

    def test_identical_distances_flagged(self):
        lam, w, flag = adapt_lambda(np.full(5, 3.0), 2.0)
        assert flag == "no trim possible"
        assert np.allclose(w, 0.2)

    def test_ne_monotone_in_lambda(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = np.abs(rng.standard_normal(200))
            nes = [effective_size(trim_weights(d, lam))
                   for lam in np.logspace(-3, 3, 25)]
            assert all(b >= a - 1e-9 for a, b in zip(nes, nes[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=120),
        target_frac=st.floats(0.0, 1.0),
        tol=st.floats(1e-4, 0.3),
        iters=st.integers(1, 60),
    )
    def test_meets_tolerance_or_flags(self, d, target_frac, tol, iters):
        d = np.array(d)
        target = 1.0 + target_frac * (d.size - 1)
        with mock.patch.multiple(filters, NE_TOLERANCE=tol, MAX_BISECT_ITERS=iters):
            lam, w, flag = adapt_lambda(d, target)
        assert flag is not None or abs(effective_size(w) - target) / target <= tol
        assert w.shape == d.shape and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestTenkfUpdate:
    def test_zero_innovation_is_resampled_prior(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 30))
        y = np.full((1, 30), 2.0)
        j = JointEnsemble(states=Ensemble(x), observations=y)
        with pytest.warns(UserWarning, match="zero spread"):
            state = tenkf_update(j, np.array([2.0]), TrimConfig(lam=1.0),
                                 np.random.default_rng(1))
        # every posterior member is an exact copy of some prior member
        cols_in = {tuple(x[:, i]) for i in range(30)}
        cols_out = {tuple(state.posterior.members[:, i]) for i in range(30)}
        assert cols_out <= cols_in

    def test_huge_lambda_matches_enkf_distribution(self):
        # uniform weights: the update law equals the EnKF's, up to resampling
        rng = np.random.default_rng(10)
        n = 50_000
        x = rng.standard_normal((1, n))
        y = x + 0.5 * rng.standard_normal((1, n))
        j = JointEnsemble(states=Ensemble(x), observations=y)
        y_star = np.array([0.7])
        st_t = tenkf_update(j, y_star, TrimConfig(lam=1e9), np.random.default_rng(2))
        st_e = enkf_update(j, y_star)
        a, b = st_t.posterior.members[0], st_e.posterior.members[0]
        assert abs(a.mean() - b.mean()) < 4 * b.std() / np.sqrt(n) * np.sqrt(2)
        assert abs(a.var(ddof=1) - b.var(ddof=1)) < 4 * b.var(ddof=1) * np.sqrt(2 / n) * np.sqrt(2)

    def test_gaussian_case_matches_enkf_at_any_lambda(self):
        # jointly Gaussian: trimming must not move the posterior law
        rng = np.random.default_rng(11)
        n = 100_000
        x = rng.standard_normal((1, n))
        y = 0.8 * x + 0.6 * rng.standard_normal((1, n))
        j = JointEnsemble(states=Ensemble(x), observations=y)
        y_star = np.array([1.0])
        st_e = enkf_update(j, y_star)
        base = st_e.posterior.members[0]
        for lam in (3.0, 0.5):
            st_t = tenkf_update(j, y_star, TrimConfig(lam=lam), np.random.default_rng(3))
            ne = st_t.n_e
            se = base.std() * np.sqrt(1.0 / n + 1.0 / ne)
            assert abs(st_t.posterior.members[0].mean() - base.mean()) < 4 * se

    def test_adaptive_mode_hits_target(self):
        rng = np.random.default_rng(12)
        n = 2000
        x = rng.standard_normal((1, n))
        y = x + 0.3 * rng.standard_normal((1, n))
        j = JointEnsemble(states=Ensemble(x), observations=y)
        st = tenkf_update(j, np.array([1.5]), TrimConfig(target_ne=100.0),
                          np.random.default_rng(4))
        assert abs(st.n_e - 100.0) / 100.0 < 0.05
        assert st.lambda_used is not None

    def test_posterior_size_override(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 40))
        y = x.copy()
        j = JointEnsemble(states=Ensemble(x), observations=y)
        st = tenkf_update(j, np.array([0.0]), TrimConfig(lam=1.0),
                          np.random.default_rng(5), posterior_size=15)
        assert st.posterior.size == 15

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 100))
        y = x + 0.1 * rng.standard_normal((1, 100))
        j = JointEnsemble(states=Ensemble(x), observations=y)
        st = tenkf_update(j, np.array([0.2]), TrimConfig(lam=0.5), np.random.default_rng(6))
        assert st.lambda_used == 0.5 and st.n_e > 1
        assert st.n_forecast == 100 and st.distance_scale is not None

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 40), over=st.floats(0.0, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_target_above_size_clamped_to_size(self, n, over, seed):
        # a target of n + over members updates exactly as a target of n
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, n))
        j = make_joint(x, x[:1] + 0.5 * rng.standard_normal((1, n)))
        y_star = np.array([0.3])
        got = tenkf_update(j, y_star, TrimConfig(target_ne=n + over), np.random.default_rng(1))
        want = tenkf_update(j, y_star, TrimConfig(target_ne=float(n)), np.random.default_rng(1))
        assert np.array_equal(got.posterior.members, want.posterior.members)
        assert got.lambda_used == want.lambda_used


class TestAugmentForecast:
    @staticmethod
    def _setup(n, y_values, d_max=1.0, r_max=3.0, sigma_p=0.0):
        x = np.arange(n, dtype=float)[None, :]
        j = make_joint(x, np.asarray(y_values, float)[None, :])
        prior = Ensemble(x.copy())
        aug = AugmentConfig(d_max=d_max, r_max=r_max, sigma_p=sigma_p)

        def pipeline(ics, rng):
            return make_joint(ics, ics[0:1])

        return j, prior, aug, pipeline

    def test_formula_half_within(self):
        # n = 100, n_d = 50, r_max = 3 -> size floor(100 * min(3, 2)) = 200
        y = np.r_[np.zeros(50), np.full(50, 10.0)]
        j, prior, aug, pipe = self._setup(100, y, d_max=1.0, r_max=3.0)
        out, n_d = augment_forecast(j, prior, np.array([0.0]), aug, pipe,
                                    np.random.default_rng(0))
        assert n_d == 50 and out.size == 200

    def test_no_augmentation_when_all_near(self):
        j, prior, aug, pipe = self._setup(10, np.zeros(10), d_max=1.0)
        out, _ = augment_forecast(j, prior, np.array([0.0]), aug, pipe,
                                  np.random.default_rng(0))
        assert out is j and out.size == 10

    def test_cap_binds(self):
        # n = 100, n_d = 10 -> min(3, 10) = 3 -> 300
        y = np.r_[np.zeros(10), np.full(90, 10.0)]
        j, prior, aug, pipe = self._setup(100, y, d_max=1.0, r_max=3.0)
        out, _ = augment_forecast(j, prior, np.array([0.0]), aug, pipe,
                                  np.random.default_rng(0))
        assert out.size == 300

    def test_zero_near_maps_to_cap(self):
        j, prior, aug, pipe = self._setup(20, np.full(20, 10.0), d_max=1.0, r_max=2.5)
        out, n_d = augment_forecast(j, prior, np.array([0.0]), aug, pipe,
                                    np.random.default_rng(0))
        assert n_d == 0 and out.size == 50

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), r_max=st.floats(1.0, 5.0), d_max=st.floats(0.1, 5.0),
           seed=st.integers(0, 2**32 - 1))
    def test_none_near_grows_to_cap_property(self, n, r_max, d_max, seed):
        # with no member within d_max the ensemble grows to floor(n r_max),
        # keeping the forecast members first
        rng = np.random.default_rng(seed)
        y = (d_max + rng.exponential(size=n)) * rng.choice([-1.0, 1.0], size=n)
        j, prior, aug, pipe = self._setup(n, y, d_max=d_max, r_max=r_max)
        out, n_d = augment_forecast(j, prior, np.array([0.0]), aug, pipe, rng)
        cap = int(np.floor(n * r_max))
        assert n_d == 0 and out.size == cap
        assert np.array_equal(out.observations[:, :n], j.observations)

    def test_bounds_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(5, 50))
            y = rng.standard_normal(n) * 3
            j, prior, aug, pipe = self._setup(n, y, d_max=1.0, r_max=3.0)
            out, _ = augment_forecast(j, prior, np.array([0.0]), aug, pipe, rng)
            assert n <= out.size <= int(np.floor(n * aug.r_max))


class TestPfUpdate:
    def test_equidistant_likelihoods_pure_resample(self):
        meas = select_observer(1, [0], noise_std=1.0)
        x = np.array([[1.0, -1.0, 1.0, -1.0]])
        j = make_joint(x, x)
        st = pf_update(j, np.array([0.0]), meas, np.random.default_rng(0))
        assert st.n_e == pytest.approx(4.0)
        assert set(np.unique(st.posterior.members)) <= {1.0, -1.0}

    def test_conjugate_gaussian_oracle(self):
        rng = np.random.default_rng(16)
        n = 100_000
        prior_mean, prior_var, tau = 0.0, 4.0, 1.0
        x = prior_mean + 2.0 * rng.standard_normal((1, n))
        meas = select_observer(1, [0], noise_std=tau)
        j = make_joint(x, x)
        y_star = np.array([2.0])
        st = pf_update(j, y_star, meas, rng)
        post = st.posterior.members[0]
        exact_var = prior_var * tau**2 / (prior_var + tau**2)
        exact_mean = exact_var * (y_star[0] / tau**2 + prior_mean / prior_var)
        ne = st.n_e
        assert abs(post.mean() - exact_mean) < 4 * np.sqrt(exact_var / ne)
        assert abs(post.var(ddof=1) - exact_var) < 4 * exact_var * np.sqrt(2.0 / ne)

    def test_nine_to_one_resample_frequency(self):
        # two members whose Gaussian likelihoods have ratio 9:1; over 1e5
        # multinomial draws the selection frequency follows the weights
        from trimkf.ensemble import resample_indices
        from trimkf.models import log_likelihood

        meas = select_observer(1, [0], noise_std=1.0)
        x = np.array([[0.0, np.sqrt(2.0 * np.log(9.0))]])
        w = np.exp(log_likelihood(meas, x, np.array([0.0])))
        w /= w.sum()
        assert w == pytest.approx([0.9, 0.1])
        idx = resample_indices(w, 100_000, np.random.default_rng(19))
        assert abs(np.mean(idx == 0) - 0.9) < 0.01

    def test_degeneracy_error(self):
        meas = MeasModel(obs_dim=1, h=lambda s: s, noise_std=1.0)
        x = np.array([[np.inf]])
        with pytest.raises(Exception):
            pf_update(make_joint(np.array([[1.0]]), np.array([[1.0]])),
                      np.array([np.nan]), meas, np.random.default_rng(0))


def scalar_problem(steps=3):
    dyn, meas = linear_gaussian_model([[1.0]], [[0.01]], [[1.0]], [[0.04]])
    return AssimilationProblem(
        dyn=dyn, meas=meas, integrator=IntegratorConfig(), dt_obs=1.0, t_f=float(steps),
    )


def scalar_run(problem, method, rng, n=500):
    """Draw a standard-normal truth on a spawned child of ``rng`` and ``n``
    standard-normal members on ``rng``, then run ``method`` from them."""
    rng_t = rng.spawn(1)[0]
    truth = simulate_truth(problem, np.array([rng_t.standard_normal()]), rng_t)
    initial = Ensemble(rng.standard_normal((1, n)))
    return run_assimilation(problem, method, rng, truth, initial)


class TestConfigValidation:
    @pytest.mark.parametrize("cls, field, value", [
        (TrimConfig, "lam", np.nan), (TrimConfig, "lam", np.inf),
        (TrimConfig, "target_ne", np.nan), (TrimConfig, "target_ne", np.inf),
        (AugmentConfig, "d_max", np.nan), (AugmentConfig, "d_max", np.inf),
        (AugmentConfig, "r_max", np.nan), (AugmentConfig, "r_max", np.inf),
        (AugmentConfig, "sigma_p", np.nan), (AugmentConfig, "sigma_p", -np.inf),
    ])
    def test_non_finite_rejected(self, cls, field, value):
        # nan passes every sign check; unchecked, d_max = nan grows every
        # forecast to the r_max cap and r_max = inf overflows in augment_forecast
        base = {"d_max": 1.0} if cls is AugmentConfig else {}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cls(**{**base, field: value})

    @pytest.mark.parametrize("dt_obs, t_f, field", [
        (0.0, 1.0, "dt_obs"), (-0.5, 1.0, "dt_obs"), (np.nan, 1.0, "dt_obs"),
        (np.inf, 1.0, "dt_obs"), (1.0, np.inf, "t_f"), (1.0, np.nan, "t_f"),
        (1.0, -1.0, "t_f"),
    ])
    def test_degenerate_timing_rejected(self, dt_obs, t_f, field):
        dyn, meas = linear_gaussian_model([[1.0]], [[0.1]], [[1.0]], [[0.1]])
        with pytest.raises(ValueError, match=field):
            AssimilationProblem(dyn, meas, IntegratorConfig(), dt_obs, t_f)


class TestRunAssimilation:
    def test_zero_steps_returns_prior_only(self):
        problem = scalar_problem(steps=0)
        truth = simulate_truth(problem, np.array([0.3]), np.random.default_rng(0))
        assert truth.states.shape == (1, 1) and truth.y0.shape == (1,)
        run = run_assimilation(problem, FilterMethod("enkf"), np.random.default_rng(0), truth,
                               Ensemble(np.zeros((1, 500))))
        assert run.steps == [] and run.rmse.size == 0

    def test_identity_dynamics_exact_obs_contracts(self):
        dyn, meas = linear_gaussian_model([[1.0]], [[0.0]], [[1.0]], [[1e-6]])
        problem = AssimilationProblem(
            dyn=dyn, meas=meas, integrator=IntegratorConfig(), dt_obs=1.0, t_f=4.0)
        rng = np.random.default_rng(1)
        truth = simulate_truth(problem, np.array([0.5]), rng.spawn(1)[0])
        run = run_assimilation(problem, FilterMethod("enkf"), rng, truth,
                               Ensemble(0.5 + rng.standard_normal((1, 400))))
        assert run.rmse[0] > run.rmse[-1]
        assert run.rmse[-1] < 0.05

    def test_fixed_seed_bit_identical(self):
        problem = scalar_problem()
        a = scalar_run(problem, FilterMethod("enkf"), np.random.default_rng(42))
        b = scalar_run(problem, FilterMethod("enkf"), np.random.default_rng(42))
        assert np.array_equal(a.rmse, b.rmse)
        assert np.array_equal(a.truth.states, b.truth.states)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.posterior.members, sb.posterior.members)

    def test_shared_truth_pairs_filters(self):
        problem = scalar_problem()
        truth = simulate_truth(problem, np.array([0.2]), np.random.default_rng(7))
        initial = Ensemble(np.random.default_rng(0).standard_normal((1, 500)))
        a = run_assimilation(problem, FilterMethod("enkf"), np.random.default_rng(1), truth,
                             initial)
        b = run_assimilation(problem, FilterMethod("pf"), np.random.default_rng(2), truth,
                             initial)
        assert np.array_equal(a.truth.observations, b.truth.observations)

    def test_step_error_annotated(self):
        from trimkf.filters import TruthRun

        dyn = DynModel(drift=lambda x, t, out: x * np.where(t > 1.5, np.nan, 1.0))
        meas = select_observer(1, [0], noise_std=0.1)
        problem = AssimilationProblem(
            dyn=dyn, meas=meas, integrator=IntegratorConfig(dt=0.1),
            dt_obs=1.0, t_f=3.0)
        rng = np.random.default_rng(0)
        initial = Ensemble(np.ones((1, 10)) + 0.01 * rng.standard_normal((1, 10)))
        # prebuilt truth so the failure happens inside the filter loop
        truth = TruthRun(times=np.array([0.0, 1.0, 2.0, 3.0]),
                         states=np.ones((1, 4)),
                         observations=np.ones((1, 3)),
                         y0=np.array([1.0]))
        with pytest.raises(Exception, match="assimilation step 2"):
            run_assimilation(problem, FilterMethod("enkf"), rng, truth, initial)
        # truth-stage failures carry their own stage annotation
        with pytest.raises(Exception, match="truth simulation step"):
            simulate_truth(problem, np.array([1.0]), np.random.default_rng(0))

    def test_tenkf_with_augmentation_diagnostics(self):
        problem = scalar_problem(steps=2)
        method = FilterMethod(
            "tenkf",
            trim=TrimConfig(target_ne=30.0),
            augment=AugmentConfig(d_max=0.05, r_max=2.0, sigma_p=0.1),
        )
        run = scalar_run(problem, method, np.random.default_rng(3), n=100)
        for step in run.steps:
            assert step.posterior.size == 100
            assert step.n_forecast >= 100
            assert step.n_d is not None

    def test_method_validation(self):
        with pytest.raises(ValueError):
            FilterMethod("tenkf")
        with pytest.raises(ValueError):
            FilterMethod("unknown")
        with pytest.raises(ValueError, match="augmentation applies to tenkf only"):
            FilterMethod("enkf", augment=AugmentConfig(d_max=1.0))

    def test_method_update_dispatches_to_its_rule(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((1, 50))
        j = JointEnsemble(states=Ensemble(x), observations=x + 0.1 * rng.standard_normal((1, 50)))
        y_star, trim = np.array([0.3]), TrimConfig(lam=0.5)
        meas = select_observer(1, [0], noise_std=0.1)
        got = FilterMethod("tenkf", trim=trim).update(j, y_star, meas, np.random.default_rng(1))
        want = tenkf_update(j, y_star, trim, np.random.default_rng(1))
        assert np.array_equal(got.posterior.members, want.posterior.members)
        got = FilterMethod("pf").update(j, y_star, meas, np.random.default_rng(2))
        want = pf_update(j, y_star, meas, np.random.default_rng(2))
        assert np.array_equal(got.posterior.members, want.posterior.members)
        got = FilterMethod("enkf").update(j, y_star, meas, None)
        assert np.array_equal(got.posterior.members, enkf_update(j, y_star).posterior.members)

    def test_assimilate_yields_each_step_like_run_assimilation(self):
        problem = scalar_problem(steps=4)
        truth = simulate_truth(problem, np.array([0.1]), np.random.default_rng(7))
        initial = Ensemble(np.random.default_rng(8).standard_normal((1, 200)))
        method = FilterMethod("tenkf", trim=TrimConfig(target_ne=50.0))
        run = run_assimilation(problem, method, np.random.default_rng(3), truth, initial)
        steps = list(assimilate(problem, method, np.random.default_rng(3), truth, initial))
        assert [k for k, _, _ in steps] == [0, 1, 2, 3]
        for (_, joint, state), ref in zip(steps, run.steps):
            assert joint.size == initial.size
            assert np.array_equal(state.posterior.members, ref.posterior.members)


def test_non_additive_noise_through_the_filters():
    # MeasModel.sampler carries non-additive noise, here y = x exp(eps) with
    # eps ~ N(0, 0.1^2). The EnKF and TEnKF only sample observations, so they
    # run; the PF needs a Gaussian likelihood the sampler cannot give.
    def sampler(x, rng):
        return x[:1] * np.exp(0.1 * rng.standard_normal(x[:1].shape))

    meas = MeasModel(obs_dim=1, h=lambda x: np.asarray(x)[:1], sampler=sampler)
    problem = dataclasses.replace(scalar_problem(steps=3), meas=meas)
    truth = simulate_truth(problem, np.array([1.0]), np.random.default_rng(0))
    initial = Ensemble(1.0 + 0.5 * np.random.default_rng(1).standard_normal((1, 300)))
    for method in (FilterMethod("enkf"), FilterMethod("tenkf", trim=TrimConfig(target_ne=60.0))):
        steps = list(assimilate(problem, method, np.random.default_rng(2), truth, initial))
        assert [k for k, _, _ in steps] == [0, 1, 2]
        for _, _, state in steps:
            assert state.posterior.size == 300
            assert np.all(np.isfinite(state.posterior.members))
    with pytest.raises(AssimilationError, match="assimilation step 1") as err:
        list(assimilate(problem, FilterMethod("pf"), np.random.default_rng(2), truth, initial))
    assert isinstance(err.value.__cause__, ModelError)


class TwoArgError(Exception):
    """An exception whose constructor cannot take a single message."""

    def __init__(self, code, detail):
        super().__init__(code, detail)


class TestStageErrors:
    @staticmethod
    def _problem(failing_ndim):
        # Truth states are (1,), ensemble states (1, n): pick the failing stage.
        def transition(x, t, rng):
            if np.ndim(x) == failing_ndim and t >= 1.0:
                raise TwoArgError(7, "transition blew up")
            return np.asarray(x, dtype=float)

        return AssimilationProblem(
            dyn=DynModel(transition=transition),
            meas=select_observer(1, [0], noise_std=0.1), integrator=IntegratorConfig(),
            dt_obs=1.0, t_f=3.0)

    @pytest.mark.parametrize("ndim, stage", [(1, "truth simulation"), (2, "assimilation")])
    def test_two_argument_exception_keeps_cause(self, ndim, stage):
        with pytest.raises(AssimilationError) as err:
            scalar_run(self._problem(ndim), FilterMethod("enkf"), np.random.default_rng(0), n=10)
        assert str(err.value) == (
            f"{stage} step 2 (t=2): TwoArgError: (7, 'transition blew up')"
        )
        assert isinstance(err.value.__cause__, TwoArgError)
        assert err.value.__cause__.args == (7, "transition blew up")
