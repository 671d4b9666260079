"""Tests for ensemble containers, covariances, gains, and resampling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimkf.ensemble import (
    Ensemble,
    EnsembleError,
    GainError,
    JointEnsemble,
    cross_covariance,
    effective_size,
    kalman_gain,
    normalize_weights,
    resample_indices,
)
from trimkf.filters import TrimConfig, tenkf_update


def joint(x, y):
    return JointEnsemble(states=Ensemble(np.atleast_2d(np.asarray(x, float))),
                         observations=np.atleast_2d(np.asarray(y, float)))


class TestContainers:
    def test_rejects_non_finite_members(self):
        with pytest.raises(EnsembleError):
            Ensemble(np.array([[1.0, np.nan]]))

    def test_rejects_misaligned_counts(self):
        with pytest.raises(EnsembleError):
            joint([[1.0, 2.0]], [[1.0, 2.0, 3.0]])

    def test_shape_accessors(self):
        j = joint([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], [[1.0, 2.0, 3.0]])
        assert j.size == 3 and j.states.dim == 2


class TestCrossCovariance:
    def test_scalar_variance(self):
        # hand computation: ((1-2)^2 + (3-2)^2) / (2-1) = 2
        c = cross_covariance(np.array([[1.0, 3.0]]), np.array([[1.0, 3.0]]))
        assert c == pytest.approx(np.array([[2.0]]))

    def test_constant_argument_gives_zero(self):
        c = cross_covariance(np.array([[1.0, 2.0]]), np.array([[5.0, 5.0]]))
        assert c == pytest.approx(np.array([[0.0]]))

    def test_three_point_hand_value(self):
        # hand computation: sum (x-1)(y-2) / 2 = ((-1)(-2) + 0 + (1)(2)) / 2 = 2
        c = cross_covariance(np.array([[0.0, 1.0, 2.0]]), np.array([[0.0, 2.0, 4.0]]))
        assert c == pytest.approx(np.array([[2.0]]))

    def test_requires_two_members(self):
        with pytest.raises(EnsembleError):
            cross_covariance(np.array([[1.0]]), np.array([[1.0]]))

    def test_requires_matching_counts(self):
        with pytest.raises(EnsembleError):
            cross_covariance(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0, 3.0]]))

    def test_self_covariance_symmetric_psd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 60))
        c = cross_covariance(x, x)
        assert np.allclose(c, c.T, atol=1e-12)
        assert np.linalg.eigvalsh(c).min() > -1e-10


class TestKalmanGain:
    def test_scalar_ratio(self):
        # two members giving C_xy = 1, C_yy = 2 -> K = 0.5
        j = joint([[0.0, 1.0]], [[0.0, 2.0]])
        g = kalman_gain(j)
        assert g == pytest.approx(np.array([[0.5]]), rel=1e-9)

    def test_identical_state_and_obs_gives_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 50))
        j = JointEnsemble(states=Ensemble(x), observations=x.copy())
        assert kalman_gain(j) == pytest.approx(np.eye(3), abs=1e-8)

    def test_hand_value(self):
        # C_xy = 2, C_yy = 4 -> K = 0.5
        j = joint([[0.0, 1.0, 2.0]], [[0.0, 2.0, 4.0]])
        assert kalman_gain(j) == pytest.approx(np.array([[0.5]]), rel=1e-9)

    def test_constant_observations_give_zero_gain(self):
        j = joint([[0.0, 1.0, 2.0]], [[3.0, 3.0, 3.0]])
        assert np.all(kalman_gain(j) == 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 40))
        y = x[:2] + 0.1 * rng.standard_normal((2, 40))
        perm = rng.permutation(40)
        g1 = kalman_gain(JointEnsemble(states=Ensemble(x), observations=y))
        g2 = kalman_gain(JointEnsemble(states=Ensemble(x[:, perm]), observations=y[:, perm]))
        assert g1 == pytest.approx(g2, rel=1e-9)

    def test_degenerate_cross_covariance_raises(self):
        # constant y but varying x correlated with nothing: C_yy = 0, C_xy = 0 -> fine;
        # force the inconsistent case by hand
        j = joint([[0.0, 1.0]], [[1.0, 1.0]])
        assert np.all(kalman_gain(j) == 0.0)


class TestWeights:
    def test_normalization_and_floor(self):
        w = normalize_weights(np.array([1.0, 3.0, 1e-310]))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[2] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(EnsembleError):
            normalize_weights(np.array([0.5, -0.5]))

    def test_uniform_two_point_effective_size(self):
        assert effective_size(np.array([0.5, 0.5])) == pytest.approx(2.0)

    def test_degenerate_effective_size(self):
        assert effective_size(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_hand_effective_size(self):
        # 1 / (0.25 + 0.0625 + 0.0625) = 1 / 0.375
        assert effective_size(np.array([0.5, 0.25, 0.25])) == pytest.approx(1 / 0.375)

    def test_uniform_weights_give_n_exactly(self):
        for n in (2, 7, 100):
            assert effective_size(np.full(n, 1.0 / n)) == pytest.approx(n)


class TestResampling:
    # A joint ensemble is resampled inside tenkf_update only: the posterior
    # is x[:, idx] + K (y* - y[:, idx]) with idx = resample_indices(w, size, rng).

    def test_point_mass_selects_single_member(self):
        # tiny lambda puts all weight on member 0, whose innovation is zero
        j = joint([[1.0, 2.0]], [[10.0, 20.0]])
        st_ = tenkf_update(j, np.array([10.0]), TrimConfig(lam=1e-6), np.random.default_rng(0))
        assert np.all(st_.posterior.members == 1.0)

    def test_golden_index_sequence_seed_42(self):
        # frozen from numpy.random.default_rng(42).choice with uniform weights
        idx = resample_indices(np.full(4, 0.25), 8, np.random.default_rng(42))
        assert np.array_equal(idx, [3, 1, 3, 2, 0, 3, 3, 3])

    def test_multinomial_frequency(self):
        # empirical draw frequency over 1e5 resamples of w = (0.7, 0.3)
        rng = np.random.default_rng(7)
        idx = resample_indices(np.array([0.7, 0.3]), 100_000, rng)
        freq = np.mean(idx == 0)
        assert abs(freq - 0.7) < 0.01

    def test_pairs_never_split(self):
        # y = 2x + 1 gives K = 1/2, so a member shifted by its own observation
        # lands on (y* - 1) / 2; a state paired with another's observation would not
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 30))
        j = joint(x, 2.0 * x + 1.0)
        st_ = tenkf_update(j, np.array([0.4]), TrimConfig(lam=0.5), rng)
        assert st_.posterior.members == pytest.approx(np.full((1, 30), (0.4 - 1.0) / 2), abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), obs_dim=st.integers(1, 2),
           w=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40).filter(
               lambda w: sum(w) > 0.1),
           size=st.one_of(st.none(), st.integers(1, 80)), seed=st.integers(0, 2**32 - 1))
    def test_pairs_kept_property(self, dim, obs_dim, w, size, seed):
        # with the trimming weights fixed to w, the posterior is bit for bit
        # the update of the pairs resample_indices draws from the same seed,
        # and no pair of zero weight is drawn
        rng = np.random.default_rng(seed)
        n = len(w)
        x = rng.standard_normal((dim, n))
        y = rng.standard_normal((obs_dim, n))
        y_star = rng.standard_normal(obs_dim)
        j = joint(x, y)
        with mock.patch("trimkf.filters.trim_weights", lambda d, lam: normalize_weights(w)):
            got = tenkf_update(j, y_star, TrimConfig(), np.random.default_rng(seed),
                               posterior_size=size)
        idx = resample_indices(np.array(w), n if size is None else size,
                               np.random.default_rng(seed))
        want = x[:, idx] + kalman_gain(j) @ (y_star[:, None] - y[:, idx])
        assert np.array_equal(got.posterior.members, want)
        assert all(w[i] > 0 for i in idx)

    def test_resample_to_other_size(self):
        j = joint([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        st_ = tenkf_update(j, np.array([2.0]), TrimConfig(lam=1.0), np.random.default_rng(1),
                           posterior_size=7)
        assert st_.posterior.size == 7 and st_.n_forecast == 3

    @settings(max_examples=200, deadline=None)
    @given(w=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=60).filter(
               lambda w: sum(w) > 1e-6),
           size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_indices_match_generator_choice_property(self, w, size, seed):
        # the sorted lookup draws the same indices as Generator.choice, with
        # zero weights and output sizes other than len(w)
        w = np.array(w)
        got = resample_indices(w, size, np.random.default_rng(seed))
        want = np.random.default_rng(seed).choice(w.size, size=size, replace=True,
                                                  p=normalize_weights(w))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_determinism_by_seed(self):
        w = np.full(10, 0.1)
        a = resample_indices(w, 50, np.random.default_rng(123))
        b = resample_indices(w, 50, np.random.default_rng(123))
        assert np.array_equal(a, b)


class TestGainErrors:
    def test_error_carries_condition_diagnostic(self):
        x = np.array([[0.0, 1.0, 2.0]])
        y = np.array([[1.0, 1.0, 1.0 + 1e-18]])
        j = JointEnsemble(states=Ensemble(x), observations=y)
        try:
            kalman_gain(j)
        except GainError as exc:
            assert "cond" in str(exc) or "constant" in str(exc)
