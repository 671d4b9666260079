"""Tests for the dynamic and measurement model contracts."""

import numpy as np
import pytest

from trimkf.integrators import IntegratorConfig, integrate
from trimkf.models import (
    DynModel,
    Lorenz63Params,
    Lorenz96Params,
    MeasModel,
    ModelError,
    l63_drift,
    l96_drift,
    linear_gaussian_model,
    log_likelihood,
    lorenz63_model,
    lorenz96_model,
    observe,
    select_observer,
)

L63_STD = Lorenz63Params(alpha=10.0, rho=28.0, beta=8.0 / 3.0)


def _l63(x, p):
    """``l63_drift`` into a fresh buffer."""
    return l63_drift(x, p, np.empty(np.shape(x)))


def _l96(x, p):
    """``l96_drift`` into a fresh buffer."""
    return l96_drift(x, p, np.empty(np.shape(x)))


class TestLorenz63:
    def test_origin_is_fixed_point(self):
        assert np.allclose(_l63(np.zeros(3), L63_STD), 0.0)

    def test_hand_value_ones(self):
        out = _l63(np.array([1.0, 1.0, 1.0]), L63_STD)
        assert out == pytest.approx([0.0, 26.0, 1.0 - 8.0 / 3.0])

    def test_hand_value_second(self):
        out = _l63(np.array([1.0, 1.0, 0.0]), L63_STD)
        assert out == pytest.approx([0.0, 27.0, 1.0])

    def test_vectorized_matches_columnwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5))
        batch = _l63(x, L63_STD)
        for i in range(5):
            assert np.array_equal(batch[:, i], _l63(x[:, i], L63_STD))

    def test_beta_must_be_positive(self):
        with pytest.raises(ModelError):
            Lorenz63Params(beta=0.0)

    @staticmethod
    def _stack_reference(x, p):
        # The three-temporary np.stack form the in-place drift replaced.
        x = np.asarray(x, dtype=float)
        return np.stack(
            [
                p.alpha * (x[1] - x[0]),
                x[0] * (p.rho - x[2]) - x[1],
                x[0] * x[1] - p.beta * x[2],
            ]
        )

    @staticmethod
    def _allocating_reference(x, p):
        # Frozen: the drift as it was when it allocated its own output.
        x = np.asarray(x, dtype=float)
        out = np.empty((3,) + x.shape[1:])
        d0, d1, d2 = out[0, ...], out[1, ...], out[2, ...]
        np.subtract(x[1], x[0], out=d0)
        d0 *= p.alpha
        np.multiply(x[0], x[1], out=d1)
        np.multiply(p.beta, x[2], out=d2)
        np.subtract(d1, d2, out=d2)
        np.subtract(p.rho, x[2], out=d1)
        d1 *= x[0]
        d1 -= x[1]
        return out

    def test_bit_identical_to_stack_form(self):
        p = Lorenz63Params(alpha=10.0, rho=28.0, beta=8.0 / 3.0, sigma=0.5)
        rng = np.random.default_rng(63)
        block = 15.0 * rng.standard_normal((3, 7))
        wide = 15.0 * rng.standard_normal((3, 9))
        inputs = {
            "1-D": block[:, 0].copy(),
            "C-order": block,
            "F-order": np.asfortranarray(block),
            "strided column": wide[:, 3],
            "strided block": wide[:, ::2],
        }
        for name, x in inputs.items():
            before, out = x.copy(), np.empty(x.shape)
            got = l63_drift(x, p, out)
            assert got is out, name
            for want in (self._stack_reference(x, p), self._allocating_reference(x, p)):
                assert got.shape == want.shape == x.shape, name
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
            assert np.array_equal(x, before), name


@pytest.mark.parametrize(
    "params, field, value",
    [
        (Lorenz63Params, "alpha", np.nan),
        (Lorenz63Params, "rho", np.inf),
        (Lorenz63Params, "beta", np.nan),
        (Lorenz63Params, "sigma", -np.inf),
        (Lorenz96Params, "forcing", np.nan),
        (Lorenz96Params, "sigma", np.inf),
    ],
)
def test_non_finite_field_is_named(params, field, value):
    # rejected when built, not at the first drift as an IntegrationError
    with pytest.raises(ModelError, match=f"^{field} must be finite, got "):
        params(**{field: value})


class TestLorenz96:
    def test_uniform_forcing_state_is_fixed_point(self):
        p = Lorenz96Params(forcing=8.0)
        assert np.allclose(_l96(np.full(8, 8.0), p), 0.0)

    def test_zero_state_gives_pure_forcing(self):
        p = Lorenz96Params(forcing=8.0)
        assert np.allclose(_l96(np.zeros(6), p), 8.0)

    def test_hand_value_cyclic_wrap(self):
        # component-wise with cyclic indexing, F = 0, damping -x_j:
        # j=1: -x3*x4 + x4*x2 - x1 = -12 + 8 - 1 = -5
        # j=2: -x4*x1 + x1*x3 - x2 = -4 + 3 - 2 = -3
        # j=3: -x1*x2 + x2*x4 - x3 = -2 + 8 - 3 = 3
        # j=4: -x2*x3 + x3*x1 - x4 = -6 + 3 - 4 = -7
        p = Lorenz96Params(forcing=0.0)
        out = _l96(np.array([1.0, 2.0, 3.0, 4.0]), p)
        assert out == pytest.approx([-5.0, -3.0, 3.0, -7.0])

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(1)
        p = Lorenz96Params(forcing=8.0)
        x = rng.standard_normal(12)
        for shift in (1, 3, 7):
            rotated = _l96(np.roll(x, shift), p)
            assert np.allclose(rotated, np.roll(_l96(x, p), shift), atol=1e-12)

    def test_needs_four_components(self):
        # a 3-row state would otherwise get a wrong derivative, [7, 6, 5]
        with pytest.raises(ModelError, match="at least 4 components, got 3"):
            _l96(np.array([1.0, 2.0, 3.0]), Lorenz96Params())

    @pytest.mark.parametrize("dim", [4, 8, 36])
    def test_dimension_is_the_state_rows(self, dim):
        # the default parameters step a state of any size; the dimension is
        # the state's leading axis
        model = lorenz96_model(Lorenz96Params())
        x = 8.0 + np.random.default_rng(dim).standard_normal((dim, 3))
        out = integrate(model, x, 0.0, 0.05, IntegratorConfig(dt=0.01))
        assert out.shape == (dim, 3) and np.all(np.isfinite(out))
        f = model.drift(x, 0.0, np.empty_like(x))
        assert np.array_equal(f, self._roll_reference(x, Lorenz96Params()))

    @staticmethod
    def _roll_reference(x, p):
        # The three-copy np.roll form the padded-slice drift replaced.
        x = np.asarray(x, dtype=float)
        xm2 = np.roll(x, 2, axis=0)
        xm1 = np.roll(x, 1, axis=0)
        xp1 = np.roll(x, -1, axis=0)
        return (xp1 - xm2) * xm1 + p.forcing - x

    @staticmethod
    def _padded_reference(x, p):
        # Frozen: the drift as it was when it allocated a cyclically padded
        # copy and its own output.
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        pad = np.empty((n + 3,) + x.shape[1:])
        pad[2 : n + 2] = x
        pad[:2] = x[n - 2 :]
        pad[n + 2] = x[0]
        out = np.subtract(pad[3:], pad[:n])
        out *= pad[1 : n + 1]
        out += p.forcing
        out -= pad[2 : n + 2]
        return out

    @pytest.mark.parametrize("dim", [4, 5, 36, 40])
    def test_bit_identical_to_roll_form(self, dim):
        p = Lorenz96Params(forcing=8.0)
        rng = np.random.default_rng(dim)
        block = 8.0 + 3.0 * rng.standard_normal((dim, 7))
        wide = 8.0 + 3.0 * rng.standard_normal((dim, 9))
        inputs = {
            "1-D": block[:, 0].copy(),
            "C-order": block,
            "F-order": np.asfortranarray(block),
            "strided column": wide[:, 3],
            "strided block": wide[:, ::2],
        }
        for name, x in inputs.items():
            before, out = x.copy(), np.empty(x.shape)
            got = l96_drift(x, p, out)
            assert got is out and got.shape == x.shape, name
            for want in (self._roll_reference(x, p), self._padded_reference(x, p)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
            assert np.array_equal(x, before), name


class TestDriftJacobianChecks:
    """Analytic directional derivatives vs central differences at h = 1e-5."""

    def test_l63_directional_derivative(self):
        rng = np.random.default_rng(3)
        x = np.array([1.2, -3.4, 20.0])
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        a, r, b = L63_STD.alpha, L63_STD.rho, L63_STD.beta
        jac = np.array([[-a, a, 0.0], [r - x[2], -1.0, -x[0]], [x[1], x[0], -b]])
        h = 1e-5
        numeric = (_l63(x + h * v, L63_STD) - _l63(x - h * v, L63_STD)) / (2 * h)
        assert np.allclose(numeric, jac @ v, rtol=1e-6, atol=1e-8)

    def test_l96_directional_derivative(self):
        rng = np.random.default_rng(4)
        p = Lorenz96Params(forcing=8.0)
        x = rng.standard_normal(10) * 3
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        xm2, xm1, xp1 = np.roll(x, 2), np.roll(x, 1), np.roll(x, -1)
        vm2, vm1, vp1 = np.roll(v, 2), np.roll(v, 1), np.roll(v, -1)
        analytic = -xm1 * vm2 + (xp1 - xm2) * vm1 + xm1 * vp1 - v
        h = 1e-5
        numeric = (_l96(x + h * v, p) - _l96(x - h * v, p)) / (2 * h)
        assert np.allclose(numeric, analytic, rtol=1e-6, atol=1e-8)


class TestObservation:
    def test_noiseless_selection_l96(self):
        m = select_observer(4, [0, 2], noise_std=0.0)
        out = observe(m, np.array([1.0, 2.0, 3.0, 4.0]), np.random.default_rng(0))
        assert np.array_equal(out, [1.0, 3.0])

    def test_noiseless_selection_l63_second_component(self):
        m = select_observer(3, [1], noise_std=0.0)
        out = observe(m, np.array([5.0, 6.0, 7.0]), np.random.default_rng(0))
        assert np.array_equal(out, [6.0])

    def test_noise_law_monte_carlo(self):
        tau = 0.05
        m = select_observer(3, [1], noise_std=tau)
        rng = np.random.default_rng(4)
        x = np.array([5.0, 6.0, 7.0])
        draws = np.array([observe(m, x, rng)[0] for _ in range(10_000)])
        assert abs(draws.mean() - 6.0) < 3 * tau / np.sqrt(10_000)
        assert abs(draws.std(ddof=1) - tau) < 0.05 * tau

    @pytest.mark.parametrize("std", [np.nan, np.inf, [0.1, np.nan], -0.5])
    def test_bad_noise_std_rejected(self, std):
        with pytest.raises(ModelError, match="noise_std must be finite and non-negative"):
            MeasModel(obs_dim=2, h=lambda x: np.asarray(x)[:2], noise_std=std)

    @pytest.mark.parametrize("indices", [[1.7], [1.0], [True], [], [[0, 1]]])
    def test_non_integer_indices_rejected(self, indices):
        # [1.7] would otherwise observe component 1
        with pytest.raises(ModelError, match="non-empty 1-D integer sequence"):
            select_observer(3, indices, noise_std=0.1)

    def test_batch_observation_shape(self):
        m = select_observer(4, [0, 2], noise_std=0.1)
        rng = np.random.default_rng(5)
        out = observe(m, np.zeros((4, 7)), rng)
        assert out.shape == (2, 7)

    @staticmethod
    def _multiplicative():
        # Non-additive noise: y = x * exp(eps), eps ~ N(0, 0.1^2).
        def sampler(x, rng):
            return x[:1] * np.exp(0.1 * rng.standard_normal(x[:1].shape))

        return MeasModel(obs_dim=1, h=lambda x: np.asarray(x)[:1], noise_std=0.3,
                         sampler=sampler)

    def test_custom_sampler_replaces_additive_draw(self):
        m = self._multiplicative()
        x = np.array([[1.0, 2.0, -3.0], [0.0, 0.0, 0.0]])
        out = observe(m, x, np.random.default_rng(6))
        eps = np.random.default_rng(6).standard_normal((1, 3))
        assert np.array_equal(out, x[:1] * np.exp(0.1 * eps))
        assert np.all(np.sign(out) == np.sign(x[:1]))  # multiplicative: signs kept

    def test_custom_sampler_has_no_gaussian_likelihood(self):
        with pytest.raises(ModelError, match="custom noise sampler"):
            log_likelihood(self._multiplicative(), np.array([1.0, 0.0]), np.array([1.0]))

    def test_sampler_refusal_precedes_zero_noise_check(self):
        # noise_std left at its default 0: the sampler, not the scale, is the reason
        m = MeasModel(obs_dim=1, h=lambda x: np.asarray(x)[:1],
                      sampler=lambda x, rng: x[:1])
        with pytest.raises(ModelError, match="custom noise sampler"):
            log_likelihood(m, np.array([1.0, 0.0]), np.array([1.0]))


class TestLogLikelihood:
    def test_exact_match_is_zero(self):
        m = select_observer(2, [0], noise_std=0.5)
        assert log_likelihood(m, np.array([1.0, 9.0]), np.array([1.0])) == pytest.approx(0.0)

    def test_one_sigma_deviation(self):
        m = select_observer(1, [0], noise_std=0.5)
        ll = log_likelihood(m, np.array([1.0]), np.array([1.5]))
        assert ll == pytest.approx(-0.5)

    def test_hand_value(self):
        # residual 2 at tau 0.2: -4 / (2 * 0.04) = -50
        m = select_observer(1, [0], noise_std=0.2)
        ll = log_likelihood(m, np.array([0.0]), np.array([2.0]))
        assert ll == pytest.approx(-50.0)

    def test_zero_noise_rejected(self):
        m = select_observer(1, [0], noise_std=0.0)
        with pytest.raises(ModelError):
            log_likelihood(m, np.array([0.0]), np.array([1.0]))

    def test_vectorized_over_members(self):
        m = select_observer(1, [0], noise_std=1.0)
        x = np.array([[0.0, 1.0, 2.0]])
        ll = log_likelihood(m, x, np.array([0.0]))
        assert ll == pytest.approx([0.0, -0.5, -2.0])


class TestLinearGaussian:
    def test_identity_exact(self):
        dyn, meas = linear_gaussian_model(np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        rng = np.random.default_rng(0)
        x = np.array([1.0, -2.0])
        assert np.array_equal(dyn.transition(x, 0.0, rng), x)
        assert np.array_equal(observe(meas, x, rng), x)

    def test_scalar_posterior_variance_formula(self):
        # the conjugate check lives in the oracle tests; here we verify the
        # model pieces feed it: variance of transitions and observations
        rng = np.random.default_rng(1)
        dyn, meas = linear_gaussian_model([[1.0]], [[0.25]], [[1.0]], [[0.04]])
        draws = np.array([dyn.transition(np.array([0.0]), 0, rng)[0] for _ in range(20_000)])
        assert abs(draws.var() - 0.25) < 0.01
        obs = np.array([observe(meas, np.array([0.0]), rng)[0] for _ in range(20_000)])
        assert abs(obs.var() - 0.04) < 0.002

    def test_contraction_to_noise(self):
        dyn, _ = linear_gaussian_model([[0.0]], [[0.0]], [[1.0]], [[1.0]])
        out = dyn.transition(np.array([123.0]), 0.0, np.random.default_rng(0))
        assert out == pytest.approx([0.0])

    def test_non_psd_rejected(self):
        with pytest.raises(ModelError):
            linear_gaussian_model([[1.0]], [[-0.1]], [[1.0]], [[0.1]])
        with pytest.raises(ModelError):
            linear_gaussian_model([[1.0]], [[0.1]], [[1.0]], [[-0.5]])


class TestDynModelContract:
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_bad_noise_intensity_rejected(self, sigma):
        # nan would otherwise integrate as noiseless: nan > 0 is False
        with pytest.raises(ModelError, match="noise_intensity must be finite and non-negative"):
            DynModel(drift=lambda x, t, out: x, noise_intensity=sigma)

    def test_exactly_one_flavor(self):
        with pytest.raises(ModelError):
            DynModel()
        with pytest.raises(ModelError):
            DynModel(drift=lambda x, t, out: x, transition=lambda x, t, r: x)

    def test_deterministic_map_reproducible(self):
        dyn = lorenz63_model(Lorenz63Params())  # sigma = 0
        meas = select_observer(3, [1], noise_std=0.0)
        cfg = IntegratorConfig(scheme="rk45-adaptive", dt=0.01)
        x0 = np.array([1.0, 1.0, 20.0])
        a = integrate(dyn, x0, 0.0, 0.5, cfg)
        b = integrate(dyn, x0, 0.0, 0.5, cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(observe(meas, a, np.random.default_rng(0)),
                              observe(meas, b, np.random.default_rng(1)))

    def test_factories(self):
        assert lorenz63_model(Lorenz63Params(sigma=0.2)).noise_intensity == 0.2
        assert lorenz96_model(Lorenz96Params()).drift(np.zeros(8), 0.0, np.empty(8)).shape == (8,)
