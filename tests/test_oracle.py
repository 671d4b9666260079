"""Tests for the quadrature oracles: conditioning, limit mixtures, and the
exact Kalman recursion."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimkf import integrators
from trimkf.ensemble import Ensemble, JointEnsemble
from trimkf.filters import enkf_update
from trimkf.metrics import ks_distance
from trimkf.oracle import (
    DensityGrid,
    JointGrid,
    OracleError,
    bayes_posterior,
    bimodal_toy,
    joint_from_conditional,
    kalman_filter_sequence,
    limit_pdfs,
)


def norm_pdf(z, mu, var):
    return np.exp(-0.5 * (z - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)


@pytest.fixture(scope="module")
def toy():
    return bimodal_toy()


@pytest.fixture(scope="module")
def gaussian_joint():
    # standard bivariate Gaussian with correlation 0.5, unit scales
    x = np.linspace(-8, 8, 1200)
    prior = DensityGrid(x, norm_pdf(x, 0.0, 1.0)).normalized()
    rho = 0.5
    joint = joint_from_conditional(
        prior, lambda y, xx: norm_pdf(y, rho * xx, 1 - rho**2), -8, 8, 1200
    )
    return joint, rho


class TestDensityGrid:
    def test_normalization_invariant(self):
        x = np.linspace(-6, 6, 501)
        g = DensityGrid(x, np.exp(-0.5 * x**2)).normalized()
        assert g.mass() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_density(self):
        with pytest.raises(OracleError):
            DensityGrid(np.linspace(0, 1, 5), np.array([1, -0.1, 1, 1, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_density(self, bad):
        # NaN passed the non-negativity check and gave a nan CDF.
        with pytest.raises(OracleError, match="finite"):
            DensityGrid(np.linspace(0, 1, 5), np.array([1.0, bad, 1.0, 1.0, 1.0]))

    def test_rejects_irregular_grid(self):
        with pytest.raises(OracleError):
            DensityGrid(np.array([0.0, 0.5, 2.0]), np.ones(3))

    def test_moments_of_gaussian(self):
        x = np.linspace(-8, 11, 2001)
        g = DensityGrid(x, norm_pdf(x, 1.5, 0.49)).normalized()
        assert g.mean() == pytest.approx(1.5, abs=1e-6)
        assert g.std() == pytest.approx(0.7, abs=1e-6)

    def test_cdf_monotone_and_normalized(self):
        x = np.linspace(-8, 8, 513)
        g = DensityGrid(x, norm_pdf(x, 0, 1)).normalized()
        c = g.cdf()
        assert c[0] == 0.0 and c[-1] == pytest.approx(1.0)
        assert np.all(np.diff(c) >= 0)

    def test_cdf_of_zero_mass_rejected(self):
        # Was an all-NaN CDF with a RuntimeWarning, so a KS distance to the
        # grid read nan and every ``ks < tol`` check failed without a reason.
        g = DensityGrid(np.linspace(-1, 1, 9), np.zeros(9))
        with pytest.raises(OracleError, match="zero-mass"):
            g.cdf()
        with pytest.raises(OracleError, match="zero-mass"):
            ks_distance(np.zeros(5), g)

    def test_joint_marginals_recover(self, toy):
        joint = toy.joint
        mx = joint.marginal_x()
        exact = 0.5 * norm_pdf(mx.x, -2.0, 0.25) + 0.5 * norm_pdf(mx.x, 2.0, 0.25)
        assert np.max(np.abs(mx.pdf - exact / np.trapezoid(exact, mx.x))) < 1e-6


class TestBayesPosterior:
    def test_independent_joint_returns_prior(self):
        x = np.linspace(-6, 6, 800)
        prior = DensityGrid(x, norm_pdf(x, 0.5, 1.0)).normalized()
        joint = joint_from_conditional(prior, lambda y, xx: norm_pdf(y, 0.0, 1.0), -6, 6, 800)
        post = bayes_posterior(joint, 0.3)
        assert ks_distance(post, prior) < 1e-10

    def test_gaussian_conditioning_formula(self, gaussian_joint):
        joint, rho = gaussian_joint
        post = bayes_posterior(joint, 1.0)
        # X | Y=1 ~ N(rho, 1 - rho^2)
        assert post.mean() == pytest.approx(rho, abs=1e-3)
        assert post.var() == pytest.approx(1 - rho**2, abs=1e-3)

    def test_tight_likelihood_selects_mode(self):
        x = np.linspace(-8, 8, 2048)
        prior = DensityGrid(
            x, 0.5 * norm_pdf(x, -2, 0.25) + 0.5 * norm_pdf(x, 2, 0.25)
        ).normalized()
        joint = joint_from_conditional(prior, lambda y, xx: norm_pdf(y, xx, 0.01), -8, 8, 2048)
        post = bayes_posterior(joint, 2.0)
        mass_right = np.trapezoid(post.pdf[post.x > 0], post.x[post.x > 0])
        assert mass_right > 0.99

    def test_out_of_range_measurement_rejected(self, toy):
        with pytest.raises(OracleError):
            bayes_posterior(toy.joint, 1e9)


class TestEnkfLimit:
    def test_gaussian_case_equals_posterior(self, gaussian_joint):
        # with the exact gain, jointly Gaussian inputs make the limit exact
        joint, rho = gaussian_joint
        gain = rho  # cov(X,Y)/var(Y) for unit variances
        [lim] = limit_pdfs(joint, gain, 1.0, [None])
        post = bayes_posterior(joint, 1.0)
        assert ks_distance(lim, post) < 1e-3

    def test_zero_gain_returns_prior_marginal(self, toy):
        [lim] = limit_pdfs(toy.joint, 0.0, toy.y_star, [None])
        assert ks_distance(lim, toy.joint.marginal_x()) < 1e-12

    def test_bimodal_bias_exists(self, toy):
        [lim] = limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, [None])
        post = bayes_posterior(toy.joint, toy.y_star)
        assert ks_distance(lim, post) > 0.05

    def test_mean_shift_identity(self, toy):
        # mean of the limit density: prior mean + K (y* - mean of Y)
        [lim] = limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, [None])
        mx, my = toy.joint.marginal_x(), toy.joint.marginal_y()
        expected = mx.mean() + toy.exact_gain * (toy.y_star - my.mean())
        assert lim.mean() == pytest.approx(expected, abs=2e-3)

    def test_integrates_to_one(self, toy):
        [lim] = limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, [None])
        assert lim.mass() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_enkf_matches_limit(self, toy, seed):
        # The sampled update at n=1e5 (sample gain) against the limit at the
        # exact gain.  Over 60 other seeds the KS distance had median 0.0028
        # and maximum 0.0066 (Kolmogorov's 99.9% point is 1.95/sqrt(n) =
        # 0.0062); a gain 2% off reads 0.023-0.026.
        [lim] = limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, [None])
        x, y = toy.sample(100_000, np.random.default_rng([seed, 12]))
        joint = JointEnsemble(states=Ensemble(x[None, :]), observations=y[None, :])
        posterior = enkf_update(joint, np.array([toy.y_star])).posterior.members[0]
        assert ks_distance(posterior, lim) < 0.01


def _trimmed(toy, lams):
    """The trimmed limits of the toy at each of ``lams``, in one call."""
    return limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, [(lam, None) for lam in lams])


class TestTenkfLimit:
    def test_large_lambda_matches_enkf_limit(self, toy):
        a, b = limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, [(1e9, None), None])
        assert ks_distance(a, b) < 1e-6

    def test_small_lambda_matches_posterior(self, toy):
        [a] = _trimmed(toy, [1e-4])
        post = bayes_posterior(toy.joint, toy.y_star)
        assert ks_distance(a, post) < 0.02

    def test_intermediate_lambda_between_extremes(self, toy):
        post = bayes_posterior(toy.joint, toy.y_star)
        ks_large, ks_mid, ks_small = (
            ks_distance(lim, post) for lim in _trimmed(toy, [1e9, 0.3, 1e-3]))
        assert ks_small < ks_mid < ks_large

    def test_monotone_bridging(self, toy):
        post = bayes_posterior(toy.joint, toy.y_star)
        kss = [ks_distance(lim, post) for lim in _trimmed(toy, [10.0, 1.0, 0.3, 0.1, 0.03])]
        assert all(b <= a + 1e-12 for a, b in zip(kss, kss[1:]))

    def test_requires_positive_lambda(self, toy):
        with pytest.raises(OracleError):
            limit_pdfs(toy.joint, 1.0, toy.y_star, [(0.0, None)])

    @pytest.mark.parametrize("lam", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_lambda(self, toy, lam):
        with pytest.raises(OracleError, match="lam"):
            limit_pdfs(toy.joint, 1.0, toy.y_star, [(lam, None)])

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf],
                             ids=["negative", "zero", "nan", "inf"])
    def test_rejects_bad_scale(self, toy, scale):
        # A negative scale used to give far observations more weight; zero
        # and nan raised a misleading zero-mass error.
        with pytest.raises(OracleError, match="scale"):
            limit_pdfs(toy.joint, 1.0, toy.y_star, [(0.5, scale)])


def _reference_limit(joint, gain, y_star, lam=None, scale=None):
    """The limit densities as computed before ``JointGrid`` cached anything:
    every full-table integral is recomputed per call and each column is
    read strided.  ``lam=None`` is the plain (EnKF) limit."""
    x, y, pdf = joint.x, joint.y, joint.pdf
    marg_y = np.trapezoid(pdf, x, axis=0)
    weight = marg_y
    if lam is not None:
        if scale is None:
            scale = DensityGrid(y, marg_y).normalized().std()
        d = np.abs(y - y_star) / scale
        weight = marg_y * np.exp(-(d - d.min()) / lam)
    quad_w = np.full(y.size, 1.0)
    quad_w[0] = quad_w[-1] = 0.5
    out = np.zeros_like(x)
    for j in np.nonzero((weight > 0) & (marg_y > 0))[0]:
        shift = gain * (y_star - y[j])
        cond = np.interp(x - shift, x, pdf[:, j], left=0.0, right=0.0)
        out += (quad_w[j] * weight[j] / marg_y[j]) * cond
    return DensityGrid(x, out).normalized()


def _limit(joint, gain, y_star, lam=None, scale=None):
    """One limit density from a one-entry ``limit_pdfs`` call."""
    return limit_pdfs(joint, gain, y_star, [None if lam is None else (lam, scale)])[0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_grid(got, want):
    assert np.array_equal(_bits(got.x), _bits(want.x))
    assert np.array_equal(_bits(got.pdf), _bits(want.pdf))


def _fresh(joint):
    """A joint over the same arrays, with nothing cached yet."""
    return JointGrid(joint.x, joint.y, joint.pdf)


class TestCachedJoint:
    """The cached y-marginal and the limit densities give the old bits."""

    @pytest.mark.parametrize("points", [64, 512, 2048])
    def test_limits_bit_identical_to_per_column_loop(self, points):
        toy = bimodal_toy(points=points)
        gain, y_star = toy.exact_gain, toy.y_star
        cases = [(None, None), (1e9, None), (0.02, None), (0.3, 1.3)]
        wants = [_reference_limit(toy.joint, gain, y_star, lam, scale) for lam, scale in cases]
        for (lam, scale), want in zip(cases, wants):
            # first call on a fresh joint, then again on the warm one
            joint = _fresh(toy.joint)
            _assert_same_grid(_limit(joint, gain, y_star, lam, scale), want)
            _assert_same_grid(_limit(joint, gain, y_star, lam, scale), want)
        # one joint through every case in turn, as the bimodal scenario runs
        joint = _fresh(toy.joint)
        for (lam, scale), want in zip(cases, wants):
            _assert_same_grid(_limit(joint, gain, y_star, lam, scale), want)

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.sampled_from([16, 33, 64]),
        gain=st.floats(-1.5, 1.5),
        y_star=st.floats(-4.0, 4.0),
        lam=st.one_of(st.none(), st.floats(1e-3, 1e6)),
    )
    def test_limits_bit_identical_property(self, points, gain, y_star, lam):
        joint = bimodal_toy(points=points).joint
        try:
            want = _reference_limit(joint, gain, y_star, lam)
        except OracleError:
            with pytest.raises(OracleError):
                _limit(_fresh(joint), gain, y_star, lam)
            return
        _assert_same_grid(_limit(_fresh(joint), gain, y_star, lam), want)

    def test_marginal_y_bit_identical(self, toy):
        joint = _fresh(toy.joint)
        want = DensityGrid(joint.y, np.trapezoid(joint.pdf, joint.x, axis=0)).normalized()
        _assert_same_grid(joint.marginal_y(), want)
        limit_pdfs(joint, toy.exact_gain, toy.y_star, [None])
        _assert_same_grid(joint.marginal_y(), want)

    def test_two_gains_on_one_joint_bit_identical(self, toy):
        # calls with different gains on one joint keep nothing between them
        y_star = toy.y_star
        cases = [(toy.exact_gain, None, None), (0.4, 0.3, None), (0.4, None, None),
                 (toy.exact_gain, 0.05, 1.1)]
        joint = _fresh(toy.joint)
        for gain, lam, scale in cases:
            want = _reference_limit(toy.joint, gain, y_star, lam, scale)
            _assert_same_grid(_limit(joint, gain, y_star, lam, scale), want)

    @pytest.mark.parametrize("points", [64, 300, 2048])  # 300 ends on a partial block
    def test_y_mass_bit_identical_to_trapezoid(self, points):
        joint = _fresh(bimodal_toy(points=points).joint)
        want = np.trapezoid(joint.pdf, joint.x, axis=0)
        assert np.array_equal(_bits(joint._y_mass), _bits(want))

    def test_tables_read_only_and_callers_array_untouched(self, toy):
        table = np.array(toy.joint.pdf)
        joint = JointGrid(toy.joint.x, toy.joint.y, table)
        gain, y_star = toy.exact_gain, toy.y_star
        limit_pdfs(joint, gain, y_star, [(0.5, None)])
        limit_pdfs(joint, 0.5 * gain, y_star, [None])
        for a in (joint.x, joint.y, joint.pdf, joint._y_mass):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            joint.pdf[0, 0] = 1.0
        assert table.flags.writeable and np.shares_memory(joint.pdf, table)
        # the y-marginal is the only table a joint keeps
        assert set(vars(joint)) == {"x", "y", "pdf", "_y_mass"}


def _reference_batch(joint, gain, y_star, trims):
    return [_reference_limit(joint, gain, y_star, *(t or (None, None))) for t in trims]


class TestLimitBatch:
    """One pass gives every limit density with the per-call bits."""

    # 300 ends on a partial block; at lam 0.002 most weights underflow to 0
    @pytest.mark.parametrize("points", [64, 300, 2048])
    def test_bit_identical_to_reference_and_wrappers(self, points):
        toy = bimodal_toy(points=points)
        gain, y_star = toy.exact_gain, toy.y_star
        trims = [None, (1e9, None), (0.02, None), (0.3, 1.3), (0.002, None), (0.3, None),
                 (0.02, None)]
        got = limit_pdfs(_fresh(toy.joint), gain, y_star, trims)
        assert len(got) == len(trims)
        for trim, g, want in zip(trims, got, _reference_batch(toy.joint, gain, y_star, trims)):
            _assert_same_grid(g, want)
            _assert_same_grid(g, _limit(_fresh(toy.joint), gain, y_star, *(trim or (None, None))))

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.sampled_from([16, 33, 64]),
        gain=st.floats(-1.5, 1.5),
        y_star=st.floats(-4.0, 4.0),
        trims=st.lists(
            st.one_of(st.none(), st.tuples(st.floats(1e-3, 1e6),
                                           st.one_of(st.none(), st.floats(0.1, 5.0)))),
            min_size=1, max_size=4),
    )
    def test_bit_identical_property(self, points, gain, y_star, trims):
        joint = bimodal_toy(points=points).joint
        try:
            wants = _reference_batch(joint, gain, y_star, trims)
        except OracleError:
            with pytest.raises(OracleError):
                limit_pdfs(_fresh(joint), gain, y_star, trims)
            return
        for got, want in zip(limit_pdfs(_fresh(joint), gain, y_star, trims), wants):
            _assert_same_grid(got, want)

    def test_nine_limits_hold_one_block(self, toy):
        # The whole (len(y), len(x)) table of shifted conditionals would
        # add 32 MiB at 2048 points.
        joint = _fresh(toy.joint)
        trims = [None, (1e9, None), (0.02, None)] + [
            (lam, None) for lam in (10.0, 1.0, 0.3, 0.1, 0.03)] + [(0.3, 1.3)]
        tracemalloc.start()  # the joint, made before, is not counted
        try:
            out = limit_pdfs(joint, toy.exact_gain, toy.y_star, trims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 9
        assert peak < 2 * 2**20


def _reference_bimodal_table(points, span_sds=8.0):
    """Frozen: the bimodal joint table as one whole-table expression,
    normalized to unit mass by the trapezoid rule in y, then x."""
    var_x = 0.25 + 4.0
    hi_x, hi_y = span_sds * np.sqrt(var_x), span_sds * np.sqrt(var_x + 0.25)
    x = np.linspace(-hi_x, hi_x, points)
    y = np.linspace(-hi_y, hi_y, points)
    prior = DensityGrid(
        x, 0.5 * norm_pdf(x, -2.0, 0.25) + 0.5 * norm_pdf(x, 2.0, 0.25)
    ).normalized()
    table = prior.pdf[:, None] * norm_pdf(y[None, :], x[:, None], 0.25)
    return table / np.trapezoid(np.trapezoid(table, y, axis=1), x)


class TestJointFromConditional:
    # 300 points end on a partial row block
    @pytest.mark.parametrize("points", [64, 300, 512, 2048])
    def test_bimodal_table_bit_identical_to_whole_table_form(self, points):
        got = bimodal_toy(points=points).joint.pdf
        want = _reference_bimodal_table(points)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_mass_rejected(self):
        prior = DensityGrid(np.linspace(-1, 1, 5), np.ones(5))
        with pytest.raises(OracleError, match="zero-mass"):
            joint_from_conditional(prior, lambda y, xx: 0.0 * (y - xx), -1, 1, 7)

    @pytest.mark.parametrize("cond", [lambda y, xx: np.exp(-xx**2), lambda y, xx: 1.0])
    def test_conditional_without_y_axis_rejected(self, cond):
        # broadcasting it over the table would pass off p(x) as a joint
        prior = DensityGrid(np.linspace(-1, 1, 5), np.ones(5))
        with pytest.raises(OracleError):
            joint_from_conditional(prior, cond, -1, 1, 7)


# The nine limit densities of the bimodal scenario, in its order.
_SCENARIO_TRIMS = [None, (1e9, None), (0.02, None)] + [
    (lam, None) for lam in (10.0, 1.0, 0.3, 0.1, 0.03)] + [(0.3, 1.3)]


def _norm_pdf_where(bad, y0, x0):
    """The bimodal conditional with the value ``bad`` at the one pair (x0, y0)."""
    return lambda y, xx: np.where((y == y0) & (xx == x0), bad, norm_pdf(y, xx, 0.25))


class TestProductJoint:
    """``joint_from_conditional`` keeps the prior, the conditional and the
    total, not a table, and reads the joint in blocks on the caller's CPU
    share: every consumer gives the bits of the tabulated joint."""

    @pytest.mark.parametrize("share", [1, 2])
    @pytest.mark.parametrize("points", [64, 300, 2048])  # 300 ends on a partial block
    def test_every_consumer_gives_the_table_bits(self, monkeypatch, points, share):
        monkeypatch.setattr(integrators._share, "cpus", share, raising=False)
        toy = bimodal_toy(points=points)
        product = toy.joint
        table = JointGrid(product.x, product.y, product.pdf)
        assert set(vars(product)) == {"x", "y", "_prior", "_cond", "_total", "_y_mass"}
        assert product.pdf is not product.pdf  # built on every read, never kept
        assert np.array_equal(_bits(product._y_mass), _bits(table._y_mass))
        for got, want in [(product.marginal_x(), table.marginal_x()),
                          (product.marginal_y(), table.marginal_y())]:
            _assert_same_grid(got, want)
        _assert_same_grid(
            product.marginal_x(),
            DensityGrid(table.x, np.trapezoid(table.pdf, table.y, axis=1)).normalized())
        # between two nodes, on a node, and on the first node (one column)
        for y_star in (toy.y_star, product.y[points // 3], product.y[0]):
            _assert_same_grid(bayes_posterior(product, y_star), bayes_posterior(table, y_star))
        gain, y_star = toy.exact_gain, toy.y_star
        for got, want in zip(limit_pdfs(product, gain, y_star, _SCENARIO_TRIMS),
                             limit_pdfs(table, gain, y_star, _SCENARIO_TRIMS)):
            _assert_same_grid(got, want)

    def test_limits_on_many_threads_under_frequent_switches(self, monkeypatch):
        # more threads than CPUs, switching every microsecond: a block added
        # out of turn would move the bits of the serial sums
        toy = bimodal_toy(points=300)
        gain, y_star = toy.exact_gain, toy.y_star
        monkeypatch.setattr(integrators._share, "cpus", 1, raising=False)
        wants = limit_pdfs(toy.joint, gain, y_star, _SCENARIO_TRIMS)
        monkeypatch.setattr(integrators._share, "cpus", 8, raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gots = limit_pdfs(toy.joint, gain, y_star, _SCENARIO_TRIMS)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(gots, wants):
            _assert_same_grid(got, want)

    def test_failed_block_raises_without_a_hang(self, monkeypatch):
        # a block that fails in the limit pass still passes the turn on, so
        # the blocks after it finish and its error is raised
        monkeypatch.setattr(integrators._share, "cpus", 2, raising=False)
        x = np.linspace(-8, 8, 200)
        prior = DensityGrid(x, norm_pdf(x, 0.0, 1.0)).normalized()
        armed = []

        def cond(y, xx):
            if armed and y.shape[0] > 1 and y[0, 0] == armed[0]:
                raise RuntimeError("block failed")
            return norm_pdf(y, xx, 1.0)

        joint = joint_from_conditional(prior, cond, -8, 8, 200)
        armed.append(joint.y[32])  # the third column block
        errors = []

        def run():
            try:
                limit_pdfs(joint, 0.5, 1.0, [None, (0.3, None)])
            except RuntimeError as exc:
                errors.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [str(e) for e in errors] == ["block failed"]

    @pytest.mark.parametrize("share", [1, 2])
    def test_scenario_path_traced_peak(self, monkeypatch, share):
        # with the table, the build alone held 32 MiB
        monkeypatch.setattr(integrators._share, "cpus", share, raising=False)
        tracemalloc.start()
        try:
            toy = bimodal_toy(points=2048)
            bayes_posterior(toy.joint, toy.y_star)
            out = limit_pdfs(toy.joint, toy.exact_gain, toy.y_star, _SCENARIO_TRIMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 9
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("share", [1, 2])
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")  # inf / inf
    def test_bad_conditional_value_rejected(self, monkeypatch, share, bad):
        # the check runs on the normalized values, as it did on the table
        monkeypatch.setattr(integrators._share, "cpus", share, raising=False)
        toy = bimodal_toy(points=300)
        prior = DensityGrid(toy.joint.x, toy.joint.marginal_x().pdf)
        cond = _norm_pdf_where(bad, toy.joint.y[150], toy.joint.x[140])
        with pytest.raises(OracleError, match="finite and non-negative"):
            joint_from_conditional(prior, cond, toy.joint.y[0], toy.joint.y[-1], 300)

    def test_negative_conditional_rejected_as_zero_mass(self):
        prior = DensityGrid(np.linspace(-1, 1, 40), np.ones(40))
        with pytest.raises(OracleError, match="zero-mass"):
            joint_from_conditional(prior, lambda y, xx: -norm_pdf(y, xx, 0.25), -1, 1, 40)


class TestJointGridChecks:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, -1.0], ids=["nan", "inf", "-inf", "negative"])
    def test_rejects_bad_density(self, bad):
        # A non-finite column would poison every limit density.
        table = np.ones((5, 5))
        table[2, 3] = bad
        with pytest.raises(OracleError, match="finite and non-negative"):
            JointGrid(np.linspace(-1, 1, 5), np.linspace(0, 1, 5), table)

    def test_check_makes_no_full_size_temporary(self):
        # A boolean table at 2048 points is 4 MiB.
        grid = np.linspace(-1, 1, 2048)
        table = np.ones((grid.size, grid.size))
        tracemalloc.start()
        try:
            JointGrid(grid, grid, table)
            DensityGrid(grid, table[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_repr_leaves_out_the_table_and_grids_compare_by_identity(self):
        # the product form's pdf builds a 32 MiB table at 2048 points, and
        # comparing or hashing whole arrays raised
        joint = bimodal_toy(2048).joint
        tracemalloc.start()
        try:
            text = repr(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        table = JointGrid(np.arange(3.0), np.arange(3.0), np.ones((3, 3)))
        assert "pdf" not in text and "pdf" not in repr(table)
        grid = bayes_posterior(joint, 1.5)
        for a, b in ((joint, bimodal_toy(2048).joint), (grid, DensityGrid(grid.x, grid.pdf))):
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.linspace(-1, 1, 5), np.array([0.0, 0.1, 0.3, 0.6, 1.0])),
            (np.array([0.0, 0.5, 2.0, 2.5, 3.0]), np.linspace(0, 1, 5)),
            (np.linspace(1, -1, 5), np.linspace(0, 1, 5)),
            (np.linspace(-1, 1, 5), np.full(5, 2.0)),
            (np.linspace(-1, 1, 5), np.linspace(0, 1, 10).reshape(2, 5)),
            (np.array([0.0]), np.linspace(0, 1, 5)),
        ],
        ids=["irregular-y", "irregular-x", "decreasing-x", "constant-y", "2-D-y", "one-point-x"],
    )
    def test_rejects_bad_grid(self, x, y):
        # The mixture's trapezoid weights assume a regular, increasing y.
        with pytest.raises(OracleError):
            JointGrid(x, y, np.ones((x.size, y.size)))


def _ref_kalman_step(A, Q, H, R, mean, cov, y_star):
    """Frozen reference: one forecast-update cycle of the exact Kalman
    filter, converting its inputs on every call."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    m_f = A @ mean
    p_f = A @ cov @ A.T + Q
    s = H @ p_f @ H.T + R
    gain = np.linalg.solve(s.T, (p_f @ H.T).T).T
    m_a = m_f + gain @ (y_star - H @ m_f)
    p_a = (np.eye(cov.shape[0]) - gain @ H) @ p_f
    return m_a, p_a


def _one_step(A, Q, H, R, mean, cov, y_star):
    means, covs = kalman_filter_sequence(A, Q, H, R, mean, cov, [y_star])
    return means[0], covs[0]


class TestExactKalman:
    def test_uninformative_data_keeps_prior(self):
        m0, p0 = np.array([1.0]), np.array([[2.0]])
        m, p = _one_step([[1.0]], [[0.0]], [[1.0]], [[1e12]], m0, p0, np.array([100.0]))
        assert m == pytest.approx(m0, rel=1e-6)
        assert p == pytest.approx(p0, rel=1e-6)

    def test_equal_variances_meet_in_middle(self):
        # prior N(mu0, s2), likelihood var s2: posterior var s2/2, mean midpoint
        s2 = 0.36
        m, p = _one_step([[1.0]], [[0.0]], [[1.0]], [[s2]],
                         np.array([2.0]), np.array([[s2]]), np.array([3.0]))
        assert m[0] == pytest.approx(2.5)
        assert p[0, 0] == pytest.approx(s2 / 2)

    def test_exact_observation_pins_mean(self):
        m, _ = _one_step([[1.0]], [[0.0]], [[1.0]], [[1e-12]],
                         np.array([0.0]), np.array([[4.0]]), np.array([1.7]))
        assert m[0] == pytest.approx(1.7, abs=1e-9)

    @pytest.mark.parametrize("A, Q, H, R, mean0, cov0", [
        ([[1.0]], [[0.01]], [[1.0]], [[0.04]], [0.0], [[1.0]]),
        ([[0.9, 0.2], [-0.1, 0.95]], [[0.02, 0.005], [0.005, 0.03]], [[1.0, 0.5]],
         [[0.05]], [0.3, -1.2], [[1.0, 0.3], [0.3, 2.0]]),
    ], ids=["scalar", "2-state-1-obs"])
    def test_sequence_matches_chained_reference_bitwise(self, A, Q, H, R, mean0, cov0):
        ys = list(np.random.default_rng(11).standard_normal((6, 1)))
        means, covs = kalman_filter_sequence(A, Q, H, R, mean0, cov0, ys)
        mean, cov = mean0, cov0
        assert len(means) == len(covs) == 6
        for y, m, p in zip(ys, means, covs):
            mean, cov = _ref_kalman_step(A, Q, H, R, mean, cov, y)
            assert np.array_equal(m.view(np.uint64), mean.view(np.uint64))
            assert np.array_equal(p.view(np.uint64), cov.view(np.uint64))

    def test_sequence_runner(self):
        means, covs = kalman_filter_sequence(
            [[1.0]], [[0.01]], [[1.0]], [[0.04]],
            np.array([0.0]), np.array([[1.0]]), [np.array([0.5]), np.array([0.6])])
        assert len(means) == 2 and len(covs) == 2
        assert covs[1][0, 0] < covs[0][0, 0] < 1.0


class TestBimodalToySampler:
    def test_sample_matches_tabulated_marginals(self, toy):
        rng = np.random.default_rng(3)
        x, y = toy.sample(200_000, rng)
        assert ks_distance(x, toy.joint.marginal_x()) < 0.01
        assert ks_distance(y, toy.joint.marginal_y()) < 0.01

    def test_exact_gain_value(self, toy):
        # cov(X, Y) = var(X) = 4.25; var(Y) = 4.5
        assert toy.exact_gain == pytest.approx(4.25 / 4.5)
