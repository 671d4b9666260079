"""Tests for RMSE, distribution distances, and quantile summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimkf.ensemble import Ensemble
from trimkf.metrics import (
    ensemble_mean_rmse,
    ensemble_rmse,
    ks_distance,
    replicate_quantiles,
    time_avg_rmse,
)
from trimkf.oracle import DensityGrid


class TestEnsembleRmse:
    def test_exact_members_zero(self):
        e = Ensemble(np.tile(np.array([[1.0], [2.0]]), (1, 5)))
        assert ensemble_rmse(e, np.array([1.0, 2.0])) == 0.0

    def test_single_member_offset(self):
        e = Ensemble(np.array([[4.0]]))
        assert ensemble_rmse(e, np.array([1.0])) == pytest.approx(3.0)

    def test_two_members_at_plus_minus_one(self):
        e = Ensemble(np.array([[1.0, -1.0]]))
        assert ensemble_rmse(e, np.array([0.0])) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 30))
        truth = rng.standard_normal(4)
        base = ensemble_rmse(Ensemble(m), truth)
        perm_members = ensemble_rmse(Ensemble(m[:, rng.permutation(30)]), truth)
        dim_perm = rng.permutation(4)
        perm_dims = ensemble_rmse(Ensemble(m[dim_perm]), truth[dim_perm])
        assert base == pytest.approx(perm_members) == pytest.approx(perm_dims)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ensemble_rmse(Ensemble(np.ones((2, 3))), np.ones(3))

    def test_mean_only_variant(self):
        e = Ensemble(np.array([[1.0, -1.0]]))
        assert ensemble_mean_rmse(e, np.array([0.0])) == 0.0
        assert ensemble_rmse(e, np.array([0.0])) == pytest.approx(1.0)


class TestTimeAvgRmse:
    def test_constant_series(self):
        assert time_avg_rmse(np.full(7, 2.5)) == pytest.approx(2.5)

    def test_hand_values(self):
        assert time_avg_rmse(np.array([0.0, 2.0])) == pytest.approx(np.sqrt(2.0))
        assert time_avg_rmse(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            time_avg_rmse(np.array([]))

    def test_bounded_by_series_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = np.abs(rng.standard_normal(20))
            agg = time_avg_rmse(s)
            assert s.min() <= agg <= s.max()


class TestKsDistance:
    def test_identical_samples_zero(self):
        x = np.random.default_rng(2).standard_normal(100)
        assert ks_distance(x, x.copy()) == 0.0

    def test_point_masses(self):
        assert ks_distance(np.array([0.0]), np.array([1.0])) == pytest.approx(1.0)

    def test_uniform_sample_vs_exact_grid(self):
        rng = np.random.default_rng(3)
        sample = rng.uniform(size=100_000)
        grid = DensityGrid(np.linspace(0, 1, 2001), np.ones(2001)).normalized()
        assert ks_distance(sample, grid) < 0.01

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(500)
        b = rng.standard_normal(800) + 0.5
        d1, d2 = ks_distance(a, b), ks_distance(b, a)
        assert d1 == pytest.approx(d2)
        assert 0.0 <= d1 <= 1.0

    @pytest.mark.parametrize(
        "a, b",
        [
            ([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
            ([np.nan, np.nan], [1.0, 2.0]),
            ([1.0, 2.0], [0.5, np.nan]),
            ([np.nan, 0.5], DensityGrid(np.linspace(0, 1, 5), np.ones(5))),
        ],
        ids=["one-nan", "all-nan", "nan-second", "nan-vs-grid"],
    )
    def test_nan_sample_rejected(self, a, b):
        # Read 0.333, 1.0 and nan before: NaN sorted last and took a CDF step.
        with pytest.raises(ValueError, match="NaN"):
            ks_distance(a, b)

    def test_tuple_of_samples_is_a_sample(self):
        # a 2-tuple is two sample values, not a (samples, weights) pair
        assert ks_distance((1.0, 2.0), np.array([1.0, 2.0])) == 0.0
        assert ks_distance((0.0, 3.0), [0.0, 3.0]) == 0.0

    def test_matches_scipy_two_sample(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(5)
        a = rng.standard_normal(400)
        b = rng.standard_normal(300) * 1.3
        assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


def _ref_support_and_cdf(dist):
    """The support of ``dist`` and its CDF as a function; a sample's step
    CDF is read from a table of ``k / n``, as ``ks_distance`` once did."""
    if isinstance(dist, DensityGrid):
        return dist.x, lambda x: np.interp(x, dist.x, dist.cdf(), left=0.0, right=1.0)
    s = np.sort(np.asarray(dist, dtype=float).ravel())
    table = np.arange(1, s.size + 1) / s.size

    def cdf(x):
        idx = np.searchsorted(s, x, side="right")
        return np.where(idx > 0, table[np.minimum(idx, table.size) - 1], 0.0)

    return s, cdf


def _ref_ks_two_pass(a, b):
    """Frozen copy of ``ks_distance`` evaluating every pair both at and
    just below each union point, whatever the argument types."""
    (xa, fa), (xb, fb) = _ref_support_and_cdf(a), _ref_support_and_cdf(b)
    points = np.union1d(xa, xb)
    left = points - np.spacing(np.abs(points) + 1.0)
    return max(float(np.max(np.abs(fa(x) - fb(x)))) for x in (points, left))


def _nudged(base, k):
    """``base`` moved ``k`` representable floats up (k > 0) or down."""
    for _ in range(abs(k)):
        base = np.nextafter(base, np.inf if k > 0 else -np.inf)
    return float(base)


# Ties, nextafter neighbours and clusters tighter than the left-limit offset
# (spacing(|x| + 1)), mixed with arbitrary finite values.
_ks_value = st.one_of(
    st.builds(_nudged, st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e-300, -1e8]), st.integers(-3, 3)),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_ks_sample = st.lists(_ks_value, min_size=1, max_size=40)


@st.composite
def _grid_and_tied_sample(draw):
    """A density grid, and a sample whose values repeat and sit on its nodes."""
    size = draw(st.integers(2, 30))
    x = (draw(st.sampled_from([0.0, -1.0, 2.5, 1e-300]))
         + draw(st.sampled_from([1.0, 0.25, 1e-3])) * np.arange(size))
    pdf = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size).filter(any))
    nodes = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40))
    extra = draw(st.lists(_ks_value, max_size=10))
    return DensityGrid(x, np.array(pdf, dtype=float)), [float(x[i]) for i in nodes] + extra


def _same_bits(got, ref):
    return np.float64(got).view(np.uint64) == np.float64(ref).view(np.uint64)


class TestKsTwoSamplePass:
    @settings(max_examples=300, deadline=None)
    @given(a=_ks_sample, b=_ks_sample)
    def test_matches_two_pass_reference_bitwise(self, a, b):
        assert _same_bits(ks_distance(a, b), _ref_ks_two_pass(a, b))

    @settings(max_examples=200, deadline=None)
    @given(case=_grid_and_tied_sample())
    def test_grid_and_tied_sample_match_union_reference_bitwise(self, case):
        # ks_distance takes the sup over each support in turn; the reference
        # takes it over their sorted union
        grid, sample = case
        other = DensityGrid(grid.x, grid.pdf[::-1])  # every node tied with grid's
        for a, b in ((grid, sample), (sample, grid), (grid, other)):
            assert _same_bits(ks_distance(a, b), _ref_ks_two_pass(a, b))

    def test_grid_keeps_left_limits(self):
        # all sample mass at the top of a uniform grid: the sup, ~1, sits
        # just below the jump, above the 0.995 of the grid's last interior node
        grid = DensityGrid(np.linspace(0.0, 1.0, 201), np.ones(201)).normalized()
        for sample in ([1.0], [1.0, 1.0]):
            assert ks_distance(sample, grid) == _ref_ks_two_pass(sample, grid) > 0.999
            assert ks_distance(grid, sample) == _ref_ks_two_pass(grid, sample) > 0.999


class TestReplicateQuantiles:
    def test_single_value(self):
        q = replicate_quantiles(np.array([3.0]))
        assert np.allclose(q, 3.0)

    def test_median_of_one_to_five(self):
        q = replicate_quantiles(np.arange(1.0, 6.0))
        assert q == pytest.approx([2.0, 3.0, 4.0])

    def test_linear_interpolation_convention(self):
        q = replicate_quantiles(np.array([1.0, 2.0, 3.0, 4.0]))
        assert q == pytest.approx([1.75, 2.5, 3.25])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            replicate_quantiles(np.array([]))
