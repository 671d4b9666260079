"""Quadrature ground truth for one-dimensional assimilation problems.

Everything here works on tabulated densities over regular grids: the exact
Bayes posterior (conditioning the joint density on the measured value), the
large-ensemble limit density of the linear ensemble update (a mixture of
shifted conditionals weighted by the observation marginal), its trimmed
counterpart (the same mixture with the marginal reweighted by the trimming
function), and the exact Kalman recursion for linear-Gaussian models.
A joint built from a prior and a conditional keeps its factors, not a
table, and is evaluated in blocks, so the conditional must be elementwise
in its broadcast arguments.

These oracles are deliberately independent of the ensemble code paths they
validate: they never touch samples except where the contract says so.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .integrators import _map_shared

__all__ = [
    "DensityGrid",
    "JointGrid",
    "OracleError",
    "bayes_posterior",
    "limit_pdfs",
    "kalman_filter_sequence",
    "joint_from_conditional",
    "bimodal_toy",
    "BimodalToy",
]

class OracleError(ValueError):
    """Raised when a quadrature operation is ill-posed (e.g. zero mass)."""


def _check_grid(name: str, grid: np.ndarray) -> None:
    """Require a 1-D, increasing, regularly spaced grid of at least 2 nodes."""
    if grid.ndim != 1 or grid.size < 2:
        raise OracleError(f"{name} must be a 1-D grid of at least 2 points, got shape {grid.shape}")
    dx = np.diff(grid)
    if not dx[0] > 0 or not np.allclose(dx, dx[0], rtol=1e-9, atol=0):
        raise OracleError(f"{name} must be an increasing, regular grid")


def _check_density(values: np.ndarray) -> None:
    # No full-size temporary: NaN propagates through min, -inf fails the
    # sign test and +inf leaves max infinite.
    if not (values.min() >= 0 and np.isfinite(values.max())):
        raise OracleError("density values must be finite and non-negative")


def _trapezoid_terms(block: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The trapezoid rule's terms along each row of ``block`` for the node
    spacings ``step``, as ``np.trapezoid`` makes them, in one new array."""
    terms = block[:, 1:] + block[:, :-1]
    terms *= step
    terms /= 2.0
    return terms


def _row_integrals(block: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``np.trapezoid(block, axis=1)`` over nodes spaced ``step``, with its
    bits: its terms are a new contiguous array, summed pairwise per row."""
    return np.add.reduce(_trapezoid_terms(block, step), axis=1)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself keeps its flags."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """A 1-D probability density tabulated on a regular grid; equal only to itself."""

    x: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        pdf = np.asarray(self.pdf, dtype=float)
        _check_grid("grid", x)
        if pdf.shape != x.shape:
            raise OracleError("grid and density must be matching 1-D arrays")
        _check_density(pdf)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pdf", pdf)

    def normalized(self) -> "DensityGrid":
        total = np.trapezoid(self.pdf, self.x)
        if total <= 0:
            raise OracleError("cannot normalize a zero-mass density")
        return DensityGrid(self.x, self.pdf / total)

    def mass(self) -> float:
        return float(np.trapezoid(self.pdf, self.x))

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.pdf, self.x))

    def var(self) -> float:
        mu = self.mean()
        return float(np.trapezoid((self.x - mu) ** 2 * self.pdf, self.x))

    def std(self) -> float:
        return float(np.sqrt(self.var()))

    def cdf(self) -> np.ndarray:
        """Trapezoidal cumulative distribution on the grid nodes."""
        dx = self.x[1] - self.x[0]
        inner = 0.5 * dx * (self.pdf[1:] + self.pdf[:-1])
        c = np.concatenate([[0.0], np.cumsum(inner)])
        if not c[-1] > 0:
            raise OracleError("cannot take the CDF of a zero-mass density")
        return c / c[-1]


# Rows or columns per block wherever a joint is built or read: 256 KB blocks
# at 2048 points; 2 MB blocks left ~5 MB resident after a build.
_ROW_BLOCK = 16


class JointGrid:
    """A 2-D joint density ``p(x, y) = p(x) p(y | x) / total`` on a regular
    product grid, kept as its factors: the prior grid, the conditional and
    the normalizing total (see ``joint_from_conditional``), not a table.

    ``x`` and ``y`` are read-only views; a joint is equal only to itself.
    The unnormalized y-marginal is computed, and every value checked, when
    the joint is made.  ``pdf`` builds the whole table on every read and
    does not keep it (for tests and plots).  The oracles read a joint only
    through ``_block``, in row blocks or y-major column blocks of
    ``_ROW_BLOCK``, each evaluated anew: each pass is a map over independent
    blocks on the calling thread's CPU share.
    """

    def __init__(self, prior: DensityGrid, y: np.ndarray, cond_pdf, total: float):
        _check_grid("y", y)
        self.x, self.y = _read_only(prior.x), _read_only(y)
        self._prior, self._cond, self._total = _read_only(prior.pdf), cond_pdf, total
        self._y_mass  # its pass checks every value now, not at first use

    @property
    def pdf(self) -> np.ndarray:
        blocks = [self._block(lo, lo + _ROW_BLOCK) for lo in range(0, self.x.size, _ROW_BLOCK)]
        return _read_only(np.concatenate(blocks))

    def _block(self, lo: int, hi: int, by_y: bool = False) -> np.ndarray:
        """Rows ``lo:hi`` of the table, or with ``by_y`` its columns
        ``lo:hi`` as rows (y-major), as a new array."""
        x, y, prior = self.x, self.y, self._prior
        if by_y:
            block = np.multiply(self._cond(y[lo:hi, None], x[None, :]), prior)
        else:
            block = np.multiply(prior[lo:hi, None], self._cond(y[None, :], x[lo:hi, None]))
        block /= self._total
        return block

    @cached_property
    def _y_mass(self) -> np.ndarray:
        """Trapezoid integral over x of every column: the y-marginal before
        normalization (read-only).  Each block's values are checked to be
        finite and non-negative on the way.

        The same bits as ``np.trapezoid(pdf, x, axis=0)``, which sums its
        terms along axis 0 in row order; here each column block's terms are
        summed in x order by ``np.add.accumulate``, which is sequential.
        """
        dx = np.diff(self.x)

        def column_mass(lo):
            columns = self._block(lo, lo + _ROW_BLOCK, by_y=True)
            _check_density(columns)
            terms = _trapezoid_terms(columns, dx)
            return np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()

        masses = _map_shared(column_mass, range(0, self.y.size, _ROW_BLOCK))
        return _read_only(np.concatenate(masses))

    def marginal_x(self) -> DensityGrid:
        dy = np.diff(self.y)
        rows = _map_shared(lambda lo: _row_integrals(self._block(lo, lo + _ROW_BLOCK), dy),
                           range(0, self.x.size, _ROW_BLOCK))
        return DensityGrid(self.x, np.concatenate(rows)).normalized()

    def marginal_y(self) -> DensityGrid:
        return DensityGrid(self.y, self._y_mass).normalized()


def joint_from_conditional(
    prior: DensityGrid,
    cond_pdf,
    y_lo: float,
    y_hi: float,
    points: int | None = None,
) -> JointGrid:
    """Build ``p(x, y) = p(x) p(y | x)`` from a prior grid and a conditional.

    ``cond_pdf(y, x)`` must be elementwise in its broadcast arguments: its
    value at each ``(x, y)`` pair may not depend on the shapes it is called
    with.  It is called on row blocks (``y`` of shape ``(1, len(y))``, ``x``
    of ``(rows, 1)``) and on y-major column blocks (``(columns, 1)`` and
    ``(1, len(x))``), possibly from several threads at once, so its
    temporaries stay block-sized.  The joint is normalized to unit mass
    (trapezoid rule in y, then x) and keeps no table: it holds the prior,
    the conditional and the normalizing total, and every value it gives is
    that of the whole-table expression, bit for bit.
    """
    x = prior.x
    y = np.linspace(y_lo, y_hi, points or x.size)
    dy = np.diff(y)

    def row_mass(lo):
        rows = slice(lo, lo + _ROW_BLOCK)
        cond = cond_pdf(y[None, :], x[rows, None])
        if np.shape(cond)[-1:] != y.shape:
            raise OracleError(f"cond_pdf must give {y.size} columns, got shape {np.shape(cond)}")
        return _row_integrals(prior.pdf[rows, None] * cond, dy)

    total = np.trapezoid(np.concatenate(_map_shared(row_mass, range(0, x.size, _ROW_BLOCK))), x)
    if total <= 0:
        raise OracleError("cannot normalize a zero-mass joint density")
    return JointGrid(prior, y, cond_pdf, total)


# ---------------------------------------------------------------------------
# Conditioning and limit mixtures
# ---------------------------------------------------------------------------


def _slice_at(joint: JointGrid, y_star: float) -> np.ndarray:
    """Linear interpolation of the joint table between the two y-rows
    bracketing ``y_star``."""
    y = joint.y
    if not y[0] <= y_star <= y[-1]:
        raise OracleError(f"y*={y_star} outside the tabulated range [{y[0]}, {y[-1]}]")
    j = min(int(np.searchsorted(y, y_star)), y.size - 1)
    if j == 0:
        return joint._block(0, 1, by_y=True)[0]
    frac = (y_star - y[j - 1]) / (y[j] - y[j - 1])
    below, above = joint._block(j - 1, j + 1, by_y=True)
    return (1 - frac) * below + frac * above


def bayes_posterior(joint: JointGrid, y_star: float) -> DensityGrid:
    """Exact posterior: the joint density sliced at ``y*`` and renormalized."""
    slice_ = _slice_at(joint, y_star)
    grid = DensityGrid(joint.x, slice_)
    if grid.mass() <= 0:
        raise OracleError(f"joint density carries no mass near y*={y_star}")
    return grid.normalized()


def limit_pdfs(joint: JointGrid, gain: float, y_star: float, trims) -> list[DensityGrid]:
    """Large-ensemble limit densities of the plain and trimmed linear updates
    ``x + K (y* - y)`` for one ``(gain, y*)``, one per entry of ``trims``.

    Each is the quadrature of ``\\int p(x - K (y* - y) | y) w(y) dy`` on the x
    grid: the conditionals ``p(x | y_j)`` (the j-th joint column divided by
    the observation marginal) shifted by ``K (y* - y_j)`` in x by linear
    interpolation, averaged with weight ``w``.  An entry ``None`` is the
    plain (EnKF) limit, ``w(y) = p(y)``; with ``K = 0`` it is the prior
    marginal, and only at jointly Gaussian inputs is it the exact posterior.
    An entry ``(lam, scale)`` is the trimmed limit,
    ``w(y) = p(y) exp(-|y - y*| / (scale * lam))``, where ``scale=None``
    means the standard deviation of the observation marginal (the
    normalized-L1 distance).  Large ``lam`` recovers the plain limit, small
    ``lam`` concentrates the weight at ``y*`` and recovers the posterior;
    the trimming constant is absorbed by the final renormalization.

    One pass over the joint in column blocks: each block's shifted
    conditionals are interpolated once and added, weighted, to every
    entry's running sum, so each thread holds one block whatever the
    number of entries.  The blocks are interpolated on the calling thread's
    CPU share, but added in block order: per entry the terms are added in
    increasing ``j`` onto zeros, with the running sum as each block's first
    row, so the sum is sequential.  A column with zero weight or zero
    marginal gets the coefficient 0.0; every shifted row is finite, so its
    term is a zero that leaves the sum's bits as they are.
    """
    gain, y_star = float(gain), float(y_star)
    x, y, marg_y = joint.x, joint.y, joint._y_mass
    weights = np.empty((len(trims), y.size))
    for k, trim in enumerate(trims):
        if trim is None:
            weights[k] = marg_y
            continue
        lam, scale = trim
        if not (np.isfinite(lam) and lam > 0):
            raise OracleError(f"lam must be finite and positive, got {lam}")
        if scale is None:
            scale = joint.marginal_y().std()
        if not (np.isfinite(scale) and scale > 0):
            raise OracleError(f"scale must be finite and positive, got {scale}")
        d = np.abs(y - y_star) / scale
        weights[k] = marg_y * np.exp(-(d - d.min()) / lam)
    quad_w = np.full(y.size, 1.0)
    quad_w[0] = quad_w[-1] = 0.5  # trapezoid rule; dy absorbed by normalization
    # the coefficients quad_w * w / p(y), made in place of the weights
    coef, positive = weights, (weights > 0) & (marg_y > 0)
    coef *= quad_w
    np.divide(coef, marg_y, out=coef, where=positive)
    coef[~positive] = 0.0

    shifts = gain * (y_star - y)
    sums = np.zeros((len(trims), x.size))
    # The blocks add in turn, so one buffer serves them all; row 0 carries
    # the running sum.
    terms = np.empty((_ROW_BLOCK + 1, x.size))
    # added[k] is released once block k has added (or failed: the map then
    # raises its error, so the sums are never read)
    added = [threading.Lock() for _ in range(0, y.size, _ROW_BLOCK)]
    for lock in added:
        lock.acquire()

    def add_block(lo):
        try:
            # contiguous, as np.interp would copy a strided column; each
            # column is replaced by its shifted conditional
            shifted = np.require(joint._block(lo, lo + _ROW_BLOCK, by_y=True), requirements="CW")
            nb = shifted.shape[0]
            for i, column in enumerate(shifted):
                shifted[i] = np.interp(x - shifts[lo + i], x, column, left=0.0, right=0.0)
            if lo:
                added[lo // _ROW_BLOCK - 1].acquire()
            for c, total in zip(coef, sums):
                terms[0] = total
                np.multiply(c[lo:lo + nb, None], shifted, out=terms[1:nb + 1])
                np.add.reduce(terms[:nb + 1], axis=0, out=total)
        finally:
            added[lo // _ROW_BLOCK].release()

    _map_shared(add_block, range(0, y.size, _ROW_BLOCK))
    return [DensityGrid(x, total).normalized() for total in sums]


# ---------------------------------------------------------------------------
# Exact Kalman recursion (linear-Gaussian reference)
# ---------------------------------------------------------------------------


def kalman_filter_sequence(A, Q, H, R, mean0, cov0, ys):
    """Run the exact Kalman recursion over a sequence of measurements.

    Returns per-step lists of posterior means and covariances.
    """
    A, Q, H, R = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, Q, H, R))
    mean = np.atleast_1d(np.asarray(mean0, dtype=float))
    cov = np.atleast_2d(np.asarray(cov0, dtype=float))
    eye = np.eye(cov.shape[0])
    means, covs = [], []
    for y in ys:
        m_f = A @ mean
        p_f = A @ cov @ A.T + Q
        s = H @ p_f @ H.T + R
        try:
            gain = np.linalg.solve(s.T, (p_f @ H.T).T).T
        except np.linalg.LinAlgError as exc:
            raise OracleError(
                f"singular innovation covariance (cond={np.linalg.cond(s):.3e})"
            ) from exc
        mean = m_f + gain @ (np.atleast_1d(np.asarray(y, dtype=float)) - H @ m_f)
        cov = (eye - gain @ H) @ p_f
        means.append(mean)
        covs.append(cov)
    return means, covs


# ---------------------------------------------------------------------------
# The bimodal test problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BimodalToy:
    """A tractable non-Gaussian joint: a two-mode prior observed with noise.

    Prior ``X ~ 0.5 N(-2, 0.25) + 0.5 N(2, 0.25)``, observation
    ``Y = X + N(0, 0.25)``, default measurement ``y* = 1.5``.  Exposes the
    joint (in product form) plus a sampler aligned with it.
    """

    joint: JointGrid
    y_star: float
    exact_gain: float

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw aligned (x, y) samples from the analytic mixture."""
        modes = np.where(rng.uniform(size=n) < 0.5, -2.0, 2.0)
        x = modes + 0.5 * rng.standard_normal(n)
        y = x + 0.5 * rng.standard_normal(n)
        return x, y


def _norm_pdf(z, mu, var):
    """``exp(-0.5 * (z - mu) ** 2 / var) / sqrt(2 pi var)`` for a scalar
    ``var``, with the same bits: each step is applied in place to the one
    array that ``z - mu`` allocates."""
    out = np.subtract(z, mu)
    np.square(out, out=out)
    np.multiply(out, -0.5, out=out)
    np.divide(out, var, out=out)
    np.exp(out, out=out)
    np.divide(out, np.sqrt(2 * np.pi * var), out=out)
    return out


# The bimodal toy's grids span the prior mean 0 plus/minus 8 standard
# deviations of X on the x axis and of Y on the y axis.
_SPAN_SDS = 8.0
_VAR_X = 0.25 + 4.0  # component variance plus mean spread
_BIMODAL_Y_BOUND = _SPAN_SDS * float(np.sqrt(_VAR_X + 0.25))  # the y grid is [-bound, bound]


def bimodal_toy(points: int = 2048, y_star: float = 1.5) -> BimodalToy:
    """Build the bimodal mixture fixture on a regular grid.

    The exact gain ``cov(X, Y) / var(Y)`` of the mixture is attached for
    the limit-density oracles.
    """
    hi_x = _SPAN_SDS * np.sqrt(_VAR_X)
    x = np.linspace(-hi_x, hi_x, points)
    prior = DensityGrid(
        x, 0.5 * _norm_pdf(x, -2.0, 0.25) + 0.5 * _norm_pdf(x, 2.0, 0.25)
    ).normalized()
    joint = joint_from_conditional(
        prior, lambda y, xx: _norm_pdf(y, xx, 0.25), -_BIMODAL_Y_BOUND, _BIMODAL_Y_BOUND, points
    )
    # cov(X, Y) = var(X) for additive noise; gain = var(X) / var(Y).
    gain = _VAR_X / (_VAR_X + 0.25)
    return BimodalToy(joint=joint, y_star=y_star, exact_gain=gain)
