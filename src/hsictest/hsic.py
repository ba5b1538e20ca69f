"""HSIC statistics: the biased V-statistic estimator and an exact population oracle.

The population object is the squared Hilbert-Schmidt norm of the
cross-covariance operator, i.e. the squared RKHS norm of the embedding of the
signed measure ``theta = P_XY - P_X P_Y``.  On a finite discrete joint
distribution it is the exact quadruple sum

    sum_{i,j,i',j'} theta[i,j] theta[i',j'] kx(x_i, x_i') ky(y_j, y_j')

which this module evaluates in matrix form as ``sum(Kx * (Theta Ky Theta'))``.
The empirical statistic is the standard biased V-statistic
``tr(K H L H) / n^2`` with centering matrix ``H = I - (1/n) 11'``.  Each side
of a sample enters it, and the permutation null of :mod:`hsictest.testing`,
through :func:`centered_side`: the one place a kernel spec and a point set
become a resolved spec, a centered Gram and that Gram's scale ``max|HKH|``,
with a side that is constant to working precision centered to exact zero.
:func:`gram_free_side` builds the same side, bit for bit, without an n x n
array: one pass over K's row blocks gives its row means, the diagonal of
HKH and its scale, and any column of HKH is computed on demand, which is
all a pivoted Cholesky factoring needs.  The statistic's roundoff scale and the
permutation null's factoring floor are both read off the returned scale,
never recomputed from the Gram.

With both kernels characteristic the population value is zero iff the
distribution is an exact product (independence); with a non-characteristic
kernel on either side there are dependent distributions with value exactly
zero, and :mod:`hsictest.datagen` ships the canonical one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import (
    KernelSpec,
    _block_rows,
    _gram_rows,
    as_points,
    gram_entries,
    resolve_bandwidth,
)

# theta's rows and columns sum to zero by construction; loose only to roundoff.
THETA_MARGIN_TOL = 1e-12

# pmf entries must total 1 within this.
PMF_MASS_TOL = 1e-12

_EPS = float(np.finfo(float).eps)


class Estimator(str, enum.Enum):
    BIASED_V = "biased_v"
    POPULATION_EXACT = "population_exact"


@dataclass(frozen=True)
class HsicValue:
    """An HSIC statistic with roundoff-aware reporting.

    ``value`` clamps tiny negative roundoff (within ``1e-12 * scale``) to
    zero so downstream p-values and reports see a squared norm; ``raw`` keeps
    the unclamped number for diagnostics and for null-distribution ties.  A
    non-finite raw value (an overflowing or undefined kernel) raises
    ``ArithmeticError``: it is never a statistic.
    """

    value: float
    raw: float
    scale: float
    estimator: Estimator

    @classmethod
    def from_raw(cls, raw: float, estimator: Estimator, scale: float = 1.0) -> "HsicValue":
        raw = float(raw)
        if not math.isfinite(raw):
            raise ArithmeticError(
                "non-finite HSIC statistic: the kernel values overflowed or are undefined"
            )
        scale = max(float(scale), 1.0)
        value = 0.0 if -1e-12 * scale <= raw < 0.0 else raw
        return cls(value=value, raw=raw, scale=scale, estimator=estimator)


@dataclass(frozen=True)
class Dataset:
    """Paired samples (x_i, y_i); each side is an (n, d) block of row vectors."""

    x_points: np.ndarray
    y_points: np.ndarray

    def __post_init__(self):
        # Copies, so freezing them leaves the caller's arrays writable.
        xs = as_points(self.x_points).copy()
        ys = as_points(self.y_points).copy()
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"x and y must pair up: {xs.shape[0]} x rows vs {ys.shape[0]} y rows"
            )
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "x_points", xs)
        object.__setattr__(self, "y_points", ys)

    @property
    def n(self) -> int:
        return self.x_points.shape[0]


@dataclass(frozen=True)
class DiscreteJointDistribution:
    """Finite joint pmf over labeled support points.

    ``pmf[i, j]`` is the probability of the pair ``(x_support[i], y_support[j])``;
    entries are non-negative and total 1 within roundoff, and the support
    points are distinct within each side.
    """

    x_support: np.ndarray
    y_support: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        xs = as_points(self.x_support).copy()
        ys = as_points(self.y_support).copy()
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 2 or pmf.shape != (xs.shape[0], ys.shape[0]):
            raise ValueError(
                f"pmf shape {pmf.shape} does not match supports "
                f"({xs.shape[0]}, {ys.shape[0]})"
            )
        if np.any(pmf < 0.0):
            raise ValueError("pmf entries must be non-negative")
        mass = float(pmf.sum())
        if abs(mass - 1.0) > PMF_MASS_TOL:
            raise ValueError(f"pmf must sum to 1 (got {mass!r})")
        for name, side in (("x", xs), ("y", ys)):
            if np.unique(side, axis=0).shape[0] != side.shape[0]:
                raise ValueError(f"{name}_support points must be distinct")
        pmf = pmf.copy()
        for arr in (xs, ys, pmf):
            arr.flags.writeable = False
        object.__setattr__(self, "x_support", xs)
        object.__setattr__(self, "y_support", ys)
        object.__setattr__(self, "pmf", pmf)

    @property
    def x_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    @property
    def y_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


def theta(dist: DiscreteJointDistribution) -> np.ndarray:
    """The signed measure pmf - (row marginal) x (column marginal).

    Zero exactly when the distribution is a product; every row and column of
    the result sums to zero by construction.
    """
    return dist.pmf - np.outer(dist.x_marginal, dist.y_marginal)


def population_hsic(
    dist: DiscreteJointDistribution, kx: KernelSpec, ky: KernelSpec
) -> HsicValue:
    """Exact population HSIC of a finite discrete joint distribution.

    Matrix form of the quadruple sum over the support: with ``T = theta(dist)``,
    the value is ``sum(Kx * (T Ky T'))``.  Exact up to floating point; requires
    resolved bandwidths since there is no sample to take a median over.
    """
    for side, spec in (("x", kx), ("y", ky)):
        if not spec.is_resolved:
            raise ValueError(f"kernel for {side} has an unresolved bandwidth sentinel")
    t = theta(dist)
    # An overflowing kernel gives a NaN sum, which from_raw refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        kx_entries = gram_entries(kx, dist.x_support)
        ky_entries = gram_entries(ky, dist.y_support)
        raw = float(np.einsum("ik,ik->", kx_entries, t @ ky_entries @ t.T))
    scale = float(np.abs(kx_entries).max() * np.abs(ky_entries).max())
    return HsicValue.from_raw(raw, Estimator.POPULATION_EXACT, scale)


def _row_pass(spec: KernelSpec, pts: np.ndarray, out: np.ndarray | None = None):
    """``(r, g, diag K, max|HKH|)`` for the Gram K, in one pass over its row blocks.

    K is computed in row blocks, into ``out`` (an n x n buffer) when given,
    else each into one buffer of at most ``_BLOCK_FLOATS`` floats that the
    next block overwrites.  Each block's means r_i are taken as
    ``mean(axis=1)`` takes them over the whole matrix, so they are the same
    bit for bit, and the block is then shifted in place to
    ``k_ij - r_i``, the first step of centering, which is what ``out`` is
    left holding; the scale is then None, for the caller to take from HKH.
    Without ``out`` it comes from the blocks as they pass: HKH's entries are
    ``((k_ij - r_i) - r_j) + g``, and rounding is monotone, so for each
    column j the largest of them over the rows i is
    ``((max_i (k_ij - r_i)) - r_j) + g``, bit for bit, and likewise the
    smallest, and the running column extremes of the shifted blocks give
    max|HKH| without HKH.  A NaN or infinite entry reaches an extreme too,
    so the scale is NaN exactly when HKH holds a NaN.
    """
    n = pts.shape[0]
    rows = _block_rows(n)
    row_means, diagonal = np.empty(n), np.empty(n)
    if out is None:
        scratch = np.empty((min(rows, n), n))
        high, low = np.full(n, -np.inf), np.full(n, np.inf)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = out[lo:hi] if out is not None else scratch[: hi - lo]
        _gram_rows(spec, pts[lo:hi], pts, block)
        block.mean(axis=1, out=row_means[lo:hi])
        diagonal[lo:hi] = np.diagonal(block, lo)
        block -= row_means[lo:hi, None]
        if out is None:
            np.maximum(high, block.max(axis=0), out=high)
            np.minimum(low, block.min(axis=0), out=low)
    grand_mean = row_means.mean()
    if out is not None:
        return row_means, grand_mean, diagonal, None
    high = (high - row_means) + grand_mean
    low = (low - row_means) + grand_mean
    return row_means, grand_mean, diagonal, _merged(0.0, high.max(), low.min())


def _constant(scale: float, k_diagonal: np.ndarray) -> bool:
    """Whether max|HKH| is within the roundoff of K: ``<= n * eps * max(diag K)``.

    The diagonal bounds a PSD Gram, so such a side is constant to working
    precision.
    """
    return scale <= len(k_diagonal) * _EPS * k_diagonal.max()


def _merged(scale: float, high, low) -> float:
    """``scale`` merged with ``max(high, -low)``; once NaN, the scale stays NaN."""
    block_scale = float(np.maximum(high, -low))
    if scale == scale and not block_scale <= scale:
        return block_scale
    return scale


class GramFreeSide(NamedTuple):
    """One side of a test held without its Gram: what a pivoted Cholesky of HKH needs.

    The same side as :func:`centered_side` returns, bit for bit, from one
    row pass that never holds an n x n array: ``diagonal`` and ``scale`` are
    those of HKH, and :meth:`column` computes one column of HKH on demand.
    """

    spec: KernelSpec
    points: np.ndarray
    row_means: np.ndarray
    grand_mean: float
    diagonal: np.ndarray
    scale: float

    @classmethod
    def from_row_pass(cls, spec, pts, row_means, grand_mean, k_diagonal, scale) -> "GramFreeSide":
        """The side from its row pass (:func:`_row_pass`) and its scale.

        A side constant to working precision (see :func:`_constant`) gets
        an exact zero diagonal and scale.  Otherwise the diagonal of HKH is
        centered from K's as every entry is.
        """
        if _constant(scale, k_diagonal):
            return cls(spec, pts, row_means, grand_mean, np.zeros_like(k_diagonal), 0.0)
        diagonal = ((k_diagonal - row_means) - row_means) + grand_mean
        return cls(spec, pts, row_means, grand_mean, diagonal, scale)

    def column(self, j: int) -> np.ndarray:
        """Column j of HKH: ``((K[:, j] - r) - r_j) + g``, centered as every entry is.

        K is exactly symmetric, so its column j is its row j, built alone.
        """
        n = self.points.shape[0]
        row = _gram_rows(self.spec, self.points[j : j + 1], self.points, np.empty((1, n)))[0]
        return ((row - self.row_means) - self.row_means[j]) + self.grand_mean


def centered_side(
    spec: KernelSpec, points, out: np.ndarray | None = None
) -> tuple[KernelSpec, np.ndarray, float]:
    """One side of a test: ``spec`` resolved on ``points``, H K H for its Gram K, and max|H K H|.

    The one place a sample becomes a centered Gram.  It is built and centered
    in ``out``, an n x n float buffer the caller owns (a new one when None);
    a median bandwidth is resolved first, by a selection that holds no n x n
    array (see :func:`kernels.median_heuristic`).  A side constant to
    working precision (see :func:`_constant`) is set to exact zero and its
    scale to 0.0: leaving the residue would make the statistic and every
    permuted one roundoff noise.  A non-finite Gram is not zeroed: its NaN
    scale is left for the statistic's own check to refuse.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if out is None:
        out = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        spec = resolve_bandwidth(spec, pts)
        row_means, grand_mean, k_diagonal, _ = _row_pass(spec, pts, out)
        # Finish centering what the row pass shifted by the row means, and
        # take each block's max and min while it is in cache.
        scale, rows = 0.0, _block_rows(n)
        for lo in range(0, n, rows):
            block = out[lo : lo + rows]
            block -= row_means[None, :]
            block += grand_mean
            scale = _merged(scale, block.max(), block.min())
        if _constant(scale, k_diagonal):
            out.fill(0.0)
            scale = 0.0
    return spec, out, scale


def gram_free_side(spec: KernelSpec, points) -> GramFreeSide:
    """One side of a test as :func:`centered_side` builds it, without an n x n array.

    One pass over K's row blocks (see :func:`_row_pass`) gives all of it, so
    a side holds O(n) floats besides one block.
    """
    pts = as_points(points)
    with np.errstate(over="ignore", invalid="ignore"):
        spec = resolve_bandwidth(spec, pts)
        return GramFreeSide.from_row_pass(spec, pts, *_row_pass(spec, pts))


def centered_gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """H K H for the Gram matrix of ``spec`` on ``points``; see :func:`centered_side`."""
    return centered_side(spec, points)[1]


def centered_product(kc: np.ndarray, lc: np.ndarray) -> float:
    """``sum(kc * lc) / n^2`` for two centered n x n Grams.

    The reduction behind ``hsic_biased`` and each replicate of the
    permutation tests' dense per-replicate null path.
    """
    n = kc.shape[0]
    return float(np.einsum("ij,ij->", kc, lc)) / (n * n)


def hsic_biased(data: Dataset, kx: KernelSpec, ky: KernelSpec) -> HsicValue:
    """Biased V-statistic estimate of HSIC: ``tr(K H L H) / n^2``.

    Median-heuristic bandwidths resolve per side from that side's points.
    Computed as the centered elementwise sum ``sum(HKH * HLH) / n^2`` over
    the sides of :func:`centered_side`, which equals the trace form exactly
    and keeps the degenerate constant-side case an exact zero.
    """
    if data.n < 2:
        raise ValueError("hsic_biased needs at least 2 paired samples")
    _, kc, kc_max = centered_side(kx, data.x_points)
    _, lc, lc_max = centered_side(ky, data.y_points)
    return HsicValue.from_raw(centered_product(kc, lc), Estimator.BIASED_V, kc_max * lc_max)
