"""HSIC statistics: the biased V-statistic estimator and an exact population oracle.

The population object is the squared Hilbert-Schmidt norm of the
cross-covariance operator, i.e. the squared RKHS norm of the embedding of the
signed measure ``theta = P_XY - P_X P_Y``.  On a finite discrete joint
distribution it is the exact quadruple sum

    sum_{i,j,i',j'} theta[i,j] theta[i',j'] kx(x_i, x_i') ky(y_j, y_j')

which :func:`theta_product` evaluates as ``sum(Kx * (Theta Ky Theta'))``.
The empirical statistic is the standard biased V-statistic
``tr(K H L H) / n^2`` with centering matrix ``H = I - (1/n) 11'``.
:func:`hsic_biased` is the permutation test's own observed statistic: the
null function of :mod:`hsictest.testing` at the identity permutation, on
the test's path and within its memory budget.  Each side of a sample enters
it through one of two builders, each of which turns a kernel spec and a point
set into a resolved spec, a centered side and that side's scale
``max|HKH|``, with a side that is constant to working precision centered
to exact zero.  :func:`centered_side` builds the centered Gram HKH, of one
sample or of each sample of a stack at once, as a power experiment builds
its trials' sides.
:func:`gram_free_side` builds a side without an n x n array, as a centered
low-rank factor ``Fc`` with ``HKH ~= Fc' Fc``: K is factored, and the
factor centered.  The statistic's roundoff scale is read off the scale
returned with either side, never recomputed from the Gram.

A Gaussian or Laplace K is factored by pivoted incomplete Cholesky (Bach &
Jordan 2002), each pivot column one row of K, until no residual diagonal
exceeds ``n * eps * max K_ii``; a linear K exactly, by its data.  That
moves a statistic by roundoff, not approximation.  The residual ``R = K -
F' F`` is positive semidefinite with trace at most ``n^2 * eps * max
K_ii``, centering leaves ``Kc - Fc' Fc = H R H`` with ``tr(H R H) <=
tr(R)``, and ``|tr(A M)| <= tr(A) * ||M||_2`` for a PSD A, with ``||Lc||_2
<= n * max|Lc|``.  So a factored side x moves ``tr(Kc Lc) / n^2``, and
every permuted statistic, by at most ``n * eps * max K_ii * max|Lc|``,
which is ``n * eps * scale`` (``scale = max|Kc| * max|Lc|``) divided by
``max|Kc| / max K_ii``, and likewise side y.  A linear factor has no
residual.  For a Gaussian or Laplace side the ratio is 0.65 on the ring at
the median bandwidth, and the side is factored only while it is at least
``FACTOR_MIN_SCALE``.

Theta has zero row and column sums, so only the zero-sum directions of each
marginal Gram enter the sum.  A dependent pmf of population value exactly
zero exists where a marginal kernel has a zero-sum null direction on its
support (:func:`hsictest.kernels.zero_sum_probe` finds one), and only there.
With both marginal kernels characteristic on their supports the value is
zero iff the distribution is an exact product, even where the product kernel
is not characteristic on the joint support; :mod:`hsictest.datagen` ships
the canonical dependent pmf of value zero under a linear kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._selection import _block_rows
from .kernels import (
    KernelFamily,
    KernelSpec,
    _as_stack,
    _finite,
    _gram_diagonal,
    _gram_rows,
    as_points,
    gram_entries,
    resolve_bandwidth,
)

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
        raw = _finite(float(raw))
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
    entries are finite, non-negative and total 1 within roundoff, and the support
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
        if not (pmf >= 0.0).all():  # not any(pmf < 0): NaN fails every comparison
            raise ValueError("pmf entries must be finite and non-negative")
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

    :func:`theta_product` of ``theta(dist)`` and the support Grams, built by
    :func:`kernels.gram_entries`: a median bandwidth is resolved over each
    support, and every kernel is checked.  Exact up to floating point.
    """
    kx_gram, ky_gram = gram_entries(kx, dist.x_support), gram_entries(ky, dist.y_support)
    return theta_product(theta(dist), kx_gram, ky_gram)


def _constant(scale, k_diagonal: np.ndarray):
    """Whether max|HKH| is within the roundoff of K: ``<= n * eps * max(diag K)``.

    The diagonal bounds a PSD Gram, so such a side is constant to working
    precision.  Given a (T,) array of scales and a (T, n) array of
    diagonals, one per sample of a stack, it answers for each.
    """
    return scale <= k_diagonal.shape[-1] * _EPS * k_diagonal.max(axis=-1)


def _identity(spec: KernelSpec, grand_mean, n: int):
    """Whether a Gram of ``spec`` on n points, of mean entry ``grand_mean``, is the identity.

    The identity to working precision, that is, and only a Gaussian or
    Laplace Gram can be one.  Its entries are nonnegative and its diagonal
    is 1, so its off-diagonal entries E sum to ``n^2 g - n`` for g its mean
    entry, and it is taken for the identity when that sum is at most ``n^2 *
    eps``.  Against any centered Lc, E then moves ``sum(Kc * Lc) / n^2`` by
    at most ``eps * max|Lc|``, less than the ``n * eps * scale`` by which
    factoring a side may move it (see the module docstring); the rest,
    ``tr(H Lc) / n^2``, is the same for every permutation of Lc.  Given an
    array of mean entries, one per sample of a stack, it answers for each.
    """
    return (n * grand_mean - 1.0 <= n * _EPS) & (spec.family is not KernelFamily.LINEAR)


def centered_side(spec: KernelSpec, points) -> tuple:
    """One side of a test: ``spec`` resolved on ``points``, H K H for its Gram K, max|H K H|, a tie.

    The one place a sample becomes a centered Gram.  ``points`` is one (n,
    d) sample, or a (T, n, d) stack of T samples, each built as it would be
    alone, bit for bit: the values then come back one per sample, as a list
    of resolved specs, a (T, n, n) array and (T,) arrays of scales and ties.
    Each sample's Gram is built and centered in its n x n slice, one block
    of at most 2^16 floats at a time while the block is in cache: a block
    holds whole samples while one sample's Gram fits in half a block (n <=
    181), and otherwise rows of one sample.  A stack of samples that is one
    block, as a power experiment builds below ``testing.TAKE_MIN_N``,
    therefore takes one pass for all its samples.  Median bandwidths are
    resolved first, by exact selection, for the whole stack at once while
    each sample's pairs are one block (see :func:`kernels.resolve_bandwidth`).
    A side constant to working precision (see :func:`_constant`) is set to
    exact zero and its scale to 0.0: leaving the residue would make the
    statistic and every permuted one roundoff noise.  The last value tells
    whether K is the identity to working precision (see :func:`_identity`):
    every permuted statistic against such a side is then the observed one,
    which the permutation tests make an exact tie.  A non-finite Gram raises
    ``ArithmeticError``, and a refused sample raises as
    :func:`kernels.resolve_bandwidth` refuses it alone.
    """
    arr = np.asarray(points, dtype=float)
    stack = _as_stack(arr)
    t, n, _ = stack.shape
    out = np.empty((t, n, n))
    # Blocks of whole samples, or of rows of one sample, so each is contiguous.
    per = _block_rows(n * n)
    rows = n if per > 1 else _block_rows(n)
    blocks = [
        (slice(lo, lo + per), slice(row, row + rows))
        for lo in range(0, t, per)
        for row in range(0, n, rows)
    ]
    row_means, k_diagonal = np.empty((t, n)), np.empty((t, n))
    with np.errstate(over="ignore", invalid="ignore"):
        specs = resolve_bandwidth(spec, stack)
        # Each block's row means r_i are taken as ``mean(axis=1)`` takes
        # them over the whole matrix, so they are the same bit for bit.
        for samples, part in blocks:
            block = out[samples, part]
            _gram_rows(specs[samples], stack[samples, part], stack[samples], block)
            block.mean(axis=-1, out=row_means[samples, part])
            k_diagonal[samples, part] = np.diagonal(block, part.start, axis1=1, axis2=2)
            block -= row_means[samples, part, None]
        grand_mean = row_means.mean(axis=-1)
        # Finish centering, to ((k_ij - r_i) - r_j) + g, and take each
        # block's max and min while it is in cache.
        scale = np.zeros(t)
        for samples, part in blocks:
            block = out[samples, part]
            block -= row_means[samples, None, :]
            block += grand_mean[samples, None, None]
            top = np.maximum(block.max(axis=(1, 2)), -block.min(axis=(1, 2)))
            np.maximum(scale[samples], top, out=scale[samples])
        _finite(scale)
        constant = _constant(scale, k_diagonal)
        out[constant] = 0.0
        scale[constant] = 0.0
    tied = _identity(specs[0], grand_mean, n)
    if arr.ndim == 3:
        return specs, out, scale, tied
    return specs[0], out[0], float(scale[0]), bool(tied[0])


# A Gaussian or Laplace side is factored only when its scale max|HKH| is at
# least this fraction of max K_ii (which is 1).  Centering the factor of a
# nearly constant kernel cancels all but that fraction of it, and the
# roundoff bound of the factored null grows as its inverse (see the module
# docstring).  On the n = 1000 ring (x gaussian:median, B = 200) the
# fraction of y was 0.64 at the median bandwidth, 0.040 at gaussian:5, 0.010
# at gaussian:10 and 1.0e-4 at gaussian:100, and the factored null differed
# from the dense one by at most 8.0e-14, 6.2e-13, 2.8e-13 and 1.2e-10 of
# max|null|.
FACTOR_MIN_SCALE = 1e-2

# A side whose K needs more than this many pivots per isqrt(n) stays dense.
# Measured single-threaded per replicate (numpy 2.4, OpenBLAS 0.3.31, 2-vCPU
# x86-64 VM), both sides of rank r, factored vs dense take: n=64, 4.0 us at
# r=32 and 14.5 us at r=64 vs 10 us; n=200, 51 us at r=64 and 126 us at
# r=96 vs 98 us; n=1000, 1.0 ms at r=128 and 3.1 ms at r=256 vs 3.7 ms.
# Factoring stops winning near 6*sqrt(n) up to n=500 (later beyond), so the
# cap 4*isqrt(n) keeps it about 2x ahead.
FACTOR_RANK_CAP_PER_ROOT = 4

# The factor's rows start in a buffer of this many rows, doubled when full,
# rather than one of the cap's size: at n = 600 the cap's 96 rows would be
# 0.16 of a Gram, and the ring's Gaussian sides take 12-14.
_FACTOR_ROWS_FIRST = 16


def _pivoted_cholesky(
    diagonal: np.ndarray, column: Callable[[int], np.ndarray], max_abs: float, cap: int
) -> np.ndarray | None:
    """Rows of F with ``a ~= F' F``, or None if that takes more than ``cap`` rows.

    Greedy pivoted incomplete Cholesky of a positive semidefinite ``a``,
    given by its ``diagonal`` and ``column(j)``, which returns column j:
    each step takes the column at the largest residual diagonal, and the
    factor is complete once no residual diagonal exceeds ``n * eps *
    max_abs``, with ``max_abs`` the largest diagonal entry (for a kernel
    matrix K, max K_ii).  The residual ``a - F' F`` is then positive
    semidefinite with trace at most ``n^2 * eps * max_abs``, and so is the
    residual of the centered factor F H, ``H (a - F' F) H``: the module
    docstring bounds what that moves a statistic.  Updates are elementwise,
    in a fixed order, so equal rows of ``a`` (repeated points) get
    bitwise-equal factor columns and keep their exact null ties.
    """
    n = len(diagonal)
    floor = n * _EPS * max_abs
    residual = diagonal.copy()
    rows = np.empty((min(cap, _FACTOR_ROWS_FIRST), n))
    for k in range(cap + 1):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= floor:
            return rows[:k].copy()
        if k == cap:
            break
        if k == len(rows):
            rows = np.concatenate((rows, np.empty((min(k, cap - k), n))))
        col = column(pivot) - (rows[:k] * rows[:k, pivot, None]).sum(axis=0)
        col /= math.sqrt(residual[pivot])
        rows[k] = col
        residual -= col * col
    return None


def gram_free_side(spec: KernelSpec, points) -> tuple[KernelSpec, np.ndarray | None, float]:
    """One side of a test as a centered factor: ``(spec, Fc, scale)`` with ``HKH ~= Fc' Fc``.

    ``spec`` comes back resolved on ``points``, and no n x n array is held.
    K is factored as ``F' F`` first: a linear K exactly, by its d x n data,
    and a Gaussian or Laplace K by :func:`_pivoted_cholesky`, whose pivot
    columns are each built as one row of K.  Either way F may have at most
    ``cap`` rows, ``FACTOR_RANK_CAP_PER_ROOT`` per isqrt(n).  The factor is
    then centered, ``Fc = F H``, and the scale max|HKH| is Fc's largest
    squared column norm: the largest entry of a PSD matrix is on its
    diagonal.  A side constant to working precision (see :func:`_constant`)
    gets a factor of no rows and scale 0.0, and a non-finite scale raises
    ``ArithmeticError``, as :func:`kernels.resolve_bandwidth` does.  ``Fc``
    is None, for the dense path, only when K needs more than ``cap`` rows or
    a Gaussian or Laplace scale is below ``FACTOR_MIN_SCALE * max K_ii``.
    """
    pts = as_points(points)
    n, d = pts.shape
    cap = FACTOR_RANK_CAP_PER_ROOT * math.isqrt(n)
    with np.errstate(over="ignore", invalid="ignore"):
        spec = resolve_bandwidth(spec, pts)
        k_diagonal = _gram_diagonal(spec, pts)
        linear = spec.family is KernelFamily.LINEAR
        if linear:
            f = pts.T if d <= cap else None
        else:
            column = lambda j: _gram_rows(spec, pts[j : j + 1], pts, np.empty((1, n)))[0]  # noqa: E731
            f = _pivoted_cholesky(k_diagonal, column, float(k_diagonal.max()), cap)
        if f is None:
            return spec, None, math.nan
        fc = f - f.mean(axis=1, keepdims=True)
        scale = _finite(float(np.einsum("ij,ij->j", fc, fc).max()))
    if _constant(scale, k_diagonal):
        return spec, fc[:0], 0.0
    if not linear and scale < FACTOR_MIN_SCALE * k_diagonal.max():
        return spec, None, scale
    return spec, fc, scale


def centered_gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """H K H for the Gram matrix of ``spec`` on ``points``; see :func:`centered_side`."""
    return centered_side(spec, points)[1]


def theta_product(t: np.ndarray, k: np.ndarray, l: np.ndarray) -> HsicValue:
    """``sum(k * (t l t'))``: population HSIC of the signed measure ``t`` on support Grams k, l."""
    raw = float(np.einsum("ik,ik->", k, t @ l @ t.T))
    scale = float(np.abs(k).max()) * float(np.abs(l).max())  # inf, not a warning, on overflow
    return HsicValue.from_raw(raw, Estimator.POPULATION_EXACT, scale)


def hsic_biased(data: Dataset, kx: KernelSpec, ky: KernelSpec) -> HsicValue:
    """Biased V-statistic estimate of HSIC: ``tr(K H L H) / n^2``.

    The permutation test's own observed statistic, bit for bit: median
    bandwidths resolve per side from that side's points, and the value is
    the test's null function at the identity permutation, factored from
    ``testing.TAKE_MIN_N`` points on where both sides are low rank, and
    otherwise ``sum(HKH * HLH) / n^2`` over the two centered Grams.  Those
    Grams are checked against the test's memory budget, so a dense input
    over it raises ``ValueError`` before either is allocated.
    """
    from .testing import _observed  # testing imports this module

    return _observed(data, kx, [ky])[2][0]
