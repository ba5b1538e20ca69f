"""HSIC statistics: the biased V-statistic estimator and an exact population oracle.

The population object is the squared Hilbert-Schmidt norm of the
cross-covariance operator, i.e. the squared RKHS norm of the embedding of the
signed measure ``theta = P_XY - P_X P_Y``.  On a finite discrete joint
distribution it is the exact quadruple sum

    sum_{i,j,i',j'} theta[i,j] theta[i',j'] kx(x_i, x_i') ky(y_j, y_j')

which this module evaluates in matrix form as ``sum(Kx * (Theta Ky Theta'))``.
The empirical statistic is the standard biased V-statistic
``tr(K H L H) / n^2`` with centering matrix ``H = I - (1/n) 11'``.

With both kernels characteristic the population value is zero iff the
distribution is an exact product (independence); with a non-characteristic
kernel on either side there are dependent distributions with value exactly
zero, and :mod:`hsictest.datagen` ships the canonical one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_points, gram_entries, resolve_bandwidth

# theta's rows and columns sum to zero by construction; loose only to roundoff.
THETA_MARGIN_TOL = 1e-12

# pmf entries must total 1 within this.
PMF_MASS_TOL = 1e-12


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
    kx_entries = gram_entries(kx, dist.x_support)
    ky_entries = gram_entries(ky, dist.y_support)
    raw = float(np.einsum("ik,ik->", kx_entries, t @ ky_entries @ t.T))
    scale = float(np.abs(kx_entries).max() * np.abs(ky_entries).max())
    return HsicValue.from_raw(raw, Estimator.POPULATION_EXACT, scale)


def _double_center(entries: np.ndarray) -> np.ndarray:
    """In-place double centering: A <- H A H with H = I - (1/n) 11'."""
    row_means = entries.mean(axis=1)
    grand_mean = row_means.mean()
    entries -= row_means[:, None]
    entries -= row_means[None, :]
    entries += grand_mean
    return entries


def centered_gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """H K H for the Gram matrix of ``spec`` on ``points`` (resolved spec only)."""
    return _double_center(gram_entries(spec, points))


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
    Computed as the centered elementwise sum ``sum(HKH * HLH) / n^2``, which
    equals the trace form exactly and keeps the degenerate constant-side case
    an exact zero.
    """
    if data.n < 2:
        raise ValueError("hsic_biased needs at least 2 paired samples")
    kc = centered_gram_entries(resolve_bandwidth(kx, data.x_points), data.x_points)
    lc = centered_gram_entries(resolve_bandwidth(ky, data.y_points), data.y_points)
    scale = float(np.abs(kc).max() * np.abs(lc).max())
    return HsicValue.from_raw(centered_product(kc, lc), Estimator.BIASED_V, scale)
