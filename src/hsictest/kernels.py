"""Kernel families, Gram matrices, and finite-support characteristicness diagnostics.

Conventions (stated because they differ across the literature):

* Gaussian: ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))`` with ``sigma`` the bandwidth.
* Laplace:  ``k(x, y) = exp(-||x - y||_1 / sigma)``.
* Linear:   ``k(x, y) = <x, y>`` (no bandwidth).

Gaussian and Laplace are characteristic, translation-invariant c0-kernels on
R^d; the linear kernel is neither translation invariant nor characteristic and
is carried as the canonical failure-mode kernel.

Gram entries are computed by one row-block kernel, :func:`_gram_rows`, which
serves the whole Gram of :func:`gram_entries` and the pivot columns of a
factored side in :mod:`hsictest.hsic` alike; each entry depends only on its
pair, so rows built alone equal those of the whole matrix bit for bit.  The
distances come from :mod:`hsictest._selection`, which also holds the block
budget and selects the median bandwidth (:func:`median_heuristic`) exactly
among the same distances.  Every public function that computes kernel values
resolves its spec on the points it evaluates by :func:`resolve_bandwidth`: a
median bandwidth is resolved over them, and every kernel is checked.

A kernel is characteristic when its mean embedding is injective on probability
measures; that is the property the test needs of each marginal kernel.  Two
distributions on a finite support differ by a signed measure with total mass
zero, so on that support the kernel is characteristic iff ``c' K c > 0`` for
every nonzero coefficient vector c whose entries sum to zero.  Strict positive
definiteness of the Gram matrix, which :func:`strict_pd_witness` probes, asks
this of every nonzero c: it is sufficient, not necessary.  The linear kernel on
{0, 1} is not strictly positive definite, yet it separates the distributions
there: its one null direction (1, 0) has mass 1, and the zero-sum direction
(1, -1) / sqrt(2) gives ``c' K c = 0.5``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._selection import _block_rows, _order_statistics, _pairwise

MEDIAN_BANDWIDTH = "median"


class KernelFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    LINEAR = "linear"


_CHARACTERISTIC_FAMILIES = frozenset({KernelFamily.GAUSSIAN, KernelFamily.LAPLACE})


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus bandwidth.

    ``bandwidth`` is a positive float or the sentinel :data:`MEDIAN_BANDWIDTH`,
    meaning "resolve via the median heuristic before use".  The linear kernel
    has none: its bandwidth is None, and a float is refused.
    """

    family: KernelFamily
    bandwidth: float | str | None = MEDIAN_BANDWIDTH

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        bw = self.bandwidth
        if self.family is KernelFamily.LINEAR:
            if bw not in (None, MEDIAN_BANDWIDTH):
                raise ValueError(f"the linear kernel takes no bandwidth, got {bw!r}")
            object.__setattr__(self, "bandwidth", None)
        elif isinstance(bw, str):
            if bw != MEDIAN_BANDWIDTH:
                raise ValueError(f"unknown bandwidth sentinel: {bw!r}")
        else:
            bw = float(bw)
            if not np.isfinite(bw) or bw <= 0.0:
                raise ValueError("bandwidth must be positive and finite")
            object.__setattr__(self, "bandwidth", bw)

    @property
    def claimed_characteristic(self) -> bool:
        """Derived from the family, never user-set."""
        return self.family in _CHARACTERISTIC_FAMILIES

    @property
    def is_resolved(self) -> bool:
        return self.bandwidth != MEDIAN_BANDWIDTH

    def describe(self) -> str:
        """Flag-grammar form, e.g. ``gaussian:0.5`` or ``linear``."""
        return self.family.value if self.bandwidth is None else f"{self.family.value}:{self.bandwidth}"


def parse_kernel(text: str) -> KernelSpec:
    """Parse the flag grammar ``family[:bandwidth|:median]``; ``linear`` takes no bandwidth."""
    name, sep, bw_text = text.strip().partition(":")
    try:
        family = KernelFamily(name.lower())
    except ValueError:
        known = ", ".join(f.value for f in KernelFamily)
        raise ValueError(f"unknown kernel family {name!r} (known: {known})") from None
    if not sep:
        return KernelSpec(family)
    if family is KernelFamily.LINEAR:
        raise ValueError(f"the linear kernel takes no bandwidth, got {text!r}")
    if bw_text.lower() == MEDIAN_BANDWIDTH:
        return KernelSpec(family, MEDIAN_BANDWIDTH)
    try:
        bandwidth = float(bw_text)
    except ValueError:
        raise ValueError(f"bad bandwidth {bw_text!r} in kernel spec {text!r}") from None
    return KernelSpec(family, bandwidth)


def as_points(points) -> np.ndarray:
    """Coerce to an (n, d) float array; 1-D input becomes a column of scalars."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 0:
        raise ValueError("points must be a sequence of vectors")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("points must all share one dimension")
    if arr.shape[0] == 0:
        raise ValueError("need at least one point")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite (no NaN or inf)")
    return arr


def median_heuristic(points) -> float:
    """The median of all n(n-1)/2 pairwise Euclidean distances, bitwise ``np.median`` of ``pdist``.

    That holds in every case: the median is 0.0 when more than half the pairs
    coincide, as when all points do, and inf when the squared distances
    overflow, as they do in ``pdist``; :func:`resolve_bandwidth` refuses
    both as a bandwidth.  The two middle squared distances (one for an odd
    count) are selected exactly by :func:`_selection._order_statistics`,
    which holds at most one block of 2^16 distances, and selects those of
    1-D points in O(n log n) time and O(n) memory; only they are
    square-rooted, and they are averaged as ``np.median`` averages them.
    sqrt is correctly rounded and so monotone: the square roots of the
    middle squared distances are the middle distances.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    m = n * (n - 1) // 2
    with np.errstate(over="ignore"):  # a squared distance that overflows is inf
        middle = _order_statistics(pts, sorted({(m - 1) // 2, m // 2}))
    return float(np.mean(np.sqrt(middle)))


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """``spec`` with a median-heuristic sentinel replaced, once floats can compute it on ``points``.

    The points are checked by :func:`as_points`, so empty or non-finite
    points raise its ``ValueError`` under every spec.  A median of 0 (more
    than half the pairs coincide, as when all points do) or inf (the
    squared distances overflow) is no bandwidth, and raises ``ValueError``
    that gives the median and asks for an explicit bandwidth: this is the
    one place either is refused.  Floats would compute another kernel, so
    :func:`_finite` refuses a Gaussian whose ``2 sigma^2`` overflows (sigma
    from about 9.48e153) or rounds to 0, and a Gaussian or Laplace side
    whose largest distance overflows.  That distance is bounded by the
    coordinate ranges, summed as :func:`_selection._pairwise` sums them:
    exactly for 1-D points, as rounding is monotone.
    """
    pts = as_points(points)
    if not spec.is_resolved:
        median = median_heuristic(pts)
        if not 0.0 < median < math.inf:
            raise ValueError(
                f"the median pairwise distance is {median!r}, which is no bandwidth (a bandwidth "
                f"must be positive and finite); pass an explicit one, such as {spec.family.value}:1.0"
            )
        spec = replace(spec, bandwidth=median)
    if spec.family is KernelFamily.LINEAR:
        return spec
    squared = spec.family is KernelFamily.GAUSSIAN
    # Capped where 2 sigma^2 overflows already: ``**`` raises from sigma near 1.34e154 on.
    divisor = 2.0 * min(spec.bandwidth, 1e154) ** 2 if squared else spec.bandwidth
    largest = 0.0  # in Python floats, which overflow to inf without a warning
    for hi, lo in zip(pts.max(axis=0).tolist(), pts.min(axis=0).tolist()):
        largest += (hi - lo) * (hi - lo) if squared else hi - lo
    _finite(largest if 0.0 < divisor < math.inf else math.nan)
    return spec


def _finite(values):
    """``values`` (a side's scale, a statistic or a null) if all finite; else ``ArithmeticError``."""
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise ArithmeticError(
            "non-finite HSIC statistic: the kernel values overflowed or are undefined"
        )
    return values


def _gram_rows(spec: KernelSpec, rows: np.ndarray, pts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gram entries ``k(rows[i], pts[j])`` of a resolved ``spec``, in ``out`` (len(rows) x len(pts)).

    The one place distances become kernel values.  Each entry depends only
    on its pair, so rows built alone equal those rows of the whole Gram bit
    for bit.  The Gaussian and Laplace kernels divide rather than multiply
    by the reciprocal, which would move the Gram in the last bits; the
    linear ``einsum`` sums the products of (i, j) and (j, i) in the same
    order.
    """
    if spec.family is KernelFamily.LINEAR:
        return np.einsum("id,jd->ij", rows, pts, out=out)
    squared = spec.family is KernelFamily.GAUSSIAN
    _pairwise(rows[:, None], pts[None], squared, out)
    np.divide(out, -(2.0 * spec.bandwidth**2) if squared else -spec.bandwidth, out=out)
    return np.exp(out, out=out)


def _gram_diagonal(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """The diagonal of the Gram of a resolved ``spec`` on (n, d) ``pts``: ``|x_i|^2`` for linear, else 1.

    A Gaussian or Laplace kernel is 1 at distance zero, as :func:`_gram_rows`
    computes it too.
    """
    if spec.family is KernelFamily.LINEAR:
        return np.einsum("id,id->i", pts, pts)
    return np.ones(pts.shape[0])


def gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """Raw (writable) Gram matrix entries of ``spec``, resolved and checked on ``points``.

    Filled in row blocks by :func:`_gram_rows`; exactly symmetric by
    construction.  An overflowing linear Gram raises ``ArithmeticError``.
    """
    pts = as_points(points)
    spec = resolve_bandwidth(spec, pts)
    n = pts.shape[0]
    out = np.empty((n, n))
    rows = _block_rows(n)
    # A distance that overflows over a tiny bandwidth gives exp(-inf) = 0.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            _gram_rows(spec, pts[lo : lo + rows], pts, out[lo : lo + rows])
    return _finite(out)


@dataclass(frozen=True)
class StrictPdWitness:
    """Outcome of the finite-support strict positive definiteness probe.

    When ``strictly_pd`` is false, ``witness`` is a unit-norm coefficient
    vector c with c' K c = min_eigenvalue: a signed measure on the support
    whose kernel embedding has near-zero norm.  It shows that the kernel
    fails to separate two distributions only when its entries sum to zero;
    otherwise it only shows that the Gram matrix is singular.
    """

    strictly_pd: bool
    min_eigenvalue: float
    tolerance: float
    witness: np.ndarray | None


def strict_pd_witness(spec: KernelSpec, support) -> StrictPdWitness:
    """Probe whether ``spec`` separates all signed measures on a finite support.

    The support points must be pairwise distinct, and a median bandwidth
    is resolved over them by :func:`gram_entries`.  A strictly positive
    definite Gram matrix is sufficient for the kernel to be characteristic on
    the support, not necessary: characteristicness concerns only signed
    measures whose entries sum to zero (see the module docstring), so a
    near-null direction shows a failure only when its entries sum to zero.
    The eigenvalue threshold scales with ``n * max|entry|``.
    """
    pts = as_points(support)
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("support points must be pairwise distinct")
    entries = gram_entries(spec, pts)
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    lam_min = float(eigenvalues[0])
    tol = 1e-10 * pts.shape[0] * float(np.abs(entries).max())
    strictly = lam_min > tol
    witness = None if strictly else eigenvectors[:, 0].copy()
    return StrictPdWitness(strictly, lam_min, tol, witness)
