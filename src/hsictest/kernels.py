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
median bandwidth is selected exactly (:func:`median_heuristic`).  Only while
the n(n-1)/2 pairs fit in one block of 2^16 floats (n <= 362) is the full
n x n distance matrix, at most 1 MB, partitioned.  Beyond it, 1-D points are
sorted once and the pairs at or below a threshold are counted row by row
in O(n log n) time and O(n) memory (:mod:`hsictest._selection`); points of
d > 1 coordinates are counted in chunked passes over the upper triangle of
the distances, in O(n^2) time.

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

from ._selection import _SAMPLE_PAIRS_PER_ROOT, _bracket, _sorted_order_statistics

MEDIAN_BANDWIDTH = "median"


class KernelFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    LINEAR = "linear"


_CHARACTERISTIC_FAMILIES = frozenset({KernelFamily.GAUSSIAN, KernelFamily.LAPLACE})


class AllPointsIdenticalError(ValueError):
    """All pairwise distances are zero; the median heuristic is undefined."""


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus bandwidth.

    ``bandwidth`` is a positive float or the sentinel :data:`MEDIAN_BANDWIDTH`,
    meaning "resolve via the median heuristic before use".  The linear kernel
    ignores the bandwidth entirely.
    """

    family: KernelFamily
    bandwidth: float | str = MEDIAN_BANDWIDTH

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        bw = self.bandwidth
        if isinstance(bw, str):
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
        return self.family is KernelFamily.LINEAR or isinstance(self.bandwidth, float)

    def describe(self) -> str:
        """Flag-grammar form, e.g. ``gaussian:0.5`` or ``linear``."""
        if self.family is KernelFamily.LINEAR:
            return self.family.value
        return f"{self.family.value}:{self.bandwidth}"


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


# Distances and Gram entries are computed in row blocks of at most this many
# floats (512 KB), each block used while it is in cache; at n = 5000,
# centering in such blocks ran 1.5x faster than three whole-matrix passes,
# and blocks of 2^15 or 2^17 floats ran no faster.
_BLOCK_FLOATS = 1 << 16


def _block_rows(n: int) -> int:
    """Rows of an n-column matrix in a block of at most ``_BLOCK_FLOATS`` floats (at least one)."""
    return max(1, _BLOCK_FLOATS // n)


def _pairwise(a: np.ndarray, b: np.ndarray, squared: bool, out: np.ndarray) -> np.ndarray:
    """Squared-Euclidean (or cityblock) distances between the points of ``a`` and ``b``, in ``out``.

    ``a`` and ``b`` hold d-vectors on their last axis and broadcast to
    ``out``: ``pts[lo:hi, None]`` against ``pts[None]`` gives rows lo..hi of
    the distance matrix, and two (m, d) arrays give m pairs.  The first
    coordinate is written straight into ``out``; each later one is added
    through one diff buffer of ``out``'s size.  Coordinates are accumulated
    one column at a time, in order, which is the summation order of scipy's
    ``pdist``/``cdist``; the results agree bitwise (a single ``einsum`` over
    the coordinate axis does not, from d = 3 on).  The distance of a pair
    does not depend on the block it is computed in, and (i, j) and (j, i)
    are computed from the same terms, so a matrix of them is exactly
    symmetric.
    """
    d = a.shape[-1]
    if not d:  # points without coordinates all coincide
        out.fill(0.0)
        return out
    _difference(a[..., 0], b[..., 0], squared, out)
    diff = np.empty_like(out) if d > 1 else None
    for c in range(1, d):
        out += _difference(a[..., c], b[..., c], squared, diff)
    return out


def _difference(a: np.ndarray, b: np.ndarray, squared: bool, out: np.ndarray) -> np.ndarray:
    """``(a - b)^2`` or ``|a - b|``, broadcast into ``out``.

    Computed as ``b - a``, exactly ``-(a - b)``, by copying ``b`` into
    ``out`` and subtracting ``a`` in place: numpy subtracts a broadcast
    column from a whole block about 1.2x faster than it broadcasts both.
    """
    np.copyto(out, b)
    np.subtract(out, a, out=out)
    if squared:
        return np.multiply(out, out, out=out)
    return np.abs(out, out=out)


def median_heuristic(points) -> float:
    """Median of the n(n-1)/2 pairwise Euclidean distances, bitwise ``np.median`` of them.

    Zero distances stay in the median pool; only the fully degenerate case
    (every pair coincident) raises :class:`AllPointsIdenticalError`.  The two
    middle squared distances (one for an odd count) are selected exactly
    by :func:`_order_statistics`, which holds the n x n matrix only for
    n <= 362, and selects those of 1-D points in O(n log n) time and O(n)
    memory; only they are square-rooted, and they are averaged as
    ``np.median`` averages them.  sqrt is correctly rounded and so
    monotone: the square roots of the middle squared distances are the
    middle distances.  A squared distance that overflows is inf, as in
    scipy's ``pdist``, so the median can be inf.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    m = n * (n - 1) // 2
    middle = _order_statistics(pts, sorted({(m - 1) // 2, m // 2}))
    # Only a zero upper middle leaves the question open.  A squared distance
    # sums nonnegative terms, and the largest term of a coordinate is its
    # squared range, so every squared distance is zero iff every squared
    # range is.
    if not middle[-1] > 0.0 and not np.any(np.square(np.ptp(pts, axis=0)) > 0.0):
        raise AllPointsIdenticalError("all pairwise distances are zero")
    return float(np.mean(np.sqrt(middle)))


def _order_statistics(pts: np.ndarray, ranks: list[int]) -> list[float]:
    """The squared distances of 0-based ``ranks`` among the m = n(n-1)/2 pairs i < j, ascending.

    Exact selection in passes over the upper triangle, row block by row
    block (see :func:`_count_pass`).  Each pass brackets the ranks between
    two thresholds t1 <= t2, counts the distances up to t1 and below t2, and
    keeps those strictly between; a rank that falls between them is
    selected from the kept values.  The thresholds are the ranks' estimated
    positions in a sorted sample of distances of uniformly random pairs,
    widened by four standard deviations, so one pass does in practice.  The
    later passes also count the distances at each threshold: a rank whose
    count range covers a threshold is that threshold, so a value shared by
    many pairs is never kept, and a rank beyond them lies in an open
    interval below t1 or above t2, which the next pass brackets.  Each such
    pass drops at least one sample value from the interval, and one with no
    sample value left keeps the whole interval.  When the whole triangle
    fits in one block there is no sample and no pass: the full matrix is
    partitioned directly.  Beyond that, 1-D points make no pass over the
    triangle: they are sorted and counted row by row
    (:mod:`hsictest._selection`), holding at most one block of values.
    """
    n = pts.shape[0]
    m = n * (n - 1) // 2
    if m <= _BLOCK_FLOATS:
        # The matrix is exactly symmetric with a zero diagonal, so its sorted
        # entries are n zeros, then each upper value twice: rank k is entry
        # n + 2k.
        flat = _pairwise(pts[:, None], pts[None], True, np.empty((n, n))).reshape(-1)
        flat.partition([n + 2 * k for k in ranks])
        return [flat[n + 2 * k] for k in ranks]
    if pts.shape[1] == 1:
        return _sorted_order_statistics(np.sort(pts[:, 0]), ranks, _BLOCK_FLOATS)
    sample = _sampled_squared(pts, m)
    lo, hi, below, inside = -np.inf, np.inf, 0, m  # ranks below..below+inside lie in (lo, hi)
    found, exact = {}, False
    while len(found) < len(ranks):
        todo = [k for k in ranks if k not in found]
        t1, t2 = _bracket(sample, lo, hi, (todo[0] - below) / inside, (todo[-1] - below) / inside)
        kept, le1, lt2, lt1, le2 = _count_pass(pts, t1, t2, exact)
        between = [k for k in todo if le1 <= k < lt2]
        if between:
            kept.partition([k - le1 for k in between])
            found.update((k, kept[k - le1]) for k in between)
        if not exact:  # the rest need the counts at the thresholds
            exact = True
            continue
        for k in todo:
            if lt1 <= k < le1:
                found[k] = t1
            elif lt2 <= k < le2:
                found[k] = t2
            elif k < lt1:
                hi, inside = t1, lt1 - below
            elif k >= le2:
                lo, below, inside = t2, le2, below + inside - le2
    return [found[k] for k in ranks]


def _sampled_squared(pts: np.ndarray, m: int) -> np.ndarray:
    """Sorted squared distances of ``8 * isqrt(m)`` random pairs i != j, from a fixed seed.

    Random pairs make the bracket's chance of missing independent of the
    order of the points; the seed makes the passes, not only their result,
    repeatable.
    """
    n = pts.shape[0]
    size = _SAMPLE_PAIRS_PER_ROOT * math.isqrt(m)
    rng = np.random.default_rng(0)
    i = rng.integers(n, size=size)
    j = rng.integers(n - 1, size=size)
    j += j >= i
    values = _pairwise(pts[i], pts[j], True, np.empty(size))
    values.sort()
    return values


def _upper_blocks(n: int):
    """Row ranges ``(lo, hi)`` covering the upper triangle, each block rows lo..hi by columns lo..n.

    A block holds at most ``_BLOCK_FLOATS`` floats, or one row, and no more
    rows than columns, so its leading square (where j <= i) is no larger.
    """
    lo = 0
    while lo < n:
        width = n - lo
        hi = min(n, lo + max(1, min(width, _BLOCK_FLOATS // width)))
        yield lo, hi
        lo = hi


def _count_pass(pts: np.ndarray, t1: float, t2: float, at_thresholds: bool):
    """``(kept, #<=t1, #<t2, #<t1, #<=t2)`` over the squared distances of all pairs i < j.

    ``kept`` holds the distances strictly between t1 and t2.  The counts
    that tell a value at a threshold from one beyond it, ``#<t1`` and
    ``#<=t2``, are None unless ``at_thresholds``: a pass whose ranks fall
    between the thresholds, the usual case, needs neither.  Each block's
    entries with j <= i are set to NaN, which no comparison counts.
    """
    n = pts.shape[0]
    buffer = np.empty(max(_BLOCK_FLOATS, n))  # a block has at least one row
    le1 = lt2 = lt1 = le2 = 0
    kept = []
    for lo, hi in _upper_blocks(n):
        rows, width = hi - lo, n - lo
        block = buffer[: rows * width].reshape(rows, width)
        _pairwise(pts[lo:hi, None], pts[None, lo:], True, block)
        np.copyto(block[:, :rows], np.nan, where=np.tri(rows, dtype=bool))
        above = block > t1
        under = block < t2
        le1 += rows * (2 * n - lo - hi - 1) // 2 - np.count_nonzero(above)
        lt2 += np.count_nonzero(under)
        if at_thresholds:
            lt1 += np.count_nonzero(block < t1)
            le2 += np.count_nonzero(block <= t2)
        above &= under
        kept.append(block[above])
    if not at_thresholds:
        lt1 = le2 = None
    # The block buffer goes before the kept values are joined: holding both
    # made the join the peak of a factored test at n = 2000.
    del buffer, block, above, under
    return np.concatenate(kept), le1, lt2, lt1, le2


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """Replace the median-heuristic sentinel with a concrete bandwidth.

    A median of 0 (most pairs coincide) or inf (the squared distances
    overflow) is no bandwidth, and raises ``ValueError`` that gives the
    median and asks for an explicit bandwidth.
    """
    if spec.is_resolved:
        return spec
    median = median_heuristic(points)
    if not 0.0 < median < math.inf:
        raise ValueError(
            f"the median pairwise distance is {median!r}, which is no bandwidth (a bandwidth "
            f"must be positive and finite); pass an explicit one, such as {spec.family.value}:1.0"
        )
    return replace(spec, bandwidth=median)


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
    np.divide(out, -2.0 * spec.bandwidth**2 if squared else -spec.bandwidth, out=out)
    return np.exp(out, out=out)


def gram_diagonal(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """The diagonal of the Gram of a resolved ``spec`` on (n, d) ``pts``: ``|x_i|^2`` for linear, else 1.

    A Gaussian or Laplace kernel is 1 at distance zero, as :func:`_gram_rows`
    computes it too.
    """
    if spec.family is KernelFamily.LINEAR:
        return np.einsum("id,id->i", pts, pts)
    return np.ones(pts.shape[0])


def gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """Raw (writable) Gram matrix entries of a resolved ``spec`` on ``points``.

    Filled in row blocks by :func:`_gram_rows`.  Exactly symmetric by
    construction.
    """
    if not spec.is_resolved:
        raise ValueError("bandwidth sentinel is unresolved; call resolve_bandwidth first")
    pts = as_points(points)
    n = pts.shape[0]
    out = np.empty((n, n))
    rows = _block_rows(n)
    if rows >= n:  # one block, as for every support of the oracle sweep
        return _gram_rows(spec, pts, pts, out)
    for lo in range(0, n, rows):
        _gram_rows(spec, pts[lo : lo + rows], pts, out[lo : lo + rows])
    return out


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

    The support points must be pairwise distinct.  A strictly positive
    definite Gram matrix is sufficient for the kernel to be characteristic on
    the support, not necessary: characteristicness concerns only signed
    measures whose entries sum to zero (see the module docstring), so a
    near-null direction shows a failure only when its entries sum to zero.
    The eigenvalue threshold scales with ``n * max|entry|``.
    """
    pts = as_points(support)
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("support points must be pairwise distinct")
    if pts.shape[0] < 2 and not spec.is_resolved:
        raise ValueError("cannot resolve bandwidth on a single support point")
    entries = gram_entries(resolve_bandwidth(spec, pts), pts)
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    lam_min = float(eigenvalues[0])
    tol = 1e-10 * pts.shape[0] * float(np.abs(entries).max())
    strictly = lam_min > tol
    witness = None if strictly else eigenvectors[:, 0].copy()
    return StrictPdWitness(strictly, lam_min, tol, witness)
