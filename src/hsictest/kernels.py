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
distributions on a finite support of distinct points differ by a signed
measure of total mass zero, so on that support the kernel is characteristic
iff ``c' K c > 0`` for every nonzero c whose entries sum to zero, which
:func:`zero_sum_probe` checks on the Gram.  Directions with mass do not
count: the linear kernel on {0, 1} has the null direction (1, 0), yet its one
zero-sum direction (1, -1) / sqrt(2) gives ``c' K c = 0.5``, so it separates
the distributions there.  Floats can lose the property a family has on R^d:
``gaussian:1e150`` on {0, 1} rounds K to all ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._selection import _block_rows, _largest, _pairwise, _stack_order_statistics

MEDIAN_BANDWIDTH = "median"


class KernelFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    LINEAR = "linear"


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
    return _checked(arr)


def _as_stack(points) -> np.ndarray:
    """``points`` as a (T, n, d) stack of T samples: a 3-D array, or one :func:`as_points` sample."""
    arr = np.asarray(points, dtype=float)
    return _checked(arr) if arr.ndim == 3 else as_points(arr)[None]


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr``, rows of points on its last two axes, unless it has no points or a non-finite one."""
    if arr.shape[-2] == 0:
        raise ValueError("need at least one point")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite (no NaN or inf)")
    return arr


def median_heuristic(points):
    """The median of all n(n-1)/2 pairwise Euclidean distances, bitwise ``np.median`` of ``pdist``.

    That holds in every case: the median is 0.0 when more than half the pairs
    coincide, as when all points do, and inf when the squared distances
    overflow, as they do in ``pdist``; :func:`resolve_bandwidth` refuses
    both as a bandwidth.  The two middle squared distances (one for an odd
    count) are selected exactly by :func:`_selection._stack_order_statistics`,
    which holds at most one block of 2^16 distances, and selects those of
    1-D points in O(n log n) time and O(n) memory; only they are
    square-rooted, and they are averaged as ``np.median`` averages them.
    sqrt is correctly rounded and so monotone: the square roots of the
    middle squared distances are the middle distances.  Given a (T, n, d)
    stack of samples it returns an array of their T medians, each the one
    of its sample alone, selected together while each sample's pairs are
    one block.
    """
    arr = np.asarray(points, dtype=float)
    stack = _as_stack(arr)
    n = stack.shape[1]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    m = n * (n - 1) // 2
    with np.errstate(over="ignore"):  # a squared distance that overflows is inf
        middle = _stack_order_statistics(stack, sorted({(m - 1) // 2, m // 2}))
    medians = np.sqrt(middle).mean(axis=-1)
    return medians if arr.ndim == 3 else float(medians[0])


def resolve_bandwidth(spec: KernelSpec, points):
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
    exactly for 1-D points, as rounding is monotone.  For d > 1 the bound
    can overflow where no distance does, so only then is the largest
    distance itself taken, in the blocks of :func:`_selection._largest`,
    and the side refused only if that overflows.

    Given a (T, n, d) stack of samples it returns a list of T specs, each
    the one of its sample alone: the medians are selected together, and the
    samples are then checked in order, so the refusal raised is that of the
    first sample refused.
    """
    arr = np.asarray(points, dtype=float)
    stack = _as_stack(arr)
    medians = None if spec.is_resolved else median_heuristic(stack).tolist()
    squared = spec.family is KernelFamily.GAUSSIAN
    if spec.family is not KernelFamily.LINEAR:
        # Each sample's bound on its largest distance, in numpy floats,
        # which overflow to inf as Python floats do.
        with np.errstate(over="ignore"):
            ranges = stack.max(axis=1) - stack.min(axis=1)
            bounds = np.zeros(len(stack))
            for column in ranges.T:
                bounds += column * column if squared else column
        bounds = bounds.tolist()
    specs = []
    for t, pts in enumerate(stack):
        resolved = spec
        if medians is not None:
            median = medians[t]
            if not 0.0 < median < math.inf:
                raise ValueError(
                    f"the median pairwise distance is {median!r}, which is no bandwidth (a bandwidth "
                    f"must be positive and finite); pass an explicit one, such as "
                    f"{spec.family.value}:1.0"
                )
            resolved = replace(spec, bandwidth=median)
        if spec.family is not KernelFamily.LINEAR:
            # Capped where 2 sigma^2 overflows already: ``**`` raises from sigma near 1.34e154 on.
            bandwidth = resolved.bandwidth
            divisor = 2.0 * min(bandwidth, 1e154) ** 2 if squared else bandwidth
            largest = bounds[t]
            if largest == math.inf and pts.shape[1] > 1:  # the bound over-counts: take the distance itself
                with np.errstate(over="ignore"):
                    largest = _largest(pts, squared)
            _finite(largest if 0.0 < divisor < math.inf else math.nan)
        specs.append(resolved)
    return specs if arr.ndim == 3 else specs[0]


def _finite(values):
    """``values`` (a side's scale, a statistic or a null) if all finite; else ``ArithmeticError``."""
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise ArithmeticError(
            "non-finite HSIC statistic: the kernel values overflowed or are undefined"
        )
    return values


def _gram_rows(spec, rows: np.ndarray, pts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gram entries ``k(rows[i], pts[j])`` of a resolved ``spec``, in ``out`` (len(rows) x len(pts)).

    The one place distances become kernel values.  Each entry depends only
    on its pair, so rows built alone equal those rows of the whole Gram bit
    for bit.  Entries of a stack are built at once: ``spec`` is then a list
    of resolved specs of one family, one per sample, with rows (T, r, d),
    pts (T, n, d) and out (T, r, n), and each sample's entries are those of
    its spec alone.  The Gaussian and Laplace kernels divide rather than
    multiply by the reciprocal, which would move the Gram in the last bits;
    the linear ``einsum`` sums the products of (i, j) and (j, i) in the same
    order.
    """
    stacked = isinstance(spec, list)
    specs = spec if stacked else [spec]
    if specs[0].family is KernelFamily.LINEAR:
        return np.einsum("...id,...jd->...ij", rows, pts, out=out)
    squared = specs[0].family is KernelFamily.GAUSSIAN
    _pairwise(rows[..., None, :], pts[..., None, :, :], squared, out)
    divisors = [-(2.0 * s.bandwidth**2) if squared else -s.bandwidth for s in specs]
    np.divide(out, np.array(divisors)[:, None, None] if stacked else divisors[0], out=out)
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
    The n x n array is allocated with no memory-budget check, unlike the
    Grams of :mod:`hsictest.testing`: the package calls this only on the
    finite supports of discrete distributions, whose Grams are small.
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


# A zero-sum eigenvalue of at most this many ``m * eps * max|K|`` is roundoff.
_PROBE_ROUNDOFF = 8.0


def zero_sum_probe(gram) -> tuple[float, np.ndarray | None]:
    """``(min_eigenvalue, witness)``: is ``gram``'s kernel characteristic on its m support points?

    ``min_eigenvalue`` is the least eigenvalue of ``Q' K Q``, with Q an
    orthonormal basis of the zero-sum vectors: the least ``c' K c`` over
    unit zero-sum c (see the module docstring).  ``witness`` is the unit
    zero-sum ``Q v`` that attains it, a signed measure of mass zero whose
    embedding vanishes to roundoff, when that eigenvalue is at most
    ``_PROBE_ROUNDOFF * m * eps * max|K|``; otherwise None, and the kernel
    is characteristic on the support.  The support points must be
    distinct, or the difference of two copies is a witness.  One point has
    no zero-sum direction: ``(inf, None)``.
    """
    k = np.asarray(gram, dtype=float)
    m = k.shape[0]
    if m < 2:
        return math.inf, None
    q = np.linalg.qr(np.ones((m, 1)), mode="complete")[0][:, 1:]
    eigenvalues, eigenvectors = np.linalg.eigh(q.T @ k @ q)
    lam = float(eigenvalues[0])
    tol = _PROBE_ROUNDOFF * m * np.finfo(float).eps * float(np.abs(k).max())
    return lam, (q @ eigenvectors[:, 0] if lam <= tol else None)
