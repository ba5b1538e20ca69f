"""Kernel families, Gram matrices, and finite-support characteristicness diagnostics.

Conventions (stated because they differ across the literature):

* Gaussian: ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))`` with ``sigma`` the bandwidth.
* Laplace:  ``k(x, y) = exp(-||x - y||_1 / sigma)``.
* Linear:   ``k(x, y) = <x, y>`` (no bandwidth).

Gaussian and Laplace are characteristic, translation-invariant c0-kernels on
R^d; the linear kernel is neither translation invariant nor characteristic and
is carried as the canonical failure-mode kernel.

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
from dataclasses import dataclass, replace

import numpy as np

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
    """Parse the flag grammar ``family[:bandwidth|:median]``."""
    name, sep, bw_text = text.strip().partition(":")
    try:
        family = KernelFamily(name.lower())
    except ValueError:
        known = ", ".join(f.value for f in KernelFamily)
        raise ValueError(f"unknown kernel family {name!r} (known: {known})") from None
    if not sep:
        return KernelSpec(family)
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


# Coordinates after the first are differenced in row blocks of at most this
# many floats, so the one diff buffer stays small whatever n is.
_DIFF_BLOCK_FLOATS = 1 << 16


def _pairwise(pts: np.ndarray, squared: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Full matrix of pairwise squared-Euclidean (or cityblock) distances, in ``out``.

    ``out`` is an n x n float buffer the caller owns (a new one when None).
    The first coordinate is written straight into it; each later one is added
    in row blocks through one small diff buffer.  Coordinates are accumulated
    one column at a time, in order, which is the summation order of scipy's
    ``pdist``/``cdist``; the results agree bitwise (a single ``einsum`` over
    the coordinate axis does not, from d = 3 on).  Entry (i, j) and entry
    (j, i) are computed from the same terms, so the matrix is exactly
    symmetric.
    """
    n = pts.shape[0]
    if out is None:
        out = np.empty((n, n))
    cols = pts.T
    if not len(cols):  # points without coordinates all coincide
        out.fill(0.0)
        return out
    np.subtract(cols[0][:, None], cols[0][None, :], out=out)
    _square_or_abs(out, squared)
    rows = max(1, _DIFF_BLOCK_FLOATS // n)
    diff = np.empty((min(rows, n), n)) if len(cols) > 1 else None
    for col in cols[1:]:
        for lo in range(0, n, rows):
            d = diff[: min(rows, n - lo)]
            np.subtract(col[lo : lo + rows, None], col[None, :], out=d)
            _square_or_abs(d, squared)
            out[lo : lo + rows] += d
    return out


def _square_or_abs(diff: np.ndarray, squared: bool) -> None:
    if squared:
        np.multiply(diff, diff, out=diff)
    else:
        np.abs(diff, out=diff)


def median_heuristic(points) -> float:
    """Median of the n(n-1)/2 pairwise Euclidean distances.

    Zero distances stay in the median pool; only the fully degenerate case
    (every pair coincident) raises :class:`AllPointsIdenticalError`.
    """
    return _median_of_squared(_pairwise(as_points(points), squared=True))


def _median_of_squared(sq: np.ndarray) -> float:
    """:func:`median_heuristic` from the full matrix of squared pairwise distances.

    ``sq`` is selected in place, so it keeps its entries but not their
    order.  :func:`_pairwise` builds it exactly symmetric with a zero
    diagonal, so its n^2 sorted entries are the n diagonal zeros, then each
    of the m = n(n-1)/2 strict-upper values u_0 <= ... <= u_{m-1} twice (all
    are >= 0).  Sorted entry ``n + 2i`` is therefore u_i: one ``partition``
    of the flat view about ``k = n + 2 * (m // 2)`` puts the upper middle
    u_{m//2} at k, and for even m the largest entry before k is the lower
    middle u_{m//2 - 1}, exactly the order statistics the upper triangle
    alone gives.  Only they are square-rooted, and they are averaged as
    ``np.median`` averages them.  sqrt is correctly rounded and so monotone:
    the square roots of the middle squared distances are the middle
    distances, and the value is bitwise that of ``np.median`` over all the
    distances.  One ``partition`` about a single index, then a ``max`` on
    each side of it for the lower middle and the largest value, ran about
    five times faster at n = 1000 than one ``partition`` about three indices.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    size = n * (n - 1) // 2
    k = n + 2 * (size // 2)
    flat = sq.reshape(-1)
    flat.partition(k)
    if not flat[k:].max() > 0.0:
        raise AllPointsIdenticalError("all pairwise distances are zero")
    middle = [flat[k]] if size % 2 else [flat[:k].max(), flat[k]]
    return float(np.mean(np.sqrt(middle)))


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """Replace the median-heuristic sentinel with a concrete bandwidth."""
    if spec.is_resolved:
        return spec
    return replace(spec, bandwidth=median_heuristic(points))


def gram_entries(spec: KernelSpec, points, out: np.ndarray | None = None) -> np.ndarray:
    """Raw (writable) Gram matrix entries of a resolved ``spec`` on ``points``, in ``out``.

    ``out`` is an n x n float buffer the caller owns (a new one when None);
    every family fills it in place.  Exactly symmetric by construction:
    :func:`_pairwise` is, and so are the elementwise ``exp`` of it and the
    linear ``einsum``, whose entries (i, j) and (j, i) sum the same products
    in the same order.
    """
    if not spec.is_resolved:
        raise ValueError("bandwidth sentinel is unresolved; call resolve_bandwidth first")
    pts = as_points(points)
    if spec.family is KernelFamily.GAUSSIAN:
        return _gaussian_in_place(_pairwise(pts, True, out), spec.bandwidth)
    if spec.family is KernelFamily.LAPLACE:
        entries = _pairwise(pts, False, out)
        np.divide(entries, -spec.bandwidth, out=entries)
        return np.exp(entries, out=entries)
    return np.einsum("id,jd->ij", pts, pts, out=out)


def _gaussian_in_place(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    """``exp(-sq / (2 bandwidth^2))``, overwriting the squared distances ``sq``.

    Divides rather than multiplying by the reciprocal, which would move the
    Gram in the last bits.
    """
    np.divide(sq, -2.0 * bandwidth**2, out=sq)
    return np.exp(sq, out=sq)


def resolved_gram(
    spec: KernelSpec, points, out: np.ndarray | None = None
) -> tuple[KernelSpec, np.ndarray]:
    """``spec`` with a median bandwidth resolved on ``points``, and its Gram entries there.

    The Gram is built in ``out`` (see :func:`gram_entries`).  A median
    bandwidth is selected from squared distances built in ``out`` first (see
    :func:`_median_of_squared`); the selection scrambles them, so the Gram
    pass computes the distances again, bit for bit the same.  The results
    equal :func:`resolve_bandwidth` followed by :func:`gram_entries` bit for
    bit.
    """
    if spec.is_resolved:
        return spec, gram_entries(spec, points, out)
    pts = as_points(points)
    sq = _pairwise(pts, True, out)
    spec = replace(spec, bandwidth=_median_of_squared(sq))
    return spec, gram_entries(spec, pts, sq)


def spd_tolerance(entries: np.ndarray) -> float:
    """Scale-aware threshold separating strictly-pd from numerically singular."""
    max_abs = float(np.abs(entries).max()) if entries.size else 0.0
    return 1e-10 * entries.shape[0] * max_abs


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
    A median bandwidth is resolved from the same distance pass as the Gram.
    """
    pts = as_points(support)
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("support points must be pairwise distinct")
    if pts.shape[0] < 2 and not spec.is_resolved:
        raise ValueError("cannot resolve bandwidth on a single support point")
    _, entries = resolved_gram(spec, pts)
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    lam_min = float(eigenvalues[0])
    tol = spd_tolerance(entries)
    strictly = lam_min > tol
    witness = None if strictly else eigenvectors[:, 0].copy()
    return StrictPdWitness(strictly, lam_min, tol, witness)
