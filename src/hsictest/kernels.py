"""Kernel families, Gram matrices, and finite-support characteristicness diagnostics.

Conventions (stated because they differ across the literature):

* Gaussian: ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))`` with ``sigma`` the bandwidth.
* Laplace:  ``k(x, y) = exp(-||x - y||_1 / sigma)``.
* Linear:   ``k(x, y) = <x, y>`` (no bandwidth).

Gaussian and Laplace are characteristic, translation-invariant c0-kernels on
R^d; the linear kernel is neither translation invariant nor characteristic and
is carried as the canonical failure-mode kernel.  On a finite support,
characteristicness reduces to strict positive definiteness of the Gram matrix
(the embedding of signed measures on the support is injective iff the Gram
matrix has no null directions), which is what :func:`strict_pd_witness` probes.
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


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for a single pair of equal-dimension vectors."""
    if not spec.is_resolved:
        raise ValueError("bandwidth sentinel is unresolved; call resolve_bandwidth first")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    if spec.family is KernelFamily.GAUSSIAN:
        sq = float(np.sum((xv - yv) ** 2))
        return float(np.exp(-sq / (2.0 * spec.bandwidth**2)))
    if spec.family is KernelFamily.LAPLACE:
        l1 = float(np.sum(np.abs(xv - yv)))
        return float(np.exp(-l1 / spec.bandwidth))
    return float(np.dot(xv, yv))


def _pairwise(pts: np.ndarray, squared: bool) -> np.ndarray:
    """Full matrix of pairwise squared-Euclidean (or cityblock) distances.

    Coordinates are accumulated one column at a time, in order, which is the
    summation order of scipy's ``pdist``/``cdist``; the results agree bitwise
    (a single ``einsum`` over the coordinate axis does not, from d = 3 on).
    Entry (i, j) and entry (j, i) are computed from the same terms, so the
    matrix is exactly symmetric.
    """
    n = pts.shape[0]
    out = np.zeros((n, n))
    for col in pts.T:
        diff = col[:, None] - col[None, :]
        if squared:
            diff *= diff
        else:
            np.abs(diff, out=diff)
        out += diff
    return out


def median_heuristic(points) -> float:
    """Median of the n(n-1)/2 pairwise Euclidean distances.

    Zero distances stay in the median pool; only the fully degenerate case
    (every pair coincident) raises :class:`AllPointsIdenticalError`.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    dists = np.sqrt(_pairwise(pts, squared=True)[~np.tri(n, dtype=bool)])
    if not np.any(dists > 0.0):
        raise AllPointsIdenticalError("all pairwise distances are zero")
    return float(np.median(dists))


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """Replace the median-heuristic sentinel with a concrete bandwidth."""
    if spec.is_resolved:
        return spec
    return replace(spec, bandwidth=median_heuristic(points))


def gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """Raw (writable) Gram matrix entries; see :func:`gram` for the checked type.

    Exactly symmetric by construction: :func:`_pairwise` is, and so are the
    elementwise ``exp`` of it and the linear ``einsum``, whose entries (i, j)
    and (j, i) sum the same products in the same order.
    """
    if not spec.is_resolved:
        raise ValueError("bandwidth sentinel is unresolved; call resolve_bandwidth first")
    pts = as_points(points)
    if spec.family is KernelFamily.GAUSSIAN:
        entries = _pairwise(pts, squared=True)
        np.exp(entries / (-2.0 * spec.bandwidth**2), out=entries)
    elif spec.family is KernelFamily.LAPLACE:
        entries = _pairwise(pts, squared=False)
        np.exp(entries / -spec.bandwidth, out=entries)
    else:
        entries = np.einsum("id,jd->ij", pts, pts)
    return entries


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix of pairwise evaluations.

    Symmetry is exact by construction and re-checked here; positive
    semidefiniteness is a property of the kernel families and is enforced by
    the test suite (eigenvalue checks are O(n^3) and do not belong in a
    constructor).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.array_equal(arr, arr.T):
            raise ValueError("Gram matrix must be exactly symmetric")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix of ``spec`` on ``points``; propagates kernel errors."""
    return GramMatrix(gram_entries(spec, points))


def _scaled_tolerance(entries: np.ndarray, factor: float) -> float:
    n = entries.shape[0]
    max_abs = float(np.abs(entries).max()) if entries.size else 0.0
    return factor * n * max_abs


def psd_tolerance(entries: np.ndarray) -> float:
    """Scale-aware eigenvalue floor below which a Gram matrix is not PSD."""
    return _scaled_tolerance(entries, 1e-8)


def spd_tolerance(entries: np.ndarray) -> float:
    """Scale-aware threshold separating strictly-pd from numerically singular."""
    return _scaled_tolerance(entries, 1e-10)


@dataclass(frozen=True)
class StrictPdWitness:
    """Outcome of the finite-support characteristicness probe.

    When ``strictly_pd`` is false, ``witness`` is a unit-norm coefficient
    vector c with c' K c = min_eigenvalue: a signed measure on the support
    whose kernel embedding has near-zero norm, i.e. a concrete injectivity
    failure on this support.
    """

    strictly_pd: bool
    min_eigenvalue: float
    tolerance: float
    witness: np.ndarray | None


def strict_pd_witness(spec: KernelSpec, support) -> StrictPdWitness:
    """Probe whether ``spec`` separates signed measures on a finite support.

    The support points must be pairwise distinct; the Gram matrix of a
    characteristic kernel on distinct points is strictly positive definite,
    so a null (or near-null) direction certifies a non-characteristic kernel
    on that support.
    """
    pts = as_points(support)
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("support points must be pairwise distinct")
    resolved = resolve_bandwidth(spec, pts) if pts.shape[0] > 1 else spec
    if not resolved.is_resolved:
        raise ValueError("cannot resolve bandwidth on a single support point")
    entries = gram_entries(resolved, pts)
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    lam_min = float(eigenvalues[0])
    tol = spd_tolerance(entries)
    strictly = lam_min > tol
    witness = None if strictly else eigenvectors[:, 0].copy()
    return StrictPdWitness(strictly, lam_min, tol, witness)
