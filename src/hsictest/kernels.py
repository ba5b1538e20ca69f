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
    return _median_of_squared(_pairwise(as_points(points), squared=True))


def _median_of_squared(sq: np.ndarray) -> float:
    """:func:`median_heuristic` from the full matrix of squared pairwise distances."""
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    dists = np.sqrt(sq[~np.tri(n, dtype=bool)])
    if not np.any(dists > 0.0):
        raise AllPointsIdenticalError("all pairwise distances are zero")
    return float(np.median(dists))


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """Replace the median-heuristic sentinel with a concrete bandwidth."""
    if spec.is_resolved:
        return spec
    return replace(spec, bandwidth=median_heuristic(points))


def gram_entries(spec: KernelSpec, points) -> np.ndarray:
    """Raw (writable) Gram matrix entries of a resolved ``spec`` on ``points``.

    Exactly symmetric by construction: :func:`_pairwise` is, and so are the
    elementwise ``exp`` of it and the linear ``einsum``, whose entries (i, j)
    and (j, i) sum the same products in the same order.
    """
    if not spec.is_resolved:
        raise ValueError("bandwidth sentinel is unresolved; call resolve_bandwidth first")
    pts = as_points(points)
    if spec.family is KernelFamily.GAUSSIAN:
        return _gaussian_in_place(_pairwise(pts, squared=True), spec.bandwidth)
    if spec.family is KernelFamily.LAPLACE:
        entries = _pairwise(pts, squared=False)
        np.exp(entries / -spec.bandwidth, out=entries)
        return entries
    return np.einsum("id,jd->ij", pts, pts)


def _gaussian_in_place(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    """``exp(-sq / (2 bandwidth^2))``, overwriting the squared distances ``sq``.

    Divides rather than multiplying by the reciprocal, which would move the
    Gram in the last bits.
    """
    np.divide(sq, -2.0 * bandwidth**2, out=sq)
    return np.exp(sq, out=sq)


def resolved_gram(spec: KernelSpec, points) -> tuple[KernelSpec, np.ndarray]:
    """``spec`` with a median bandwidth resolved on ``points``, and its Gram entries there.

    A Gaussian side computes its pairwise distances once and takes both the
    median and the Gram from them; the results equal :func:`resolve_bandwidth`
    followed by :func:`gram_entries` bit for bit.
    """
    if spec.family is not KernelFamily.GAUSSIAN:
        spec = resolve_bandwidth(spec, points)
        return spec, gram_entries(spec, points)
    sq = _pairwise(as_points(points), squared=True)
    if not spec.is_resolved:
        spec = replace(spec, bandwidth=_median_of_squared(sq))
    return spec, _gaussian_in_place(sq, spec.bandwidth)


def spd_tolerance(entries: np.ndarray) -> float:
    """Scale-aware threshold separating strictly-pd from numerically singular."""
    max_abs = float(np.abs(entries).max()) if entries.size else 0.0
    return 1e-10 * entries.shape[0] * max_abs


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
