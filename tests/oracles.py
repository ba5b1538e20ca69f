"""Slow reference implementations used to cross-check the library.

Everything here is written the obvious way (scalar kernel formulas, explicit
centering matrices, explicit loops) so that it shares no code path with the
package; a disagreement between the two routes points at the fast one
(:func:`draw_permutations` alone reuses the package's draw, only to gather
it into one array). The
frozen constants below were computed once with these functions and are
asserted verbatim in the tests, so a regression in either route shows up as
a mismatch against a fixed number rather than as two implementations
drifting together.
"""

import itertools
import math

import numpy as np

from hsictest import testing

# Population value of the discrete ring with gaussian(1.0) on both sides,
# from quadruple_sum_hsic. With linear on the y side the value is exactly
# 0.0 in floating point, not merely small: the y support is {-1, 0, 1} and
# every row of theta puts equal weight q on y = +1 and y = -1, so the inner
# sum over y_j cancels term by term before anything else accumulates.
RING_GAUSS_GAUSS = 0.007859102733704612
RING_LAPLACE_LAPLACE = 0.04325451148494823
RING_MAX_ABS_THETA = 0.25

# hsic_biased on x = (0, 1), y = (0, 1) with gaussian(1.0) on both sides,
# worked by hand from the 2x2 centered grams: both centered matrices equal
# ((1 - e^{-1/2}) / 2) * [[1, -1], [-1, 1]], so the statistic is
# (1 - e^{-1/2})^2 / 4.
N2_CLOSED_FORM = (1.0 - math.exp(-0.5)) ** 2 / 4.0
N2_CLOSED_FORM_VALUE = 0.03870453043654387

# Least zero-sum eigenvalues (least c'Kc over unit zero-sum c) on a few fixed
# supports with bandwidth 1.0, from zero_sum_min_eigenvalue applied to
# matrices assembled entrywise with kernel_value.  On {0, 1} it is 1 - e^{-1/2}.
ZERO_SUM_MIN_GAUSS_01 = 0.39346934028736646
ZERO_SUM_MIN_GAUSS_012 = 0.23640421479535953
ZERO_SUM_MIN_LAPLACE_012 = 0.5546058395169478


def kernel_value(family, bandwidth, x, y):
    """Scalar kernel formulas, straight from the definitions."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if family == "gaussian":
        return math.exp(-float(np.sum((xv - yv) ** 2)) / (2.0 * bandwidth * bandwidth))
    if family == "laplace":
        return math.exp(-float(np.sum(np.abs(xv - yv))) / bandwidth)
    if family == "linear":
        return float(np.dot(xv, yv))
    raise ValueError(f"unknown family {family!r}")


def gram_by_loops(family, bandwidth, points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = kernel_value(family, bandwidth, pts[i], pts[j])
    return out


def helmert_basis(m):
    """An orthonormal basis of the zero-sum vectors in R^m, as the columns of an m x (m-1) array.

    Column k - 1 is k ones, then -k, then zeros, over sqrt(k (k + 1)),
    written out entry by entry.
    """
    q = np.zeros((m, m - 1))
    for k in range(1, m):
        scale = math.sqrt(k * (k + 1))
        for i in range(k):
            q[i, k - 1] = 1.0 / scale
        q[k, k - 1] = -k / scale
    return q


def zero_sum_min_eigenvalue(gram):
    """The least c'Kc over unit zero-sum c: eigvalsh of Q'KQ, Q the Helmert basis."""
    q = helmert_basis(gram.shape[0])
    return float(np.linalg.eigvalsh(q.T @ gram @ q)[0])


def quadruple_sum_hsic(x_support, y_support, pmf, kernel_x, kernel_y):
    """Population HSIC as the literal quadruple sum over the support.

    kernel_x and kernel_y are (family, bandwidth) pairs; the bandwidth is
    ignored for the linear family.
    """
    pmf = np.asarray(pmf, dtype=float)
    row = pmf.sum(axis=1)
    col = pmf.sum(axis=0)
    th = pmf - np.outer(row, col)
    mx, my = pmf.shape
    total = 0.0
    for i in range(mx):
        for j in range(my):
            for i2 in range(mx):
                for j2 in range(my):
                    total += (
                        th[i, j]
                        * th[i2, j2]
                        * kernel_value(*kernel_x, x_support[i], x_support[i2])
                        * kernel_value(*kernel_y, y_support[j], y_support[j2])
                    )
    return total


def centered_double_sum_hsic(x_points, y_points, kernel_x, kernel_y):
    """Biased V-statistic via an explicit centering matrix: tr(K H L H) / n^2."""
    K = gram_by_loops(*kernel_x, x_points)
    L = gram_by_loops(*kernel_y, y_points)
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return float(np.trace(K @ H @ L @ H)) / (n * n)


def exhaustive_pvalue_by_refit(x_points, y_points, statistic):
    """p = #{pi : T(x, y[pi]) >= T(x, y)} / n! with T recomputed from scratch.

    `statistic` maps (x_points, y_points) to a float. The identity
    permutation is part of the enumeration, so the result is >= 1/n!.
    """
    y = np.asarray(y_points)
    n = y.shape[0]
    t0 = statistic(x_points, y_points)
    count = 0
    for perm in itertools.permutations(range(n)):
        if statistic(x_points, y[list(perm)]) >= t0:
            count += 1
    return count / math.factorial(n)


def count_compositions(total, parts):
    """Ordered ways to write `total` as a sum of `parts` non-negative ints."""
    return math.comb(total + parts - 1, parts - 1)


def pairwise_distance_median(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    dists = [
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return float(np.median(dists))


def draw_permutations(seed, num, n, out=None):
    """The first ``num`` permutations of (seed, n), as a test draws them, in ``out``.

    ``out`` is a (num, n) intp buffer the caller owns (a new one when None).
    The rows come from ``testing._draw_rows`` in blocks of
    ``testing._DENSE_DRAW_BLOCK_WORDS`` words, read at call time.  A test never
    holds all its rows at once; this whole array is for checking the stream
    against the rows a test draws.
    """
    perms = np.empty((num, n), dtype=np.intp) if out is None else out
    block = np.empty((min(num, max(1, testing._DENSE_DRAW_BLOCK_WORDS // n)), n), dtype=np.intp)
    for start, rows in testing._draw_rows(seed, n, 0, num, block):
        perms[start : start + len(rows)] = rows
    return perms


def gathered_statistics(kc, lc, perms):
    """``sum(kc * lc[p, p]) / n^2`` for each row p of ``perms``, by one 3-D fancy-index gather.

    The reference for the dense null while n^2 <= 8192, numpy's einsum
    buffer: its two contiguous takes and batched einsum must give the same
    values bit for bit.
    """
    n = lc.shape[0]
    return np.einsum("ij,bij->b", kc, lc[perms[:, :, None], perms[:, None, :]]) / (n * n)


def row_block_statistic(kc, lc, rows, perm=None):
    """``sum(kc * lc[p, p]) / n^2`` for one permutation p (the identity when None), in row blocks.

    Rows ``lo:lo + rows`` of ``kc`` are reduced by ``einsum("ij,ij->")``
    against the same rows of the permuted Lc, taken by one fancy-index
    gather, and the block sums are added in row order.  The reference for
    the dense null where n^2 > 8192, with ``rows`` = ``_block_rows(n)``.
    """
    n = lc.shape[0]
    p = np.arange(n) if perm is None else perm
    total = 0.0
    for lo in range(0, n, rows):
        total += np.einsum("ij,ij->", kc[lo : lo + rows], lc[p[lo : lo + rows, None], p])
    return float(total) / (n * n)
