"""Pairwise distances, the block budget, and exact order statistics of the distances.

:func:`_pairwise` is the one place a pair of points becomes a distance: the
Gram entries of :mod:`hsictest.kernels` are built from it and the median
bandwidth is selected among its values, so the bandwidth is the median of
exactly the distances the Gram uses, and :func:`_largest` is the largest
of them.  ``_BLOCK_FLOATS`` is the one block budget, of distance and Gram
rows and of every gather of :mod:`hsictest.testing` alike
(:func:`_block_rows`): a factored null's block of gathered factor rows,
and each of the dense null's two gather blocks, whole permuted Grams up to
n = 90 and a row block of one permuted Gram above that.

:func:`_order_statistics` selects squared distances of given ranks exactly:
in passes over the upper triangle for points of d > 1 coordinates, and for
1-D points by row counts over the sorted points.  On points sorted into s,
the squared distances ``(s_j - s_i)^2`` of the pairs i < j are
nondecreasing along each row i and nonincreasing down each column j,
because rounding is monotone.  So the pairs at or below a threshold are a
prefix of each row, whose end is found without computing the row
(:func:`_row_ends`), and the pairs between two thresholds are one range per
row: O(n log n) time and O(n) memory.  Both kinds of pass bracket their
ranks from a fixed-seed sample of uniformly random pairs
(:func:`_sampled_between`, :func:`_bracket`).  Small inputs draw no
sample: while a sample's n x n distances are one block (n <= 256), of any
dimension, its values above the diagonal are partitioned directly, for a
whole stack of such samples at once (:func:`_stack_order_statistics`), and
the pairs of larger 1-D points are built once and partitioned while they fit
in one block (n <= 362).
"""

from __future__ import annotations

import math

import numpy as np

# Distances, Gram entries and the nulls' gathers are computed in row blocks
# of at most this many floats (512 KB), each block used while it is in
# cache.  At n = 5000, centering in such blocks ran 1.5x faster than three
# whole-matrix passes, and blocks of 2^15 or 2^17 floats ran no faster; at
# n = 1000 and rank 12, the factored null ran 1.2x faster than in blocks of
# 2^18 and 1.8x faster than in blocks of 2^20.
_BLOCK_FLOATS = 1 << 16

# The bandwidth's pair sample has this many pairs per square root of the
# pair count: at n = 1000, 5656 pairs, and a bracket holding about 5% of the
# distances.
_SAMPLE_PAIRS_PER_ROOT = 8


def _block_rows(width: int) -> int:
    """Rows of ``width`` floats each in a block of at most ``_BLOCK_FLOATS`` floats (at least one)."""
    return max(1, _BLOCK_FLOATS // width)


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


def _stack_order_statistics(stack: np.ndarray, ranks: list[int]) -> np.ndarray:
    """The squared distances of 0-based ascending ``ranks`` among the pairs of each sample of a stack.

    ``stack`` is (T, n, d), T samples of n points each, and row t of the
    (T, len(ranks)) result belongs to sample t.  While a sample's n x n
    distances are one block (n <= 256) they are built for the whole stack
    at once, and each sample's values above the diagonal are partitioned at
    the ranks along the stack's last axis: no sample, no count and no loop
    over the samples.  Beyond that each sample is selected alone, by
    :func:`_order_statistics`.  Either way the values are exact order
    statistics, so a sample's row does not depend on the stack it is in.
    """
    t, n, _ = stack.shape
    if n * n > _BLOCK_FLOATS:
        return np.array([_order_statistics(pts, ranks) for pts in stack]).reshape(t, len(ranks))
    rows = np.arange(n)
    block = _pairwise(stack[:, :, None], stack[:, None], True, np.empty((t, n, n)))
    upper = block[:, rows > rows[:, None]]
    upper.partition(ranks, axis=-1)
    return upper[:, ranks]


def _order_statistics(pts: np.ndarray, ranks: list[int]) -> list[float]:
    """The squared distances of 0-based ``ranks`` among the m = n(n-1)/2 pairs i < j of (n, d) ``pts``.

    ``ranks`` are ascending.  1-D points are selected by
    :func:`_sorted_order_statistics`.  Points of more coordinates are
    selected in passes over the upper triangle, row block by row block (see
    :func:`_count_pass`).  Each pass brackets the ranks between two
    thresholds t1 <= t2, counts the distances up to t1 and below t2, and
    keeps those strictly between; a rank that falls between them is selected
    from the kept values.  While the upper triangle is one block (n <= 256)
    there is no sample and no count: that block is partitioned at the ranks
    by :func:`_stack_order_statistics`.  Beyond that,
    the thresholds are the ranks' estimated positions in a sorted sample of
    ``8 * isqrt(m)`` uniformly random pairs, widened by four standard
    deviations, so one pass does in practice.  The later passes also count
    the distances at each threshold: a rank whose count range covers a
    threshold is that threshold, so a value shared by many pairs is never
    kept, and a rank beyond them lies in an open interval below t1 or above
    t2, which the next pass brackets.  Each such pass drops at least one
    sample value from the interval, and one with no sample value left keeps
    the whole interval.
    """
    if pts.shape[1] == 1:
        return _sorted_order_statistics(np.sort(pts[:, 0]), ranks)
    n = pts.shape[0]
    m = n * (n - 1) // 2
    if n * n <= _BLOCK_FLOATS:  # the one block a pass would build: partition its upper values
        return _stack_order_statistics(pts[None], ranks)[0].tolist()
    size = _SAMPLE_PAIRS_PER_ROOT * math.isqrt(m)
    rng = np.random.default_rng(0)
    sample = _sampled_between(pts, np.arange(1, n + 1), np.full(n, n), m, size, rng)
    lo, hi, below, inside = -np.inf, np.inf, 0, m  # ranks below..below+inside lie in (lo, hi)
    found, exact = {}, False
    while len(found) < len(ranks):
        todo = [k for k in ranks if k not in found]
        t1, t2 = _bracket(sample, lo, hi, (todo[0] - below) / inside, (todo[-1] - below) / inside)
        kept, le1, lt2, lt1, le2 = _count_pass(pts, t1, t2, exact)
        between = [k for k in todo if le1 <= k < lt2]
        if between:
            found.update(zip(between, _at_ranks(kept, [k - le1 for k in between])))
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


def _at_ranks(values: np.ndarray, ranks: list[int]) -> list[float]:
    """The values of 0-based ascending ``ranks`` among ``values``, partitioned in place."""
    values.partition(ranks)
    return [values[k] for k in ranks]


def _bracket(sample: np.ndarray, lo: float, hi: float, first: float, last: float):
    """Thresholds lo <= t1 <= t2 <= hi around the fractions ``first`` and ``last`` of (lo, hi).

    They are the sample values inside (lo, hi) at those fractions, widened
    by ``2 * sqrt(s) + 1`` places for s such values (four standard
    deviations of a sample rank); past either end they are lo or hi.
    """
    s = sample[np.searchsorted(sample, lo, "right") : np.searchsorted(sample, hi, "left")]
    margin = 2 * math.isqrt(len(s)) + 1
    i = math.floor(first * len(s)) - margin
    j = math.floor(last * len(s)) + margin
    return (s[i] if i >= 0 else lo), (s[j] if j < len(s) else hi)


def _sampled_between(pts, lo_ends, hi_ends, inside: int, size: int, rng) -> np.ndarray:
    """Sorted squared distances of ``size`` random pairs of the ``inside`` in the row ranges.

    Row i's range is the pairs (i, j) of (n, d) ``pts`` with lo_ends[i] <=
    j < hi_ends[i].  The ranges are laid end to end, and a pair is drawn by
    its position there.
    """
    positions = rng.integers(inside, size=size)
    positions.sort()  # searchsorted runs faster on sorted keys
    ends = np.cumsum(hi_ends - lo_ends)
    rows = np.searchsorted(ends, positions, "right")
    positions -= ends[rows]  # minus the pairs from there to the end of the row's range
    positions += hi_ends[rows]
    sample = _pairwise(pts[rows], pts[positions], True, np.empty(size))
    sample.sort()
    return sample


def _upper_blocks(n: int):
    """Row ranges ``(lo, hi)`` covering the upper triangle, each block rows lo..hi by columns lo..n.

    A block holds at most ``_BLOCK_FLOATS`` floats, or one row, and no more
    rows than columns, so its leading square (where j <= i) is no larger.
    """
    lo = 0
    while lo < n:
        hi = lo + min(n - lo, _block_rows(n - lo))
        yield lo, hi
        lo = hi


def _largest(pts: np.ndarray, squared: bool) -> float:
    """The largest squared-Euclidean (or cityblock) distance among the pairs of (n, d) ``pts``.

    Computed by :func:`_pairwise` over the upper triangle, one block of
    :func:`_upper_blocks` at a time, so it is the largest entry of exactly
    the distances a Gram is built from; a distance that overflows is inf.
    """
    n = pts.shape[0]
    buffer = np.empty(max(_BLOCK_FLOATS, n))
    largest = 0.0
    for lo, hi in _upper_blocks(n):
        block = buffer[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        largest = max(largest, _pairwise(pts[lo:hi, None], pts[None, lo:], squared, block).max())
    return float(largest)


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
    le1 = lt2 = 0
    lt1 = le2 = 0 if at_thresholds else None
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
    # The block buffer goes before the kept values are joined: holding both
    # made the join the peak of a factored test at n = 2000.
    del buffer, block, above, under
    return np.concatenate(kept), le1, lt2, lt1, le2


def _sorted_order_statistics(s: np.ndarray, ranks: list[int]) -> list[float]:
    """The squared distances of consecutive 0-based ``ranks`` among the pairs of sorted ``s``.

    While the pairs fit in one block they are built once, with no sample,
    and partitioned at every rank.  Beyond that the first rank is selected
    by :func:`_sorted_select`.  Each later rank is the value of the one
    before while more pairs than its rank are at or below that value, and
    otherwise the least value above it: the smallest value at the row ends
    of :func:`_row_ends`.
    """
    n = len(s)
    if n * (n - 1) // 2 <= _BLOCK_FLOATS:
        return _at_ranks(_values_between(s, np.arange(1, n + 1), np.full(n, n)), ranks)
    values = [_sorted_select(s, ranks[0])]
    for k in ranks[1:]:
        ends = _row_ends(s, values[-1], strict=False)
        if _pairs_before(ends) > k:
            values.append(values[-1])
        else:
            rows = np.flatnonzero(ends < n)
            values.append(_sorted_values(s, rows, ends[rows]).min())
    return values


def _sorted_select(s: np.ndarray, k: int) -> float:
    """The squared distance of 0-based rank ``k`` among the pairs i < j of sorted 1-D points ``s``.

    The selection keeps an interval (lo, hi) that holds rank k and each
    row's range of pairs inside it, and narrows it while it holds more than
    ``_BLOCK_FLOATS`` pairs, as :func:`_order_statistics` brackets its
    ranks: the thresholds come from a fixed-seed sample of the pairs inside,
    ``8 * isqrt(p)`` of p pairs but at most n, so a pass costs O(n log n),
    and a rank at a threshold is that threshold.  Each pass drops at least
    one value from the interval; one whose sample is too small for a margin
    takes the sample's estimate of the rank as both thresholds.  The pairs
    left are then built from their row ranges and partitioned, so no more
    than O(n) floats and one block of values are held.
    """
    n = len(s)
    lo, hi, lo_ends = -np.inf, np.inf, np.arange(1, n + 1)
    # Every pair is below inf unless the largest value, the first row's
    # last, overflowed.
    hi_ends = np.full(n, n) if (s[-1] - s[0]) ** 2 < np.inf else _row_ends(s, np.inf, strict=True)
    below, inside = 0, _pairs_before(hi_ends)
    if k >= inside:
        return np.inf
    rng = np.random.default_rng(0) if inside > _BLOCK_FLOATS else None
    while inside > _BLOCK_FLOATS:
        size = min(n, _SAMPLE_PAIRS_PER_ROOT * math.isqrt(inside))
        sample = _sampled_between(s[:, None], lo_ends, hi_ends, inside, size, rng)
        f = (k - below) / inside  # rank k's place in the interval, as a fraction
        t1, t2 = _bracket(sample, lo, hi, f, f)
        if t1 == lo and t2 == hi:
            t1 = t2 = sample[min(math.floor(f * len(sample)), len(sample) - 1)]
        le1 = lo_ends if t1 == lo else _row_ends(s, t1, strict=False)
        lt2 = hi_ends if t2 == hi else _row_ends(s, t2, strict=True)
        if k < _pairs_before(le1):
            lt1 = lt2 if t1 == t2 else _row_ends(s, t1, strict=True)
            if k >= _pairs_before(lt1):
                return t1
            hi, hi_ends = t1, lt1
        elif k >= _pairs_before(lt2):
            le2 = le1 if t1 == t2 else _row_ends(s, t2, strict=False)
            if k < _pairs_before(le2):
                return t2
            lo, lo_ends = t2, le2
        else:
            lo, hi, lo_ends, hi_ends = t1, t2, le1, lt2
        below = _pairs_before(lo_ends)
        inside = _pairs_before(hi_ends) - below
    return _at_ranks(_values_between(s, lo_ends, hi_ends), [k - below])[0]


def _sorted_values(s: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(s[cols] - s[rows])^2`` for pairs of sorted 1-D points, as :func:`_pairwise` computes it."""
    values = s[cols]
    return _difference(s[rows], values, True, values)


def _pairs_before(ends: np.ndarray) -> int:
    """The pairs i < j < ends[i], summed over the rows i."""
    n = len(ends)
    return int(ends.sum()) - n * (n + 1) // 2


def _row_ends(s: np.ndarray, t: float, strict: bool) -> np.ndarray:
    """For each row i of sorted 1-D points ``s``, the first j > i whose value exceeds t, else n.

    With ``strict``, the first whose value reaches ``t``: the pairs i < j <
    ends[i] are those below t rather than at most t.  Each end is guessed
    by a ``searchsorted`` of s_i + sqrt(t), then checked against the
    computed values at the guess and just before it.  A row's values are
    nondecreasing, so a wrong guess is mended by doubling steps until the
    end is bracketed, then halving them: O(log n) vectorised steps whatever
    the guess's error, where steps of one would take one per tied point.
    """
    n = len(s)
    first = np.arange(1, n + 1)
    ends = np.searchsorted(s, s + math.sqrt(t), "left" if strict else "right")
    np.maximum(ends, first, out=ends)
    # A guess is short where the value at it is counted, and long where the
    # value before it is not; j = i, before the row's pairs, counts as
    # counted and j = n as not.
    short = np.flatnonzero(ends < n)
    short = short[_counted(s, short, ends[short], t, strict)]
    long = np.flatnonzero(ends > first)
    long = long[~_counted(s, long, ends[long] - 1, t, strict)]
    if short.size:
        ends[short] = _mended_ends(s, t, strict, short, ends[short], np.full(short.size, n), True)
    if long.size:
        ends[long] = _mended_ends(s, t, strict, long, long.copy(), ends[long] - 1, False)
    return ends


def _mended_ends(s, t, strict, rows, lo, hi, up: bool) -> np.ndarray:
    """The ends of ``rows`` for :func:`_row_ends`, each in (lo, hi].

    The value at lo is counted (or lo is the row itself) and the one at hi
    is not (or hi is n).  Steps of 1, 2, 4, ... go up from lo (or down from
    hi, when not ``up``) until they pass the end; the last step then
    brackets it, and halving that bracket finds it.  A rounding miss is
    one place, which the first step mends; halving all of (lo, hi] would
    take about log2(n) steps for it.
    """
    step, todo = 1, np.arange(len(rows))
    while todo.size:
        probe = lo[todo] + step if up else hi[todo] - step
        inside = probe < hi[todo] if up else probe > lo[todo]
        todo, probe = todo[inside], probe[inside]
        counted = _counted(s, rows[todo], probe, t, strict)
        lo[todo[counted]] = probe[counted]
        hi[todo[~counted]] = probe[~counted]
        todo = todo[counted] if up else todo[~counted]
        step *= 2
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        counted = _counted(s, rows[todo], mid, t, strict)
        lo[todo[counted]] = mid[counted]
        hi[todo[~counted]] = mid[~counted]
        todo = todo[hi[todo] - lo[todo] > 1]
    return hi


def _counted(s: np.ndarray, rows: np.ndarray, cols: np.ndarray, t: float, strict: bool):
    """Whether each pair's value is below ``t`` (``strict``) or at most ``t``."""
    values = _sorted_values(s, rows, cols)
    return values < t if strict else values <= t


def _values_between(s, lo_ends, hi_ends) -> np.ndarray:
    """The values of every pair in the row ranges lo_ends..hi_ends, row by row."""
    widths = hi_ends - lo_ends
    cols = np.repeat(hi_ends - np.cumsum(widths), widths)  # lo_ends less each row's first place
    cols += np.arange(len(cols))
    values = s[cols]
    del cols
    return _difference(np.repeat(s, widths), values, True, values)
