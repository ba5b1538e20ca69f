"""Exact order statistics of the squared distances of 1-D points, in O(n log n) time.

On points sorted into s, the computed squared distances ``(s_j - s_i)^2``
of the pairs i < j are nondecreasing along each row i and nonincreasing
down each column j, because rounding is monotone.  So the pairs at or below
a threshold are a prefix of each row, whose end is found without computing
the row (:func:`_row_ends`), and the pairs between two thresholds are one
range per row.  :mod:`hsictest.kernels` selects the median bandwidth of a
1-D side here, and shares the pair sample's size and the thresholds drawn
from it (:func:`_bracket`) with its passes over points of more coordinates.
"""

from __future__ import annotations

import math

import numpy as np

# The bandwidth's pair sample has this many pairs per square root of the
# pair count: at n = 1000, 5656 pairs, and a bracket holding about 5% of the
# distances.
_SAMPLE_PAIRS_PER_ROOT = 8


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


def _sorted_order_statistics(s: np.ndarray, ranks: list[int], budget: int) -> list[float]:
    """The squared distances of consecutive 0-based ``ranks`` among the pairs of sorted ``s``.

    The first rank is selected by :func:`_sorted_select`, which holds at
    most ``budget`` pair values at once.  Each later rank is the value of
    the one before while more pairs than its rank are at or below that
    value, and otherwise the least value above it: the smallest value at
    the row ends of :func:`_row_ends`.
    """
    values = [_sorted_select(s, ranks[0], budget)]
    for k in ranks[1:]:
        ends = _row_ends(s, values[-1], strict=False)
        if _pairs_before(ends) > k:
            values.append(values[-1])
        else:
            rows = np.flatnonzero(ends < len(s))
            values.append(_sorted_values(s, rows, ends[rows]).min())
    return values


def _sorted_select(s: np.ndarray, k: int, budget: int) -> float:
    """The squared distance of 0-based rank ``k`` among the pairs i < j of sorted 1-D points ``s``.

    Row i's values ``(s_j - s_i)^2``, j > i, are nondecreasing in j, since
    rounding is monotone, so the pairs at or below a threshold are a prefix
    of each row, found by :func:`_row_ends` in O(n log n), and those between
    two thresholds are one range per row.  They are the values that
    ``kernels._pairwise`` computes: a pair's difference is negated exactly,
    whichever point comes first.  The selection keeps an interval (lo, hi) that holds rank k and
    each row's range of pairs inside it, and narrows it while it holds more
    than ``budget`` pairs, as ``kernels._order_statistics`` brackets its
    ranks: the thresholds come from a fixed-seed sample of the pairs inside,
    ``8 * isqrt(p)`` of p pairs but at most n, so a pass costs O(n log n),
    and a rank at a threshold is that threshold.  Each pass drops at least
    one value from the interval; one whose sample is too small for a margin
    takes the sample's estimate of the rank as both thresholds.  The pairs
    left are then built from their row ranges and partitioned, so no more
    than O(n + ``budget``) floats are held.
    """
    n = len(s)
    rng = np.random.default_rng(0)
    lo, hi, lo_ends = -np.inf, np.inf, np.arange(1, n + 1)
    # Every pair is below inf unless the largest value, the first row's
    # last, overflowed.
    if (s[-1] - s[0]) ** 2 < np.inf:
        hi_ends = np.full(n, n)
    else:
        hi_ends = _row_ends(s, np.inf, strict=True)
    below, inside = 0, _pairs_before(hi_ends)
    if k >= inside:
        return np.inf
    while inside > budget:
        sample = _sampled_between(s, lo_ends, hi_ends, inside, rng)
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
    kept = _values_between(s, lo_ends, hi_ends)
    kept.partition(k - below)
    return kept[k - below]


def _sorted_values(s: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(s[cols] - s[rows])^2`` for pairs of 1-D points, as ``kernels._difference`` computes it."""
    values = s[cols]
    values -= s[rows]
    return np.multiply(values, values, out=values)


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


def _sampled_between(s, lo_ends, hi_ends, inside: int, rng) -> np.ndarray:
    """Sorted values of ``min(8 * isqrt(inside), n)`` random pairs of the ``inside`` in the ranges.

    Row i's range is lo_ends[i]..hi_ends[i].  The ranges are laid end to
    end, and a pair is drawn by its position there.
    """
    size = min(len(s), _SAMPLE_PAIRS_PER_ROOT * math.isqrt(inside))
    positions = rng.integers(inside, size=size)
    positions.sort()  # searchsorted runs faster on sorted keys
    ends = np.cumsum(hi_ends - lo_ends)
    rows = np.searchsorted(ends, positions, "right")
    positions -= ends[rows]  # minus the pairs from there to the end of the row's range
    positions += hi_ends[rows]
    sample = _sorted_values(s, rows, positions)
    sample.sort()
    return sample


def _values_between(s, lo_ends, hi_ends) -> np.ndarray:
    """The values of every pair in the row ranges lo_ends..hi_ends, row by row."""
    widths = hi_ends - lo_ends
    cols = np.repeat(lo_ends - (np.cumsum(widths) - widths), widths)
    cols += np.arange(len(cols))
    values = s[cols]
    del cols
    values -= np.repeat(s, widths)  # as in _sorted_values
    return np.multiply(values, values, out=values)
