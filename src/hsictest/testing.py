"""Permutation-based calibration of HSIC statistics.

The null distribution comes from relabeling one side: each side is prepared
once on the observed data by ``hsic.centered_side`` or, as a centered
factor, by ``hsic.gram_free_side`` (median bandwidth, centering and the
scale ``max|HKH|``), and each replicate reindexes the centered y side by a
random permutation.  That is exact, not an approximation: H commutes with
permutation matrices, so reindexing HLH equals recomputing H L_pi H.  Both
tests share one body and report the resolved kernels in ``TestResult``.  That
body takes a list of y kernels: side x is built once, each block of
permutation rows is drawn once and reduced under every y side, and each y
side's result is the one a test of it alone gives, bit for bit.  A power
experiment runs each trial that way for all its y kernels, so a trial
samples, builds x and draws once, not once per y kernel.  A constant side is
centered to exact zero, so its statistic and every replicate are 0 and p = 1
on every path.  Against a side whose Gram is the identity to working
precision every replicate equals the statistic up to roundoff, and is set to
it exactly (:func:`_tied_null`), so p = 1 there too, whatever loops the host
rounds with.

p-values use the add-one estimator (1 + #{T_b >= T_0}) / (B + 1), counting
ties as exceedances; it never returns 0 and stays valid under exchangeability.

Monte Carlo replicates come from one counter-based Philox stream per test, the
cell (seed, STREAM_PERMUTATION, 0) of :mod:`hsictest.rng`: replicate b is the
stable argsort of the stream's raw 64-bit words b*n .. b*n + n - 1.  Replicate b
therefore depends on (seed, n, b) alone, the replicates of a B-permutation test
are a prefix of those of any larger B, and each one is reachable on its own by
``Philox.advance``.  The draw sorts each row once, by packed keys: a word's
high bits with its column index in the low ``(n - 1).bit_length()`` bits.
A row whose high parts repeat, found by an adjacent compare of the sorted
keys, is sorted again by the stable argsort of its full words, so every row
is still exactly the stable argsort.  A non-finite side, observed statistic or
null statistic raises ``ArithmeticError`` rather than yielding a p-value.

The null has two paths, and the observed statistic is always the null's
own function applied to the identity permutation, so the two share one
reduction by construction:

* Factored, from ``TAKE_MIN_N`` on when both sides are numerically low
  rank: each side is a centered factor from ``hsic.gram_free_side``,
  ``Kc ~= Fx' Fx`` and ``Lc ~= Fy' Fy``, and replicate p is
  ``||Fx Fy[:, p]'||_F^2 / n^2`` (the factored form of Zhang, Filippi,
  Gretton & Sejdinovic 2018), one small matrix product per replicate.  No
  Gram is built.  Factoring moves a statistic by roundoff only, as the
  :mod:`hsictest.hsic` docstring shows.  A side over the rank cap of
  ``hsic.gram_free_side``, or nearly constant, sends the test to the dense
  path.
* Dense, below ``TAKE_MIN_N`` and otherwise: replicates are gathered a
  block at a time, by two contiguous ``take``s into one workspace per
  chunk (a column take of the centered y-side Gram, then a row take of
  that), and reduced by one einsum per block, or per replicate where n^2
  exceeds 8192, the elements numpy's einsum buffers.

The path depends on the data alone, never on ``threads``.  From
``TAKE_MIN_N`` points on, a factored test holds nothing that grows with B,
and no n x n array larger than one block of 2^16 floats (512 KB): side x is
factored, and if it factors, so is side y.  A median bandwidth is selected
exactly (``_selection._order_statistics``), from the sorted points by row
counts in O(n) memory for a 1-D side, and in passes over the distances, one
block at a time, otherwise.  Only the dense path holds Grams, one buffer per
side, built with the bandwidths already resolved; with several y kernels,
side x's Gram is built once, and only if a y side does not factor.  The
permutations are never held: each chunk of the null draws its rows one block
at a time (:func:`_draw_rows`) and reduces them at once.  Before a test
starts, and again before a Gram path allocates its Grams, the bytes the path
will hold (its Gram buffers, the gather workspace of each null worker on the
dense path, and the B null statistics of each y side) are checked against
``MEMORY_BUDGET_BYTES``, capped by physical memory; over it, the test raises
``ValueError`` at once instead of running out of memory part-way.

From ``TAKE_MIN_N`` points on, the null also runs on up to ``threads``
threads: the replicates are split into contiguous chunks, each drawing its
own rows, and :func:`_map`, the module's one way to run work on threads,
runs one chunk per thread; a power experiment runs its trials through it
too.  The sides are built on the calling thread.  Every replicate is
computed the same way whatever the chunking, so no number depends on the
thread count.  Every large array (each n x n Gram, and each chunk's block
of rows and its one workspace) is allocated on the calling thread:
allocated on a pool thread, it would come from that thread's own malloc
arena and raise the peak memory.
"""

from __future__ import annotations

import itertools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ._selection import _block_rows
from .datagen import GeneratorSpec, sample
from .hsic import (
    Dataset,
    Estimator,
    HsicValue,
    centered_product,
    centered_side,
    gram_free_side,
)
from .kernels import KernelSpec, _finite
from .rng import (
    RNG_SCHEME,
    SEED_BOUND,
    STREAM_PERMUTATION,
    STREAM_TRIAL_DATA,
    STREAM_TRIAL_TEST,
    derive_seed,
    rng_for,
)

EXHAUSTIVE_MAX_N = 6

# Smallest n whose sides are factored and whose null runs on the test's pool.
# Below it every test takes the dense null on the calling thread.  Moving it
# would move the n = 40 reports pinned by the digests, since a factored null
# differs from the dense one in the last bits.
TAKE_MIN_N = 40

# Each chunk of the null draws its permutations in blocks of rows, and reduces
# each block before it draws the next, so the block and the draw's
# temporaries (words, sorted keys) stay small next to a Gram.  The dense null
# draws blocks of at most 2^13 words (64 KB): at n = 600 a block and its draw
# temporaries add 0.09 of a Gram to the test's peak, against 0.29 in blocks
# of 2^15 words.  From n = 40 to 90, blocks of one gather's rows (n *
# _block_rows(n * n) words) ran slower than blocks of 2^13 words.
_DENSE_DRAW_BLOCK_WORDS = 1 << 13

# The factored null draws blocks of 2^14 words (128 KB): a process running
# n = 1000 `test` commands on 2 threads peaked 1.1 MB lower than with blocks
# of 2^15, as its pool threads kept smaller draw temporaries.  At n = 1000
# and B = 500 the null with its draw took 21.4 ms against 21.6 ms in blocks
# of 2^15 single-threaded (Gaussian y; 10.3 against 10.4 ms, linear y) and
# 17.3 against 15.7 ms on 2 threads (9.7 against 8.5 ms), medians of 60; in
# blocks of 2^13, 26.4 and 15.1 ms single-threaded against 24.8 and 13.2.
_FACTOR_DRAW_BLOCK_WORDS = 1 << 14

# A test whose n x n buffers and null statistics would take more than this
# many bytes, or more than physical memory, is refused before they are
# allocated.
MEMORY_BUDGET_BYTES = 16 << 30


@dataclass(frozen=True)
class PermutationConfig:
    num_permutations: int
    alpha: float
    seed: int

    def __post_init__(self):
        # Stored as plain ints, as ``rng_for`` takes its seed: a float raises
        # ``TypeError`` here rather than inside the null.
        object.__setattr__(self, "num_permutations", operator.index(self.num_permutations))
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.num_permutations < 1:
            raise ValueError("num_permutations must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0 <= self.seed < SEED_BOUND:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class TestResult:
    """A permutation test's outcome; ``kernel_x`` and ``kernel_y`` carry the resolved bandwidths."""

    statistic: HsicValue
    p_value: float
    reject: bool
    null_quantile: float
    num_permutations: int
    seed: int
    alpha: float
    method: str
    rng: str
    kernel_x: KernelSpec
    kernel_y: KernelSpec


def p_value_from_null(observed: float, null_statistics: np.ndarray) -> float:
    """Add-one Monte Carlo p-value; ties count as exceedances."""
    b = len(null_statistics)
    exceedances = int(np.count_nonzero(np.asarray(null_statistics) >= observed))
    return (1 + exceedances) / (b + 1)


def _draw_rows(seed: int, n: int, lo: int, hi: int, block: np.ndarray):
    """Rows ``lo:hi`` of the permutations of range(n) from one Philox stream, a block at a time.

    Row b is the stable argsort of raw 64-bit words b*n .. b*n + n - 1 of the
    (seed, STREAM_PERMUTATION, 0) Philox stream, so it depends on (seed, n, b)
    alone: the rows for ``num`` are a prefix of the rows for any larger
    ``num``, and rows from b on are drawn after ``advance((b * n) // 4)``
    (Philox yields four words per counter step) and ``(b * n) % 4`` words
    discarded.  Uniform 64-bit keys give a uniform permutation; a tie
    (probability about n^2 / 2^65 per row) keeps index order, so it stays
    deterministic.

    The rows are drawn into ``block``, ``len(block)`` rows at a time, and
    each step yields ``(start, rows)``: the rows from ``start`` on, in a view
    of ``block`` that the next step overwrites.  Each block's words are
    sorted by :func:`_argsort_rows`.
    """
    bit_generator = rng_for(seed, STREAM_PERMUTATION, 0).bit_generator
    if lo:
        bit_generator.advance(lo * n // 4)
        bit_generator.random_raw(lo * n % 4)
    for start in range(lo, hi, len(block)):
        rows = block[: min(len(block), hi - start)]
        _argsort_rows(bit_generator.random_raw(rows.shape), rows)
        yield start, rows


def _argsort_rows(words: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = np.argsort(words, axis=1, kind="stable")``, by one sort of packed keys.

    With b the bit length of n - 1, the key of column j is its word with the
    low b bits replaced by j.  Sorting the keys of a row orders it by the
    words' high parts, and the low b bits of the sorted keys are the
    columns.  Where a row's high parts are distinct that is the order of its
    full words, so only rows whose high parts repeat are sorted again, by the
    stable argsort of their words.  Repeats are looked for first by one
    compare over the whole sorted block, which also pairs each row's last
    key with the next row's first; that can only raise a false alarm, and
    the rows are then checked one by one.
    """
    n = words.shape[1]
    b = (n - 1).bit_length()
    low = np.uint64((1 << b) - 1)
    keys = words & ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    np.bitwise_and(keys, low, out=out, casting="unsafe")
    keys >>= b  # the high parts, in place
    flat = keys.ravel()
    if np.any(flat[1:] == flat[:-1]):
        tied = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
        out[tied] = np.argsort(words[tied], axis=1, kind="stable")


def _pool_size(threads: int, tasks: int) -> int:
    """Workers for ``tasks`` independent jobs: ``threads``, capped by tasks and CPUs."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return min(threads, tasks, os.cpu_count() or 1)


def _map(fn: Callable, tasks, workers: int) -> list:
    """``[fn(task) for task in tasks]``, on a pool of ``workers`` threads when that is above 1.

    The one place work leaves the calling thread: one worker runs the tasks
    inline, in order, and starts no thread.
    """
    if workers == 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


class _Rows(NamedTuple):
    """``num`` permutations of range(n) as a stream.

    ``blocks(lo, hi, block)`` yields ``(start, rows)`` for consecutive blocks
    of rows ``lo:hi``, each at most ``len(block)`` rows, held in ``block`` or
    in a view of the permutations themselves.
    """

    num: int
    n: int
    blocks: Callable[[int, int, np.ndarray], Iterator[tuple[int, np.ndarray]]]


def _as_rows(perms) -> _Rows:
    """``perms`` as a stream; a (num, n) array yields its own slices."""
    if isinstance(perms, _Rows):
        return perms

    def blocks(lo: int, hi: int, block: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        for start in range(lo, hi, len(block)):
            yield start, perms[start : min(start + len(block), hi)]

    return _Rows(*perms.shape, blocks)


class _Null(NamedTuple):
    """The null of one y side against side x, a block of permutation rows at a time.

    ``statistics(rows, out, work)`` writes the statistics of ``rows`` to
    ``out``, using ``work``, a flat float workspace of at least
    ``floats(len(rows))`` entries.  ``words`` caps the words of a drawn
    block.  Each replicate's value does not depend on its block.
    """

    statistics: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    floats: Callable[[int], int]
    words: int


def _run_chunks(nulls: list[_Null], perms, workers: int = 1) -> np.ndarray:
    """The statistics of ``perms`` under each of ``nulls``, one row of the result per null.

    ``perms`` is a :class:`_Rows` stream or a (num, n) array.  Its rows are
    split into up to ``workers`` contiguous chunks, which :func:`_map` runs
    one per thread (a lone chunk on the calling thread).  Each chunk takes
    its rows a block at a time, drawn as it goes, at the smallest ``words``
    of the nulls, and reduces each block under every null before it takes
    the next, so the rows are drawn once for all the nulls and no (num, n)
    array is ever held.  Each chunk's block and its one workspace, sized for
    the largest of the nulls, are allocated here, on the calling thread:
    allocating on the pool threads made peak memory depend on how the
    threads' allocations happened to interleave.
    """
    num, n, blocks = _as_rows(perms)
    null = np.empty((len(nulls), num))
    step = max(1, min(side.words for side in nulls) // n)

    def chunk(lo: int, hi: int, block: np.ndarray, work: np.ndarray) -> None:
        for start, rows in blocks(lo, hi, block):
            for side, out in zip(nulls, null):
                side.statistics(rows, out[start : start + len(rows)], work)

    workers = max(1, min(workers, num))
    edges = [num * k // workers for k in range(workers + 1)]
    calls = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        size = min(step, hi - lo)
        work = np.empty(max(side.floats(size) for side in nulls))
        calls.append((lo, hi, np.empty((size, n), dtype=np.intp), work))
    _map(lambda call: chunk(*call), calls, workers)
    return null


def _dense_floats(n: int, rows: int) -> int:
    """Floats of the dense null's workspace for ``rows`` rows: both halves of one gather."""
    return 2 * min(rows, _block_rows(n * n)) * n * n


def _dense_statistics(
    kc: np.ndarray, lc: np.ndarray, perms: np.ndarray, out: np.ndarray, work: np.ndarray
) -> None:
    """``out[b] = sum(kc * lc[p, p]) / n^2`` for each row p of ``perms``.

    Blocks of b = ``_block_rows(n^2)`` rows are gathered by two contiguous
    ``take``s into ``work``: ``lc.take(p, axis=1)``, of shape (n, b, n),
    then its rows ``p * b + arange(b)[:, None]``, built for each block,
    which give ``lc[p[:, :, None], p[:, None, :]]`` bit for bit.  A block
    of one row is taken rows first, which needs no indices and ran
    1.1-1.3x faster at n = 1000 to 1500.  While n^2 <= 8192, the
    elements numpy's einsum buffers, one einsum reduces a block and sums
    each replicate as ``einsum("ij,ij->")`` does; above that they sum in
    different orders, so each replicate is reduced alone.  A replicate's
    value never depends on its block or its thread.

    As separate allocations, or as one workspace of half the size, the two
    halves were returned to the system after every test of a two-thread
    ``reproduce-ring --n 8``: about 50 000 and 9 200 page faults per
    command, against 8 in one 1 MB workspace.
    """
    n, num = lc.shape[0], len(perms)
    block = _block_rows(n * n)
    for lo in range(0, num, block):
        p = perms[lo : lo + block]
        b = len(p)
        cols = work[: n * b * n].reshape(n * b, n)  # (n, b, n), as rows
        both = work[n * b * n : 2 * n * b * n].reshape(b, n, n)
        # The indices are a permutation, so mode="clip" changes no value; it
        # only lets ``take`` write into ``work`` without an extra buffered copy.
        if b == 1:
            lc.take(p[0], axis=0, out=cols, mode="clip")
            cols.take(p[0], axis=1, out=both[0], mode="clip")
        else:
            lc.take(p, axis=1, out=cols.reshape(n, b, n), mode="clip")
            cols.take(p * b + np.arange(b)[:, None], axis=0, out=both, mode="clip")
        # Not np.getbufsize(): einsum ignores it, and it is set per thread.
        if n * n <= 8192:
            out[lo : lo + b] = np.einsum("ij,bij->b", kc, both)
        else:
            for j in range(b):
                out[lo + j] = np.einsum("ij,ij->", kc, both[j])
    out /= n * n


def _dense_null(kc: np.ndarray, lc: np.ndarray) -> _Null:
    """The null of centered Grams, for any number of points."""
    n = lc.shape[0]
    statistics = partial(_dense_statistics, kc, lc)
    return _Null(statistics, partial(_dense_floats, n), _DENSE_DRAW_BLOCK_WORDS)


def _tied_null(kc: np.ndarray, lc: np.ndarray) -> _Null:
    """The null against a side whose Gram is the identity: each replicate is the observed statistic.

    Then ``Kc = H`` (or ``Lc = H``) to working precision, and ``tr(H Lc_p)``
    is ``tr(Lc)`` for every permutation p, so the replicates differ from the
    observed statistic only by roundoff.  Each is set to it exactly, as a
    constant side's are all exactly 0, so the p-value is 1 on any host.
    """
    observed = centered_product(kc, lc)
    fill = lambda rows, out, work: out.fill(observed)  # noqa: E731
    return _Null(fill, lambda rows: 0, _DENSE_DRAW_BLOCK_WORDS)


def _factored_statistics(
    fx: np.ndarray, fy_cols: np.ndarray, perms: np.ndarray, out: np.ndarray, work: np.ndarray
) -> None:
    """``out[b] = ||Fx Fy[:, p]'||_F^2 / n^2`` for each row p of ``perms``.

    ``fy_cols`` holds the columns of Fy as rows.  Each replicate is one
    (rx x n) @ (n x ry) product of a stacked ``matmul`` and its own row of
    one batched sum of squares, so its value does not depend on the block
    it falls in.
    """
    (rx, n), ry = fx.shape, fy_cols.shape[1]
    block = _block_rows(n * max(ry, 1))
    gathered = min(block, len(perms)) * n * ry  # then the products
    for lo in range(0, len(perms), block):
        hi = min(lo + block, len(perms))
        g = work[: (hi - lo) * n * ry].reshape(hi - lo, n, ry)
        np.take(fy_cols, perms[lo:hi], axis=0, out=g, mode="clip")
        products = work[gathered : gathered + (hi - lo) * rx * ry]
        m = np.matmul(fx, g, out=products.reshape(hi - lo, rx, ry))
        out[lo:hi] = np.einsum("bij,bij->b", m, m)
    out /= n * n


def _factored_null(fx: np.ndarray, fy: np.ndarray) -> _Null:
    """The null of centered factors, ``Kc ~= Fx' Fx`` and ``Lc ~= Fy' Fy``."""
    (rx, n), ry = fx.shape, fy.shape[0]
    return _Null(
        partial(_factored_statistics, fx, np.ascontiguousarray(fy.T)),
        lambda size: min(size, _block_rows(n * max(ry, 1))) * (n * ry + rx * ry),
        _FACTOR_DRAW_BLOCK_WORDS,
    )


def _memory_budget() -> int:
    """``MEMORY_BUDGET_BYTES``, or physical memory where that is smaller."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return MEMORY_BUDGET_BYTES
    return min(MEMORY_BUDGET_BYTES, physical)


def _check_memory(n: int, grams: int, held: int) -> None:
    """Refuse a test whose ``grams`` n x n float buffers would exceed the budget.

    The estimate adds ``held`` bytes: the null statistics, and on the dense
    path the null's workspaces.  It is checked before the buffers are
    allocated, so an oversized test fails at once with ``ValueError``
    rather than later with ``MemoryError``.
    """
    need = 8 * grams * n * n + held
    budget = _memory_budget()
    if need > budget:
        raise ValueError(
            f"a test of {n} points would hold about {need / 2**20:.1f} MiB, "
            f"over the memory budget of {budget / 2**20:.1f} MiB"
        )


def _null_function(
    data: Dataset, kx: KernelSpec, kys, workers: int = 1, held: int = 0
) -> tuple[KernelSpec, list[KernelSpec], list[float], list[_Null]]:
    """Both sides and the nulls their ranks choose: ``(kx, kys, scales, nulls)``.

    The kernels come back resolved, and each y side's ``scale`` is
    ``max|Kc| * max|Lc|``.  From ``TAKE_MIN_N`` points on, side x is built
    as a centered factor (:func:`hsic.gram_free_side`); if it factors, so is
    each y side, and a y side that factors takes x's factor.  If any y side
    does not, or below ``TAKE_MIN_N``, side x's centered Gram is built once
    as well, and each such y side into a Gram buffer of its own, with any
    bandwidth already resolved, after those Grams and the dense null's
    largest workspace for each of ``workers`` chunks, with ``held`` bytes
    already in use, are checked against the memory budget.  Each side is
    the one a test of that y side alone builds, so each null is too.
    """
    n, kys = data.n, list(kys)
    nulls, scales = [None] * len(kys), [0.0] * len(kys)
    if n >= TAKE_MIN_N:
        kx, fx, x_scale = gram_free_side(kx, data.x_points)
        for i, ky in enumerate(kys if fx is not None else ()):
            kys[i], fy, y_scale = gram_free_side(ky, data.y_points)
            if fy is not None:
                nulls[i], scales[i] = _factored_null(fx, fy), x_scale * y_scale
        del fx  # not held into the dense nulls unless a factored null holds it
    dense = [i for i, null in enumerate(nulls) if null is None]
    if dense:
        work = workers * _dense_floats(n, _block_rows(n * n))
        _check_memory(n, 1 + len(dense), held + 8 * work)
        kx, kc, kc_max, x_tied = centered_side(kx, data.x_points)
        for i in dense:
            kys[i], lc, lc_max, y_tied = centered_side(kys[i], data.y_points)
            null = _tied_null(kc, lc) if x_tied or y_tied else _dense_null(kc, lc)
            nulls[i], scales[i] = null, kc_max * lc_max
    return kx, kys, scales, nulls


def _replicates(data: Dataset, kx: KernelSpec, kys, perms: _Rows, threads: int = 1):
    """``(kx, kys, observed, null)``: the statistics of ``data`` and their nulls over ``perms``.

    The kernels come back resolved, with one observed ``HsicValue`` and one
    row of ``null`` per y kernel of ``kys``.  Each side is resolved and
    centered once, on the unpermuted data, and is frozen across replicates;
    the marginal point sets are permutation invariant anyway.  Side x and
    each block of rows of ``perms`` serve every y side, so each y side's
    values are the ones a test of it alone gives.  From ``TAKE_MIN_N``
    points on, with ``threads`` above 1, the null's chunks, each drawing its
    own rows of ``perms``, run on the test's pool.  The observed value is
    the null function at the identity permutation, so an identity replicate
    reproduces it bitwise on every path.  Fewer than 2 points, or null
    statistics over the memory budget, are refused before any side is built.
    """
    if data.n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    held = 8 * perms.num * len(kys)
    _check_memory(data.n, 0, held)
    workers = _pool_size(threads, perms.num if data.n >= TAKE_MIN_N else 1)
    kx, kys, scales, nulls = _null_function(data, kx, kys, workers, held)
    identity = np.arange(data.n, dtype=np.intp)[None, :]
    observed = [
        HsicValue.from_raw(raw, Estimator.BIASED_V, scale)
        for raw, scale in zip(_run_chunks(nulls, identity)[:, 0], scales)
    ]
    null = _run_chunks(nulls, perms, workers)
    # A NaN null statistic would count as no exceedance and pull p toward
    # 1/(B+1); the observed value is checked when its HsicValue is built.
    return kx, kys, observed, _finite(null)


def _results(
    kx, kys, observed, null, alpha: float, p_value, *, seed: int, method: str, rng: str
) -> list[TestResult]:
    """A ``TestResult`` per y side of :func:`_replicates`, by ``p_value(observed, null)``."""
    results = []
    for ky, statistic, replicates in zip(kys, observed, null):
        p = p_value(statistic.raw, replicates)
        results.append(TestResult(
            statistic=statistic,
            p_value=p,
            reject=p <= alpha,
            null_quantile=float(np.quantile(replicates, 1.0 - alpha)),
            num_permutations=len(replicates),
            seed=seed,
            alpha=alpha,
            method=method,
            rng=rng,
            kernel_x=kx,
            kernel_y=ky,
        ))
    return results


def _monte_carlo(data: Dataset, kx: KernelSpec, kys, cfg: PermutationConfig, threads: int = 1):
    """:func:`_replicates` of ``data`` under each y kernel of ``kys``, on one draw of ``cfg``."""
    perms = _Rows(cfg.num_permutations, data.n, partial(_draw_rows, cfg.seed, data.n))
    return _replicates(data, kx, kys, perms, threads)


def permutation_test(
    data: Dataset,
    kx: KernelSpec,
    ky: KernelSpec,
    cfg: PermutationConfig,
    threads: int = 1,
) -> TestResult:
    """Monte Carlo permutation test of independence using biased HSIC.

    ``threads`` bounds the one worker pool that runs the null statistics,
    each chunk drawing its own permutations; the result does not depend on
    it.  A test too large for the memory budget raises
    ``ValueError`` before it allocates a Gram.
    """
    return _results(
        *_monte_carlo(data, kx, [ky], cfg, threads), cfg.alpha, p_value_from_null,
        seed=cfg.seed, method="monte_carlo", rng=RNG_SCHEME,
    )[0]


def _exact_p_value(observed: float, null: np.ndarray) -> float:
    return int(np.count_nonzero(null >= observed)) / len(null)


def exhaustive_permutation_test(
    data: Dataset, kx: KernelSpec, ky: KernelSpec, alpha: float
) -> TestResult:
    """Exact permutation test enumerating all n! relabelings (n <= 6).

    The p-value is #{pi : T_pi >= T_0} / n! over the full symmetric group
    (the identity is included, so p >= 1/n!); the Monte Carlo estimator
    converges to this value as the replicate count grows.
    """
    n = data.n
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {EXHAUSTIVE_MAX_N}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    perms = _as_rows(np.array(list(itertools.permutations(range(n))), dtype=np.intp))
    return _results(
        *_replicates(data, kx, [ky], perms), alpha, _exact_p_value,
        seed=0, method="exhaustive", rng="exhaustive enumeration (no randomness)",
    )[0]


@dataclass(frozen=True)
class PowerResult:
    rejection_rate: float
    trials: int
    p_values: tuple[float, ...]
    alpha: float


def power_experiment(
    sampler: GeneratorSpec,
    kx: KernelSpec,
    kys,
    cfg: PermutationConfig,
    num_trials: int,
    n: int,
    threads: int = 1,
) -> list[PowerResult]:
    """Rejection rate of the permutation test over sampler draws, one result per y kernel.

    Trial t is fully determined by (cfg.seed, t): its dataset seed and its
    permutation seed are both derived from that pair, so results are
    identical whatever the thread count.  Each trial samples once, builds
    side x once and draws its permutations once for all of ``kys``, so the
    result for each y kernel is the one a run of that kernel alone gives.
    """
    kys = list(kys)
    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")
    if not kys:
        raise ValueError("power_experiment needs at least one y kernel")
    workers = _pool_size(threads, num_trials)

    def one_trial(t: int) -> list[float]:
        # A trial keeps only the p-values: no null quantile or TestResult.
        data_spec = replace(sampler, seed=derive_seed(cfg.seed, STREAM_TRIAL_DATA, t))
        trial_cfg = replace(cfg, seed=derive_seed(cfg.seed, STREAM_TRIAL_TEST, t))
        *_, observed, null = _monte_carlo(sample(data_spec, n), kx, kys, trial_cfg)
        return [p_value_from_null(s.raw, replicates) for s, replicates in zip(observed, null)]

    trials = _map(one_trial, range(num_trials), workers)
    return [
        PowerResult(
            rejection_rate=sum(p <= cfg.alpha for p in p_values) / num_trials,
            trials=num_trials,
            p_values=p_values,
            alpha=cfg.alpha,
        )
        for p_values in zip(*trials)
    ]
