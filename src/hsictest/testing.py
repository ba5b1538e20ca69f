"""Permutation-based calibration of HSIC statistics.

The null distribution comes from relabeling one side: each side is prepared
once on the observed data by ``hsic.centered_side`` (median bandwidth, Gram,
centering and the scale ``max|HKH|``), and each replicate reindexes the
centered y-side matrix by a random permutation.  That is exact, not an
approximation: H commutes with permutation matrices, so reindexing HLH equals
recomputing H L_pi H.  Both tests share one body and report the resolved
kernels in ``TestResult``.  A constant side is centered to exact zero, so its
statistic and every replicate are 0 and p = 1 on every path.

p-values use the add-one estimator (1 + #{T_b >= T_0}) / (B + 1), counting
ties as exceedances; it never returns 0 and stays valid under exchangeability.

Monte Carlo replicates come from one counter-based Philox stream per test, the
cell (seed, STREAM_PERMUTATION, 0) of :mod:`hsictest.rng`: replicate b is the
stable argsort of the stream's raw 64-bit words b*n .. b*n + n - 1.  Replicate b
therefore depends on (seed, n, b) alone, the replicates of a B-permutation test
are a prefix of those of any larger B, and each one is reachable on its own by
``Philox.advance``.  The draw sorts with numpy's faster default (unstable)
argsort and repairs ties: a row whose keys repeat a value, found by one sort
of the keys and an adjacent compare, is sorted again stably, so every row is
still exactly the stable argsort.  A non-finite observed or null statistic
raises ``ArithmeticError`` rather than yielding a p-value.

The null has three paths, and the observed statistic is always the null's
own function applied to the identity permutation, so the two share one
reduction by construction:

* Batched, below ``TAKE_MIN_N`` points: a batch of replicates is gathered at
  once by 3-D fancy indexing and reduced by one einsum, since per-replicate
  Python overhead dominates tiny Grams.
* Factored, from ``TAKE_MIN_N`` on when both centered Grams are numerically
  low rank: each is factored by pivoted incomplete Cholesky (Bach & Jordan
  2002), ``Kc ~= Fx Fx'`` and ``Lc ~= Fy Fy'``, and replicate p is
  ``||Fx' Fy[p]||_F^2 / n^2`` (the factored form of Zhang, Filippi, Gretton &
  Sejdinovic 2018), one small matrix product per replicate.  Factoring stops
  once no residual diagonal exceeds ``n * eps * max|entry|``, where
  ``max|entry|`` is the scale ``centered_side`` returned with the Gram.  The
  residual R is positive semidefinite with trace at most ``n^2 * eps *
  max|entry|``, and ``|tr(R M)| <= tr(R) * ||M||_2`` with ``||Lc||_2 <= n *
  max|Lc|``, so each side moves every replicate by at most ``n * eps * scale``
  (``scale = max|Kc| * max|Lc|``), about ``2 * n * eps * scale`` for both:
  roundoff, not approximation.  A side needing more than
  ``FACTOR_RANK_CAP_PER_ROOT * isqrt(n)`` pivots is not low rank enough for
  factoring to pay, and the test takes the dense path.
* Dense, from ``TAKE_MIN_N`` on otherwise: each replicate is a row ``take``
  then a column ``take`` of the centered y-side Gram, reduced by
  ``hsic.centered_product``.

The path depends on the data alone, never on ``threads``.  From
``TAKE_MIN_N`` points on, a test runs on one thread pool of up to ``threads``
workers: the two sides and the draw are prepared as concurrent jobs, then the
replicates of the two per-replicate paths are split into contiguous chunks on
the same pool.  Every replicate is computed the same way whatever the
chunking, so no number depends on the thread count.  Every large array (each
n x n Gram, each median buffer, the permutations and the chunks' buffers) is
allocated on the calling thread and filled in place by the pool: allocated on
a pool thread, it would come from that thread's own malloc arena and raise
the peak memory.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .datagen import GeneratorSpec, sample
from .hsic import Dataset, Estimator, HsicValue, centered_product, centered_side
from .kernels import KernelSpec
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

# Below TAKE_MIN_N points, permuted statistics are evaluated in batches
# bounded by this many floats.
_BATCH_FLOAT_BUDGET = 4_000_000

# Smallest n whose null runs one replicate at a time by row-then-column take.
# Measured single-threaded per replicate (numpy 2.4, 2-vCPU x86-64 VM):
# batched gather vs take/take, 0.34 vs 3.1 us at n=8, 7.2 vs 8.2 us at n=32,
# 8.9 vs 8.8 us at n=36, 11 vs 10 us at n=40, 20 vs 10 us at n=64 and
# 6.5 vs 2.8 ms at n=1000.
TAKE_MIN_N = 40

# The factored null gathers the permuted y-side factor in blocks of at most
# this many floats (512 KB) per worker; at n=1000 and rank 12, blocks of
# 2^16 floats ran the null 1.2x faster than 2^18 and 1.8x faster than 2^20.
_FACTOR_BLOCK_FLOATS = 1 << 16

# Permutations are drawn in blocks of rows of at most this many words (256 KB),
# so the draw's temporaries (words, their argsort and their sort) stay small
# next to the Grams it runs beside.  At n=1000 and B=500 the draw took about
# as long in blocks of 2^15 words as in blocks of 2^16.
_DRAW_BLOCK_WORDS = 1 << 15

_EPS = float(np.finfo(float).eps)

# A side whose centered Gram needs more than FACTOR_RANK_CAP_PER_ROOT *
# isqrt(n) pivots stays dense.  Measured single-threaded per replicate
# (numpy 2.4, OpenBLAS 0.3.31, 2-vCPU x86-64 VM), both sides of rank r,
# factored vs dense take: n=64, 4.0 us at r=32 and 14.5 us at r=64 vs 10 us;
# n=200, 51 us at r=64 and 126 us at r=96 vs 98 us; n=1000, 1.0 ms at r=128
# and 3.1 ms at r=256 vs 3.7 ms.  Factoring stops winning near 6*sqrt(n) up
# to n=500 (later beyond), so the cap 4*isqrt(n) keeps it about 2x ahead.
FACTOR_RANK_CAP_PER_ROOT = 4


@dataclass(frozen=True)
class PermutationConfig:
    num_permutations: int
    alpha: float
    seed: int

    def __post_init__(self):
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


def _draw_permutations(seed: int, num: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """num permutations of range(n) drawn from one Philox stream, into ``out``.

    Row b is the stable argsort of raw 64-bit words b*n .. b*n + n - 1 of the
    (seed, STREAM_PERMUTATION, 0) Philox stream, so it depends on (seed, n, b)
    alone: the rows for ``num`` are a prefix of the rows for any larger
    ``num``, and row b can be drawn by itself after ``advance((b * n) // 4)``
    (Philox yields four words per counter step).  Uniform 64-bit keys give a
    uniform permutation; a tie (probability about n^2 / 2^65 per row) keeps
    index order, so it stays deterministic.

    ``out`` is a (num, n) intp buffer the caller owns (a new one when None).
    The words are drawn in blocks of rows of at most ``_DRAW_BLOCK_WORDS``
    words, and each block is sorted by :func:`_argsort_rows`.
    """
    perms = np.empty((num, n), dtype=np.intp) if out is None else out
    bit_generator = rng_for(seed, STREAM_PERMUTATION, 0).bit_generator
    rows = max(1, _DRAW_BLOCK_WORDS // n)
    for lo in range(0, num, rows):
        hi = min(lo + rows, num)
        _argsort_rows(bit_generator.random_raw((hi - lo, n)), perms[lo:hi])
    return perms


def _argsort_rows(words: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = np.argsort(words, axis=1, kind="stable")``, by the faster default sort.

    Without tied keys in a row every sort orders it the same way, so only the
    rows whose sorted keys repeat a value are sorted again, stably.  Ties are
    looked for first by one compare over the whole sorted block, which also
    pairs each row's last key with the next row's first; that can only raise
    a false alarm, and the rows are then checked one by one.
    """
    out[:] = np.argsort(words, axis=1)
    keys = np.sort(words, axis=1)
    flat = keys.ravel()
    if np.any(flat[1:] == flat[:-1]):
        tied = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
        out[tied] = np.argsort(words[tied], axis=1, kind="stable")


def _pool_size(threads: int, tasks: int) -> int:
    """Workers for ``tasks`` independent jobs: ``threads``, capped by tasks and CPUs."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return min(threads, tasks, os.cpu_count() or 1)


def _run_chunks(run, num: int, pool, workers: int, buffers) -> None:
    """``run(chunk, *buffers())`` over ``workers`` contiguous chunks of range(num), on ``pool``.

    A lone chunk runs on the calling thread, and ``pool`` may then be None.
    Each chunk's buffers are allocated here, on the calling thread: allocating
    on the pool threads made peak memory depend on how the threads'
    allocations happened to interleave.
    """
    chunks = np.array_split(np.arange(num), workers)
    allocated = [buffers() for _ in chunks]
    if workers == 1:
        run(chunks[0], *allocated[0])
    else:
        list(pool.map(run, chunks, *zip(*allocated)))


def _permuted_statistics(
    kc: np.ndarray, lc: np.ndarray, perms: np.ndarray, pool=None, workers: int = 1
) -> np.ndarray:
    """V-statistics for each permutation: sum(Kc * Lc[p, p]) / n^2.

    From ``TAKE_MIN_N`` points on, the replicates run in ``workers`` chunks
    on ``pool`` (see :func:`_run_chunks`).
    """
    num, n = perms.shape
    out = np.empty(num)
    if n < TAKE_MIN_N:
        batch = max(1, _BATCH_FLOAT_BUDGET // (n * n))
        for start in range(0, num, batch):
            p = perms[start : start + batch]
            gathered = lc[p[:, :, None], p[:, None, :]]
            out[start : start + batch] = np.einsum("ij,bij->b", kc, gathered)
        out /= n * n
        return out

    # The indices are a permutation, so mode="clip" changes no value; it
    # only lets ``take`` write into ``out`` without an extra buffered copy.
    def run(chunk: np.ndarray, rows: np.ndarray, both: np.ndarray) -> None:
        for b in chunk:
            p = perms[b]
            lc.take(p, axis=0, out=rows, mode="clip")
            rows.take(p, axis=1, out=both, mode="clip")
            out[b] = centered_product(kc, both)

    _run_chunks(run, num, pool, workers, lambda: (np.empty((n, n)), np.empty((n, n))))
    return out


def _pivoted_cholesky(a: np.ndarray, max_abs: float, cap: int) -> np.ndarray | None:
    """Rows of F with ``a ~= F' F``, or None if that takes more than ``cap`` rows.

    Greedy pivoted incomplete Cholesky of a positive semidefinite ``a``: each
    step takes the column of ``a`` at the largest residual diagonal, and the
    factor is complete once no residual diagonal exceeds
    ``n * eps * max_abs``.  Updates are elementwise, in a fixed order, so equal
    rows of ``a`` (repeated points) get bitwise-equal factor columns and keep
    their exact null ties.
    """
    if not math.isfinite(max_abs):
        return None  # the dense path reports the overflow
    n = a.shape[0]
    floor = n * _EPS * max_abs
    residual = a.diagonal().copy()
    rows = np.empty((cap, n))
    for k in range(cap + 1):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= floor:
            return rows[:k].copy()
        if k == cap:
            break
        col = a[:, pivot] - (rows[:k] * rows[:k, pivot, None]).sum(axis=0)
        col /= math.sqrt(residual[pivot])
        rows[k] = col
        residual -= col * col
    return None


def _factored_statistics(
    fx: np.ndarray, fy: np.ndarray, perms: np.ndarray, pool=None, workers: int = 1
) -> np.ndarray:
    """``||Fx' Fy[p]||_F^2 / n^2`` for each permutation p, from factor rows fx, fy.

    Each replicate is one (rx x n) @ (n x ry) product of a stacked ``matmul``
    and its own row of one batched sum of squares, so its value does not
    depend on the block or the chunk of ``pool`` it falls in.
    """
    num, n = perms.shape
    fy_cols = np.ascontiguousarray(fy.T)
    rx, ry = fx.shape[0], fy.shape[0]
    block = max(1, _FACTOR_BLOCK_FLOATS // (n * max(ry, 1)))
    out = np.empty(num)

    def run(chunk: np.ndarray, gathered: np.ndarray, products: np.ndarray) -> None:
        stop = chunk[-1] + 1
        for lo in range(chunk[0], stop, block):
            hi = min(lo + block, stop)
            g = gathered[: hi - lo]
            np.take(fy_cols, perms[lo:hi], axis=0, out=g, mode="clip")
            m = np.matmul(fx, g, out=products[: hi - lo])
            out[lo:hi] = np.einsum("bij,bij->b", m, m)

    size = min(block, -(-num // workers))
    _run_chunks(
        run, num, pool, workers, lambda: (np.empty((size, n, ry)), np.empty((size, rx, ry)))
    )
    out /= n * n
    return out


def _null_function(kc: np.ndarray, lc: np.ndarray, kc_max: float, lc_max: float):
    """``statistics(perms, pool=None, workers=1)`` for two centered Grams, on their ranks' path."""
    n = kc.shape[0]
    if n >= TAKE_MIN_N:
        cap = FACTOR_RANK_CAP_PER_ROOT * math.isqrt(n)
        fx = _pivoted_cholesky(kc, kc_max, cap)
        fy = None if fx is None else _pivoted_cholesky(lc, lc_max, cap)
        if fy is not None:
            return partial(_factored_statistics, fx, fy)
    return partial(_permuted_statistics, kc, lc)


def _check_finite(null: np.ndarray) -> None:
    # A NaN null statistic never counts as an exceedance, so it would pull p
    # toward 1/(B+1), a confident wrong rejection.  The observed value is
    # checked when its HsicValue is built.
    if not np.isfinite(null).all():
        raise ArithmeticError(
            "non-finite HSIC statistic: the kernel values overflowed or are undefined"
        )


def _results(pool, jobs) -> list:
    """``fn(*args)`` for each ``(fn, *args)`` of ``jobs``, concurrently on ``pool`` if there is one.

    Results, and the first exception, come back in job order either way.
    No job's arguments outlive this call, so buffers built by a generator of
    jobs are freed with the jobs.
    """
    if pool is None:
        return [fn(*args) for fn, *args in jobs]
    futures = [pool.submit(*job) for job in jobs]
    return [future.result() for future in futures]


def _jobs(data: Dataset, kx: KernelSpec, ky: KernelSpec, draw):
    """The ``centered_side`` job of each side, then ``draw``'s if there is one.

    The jobs may run on pool threads.  Allocated there, the n x n Gram and
    the median buffer of a side would come from that thread's own malloc
    arena, which grew the peak memory of a pooled test; each job's buffers
    are allocated here instead, as the job is built.
    """
    n = data.n
    for spec, points in ((kx, data.x_points), (ky, data.y_points)):
        scratch = None if spec.is_resolved else np.empty(n * (n - 1) // 2)
        yield centered_side, spec, points, np.empty((n, n)), scratch
    if draw is not None:
        yield (draw,)


def _calibrated(
    data: Dataset,
    kx: KernelSpec,
    ky: KernelSpec,
    perms: np.ndarray,
    alpha: float,
    p_value,
    *,
    draw=None,
    seed: int,
    method: str,
    rng: str,
    threads: int = 1,
) -> TestResult:
    """The result of a test of ``data`` over the null of ``perms``, with ``p_value(observed, null)``.

    ``draw()``, when given, fills ``perms`` in place.  Each side is resolved
    and centered once, on the unpermuted data, and is frozen across
    replicates; the marginal point sets are permutation invariant anyway.
    From ``TAKE_MIN_N`` points on, with ``threads`` above 1, the two sides
    and the draw run as concurrent jobs on one pool, whose workers then run
    the null's chunks.  The observed value is the null function at the
    identity permutation, so an identity replicate reproduces it bitwise on
    every path.
    """
    num = len(perms)
    workers = _pool_size(threads, num)
    size = _pool_size(threads, max(3, num)) if data.n >= TAKE_MIN_N else 1
    with ThreadPoolExecutor(max_workers=size) if size > 1 else nullcontext() as pool:
        (kx, kc, kc_max), (ky, lc, lc_max), *_ = _results(pool, _jobs(data, kx, ky, draw))
        statistics = _null_function(kc, lc, kc_max, lc_max)
        identity = np.arange(data.n, dtype=np.intp)[None, :]
        observed = HsicValue.from_raw(
            statistics(identity)[0], Estimator.BIASED_V, kc_max * lc_max
        )
        null = statistics(perms, pool, workers)
    _check_finite(null)
    p = p_value(observed.raw, null)
    return TestResult(
        statistic=observed,
        p_value=p,
        reject=p <= alpha,
        null_quantile=float(np.quantile(null, 1.0 - alpha)),
        num_permutations=num,
        seed=seed,
        alpha=alpha,
        method=method,
        rng=rng,
        kernel_x=kx,
        kernel_y=ky,
    )


def permutation_test(
    data: Dataset,
    kx: KernelSpec,
    ky: KernelSpec,
    cfg: PermutationConfig,
    threads: int = 1,
) -> TestResult:
    """Monte Carlo permutation test of independence using biased HSIC.

    ``threads`` bounds the one worker pool that prepares the two sides,
    draws the permutations and runs the null statistics; the result does
    not depend on it.
    """
    if data.n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    perms = np.empty((cfg.num_permutations, data.n), dtype=np.intp)
    return _calibrated(
        data, kx, ky, perms, cfg.alpha, p_value_from_null,
        draw=partial(_draw_permutations, cfg.seed, *perms.shape, perms),
        seed=cfg.seed, method="monte_carlo", rng=RNG_SCHEME, threads=threads,
    )


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
    if n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {EXHAUSTIVE_MAX_N}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return _calibrated(
        data, kx, ky, perms, alpha, _exact_p_value,
        seed=0, method="exhaustive", rng="exhaustive enumeration (no randomness)",
    )


@dataclass(frozen=True)
class PowerResult:
    rejection_rate: float
    trials: int
    p_values: tuple[float, ...]
    alpha: float


def power_experiment(
    sampler: GeneratorSpec,
    kx: KernelSpec,
    ky: KernelSpec,
    cfg: PermutationConfig,
    num_trials: int,
    n: int,
    threads: int = 1,
) -> PowerResult:
    """Rejection rate of the permutation test over independent sampler draws.

    Trial t is fully determined by (cfg.seed, t): its dataset seed and its
    permutation seed are both derived from that pair, so results are
    identical whatever the thread count.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")
    workers = _pool_size(threads, num_trials)

    def one_trial(t: int) -> float:
        data_spec = replace(sampler, seed=derive_seed(cfg.seed, STREAM_TRIAL_DATA, t))
        trial_cfg = replace(cfg, seed=derive_seed(cfg.seed, STREAM_TRIAL_TEST, t))
        return permutation_test(sample(data_spec, n), kx, ky, trial_cfg).p_value

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            p_values = tuple(pool.map(one_trial, range(num_trials)))
    else:
        p_values = tuple(one_trial(t) for t in range(num_trials))
    rate = sum(p <= cfg.alpha for p in p_values) / num_trials
    return PowerResult(
        rejection_rate=rate, trials=num_trials, p_values=p_values, alpha=cfg.alpha
    )
