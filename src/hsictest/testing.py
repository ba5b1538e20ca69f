"""Permutation-based calibration of HSIC statistics.

The null distribution comes from relabeling one side: Gram matrices and
median-heuristic bandwidths are computed once on the observed data, and each
replicate reindexes the centered y-side matrix by a random permutation.  That
is exact, not an approximation: H commutes with permutation matrices, so
reindexing HLH equals recomputing H L_pi H.

p-values use the add-one estimator (1 + #{T_b >= T_0}) / (B + 1), counting
ties as exceedances; it never returns 0 and stays valid under exchangeability.

Monte Carlo replicates come from one counter-based Philox stream per test, the
cell (seed, STREAM_PERMUTATION, 0) of :mod:`hsictest.rng`: replicate b is the
stable argsort of the stream's raw 64-bit words b*n .. b*n + n - 1.  Replicate b
therefore depends on (seed, n, b) alone, the replicates of a B-permutation test
are a prefix of those of any larger B, and each one is reachable on its own by
``Philox.advance``.  A non-finite observed or null statistic raises
``ArithmeticError`` rather than yielding a p-value.

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
  once no residual diagonal exceeds ``n * eps * max|entry|``.  The residual
  R is positive semidefinite with trace at most ``n^2 * eps * max|entry|``,
  and ``|tr(R M)| <= tr(R) * ||M||_2`` with ``||Lc||_2 <= n * max|Lc|``, so
  each side moves every replicate by at most ``n * eps * scale`` (``scale =
  max|Kc| * max|Lc|``), about ``2 * n * eps * scale`` for both: roundoff, not
  approximation.  A side needing more than ``FACTOR_RANK_CAP_PER_ROOT *
  isqrt(n)`` pivots is not low rank enough for factoring to pay, and the
  test takes the dense path.
* Dense, from ``TAKE_MIN_N`` on otherwise: each replicate is a row ``take``
  then a column ``take`` of the centered y-side Gram, reduced by
  ``hsic.centered_product``.

The path depends on the data alone, never on ``threads``.  On the two
per-replicate paths the replicates are split into contiguous chunks run on a
thread pool of up to ``threads`` workers; every replicate is computed the same
way whatever the chunking, so the null does not depend on the thread count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .datagen import GeneratorSpec, sample
from .hsic import Dataset, Estimator, HsicValue, centered_gram_entries, centered_product
from .kernels import KernelSpec, resolve_bandwidth
from .rng import (
    RNG_SCHEME,
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
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class TestResult:
    statistic: HsicValue
    p_value: float
    reject: bool
    null_quantile: float
    num_permutations: int
    seed: int
    alpha: float
    method: str
    rng: str


def p_value_from_null(observed: float, null_statistics: np.ndarray) -> float:
    """Add-one Monte Carlo p-value; ties count as exceedances."""
    b = len(null_statistics)
    exceedances = int(np.count_nonzero(np.asarray(null_statistics) >= observed))
    return (1 + exceedances) / (b + 1)


def _draw_permutations(seed: int, num: int, n: int) -> np.ndarray:
    """num permutations of range(n) drawn from one Philox stream.

    Row b is the stable argsort of raw 64-bit words b*n .. b*n + n - 1 of the
    (seed, STREAM_PERMUTATION, 0) Philox stream, so it depends on (seed, n, b)
    alone: the rows for ``num`` are a prefix of the rows for any larger
    ``num``, and row b can be drawn by itself after ``advance((b * n) // 4)``
    (Philox yields four words per counter step).  Uniform 64-bit keys give a
    uniform permutation; a tie (probability about n^2 / 2^65 per row) keeps
    index order, so it stays deterministic.
    """
    bits = rng_for(seed, STREAM_PERMUTATION, 0).bit_generator.random_raw((num, n))
    return np.argsort(bits, axis=1, kind="stable")


def _pool_size(threads: int, tasks: int) -> int:
    """Workers for ``tasks`` independent jobs: ``threads``, capped by tasks and CPUs."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return min(threads, tasks, os.cpu_count() or 1)


def _run_chunks(run, num: int, workers: int, buffers) -> None:
    """``run(chunk, *buffers())`` over contiguous chunks of range(num), one per worker.

    Each chunk's buffers are allocated here, on the calling thread: allocating
    on the pool threads made peak memory depend on how the threads'
    allocations happened to interleave.
    """
    chunks = np.array_split(np.arange(num), workers)
    allocated = [buffers() for _ in chunks]
    if workers == 1:
        run(chunks[0], *allocated[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, chunks, *zip(*allocated)))


def _permuted_statistics(
    kc: np.ndarray, lc: np.ndarray, perms: np.ndarray, threads: int = 1
) -> np.ndarray:
    """V-statistics for each permutation: sum(Kc * Lc[p, p]) / n^2."""
    num, n = perms.shape
    workers = _pool_size(threads, num)  # also validates threads on the batched path
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

    _run_chunks(run, num, workers, lambda: (np.empty((n, n)), np.empty((n, n))))
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
    fx: np.ndarray, fy: np.ndarray, perms: np.ndarray, threads: int = 1
) -> np.ndarray:
    """``||Fx' Fy[p]||_F^2 / n^2`` for each permutation p, from factor rows fx, fy.

    Each replicate is one (rx x n) @ (n x ry) product of a stacked ``matmul``
    and its own row of one batched sum of squares, so its value does not
    depend on the block or chunk it falls in.
    """
    num, n = perms.shape
    workers = _pool_size(threads, num)
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
        run, num, workers, lambda: (np.empty((size, n, ry)), np.empty((size, rx, ry)))
    )
    out /= n * n
    return out


def _null_function(kc: np.ndarray, lc: np.ndarray, kc_max: float, lc_max: float):
    """``statistics(perms, threads=1)`` for two centered Grams, on the path their ranks pick."""
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


def _centered_grams(data: Dataset, kx: KernelSpec, ky: KernelSpec):
    # Resolution happens once, on the unpermuted data, and is frozen across
    # replicates; the marginal point sets are permutation-invariant anyway.
    return (
        centered_gram_entries(resolve_bandwidth(kx, data.x_points), data.x_points),
        centered_gram_entries(resolve_bandwidth(ky, data.y_points), data.y_points),
    )


def _observed_and_null(
    data: Dataset, kx: KernelSpec, ky: KernelSpec, perms: np.ndarray, threads: int = 1
) -> tuple[HsicValue, np.ndarray]:
    """The observed statistic and the null over ``perms``, through one function.

    The observed value is the null function at the identity permutation, so
    an identity replicate reproduces it bitwise on every path.
    """
    kc, lc = _centered_grams(data, kx, ky)
    kc_max, lc_max = float(np.abs(kc).max()), float(np.abs(lc).max())
    statistics = _null_function(kc, lc, kc_max, lc_max)
    identity = np.arange(data.n, dtype=np.intp)[None, :]
    observed = HsicValue.from_raw(
        statistics(identity)[0], Estimator.BIASED_V, kc_max * lc_max
    )
    null = statistics(perms, threads)
    _check_finite(null)
    return observed, null


def permutation_test(
    data: Dataset,
    kx: KernelSpec,
    ky: KernelSpec,
    cfg: PermutationConfig,
    threads: int = 1,
) -> TestResult:
    """Monte Carlo permutation test of independence using biased HSIC.

    ``threads`` bounds the worker pool of the null statistics; the result
    does not depend on it.
    """
    if data.n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    perms = _draw_permutations(cfg.seed, cfg.num_permutations, data.n)
    observed, null = _observed_and_null(data, kx, ky, perms, threads)
    p = p_value_from_null(observed.raw, null)
    return TestResult(
        statistic=observed,
        p_value=p,
        reject=p <= cfg.alpha,
        null_quantile=float(np.quantile(null, 1.0 - cfg.alpha)),
        num_permutations=cfg.num_permutations,
        seed=cfg.seed,
        alpha=cfg.alpha,
        method="monte_carlo",
        rng=RNG_SCHEME,
    )


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
    observed, null = _observed_and_null(data, kx, ky, perms)
    p = int(np.count_nonzero(null >= observed.raw)) / math.factorial(n)
    return TestResult(
        statistic=observed,
        p_value=p,
        reject=p <= alpha,
        null_quantile=float(np.quantile(null, 1.0 - alpha)),
        num_permutations=math.factorial(n),
        seed=0,
        alpha=alpha,
        method="exhaustive",
        rng="exhaustive enumeration (no randomness)",
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
    threads: int | None = 1,
) -> PowerResult:
    """Rejection rate of the permutation test over independent sampler draws.

    Trial t is fully determined by (cfg.seed, t): its dataset seed and its
    permutation seed are both derived from that pair, so results are
    identical whatever the thread count.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")
    workers = _pool_size(1 if threads is None else threads, num_trials)

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
