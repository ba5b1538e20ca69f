"""Permutation-test machinery: p-values, null replicates, power experiments."""

import contextlib
import io
import itertools
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist
from scipy.stats import chisquare

import oracles
from hsictest import (
    Dataset,
    Estimator,
    GeneratorKind,
    GeneratorSpec,
    HsicValue,
    KernelSpec,
    PermutationConfig,
    discrete_ring,
    exhaustive_permutation_test,
    hsic_biased,
    median_heuristic,
    p_value_from_null,
    permutation_test,
    power_experiment,
    resolve_bandwidth,
    sample,
)
from hsictest import _selection, cli, hsic, testing
from hsictest.hsic import centered_gram_entries, centered_side, gram_free_side
from hsictest.kernels import gram_entries
from hsictest.rng import (
    STREAM_PERMUTATION,
    STREAM_TRIAL_DATA,
    STREAM_TRIAL_TEST,
    derive_seed,
    rng_for,
)
from hsictest.testing import (
    EXHAUSTIVE_MAX_N,
    TAKE_MIN_N,
    _dense_null,
    _dense_statistics,
    _factored_statistics,
)

GAUSS_MEDIAN = KernelSpec("gaussian")
LAPLACE_MEDIAN = KernelSpec("laplace")
LINEAR = KernelSpec("linear")
EPS = np.finfo(float).eps


def _random_dataset(seed, n, dx=1, dy=2):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, dx)), rng.normal(size=(n, dy)))


def _ring(seed, n):
    return sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=seed), n)


def _statistics(null, perms, workers=1):
    """The statistics of ``perms`` under one null, in ``workers`` chunks, one thread each."""
    return testing._run_chunks([null], perms, workers)[0]


def _pooled(null, perms, workers):
    """The statistics of ``perms`` in ``workers`` chunks on a pool of that many threads."""
    return _statistics(null, perms, workers)


def _grams(d, kx, ky):
    """Centered Grams, their scale max|Kc| * max|Lc|, and the null a test of ky picks."""
    _, kc, kc_max, _ = centered_side(kx, d.x_points)
    _, lc, lc_max, _ = centered_side(ky, d.y_points)
    *_, (null,) = testing._null_function(d, kx, [ky])
    return kc, lc, kc_max * lc_max, null


class TestPermutationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_permutations=0, alpha=0.05, seed=0),
            dict(num_permutations=100, alpha=0.0, seed=0),
            dict(num_permutations=100, alpha=1.0, seed=0),
            dict(num_permutations=100, alpha=0.05, seed=-1),
            # Masked to 64 bits, these would run seed 0's and seed 5's tests.
            dict(num_permutations=100, alpha=0.05, seed=2**64),
            dict(num_permutations=100, alpha=0.05, seed=2**64 + 5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PermutationConfig(**kwargs)

    def test_largest_seed_accepted(self):
        assert PermutationConfig(100, 0.05, 2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("num_permutations,seed", [(99, 1.5), (9.5, 1), (99.0, 1), (99, 1.0)])
    def test_non_integers_refused_when_built(self, num_permutations, seed):
        # Refused here, as rng_for refuses a seed, not inside the null.
        with pytest.raises(TypeError):
            PermutationConfig(num_permutations, 0.05, seed)

    def test_numpy_integers_kept_as_ints(self):
        cfg = PermutationConfig(np.int32(99), 0.05, np.uint64(2**64 - 1))
        assert type(cfg.num_permutations) is int and type(cfg.seed) is int
        assert (cfg.num_permutations, cfg.seed) == (99, 2**64 - 1)


class TestPValueFromNull:
    def test_add_one_rule(self):
        # Ties count as exceedances; the observed value joins the null pool.
        assert p_value_from_null(0.5, np.array([0.1, 0.5, 0.9])) == 0.75
        assert p_value_from_null(2.0, np.array([0.1, 0.5, 0.9])) == 0.25
        assert p_value_from_null(0.0, np.array([0.1, 0.5, 0.9])) == 1.0

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=50),
    )
    def test_monotone_and_bounded(self, a, b, null):
        null = np.asarray(null)
        lo, hi = min(a, b), max(a, b)
        p_hi = p_value_from_null(hi, null)
        p_lo = p_value_from_null(lo, null)
        assert p_hi <= p_lo
        for p in (p_hi, p_lo):
            assert 1.0 / (null.size + 1) <= p <= 1.0


class TestDrawPermutations:
    def test_rows_are_permutations(self):
        perms = oracles.draw_permutations(seed=0, num=20, n=7)
        assert perms.shape == (20, 7)
        target = np.arange(7)
        for row in perms:
            assert np.array_equal(np.sort(row), target)

    def test_deterministic_and_index_addressed(self):
        a = oracles.draw_permutations(seed=3, num=10, n=6)
        b = oracles.draw_permutations(seed=3, num=10, n=6)
        assert np.array_equal(a, b)
        # Replicate b is keyed by its index, not by how many came before it.
        c = oracles.draw_permutations(seed=3, num=4, n=6)
        assert np.array_equal(a[:4], c)

    def test_seed_changes_draws(self):
        a = oracles.draw_permutations(seed=3, num=10, n=6)
        b = oracles.draw_permutations(seed=4, num=10, n=6)
        assert not np.array_equal(a, b)

    def test_uniform_over_s4(self):
        # Fixed seed, so the outcome is deterministic; a biased draw (say,
        # argsort of keys with frequent ties) lands far below the threshold.
        perms = oracles.draw_permutations(seed=0, num=240_000, n=4)
        codes = perms @ np.array([64, 16, 4, 1])
        _, counts = np.unique(codes, return_counts=True)
        assert counts.size == 24
        assert chisquare(counts).pvalue > 1e-3

    @given(
        st.integers(0, 2**63 - 1),
        st.integers(1, 12),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    @settings(max_examples=60)
    def test_rows_are_permutations_and_prefixes(self, seed, n, num, extra):
        perms = oracles.draw_permutations(seed, num, n)
        assert np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(n), (num, n)))
        assert np.array_equal(oracles.draw_permutations(seed, num + extra, n)[:num], perms)

    @given(st.integers(0, 2**63 - 1), st.integers(1, 12), st.integers(0, 200))
    @settings(max_examples=40)
    def test_row_reachable_by_advance(self, seed, n, b):
        # Philox yields 4 words per counter step: skip to word b*n directly.
        bit_generator = rng_for(seed, STREAM_PERMUTATION, 0).bit_generator
        steps, offset = divmod(b * n, 4)
        bit_generator.advance(steps)
        words = bit_generator.random_raw(offset + n)[offset:]
        row = np.argsort(words, kind="stable")
        assert np.array_equal(row, oracles.draw_permutations(seed, b + 1, n)[b])

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 5, -1])
    def test_seed_outside_64_bits_refused(self, seed):
        # A masked seed would alias one inside [0, 2**64): 2**64 + 5 to 5,
        # -1 to 2**64 - 1.
        with pytest.raises(ValueError, match=r"2\*\*64"):
            rng_for(seed, STREAM_PERMUTATION, 0)

    def test_non_integer_seed_refused(self):
        # Cast into the uint64 key, 1.5 would run seed 1's stream.
        with pytest.raises(TypeError):
            rng_for(1.5, STREAM_PERMUTATION, 0)

    def test_tied_keys_sort_stably(self):
        # The packed keys order a row by the words' high parts only; the rows
        # it leaves must still be the stable argsort.  Crafted ties: a repeated
        # column (one tied pair per row), a constant row, rows of few values,
        # and words that agree in all but the low b = 6 bits (50 columns),
        # whose low bits order them against their columns, or with them.
        words = rng_for(0, STREAM_PERMUTATION, 0).bit_generator.random_raw((10, 50))
        words[:3, 31] = words[:3, 7]
        words[3] = words[3, 0]
        words[4:7] = np.random.default_rng(0).integers(0, 3, size=(3, 50), dtype=np.uint64)
        high = words[7:, 3] >> np.uint64(6) << np.uint64(6)
        words[7:, 3] = high | np.uint64(45)
        words[7:, 20] = high | np.uint64(2)
        words[8, 41] = high[1] | np.uint64(63)
        words[9, [20, 3]] = words[9, [3, 20]]
        # A tie across rows only: row 0's largest key is row 1's smallest.
        across = np.array([[9, 2, 5], [12, 9, 30]], dtype=np.uint64)
        for block in (words, across):
            out = np.empty(block.shape, dtype=np.intp)
            testing._argsort_rows(block, out)
            assert np.array_equal(out, np.argsort(block, axis=1, kind="stable"))

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_blocks_join_seamlessly(self, n, monkeypatch):
        # A tiny block makes the draw span many blocks, and a block of fewer
        # words than one row still holds a row.
        monkeypatch.setattr(testing, "_DENSE_DRAW_BLOCK_WORDS", 24)
        bits = rng_for(5, STREAM_PERMUTATION, 0).bit_generator.random_raw((13, n))
        expected = np.argsort(bits, axis=1, kind="stable")
        out = np.full((13, n), -1, dtype=np.intp)
        assert oracles.draw_permutations(5, 13, n, out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", [41, 999])
    @pytest.mark.parametrize("lo", [1, 3, 33])
    def test_rows_from_an_offset_match_the_prefix(self, n, lo):
        # lo * n is odd here, so the draw starts inside a Philox counter
        # step; blocks of 4 rows make it span several blocks.
        hi = lo + 10
        expected = oracles.draw_permutations(seed=6, num=hi, n=n)[lo:hi]
        block = np.full((4, n), -1, dtype=np.intp)
        got = np.full((hi - lo, n), -1, dtype=np.intp)
        starts = []
        for start, rows in testing._draw_rows(6, n, lo, hi, block):
            starts.append(start)
            got[start - lo : start - lo + len(rows)] = rows
        assert starts == list(range(lo, hi, 4))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("stream,index", [(3, 2**48), (2**16 + 3, 0), (-1, 0), (3, -1)])
    def test_stream_and_index_outside_their_bits_refused(self, stream, index):
        # Masked into the key, index 2**48 ran index 0's stream and stream
        # 2**16 + 3 ran stream 3's.
        with pytest.raises(ValueError, match=r"2\*\*(16|48)"):
            rng_for(7, stream, index)

    def test_seeds_from_2_to_the_63_key_their_own_streams(self):
        # Held as float64, 2**63 + 1 rounded to 2**63, and 2**64 - 1 and
        # 2**64 - 2 overflowed to seed 0's key.
        seeds = [0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
        words = {
            int(rng_for(s, STREAM_PERMUTATION, 0).bit_generator.random_raw()) for s in seeds
        }
        assert len(words) == len(seeds)


class TestPermutedStatistics:
    def test_identity_row_reproduces_observed_bitwise(self):
        # The plain sum(Kc * Lc) / n^2 is the reference: the identity row,
        # batched (n^2 <= 8192) or reduced alone, and the dense null's own
        # observed value must equal it bit for bit, as must hsic_biased on
        # the dense path below the cutoff.
        for n in (25, 91, 128):
            d = _random_dataset(7, n)
            kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
            ky = resolve_bandwidth(GAUSS_MEDIAN, d.y_points)
            kc = centered_gram_entries(kx, d.x_points)
            lc = centered_gram_entries(ky, d.y_points)
            reference = float(np.einsum("ij,ij->", kc, lc)) / n**2
            identity = np.arange(n, dtype=np.intp)[None, :]
            null = _dense_null(kc, lc)
            assert _statistics(null, identity)[0] == null.observed == reference
            if n < TAKE_MIN_N:
                assert hsic_biased(d, kx, ky).raw == reference

    def test_matches_reindexed_datasets(self):
        # Relabeling y and recomputing from scratch is the slow route; the
        # dense null must agree with it on either side of the cutoff, with
        # its reduction batched (n^2 <= 8192) or not.
        for seed, n in ((8, 10), (10, TAKE_MIN_N - 1), (11, TAKE_MIN_N), (12, 64), (13, 128)):
            d = _random_dataset(seed, n)
            kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
            ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
            kc = centered_gram_entries(kx, d.x_points)
            lc = centered_gram_entries(ky, d.y_points)
            perms = oracles.draw_permutations(seed=1, num=30, n=d.n)
            fast = _pooled(_dense_null(kc, lc), perms, 2)
            for row, value in zip(perms, fast):
                lc_row = centered_gram_entries(ky, d.y_points[row])
                slow = float(np.einsum("ij,ij->", kc, lc_row)) / n**2
                assert value == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("n", [5, TAKE_MIN_N - 1, TAKE_MIN_N, 64])
    def test_identity_mid_batch_and_mid_chunk_is_observed(self, n, monkeypatch):
        # Nine rows make one gather batch below the cutoff and, on three
        # threads, chunks 0-2, 3-5, 6-8 above it: rows 1 and 4 sit inside.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        d = _random_dataset(n, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
        kc = centered_gram_entries(kx, d.x_points)
        lc = centered_gram_entries(ky, d.y_points)
        observed = float(np.einsum("ij,ij->", kc, lc)) / n**2
        perms = oracles.draw_permutations(seed=5, num=9, n=n)
        perms[[1, 4]] = np.arange(n)
        null = _pooled(_dense_null(kc, lc), perms, 3)
        assert null[1] == observed
        assert null[4] == observed

    @pytest.mark.parametrize("n", [TAKE_MIN_N, 64, 200])
    def test_identity_mid_chunk_is_observed_low_rank(self, n, monkeypatch):
        # The low-rank twin of the test above: gaussian/linear on the ring
        # takes the factored path, whose identity replicates, at rows 1 and
        # 4 of chunks 0-2, 3-5, 6-8, must reproduce the reported statistic.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        d = _ring(n, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        *_, factored = _grams(d, kx, LINEAR)
        assert factored.statistics.func is _factored_statistics
        perms = oracles.draw_permutations(seed=5, num=9, n=n)
        perms[[1, 4]] = np.arange(n)
        null = _pooled(factored, perms, 3)
        observed = permutation_test(d, kx, LINEAR, PermutationConfig(9, 0.05, 5), threads=3)
        assert null[1] == observed.statistic.raw
        assert null[4] == observed.statistic.raw

    @pytest.mark.parametrize("n", [8, 20, TAKE_MIN_N - 1])
    def test_blocks_match_one_gather_bitwise(self, n, monkeypatch):
        # The dense null draws one block of rows at a time; blocks of 100
        # words split the 30 replicates into blocks of 12, 5 or 2 rows, and
        # each value must equal one gather of all 30, bit for bit.
        monkeypatch.setattr(testing, "_DENSE_DRAW_BLOCK_WORDS", 100)
        sizes = []
        dense = testing._dense_statistics
        monkeypatch.setattr(
            testing,
            "_dense_statistics",
            lambda kc, lc, p, out, work: sizes.append(len(p)) or dense(kc, lc, p, out, work),
        )
        d = _random_dataset(n, n)
        kc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.x_points)
        lc = centered_gram_entries(KernelSpec("laplace", 1.0), d.y_points)
        p = oracles.draw_permutations(seed=4, num=30, n=n)
        expected = oracles.gathered_statistics(kc, lc, p)
        assert np.array_equal(_statistics(_dense_null(kc, lc), p), expected)
        step = 100 // n
        assert sizes == [step] * (30 // step) + ([30 % step] if 30 % step else [])

    @pytest.mark.parametrize("n", [*range(2, 129), 200])
    def test_two_takes_match_the_fancy_gather_bitwise(self, n, monkeypatch):
        # Up to n = 90, a budget of three or one replicates a half makes the
        # null gather its 31 replicates, drawn as one block, in blocks of 3
        # rows, the last of them short, or one at a time.  Above 8192 floats
        # a Gram, numpy's einsum buffer, the batched einsum sums in another
        # order (from n = 91), so each replicate is reduced alone, in row
        # blocks of 3n or n rows: the whole matrix, as the dense null
        # reduces its observed statistic.  On either path the workspace is
        # two blocks of the budget.
        d = _random_dataset(n, n)
        kc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.x_points)
        lc = centered_gram_entries(KernelSpec("laplace", 1.0), d.y_points)
        p = oracles.draw_permutations(seed=n, num=31, n=n)
        if n * n <= 8192:
            expected = oracles.gathered_statistics(kc, lc, p)
        else:  # lc[row][:, row] is laid out in column order, which sums differently
            taken = (np.ascontiguousarray(lc[row][:, row]) for row in p)
            expected = np.array([np.einsum("ij,ij->", kc, t) for t in taken]) / (n * n)
        for rows in (3, 1):
            monkeypatch.setattr(_selection, "_BLOCK_FLOATS", rows * n * n)
            null = _dense_null(kc, lc)
            assert null.statistics.func is _dense_statistics
            assert null.floats(31) == 2 * _selection._BLOCK_FLOATS
            assert np.array_equal(_statistics(null, p), expected)

    @pytest.mark.parametrize("n", [90, 91, 181, 182, 256, 257, 300, 1000])
    def test_observed_is_the_identity_replicate_bitwise(self, n):
        # d = 3 Gaussian x against a Laplace y: a dense null whose
        # replicates, up to n = 90, are batched, and from 91 on are reduced
        # in row blocks, one block while n <= 256 and more from 257 on.  The
        # observed value sums the same blocks of Kc * Lc with no gather.
        d = _random_dataset(n, n, dx=3, dy=1)
        kc = centered_gram_entries(GAUSS_MEDIAN, d.x_points)
        lc = centered_gram_entries(LAPLACE_MEDIAN, d.y_points)
        identity = np.arange(n, dtype=np.intp)[None, :]
        observed = testing._dense_value(kc, lc)
        assert _statistics(_dense_null(kc, lc), identity)[0] == observed
        assert observed == oracles.row_block_statistic(kc, lc, _selection._block_rows(n))
        assert (_selection._block_rows(n) < n) == (n > 256)

    def test_row_blocks_do_not_depend_on_the_chunk(self):
        # At n = 300 a replicate is reduced in row blocks of 218 and 82
        # rows.  31 replicates reduced as one chunk and one at a time give
        # the same bits, each the row-block sum of a fancy-index gather.
        n = 300
        d = _random_dataset(3, n, dx=3, dy=1)
        kc = centered_gram_entries(GAUSS_MEDIAN, d.x_points)
        lc = centered_gram_entries(LAPLACE_MEDIAN, d.y_points)
        p = oracles.draw_permutations(seed=3, num=31, n=n)
        work = np.empty(_dense_null(kc, lc).floats(31))
        whole, alone = np.empty(31), np.empty(31)
        _dense_statistics(kc, lc, p, whole, work)
        for j in range(31):
            _dense_statistics(kc, lc, p[j : j + 1], alone[j : j + 1], work)
        assert np.array_equal(whole, alone)
        rows = _selection._block_rows(n)
        expected = [oracles.row_block_statistic(kc, lc, rows, row) for row in p]
        assert np.array_equal(whole, expected)

    def test_batches_join_seamlessly(self):
        # Chunked evaluation must not depend on the batch boundary.
        d = _random_dataset(9, 12)
        kc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.x_points)
        lc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.y_points)
        perms = oracles.draw_permutations(seed=2, num=11, n=d.n)
        null = _dense_null(kc, lc)
        whole = _statistics(null, perms)
        parts = np.concatenate([_statistics(null, perms[:5]), _statistics(null, perms[5:])])
        assert np.array_equal(whole, parts)


class TestFactoredNull:
    # The fixed corpus: the ring, gaussian x against a gaussian or linear y.
    CORPUS = [
        (n, seed, ky)
        for n in (TAKE_MIN_N, 200, 1000)
        for seed in range(6)
        for ky in ("gaussian", "linear")
    ]

    @pytest.mark.parametrize("n,seed,ky", CORPUS)
    def test_matches_dense_null_on_corpus(self, n, seed, ky):
        d = _ring(seed, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(KernelSpec(ky), d.y_points)
        kc, lc, scale, null = _grams(d, kx, ky)
        assert null.statistics.func is _factored_statistics
        perms = oracles.draw_permutations(seed, 99, n)
        identity = np.arange(n)[None, :]
        factored = _pooled(null, perms, 2)
        dense = _pooled(_dense_null(kc, lc), perms, 2)
        obs_factored = _statistics(null, identity)[0]
        obs_dense = _statistics(_dense_null(kc, lc), identity)[0]
        # Each side's truncation moves a replicate by at most n * eps * scale.
        bound = 2 * n * EPS * scale
        assert np.abs(factored - dense).max() <= bound
        assert abs(obs_factored - obs_dense) <= bound
        p_factored = p_value_from_null(obs_factored, factored)
        p_dense = p_value_from_null(obs_dense, dense)
        assert p_factored == p_dense
        assert (p_factored <= 0.05) == (p_dense <= 0.05)

    def test_null_identical_for_1_2_3_threads(self, monkeypatch):
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        # A small block makes every chunk span several gather blocks.
        monkeypatch.setattr(_selection, "_BLOCK_FLOATS", 1000)
        d = _ring(4, 200)
        *_, null = _grams(d, resolve_bandwidth(GAUSS_MEDIAN, d.x_points), LINEAR)
        assert null.statistics.func is _factored_statistics
        perms = oracles.draw_permutations(seed=3, num=50, n=d.n)
        lone = _statistics(null, perms)
        for threads in (2, 3):
            assert np.array_equal(_pooled(null, perms, threads), lone)
        cfg = PermutationConfig(50, 0.05, 3)
        results = [permutation_test(d, GAUSS_MEDIAN, LINEAR, cfg, threads=t) for t in (1, 2, 3)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n", [TAKE_MIN_N, 200])
    def test_high_rank_stays_dense_and_unchanged(self, n):
        # Laplace Grams on the ring are full rank: the test must report what
        # the dense null and the plain sum(Kc * Lc) / n^2 give, bit for bit.
        d = _ring(1, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
        kc, lc, scale, null = _grams(d, kx, ky)
        assert null.statistics.func is _dense_statistics
        cfg = PermutationConfig(99, 0.05, 2)
        null = _pooled(_dense_null(kc, lc), oracles.draw_permutations(cfg.seed, 99, n), 2)
        res = permutation_test(d, kx, ky, cfg, threads=2)
        observed = float(np.einsum("ij,ij->", kc, lc)) / n**2
        assert res.statistic == HsicValue.from_raw(observed, Estimator.BIASED_V, scale)
        assert res.p_value == p_value_from_null(res.statistic.raw, null)
        assert res.null_quantile == float(np.quantile(null, 0.95))

    @pytest.mark.parametrize("x_kernel", [KernelSpec("gaussian", 1.0), LINEAR])
    def test_constant_side_has_rank_zero(self, x_kernel):
        d = Dataset(np.full(200, 2.0), _ring(0, 200).y_points)
        ky = resolve_bandwidth(GAUSS_MEDIAN, d.y_points)
        kc, lc, _, factored = _grams(d, x_kernel, ky)
        assert factored.statistics.func is _factored_statistics
        assert factored.statistics.args[0].shape == (0, 200)
        perms = oracles.draw_permutations(0, 99, 200)
        for null in (factored, _dense_null(kc, lc)):
            observed = _statistics(null, np.arange(200)[None, :])[0]
            assert p_value_from_null(observed, _statistics(null, perms)) == 1.0
        assert permutation_test(d, x_kernel, ky, PermutationConfig(99, 0.05, 0)).p_value == 1.0

    def test_tiny_scale_keeps_its_rank(self):
        # The floor is relative to the largest entry, so a linear Gram of
        # entries near 1e-300 is still rank 1, not rank 0.
        d = _ring(0, 200)
        tiny = Dataset(d.x_points * 1e-150, d.y_points * 1e-150)
        kc, *_ = _grams(tiny, LINEAR, LINEAR)
        column = lambda j: kc[:, j]  # noqa: E731
        fx = hsic._pivoted_cholesky(kc.diagonal(), column, float(np.abs(kc).max()), cap=200)
        assert fx.shape == (1, 200)

    def test_repeated_points_keep_exact_ties(self):
        # Equal rows of a centered Gram get bitwise-equal factor columns, so
        # swapping two repeated y points reproduces the observed value.  The
        # copies sit 61 apart in 103 points, off any 4- or 8-wide SIMD lane.
        n, shift = 103, 61
        d = _ring(2, n)
        y = d.y_points.copy()
        y[shift:] = y[: n - shift]
        d = Dataset(d.x_points, y)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(GAUSS_MEDIAN, d.y_points)
        *_, null = _grams(d, kx, ky)
        assert null.statistics.func is _factored_statistics
        fy = null.statistics.args[1].T
        assert np.array_equal(fy[:, shift:], fy[:, : n - shift])
        swaps = np.tile(np.arange(n), (3, 1))
        for row, i in zip(swaps, (0, 17, n - shift - 1)):
            row[[i, i + shift]] = row[[i + shift, i]]
        identity = np.arange(n)[None, :]
        assert np.all(_statistics(null, swaps) == _statistics(null, identity)[0])

    SCALES = st.sampled_from([1e-150, 1.0, 1e150])
    KERNELS = st.sampled_from(["gaussian:median", "gaussian:1.0", "laplace:median", "linear"])
    LAYOUTS = st.sampled_from(["ring", "constant_x", "constant_y", "duplicated"])

    @given(
        n=st.sampled_from([8, TAKE_MIN_N, 64]),
        scale=SCALES,
        layout=LAYOUTS,
        kernel_x=KERNELS,
        kernel_y=KERNELS,
        dense=st.booleans(),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80)
    def test_adversarial_scales_give_p_or_documented_exit(
        self, n, scale, layout, kernel_x, kernel_y, dense, seed, tmp_path_factory
    ):
        d = _ring(seed, n)
        x, y = d.x_points[:, 0] * scale, d.y_points[:, 0] * scale
        if layout == "constant_x":
            x = np.full(n, x[0])
        elif layout == "constant_y":
            y = np.full(n, y[0])
        elif layout == "duplicated":
            x, y = np.resize(x[: n // 2], n), np.resize(y[: n // 2], n)
        path = tmp_path_factory.mktemp("adversarial") / "data.csv"
        path.write_text(
            "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)),
            encoding="utf-8",
        )
        argv = [
            "test", str(path), "--x-columns", "x", "--y-columns", "y",
            "--kernel-x", kernel_x, "--kernel-y", kernel_y,
            "--permutations", "50", "--seed", str(seed), "--threads", "2",
        ]
        out, err = io.StringIO(), io.StringIO()
        forced = []

        def dense_null(data, kx, kys, *_):
            # Both sides dense, whatever their ranks; each call is recorded,
            # so a patch that stops applying fails the test below.
            forced.append(data.n)
            kx, kc, kc_max, _ = centered_side(kx, data.x_points)
            (ky,) = kys
            ky, lc, lc_max, _ = centered_side(ky, data.y_points)
            return kx, [ky], [kc_max * lc_max], [_dense_null(kc, lc)]

        with pytest.MonkeyPatch.context() as mp:
            if dense:
                mp.setattr(testing, "_null_function", dense_null)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 2, 3), err.getvalue()
        # Exit 2 is a median bandwidth on a constant side; exit 3 an overflow.
        if code == 2:
            assert layout.startswith("constant"), err.getvalue()
        if code == 3:
            assert scale > 1.0, err.getvalue()
        if code == 0:
            p = json.loads(out.getvalue())["p_value"]
            assert math.isfinite(p) and 0.0 < p <= 1.0
            if dense and n >= TAKE_MIN_N:
                assert forced == [n]


class TestGramFreeSide:
    """The centered factor a test takes for a side is the dense side, to roundoff."""

    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("n", [40, 200, 1000])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
    def test_bitwise_the_dense_side(self, family, d, n, duplicated, monkeypatch):
        # Bit for bit: the resolved bandwidth, and the factor columns of
        # repeated points.  Within n * eps * max K_ii: Fc' Fc against the
        # dense HKH, and the scale against max|HKH|.
        pts = np.random.default_rng(n * d).normal(size=(n, d)) * 2.0 + 0.5
        if duplicated:  # the first third again as the last third
            pts[n - n // 3 :] = pts[: n // 3]
        caps, pivoted = [], hsic._pivoted_cholesky
        recording = lambda *args: caps.append(args[-1]) or pivoted(*args)  # noqa: E731
        monkeypatch.setattr(hsic, "_pivoted_cholesky", recording)
        spec, fc, scale = gram_free_side(KernelSpec(family), pts)
        dense_spec, kc, dense_scale, _ = centered_side(KernelSpec(family), pts)
        assert spec == dense_spec
        assert family == "linear" or spec.bandwidth == float(np.median(pdist(pts)))
        k = gram_entries(spec, pts)
        if fc is None:  # K itself needs more pivots than the cap gram_free_side set
            assert pivoted(k.diagonal(), lambda j: k[:, j], 1.0, caps[0]) is None
            return
        tolerance = n * EPS * k.diagonal().max()
        assert np.abs(fc.T @ fc - kc).max() <= tolerance
        assert abs(scale - dense_scale) <= tolerance
        if duplicated:
            assert np.array_equal(fc[:, n - n // 3 :], fc[:, : n // 3])

    def test_constant_linear_side_is_rank_zero(self):
        # 3.7 does not center exactly under a linear kernel; below the zero
        # floor the side factors to rank 0, and the test gives p = 1.
        d = Dataset(_ring(0, 60).x_points, np.full((60, 1), 3.7))
        assert d.y_points.mean() != 3.7
        _, fc, scale = gram_free_side(LINEAR, d.y_points)
        assert scale == 0.0 and not fc.any()
        assert fc.shape == (0, 60)
        cfg = PermutationConfig(99, 0.05, 0)
        assert permutation_test(d, GAUSS_MEDIAN, LINEAR, cfg).p_value == 1.0

    def test_overflowing_linear_side_refused_at_the_side_exits_3(self, tmp_path, capsys):
        d = _ring(0, 60)
        with pytest.raises(ArithmeticError, match="non-finite"):
            gram_free_side(LINEAR, d.y_points * 1e200)
        path = tmp_path / "huge.csv"
        pairs = zip(d.x_points[:, 0], d.y_points[:, 0])
        rows = "".join(f"{float(a)!r},{float(b) * 1e200!r}\n" for a, b in pairs)
        path.write_text("x,y\n" + rows)
        argv = ["test", str(path), "--x-columns", "x", "--y-columns", "y", "--kernel-y", "linear"]
        assert cli.main(argv) == 3 and "non-finite" in capsys.readouterr().err

    def test_nearly_constant_side_takes_the_dense_path(self, monkeypatch):
        # gaussian:100 on the ring centers to 1e-4 of max K_ii, below
        # FACTOR_MIN_SCALE: centering its factor would cancel all but that.
        d = _ring(1, 1000)
        ky = KernelSpec("gaussian", 100.0)
        _, fc, scale = gram_free_side(ky, d.y_points)
        assert fc is None and scale < hsic.FACTOR_MIN_SCALE
        built = []

        def recording(spec, points):
            built.append(spec)
            return centered_side(spec, points)

        monkeypatch.setattr(testing, "centered_side", recording)
        res = permutation_test(d, GAUSS_MEDIAN, ky, PermutationConfig(20, 0.05, 0))
        assert built == [res.kernel_x, ky]

    def test_offset_linear_side_stays_factored(self):
        # y + 1e6 makes max K_ii 1e12 against max|HLH| near 1, but a linear
        # factor is the centered data, which loses only the offset's
        # rounding: it stays factored, and its null is the dense null of
        # the unshifted y (HLH is shift invariant) to that rounding.  The
        # dense null of the shifted y itself is off by about 3e-7.
        n = 200
        d = _ring(1, n)
        shifted = Dataset(d.x_points, d.y_points + 1e6)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        *_, (null,) = testing._null_function(shifted, kx, [LINEAR])
        assert null.statistics.func is _factored_statistics
        assert null.statistics.args[1].T.shape == (1, n)
        kc, lc, _, _ = _grams(d, kx, LINEAR)
        perms = oracles.draw_permutations(0, 99, n)
        dense = _statistics(_dense_null(kc, lc), perms)
        rounding = np.spacing(1e6)  # of each shifted y, and of their mean
        tolerance = 4 * rounding * np.sqrt(np.abs(lc).max()) * np.abs(kc).max()
        assert np.abs(_statistics(null, perms) - dense).max() <= tolerance


class TestThreads:
    @pytest.fixture
    def many_cpus(self, monkeypatch):
        # Thread counts above the real CPU count would be capped away.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)

    def test_null_identical_for_1_2_3_threads(self, many_cpus):
        d = _random_dataset(6, TAKE_MIN_N + 3)
        kc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.x_points)
        lc = centered_gram_entries(KernelSpec("laplace", 1.0), d.y_points)
        perms = oracles.draw_permutations(seed=3, num=50, n=d.n)
        dense = _dense_null(kc, lc)
        lone = _statistics(dense, perms)
        for threads in (2, 3):
            assert np.array_equal(_pooled(dense, perms, threads), lone)
        cfg = PermutationConfig(50, 0.05, 3)
        results = [
            permutation_test(d, GAUSS_MEDIAN, LAPLACE_MEDIAN, cfg, threads=t) for t in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n", [64, 100])
    def test_null_ignores_the_callers_einsum_buffer(self, many_cpus, n):
        # np.setbufsize is per thread and einsum does not read it, so a
        # larger one on the calling thread must move no replicate, on the
        # calling thread or on the pool's.
        d = _ring(n, n)
        cfg = PermutationConfig(200, 0.05, 3)
        runs = lambda: [  # noqa: E731
            testing._monte_carlo(d, GAUSS_MEDIAN, [LAPLACE_MEDIAN], cfg, t)[3] for t in (1, 2)
        ]
        default = runs()
        old = np.setbufsize(16384)
        try:
            larger = runs()
        finally:
            np.setbufsize(old)
        for null in (*default, *larger):
            assert np.array_equal(null, default[0])

    @pytest.mark.parametrize(
        "ky,path",
        [(GAUSS_MEDIAN, _factored_statistics), (LAPLACE_MEDIAN, _dense_statistics)],
        ids=["factored", "dense"],
    )
    @pytest.mark.parametrize("n", [TAKE_MIN_N, 120, 300])
    def test_results_identical_for_1_2_3_threads(self, many_cpus, ky, path, n):
        # The pool prepares both sides and the draw, then runs the null.
        d = _ring(n, n)
        assert _grams(d, GAUSS_MEDIAN, ky)[3].statistics.func is path
        cfg = PermutationConfig(61, 0.05, 9)
        results = [permutation_test(d, GAUSS_MEDIAN, ky, cfg, threads=t) for t in (1, 2, 3)]
        assert results[0] == results[1] == results[2]

    @staticmethod
    def _traced_peak(run):
        """Traced peak bytes of ``run()``, called once before so first-call allocations stay out."""
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @staticmethod
    def _peak_grams(n, ky, permutations):
        """Traced peak of one test of n ring points, in units of one n x n float Gram."""
        d = _ring(0, n)
        cfg = PermutationConfig(permutations, 0.05, 0)
        peak = TestThreads._traced_peak(lambda: permutation_test(d, GAUSS_MEDIAN, ky, cfg))
        return peak / (n * n * 8)

    @pytest.mark.parametrize(
        "ky,before", [(GAUSS_MEDIAN, 0.55), (LAPLACE_MEDIAN, 2.46)], ids=["factored", "dense"]
    )
    def test_peak_memory_no_higher_than_before(self, ky, before):
        # The factored test holds no Gram: it factors each side from rows of
        # K, selects its median bandwidth in chunked passes and draws its
        # permutations block by block, so it peaks near 0.40 of a Gram, in
        # its median selection or its null (a block of drawn rows, the
        # draw's temporaries and a gathered factor block).  It peaked near
        # 0.54 with blocks of twice as many drawn words, and at
        # 1.09 while it held a Gram, 1.93 with a median buffer (0.5) and all
        # the permutations (0.33), and 3.33 while both Grams were held.  The
        # dense test peaks near 2.454: two Grams, its null's two row blocks
        # of 109 x 600 floats (0.36) and a block of drawn rows; it peaked
        # near 4.09 while it gathered whole n x n replicates.  The bounds
        # leave 0.005 to 0.01 of a unit for small Python objects; a Gram on
        # the factored path, a median buffer, the held permutations, a
        # factor kept alive into the dense null or an n x n gather would
        # break them.
        assert self._peak_grams(600, ky, 200) <= before

    def test_overflowing_side_refused_below_one_gram(self):
        # A linear y of 1e200 overflows its factor's scale and is refused
        # there, before the dense fallback's two Grams and gather workspace
        # (a 4-Gram peak) are allocated only to find the overflow.
        n = 600
        d = _ring(0, n)
        d = Dataset(d.x_points, d.y_points * 1e200)

        def run():
            with pytest.raises(ArithmeticError, match="non-finite"):
                permutation_test(d, GAUSS_MEDIAN, LINEAR, PermutationConfig(200, 0.05, 0))

        assert self._traced_peak(run) < n * n * 8

    @pytest.mark.parametrize("n,floats", [(40, 2 * 40 * 40 * 40), (600, 2 * 109 * 600)])
    def test_memory_estimate_covers_the_dense_workspaces(self, many_cpus, monkeypatch, n, floats):
        # At n = 40 a chunk gathers 40 replicates at a time, two halves of
        # 40 n x n blocks; at 600 it gathers one replicate a row block at a
        # time, two blocks of 109 rows.  The estimate must cover both Grams,
        # the null statistics and every chunk's workspace.
        needs, works = [], []
        check, run = testing._check_memory, testing._run_chunks
        monkeypatch.setattr(
            testing, "_check_memory",
            lambda n, grams, held: needs.append(8 * grams * n * n + held) or check(n, grams, held),
        )

        def recording(nulls, perms, workers=1):
            seen = {}

            def spy(null):
                def statistics(rows, out, work):
                    seen[id(work)] = work.size  # each chunk's one workspace
                    null.statistics(rows, out, work)

                return null._replace(statistics=statistics)

            null = run([spy(null) for null in nulls], perms, workers)
            works.append(sum(seen.values()))
            return null

        monkeypatch.setattr(testing, "_run_chunks", recording)
        cfg = PermutationConfig(600, 0.05, 0)
        assert permutation_test(_ring(0, n), GAUSS_MEDIAN, LAPLACE_MEDIAN, cfg, threads=3).p_value
        assert max(works) == 3 * floats
        assert max(needs) >= 8 * (2 * n * n + cfg.num_permutations + max(works))

    def test_factored_peak_grows_with_n_not_n_squared(self):
        # Twice the points make four times the Gram, but a factored test's
        # buffers are row blocks, O(n) vectors and factor rows: its peak rose
        # 1.24x from n = 1000 to 2000, and 3.9x while it held a Gram.
        small, large = (self._peak_grams(n, GAUSS_MEDIAN, 200) * n * n for n in (1000, 2000))
        assert large < 1.5 * small

    def test_peak_memory_does_not_grow_with_permutations(self):
        # Ten times the replicates add only their 8 * B bytes of statistics
        # (0.005 of a Gram here); held permutations would add 3 Grams.
        few, many = (self._peak_grams(600, GAUSS_MEDIAN, b) for b in (200, 2000))
        assert abs(many - few) <= 0.01

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(testing, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 4)
        return sizes

    def test_pools_capped_by_tasks_and_cpus(self, pool_sizes):
        d = _random_dataset(2, TAKE_MIN_N)
        permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(3, 0.05, 0), threads=10_000)
        permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(20, 0.05, 0), threads=10_000)
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        power_experiment(
            spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], PermutationConfig(10, 0.05, 0),
            num_trials=3, n=TAKE_MIN_N, threads=10_000,
        )
        assert pool_sizes == [3, 4, 3]

    def test_small_null_starts_no_pool(self, pool_sizes):
        # Below the cutoff a test or a trial is many small numpy calls, which
        # two threads mostly spend handing the GIL back and forth.
        d = _random_dataset(2, TAKE_MIN_N - 1)
        permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(20, 0.05, 0), threads=4)
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        power_experiment(
            spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], PermutationConfig(10, 0.05, 0),
            num_trials=3, n=8, threads=4,
        )
        assert pool_sizes == []

    def test_threads_below_one_refused(self):
        d = _random_dataset(2, 10)
        cfg = PermutationConfig(20, 0.05, 0)
        with pytest.raises(ValueError, match="threads"):
            permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, threads=0)
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                power_experiment(
                    spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], cfg, num_trials=2, n=8, threads=threads
                )


class TestPermutationTest:
    def test_bitwise_deterministic(self):
        d = _random_dataset(4, 40)
        cfg = PermutationConfig(200, 0.05, 7)
        a = permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg)
        b = permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg)
        assert a == b

    def test_result_contract(self):
        d = _random_dataset(5, 30)
        cfg = PermutationConfig(99, 0.1, 0)
        res = permutation_test(d, GAUSS_MEDIAN, LAPLACE_MEDIAN, cfg)
        assert res.method == "monte_carlo"
        assert res.num_permutations == 99
        assert res.seed == 0
        assert res.alpha == 0.1
        assert 1.0 / 100 <= res.p_value <= 1.0
        assert res.reject == (res.p_value <= res.alpha)
        assert np.isfinite(res.null_quantile)
        assert "Philox" in res.rng

    def test_no_full_abs_pass(self, abs_shapes):
        # The statistic's scale and the factoring floors use the max|HKH|
        # that centered_side returns, taken without an n x n abs pass.
        d = _ring(0, 200)
        permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(50, 0.05, 0))
        assert abs_shapes.count((200, 200)) == 0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            permutation_test(
                Dataset([1.0], [1.0]), GAUSS_MEDIAN, GAUSS_MEDIAN,
                PermutationConfig(10, 0.05, 0),
            )
        with pytest.raises(ValueError, match="at least 2"):
            exhaustive_permutation_test(Dataset([1.0], [1.0]), GAUSS_MEDIAN, GAUSS_MEDIAN, 0.05)

    def test_overflowing_statistic_raises(self):
        # A linear kernel on 1e200 overflows to inf and the statistic to NaN;
        # that must not come out as p = 1/(B+1) and a rejection.
        d = Dataset([1e200, -1e200, 3e200], [1e200, 2e200, -1e200])
        linear = KernelSpec("linear")
        with pytest.raises(ArithmeticError, match="non-finite"):
            permutation_test(d, linear, linear, PermutationConfig(20, 0.05, 0))

    def test_overflowing_gaussian_bandwidth_is_not_factored(self):
        # The median bandwidth is 1e154, whose 2 sigma^2 overflows: K would be
        # 1 wherever a squared distance is finite and NaN where it overflows
        # too (between the two clusters), and the pivot column of the point
        # at 0, which holds no NaN, would find the side constant and give
        # p = 1.  The kernel is refused as the bandwidth is resolved.
        x = np.array([0.0] + [1e154] * 20 + [-1e154] * 20)
        d = Dataset(x, np.sin(np.arange(41.0)))
        with pytest.raises(ArithmeticError, match="non-finite"):
            permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(20, 0.05, 0))

    def test_overflowing_gram_is_not_factored(self):
        # An infinite Gram entry must be refused where its side is built,
        # not read as a rank-0 factor and a confident p = 1.
        x = np.linspace(-1.0, 1.0, TAKE_MIN_N)
        d = Dataset(x * 1e200, x**2)
        with pytest.raises(ArithmeticError, match="non-finite"):
            permutation_test(d, LINEAR, GAUSS_MEDIAN, PermutationConfig(20, 0.05, 0))

    def test_detects_strong_dependence(self):
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), 150)
        res = permutation_test(
            d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(300, 0.05, 1)
        )
        assert res.reject

    def test_carries_the_resolved_kernels(self):
        d = _random_dataset(3, 50)
        cfg = PermutationConfig(20, 0.05, 0)
        res = permutation_test(d, GAUSS_MEDIAN, LAPLACE_MEDIAN, cfg)
        assert res.kernel_x == KernelSpec("gaussian", median_heuristic(d.x_points))
        assert res.kernel_y == KernelSpec("laplace", median_heuristic(d.y_points))
        assert permutation_test(d, KernelSpec("gaussian", 0.3), LINEAR, cfg).kernel_y == LINEAR
        small = Dataset(d.x_points[:5], d.y_points[:5])
        exact = exhaustive_permutation_test(small, GAUSS_MEDIAN, KernelSpec("laplace", 2.0), 0.05)
        assert exact.kernel_x.bandwidth == median_heuristic(small.x_points)
        assert exact.kernel_y == KernelSpec("laplace", 2.0)

    @pytest.mark.parametrize(
        "n,ky,path",
        [
            (200, KernelSpec("gaussian", 0.5), _factored_statistics),
            (200, KernelSpec("laplace", 0.5), _dense_statistics),
            (25, KernelSpec("gaussian", 0.5), _dense_statistics),
        ],
        ids=["factored", "dense", "batched"],
    )
    def test_inexactly_centered_constant_side_gives_p_one(self, n, ky, path):
        # 3.7 repeated centers to a uniform ~1.8e-15 under a linear kernel at
        # these n, not to 0; that residue must not make a null of roundoff
        # noise with an arbitrary p-value, on either null path, with the
        # dense one below the cutoff too.
        x = np.full(n, 3.7)
        assert _grams(Dataset(x, _ring(0, n).y_points), LINEAR, ky)[3].statistics.func is path
        for seed in range(40):
            d = Dataset(x, _ring(seed, n).y_points)
            res = permutation_test(d, LINEAR, ky, PermutationConfig(99, 0.05, seed))
            assert res.p_value == 1.0 and res.statistic.raw == 0.0


    @pytest.mark.parametrize("n", [3, 25, 60])
    @pytest.mark.parametrize("bandwidth", [0.02, 0.1], ids=["identity", "within_eps"])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_identity_gram_gives_p_one(self, side, bandwidth, n):
        # Points 1 apart: under gaussian:0.02 every off-diagonal K entry is
        # e^-1250, 0 in floats; under gaussian:0.1 it is e^-50, within
        # working precision of 0.  Every replicate then equals the observed
        # statistic tr(Lc) / n^2 up to roundoff, and is set to it exactly.
        identity = KernelSpec("gaussian", bandwidth)
        assert centered_side(identity, np.arange(n))[3]
        assert not centered_side(GAUSS_MEDIAN, np.arange(n))[3]
        for seed in range(10):
            ring = _ring(seed, n).y_points
            d = Dataset(np.arange(n), ring) if side == "x" else Dataset(ring, np.arange(n))
            kx, ky = (identity, GAUSS_MEDIAN) if side == "x" else (GAUSS_MEDIAN, identity)
            res = permutation_test(d, kx, ky, PermutationConfig(99, 0.05, seed))
            assert res.p_value == 1.0 and res.null_quantile == res.statistic.raw
            kc, lc = centered_side(kx, d.x_points)[1], centered_side(ky, d.y_points)[1]
            assert res.statistic.raw == float(np.einsum("ij,ij->", kc, lc)) / n**2
            if n <= EXHAUSTIVE_MAX_N:
                assert exhaustive_permutation_test(d, kx, ky, 0.05).p_value == 1.0
        # A linear Gram of orthonormal points is the identity too, but no
        # tie is claimed for a kernel whose entries may be negative.
        assert not centered_side(LINEAR, np.eye(3))[3]


class TestExhaustive:
    @pytest.mark.parametrize("seed,n", [(11, 5), (12, 5), (13, 4)])
    def test_matches_refit_oracle_exactly(self, seed, n):
        d = _random_dataset(seed, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
        res = exhaustive_permutation_test(d, kx, ky, 0.05)
        kx_t = ("gaussian", kx.bandwidth)
        ky_t = ("laplace", ky.bandwidth)
        p_ref = oracles.exhaustive_pvalue_by_refit(
            d.x_points,
            d.y_points,
            lambda xs, ys: oracles.centered_double_sum_hsic(xs, ys, kx_t, ky_t),
        )
        assert res.p_value == p_ref

    def test_result_contract(self):
        d = _random_dataset(0, 5)
        res = exhaustive_permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, 0.05)
        assert res.method == "exhaustive"
        assert res.num_permutations == 120
        assert res.p_value >= 1.0 / 120

    def test_overflowing_statistic_raises(self):
        d = Dataset([1e200, -1e200, 3e200], [1e200, 2e200, -1e200])
        linear = KernelSpec("linear")
        with pytest.raises(ArithmeticError, match="non-finite"):
            exhaustive_permutation_test(d, linear, linear, 0.05)

    def test_inexactly_centered_constant_side_gives_p_one(self):
        for seed in range(40):
            d = Dataset(np.full(6, 3.7), _ring(seed, 6).y_points)
            res = exhaustive_permutation_test(d, LINEAR, KernelSpec("gaussian", 0.5), 0.05)
            assert res.p_value == 1.0 and res.statistic.raw == 0.0

    def test_size_limit(self):
        d = _random_dataset(0, EXHAUSTIVE_MAX_N + 1)
        with pytest.raises(ValueError, match="exhaustive"):
            exhaustive_permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, 0.05)

    def test_alpha_bounds(self):
        d = _random_dataset(0, 4)
        with pytest.raises(ValueError, match="alpha"):
            exhaustive_permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, 1.0)

    def test_monte_carlo_converges_to_exhaustive(self):
        d = _random_dataset(11, 5)
        exact = exhaustive_permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, 0.05)
        mc = permutation_test(
            d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(20_000, 0.05, 0)
        )
        assert mc.p_value == pytest.approx(exact.p_value, abs=0.02)


def _exact_mean(kc, lc):
    """The mean statistic over all n! relabelings of centered Grams: tr(Kc) tr(Lc) / (n^2 (n - 1)).

    A centered Gram's rows sum to zero, so its off-diagonal entries sum to
    minus its trace; a relabeling sends a diagonal entry of Lc to the
    diagonal, and an off-diagonal one uniformly among the off-diagonal.
    """
    n = len(kc)
    return np.trace(kc) * np.trace(lc) / (n * n * (n - 1))


def _nulls_built(monkeypatch):
    """The names of the null constructors :mod:`hsictest.testing` calls from now on, in order."""
    built = []
    for name in ("_factored_null", "_dense_null", "_tied_null"):
        make = getattr(testing, name)
        monkeypatch.setattr(
            testing, name, lambda *args, make=make, name=name: built.append(name) or make(*args)
        )
    return built


class TestExactPermutationMean:
    """Every null path against its exact permutation mean, computed without any null kernel."""

    @pytest.mark.parametrize(
        "ky", [GAUSS_MEDIAN, LAPLACE_MEDIAN, LINEAR], ids=lambda k: k.family.value
    )
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_exhaustive_null_mean_is_exact(self, n, ky, monkeypatch):
        d = _random_dataset(n, n)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        built = _nulls_built(monkeypatch)
        kx, (ky,), _, (null,) = testing._replicates(d, GAUSS_MEDIAN, [ky], testing._as_rows(perms))
        assert built == ["_dense_null"] and len(null) == math.factorial(n)
        exact = _exact_mean(centered_side(kx, d.x_points)[1], centered_side(ky, d.y_points)[1])
        assert abs(null.mean() - exact) <= 1e-14 * abs(exact)

    CASES = {
        "factored_gaussian": (lambda: _ring(1, 200), GAUSS_MEDIAN, "_factored_null"),
        "factored_linear": (lambda: _ring(1, 200), LINEAR, "_factored_null"),
        "dense_from_take_min_n": (lambda: _ring(1, 200), LAPLACE_MEDIAN, "_dense_null"),
        "dense_n8": (lambda: _ring(1, 8), GAUSS_MEDIAN, "_dense_null"),
        "dense_below_take_min_n": (lambda: _ring(1, TAKE_MIN_N - 1), GAUSS_MEDIAN, "_dense_null"),
        "identity_tie": (
            lambda: Dataset(_ring(1, 25).x_points, np.arange(25.0)),
            KernelSpec("gaussian", 0.02),
            "_tied_null",
        ),
        "d3": (lambda: _random_dataset(1, 60, dx=3, dy=3), GAUSS_MEDIAN, "_dense_null"),
        "dense_row_blocks": (lambda: _ring(1, 300), LAPLACE_MEDIAN, "_dense_null"),
    }

    def test_row_block_case_reduces_blocks_shorter_than_n(self):
        make, ky, _ = self.CASES["dense_row_blocks"]
        d = make()
        *_, (null,) = testing._null_function(d, GAUSS_MEDIAN, [ky])
        assert null.statistics.func is _dense_statistics
        assert _selection._block_rows(d.n) < d.n

    @pytest.mark.parametrize("case", list(CASES))
    def test_monte_carlo_null_mean_within_five_standard_errors(self, case, monkeypatch):
        # B = 2000 replicates at a fixed seed.  Each side's factor moves a
        # replicate by at most n * eps * max|Kc| * max|Lc|.
        make, ky, path = self.CASES[case]
        d, cfg = make(), PermutationConfig(2000, 0.05, 1)
        built = _nulls_built(monkeypatch)
        kx, (ky,), _, (null,) = testing._monte_carlo(d, GAUSS_MEDIAN, [ky], cfg)
        assert built == [path]
        _, kc, kc_max, _ = centered_side(kx, d.x_points)
        _, lc, lc_max, _ = centered_side(ky, d.y_points)
        standard_error = null.std(ddof=1) / math.sqrt(len(null))
        roundoff = 2 * d.n * EPS * kc_max * lc_max
        assert abs(null.mean() - _exact_mean(kc, lc)) <= 5 * standard_error + roundoff


class TestSharedTrials:
    """Several y kernels on one draw: each result is the one its y kernel alone gives."""

    RING = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
    CASES = [
        (8, [LINEAR, GAUSS_MEDIAN]),
        (45, [LINEAR, GAUSS_MEDIAN]),
        (60, [GAUSS_MEDIAN, LAPLACE_MEDIAN]),  # one factored y side, one dense
        # Two dense y sides share each block's gather index, on every thread.
        (60, [LAPLACE_MEDIAN, KernelSpec("laplace", 0.5)]),
    ]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n,kys", CASES, ids=["n8", "n45", "n60-mixed", "n60-dense"])
    def test_power_matches_one_y_runs_bitwise(self, n, kys, threads, monkeypatch):
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        cfg = PermutationConfig(70, 0.05, 4)
        shared = power_experiment(self.RING, GAUSS_MEDIAN, kys, cfg, 5, n, threads=threads)
        alone = [power_experiment(self.RING, GAUSS_MEDIAN, [ky], cfg, 5, n)[0] for ky in kys]
        assert shared == alone

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n,kys", CASES, ids=["n8", "n45", "n60-mixed", "n60-dense"])
    def test_results_match_one_y_tests_bitwise(self, n, kys, threads, monkeypatch):
        # Statistic, null quantile and resolved kernels too, with the null
        # on the test's pool from TAKE_MIN_N points on.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        d = _ring(n, n)
        cfg = PermutationConfig(70, 0.05, 4)
        shared = testing._results(
            *testing._monte_carlo(d, GAUSS_MEDIAN, kys, cfg, threads), cfg.alpha, p_value_from_null,
            seed=cfg.seed, method="monte_carlo", rng=testing.RNG_SCHEME,
        )
        assert shared == [permutation_test(d, GAUSS_MEDIAN, ky, cfg) for ky in kys]

    def test_mixed_sides_build_x_factor_and_gram_once(self, monkeypatch):
        d = _ring(60, 60)
        built = []
        for name in ("gram_free_side", "centered_side"):
            side = getattr(testing, name)
            monkeypatch.setattr(
                testing, name, lambda spec, pts, side=side, name=name: (
                    built.append((name, spec.family.value)) or side(spec, pts)
                ),
            )
        *_, nulls = testing._null_function(d, GAUSS_MEDIAN, [GAUSS_MEDIAN, LAPLACE_MEDIAN])
        assert [null.statistics.func for null in nulls] == [_factored_statistics, _dense_statistics]
        assert built == [
            ("gram_free_side", "gaussian"), ("gram_free_side", "gaussian"),
            ("gram_free_side", "laplace"), ("centered_side", "gaussian"),
            ("centered_side", "laplace"),
        ]

    @pytest.mark.parametrize("n", [8, 45])
    def test_each_trial_draws_once_per_chunk(self, n, monkeypatch):
        draws = []
        draw = testing._draw_rows
        monkeypatch.setattr(
            testing, "_draw_rows", lambda *args: draws.append(args[:2]) or draw(*args)
        )
        cfg = PermutationConfig(50, 0.05, 2)
        power_experiment(self.RING, GAUSS_MEDIAN, [LINEAR, GAUSS_MEDIAN], cfg, 4, n)
        # One chunk per trial (a trial's test runs on one thread), whatever
        # the number of y kernels.
        assert len(draws) == 4 and len(set(draws)) == 4

    def test_no_y_kernel_refused(self):
        cfg = PermutationConfig(10, 0.05, 0)
        with pytest.raises(ValueError, match="y kernel"):
            power_experiment(self.RING, GAUSS_MEDIAN, [], cfg, num_trials=2, n=8)


class TestPowerExperiment:
    def test_thread_count_does_not_change_results(self, monkeypatch):
        # Below the cutoff every trial runs on the calling thread; from it
        # on, the trials run on a pool of 3.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        cfg = PermutationConfig(60, 0.05, 3)
        for n in (30, TAKE_MIN_N):
            lone = power_experiment(spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], cfg, 6, n, threads=1)
            pooled = power_experiment(spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], cfg, 6, n, threads=3)
            assert lone == pooled

    def test_rate_summarizes_p_values(self):
        spec = GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, seed=0)
        cfg = PermutationConfig(50, 0.05, 1)
        (res,) = power_experiment(spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], cfg, num_trials=8, n=20)
        assert res.trials == 8
        assert len(res.p_values) == 8
        expected_rate = np.mean([p <= cfg.alpha for p in res.p_values])
        assert res.rejection_rate == expected_rate

    def test_trial_count_validated(self):
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        cfg = PermutationConfig(10, 0.05, 0)
        with pytest.raises(ValueError, match="num_trials"):
            power_experiment(spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], cfg, num_trials=0, n=10)

    def test_sampler_seed_is_overridden_per_trial(self):
        # Trials must differ even though the sampler spec carries one seed.
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=123)
        cfg = PermutationConfig(30, 0.05, 0)
        (res,) = power_experiment(spec, GAUSS_MEDIAN, [GAUSS_MEDIAN], cfg, num_trials=5, n=25)
        assert len(set(res.p_values)) > 1


def _own_tests(sampler, kx, kys, cfg, num_trials, n):
    """Each trial's p-values, from ``permutation_test`` on that trial's own sample, and the first refusal.

    Trial t samples ``sampler`` at ``derive_seed(seed, STREAM_TRIAL_DATA,
    t)`` and tests with seed ``derive_seed(seed, STREAM_TRIAL_TEST, t)``.
    The trials run in order, each y kernel in order, until one is refused.
    """
    rows = []
    for t in range(num_trials):
        data_spec = replace(sampler, seed=derive_seed(cfg.seed, STREAM_TRIAL_DATA, t))
        test_cfg = replace(cfg, seed=derive_seed(cfg.seed, STREAM_TRIAL_TEST, t))
        try:
            data = sample(data_spec, n)
            rows.append([permutation_test(data, kx, ky, test_cfg).p_value for ky in kys])
        except (ValueError, ArithmeticError) as exc:
            return rows, exc
    return rows, None


class TestTrialIsItsOwnTest:
    """Trial t of a power experiment is ``permutation_test`` on trial t's own sample, bit for bit."""

    SAMPLERS = {
        "ring": GeneratorSpec(GeneratorKind.RING_UNIFORM, noise=0.1),
        "gaussian_dx3": GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, dim_x=3),
        "rotated": GeneratorSpec(GeneratorKind.ROTATED, angle=0.7),
        "discrete": GeneratorSpec(GeneratorKind.DISCRETE_GIVEN, distribution=discrete_ring()),
    }
    KX = {
        "gaussian_median": GAUSS_MEDIAN,
        "laplace_fixed": KernelSpec("laplace", 0.7),
        "linear": LINEAR,
    }
    # Median and fixed bandwidths of every family, a side whose Gram is the
    # identity (a tie) and a constant one.
    KYS = [
        LINEAR, LAPLACE_MEDIAN, KernelSpec("gaussian", 0.5), GAUSS_MEDIAN,
        KernelSpec("gaussian", 1e-3), KernelSpec("gaussian", 1e9),
    ]

    def _check(self, sampler, kx, kys, n, num_trials=5, cfg=PermutationConfig(40, 0.05, 11)):
        rows, refused = _own_tests(sampler, kx, kys, cfg, num_trials, n)
        if refused is None:
            results = power_experiment(sampler, kx, kys, cfg, num_trials, n)
            assert [r.p_values for r in results] == [tuple(col) for col in zip(*rows)]
        else:
            with pytest.raises(type(refused)) as raised:
                power_experiment(sampler, kx, kys, cfg, num_trials, n)
            assert type(raised.value) is type(refused) and str(raised.value) == str(refused)
        return refused

    @pytest.mark.parametrize("kx", KX, ids=list(KX))
    @pytest.mark.parametrize("kind", SAMPLERS, ids=list(SAMPLERS))
    @pytest.mark.parametrize("n", [2, 3, 8, TAKE_MIN_N - 1])
    def test_p_values_are_the_trials_own_tests(self, n, kind, kx):
        self._check(self.SAMPLERS[kind], self.KX[kx], self.KYS, n)

    def test_tied_and_constant_sides_give_p_1(self):
        cfg = PermutationConfig(40, 0.05, 11)
        ring = self.SAMPLERS["ring"]
        tied, constant = KernelSpec("gaussian", 1e-3), KernelSpec("gaussian", 1e9)
        for result in power_experiment(ring, GAUSS_MEDIAN, [tied, constant], cfg, 5, 8):
            assert result.p_values == (1.0,) * 5

    @pytest.mark.parametrize(
        "kx,kys,first",
        [
            (GAUSS_MEDIAN, [LINEAR, LAPLACE_MEDIAN], "gaussian"),  # side x before any y side
            (LINEAR, [KernelSpec("gaussian", 1.0), LAPLACE_MEDIAN], "laplace"),
            (LINEAR, [LAPLACE_MEDIAN, GAUSS_MEDIAN], "laplace"),  # y sides in order
        ],
        ids=["x", "second-y", "first-y"],
    )
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_a_refused_trial_raises_as_its_own_test(self, n, kx, kys, first):
        # Discrete ring points coincide often: a later trial's median
        # distance is 0, and the trial is refused as its own test refuses
        # it, after the earlier trials ran.
        sampler = self.SAMPLERS["discrete"]
        refused = self._check(sampler, kx, kys, n, num_trials=40)
        assert isinstance(refused, ValueError)
        assert str(refused).startswith("the median pairwise distance is 0.0")
        assert str(refused).endswith(f"such as {first}:1.0")

    def test_an_earlier_y_side_is_refused_before_a_later_x_side(self):
        # With seed 0 at n = 3, trial 4's y points and trial 6's x points
        # all coincide.  The stack's x side is refused at trial 6, yet the
        # experiment raises trial 4's y refusal, as the trials' own tests do.
        cfg = PermutationConfig(40, 0.05, 0)
        sampler = self.SAMPLERS["discrete"]
        refused = self._check(sampler, GAUSS_MEDIAN, [LAPLACE_MEDIAN], 3, num_trials=40, cfg=cfg)
        assert str(refused).endswith("such as laplace:1.0")

    def test_a_side_beyond_the_float_limits_raises_as_its_own_test(self):
        # 2 sigma^2 rounds to 0: every trial is refused, the first as its own test.
        refused = self._check(self.SAMPLERS["ring"], KernelSpec("gaussian", 1e-200), [LINEAR], 8)
        assert isinstance(refused, ArithmeticError)

    def test_stacks_are_one_block_and_share_one_workspace(self, monkeypatch):
        # 50 trials of 39 points make stacks of 43 and 7 trials (43 * 39^2
        # floats is one block of 2^16); each stack is built by one call a
        # side, and every trial's null draws into the experiment's one
        # block of rows and workspace.
        built, buffers = [], []
        side, run = testing.centered_side, testing._run_chunks
        monkeypatch.setattr(
            testing, "centered_side", lambda spec, pts: built.append(np.shape(pts)) or side(spec, pts)
        )
        monkeypatch.setattr(
            testing, "_run_chunks",
            lambda nulls, perms, workers=1: buffers.append(perms.buffers) or run(nulls, perms, workers),
        )
        ring = self.SAMPLERS["ring"]
        power_experiment(ring, GAUSS_MEDIAN, [LINEAR, GAUSS_MEDIAN], PermutationConfig(30, 0.05, 1), 50, 39)
        assert built == [(43, 39, 1)] * 3 + [(7, 39, 1)] * 3
        assert len(buffers) == 50 and buffers[0] is not None
        assert all(b is buffers[0] for b in buffers)

    def test_gather_index_is_computed_once_for_every_y_side(self, monkeypatch):
        # Two dense y sides reduce each block of rows; its gather index is
        # built once, not once per side.
        calls = []
        gather = testing._gather_index
        monkeypatch.setattr(
            testing, "_gather_index", lambda perms, block: calls.append(len(perms)) or gather(perms, block)
        )
        cfg = PermutationConfig(2500, 0.05, 1)
        power_experiment(self.SAMPLERS["ring"], GAUSS_MEDIAN, [LINEAR, GAUSS_MEDIAN], cfg, 1, 8)
        assert calls == [1024, 1024, 452]  # the drawn blocks of 2^13 words
