"""Permutation-test machinery: p-values, null replicates, power experiments."""

import contextlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import oracles
from hsictest import (
    Dataset,
    GeneratorKind,
    GeneratorSpec,
    KernelSpec,
    PermutationConfig,
    exhaustive_permutation_test,
    hsic_biased,
    median_heuristic,
    p_value_from_null,
    permutation_test,
    power_experiment,
    resolve_bandwidth,
    sample,
)
from hsictest import cli, testing
from hsictest.hsic import centered_gram_entries, centered_side
from hsictest.rng import STREAM_PERMUTATION, rng_for
from hsictest.testing import (
    EXHAUSTIVE_MAX_N,
    TAKE_MIN_N,
    _draw_permutations,
    _factored_statistics,
    _permuted_statistics,
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


def _grams(d, kx, ky):
    """Centered Grams, their scale max|Kc| * max|Lc|, and the null function a test picks."""
    (_, kc), (_, lc) = centered_side(kx, d.x_points), centered_side(ky, d.y_points)
    kc_max, lc_max = float(np.abs(kc).max()), float(np.abs(lc).max())
    return kc, lc, kc_max * lc_max, testing._null_function(kc, lc, kc_max, lc_max)


class TestPermutationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_permutations=0, alpha=0.05, seed=0),
            dict(num_permutations=100, alpha=0.0, seed=0),
            dict(num_permutations=100, alpha=1.0, seed=0),
            dict(num_permutations=100, alpha=0.05, seed=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PermutationConfig(**kwargs)


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
        perms = _draw_permutations(seed=0, num=20, n=7)
        assert perms.shape == (20, 7)
        target = np.arange(7)
        for row in perms:
            assert np.array_equal(np.sort(row), target)

    def test_deterministic_and_index_addressed(self):
        a = _draw_permutations(seed=3, num=10, n=6)
        b = _draw_permutations(seed=3, num=10, n=6)
        assert np.array_equal(a, b)
        # Replicate b is keyed by its index, not by how many came before it.
        c = _draw_permutations(seed=3, num=4, n=6)
        assert np.array_equal(a[:4], c)

    def test_seed_changes_draws(self):
        a = _draw_permutations(seed=3, num=10, n=6)
        b = _draw_permutations(seed=4, num=10, n=6)
        assert not np.array_equal(a, b)

    def test_uniform_over_s4(self):
        # Fixed seed, so the outcome is deterministic; a biased draw (say,
        # argsort of keys with frequent ties) lands far below the threshold.
        perms = _draw_permutations(seed=0, num=240_000, n=4)
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
        perms = _draw_permutations(seed, num, n)
        assert np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(n), (num, n)))
        assert np.array_equal(_draw_permutations(seed, num + extra, n)[:num], perms)

    @given(st.integers(0, 2**63 - 1), st.integers(1, 12), st.integers(0, 200))
    @settings(max_examples=40)
    def test_row_reachable_by_advance(self, seed, n, b):
        # Philox yields 4 words per counter step: skip to word b*n directly.
        bit_generator = rng_for(seed, STREAM_PERMUTATION, 0).bit_generator
        steps, offset = divmod(b * n, 4)
        bit_generator.advance(steps)
        words = bit_generator.random_raw(offset + n)[offset:]
        row = np.argsort(words, kind="stable")
        assert np.array_equal(row, _draw_permutations(seed, b + 1, n)[b])


class TestPermutedStatistics:
    def test_identity_row_reproduces_observed_bitwise(self):
        d = _random_dataset(7, 25)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(GAUSS_MEDIAN, d.y_points)
        observed = hsic_biased(d, kx, ky)
        kc = centered_gram_entries(kx, d.x_points)
        lc = centered_gram_entries(ky, d.y_points)
        identity = np.arange(d.n, dtype=np.intp)[None, :]
        assert _permuted_statistics(kc, lc, identity)[0] == observed.raw

    def test_matches_reindexed_datasets(self):
        # Relabeling y and recomputing from scratch is the slow route; both
        # null paths, on either side of the cutoff, must agree with it.
        for seed, n in ((8, 10), (10, TAKE_MIN_N - 1), (11, TAKE_MIN_N)):
            d = _random_dataset(seed, n)
            kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
            ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
            kc = centered_gram_entries(kx, d.x_points)
            lc = centered_gram_entries(ky, d.y_points)
            perms = _draw_permutations(seed=1, num=30, n=d.n)
            fast = _permuted_statistics(kc, lc, perms, threads=2)
            for row, value in zip(perms, fast):
                slow = hsic_biased(Dataset(d.x_points, d.y_points[row]), kx, ky)
                assert value == pytest.approx(slow.raw, abs=1e-12)

    @pytest.mark.parametrize("n", [5, TAKE_MIN_N - 1, TAKE_MIN_N, 64])
    def test_identity_mid_batch_and_mid_chunk_is_observed(self, n, monkeypatch):
        # Nine rows make one gather batch below the cutoff and, on three
        # threads, chunks 0-2, 3-5, 6-8 above it: rows 1 and 4 sit inside.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        d = _random_dataset(n, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
        observed = hsic_biased(d, kx, ky)
        kc = centered_gram_entries(kx, d.x_points)
        lc = centered_gram_entries(ky, d.y_points)
        perms = _draw_permutations(seed=5, num=9, n=n)
        perms[[1, 4]] = np.arange(n)
        null = _permuted_statistics(kc, lc, perms, threads=3)
        assert null[1] == observed.raw
        assert null[4] == observed.raw

    @pytest.mark.parametrize("n", [TAKE_MIN_N, 64, 200])
    def test_identity_mid_chunk_is_observed_low_rank(self, n, monkeypatch):
        # The low-rank twin of the test above: gaussian/linear on the ring
        # takes the factored path, whose identity replicates, at rows 1 and
        # 4 of chunks 0-2, 3-5, 6-8, must reproduce the reported statistic.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        d = _ring(n, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        *_, statistics = _grams(d, kx, LINEAR)
        assert statistics.func is _factored_statistics
        perms = _draw_permutations(seed=5, num=9, n=n)
        perms[[1, 4]] = np.arange(n)
        null = statistics(perms, threads=3)
        observed = permutation_test(d, kx, LINEAR, PermutationConfig(9, 0.05, 5), threads=3)
        assert null[1] == observed.statistic.raw
        assert null[4] == observed.statistic.raw

    def test_batches_join_seamlessly(self):
        # Chunked evaluation must not depend on the batch boundary.
        d = _random_dataset(9, 12)
        kc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.x_points)
        lc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.y_points)
        perms = _draw_permutations(seed=2, num=11, n=d.n)
        whole = _permuted_statistics(kc, lc, perms)
        parts = np.concatenate(
            [_permuted_statistics(kc, lc, perms[:5]), _permuted_statistics(kc, lc, perms[5:])]
        )
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
        kc, lc, scale, statistics = _grams(d, kx, ky)
        assert statistics.func is _factored_statistics
        perms = _draw_permutations(seed, 99, n)
        identity = np.arange(n)[None, :]
        factored = statistics(perms, threads=2)
        dense = _permuted_statistics(kc, lc, perms, threads=2)
        obs_factored = statistics(identity)[0]
        obs_dense = _permuted_statistics(kc, lc, identity)[0]
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
        monkeypatch.setattr(testing, "_FACTOR_BLOCK_FLOATS", 1000)
        d = _ring(4, 200)
        *_, statistics = _grams(d, resolve_bandwidth(GAUSS_MEDIAN, d.x_points), LINEAR)
        assert statistics.func is _factored_statistics
        perms = _draw_permutations(seed=3, num=50, n=d.n)
        lone = statistics(perms, threads=1)
        for threads in (2, 3):
            assert np.array_equal(statistics(perms, threads=threads), lone)
        cfg = PermutationConfig(50, 0.05, 3)
        results = [permutation_test(d, GAUSS_MEDIAN, LINEAR, cfg, threads=t) for t in (1, 2, 3)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n", [TAKE_MIN_N, 200])
    def test_high_rank_stays_dense_and_unchanged(self, n):
        # Laplace Grams on the ring are full rank: the test must report what
        # the dense null and hsic_biased give, bit for bit.
        d = _ring(1, n)
        kx = resolve_bandwidth(GAUSS_MEDIAN, d.x_points)
        ky = resolve_bandwidth(LAPLACE_MEDIAN, d.y_points)
        kc, lc, _, statistics = _grams(d, kx, ky)
        assert statistics.func is _permuted_statistics
        cfg = PermutationConfig(99, 0.05, 2)
        null = _permuted_statistics(kc, lc, _draw_permutations(cfg.seed, 99, n), threads=2)
        res = permutation_test(d, kx, ky, cfg, threads=2)
        assert res.statistic == hsic_biased(d, kx, ky)
        assert res.p_value == p_value_from_null(res.statistic.raw, null)
        assert res.null_quantile == float(np.quantile(null, 0.95))

    @pytest.mark.parametrize("x_kernel", [KernelSpec("gaussian", 1.0), LINEAR])
    def test_constant_side_has_rank_zero(self, x_kernel):
        d = Dataset(np.full(200, 2.0), _ring(0, 200).y_points)
        ky = resolve_bandwidth(GAUSS_MEDIAN, d.y_points)
        kc, lc, _, statistics = _grams(d, x_kernel, ky)
        assert statistics.func is _factored_statistics
        assert statistics.args[0].shape == (0, 200)
        perms = _draw_permutations(0, 99, 200)
        for fn in (statistics, partial(_permuted_statistics, kc, lc)):
            observed = fn(np.arange(200)[None, :])[0]
            assert p_value_from_null(observed, fn(perms)) == 1.0
        assert permutation_test(d, x_kernel, ky, PermutationConfig(99, 0.05, 0)).p_value == 1.0

    def test_tiny_scale_keeps_its_rank(self):
        # The floor is relative to the largest entry, so a linear Gram of
        # entries near 1e-300 is still rank 1, not rank 0.
        d = _ring(0, 200)
        tiny = Dataset(d.x_points * 1e-150, d.y_points * 1e-150)
        kc, *_ = _grams(tiny, LINEAR, LINEAR)
        fx = testing._pivoted_cholesky(kc, float(np.abs(kc).max()), cap=200)
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
        *_, statistics = _grams(d, kx, ky)
        assert statistics.func is _factored_statistics
        fy = statistics.args[1]
        assert np.array_equal(fy[:, shift:], fy[:, : n - shift])
        swaps = np.tile(np.arange(n), (3, 1))
        for row, i in zip(swaps, (0, 17, n - shift - 1)):
            row[[i, i + shift]] = row[[i + shift, i]]
        identity = np.arange(n)[None, :]
        assert np.all(statistics(swaps) == statistics(identity)[0])

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
        with pytest.MonkeyPatch.context() as mp:
            if dense:
                mp.setattr(
                    testing, "_null_function", lambda kc, lc, *_: partial(_permuted_statistics, kc, lc)
                )
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


class TestThreads:
    @pytest.fixture
    def many_cpus(self, monkeypatch):
        # Thread counts above the real CPU count would be capped away.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)

    def test_null_identical_for_1_2_3_threads(self, many_cpus):
        d = _random_dataset(6, TAKE_MIN_N + 3)
        kc = centered_gram_entries(KernelSpec("gaussian", 1.0), d.x_points)
        lc = centered_gram_entries(KernelSpec("laplace", 1.0), d.y_points)
        perms = _draw_permutations(seed=3, num=50, n=d.n)
        lone = _permuted_statistics(kc, lc, perms, threads=1)
        for threads in (2, 3):
            assert np.array_equal(_permuted_statistics(kc, lc, perms, threads=threads), lone)
        cfg = PermutationConfig(50, 0.05, 3)
        results = [
            permutation_test(d, GAUSS_MEDIAN, LAPLACE_MEDIAN, cfg, threads=t) for t in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]

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
            spec, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(10, 0.05, 0),
            num_trials=3, n=8, threads=10_000,
        )
        assert pool_sizes == [3, 4, 3]

    def test_small_null_starts_no_pool(self, pool_sizes):
        d = _random_dataset(2, TAKE_MIN_N - 1)
        permutation_test(d, GAUSS_MEDIAN, GAUSS_MEDIAN, PermutationConfig(20, 0.05, 0), threads=4)
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
                    spec, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, num_trials=2, n=8, threads=threads
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

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            permutation_test(
                Dataset([1.0], [1.0]), GAUSS_MEDIAN, GAUSS_MEDIAN,
                PermutationConfig(10, 0.05, 0),
            )

    def test_overflowing_statistic_raises(self):
        # A linear kernel on 1e200 overflows to inf and the statistic to NaN;
        # that must not come out as p = 1/(B+1) and a rejection.
        d = Dataset([1e200, -1e200, 3e200], [1e200, 2e200, -1e200])
        linear = KernelSpec("linear")
        with pytest.raises(ArithmeticError, match="non-finite"):
            permutation_test(d, linear, linear, PermutationConfig(20, 0.05, 0))

    def test_overflowing_gram_is_not_factored(self):
        # An infinite Gram entry must reach the dense path and its error,
        # not a rank-0 factor and a confident p = 1.
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
            (200, KernelSpec("laplace", 0.5), _permuted_statistics),
            (25, KernelSpec("gaussian", 0.5), _permuted_statistics),
        ],
        ids=["factored", "dense", "batched"],
    )
    def test_inexactly_centered_constant_side_gives_p_one(self, n, ky, path):
        # 3.7 repeated centers to a uniform ~1.8e-15 under a linear kernel at
        # these n, not to 0; that residue must not make a null of roundoff
        # noise with an arbitrary p-value, on any of the three null paths.
        x = np.full(n, 3.7)
        assert _grams(Dataset(x, _ring(0, n).y_points), LINEAR, ky)[3].func is path
        for seed in range(40):
            d = Dataset(x, _ring(seed, n).y_points)
            res = permutation_test(d, LINEAR, ky, PermutationConfig(99, 0.05, seed))
            assert res.p_value == 1.0 and res.statistic.raw == 0.0


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


class TestPowerExperiment:
    def test_thread_count_does_not_change_results(self):
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        cfg = PermutationConfig(60, 0.05, 3)
        lone = power_experiment(spec, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, num_trials=6, n=30, threads=1)
        pooled = power_experiment(spec, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, num_trials=6, n=30, threads=3)
        assert lone == pooled

    def test_rate_summarizes_p_values(self):
        spec = GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, seed=0)
        cfg = PermutationConfig(50, 0.05, 1)
        res = power_experiment(spec, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, num_trials=8, n=20)
        assert res.trials == 8
        assert len(res.p_values) == 8
        expected_rate = np.mean([p <= cfg.alpha for p in res.p_values])
        assert res.rejection_rate == expected_rate

    def test_trial_count_validated(self):
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0)
        cfg = PermutationConfig(10, 0.05, 0)
        with pytest.raises(ValueError, match="num_trials"):
            power_experiment(spec, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, num_trials=0, n=10)

    def test_sampler_seed_is_overridden_per_trial(self):
        # Trials must differ even though the sampler spec carries one seed.
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=123)
        cfg = PermutationConfig(30, 0.05, 0)
        res = power_experiment(spec, GAUSS_MEDIAN, GAUSS_MEDIAN, cfg, num_trials=5, n=25)
        assert len(set(res.p_values)) > 1
