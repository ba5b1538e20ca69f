"""Kernel evaluation, bandwidth resolution, Gram assembly, the zero-sum probe."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

import oracles
from hsictest import (
    MEDIAN_BANDWIDTH,
    DiscreteJointDistribution,
    GeneratorKind,
    GeneratorSpec,
    KernelFamily,
    KernelSpec,
    median_heuristic,
    parse_kernel,
    population_hsic,
    resolve_bandwidth,
    sample,
    zero_sum_probe,
)
from hsictest import _selection, kernels
from hsictest._selection import _pairwise
from hsictest.kernels import as_points, gram_entries

coords = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
bandwidths = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
families = st.sampled_from(["gaussian", "laplace", "linear"])


def _spec(family, bandwidth):
    """``KernelSpec(family, bandwidth)``, but the linear kernel takes no bandwidth."""
    return KernelSpec(family) if family == "linear" else KernelSpec(family, bandwidth)


@st.composite
def vector_pairs(draw):
    d = draw(st.integers(1, 4))
    x = draw(st.lists(coords, min_size=d, max_size=d))
    y = draw(st.lists(coords, min_size=d, max_size=d))
    return np.array(x), np.array(y)


@st.composite
def point_clouds(draw, min_points=2, max_points=12, max_dim=3):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(min_points, max_points))
    d = draw(st.integers(1, max_dim))
    return np.random.default_rng(seed).normal(size=(n, d))


class TestParseKernel:
    @pytest.mark.parametrize(
        "text,family,bandwidth",
        [
            ("gaussian", KernelFamily.GAUSSIAN, MEDIAN_BANDWIDTH),
            ("gaussian:0.5", KernelFamily.GAUSSIAN, 0.5),
            ("gaussian:median", KernelFamily.GAUSSIAN, MEDIAN_BANDWIDTH),
            ("laplace:2", KernelFamily.LAPLACE, 2.0),
            ("laplace:MEDIAN", KernelFamily.LAPLACE, MEDIAN_BANDWIDTH),
            ("linear", KernelFamily.LINEAR, None),
            ("  GAUSSIAN:1.5 ", KernelFamily.GAUSSIAN, 1.5),
        ],
    )
    def test_grammar(self, text, family, bandwidth):
        spec = parse_kernel(text)
        assert spec.family is family
        assert spec.bandwidth == bandwidth

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            parse_kernel("cubic:1.0")

    def test_bad_bandwidth_text(self):
        with pytest.raises(ValueError, match="bad bandwidth"):
            parse_kernel("gaussian:wide")

    @pytest.mark.parametrize("text", ["linear:0.5", "linear:3", "linear:median", "linear:", "LINEAR:1"])
    def test_linear_takes_no_bandwidth(self, text):
        with pytest.raises(ValueError, match="linear kernel takes no bandwidth"):
            parse_kernel(text)

    @pytest.mark.parametrize("bw", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_bandwidth_rejected(self, bw):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec(KernelFamily.GAUSSIAN, bw)

    def test_unknown_sentinel_rejected(self):
        with pytest.raises(ValueError, match="sentinel"):
            KernelSpec(KernelFamily.GAUSSIAN, "auto")

    def test_describe_round_trips(self):
        for spec in [
            KernelSpec(KernelFamily.GAUSSIAN, 0.75),
            KernelSpec(KernelFamily.LAPLACE, 2.0),
            KernelSpec(KernelFamily.LINEAR),
        ]:
            assert parse_kernel(spec.describe()) == spec


class TestKernelSpec:
    def test_is_resolved(self):
        assert not KernelSpec(KernelFamily.GAUSSIAN).is_resolved
        assert KernelSpec(KernelFamily.GAUSSIAN, 1.0).is_resolved
        # The linear kernel has no bandwidth to resolve.
        assert KernelSpec(KernelFamily.LINEAR).is_resolved

    def test_accepts_family_by_string(self):
        assert KernelSpec("laplace", 1.0).family is KernelFamily.LAPLACE

    def test_linear_holds_no_bandwidth(self):
        assert KernelSpec(KernelFamily.LINEAR).bandwidth is None
        assert KernelSpec("linear", None) == KernelSpec("linear")
        with pytest.raises(ValueError, match="linear kernel takes no bandwidth"):
            KernelSpec("linear", 0.5)


class TestKernelEval:
    """k(x, y) read off the 2 x 2 Gram of the pair [x, y]."""

    @given(vector_pairs(), families, bandwidths)
    def test_matches_scalar_formulas(self, pair, family, bw):
        x, y = pair
        spec = _spec(family, bw)
        expected = oracles.kernel_value(family, bw, x, y)
        assert gram_entries(spec, [x, y])[0, 1] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(vector_pairs(), families, bandwidths)
    def test_symmetric_exactly(self, pair, family, bw):
        entries = gram_entries(_spec(family, bw), list(pair))
        assert entries[0, 1] == entries[1, 0]

    @given(vector_pairs(), st.sampled_from(["gaussian", "laplace"]), bandwidths)
    def test_bounded_and_one_on_diagonal(self, pair, family, bw):
        entries = gram_entries(KernelSpec(family, bw), list(pair))
        assert entries[0, 0] == entries[1, 1] == 1.0
        # Positive in exact arithmetic; far pairs may underflow to 0.0.
        assert 0.0 <= entries[0, 1] <= 1.0

    def test_requires_resolved_bandwidth(self):
        # A median spec is resolved on the pair itself: the bandwidth is
        # |x - y|, so k(x, y) is exp(-1/2) for a Gaussian and exp(-1) for a Laplace.
        for x, y in ((0.0, 1.0), (-3.0, 4.5), (1e-3, 2e-3)):
            gaussian = gram_entries(KernelSpec(KernelFamily.GAUSSIAN), [x, y])
            laplace = gram_entries(KernelSpec(KernelFamily.LAPLACE), [[x], [y]])
            assert gaussian[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-15)
            assert laplace[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


class TestAsPoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_points([[0.0, 1.0], [bad, 2.0]])

    @pytest.mark.parametrize(
        "bad,message",
        [
            (1.0, "sequence of vectors"),
            (np.zeros((2, 2, 2)), "share one dimension"),
            ([], "at least one point"),
        ],
        ids=["scalar", "3-d", "empty"],
    )
    def test_shapes_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            as_points(bad)


def _distances(pts, squared, out=None):
    """The full matrix of pairwise distances, from one call of ``_pairwise``."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty((len(pts), len(pts))) if out is None else out
    return _pairwise(pts[:, None], pts[None], squared, out)


class TestPairwiseDistances:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_equal_to_scipy(self, d):
        # The column-by-column sum reproduces scipy's summation order exactly,
        # so bandwidths and Grams are unchanged from the scipy-backed code.
        pts = np.random.default_rng(d).normal(scale=3.0, size=(40, d))
        assert np.array_equal(_distances(pts, squared=True), cdist(pts, pts, "sqeuclidean"))
        assert np.array_equal(_distances(pts, squared=False), cdist(pts, pts, "cityblock"))
        upper = _distances(pts, squared=True)[np.triu_indices(len(pts), 1)]
        assert np.array_equal(np.sqrt(upper), pdist(pts))
        assert median_heuristic(pts) == float(np.median(pdist(pts)))

    def test_points_without_coordinates_coincide(self):
        pts = np.empty((4, 0))
        for squared, metric in ((True, "sqeuclidean"), (False, "cityblock")):
            assert np.array_equal(_distances(pts, squared), cdist(pts, pts, metric))

    @pytest.mark.parametrize("d", [1, 3])
    def test_row_blocks(self, d, monkeypatch):
        # Blocks of 2 rows of 9 points split the Gram into five blocks, the
        # last one short.
        monkeypatch.setattr(_selection, "_BLOCK_FLOATS", 18)
        pts = np.random.default_rng(d).normal(size=(9, d))
        cases = (("gaussian", "sqeuclidean", -2.0 * 1.3**2), ("laplace", "cityblock", -1.3))
        for family, metric, scale in cases:
            entries = gram_entries(KernelSpec(family, 1.3), pts)
            assert np.array_equal(entries, np.exp(cdist(pts, pts, metric) / scale))


def _recording(monkeypatch, *names):
    """Names of the ``_selection`` functions ``names``, and of ``np.random.default_rng``, as called."""
    calls = []
    for module, name in [(_selection, name) for name in names] + [(np.random, "default_rng")]:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    return calls


class TestMedianHeuristic:
    @pytest.mark.parametrize(
        "points,expected",
        [
            ([0.0, 1.0, 3.0], 2.0),
            ([0.0, 1.0, 2.0, 4.0], 2.0),
            # Duplicates contribute zero distances to the median pool.
            ([0.0, 0.0, 1.0], 1.0),
            ([0.0, 0.0, 0.0, 1.0], 0.5),
        ],
    )
    def test_hand_values(self, points, expected):
        assert median_heuristic(points) == expected

    @given(point_clouds(max_points=20))
    def test_matches_loop_oracle(self, pts):
        assert median_heuristic(pts) == pytest.approx(
            oracles.pairwise_distance_median(pts), rel=1e-12
        )

    @given(
        point_clouds(max_points=40),
        st.sampled_from([None, 0, 1]),
        st.sampled_from([1 << 16, 64, 8]),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_bitwise_equal_to_numpy_median(self, pts, decimals, block, skewed):
        # Rounded points tie many distances; pair counts are odd and even.
        # Blocks of 64 or 8 floats split a few points' pairs into several row
        # blocks and bracket the middle from a sample; a skewed sample (the
        # lowest third of the distances) misses it, and the further passes
        # count the values at the thresholds and keep a whole interval.
        if decimals is not None:
            pts = np.round(pts, decimals)
        distances = pdist(pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_selection, "_BLOCK_FLOATS", block)
            if skewed:
                upper = np.sort(_distances(pts, True)[np.triu_indices(len(pts), 1)])
                sampled = _selection._sampled_between
                mp.setattr(
                    _selection, "_sampled_between",
                    lambda p, lo, hi, m, size, rng: (
                        upper[: m // 3] if p.shape[1] > 1 else sampled(p, lo, hi, m, size, rng)
                    ),
                )
            assert median_heuristic(pts) == float(np.median(distances))

    @pytest.mark.parametrize("kind", ["normal", "ties", "tie_at_the_middle", "coincident"])
    def test_chunked_median_over_many_blocks(self, kind):
        # 1000 points make 499 500 pairs, about eight blocks of the upper
        # triangle, so the middle is bracketed from the pair sample.
        rng = np.random.default_rng(5)
        pts = {
            "normal": rng.normal(size=(1000, 2)),
            "ties": rng.integers(0, 4, size=(1000, 1)).astype(float),
            "tie_at_the_middle": np.repeat(rng.normal(size=(4, 3)), [700, 100, 100, 100], axis=0),
            "coincident": np.full((1000, 2), 0.25),
        }[kind]
        assert median_heuristic(pts) == float(np.median(pdist(pts)))

    @pytest.mark.parametrize("n", [256, 257])
    def test_one_block_triangle_is_partitioned_directly(self, n, monkeypatch):
        # The upper triangle of 256 points is one block of 2^16 floats: it is
        # built once and its values above the diagonal are partitioned at
        # the middle ranks, with no pair sample, no generator and no
        # row-block pass.  257 points take two blocks, and the sampled passes.
        pts = np.round(np.random.default_rng(n).normal(size=(n, 3)), 1)
        calls = _recording(monkeypatch, "_count_pass", "_sampled_between")
        assert median_heuristic(pts) == float(np.median(pdist(pts)))
        assert (calls == []) == (n == 256)

    @pytest.mark.parametrize("case", ["rank_at_t2", "ranks_below_t1"])
    def test_exact_pass_settles_ranks_outside_the_kept_values(self, case, monkeypatch):
        # 257 points of d = 3 take the sampled passes.  While the interval
        # is the whole line (the counting pass and its exact repeat) the
        # bracket returns chosen thresholds: t2 at the upper middle value,
        # which the exact pass then returns as that rank, or both
        # thresholds above the middle values, which narrows the interval to
        # (-inf, t1) for the sampled bracket to split.
        pts = np.random.default_rng(3).normal(size=(257, 3))
        distances = pdist(pts, "sqeuclidean")
        m = len(distances)
        ranks = [m // 2 - 1, m // 2]
        ordered = np.sort(distances)
        chosen = {
            "rank_at_t2": (ordered[m // 2 - 50], ordered[m // 2]),
            "ranks_below_t1": (ordered[m // 2 + 50], ordered[m // 2 + 100]),
        }[case]
        intervals, bracket = [], _selection._bracket

        def chosen_first(sample, lo, hi, first, last):
            intervals.append((lo, hi))
            whole = (lo, hi) == (-np.inf, np.inf)
            return chosen if whole else bracket(sample, lo, hi, first, last)

        monkeypatch.setattr(_selection, "_bracket", chosen_first)
        selected = _selection._order_statistics(pts, ranks)
        assert selected == list(np.partition(distances, ranks)[ranks])
        whole = [(-np.inf, np.inf)] * 2
        if case == "rank_at_t2":
            assert intervals == whole and selected[1] == chosen[1]
        else:
            assert intervals[:3] == whole + [(-np.inf, chosen[0])]

    def test_all_identical_raises(self):
        # The median of coincident points is 0.0, as np.median gives it;
        # resolve_bandwidth refuses it as a bandwidth.
        assert median_heuristic([2.0, 2.0, 2.0]) == float(np.median(pdist([[2.0]] * 3))) == 0.0
        with pytest.raises(ValueError, match="median pairwise distance is 0.0"):
            resolve_bandwidth(KernelSpec("gaussian"), [2.0, 2.0, 2.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_heuristic([1.0])

    def test_resolve_replaces_sentinel_only(self):
        sentinel = KernelSpec(KernelFamily.GAUSSIAN)
        resolved = resolve_bandwidth(sentinel, [0.0, 1.0, 3.0])
        assert resolved.bandwidth == 2.0
        concrete = KernelSpec(KernelFamily.LAPLACE, 0.3)
        assert resolve_bandwidth(concrete, [0.0, 1.0]) is concrete

    def test_resolve_refuses_kernels_floats_cannot_compute(self):
        # The largest distance of 1-D points is their range, squared for the
        # Gaussian: the bound is exact, so the widest computable side passes
        # and one ulp wider does not.
        edge = math.sqrt(np.finfo(float).max)  # edge * edge is finite
        gaussian, laplace = KernelSpec("gaussian", 1.0), KernelSpec("laplace", 1e308)
        assert resolve_bandwidth(gaussian, [0.0, edge]) is gaussian
        assert resolve_bandwidth(laplace, [-1e308, 7e307]) is laplace
        refused = [
            (gaussian, [0.0, math.nextafter(edge, math.inf)]),
            (laplace, [-1e308, 8e307]),
            (gaussian, [[0.0, 0.0], [edge, edge]]),  # each squared range finite, their sum not
            (KernelSpec("gaussian", 9.5e153), [0.0, 1.0]),  # 2 sigma^2 overflows
            (KernelSpec("gaussian", 1.35e154), [0.0, 1.0]),  # sigma**2 raises OverflowError
            (KernelSpec("gaussian", 1e-162), [0.0, 1.0]),  # 2 sigma^2 rounds to 0
        ]
        # Every function that computes kernel values refuses them too, with
        # neither a bare OverflowError nor a RuntimeWarning; the population
        # oracle sees each on the x support of a dependent pmf.
        for spec, pts in refused:
            dist = DiscreteJointDistribution(pts, [0.0, 1.0], np.eye(2) / 2.0)
            for compute in (
                lambda: resolve_bandwidth(spec, pts),
                lambda: gram_entries(spec, pts),
                lambda: population_hsic(dist, spec, gaussian),
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ArithmeticError, match="non-finite") as refusal:
                        compute()
                assert type(refusal.value) is ArithmeticError
        linear = KernelSpec("linear")
        assert resolve_bandwidth(linear, [1e300, -1e300]) is linear

    def test_d_above_1_refused_only_where_a_distance_overflows(self, monkeypatch):
        # The summed squared ranges of this diamond, 2 r^2 = 2.88e308,
        # overflow, but its largest squared distance, r^2 = 1.44e308, does
        # not: the side is computable, and its Gram finite.  The cityblock
        # ranges of the wider one sum to inf, its largest distance to
        # 1.6e308.  Two points whose one distance overflows are refused.
        r, w = 1.2e154, 1.6e308
        gaussian, laplace = KernelSpec("gaussian", 5e153), KernelSpec("laplace", 1e308)
        for spec, pts in (
            (gaussian, [[0.0, r / 2], [r, r / 2], [r / 2, 0.0], [r / 2, r]]),
            (laplace, [[0.0, w / 2], [w, w / 2], [w / 2, 0.0], [w / 2, w]]),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert resolve_bandwidth(spec, pts) is spec
                assert np.isfinite(gram_entries(spec, pts)).all()
        for spec, pts in (
            (gaussian, [[0.0, 0.0], [1.34e154, 1.34e154]]),
            (laplace, [[0.0, 0.0], [w, w]]),
        ):
            with pytest.raises(ArithmeticError, match="non-finite"):
                resolve_bandwidth(spec, pts)
        # 1-D points, and d > 1 points whose bound is finite, take no distances.
        monkeypatch.setattr(kernels, "_largest", lambda *args: pytest.fail("distances taken"))
        resolve_bandwidth(gaussian, [[0.0, 0.0], [r, 0.0]])
        with pytest.raises(ArithmeticError, match="non-finite"):
            resolve_bandwidth(KernelSpec("gaussian", 1.0), [0.0, 1.4e154])

    def test_coincident_cloud_is_refused_as_a_bandwidth(self):
        # Points of d = 2, over many blocks: test_chunked_median_over_many_blocks
        # checks their median of 0.0; no median spec takes it.
        pts = np.full((1000, 2), 0.25)
        for family in ("gaussian", "laplace"):
            with pytest.raises(ValueError, match="median pairwise distance is 0.0"):
                resolve_bandwidth(KernelSpec(family), pts)

    @pytest.mark.parametrize("shape", [(5, 1), (400, 1), (5, 3)])
    def test_overflowing_median_is_inf_and_refused(self, shape):
        # The squared distances overflow, as in pdist, without a warning;
        # every door that resolves a median spec refuses the inf median.
        pts = np.random.default_rng(shape[0]).normal(size=shape) * 1e200
        assert median_heuristic(pts) == float(np.median(pdist(pts))) == math.inf
        dist = DiscreteJointDistribution(pts, [0.0, 1.0], np.full((shape[0], 2), 0.5 / shape[0]))
        for spec in (KernelSpec("gaussian"), KernelSpec("laplace")):
            for compute in (
                lambda: resolve_bandwidth(spec, pts),
                lambda: gram_entries(spec, pts),
                lambda: population_hsic(dist, spec, KernelSpec("gaussian", 1.0)),
            ):
                with pytest.raises(ValueError, match="median pairwise distance is inf"):
                    compute()

    @pytest.mark.parametrize("spec", ["gaussian:1.0", "laplace:1.0", "linear"])
    @pytest.mark.parametrize(
        "points", [[0.0, np.nan], [[0.0], [np.inf]], []], ids=["nan", "inf", "empty"]
    )
    def test_resolve_checks_points_as_every_door_does(self, spec, points):
        with pytest.raises(ValueError) as expected:
            as_points(points)
        with pytest.raises(ValueError) as refusal:
            resolve_bandwidth(parse_kernel(spec), points)
        assert type(refusal.value) is ValueError and str(refusal.value) == str(expected.value)


def _tied_across(n_each=700):
    """``n_each`` points at 1e-17 and as many in [-1, -0.5), shuffled.

    For x in [-1, -0.5), 1e-17 - x rounds to -x, so x + sqrt((1e-17 - x)^2)
    is 0: the guessed end of a row at a threshold equal to its value at the
    tied points falls short of all of them.
    """
    pts = np.concatenate([np.linspace(-1.0, -0.5, n_each, endpoint=False), np.full(n_each, 1e-17)])
    np.random.default_rng(0).shuffle(pts)
    return pts


def _one_dimensional(kind, n=1000):
    rng = np.random.default_rng(n)
    tied = 7 * n // 10  # 700 of 1000 points coincide
    return {
        "normal": lambda: rng.normal(size=n),
        "ties": lambda: np.concatenate([np.full(tied, 0.3), rng.normal(size=n - tied)]),
        "tied_across": lambda: _tied_across(n // 2),
        "rounded": lambda: np.round(rng.normal(size=n), 1),
        "sorted": lambda: np.sort(rng.normal(size=n)),
        "reverse_sorted": lambda: np.sort(rng.normal(size=n))[::-1],
        "negative": lambda: -5.0 - rng.exponential(size=n),
        "tiny": lambda: rng.normal(size=n) * 1e-5,
        "large": lambda: rng.normal(size=n) * 1e5,
        "overflowing": lambda: rng.normal(size=n) * 1e200,
        "partly_overflowing": lambda: rng.normal(size=n) * np.where(rng.random(n) < 0.3, 1e200, 1),
    }[kind]()


class TestOneDimensionalMedian:
    """The median of 1-D points: sorted once and counted per row, without a row-block pass."""

    @pytest.fixture
    def no_count_pass(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a 1-D median made a row-block pass")

        monkeypatch.setattr(_selection, "_count_pass", refused)

    @pytest.mark.parametrize(
        "kind",
        [
            "normal", "ties", "tied_across", "rounded", "sorted", "reverse_sorted",
            "negative", "tiny", "large", "overflowing", "partly_overflowing",
        ],
    )
    def test_bitwise_equal_to_numpy_median(self, kind, no_count_pass):
        pts = _one_dimensional(kind)
        with np.errstate(over="ignore"):
            expected = float(np.median(pdist(pts[:, None])))
        assert median_heuristic(pts) == expected
        assert np.isinf(expected) == kind.endswith("overflowing")

    @pytest.mark.parametrize("n", [362, 363])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_at_the_one_block_bound(self, n, decimals, monkeypatch):
        # 362 points make 65 341 pairs, which fit in one block: they are
        # built once and partitioned, with no pair sample and no generator.
        # 363 make 65 703, one block too many, and narrow them from a sample.
        # Both take the sorted points, never a row-block pass; points of
        # three coordinates take the row-block passes at both.
        pts = _one_dimensional("normal", n)
        cloud = np.random.default_rng(n).normal(size=(n, 3))
        if decimals is not None:
            pts, cloud = np.round(pts, decimals), np.round(cloud, decimals)
        calls = _recording(
            monkeypatch, "_sorted_order_statistics", "_count_pass", "_sampled_between"
        )
        assert median_heuristic(pts) == float(np.median(pdist(pts[:, None])))
        assert calls[0] == "_sorted_order_statistics" and "_count_pass" not in calls
        if n == 362:
            assert calls == ["_sorted_order_statistics"]
        else:
            assert "_sampled_between" in calls
        calls.clear()
        assert median_heuristic(cloud) == float(np.median(pdist(cloud)))
        assert "_count_pass" in calls and "_sorted_order_statistics" not in calls

    def test_coincident_points_raise(self, no_count_pass):
        pts = np.full(500, -2.5)
        assert median_heuristic(pts) == float(np.median(pdist(pts[:, None]))) == 0.0
        with pytest.raises(ValueError, match="median pairwise distance is 0.0"):
            resolve_bandwidth(KernelSpec("laplace"), pts)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 40),
        st.sampled_from([None, 0, 1]),
        st.sampled_from([64, 8]),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_small_blocks_and_skewed_samples(self, seed, n, decimals, block, skewed):
        # Blocks of 64 or 8 floats send a few points to the row counts and
        # make them narrow the interval over several passes; a skewed sample
        # (the lowest third of each) misses the rank, so the passes count the
        # values at the thresholds.
        pts = np.random.default_rng(seed).normal(size=n)
        if decimals is not None:
            pts = np.round(pts, decimals)
        sampled = _selection._sampled_between
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_selection, "_BLOCK_FLOATS", block)
            mp.setattr(_selection, "_count_pass", None)  # never called in 1-D
            if skewed:
                mp.setattr(
                    _selection, "_sampled_between",
                    lambda *args: (s := sampled(*args))[: len(s) // 3 + 1],
                )
            assert median_heuristic(pts) == float(np.median(pdist(pts[:, None])))

    def test_skewed_sample_counts_at_a_threshold(self, monkeypatch):
        counts = []
        row_ends, sampled = _selection._row_ends, _selection._sampled_between
        monkeypatch.setattr(
            _selection, "_row_ends",
            lambda s, t, strict: counts.append((t, strict)) or row_ends(s, t, strict),
        )
        monkeypatch.setattr(
            _selection, "_sampled_between", lambda *args: (s := sampled(*args))[: len(s) // 3 + 1]
        )
        pts = _one_dimensional("rounded")
        assert median_heuristic(pts) == float(np.median(pdist(pts[:, None])))
        # Some threshold was counted both below and at or below.
        assert {t for t, strict in counts if strict} & {t for t, strict in counts if not strict}

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("kind", ["rounded", "ties", "tied_across", "partly_overflowing"])
    def test_row_ends_match_a_scan(self, kind, strict):
        s = np.sort(_one_dimensional(kind, 300))
        rows = np.arange(len(s))
        with np.errstate(over="ignore"):
            values = np.square(s[None, :] - s[:, None])
            upper = np.sort(values[np.triu_indices(len(s), 1)])
            for t in (*upper[[0, 7, len(upper) // 2, -1]], 0.0, np.inf):
                counted = (values < t) if strict else (values <= t)
                counted &= rows[None, :] > rows[:, None]
                expected = rows + 1 + counted.sum(axis=1)
                assert np.array_equal(_selection._row_ends(s, t, strict), expected)

    def test_ties_take_logarithmically_many_steps(self, monkeypatch):
        # The guessed ends fall short of the 700 tied points, and are mended
        # in O(log n) vectorised steps, where steps of one would take 700.
        steps = []
        counted, row_ends = _selection._counted, _selection._row_ends

        def counting(*args):
            steps[-1] += 1
            return counted(*args)

        def recording(*args, **kwargs):
            steps.append(0)
            return row_ends(*args, **kwargs)

        monkeypatch.setattr(_selection, "_counted", counting)
        monkeypatch.setattr(_selection, "_row_ends", recording)
        pts = _tied_across()
        assert median_heuristic(pts) == float(np.median(pdist(pts[:, None])))
        assert 10 < max(steps) <= 2 * math.log2(len(pts)) + 2

    def test_count_pass_serves_only_several_dimensions(self, monkeypatch):
        calls = []
        count_pass = _selection._count_pass
        monkeypatch.setattr(
            _selection, "_count_pass", lambda *args: calls.append(args) or count_pass(*args)
        )
        ring = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), 1000)
        median_heuristic(ring.x_points)
        median_heuristic(ring.y_points)
        assert calls == []
        median_heuristic(np.hstack([ring.x_points, ring.y_points]))
        assert calls

    def test_peak_memory_is_linear_in_n(self):
        # 20 000 points make 2e8 pairs; the median holds the sorted points,
        # a few vectors of row ends, a sample of at most n pairs and at most
        # _BLOCK_FLOATS kept values (about 1.7 MB here).  Holding every
        # value of the first bracket took 2.4 M floats (19 MB).
        pts = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), 20_000).x_points
        median_heuristic(pts)
        tracemalloc.start()
        try:
            median_heuristic(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestGram:
    @given(point_clouds(max_points=10), families, bandwidths)
    def test_matches_entrywise_loops(self, pts, family, bw):
        entries = gram_entries(_spec(family, bw), pts)
        expected = oracles.gram_by_loops(family, bw, pts)
        assert np.max(np.abs(entries - expected)) <= 1e-12 * max(
            1.0, np.abs(expected).max()
        )

    @given(point_clouds(max_points=15), families, bandwidths)
    def test_exactly_symmetric(self, pts, family, bw):
        entries = gram_entries(_spec(family, bw), pts)
        assert np.array_equal(entries, entries.T)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 17])
    def test_symmetric_without_mirroring(self, family, d):
        # Earlier versions mirrored the upper triangle into the lower one;
        # on an exactly symmetric Gram that copy changes no bit, so the
        # entries equal those versions' output as well as their transpose.
        for n in (37, 200):
            pts = np.random.default_rng(n + d).normal(size=(n, d)) * 3.0 + 1.0
            entries = gram_entries(_spec(family, 1.3), pts)
            assert np.array_equal(entries, entries.T)
            mirrored = np.triu(entries) + np.triu(entries, 1).T
            assert np.array_equal(mirrored, entries)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_resolved_gram_is_bitwise_the_separate_passes(self, family, d):
        # The Gram gram_entries resolves and builds from a median spec is bit
        # for bit the one of a separate resolve_bandwidth and gram_entries,
        # and the in-place Gaussian equals the out-of-place formula.  The
        # probe of that Gram gives the Helmert-basis eigenvalue to within its
        # tolerance, and any witness attains it.
        for n in (2, 39, 200):
            pts = np.random.default_rng(n * d).normal(size=(n, d)) * 2.0 + 0.5
            spec = resolve_bandwidth(KernelSpec(family), pts)
            entries = gram_entries(spec, pts)
            assert np.array_equal(gram_entries(KernelSpec(family), pts), entries)
            lam, witness = zero_sum_probe(entries)
            tol = _tolerance(entries)
            assert abs(lam - oracles.zero_sum_min_eigenvalue(entries)) <= tol
            if witness is not None:
                _assert_zero_sum_witness(witness, entries, tol)
                assert abs(witness @ entries @ witness - lam) <= tol
            if family == "gaussian":
                formula = np.exp(_distances(pts, squared=True) / (-2.0 * spec.bandwidth**2))
                assert np.array_equal(entries, formula)

    @given(point_clouds(max_points=15), st.sampled_from(["gaussian", "laplace"]), bandwidths)
    def test_unit_diagonal_exact(self, pts, family, bw):
        entries = gram_entries(KernelSpec(family, bw), pts)
        assert np.all(entries.diagonal() == 1.0)

    @given(point_clouds(max_points=12), families, bandwidths)
    def test_psd_within_tolerance(self, pts, family, bw):
        entries = gram_entries(_spec(family, bw), pts)
        # A scale-aware floor: eigenvalue roundoff grows with n * max|entry|.
        tolerance = 1e-8 * entries.shape[0] * np.abs(entries).max()
        assert np.linalg.eigvalsh(entries)[0] >= -tolerance

    def test_one_dim_input_treated_as_scalars(self):
        a = gram_entries(KernelSpec("gaussian", 1.0), [0.0, 1.0])
        b = gram_entries(KernelSpec("gaussian", 1.0), [[0.0], [1.0]])
        assert np.array_equal(a, b)

    def test_requires_resolved_bandwidth(self):
        # The Gram is built with a resolved bandwidth: a median spec is
        # resolved on the points the Gram is built on.
        clouds = ([0.0, 1.0], [[0.0], [1.0], [5.0]], np.random.default_rng(3).normal(size=(40, 2)))
        for spec in (KernelSpec("gaussian"), KernelSpec("laplace")):
            for pts in clouds:
                expected = gram_entries(resolve_bandwidth(spec, pts), pts)
                assert np.array_equal(gram_entries(spec, pts), expected)


def _tolerance(entries):
    """The probe's roundoff tolerance on a Gram: ``8 * m * eps * max|K|``."""
    assert kernels._PROBE_ROUNDOFF == 8.0
    return 8.0 * len(entries) * np.finfo(float).eps * float(np.abs(entries).max())


def _assert_zero_sum_witness(witness, entries, tol):
    """A unit vector, summing to zero within roundoff, whose energy ``c'Kc`` is at most ``tol``."""
    m = len(witness)
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
    assert abs(witness.sum()) <= 2 * m * np.finfo(float).eps
    assert float(witness @ entries @ witness) <= tol


class TestStrictPdWitness:
    """The zero-sum probe, :func:`kernels.zero_sum_probe`.

    It replaced the strict positive-definiteness witness, which asked
    ``c'Kc > 0`` of every c rather than of zero-sum c; the class keeps that
    probe's name so that its tests keep their ids.  Frozen eigenvalues are
    the oracle's, over a hand-written Helmert basis.
    """

    def test_gaussian_frozen_eigenvalues(self):
        lam, witness = zero_sum_probe(gram_entries(KernelSpec("gaussian", 1.0), [0.0, 1.0]))
        assert witness is None
        assert lam == pytest.approx(oracles.ZERO_SUM_MIN_GAUSS_01, abs=1e-12)
        lam, witness = zero_sum_probe(gram_entries(KernelSpec("gaussian", 1.0), [0.0, 1.0, 2.0]))
        assert witness is None
        assert lam == pytest.approx(oracles.ZERO_SUM_MIN_GAUSS_012, abs=1e-12)

    def test_laplace_frozen_eigenvalue(self):
        lam, witness = zero_sum_probe(gram_entries(KernelSpec("laplace", 1.0), [0.0, 1.0, 2.0]))
        assert witness is None
        assert lam == pytest.approx(oracles.ZERO_SUM_MIN_LAPLACE_012, abs=1e-12)

    def test_linear_fails_with_valid_witness(self):
        # K = x x' on x = (-1, 0, 1): the one unit zero-sum c orthogonal to
        # x is +-(1, -2, 1) / sqrt(6).
        entries = gram_entries(KernelSpec("linear"), [[-1.0], [0.0], [1.0]])
        lam, witness = zero_sum_probe(entries)
        assert witness is not None
        _assert_zero_sum_witness(witness, entries, _tolerance(entries))
        assert float(witness @ entries @ witness) == pytest.approx(lam, abs=1e-12)
        assert np.abs(witness) == pytest.approx(np.array([1.0, 2.0, 1.0]) / np.sqrt(6.0), abs=1e-15)

    @given(point_clouds(min_points=3, max_points=8, max_dim=1))
    def test_linear_on_the_line_never_characteristic(self, pts):
        # The linear feature space on scalars is one dimensional, so any
        # Gram matrix on 3+ points has a zero-sum null direction.
        entries = gram_entries(KernelSpec("linear"), pts)
        _, witness = zero_sum_probe(entries)
        assert witness is not None
        _assert_zero_sum_witness(witness, entries, _tolerance(entries))

    def test_median_sentinel_resolved_internally(self):
        # gram_entries resolves the median; the probe reads its Gram.
        assert zero_sum_probe(gram_entries(KernelSpec("gaussian"), [0.0, 1.0, 5.0]))[1] is None

    def test_two_distance_passes_for_a_median_gaussian(self, monkeypatch):
        # The median bandwidth is selected in one distance pass over the
        # upper triangle, and the Gram is built in a second.  Both passes
        # compute their distances by _selection._difference, once per
        # coordinate: once per pass for these 1-D points.  The probe takes
        # the Gram and computes no distance.
        calls = []
        difference = _selection._difference
        monkeypatch.setattr(
            _selection,
            "_difference",
            lambda a, b, squared, out: calls.append(squared) or difference(a, b, squared, out),
        )
        entries = gram_entries(KernelSpec("gaussian"), [0.0, 1.0, 5.0])
        assert zero_sum_probe(entries)[1] is None
        assert calls == [True, True]

    def test_singular_gram_need_not_mean_non_characteristic(self):
        # The linear Gram on {0, 1} is singular, but its null direction
        # (1, 0) has mass 1, so it is no pair of distributions.  The only
        # zero-sum direction, (1, -1)/sqrt(2), has c'Kc = 0.5 > 0: the
        # kernel separates the distributions on {0, 1}.
        entries = gram_entries(KernelSpec("linear"), [0.0, 1.0])
        eigenvalues, eigenvectors = np.linalg.eigh(entries)
        assert eigenvalues[0] == 0.0
        assert np.abs(eigenvectors[:, 0]) == pytest.approx([1.0, 0.0], abs=1e-15)
        lam, witness = zero_sum_probe(entries)
        assert lam == pytest.approx(0.5, abs=1e-15)
        assert witness is None

    def test_repeated_support_point_is_a_witness(self):
        # The probe needs distinct points: two copies of one point are one
        # distribution, and their difference, +-(1, -1, 0)/sqrt(2), is a
        # zero-sum null direction of the Gram.
        entries = gram_entries(KernelSpec("gaussian", 1.0), [1.0, 1.0, 2.0])
        lam, witness = zero_sum_probe(entries)
        assert abs(lam) <= _tolerance(entries)
        assert np.abs(witness) == pytest.approx(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), abs=1e-12)

    def test_single_point_with_concrete_bandwidth(self):
        # One point has no zero-sum direction: nothing can fail.
        assert zero_sum_probe(gram_entries(KernelSpec("gaussian", 1.0), [3.0])) == (math.inf, None)

    def test_single_point_with_sentinel_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            gram_entries(KernelSpec("gaussian"), [3.0])
