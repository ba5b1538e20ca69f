"""Kernel evaluation, bandwidth resolution, Gram assembly, strict-pd probing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

import oracles
from hsictest import (
    MEDIAN_BANDWIDTH,
    AllPointsIdenticalError,
    GramMatrix,
    KernelFamily,
    KernelSpec,
    gram,
    kernel_eval,
    median_heuristic,
    parse_kernel,
    resolve_bandwidth,
    strict_pd_witness,
)
from hsictest.kernels import _pairwise, as_points, gram_entries, psd_tolerance, spd_tolerance

coords = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
bandwidths = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
families = st.sampled_from(["gaussian", "laplace", "linear"])


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
            ("linear", KernelFamily.LINEAR, MEDIAN_BANDWIDTH),
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
    def test_claimed_characteristic_follows_family(self):
        assert KernelSpec(KernelFamily.GAUSSIAN).claimed_characteristic
        assert KernelSpec(KernelFamily.LAPLACE).claimed_characteristic
        assert not KernelSpec(KernelFamily.LINEAR).claimed_characteristic

    def test_is_resolved(self):
        assert not KernelSpec(KernelFamily.GAUSSIAN).is_resolved
        assert KernelSpec(KernelFamily.GAUSSIAN, 1.0).is_resolved
        # The linear kernel has no bandwidth to resolve.
        assert KernelSpec(KernelFamily.LINEAR).is_resolved

    def test_accepts_family_by_string(self):
        assert KernelSpec("laplace", 1.0).family is KernelFamily.LAPLACE


class TestKernelEval:
    @given(vector_pairs(), families, bandwidths)
    def test_matches_scalar_formulas(self, pair, family, bw):
        x, y = pair
        spec = KernelSpec(family, bw)
        expected = oracles.kernel_value(family, bw, x, y)
        assert kernel_eval(spec, x, y) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(vector_pairs(), families, bandwidths)
    def test_symmetric_exactly(self, pair, family, bw):
        x, y = pair
        spec = KernelSpec(family, bw)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)

    @given(vector_pairs(), st.sampled_from(["gaussian", "laplace"]), bandwidths)
    def test_bounded_and_one_on_diagonal(self, pair, family, bw):
        x, _ = pair
        spec = KernelSpec(family, bw)
        assert kernel_eval(spec, x, x) == 1.0
        # Positive in exact arithmetic; far pairs may underflow to 0.0.
        value = kernel_eval(spec, *pair)
        assert 0.0 <= value <= 1.0

    def test_requires_resolved_bandwidth(self):
        with pytest.raises(ValueError, match="unresolved"):
            kernel_eval(KernelSpec(KernelFamily.GAUSSIAN), 0.0, 1.0)

    def test_dimension_mismatch(self):
        spec = KernelSpec(KernelFamily.LINEAR)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_eval(spec, [1.0, 2.0], [1.0])


class TestAsPoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_points([[0.0, 1.0], [bad, 2.0]])


class TestPairwiseDistances:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_equal_to_scipy(self, d):
        # The column-by-column sum reproduces scipy's summation order exactly,
        # so bandwidths and Grams are unchanged from the scipy-backed code.
        pts = np.random.default_rng(d).normal(scale=3.0, size=(40, d))
        assert np.array_equal(_pairwise(pts, squared=True), cdist(pts, pts, "sqeuclidean"))
        assert np.array_equal(_pairwise(pts, squared=False), cdist(pts, pts, "cityblock"))
        upper = _pairwise(pts, squared=True)[np.triu_indices(len(pts), 1)]
        assert np.array_equal(np.sqrt(upper), pdist(pts))
        assert median_heuristic(pts) == float(np.median(pdist(pts)))


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

    def test_all_identical_raises(self):
        with pytest.raises(AllPointsIdenticalError):
            median_heuristic([2.0, 2.0, 2.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_heuristic([1.0])

    def test_resolve_replaces_sentinel_only(self):
        sentinel = KernelSpec(KernelFamily.GAUSSIAN)
        resolved = resolve_bandwidth(sentinel, [0.0, 1.0, 3.0])
        assert resolved.bandwidth == 2.0
        concrete = KernelSpec(KernelFamily.LAPLACE, 0.3)
        assert resolve_bandwidth(concrete, [0.0, 1.0]) is concrete


class TestGram:
    @given(point_clouds(max_points=10), families, bandwidths)
    def test_matches_entrywise_loops(self, pts, family, bw):
        entries = gram_entries(KernelSpec(family, bw), pts)
        expected = oracles.gram_by_loops(family, bw, pts)
        assert np.max(np.abs(entries - expected)) <= 1e-12 * max(
            1.0, np.abs(expected).max()
        )

    @given(point_clouds(max_points=15), families, bandwidths)
    def test_exactly_symmetric(self, pts, family, bw):
        entries = gram_entries(KernelSpec(family, bw), pts)
        assert np.array_equal(entries, entries.T)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 17])
    def test_symmetric_without_mirroring(self, family, d):
        # Earlier versions mirrored the upper triangle into the lower one;
        # on an exactly symmetric Gram that copy changes no bit, so the
        # entries equal those versions' output as well as their transpose.
        for n in (37, 200):
            pts = np.random.default_rng(n + d).normal(size=(n, d)) * 3.0 + 1.0
            entries = gram_entries(KernelSpec(family, 1.3), pts)
            assert np.array_equal(entries, entries.T)
            mirrored = np.triu(entries) + np.triu(entries, 1).T
            assert np.array_equal(mirrored, entries)

    @given(point_clouds(max_points=15), st.sampled_from(["gaussian", "laplace"]), bandwidths)
    def test_unit_diagonal_exact(self, pts, family, bw):
        entries = gram_entries(KernelSpec(family, bw), pts)
        assert np.all(entries.diagonal() == 1.0)

    @given(point_clouds(max_points=12), families, bandwidths)
    def test_psd_within_tolerance(self, pts, family, bw):
        matrix = gram(KernelSpec(family, bw), pts)
        assert matrix.min_eigenvalue() >= -psd_tolerance(matrix.entries)

    def test_one_dim_input_treated_as_scalars(self):
        a = gram_entries(KernelSpec("gaussian", 1.0), [0.0, 1.0])
        b = gram_entries(KernelSpec("gaussian", 1.0), [[0.0], [1.0]])
        assert np.array_equal(a, b)

    def test_requires_resolved_bandwidth(self):
        with pytest.raises(ValueError, match="unresolved"):
            gram_entries(KernelSpec(KernelFamily.LAPLACE), [[0.0], [1.0]])

    def test_gram_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            GramMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            GramMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_entries_read_only(self):
        matrix = gram(KernelSpec("gaussian", 1.0), [[0.0], [1.0]])
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 2.0


class TestStrictPdWitness:
    def test_gaussian_frozen_eigenvalues(self):
        w = strict_pd_witness(KernelSpec("gaussian", 1.0), [0.0, 1.0])
        assert w.strictly_pd
        assert w.witness is None
        assert w.min_eigenvalue == pytest.approx(oracles.LAM_MIN_GAUSS_01, abs=1e-12)
        w = strict_pd_witness(KernelSpec("gaussian", 1.0), [0.0, 1.0, 2.0])
        assert w.min_eigenvalue == pytest.approx(oracles.LAM_MIN_GAUSS_012, abs=1e-12)

    def test_laplace_frozen_eigenvalue(self):
        w = strict_pd_witness(KernelSpec("laplace", 1.0), [0.0, 1.0, 2.0])
        assert w.strictly_pd
        assert w.min_eigenvalue == pytest.approx(oracles.LAM_MIN_LAPLACE_012, abs=1e-12)

    def test_linear_fails_with_valid_witness(self):
        pts = np.array([[-1.0], [0.0], [1.0]])
        w = strict_pd_witness(KernelSpec("linear"), pts)
        assert not w.strictly_pd
        assert w.witness is not None
        assert np.linalg.norm(w.witness) == pytest.approx(1.0, abs=1e-12)
        entries = gram_entries(KernelSpec("linear"), pts)
        energy = float(w.witness @ entries @ w.witness)
        assert energy <= w.tolerance
        assert energy == pytest.approx(w.min_eigenvalue, abs=1e-12)
        assert w.tolerance == spd_tolerance(entries)

    @given(point_clouds(min_points=3, max_points=8, max_dim=1))
    def test_linear_on_the_line_never_strictly_pd(self, pts):
        # The linear feature space on scalars is one dimensional, so any
        # Gram matrix on 3+ points has a null direction.
        w = strict_pd_witness(KernelSpec("linear"), pts)
        assert not w.strictly_pd
        assert w.witness is not None

    def test_median_sentinel_resolved_internally(self):
        w = strict_pd_witness(KernelSpec("gaussian"), [0.0, 1.0, 5.0])
        assert w.strictly_pd

    def test_duplicate_support_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            strict_pd_witness(KernelSpec("gaussian", 1.0), [1.0, 1.0, 2.0])

    def test_single_point_with_concrete_bandwidth(self):
        w = strict_pd_witness(KernelSpec("gaussian", 1.0), [3.0])
        assert w.strictly_pd
        assert w.min_eigenvalue == pytest.approx(1.0)

    def test_single_point_with_sentinel_rejected(self):
        with pytest.raises(ValueError, match="single support point"):
            strict_pd_witness(KernelSpec("gaussian"), [3.0])
