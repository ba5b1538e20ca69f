"""Population HSIC oracle, the biased estimator, and their data types."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hsictest import (
    Dataset,
    DiscreteJointDistribution,
    Estimator,
    GeneratorKind,
    GeneratorSpec,
    HsicValue,
    KernelSpec,
    PermutationConfig,
    discrete_ring,
    hsic_biased,
    permutation_test,
    population_hsic,
    resolve_bandwidth,
    sample,
    theta,
)
from hsictest import _selection, hsic, testing
from hsictest.hsic import centered_gram_entries, centered_side

GAUSS1 = KernelSpec("gaussian", 1.0)
LAPLACE1 = KernelSpec("laplace", 1.0)
LINEAR = KernelSpec("linear")

kernel_choices = st.sampled_from(
    [("gaussian", 1.0), ("gaussian", 0.5), ("laplace", 0.7), ("linear", None)]
)


def _spec(family, bandwidth):
    return KernelSpec(family) if family == "linear" else KernelSpec(family, bandwidth)


@st.composite
def discrete_distributions(draw):
    m_x = draw(st.integers(1, 3))
    m_y = draw(st.integers(1, 3))
    counts = draw(
        st.lists(st.integers(0, 5), min_size=m_x * m_y, max_size=m_x * m_y).filter(
            lambda c: sum(c) > 0
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pmf = np.array(counts, dtype=float).reshape(m_x, m_y) / sum(counts)
    x_support = rng.normal(size=(m_x, draw(st.integers(1, 2))))
    y_support = rng.normal(size=(m_y, draw(st.integers(1, 2))))
    return DiscreteJointDistribution(x_support, y_support, pmf)


@st.composite
def paired_samples(draw, max_n=12):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, draw(st.integers(1, 2))))
    y = rng.normal(size=(n, draw(st.integers(1, 2))))
    return Dataset(x, y)


class TestHsicValue:
    def test_clamps_tiny_negative_roundoff(self):
        v = HsicValue.from_raw(-1e-15, Estimator.BIASED_V)
        assert v.value == 0.0
        assert v.raw == -1e-15

    def test_keeps_genuinely_negative(self):
        v = HsicValue.from_raw(-1e-6, Estimator.BIASED_V)
        assert v.value == -1e-6

    def test_clamp_band_scales(self):
        v = HsicValue.from_raw(-5e-10, Estimator.BIASED_V, scale=1e3)
        assert v.value == 0.0

    def test_positive_passthrough(self):
        v = HsicValue.from_raw(0.25, Estimator.POPULATION_EXACT)
        assert v.value == 0.25
        assert v.estimator is Estimator.POPULATION_EXACT

    def test_scale_floor_is_one(self):
        assert HsicValue.from_raw(1.0, Estimator.BIASED_V, scale=1e-6).scale == 1.0

    @pytest.mark.parametrize("raw", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises(self, raw):
        with pytest.raises(ArithmeticError, match="non-finite"):
            HsicValue.from_raw(raw, Estimator.BIASED_V)


class TestDataset:
    def test_pairing_enforced(self):
        with pytest.raises(ValueError, match="pair up"):
            Dataset(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_scalar_sequences_become_columns(self):
        d = Dataset([1.0, 2.0], [3.0, 4.0])
        assert d.x_points.shape == (2, 1)
        assert d.n == 2

    def test_points_read_only(self):
        d = Dataset([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            d.x_points[0, 0] = 7.0

    def test_caller_arrays_stay_writable(self):
        x, y = np.zeros((3, 2)), np.ones((3, 1))
        d = Dataset(x, y)
        x[0, 0] = 5.0
        y[1, 0] = 6.0
        assert d.x_points[0, 0] == 0.0 and d.y_points[1, 0] == 1.0
        support = np.array([[0.0], [1.0]])
        pmf = np.full((2, 2), 0.25)
        dist = DiscreteJointDistribution(support, support, pmf)
        support[0, 0] = -1.0
        pmf[0, 0] = 0.5
        assert dist.x_support[0, 0] == 0.0 and dist.pmf[0, 0] == 0.25


class TestDiscreteJointDistribution:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="pmf shape"):
            DiscreteJointDistribution([0.0, 1.0], [0.0, 1.0], np.full((3, 2), 1 / 6))

    def test_negative_mass(self):
        pmf = np.array([[0.75, 0.35], [-0.1, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteJointDistribution([0.0, 1.0], [0.0, 1.0], pmf)

    def test_nan_mass(self):
        pmf = np.array([[0.5, np.nan], [0.25, 0.25]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            DiscreteJointDistribution([0.0, 1.0], [0.0, 1.0], pmf)

    def test_total_mass(self):
        pmf = np.full((2, 2), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteJointDistribution([0.0, 1.0], [0.0, 1.0], pmf)

    def test_duplicate_support_points(self):
        pmf = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="distinct"):
            DiscreteJointDistribution([1.0, 1.0], [0.0, 1.0], pmf)

    def test_marginals(self):
        ring = discrete_ring()
        assert np.allclose(ring.x_marginal, [0.25, 0.5, 0.25])
        assert np.allclose(ring.y_marginal, [0.25, 0.5, 0.25])


class TestTheta:
    @given(discrete_distributions())
    def test_rows_and_columns_sum_to_zero(self, dist):
        t = theta(dist)
        assert np.abs(t.sum(axis=0)).max() <= 1e-14
        assert np.abs(t.sum(axis=1)).max() <= 1e-14

    def test_vanishes_on_products(self):
        a = np.array([0.2, 0.5, 0.3])
        b = np.array([0.4, 0.6])
        dist = DiscreteJointDistribution(
            [0.0, 1.0, 2.0], [0.0, 1.0], np.outer(a, b)
        )
        assert np.abs(theta(dist)).max() <= 1e-15

    def test_ring_theta_magnitude(self):
        assert np.abs(theta(discrete_ring())).max() == oracles.RING_MAX_ABS_THETA


class TestPopulationHsic:
    @given(discrete_distributions(), kernel_choices, kernel_choices)
    @settings(max_examples=60)
    def test_matches_quadruple_sum(self, dist, kx, ky):
        expected = oracles.quadruple_sum_hsic(
            dist.x_support, dist.y_support, dist.pmf, kx, ky
        )
        got = population_hsic(dist, _spec(*kx), _spec(*ky))
        assert got.raw == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_product_distribution_is_numerically_zero(self):
        a = np.array([0.2, 0.5, 0.3])
        b = np.array([0.4, 0.6])
        dist = DiscreteJointDistribution(
            [0.0, 1.0, 2.0], [0.0, 1.0], np.outer(a, b)
        )
        # theta carries only outer-product roundoff, so the value sits at
        # the square of that roundoff, far below any dependence signal.
        assert population_hsic(dist, GAUSS1, GAUSS1).value < 1e-30

    def test_ring_frozen_values(self):
        ring = discrete_ring()
        blind = population_hsic(ring, GAUSS1, LINEAR)
        assert blind.raw == 0.0
        assert blind.value == 0.0
        seeing = population_hsic(ring, GAUSS1, GAUSS1)
        assert seeing.value == pytest.approx(oracles.RING_GAUSS_GAUSS, abs=1e-15)
        assert seeing.value > 1e-6
        laplace = population_hsic(ring, LAPLACE1, LAPLACE1)
        assert laplace.value == pytest.approx(oracles.RING_LAPLACE_LAPLACE, abs=1e-15)

    def test_median_resolved_over_the_supports(self):
        # As the oracle sweep resolves it: once on each support.
        dist = DiscreteJointDistribution(
            [0.0, 1.0, 5.0], [[0.0, 0.0], [2.0, 1.0], [3.0, 3.0]], np.eye(3) / 3.0
        )
        median = KernelSpec("gaussian")
        kx = resolve_bandwidth(median, dist.x_support)
        ky = resolve_bandwidth(median, dist.y_support)
        assert (kx.bandwidth, ky.bandwidth) == (4.0, np.sqrt(5.0))
        assert population_hsic(dist, median, median) == population_hsic(dist, kx, ky)

    def test_overflow_raises(self):
        # The linear Gram of 1e200 overflows to inf.  That of 1e153 is
        # finite, but the quadruple sum and the scale overflow: refused
        # too, with no RuntimeWarning on the way.
        for points in ([1e200, -1e200, 3e200], [1e153, -1e153, 1.3e153]):
            dist = DiscreteJointDistribution(points, points, np.eye(3) / 3.0)
            with pytest.raises(ArithmeticError, match="non-finite"):
                population_hsic(dist, LINEAR, LINEAR)

    def test_estimator_tag(self):
        value = population_hsic(discrete_ring(), GAUSS1, GAUSS1)
        assert value.estimator is Estimator.POPULATION_EXACT


class TestBiasedEstimator:
    def test_n2_closed_form(self):
        assert oracles.N2_CLOSED_FORM == oracles.N2_CLOSED_FORM_VALUE
        d = Dataset([0.0, 1.0], [0.0, 1.0])
        got = hsic_biased(d, GAUSS1, GAUSS1)
        assert got.value == pytest.approx(oracles.N2_CLOSED_FORM, abs=1e-15)

    @given(paired_samples(), kernel_choices, kernel_choices)
    @settings(max_examples=60)
    def test_matches_centered_double_sum(self, data, kx, ky):
        expected = oracles.centered_double_sum_hsic(
            data.x_points, data.y_points, kx, ky
        )
        got = hsic_biased(data, _spec(*kx), _spec(*ky))
        assert got.raw == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_constant_side_is_exactly_zero(self):
        # 3.7 repeated six times does not center exactly under a linear
        # kernel; the roundoff residue is cleared, not reported.
        rng = np.random.default_rng(0)
        for constant in (3.0, 3.7):
            d = Dataset(rng.normal(size=(6, 1)), np.full((6, 1), constant))
            assert hsic_biased(d, GAUSS1, GAUSS1).raw == 0.0
            assert hsic_biased(d, GAUSS1, LINEAR).raw == 0.0

    def test_two_distance_passes_per_median_side(self, monkeypatch):
        # Each side of 7 points selects its median bandwidth in one distance
        # pass over the upper triangle, then builds its Gram in a second.
        # Both passes compute their distances by _selection._difference,
        # once per coordinate: once per pass for these 1-D sides.
        calls = []
        difference = _selection._difference
        monkeypatch.setattr(
            _selection,
            "_difference",
            lambda a, b, squared, out: calls.append(squared) or difference(a, b, squared, out),
        )
        gm = KernelSpec("gaussian")
        d = Dataset(np.arange(7.0), np.arange(7.0) ** 2)
        assert hsic_biased(d, gm, gm).raw > 0.0
        assert calls == [True, True, True, True]

    def test_no_full_abs_pass(self, abs_shapes):
        # centered_side takes max|HKH| as max(max, -min), with no n x n abs
        # temporary, and returns it with the Gram; the statistic's scale
        # does not rescan the Grams.  Below the cutoff both sides are Grams.
        n = testing.TAKE_MIN_N - 1
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), n)
        gm = KernelSpec("gaussian")
        hsic_biased(d, gm, gm)
        assert abs_shapes.count((n, n)) == 0

    def test_median_resolution_matches_manual(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)))
        auto = hsic_biased(d, KernelSpec("gaussian"), KernelSpec("laplace"))
        kx = resolve_bandwidth(KernelSpec("gaussian"), d.x_points)
        ky = resolve_bandwidth(KernelSpec("laplace"), d.y_points)
        manual = hsic_biased(d, kx, ky)
        assert auto == manual

    @given(paired_samples(max_n=10), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_joint_relabeling_invariance(self, data, seed):
        # Shuffling the pair order relabels the sample; the statistic only
        # moves by summation-order roundoff.
        perm = np.random.default_rng(seed).permutation(data.n)
        shuffled = Dataset(data.x_points[perm], data.y_points[perm])
        a = hsic_biased(data, GAUSS1, LAPLACE1)
        b = hsic_biased(shuffled, GAUSS1, LAPLACE1)
        assert b.raw == pytest.approx(a.raw, abs=1e-12)

    def test_nontrivial_value_positive(self):
        d = Dataset([0.0, 1.0, 2.0], [0.0, 1.5, 0.5])
        assert hsic_biased(d, GAUSS1, GAUSS1).value > 0.0

    def test_overflow_raises(self):
        # The linear Gram of 1e200 overflows and the centered sum is NaN.
        points = [1e200, -1e200, 3e200]
        with pytest.raises(ArithmeticError, match="non-finite"):
            hsic_biased(Dataset(points, points), LINEAR, LINEAR)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            hsic_biased(Dataset([1.0], [2.0]), GAUSS1, GAUSS1)

    @pytest.mark.parametrize(
        "ky", [KernelSpec("gaussian"), LINEAR, KernelSpec("laplace")], ids=KernelSpec.describe
    )
    @pytest.mark.parametrize("n", [8, 39, 40, 200, 257, 300, 1000])
    def test_is_the_permutation_tests_statistic(self, n, ky):
        # Dense below the cutoff, factored from it on (Laplace stays dense,
        # and from n = 257 is reduced in several row blocks): either way the
        # whole HsicValue is the test's, bit for bit.  Against sum(HKH * HLH)
        # / n^2, summed in the dense null's row blocks, it is exact on the
        # dense path and within each side's truncation, 2 n eps scale, on
        # the factored one.
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=n), n)
        gm = KernelSpec("gaussian")
        test = permutation_test(d, gm, ky, PermutationConfig(9, 0.05, 0))
        value = hsic_biased(d, gm, ky)
        assert value == test.statistic
        _, kc, kc_max, _ = centered_side(gm, d.x_points)
        _, lc, lc_max, _ = centered_side(ky, d.y_points)
        reference = oracles.row_block_statistic(kc, lc, _selection._block_rows(n))
        assert value.scale == max(kc_max * lc_max, 1.0)
        if n < testing.TAKE_MIN_N or ky.family == "laplace":
            assert value.raw == reference
        else:
            assert abs(value.raw - reference) <= 2 * n * np.finfo(float).eps * value.scale

    @pytest.mark.parametrize("n", [8, 60])
    def test_is_the_tests_statistic_on_ties_and_constants(self, n):
        # An identity Gram (points 1 apart under gaussian:0.02) and a
        # constant side, each on either side of the cutoff.
        ring = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=n), n).y_points
        cases = [
            (Dataset(np.arange(n), ring), KernelSpec("gaussian", 0.02), KernelSpec("gaussian")),
            (Dataset(ring, np.full(n, 3.7)), KernelSpec("gaussian"), LINEAR),
        ]
        for d, kx, ky in cases:
            test = permutation_test(d, kx, ky, PermutationConfig(9, 0.05, 0))
            assert hsic_biased(d, kx, ky) == test.statistic

    def test_factored_ring_builds_no_centered_gram(self, monkeypatch):
        def refused(*args):
            raise AssertionError("centered_side called")

        for module in (hsic, testing):
            monkeypatch.setattr(module, "centered_side", refused)
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), 200)
        gm = KernelSpec("gaussian")
        assert hsic_biased(d, gm, gm).value > 1e-3

    def test_dense_input_over_the_budget_refused_before_any_gram(self, monkeypatch):
        # A Laplace y does not factor, so the two Grams would be dense; with
        # a budget of one Gram the input is refused before either is built.
        n = 600
        built = []
        side = testing.centered_side
        for module in (hsic, testing):
            monkeypatch.setattr(module, "centered_side", lambda *a: built.append(a) or side(*a))
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", 8 * n * n)
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), n)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memory budget"):
                hsic_biased(d, KernelSpec("gaussian"), KernelSpec("laplace"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 8 * n * n

    def test_dense_input_within_two_grams_is_computed(self, monkeypatch):
        # hsic_biased runs no null, so it reserves no null workspace: a
        # budget of exactly its two Grams holds it.  Its value is the dense
        # null's identity replicate, summed in row blocks of 109 rows.
        n = 600
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", 2 * 8 * n * n)
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0), n)
        gm, lm = KernelSpec("gaussian"), KernelSpec("laplace")
        kc, lc = centered_gram_entries(gm, d.x_points), centered_gram_entries(lm, d.y_points)
        assert hsic_biased(d, gm, lm).raw == oracles.row_block_statistic(kc, lc, 109)

    def test_centered_gram_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(15, 2))
        kc = centered_gram_entries(GAUSS1, pts)
        assert np.abs(kc.sum(axis=0)).max() <= 1e-12
        assert np.abs(kc.sum(axis=1)).max() <= 1e-12

    def test_drifts_to_zero_for_independent_data(self):
        # Biased V-statistic bias is O(1/n): the estimate at n=1024 must sit
        # well below the n=64 one and near zero in absolute terms.
        gm = KernelSpec("gaussian")
        for seed in (0, 1, 2):
            values = [
                hsic_biased(
                    sample(
                        GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, seed=seed), n
                    ),
                    gm,
                    gm,
                ).value
                for n in (64, 1024)
            ]
            assert values[1] < values[0]
            assert values[1] < 0.005

    def test_stabilizes_at_positive_level_on_ring(self):
        gm = KernelSpec("gaussian")
        for seed in (0, 1, 2):
            d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=seed), 512)
            assert hsic_biased(d, gm, gm).value > 1e-3


class TestCenteredSide:
    @pytest.mark.parametrize(
        "spec", [KernelSpec("gaussian"), KernelSpec("laplace"), LINEAR], ids=KernelSpec.describe
    )
    def test_scale_is_the_max_abs_entry_bitwise(self, spec):
        pts = np.random.default_rng(3).normal(size=(50, 2))
        _, kc, scale, _ = centered_side(spec, pts)
        assert type(scale) is float
        assert scale > 0.0
        assert scale == float(np.abs(kc).max())

    def test_constant_side_has_scale_zero(self):
        # 3.7 does not center exactly under a linear kernel; the residue is
        # cleared and the scale reports the cleared Gram.
        _, kc, scale, _ = centered_side(LINEAR, np.full((6, 1), 3.7))
        assert scale == 0.0
        assert not kc.any()


def _stack(n, d, seed):
    """Seven samples of n points: normal, rounded (tied distances), spread, tight, and three more."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(7, n, d))
    stack[1] = np.round(stack[1], 1)
    stack[2] *= 1e3  # a Gaussian of small bandwidth sees the identity here
    stack[3] *= 1e-3
    return stack


class TestStackedSides:
    """A stack of samples builds each sample's side as it is built alone, bit for bit."""

    SPECS = [
        KernelSpec("gaussian"), KernelSpec("laplace"), LINEAR, KernelSpec("gaussian", 0.5),
        KernelSpec("laplace", 2.0), KernelSpec("gaussian", 1e-3), KernelSpec("gaussian", 1e9),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=KernelSpec.describe)
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 8, 39, 200])
    def test_each_sample_is_its_own_side(self, n, d, spec):
        # Up to n = 181 a block holds whole samples; at 200 it holds rows
        # of one sample.
        stack = _stack(n, d, seed=n * d)
        specs, out, scales, ties = centered_side(spec, stack)
        assert out.shape == (7, n, n) and scales.shape == ties.shape == (7,)
        for t, pts in enumerate(stack):
            alone, kc, scale, tied = centered_side(spec, pts)
            assert specs[t] == alone
            assert out[t].tobytes() == kc.tobytes()
            assert scales[t] == scale and ties[t] == tied

    def test_a_stack_holds_tied_and_constant_samples(self):
        stack = _stack(8, 1, seed=1)
        stack[4] = 3.7  # every point the same: a constant linear side
        _, out, scales, _ = centered_side(LINEAR, stack)
        assert scales[4] == 0.0 and not out[4].any() and (scales[:4] > 0.0).all()
        *_, ties = centered_side(KernelSpec("gaussian", 1e-3), stack)
        assert ties[2] and not ties[3]

    def test_the_first_refused_sample_raises(self):
        # Sample 2's median is 0 and sample 5's inf: sample 2 is refused,
        # with the message its own side gives.
        stack = _stack(8, 1, seed=2)
        stack[2, :6] = 0.5
        stack[5] *= 1e300
        with pytest.raises(ValueError) as alone:
            centered_side(KernelSpec("gaussian"), stack[2])
        with pytest.raises(ValueError) as stacked:
            centered_side(KernelSpec("gaussian"), stack)
        assert str(stacked.value) == str(alone.value)
        assert "median pairwise distance is 0.0" in str(alone.value)
        with pytest.raises(ArithmeticError):  # the float limits, per sample
            centered_side(KernelSpec("gaussian", 1.0), stack)
        stack[6, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            centered_side(LINEAR, stack)
