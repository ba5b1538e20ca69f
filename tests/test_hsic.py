"""Population HSIC oracle, the biased estimator, and their data types."""

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
    discrete_ring,
    hsic_biased,
    population_hsic,
    resolve_bandwidth,
    sample,
    theta,
)
from hsictest.hsic import centered_gram_entries

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

    def test_requires_resolved_kernels(self):
        with pytest.raises(ValueError, match="unresolved"):
            population_hsic(discrete_ring(), KernelSpec("gaussian"), GAUSS1)

    def test_overflow_raises(self):
        # The linear Gram of 1e200 overflows to inf and the quadruple sum to NaN.
        points = [1e200, -1e200, 3e200]
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
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(6, 1)), np.full((6, 1), 3.0))
        assert hsic_biased(d, GAUSS1, GAUSS1).raw == 0.0
        assert hsic_biased(d, GAUSS1, LINEAR).raw == 0.0

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
