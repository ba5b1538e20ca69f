"""Samplers, the discrete ring, and simplex-grid enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hsictest import (
    GeneratorKind,
    GeneratorSpec,
    KernelSpec,
    PermutationConfig,
    discrete_ring,
    enumerate_discrete,
    integer_supports,
    permutation_test,
    sample,
    theta,
)
from hsictest import datagen


class TestGeneratorSpec:
    def test_kind_by_string(self):
        spec = GeneratorSpec("ring_uniform")
        assert spec.kind is GeneratorKind.RING_UNIFORM

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(radius=0.0), "radius"),
            (dict(radius=-1.0), "radius"),
            (dict(noise=-0.1), "noise"),
            (dict(dim_x=0), "dim"),
            (dict(angle=7.0), "angle"),
            (dict(radius=float("nan")), "radius"),
            (dict(radius=float("inf")), "radius"),
            (dict(noise=float("inf")), "noise"),
            (dict(noise=float("nan")), "noise"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GeneratorSpec(GeneratorKind.RING_UNIFORM, **kwargs)

    def test_discrete_requires_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            GeneratorSpec(GeneratorKind.DISCRETE_GIVEN)

    def test_sample_rejects_empty(self):
        with pytest.raises(ValueError):
            sample(GeneratorSpec(GeneratorKind.RING_UNIFORM), 0)


class TestRingSampler:
    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_points_on_the_circle(self, radius):
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0, radius=radius)
        d = sample(spec, 500)
        r2 = d.x_points[:, 0] ** 2 + d.y_points[:, 0] ** 2
        assert np.abs(r2 - radius**2).max() <= 1e-12

    def test_seed_determinism(self):
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=9)
        a = sample(spec, 50)
        b = sample(spec, 50)
        assert np.array_equal(a.x_points, b.x_points)
        assert np.array_equal(a.y_points, b.y_points)
        c = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=10), 50)
        assert not np.array_equal(a.x_points, c.x_points)

    def test_noise_perturbs_radius_at_its_scale(self):
        eps = 0.1
        spec = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=3, noise=eps)
        d = sample(spec, 2000)
        residual = np.hypot(d.x_points[:, 0], d.y_points[:, 0]) - 1.0
        assert residual.std() == pytest.approx(eps, rel=0.5)

    def test_angles_cover_the_circle(self):
        d = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=1), 4000)
        # All four sign quadrants should be heavily populated.
        x, y = d.x_points[:, 0], d.y_points[:, 0]
        for sx in (-1, 1):
            for sy in (-1, 1):
                assert np.count_nonzero((sx * x > 0) & (sy * y > 0)) > 500


class TestIndependentGaussian:
    def test_moments_and_decorrelation(self):
        d = sample(GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, seed=4), 10_000)
        x, y = d.x_points[:, 0], d.y_points[:, 0]
        assert abs(np.corrcoef(x, y)[0, 1]) <= 0.05
        assert x.std() == pytest.approx(1.0, abs=0.1)
        assert y.std() == pytest.approx(1.0, abs=0.1)

    def test_dimensions(self):
        spec = GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, seed=0, dim_x=3, dim_y=2)
        d = sample(spec, 10)
        assert d.x_points.shape == (10, 3)
        assert d.y_points.shape == (10, 2)


class TestRotated:
    def test_zero_angle_keeps_the_unit_box(self):
        d = sample(GeneratorSpec(GeneratorKind.ROTATED, seed=5, angle=0.0), 1000)
        assert np.abs(d.x_points).max() <= 1.0
        assert np.abs(d.y_points).max() <= 1.0

    def test_quarter_turn_mixes_coordinates(self):
        spec = GeneratorSpec(GeneratorKind.ROTATED, seed=5, angle=math.pi / 4)
        d = sample(spec, 400)
        x, y = d.x_points[:, 0], d.y_points[:, 0]
        # Rotation of equal-variance marginals keeps correlation near zero,
        # yet the coordinates become dependent (the support turns 45 deg).
        assert abs(np.corrcoef(x, y)[0, 1]) <= 0.1
        assert np.abs(x).max() > 1.0
        gm = KernelSpec("gaussian")
        result = permutation_test(d, gm, gm, PermutationConfig(200, 0.05, 0))
        assert result.reject


class TestDiscreteGiven:
    def test_points_stay_on_the_support(self):
        ring = discrete_ring()
        spec = GeneratorSpec(GeneratorKind.DISCRETE_GIVEN, seed=2, distribution=ring)
        d = sample(spec, 300)
        support_x = {float(v) for v in ring.x_support[:, 0]}
        support_y = {float(v) for v in ring.y_support[:, 0]}
        assert {float(v) for v in d.x_points[:, 0]} <= support_x
        assert {float(v) for v in d.y_points[:, 0]} <= support_y

    def test_long_run_frequencies_match_pmf(self):
        ring = discrete_ring()
        spec = GeneratorSpec(GeneratorKind.DISCRETE_GIVEN, seed=11, distribution=ring)
        d = sample(spec, 10_000)
        xs, ys = ring.x_support[:, 0], ring.y_support[:, 0]
        emp = np.zeros_like(ring.pmf)
        for xv, yv in zip(d.x_points[:, 0], d.y_points[:, 0]):
            emp[int(np.flatnonzero(xs == xv)[0]), int(np.flatnonzero(ys == yv)[0])] += 1
        emp /= d.n
        assert np.abs(emp - ring.pmf).max() <= 0.05


class TestDiscreteRing:
    def test_structure(self):
        ring = discrete_ring()
        assert np.array_equal(ring.x_support, [[-1.0], [0.0], [1.0]])
        assert np.array_equal(ring.y_support, [[-1.0], [0.0], [1.0]])
        expected = np.array(
            [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]
        )
        assert np.array_equal(ring.pmf, expected)
        assert ring.pmf.sum() == 1.0

    def test_is_dependent(self):
        assert np.abs(theta(discrete_ring())).max() == oracles.RING_MAX_ABS_THETA


class TestIntegerSupports:
    def test_plain_and_centered(self):
        xs, ys = integer_supports(3, 2)
        assert np.array_equal(xs, [[0.0], [1.0], [2.0]])
        assert np.array_equal(ys, [[0.0], [1.0]])
        xs, ys = integer_supports(3, 2, centered=True)
        assert np.array_equal(xs, [[-1.0], [0.0], [1.0]])
        assert np.array_equal(ys, [[-0.5], [0.5]])

    def test_centered_three_matches_ring_support(self):
        xs, _ = integer_supports(3, 3, centered=True)
        assert np.array_equal(xs, discrete_ring().x_support)


class TestEnumerateDiscrete:
    def test_small_census(self):
        dists = list(enumerate_discrete(2, 2, 2))
        assert len(dists) == 10
        assert len(dists) == oracles.count_compositions(2, 4)

    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(2, 5)
    )
    @settings(max_examples=20)
    def test_census_matches_compositions(self, m_x, m_y, resolution):
        count = sum(1 for _ in enumerate_discrete(m_x, m_y, resolution))
        assert count == oracles.count_compositions(resolution, m_x * m_y)

    def test_entries_live_on_the_grid(self):
        resolution = 4
        for dist in enumerate_discrete(2, 2, resolution):
            scaled = dist.pmf * resolution
            assert np.abs(scaled - np.round(scaled)).max() <= 1e-12
            assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_contains_the_diagonal_pmf(self):
        target = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert any(
            np.array_equal(d.pmf, target) for d in enumerate_discrete(2, 2, 4)
        )

    def test_centered_supports_flag(self):
        dist = next(enumerate_discrete(3, 3, 4, centered_supports=True))
        assert np.array_equal(dist.x_support, [[-1.0], [0.0], [1.0]])

    @pytest.mark.parametrize("bad", [dict(m_x=0), dict(m_x=5), dict(m_y=0)])
    def test_support_bounds(self, bad):
        kwargs = dict(m_x=2, m_y=2, grid_resolution=4)
        kwargs.update(bad)
        with pytest.raises(ValueError, match="support sizes"):
            next(enumerate_discrete(**kwargs))

    def test_resolution_bound(self):
        with pytest.raises(ValueError, match="grid_resolution"):
            next(enumerate_discrete(2, 2, 1))

    def test_pmf_count_cap(self, monkeypatch):
        # C(35, 15) ~ 3.2e9 pmfs: refused before the first one is built.
        with pytest.raises(ValueError, match="pmfs"):
            next(enumerate_discrete(4, 4, 20))
        # The cap is inclusive: a 2x2 grid at resolution 4 has C(7, 3) = 35.
        monkeypatch.setattr(datagen, "ENUMERATE_MAX_PMFS", 35)
        assert sum(1 for _ in enumerate_discrete(2, 2, 4)) == 35
        monkeypatch.setattr(datagen, "ENUMERATE_MAX_PMFS", 34)
        with pytest.raises(ValueError, match="35 pmfs"):
            next(enumerate_discrete(2, 2, 4))
