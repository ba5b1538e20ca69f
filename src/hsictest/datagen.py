"""Reproducible samplers and small discrete joint distributions.

The ring sampler is the canonical failure-mode generator: x and y are the two
coordinates of a point uniform on a circle of radius r (optionally blurred by
Gaussian noise), so the pair is perfectly dependent while every linear
statistic of the dependence vanishes by the +/-y symmetry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .hsic import Dataset, DiscreteJointDistribution, theta
from .rng import STREAM_SAMPLER, rng_for

TWO_PI = 2.0 * math.pi

# A distribution counts as dependent when theta has an entry above this.
DEPENDENCE_TOL = 1e-12

# enumerate_discrete refuses grids with more pmfs than this: at a few thousand
# pmfs per second the oracle sweep of a million already takes minutes.
ENUMERATE_MAX_PMFS = 1_000_000


class GeneratorKind(str, enum.Enum):
    RING_UNIFORM = "ring_uniform"
    INDEPENDENT_GAUSSIAN = "independent_gaussian"
    ROTATED = "rotated"
    DISCRETE_GIVEN = "discrete_given"


@dataclass(frozen=True)
class GeneratorSpec:
    """A sampler identity plus its kind-specific parameters.

    ring_uniform: radius, noise.  independent_gaussian: dim_x, dim_y.
    rotated: angle (radians, in [0, 2pi)).  discrete_given: distribution.
    """

    kind: GeneratorKind
    seed: int = 0
    radius: float = 1.0
    noise: float = 0.0
    dim_x: int = 1
    dim_y: int = 1
    angle: float = 0.0
    distribution: DiscreteJointDistribution | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", GeneratorKind(self.kind))
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.noise < 0.0:
            raise ValueError("noise must be non-negative")
        if not (0.0 <= self.angle < TWO_PI):
            raise ValueError("angle must lie in [0, 2pi)")
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dimensions must be positive")
        if self.kind is GeneratorKind.DISCRETE_GIVEN and self.distribution is None:
            raise ValueError("discrete_given requires a distribution")


def sample(spec: GeneratorSpec, n: int) -> Dataset:
    """Draw n paired samples; identical (spec, n) gives identical output."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = rng_for(spec.seed, STREAM_SAMPLER, 0)

    if spec.kind is GeneratorKind.RING_UNIFORM:
        angles = rng.uniform(0.0, TWO_PI, size=n)
        x = spec.radius * np.cos(angles)
        y = spec.radius * np.sin(angles)
        if spec.noise > 0.0:
            x = x + spec.noise * rng.standard_normal(n)
            y = y + spec.noise * rng.standard_normal(n)
        return Dataset(x.reshape(-1, 1), y.reshape(-1, 1))

    if spec.kind is GeneratorKind.INDEPENDENT_GAUSSIAN:
        x = rng.standard_normal((n, spec.dim_x))
        y = rng.standard_normal((n, spec.dim_y))
        return Dataset(x, y)

    if spec.kind is GeneratorKind.ROTATED:
        # Rotating an independent non-Gaussian pair creates dependence; a
        # Gaussian pair would stay independent by isotropy, hence uniforms.
        u = rng.uniform(-1.0, 1.0, size=n)
        v = rng.uniform(-1.0, 1.0, size=n)
        cos_a, sin_a = math.cos(spec.angle), math.sin(spec.angle)
        x = u * cos_a - v * sin_a
        y = u * sin_a + v * cos_a
        return Dataset(x.reshape(-1, 1), y.reshape(-1, 1))

    dist = spec.distribution
    flat = rng.choice(dist.pmf.size, size=n, p=dist.pmf.ravel())
    i, j = np.divmod(flat, dist.pmf.shape[1])
    return Dataset(dist.x_support[i], dist.y_support[j])


def discrete_ring() -> DiscreteJointDistribution:
    """Uniform mass on the four axis points (1,0), (0,1), (-1,0), (0,-1).

    The discrete counterpart of the ring sampler: dependent, yet its
    population HSIC with a linear kernel on either side is exactly zero.
    """
    support = np.array([[-1.0], [0.0], [1.0]])
    pmf = np.array(
        [
            [0.0, 0.25, 0.0],
            [0.25, 0.0, 0.25],
            [0.0, 0.25, 0.0],
        ]
    )
    return DiscreteJointDistribution(support, support, pmf)


def integer_supports(m_x: int, m_y: int, centered: bool = False):
    """Distinct 1-D grid supports for the enumerator.

    ``centered`` shifts each side to be symmetric about 0 (needed to realize
    the +/- cancellation distributions, e.g. the discrete ring for m = 3).
    """
    def side(m: int) -> np.ndarray:
        offset = (m - 1) / 2.0 if centered else 0.0
        return (np.arange(m, dtype=float) - offset).reshape(-1, 1)

    return side(m_x), side(m_y)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_discrete(
    m_x: int,
    m_y: int,
    grid_resolution: int,
    include_dependent_only: bool = False,
    centered_supports: bool = False,
) -> Iterator[DiscreteJointDistribution]:
    """All joint pmfs on fixed grid supports with entries in {0, 1/R, ..., 1}.

    Yields one distribution per composition of R = ``grid_resolution`` into
    m_x * m_y parts; with ``include_dependent_only``, product distributions
    (max |theta| below ``DEPENDENCE_TOL``) are skipped.  A grid of more than
    ``ENUMERATE_MAX_PMFS`` compositions, C(R + m_x*m_y - 1, m_x*m_y - 1),
    raises ``ValueError`` before any pmf is built.
    """
    if not (1 <= m_x <= 4 and 1 <= m_y <= 4):
        raise ValueError("support sizes are limited to 1..4")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    count = math.comb(grid_resolution + m_x * m_y - 1, m_x * m_y - 1)
    if count > ENUMERATE_MAX_PMFS:
        raise ValueError(
            f"a {m_x}x{m_y} grid at resolution {grid_resolution} has {count} pmfs, "
            f"more than the {ENUMERATE_MAX_PMFS} enumerate_discrete allows"
        )
    x_support, y_support = integer_supports(m_x, m_y, centered_supports)
    for counts in _compositions(grid_resolution, m_x * m_y):
        pmf = np.asarray(counts, dtype=float).reshape(m_x, m_y) / grid_resolution
        dist = DiscreteJointDistribution(x_support, y_support, pmf)
        if include_dependent_only and np.abs(theta(dist)).max() < DEPENDENCE_TOL:
            continue
        yield dist
