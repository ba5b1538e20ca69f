"""Kernel independence testing: HSIC statistics, an exact discrete population
oracle, permutation calibration, and reproducible samplers."""

__version__ = "0.23.0"

from .datagen import (
    GeneratorKind,
    GeneratorSpec,
    discrete_ring,
    enumerate_discrete,
    integer_supports,
    sample,
)
from .hsic import (
    Dataset,
    DiscreteJointDistribution,
    Estimator,
    HsicValue,
    hsic_biased,
    population_hsic,
    theta,
)
from .kernels import (
    MEDIAN_BANDWIDTH,
    KernelFamily,
    KernelSpec,
    StrictPdWitness,
    median_heuristic,
    parse_kernel,
    resolve_bandwidth,
    strict_pd_witness,
)
from .testing import (
    PermutationConfig,
    PowerResult,
    TestResult,
    exhaustive_permutation_test,
    p_value_from_null,
    permutation_test,
    power_experiment,
)

__all__ = [
    "__version__",
    "Dataset",
    "DiscreteJointDistribution",
    "Estimator",
    "GeneratorKind",
    "GeneratorSpec",
    "HsicValue",
    "KernelFamily",
    "KernelSpec",
    "MEDIAN_BANDWIDTH",
    "PermutationConfig",
    "PowerResult",
    "StrictPdWitness",
    "TestResult",
    "discrete_ring",
    "enumerate_discrete",
    "exhaustive_permutation_test",
    "hsic_biased",
    "integer_supports",
    "median_heuristic",
    "p_value_from_null",
    "parse_kernel",
    "permutation_test",
    "population_hsic",
    "power_experiment",
    "resolve_bandwidth",
    "sample",
    "strict_pd_witness",
    "theta",
]
