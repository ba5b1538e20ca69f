"""Counter-based randomness, addressable by (seed, stream, index).

Every random draw in the package comes from a Philox generator keyed by the
user seed plus a (stream, index) tag, so replicates are reproducible and
schedule-independent: trial t of an experiment gets the same bits no matter
what ran before it or in parallel with it.  Permutation replicates share one
cell and are addressed by word offset inside it (see ``RNG_SCHEME``); Philox
is counter-based, so any offset is reachable without drawing what precedes it.
"""

from __future__ import annotations

import numpy as np

# Stream tags keep the draw spaces of samplers, permutation replicates and
# experiment trials disjoint under a shared user seed.
STREAM_SAMPLER = 1
STREAM_PERMUTATION = 2
STREAM_TRIAL_DATA = 3
STREAM_TRIAL_TEST = 4

# Recorded in result metadata; the reproducibility contract is this scheme,
# not a particular consumer of it.
RNG_SCHEME = (
    "numpy.random.Philox(key=[seed, (stream << 48) | index]); "
    "permutation b = stable argsort of raw words [b*n, (b+1)*n) of (seed, 2, 0)"
)

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator for one (seed, stream, index) cell of the key space."""
    if index < 0:
        raise ValueError("index must be non-negative")
    key = [seed & _MASK64, ((stream & 0xFFFF) << 48) | (index & _MASK48)]
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, stream: int, index: int) -> int:
    """Deterministic 63-bit child seed for nested seeding (e.g. per-trial)."""
    return int(rng_for(seed, stream, index).integers(0, 1 << 63, dtype=np.uint64))
