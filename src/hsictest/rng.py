"""Counter-based randomness, addressable by (seed, stream, index).

Every random draw in the package comes from a Philox generator keyed by the
user seed plus a (stream, index) tag, so replicates are reproducible and
schedule-independent: trial t of an experiment gets the same bits no matter
what ran before it or in parallel with it.  The seed is one key word, taken
as is: it must lie in [0, 2**64), so distinct seeds never share a stream.
The stream tag and the index share the other key word, 16 and 48 bits, and
are refused outside [0, 2**16) and [0, 2**48), so distinct cells never share
a key.  Permutation replicates share one cell and are addressed by word
offset inside it (see ``RNG_SCHEME``); Philox is counter-based, so any offset
is reachable without drawing what precedes it.  One draw is not from Philox:
``_selection`` brackets an exact median by a ``np.random.default_rng(0)``
(PCG64) sample of pairs, which sets a median's passes, never its value.
"""

from __future__ import annotations

import operator

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

# Seeds, stream tags and indices are refused from these bounds up, not
# masked: a masked value aliases a smaller one.
SEED_BOUND = 1 << 64
_STREAM_BOUND = 1 << 16
_INDEX_BOUND = 1 << 48


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator for one (seed, stream, index) cell of the key space.

    Raises ``TypeError`` for a seed that is not an integer, and
    ``ValueError`` for a seed outside [0, 2**64), a stream outside [0, 2**16)
    or an index outside [0, 2**48).
    """
    seed = operator.index(seed)
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    if not 0 <= stream < _STREAM_BOUND:
        raise ValueError(f"stream must be an integer in [0, 2**16), got {stream}")
    if not 0 <= index < _INDEX_BOUND:
        raise ValueError(f"index must be an integer in [0, 2**48), got {index}")
    # A list would hold a seed from 2**63 up as a float64, which rounds it.
    key = np.array([seed, (stream << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, stream: int, index: int) -> int:
    """Deterministic 63-bit child seed for nested seeding (e.g. per-trial)."""
    return int(rng_for(seed, stream, index).integers(0, 1 << 63, dtype=np.uint64))
