"""Shared numeric helpers: seed derivation and compensated means."""

import math

import numpy as np

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Human-readable description of the replication seed rule, recorded in
#: simulation metadata so results can be reproduced outside this package.
SEED_DERIVATION = "splitmix64(base_seed + (rep_index + 1) * 0x9E3779B97F4A7C15)"

PRNG_NAME = "numpy.random.PCG64"


def derive_seed(base_seed: int, index: int) -> int:
    """Derive the 64-bit seed for replication ``index`` from ``base_seed``.

    Applies the splitmix64 output mix to ``base_seed + (index + 1) * golden``
    so that neighbouring indices land far apart in seed space.  Pure integer
    arithmetic, identical on every platform.
    """
    if index < 0:
        raise InvalidArgumentError("index must be nonnegative")
    if base_seed < 0:
        raise InvalidArgumentError("base_seed must be nonnegative")
    x = (int(base_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def fsum_col_means(matrix: np.ndarray) -> np.ndarray:
    """Column means of a 2-d array, each accumulated with math.fsum."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n == 0:
        raise InvalidArgumentError("mean of empty array")
    # lists, because iterating an array makes a numpy scalar per element
    return np.array([math.fsum(col) / n for col in matrix.T.tolist()])
