"""Shared helpers: integer arguments, seed derivation and compensated means."""

import math
import operator

import numpy as np

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Human-readable description of the replication seed rule, recorded in
#: simulation metadata so results can be reproduced outside this package.
SEED_DERIVATION = "splitmix64(base_seed + (rep_index + 1) * 0x9E3779B97F4A7C15)"

PRNG_NAME = "numpy.random.PCG64"


def check_int(value, name: str) -> int:
    """value as a Python int by operator.index, so numpy integers pass and
    floats do not; InvalidArgumentError naming name otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer") from None


def check_seed(value, name: str) -> int:
    """value as a Python int in [0, 2**64), the range of seeds derive_seed
    mixes without wrapping; InvalidArgumentError naming name otherwise."""
    value = check_int(value, name)
    if not 0 <= value <= _MASK64:
        raise InvalidArgumentError(f"{name} must be in [0, 2**64)")
    return value


def derive_seed(base_seed: int, index: int) -> int:
    """Derive the 64-bit seed for replication ``index`` from ``base_seed``.

    Applies the splitmix64 output mix to ``base_seed + (index + 1) * golden``
    so that neighbouring indices land far apart in seed space.  Pure integer
    arithmetic, identical on every platform.
    """
    base_seed, index = check_seed(base_seed, "base_seed"), check_int(index, "index")
    if index < 0:
        raise InvalidArgumentError("index must be nonnegative")
    x = (base_seed + (index + 1) * _GOLDEN) & _MASK64
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
