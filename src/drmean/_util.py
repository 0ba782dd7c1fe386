"""Shared helpers: argument checks, seed derivation, exact sums and means
(a certified error-free vector extraction, math.fsum where it cannot
certify: see exact_sum), the JSON null of an undefined value and an
ordered map over processes."""

import math
import multiprocessing
import operator

import numpy as np

from .errors import DrmeanError, InvalidArgumentError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Human-readable description of the replication seed rule, recorded in
#: simulation metadata so results can be reproduced outside this package.
SEED_DERIVATION = "splitmix64(base_seed + (rep_index + 1) * 0x9E3779B97F4A7C15)"

PRNG_NAME = "numpy.random.PCG64"


def check_int(value, name: str, minimum: int | None = None) -> int:
    """value as a Python int by operator.index, so numpy integers pass and
    floats and bools do not, and at least minimum if that is given;
    InvalidArgumentError "<name> must be an integer[ >= minimum]" otherwise."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or value >= minimum:
                return value
    bound = "" if minimum is None else f" >= {minimum}"
    raise InvalidArgumentError(f"{name} must be an integer{bound}")


def check_flag(value, name: str) -> bool:
    """value as a Python bool if it is a bool or numpy bool, so no other
    truthy value passes; InvalidArgumentError "<name> must be a boolean" else."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidArgumentError(f"{name} must be a boolean")
    return bool(value)


def check_collection(items, cls: type, name: str) -> tuple:
    """items as a tuple; InvalidArgumentError unless they are instances of cls."""
    items = tuple(items) if np.iterable(items) else (None,)
    if not all(isinstance(item, cls) for item in items):
        raise InvalidArgumentError(f"{name} must be a collection of {cls.__name__}s")
    return items


def check_type(value, cls: type, name: str):
    """value; InvalidArgumentError "<name> must be of type <cls>, not <its type>"
    unless it is an instance of cls.  The one check of a composite argument,
    so a wrong object never reaches an attribute read."""
    if not isinstance(value, cls):
        raise InvalidArgumentError(
            f"{name} must be of type {cls.__name__}, not {type(value).__name__}")
    return value


def as_array(values, name: str, dtype=float) -> np.ndarray:
    """values as an array of dtype (float, or numpy's own choice for None);
    InvalidArgumentError "<name> must be numeric" if they are complex, which
    numpy would cast with a warning, or numpy cannot convert them, as for
    text or ragged nesting."""
    try:
        if np.iscomplexobj(values):
            raise TypeError
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must be numeric") from None


def check_response(T) -> np.ndarray:
    """T as an array, checked to be 1-d with every entry 0 or 1."""
    T = as_array(T, "T", None)
    if T.ndim != 1 or np.count_nonzero(T == 1) + np.count_nonzero(T == 0) != T.size:
        raise InvalidArgumentError("T must be a 1-d array of 0/1 response indicators")
    return T


def check_units(values, T, name: str) -> np.ndarray:
    """values as a float array with one entry per unit, shaped as T;
    InvalidArgumentError "<name> length must match T" otherwise."""
    values = as_array(values, name)
    if values.shape != np.shape(T):
        raise InvalidArgumentError(f"{name} length must match T")
    return values


def check_observed(y: np.ndarray) -> np.ndarray:
    """y, the respondent outcomes; InvalidArgumentError "observed outcomes
    contain non-finite values" unless every entry is finite.  The one check
    of respondent outcomes, for the estimators' terms and the outcome fits."""
    if not np.isfinite(y).all():
        raise InvalidArgumentError("observed outcomes contain non-finite values")
    return y


def check_vector(values, name: str) -> np.ndarray:
    """values as a 1-d float array; InvalidArgumentError "<name> must be 1-d"
    otherwise."""
    values = as_array(values, name)
    if values.ndim != 1:
        raise InvalidArgumentError(f"{name} must be 1-d")
    return values


def nan_to_none(x):
    """x, or None for a NaN float: how JSON output writes an undefined value."""
    return None if isinstance(x, float) and math.isnan(x) else x


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
    base_seed, index = check_seed(base_seed, "base_seed"), check_int(index, "index", 0)
    x = (base_seed + (index + 1) * _GOLDEN) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


#: The shortest array exact_sum sums by extraction.  Below it one math.fsum
#: is as fast or faster: on a 2-core AVX-512 host, fsum takes about 3.5 us
#: at 200 terms, 9 us at 500 and 16 us at 1000, the extraction 6 to 8 us at
#: each of these lengths; the two meet near 300 terms.
EXTRACT_MIN_TERMS = 384


def exact_sum(a) -> float:
    """The correctly rounded sum of a 1-d float array (a strided view too):
    the same double as math.fsum(a.tolist()).  Every exact sum of the
    package is taken here.

    An array of at least EXTRACT_MIN_TERMS terms is summed by error-free
    vector extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008, Lemma 3.3) in a few whole-array numpy operations.  With
    mu = max|a| < 2**e and sigma = 2**(M + e), 2**M > n, q = (a + sigma) -
    sigma takes the high part of each term: q is a multiple of
    sigma * 2**-53, so tau = sum(q) is exact in any order, and a - q is
    exact too.  rho = sum(a - q) in numpy's order is off by at most
    B = 2**(2M - 104) * sigma.  s = tau + rho is returned only when that
    certifies it: s is nonzero, and the rounding error of tau + rho (by
    TwoSum) plus B is below half the gap from s to its nearer neighbour,
    so the true sum rounds to s.  Everything else, short or non-1-d input,
    mu outside (2**-800, 2**800) (NaN and inf included) and an uncertified
    s, is one math.fsum over the array's buffer (Shewchuk, Discrete
    Comput. Geom. 18, 1997), which raises OverflowError if the sum
    overflows and ValueError for inf - inf.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if a.ndim == 1 and n >= EXTRACT_MIN_TERMS:
        mu = float(np.maximum.reduce(np.abs(a)))
        # in this range no sum below overflows, nor B underflows
        if 2.0**-800 < mu < 2.0**800:
            m = n.bit_length()
            sigma = math.ldexp(1.0, m + math.frexp(mu)[1])
            q = a + sigma
            q -= sigma
            tau = float(np.add.reduce(q))
            rho = float(np.add.reduce(a - q))
            s = tau + rho
            if s:
                z = s - tau
                error = (tau - (s - z)) + (rho - z)
                gap = math.ulp(s)  # the gap above |s|; half that below a power of two
                if abs(math.frexp(s)[0]) == 0.5:
                    gap *= 0.5
                if abs(error) + math.ldexp(sigma, 2 * m - 104) < 0.5 * gap:
                    return s
    return math.fsum(memoryview(a))


def fsum_col_means(matrix: np.ndarray) -> np.ndarray:
    """Column means of a 2-d array, each an exact_sum divided by the rows."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n == 0:
        raise InvalidArgumentError("mean of empty array")
    return np.array([exact_sum(col) / n for col in matrix.T])


def _run_share(fn, share: list, conn) -> None:
    """A child's part of ordered_map: send (True, results) or (False, the
    exception fn raised) and close the pipe."""
    try:
        message = (True, [fn(t) for t in share])
    except Exception as exc:
        message = (False, exc)
    with conn:
        conn.send(message)


def ordered_map(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks], computed by k = min(workers, len(tasks))
    processes.

    Share j is tasks[j::k], so each process gets every k-th task.  This
    process computes share 0; each other share runs in one daemon child of
    the default start method, which sends back over a one-way pipe its
    results or the exception fn raised, and that exception is raised here
    (the first in share order).  Under spawn or forkserver each child
    imports fn's module first, so fn and the tasks must pickle.  A child
    that exits without sending raises DrmeanError naming its exit code.  No
    child outlives the call.
    """
    tasks = list(tasks)
    k = min(workers, len(tasks))
    if k <= 1:
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context()
    children = []
    try:
        for j in range(1, k):
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(fn, tasks[j::k], send), daemon=True)
            child.start()
            send.close()  # the child's copy is then the only one
            children.append((child, receive))
        out = [None] * len(tasks)
        out[0::k] = [fn(t) for t in tasks[0::k]]
        for j, (child, receive) in enumerate(children, 1):
            try:
                ok, value = receive.recv()
            except (EOFError, OSError):  # the child's end closed before it sent
                child.join()
                raise DrmeanError(f"worker process exited with code {child.exitcode} "
                                  "before sending its results") from None
            if not ok:
                raise value
            out[j::k] = value
        return out
    finally:
        for child, receive in children:
            receive.close()
            if child.is_alive():
                child.terminate()
        for child, _ in children:
            child.join()
