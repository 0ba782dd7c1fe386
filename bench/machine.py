"""Machine facts and the reference work that tracks the machine's speed.

The benchmark shares its cores with other tenants, and their load moves
the speed of every process on the machine by up to a factor of two, in
spells of seconds to minutes.  Fixed reference work, independent of
drmean and timed right before and right after each measured step, sees
the same spells.  Scaling each step to the speed at which the reference
takes its nominal time cancels most of that drift, so times and rates
read as they would at one fixed machine speed; the raw figures are kept
beside the scaled ones in the run's record.

Two references, because computation and a cold start slow down by
different amounts: a numeric kernel for the measured passes, and a
fresh interpreter importing numpy for the set-up.
"""

import math
import os
import platform
import time

import numpy as np

# nominal times of the two references: typical values on a 2-core
# x86_64 host with Python 3.11, numpy 2.4 and OpenBLAS on one thread
REFERENCE_S = 4.5e-3
REFERENCE_START_S = 0.14
#: the reference cold start, run as ``python3 -c REFERENCE_START``
REFERENCE_START = "import numpy"

_rng = np.random.default_rng(20071107)
_X = _rng.standard_normal((1000, 5))
_Y = _rng.standard_normal(1000)


def reference_seconds() -> float:
    """Time one run of the kernel: least squares, exact sums, exponentials.

    The mix resembles drmean's own work: small LAPACK solves, math.fsum
    over columns, element-wise numpy and interpreted Python in between.
    """
    start = time.perf_counter()
    for _ in range(10):
        beta = np.linalg.lstsq(_X, _Y, rcond=None)[0]
        [math.fsum(col) for col in _X.T]
        np.exp(_X @ beta)
    return time.perf_counter() - start


def speed_scale(before: float, after: float, nominal: float = REFERENCE_S) -> float:
    """Factor that converts a time measured between two timings of a
    reference into a time at the nominal speed (multiply times, divide
    rates)."""
    return nominal / (0.5 * (before + after))


def facts() -> dict:
    """What a result depends on besides the code."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "reference_s": REFERENCE_S,
        "reference_start_s": REFERENCE_START_S,
    }
