"""Monte Carlo harness: replicate and summarise.

Replication r draws its own PCG64 seed from the scenario's base seed
(see _util.derive_seed), so any subset of replications can be recomputed
in isolation and worker processes need no shared stream.  Scenarios of
one size, base seed and role reversal therefore draw the same sample in
replication r, and one task evaluates them all on it: the sample is
drawn once and builds each design [1, Z] or [1, X] once, every view of
it shares them (dgp.make_view), and the scenarios share one Pipeline
memo, whose every entry is keyed by the designs it depends on.  So each
fit is computed once for the scenarios whose designs it reads: the
propensity fit on Z or X with its respondent terms, the checked
respondent rows of an outcome design with the unweighted outcome fit,
and, for a (propensity, outcome) design pair, the fits and sums that
need both.  run_scenarios puts the replications of all its scenarios
into one task list, which K = workers processes, this one included,
compute in interleaved shares (see _util.ordered_map), and reduces each
scenario's results in replication order regardless of how many
processes ran, which makes summaries bit-identical across worker counts.
run_scenarios loads scipy, which only generate_sample needs, before it
starts a worker, so forked workers share it and none imports it again.

Failures are per estimator, not per replication: a replicate where only
the weighted fits blow up still contributes its OLS and FULL values.
No output reads the weight diagnostics, so no replication computes them
(see estimators.EstimateSet.diagnostics).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    as_array, check_collection, check_flag, check_int, check_seed, check_vector, derive_seed,
    exact_sum, ordered_map,
)
from .dgp import MU_TRUE, generate_sample, make_view, reverse_roles
from .errors import DegenerateInputError, InvalidArgumentError
from .estimators import ESTIMATOR_NAMES, FLAG_FAILED, check_estimator_names, estimate_all

QUANTILE_LEVELS = (1, 5, 25, 50, 75, 95, 99)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the benchmark: a model-correctness pair at one size."""

    n: int
    reps: int
    pi_model_correct: bool
    m_model_correct: bool
    reverse: bool = False
    base_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATOR_NAMES

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n", 2))
        object.__setattr__(self, "reps", check_int(self.reps, "reps", 1))
        object.__setattr__(self, "base_seed", check_seed(self.base_seed, "base_seed"))
        object.__setattr__(self, "estimators", check_estimator_names(self.estimators))
        if not self.estimators:
            raise InvalidArgumentError("estimators must name at least one estimator")
        for name in ("pi_model_correct", "m_model_correct", "reverse"):
            object.__setattr__(self, name, check_flag(getattr(self, name), name))

    def label(self) -> str:
        tag = (
            f"pi_{'right' if self.pi_model_correct else 'wrong'}"
            f"_m_{'right' if self.m_model_correct else 'wrong'}"
        )
        return tag + ("_reversed" if self.reverse else "")


@dataclass
class EstimatorSummary:
    """Moment and quantile summary of one estimator's sampling distribution.

    variance uses divisor r - 1 and mse divisor r, so the exact identity
    mse = bias**2 + variance * (r - 1) / r holds.  skewness is the
    standardised third central moment with biased (divisor r) moments,
    defined as 0 for constant values.  With a single value the variance
    is NaN.
    """

    n_used: int
    failures: int
    mean: float
    bias: float
    variance: float
    mse: float
    skewness: float
    quantiles: dict[int, float]
    minimum: float
    maximum: float


@dataclass
class MCSummary:
    scenario: ScenarioSpec
    rows: dict[str, EstimatorSummary]


def _quantiles(values: np.ndarray) -> list[float]:
    """np.percentile(values, QUANTILE_LEVELS), bit for bit, without its
    per-call cost.

    numpy's "linear" rule: level q sits at h = (r - 1) * (q / 100) in the
    ordered values.  With a and b the values at i = floor(h) and i + 1
    (both the last value when h >= r - 1) and g = h - i, the quantile is
    a + (b - a) g, or b - (b - a)(1 - g) when g >= 0.5 (numpy's _lerp).
    The values are ordered by the partition np.percentile makes, on the
    same kth: a full sort may place -0.0 and 0.0 the other way round and
    so flip the sign of a zero quantile.  OverflowError if some b - a
    overflows, where np.percentile under np.errstate(over="raise") raises
    FloatingPointError.
    """
    top = values.size - 1
    at = [top * (level / 100) for level in QUANTILE_LEVELS]
    low = [math.floor(h) if h < top else -1 for h in at]
    high = [i + 1 if i >= 0 else -1 for i in low]
    ordered = values.copy()
    ordered.partition(sorted({-1, 0, *low, *high}))
    out = []
    for h, i, j in zip(at, low, high):
        a, b, g = float(ordered[i]), float(ordered[j]), h - i
        diff = b - a
        if diff == math.inf:
            raise OverflowError("quantile interpolation overflows")
        out.append(a + diff * g if g < 0.5 else b - diff * (1 - g))
    return out


def summarize(values: np.ndarray, mu_true: float) -> EstimatorSummary:
    """Summary statistics of a vector of estimates against the truth.

    The quantiles are np.percentile's at QUANTILE_LEVELS, computed by
    _quantiles from one partition; minimum and maximum are values.min()
    and .max(), so a signed zero stays as it is.  DegenerateInputError if
    a moment or quantile overflows."""
    values, mu_true = check_vector(values, "values"), as_array(mu_true, "mu_true")
    if values.size == 0:
        raise InvalidArgumentError("no values to summarise")
    if mu_true.ndim != 0:
        raise InvalidArgumentError("mu_true must be a number")
    mu_true = float(mu_true)
    if not np.isfinite(values).all() or not math.isfinite(mu_true):
        raise InvalidArgumentError("values and mu_true must be finite")
    r = values.size
    try:
        with np.errstate(over="raise", invalid="raise"):
            mean = exact_sum(values) / r
            # not mean - mu_true: the rounding of a large mean would swamp
            # a small bias
            bias = exact_sum(values - mu_true) / r
            dev = values - mean
            squares = exact_sum(dev * dev)
            variance = squares / (r - 1) if r > 1 else math.nan
            mse = exact_sum((values - mu_true) ** 2) / r
            m2 = squares / r
            if m2 == 0.0:
                skewness = 0.0
            else:
                # standardise first: m3 / m2**1.5 underflows when the spread
                # is tiny.  Cube by multiplication; array ** 3 is not
                # sign-symmetric.
                z = dev / math.sqrt(m2)
                skewness = exact_sum(z * z * z) / r
            qs = _quantiles(values)
    except (OverflowError, FloatingPointError):
        raise DegenerateInputError("the summary statistics overflow") from None
    return EstimatorSummary(
        n_used=r,
        failures=0,
        mean=mean,
        bias=bias,
        variance=variance,
        mse=mse,
        skewness=skewness,
        quantiles=dict(zip(QUANTILE_LEVELS, qs)),
        minimum=float(values.min()),
        maximum=float(values.max()),
    )


def _empty_summary(failures: int) -> EstimatorSummary:
    nan = math.nan
    return EstimatorSummary(
        n_used=0,
        failures=failures,
        mean=nan,
        bias=nan,
        variance=nan,
        mse=nan,
        skewness=nan,
        quantiles={q: nan for q in QUANTILE_LEVELS},
        minimum=nan,
        maximum=nan,
    )


def _replicate(args: tuple[int, tuple[ScenarioSpec, ...]]) -> list[dict[str, float | None]]:
    """Replication r of a group of specs that share n, base_seed and
    reverse: one result dict per spec, in order.  The sample builds each
    design [1, Z] or [1, X] once, its views share them and the specs share
    one Pipeline memo, so each fit is made once for all the specs whose
    designs it depends on."""
    r, specs = args
    first = specs[0]
    sample = generate_sample(first.n, derive_seed(first.base_seed, r))
    if first.reverse:
        sample = reverse_roles(sample)
    memo: dict = {}
    out = []
    for spec in specs:
        view = make_view(sample, spec.pi_model_correct, spec.m_model_correct)
        result = estimate_all(view, sample, spec.estimators, _memo=memo)
        out.append({
            name: (None if result.flags[name] == FLAG_FAILED else result.values[name])
            for name in spec.estimators
        })
    return out


def _reduce(spec: ScenarioSpec, results: list) -> MCSummary:
    """Summarise one scenario's replication results, in replication order."""
    rows: dict[str, EstimatorSummary] = {}
    for name in spec.estimators:
        vals = [res[name] for res in results if res[name] is not None]
        failures = spec.reps - len(vals)
        if vals:
            row = summarize(np.array(vals), mu_true=MU_TRUE)
            row.failures = failures
        else:
            row = _empty_summary(failures)
        rows[name] = row
    return MCSummary(scenario=spec, rows=rows)


def run_scenarios(specs, workers: int = 1) -> list[MCSummary]:
    """Run all replications of every scenario; one summary per spec, in order.

    Specs that share n, base_seed and reverse form a group, and a task is
    one replication r of one group: the group's specs with more than r
    reps, evaluated on one shared sample (see _replicate).  The tasks of
    all groups form one list, and K = workers processes, this one included,
    compute every K-th task of it (see _util.ordered_map), so each
    process gets its share of every group and mixed sizes balance.  Under
    spawn or forkserver each child imports drmean first.  The summaries
    do not depend on the worker count.  InvalidArgumentError unless specs
    is a collection of ScenarioSpecs.
    """
    specs = check_collection(specs, ScenarioSpec, "specs")
    workers = check_int(workers, "workers", 1)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.n, spec.base_seed, spec.reverse), []).append(i)
    tasks = []
    members = []  # the spec indices of each task, in task order
    for group in groups.values():
        for r in range(max(specs[i].reps for i in group)):
            live = [i for i in group if specs[i].reps > r]
            tasks.append((r, tuple(specs[i] for i in live)))
            members.append(live)
    # every task draws a sample, and generate_sample loads scipy: loaded
    # here, before ordered_map forks, the children share its pages
    import scipy.special  # noqa: F401

    results = ordered_map(_replicate, tasks, workers)
    per_spec: list[list] = [[] for _ in specs]
    for live, task_results in zip(members, results):
        for i, res in zip(live, task_results):
            per_spec[i].append(res)
    return [_reduce(spec, res) for spec, res in zip(specs, per_spec)]


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> MCSummary:
    """Run all replications of one scenario and summarise per estimator:
    run_scenarios on the single spec."""
    return run_scenarios([spec], workers)[0]
