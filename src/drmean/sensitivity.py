"""Sensitivity analysis over grids of candidate model specifications.

A doubly robust estimator is recomputed under every pairing of candidate
propensity and outcome specifications, giving a matrix of estimates.
Every propensity spec is fitted by logistic maximum likelihood; the
estimator fixes the outcome fit, so a spec names its covariates only.
For each line of the matrix (one model held fixed, the other varied) a
nonparametric-bootstrap Wald test asks whether the estimates along the
line are compatible with a single common value; a low p-value means the
held-fixed model cannot make the answer invariant to its partner, which
is evidence against that model.  The selection rule picks the row and
column with the largest p-values.  run_sensitivity runs all three steps;
build_matrix and homogeneity_test are also public, the selection is not.
A p-value is the chi^2 survival of the Wald statistic at its integer df,
in closed form with math alone (_chi2_sf), so the analysis loads no
scipy.

Bootstrap draw b resamples the rows with PCG64(derive_seed(seed, b)), the
splitmix64 derivation of the simulation harness, and is shared by every
line: it evaluates the whole matrix once, and each line test reads its
own cells from it.  A draw's propensity fit takes exactly
linmod.DRAW_NEWTON_STEPS Newton steps from its spec's full-sample fit, a
two-step bootstrap, so it cannot fail by reaching the iteration cap, and
it is preconditioned by the column scale of the full-sample design: a
draw measures no column scale of its own.  A spec whose full-sample fit
failed iterates from zero to the stop rule in each draw.  Matrices and
p-values are reproducible bit for bit, and a line's p-value does not
depend on which other lines are tested.
"""

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._util import (
    as_array, check_collection, check_int, check_observed, check_response, check_seed,
    check_type, derive_seed, nan_to_none, quiet,
)
from .dgp import AnalysisView, design_matrix
from .errors import DrmeanError, InvalidArgumentError, NonconvergenceError
from .estimators import ESTIMATORS, Pipeline
from .linmod import _equilibrate, _pow2

# estimators that combine a propensity and an outcome fit, in table order
DR_ESTIMATORS = tuple(
    name for name, e in ESTIMATORS.items() if e.weighted and e.outcome is not None
)

_MIN_BOOT_USED = 20


@dataclass(frozen=True)
class ModelSpec:
    """A candidate model: its role, "propensity" or "outcome", and the
    covariate columns it uses, each at most once.  A propensity model is a
    logistic fit, and the estimator fixes the outcome fit."""

    role: str
    covariates: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.role not in ("propensity", "outcome"):
            raise InvalidArgumentError(f"unknown role {self.role!r}")
        try:
            covariates = tuple(self.covariates)
        except TypeError:
            raise InvalidArgumentError("covariates must be a tuple of integers") from None
        covariates = tuple(check_int(c, "a covariate index", 0) for c in covariates)
        if len(covariates) == 0:
            raise InvalidArgumentError("covariates must be a nonempty index tuple")
        repeated = dict.fromkeys(c for c in covariates if covariates.count(c) > 1)
        if repeated:
            # the design would repeat a column and every fit on it fail
            raise InvalidArgumentError(
                f"covariates repeat index(es) {', '.join(map(str, repeated))}")
        object.__setattr__(self, "covariates", covariates)


@dataclass
class HomogeneityResult:
    """Wald test of a line of estimates against a common value."""

    p_value: float
    statistic: float
    df: int
    n_boot_used: int
    boot_failures: int
    singular: bool
    note: str = ""


@dataclass
class SensitivityMatrix:
    estimator: str
    p_specs: tuple[ModelSpec, ...]
    o_specs: tuple[ModelSpec, ...]
    estimates: np.ndarray                     # (J_p, J_o), NaN where a cell failed
    cell_messages: dict[tuple[int, int], str]
    row_tests: list[HomogeneityResult]
    col_tests: list[HomogeneityResult]
    row_spread: np.ndarray
    col_spread: np.ndarray
    selection: tuple[int, int]
    boot_reps: int
    seed: int

    def to_dict(self) -> dict:
        def spec_dict(s: ModelSpec) -> dict:
            return {**asdict(s), "covariates": list(s.covariates)}

        def test_dict(t: HomogeneityResult) -> dict:
            return {k: nan_to_none(v) for k, v in asdict(t).items()}

        return {
            "estimator": self.estimator,
            "propensity_models": [spec_dict(s) for s in self.p_specs],
            "outcome_models": [spec_dict(s) for s in self.o_specs],
            "estimates": [[nan_to_none(v) for v in row] for row in self.estimates.tolist()],
            "cell_messages": {
                f"{i},{j}": msg for (i, j), msg in sorted(self.cell_messages.items())
            },
            "row_tests": [test_dict(t) for t in self.row_tests],
            "col_tests": [test_dict(t) for t in self.col_tests],
            "row_spread": [nan_to_none(v) for v in self.row_spread.tolist()],
            "col_spread": [nan_to_none(v) for v in self.col_spread.tolist()],
            "selection": {"propensity": self.selection[0], "outcome": self.selection[1]},
            "boot_reps": self.boot_reps,
            "seed": self.seed,
        }


def _check_draws(boot_reps, seed) -> tuple[int, int]:
    """boot_reps (at least 2) and seed (in [0, 2**64)) as checked ints."""
    return check_int(boot_reps, "boot_reps", 2), check_seed(seed, "seed")


def _estimate_cell(
    view: AnalysisView, estimator: str, pi_start: tuple | None, memo: dict
) -> float:
    """One cell's estimate on a view of its two specs' designs, its logistic
    propensity fit started from pi_start, a Pipeline's (alpha, scale).
    The cells of one sample share memo, so they share each fit whose
    inputs they share (see Pipeline).  The estimator fits the propensity
    model first, as in estimate_all, so its failure ends the cell before
    any outcome fit."""
    return ESTIMATORS[estimator](Pipeline(view, pi_start=pi_start, memo=memo))


class _Sample:
    """The full sample as the cells see it: each spec's design, keyed by its
    covariate tuple, the masked outcomes, and the Pipeline memo of the
    full-sample fits, which build_matrix fills and the bootstrap reads.
    It is the one check of the data and the specs' column indices, and of
    the columns they use, which must be finite."""

    def __init__(self, covariates, T, Y, specs):
        covariates, Y = as_array(covariates, "covariates"), as_array(Y, "Y")
        T = check_response(T)
        if covariates.ndim != 2:
            raise InvalidArgumentError("covariates must be 2-d")
        n, n_cols = covariates.shape
        if T.shape != (n,) or Y.shape != (n,):
            raise InvalidArgumentError("T and Y must have one entry per row of covariates")
        check_observed(Y.compress(T == 1))
        used = sorted({c for s in specs for c in s.covariates})
        if used[-1] >= n_cols:
            raise InvalidArgumentError(
                f"covariate index {used[-1]} out of range for {n_cols} columns")
        finite = np.isfinite(covariates[:, used]).all(axis=0)
        if not finite.all():
            raise InvalidArgumentError(
                f"covariate column {used[int(np.argmin(finite))]} holds non-finite values"
            )
        self.designs = {s.covariates: design_matrix(covariates, s.covariates) for s in specs}
        self.T = T.astype(np.int64)
        self.y = np.where(self.T == 1, Y, np.nan)
        self.memo: dict = {}


def _estimate_cells(designs, T, y_observed, cells, estimator, starts, memo) -> dict:
    """Estimate each (p_spec, o_spec) cell on one sample.

    designs holds the sample's design per covariate tuple (see _Sample), so
    the cells of one covariate tuple see one array and, through the shared
    memo, whose keys name the inputs of each fit, share its fits: a
    propensity model is fitted once per design and start
    (starts.get(p_spec)), an outcome design's respondent design and
    unweighted fit once, and a weighted outcome fit once per propensity
    key and outcome design, so propensity specs on one design share it too.
    Returns each cell's estimate, or the DrmeanError it failed with.
    """
    out: dict = {}
    for ps, os_ in cells:
        view = AnalysisView(
            design_pi=designs[ps.covariates],
            design_m=designs[os_.covariates],
            T=T,
            y_observed=y_observed,
        )
        try:
            out[ps, os_] = _estimate_cell(view, estimator, starts.get(ps), memo)
        except DrmeanError as exc:
            out[ps, os_] = exc
    return out


def _check_roles(p_specs, o_specs, estimator) -> None:
    """InvalidArgumentError unless estimator is doubly robust, p_specs are
    propensity specs and o_specs outcome specs."""
    if estimator not in DR_ESTIMATORS:
        raise InvalidArgumentError(f"estimator must be doubly robust, one of {DR_ESTIMATORS}")
    for s in p_specs:
        if s.role != "propensity":
            raise InvalidArgumentError("p_specs must all have role 'propensity'")
    for s in o_specs:
        if s.role != "outcome":
            raise InvalidArgumentError("o_specs must all have role 'outcome'")


def _validate_specs(p_specs, o_specs, estimator):
    p_specs = check_collection(p_specs, ModelSpec, "p_specs")
    o_specs = check_collection(o_specs, ModelSpec, "o_specs")
    _check_roles(p_specs, o_specs, estimator)
    if not p_specs or not o_specs:
        raise InvalidArgumentError("need at least one spec per role")
    return p_specs, o_specs


def build_matrix(
    covariates,
    T,
    Y,
    p_specs,
    o_specs,
    estimator: str,
    *,
    _sample: _Sample | None = None,
) -> tuple[np.ndarray, dict[tuple[int, int], str]]:
    """Estimate under every (propensity, outcome) spec pairing.

    Returns the (J_p, J_o) estimate matrix with NaN for cells whose fit
    failed, plus failure messages keyed by cell index.  Each propensity
    spec is fitted once; a failed fit gives every cell of its row its
    message.  run_sensitivity passes its checked spec tuples and the
    _Sample of the same data, which this does not check again: it uses
    its designs, and its memo keeps the fits for the bootstrap.
    """
    if _sample is None:
        p_specs, o_specs = _validate_specs(p_specs, o_specs, estimator)
        _sample = _Sample(covariates, T, Y, p_specs + o_specs)
    cells = [(ps, os_) for ps in p_specs for os_ in o_specs]
    out = _estimate_cells(
        _sample.designs, _sample.T, _sample.y, cells, estimator, {}, _sample.memo
    )
    estimates = np.full((len(p_specs), len(o_specs)), np.nan)
    messages: dict[tuple[int, int], str] = {}
    for i, ps in enumerate(p_specs):
        for j, os_ in enumerate(o_specs):
            value = out[ps, os_]
            if isinstance(value, DrmeanError):
                messages[(i, j)] = f"{type(value).__name__}: {value}"
            else:
                estimates[i, j] = value
    return estimates, messages


class _Draws:
    """The bootstrap draws of one run, shared by all of its line tests.

    Draw b resamples the rows of sample, with the designs that cells use
    only, by PCG64(derive_seed(seed, b)) and estimates every cell in cells
    on the resample, with one memo per draw.  The rows are cut by
    take(idx): the values and C order of designs[k][idx], T[idx] and
    y[idx], at a third of the cost of indexing for a 1000 x 5 design.  Each propensity spec's draw
    fits take DRAW_NEWTON_STEPS Newton steps (linmod._fit_logistic_draw)
    from its full-sample fit, read through a Pipeline on sample.memo: the
    one build_matrix left there, else one made and kept there now.  Its
    start is that fit's coefficients and the column scale of the
    full-sample design (_equilibrate), taken once per design and run: every
    draw fit of the spec is preconditioned by it, and none scales its
    columns itself.  Propensity specs on one design get the same start,
    and so the same memo keys: they share one propensity fit per draw,
    and every fit and sum that depends on it.  A spec whose full-sample
    fit fails has no start: its draw fits start from zero and iterate to
    the stop rule, as k steps from zero are no k-step bootstrap.  Building
    one fits nothing: the starts and the draws are made on the first read
    of draws, inside the first line test.
    """

    def __init__(self, sample: _Sample, cells, estimator, boot_reps: int, seed: int):
        self.sample = sample
        self.cells = tuple(dict.fromkeys(cells))
        self.estimator = estimator
        self.boot_reps = boot_reps
        self.seed = seed

    @cached_property
    def draws(self) -> list[dict]:
        """Per draw, each cell's estimate or the DrmeanError it failed with."""
        sample, n = self.sample, self.sample.T.shape[0]
        starts = {}
        for ps in dict.fromkeys(ps for ps, _ in self.cells):
            d = sample.designs[ps.covariates]
            view = AnalysisView(design_pi=d, design_m=d, T=sample.T, y_observed=sample.y)
            try:
                alpha = Pipeline(view, memo=sample.memo).propensity().alpha
            except DrmeanError:
                continue
            with quiet():  # squares of a huge column overflow, as in the fit
                starts[ps] = (alpha, _equilibrate(d)[1])
        used = dict.fromkeys(s.covariates for cell in self.cells for s in cell)
        draws = []
        for b in range(self.boot_reps):
            rng = np.random.Generator(np.random.PCG64(derive_seed(self.seed, b)))
            idx = rng.integers(0, n, size=n)
            draws.append(_estimate_cells(
                {k: sample.designs[k].take(idx, axis=0) for k in used},
                sample.T.take(idx), sample.y.take(idx), self.cells, self.estimator, starts, {},
            ))
        return draws


def homogeneity_test(
    estimates_line,
    covariates,
    T,
    Y,
    fixed_spec: ModelSpec,
    varying_specs,
    estimator: str,
    boot_reps: int = 500,
    seed: int = 0,
    *,
    _draws: _Draws | None = None,
) -> HomogeneityResult:
    """Bootstrap Wald test that a line of estimates shares one value.

    The line holds fixed_spec fixed and varies varying_specs (the other
    role).  Contrasts are first-versus-rest; their covariance comes from
    boot_reps nonparametric bootstrap draws recomputed per spec, each
    propensity spec fitted once per draw.  Draw b resamples with
    PCG64(derive_seed(seed, b)); run_sensitivity passes the draws it
    shares between all of its lines as _draws, with a line it has checked,
    and this test on the same line and seed equals its line test bit for
    bit.  A draw in which one of the line's cells fails is discarded for
    this line.  The contrasts are taken in units of a power of two, so
    the result does not change when Y is scaled by one.  A singular
    contrast covariance falls back to a pseudoinverse with reduced
    degrees of freedom and is flagged.  At rank 0, where no contrast
    varies over the draws, df is 0: if every contrast is 0 in the data,
    p is 1 and the statistic 0; otherwise p is 0, the statistic NaN (JSON
    null) and the note says so.
    Lines of length one are trivially homogeneous (p = 1).
    """
    line = as_array(estimates_line, "estimates_line")

    def pair(v: ModelSpec) -> tuple[ModelSpec, ModelSpec]:
        return (fixed_spec, v) if fixed_spec.role == "propensity" else (v, fixed_spec)

    if _draws is None:
        varying_specs = check_collection(varying_specs, ModelSpec, "varying_specs")
        if line.shape != (len(varying_specs),):
            raise InvalidArgumentError("estimates_line length must match varying_specs")
        boot_reps, seed = _check_draws(boot_reps, seed)
        check_type(fixed_spec, ModelSpec, "fixed_spec")
        if any(v.role == fixed_spec.role for v in varying_specs):
            raise InvalidArgumentError("varying specs must have the opposite role")
        # one check of the whole line, so an empty line is checked too
        if fixed_spec.role == "propensity":
            _check_roles((fixed_spec,), varying_specs, estimator)
        else:
            _check_roles(varying_specs, (fixed_spec,), estimator)
        sample = _Sample(covariates, T, Y, (fixed_spec,) + varying_specs)
        finite = [pair(v) for v, x in zip(varying_specs, line) if math.isfinite(x)]
        _draws = _Draws(sample, finite, estimator, boot_reps, seed)

    keep = np.isfinite(line)
    dropped = "" if keep.all() else f"dropped {int((~keep).sum())} failed cell(s) from the line"
    line = line.compress(keep)
    cells = [pair(v) for v, k in zip(varying_specs, keep) if k]
    m = len(cells)
    used = failures = 0

    def result(p_value, statistic, note="", df=0, singular=False):
        """The result with the draw counts so far, note after the dropped-cell note."""
        note = "; ".join(filter(None, (dropped, note)))
        return HomogeneityResult(p_value, statistic, df, used, failures, singular, note)

    if m <= 1:
        trivial = "single-cell line" if m == 1 else "empty line"
        return result(1.0 if m == 1 else math.nan, 0.0, "" if dropped else trivial)
    rows = [[draw[c] for c in cells] for draw in _draws.draws]
    boot_rows = [r for r in rows if not any(isinstance(v, DrmeanError) for v in r)]
    used, failures = len(boot_rows), len(rows) - len(boot_rows)
    if used < max(_MIN_BOOT_USED, m + 1):
        return result(math.nan, math.nan, "too few successful bootstrap draws")
    boot = np.asarray(boot_rows)

    with quiet():
        d = line[0] - line[1:]
        boot_contrasts = boot[:, :1] - boot[:, 1:]
        if np.all(d == 0.0) and np.all(boot_contrasts == 0.0):
            # identical estimates in the data and every draw: homogeneous by
            # construction, exact unit p-value
            return result(1.0, 0.0, "all contrasts identically zero", df=m - 1, singular=True)
        # an exact division by a power of two near the largest contrast keeps
        # the covariance from overflowing or underflowing: the test is free of
        # the units of Y, bit for bit
        scale = _pow2(max(np.abs(d).max(), np.abs(boot_contrasts).max()))
        d, boot_contrasts = d / scale, boot_contrasts / scale
        sigma_c = np.cov(boot_contrasts.T, ddof=1).reshape(m - 1, m - 1)
        try:
            rank = int(np.linalg.matrix_rank(sigma_c, hermitian=True))
            pinv = np.linalg.pinv(sigma_c, hermitian=True)
        except np.linalg.LinAlgError as exc:
            raise NonconvergenceError(f"contrast covariance: {exc}") from None
        if rank == 0 and not np.all(d == 0.0):
            # a nonzero contrast that no draw varies: rejected, with no finite
            # Wald statistic to report
            return result(0.0, math.nan, "no contrast varies over the draws", singular=True)
        # max clamps numerically tiny negatives from the pseudoinverse, keeping NaN
        statistic = max(float(d @ pinv @ d), 0.0)
        # at rank 0 the pinv is zero, and so are the statistic and the contrasts
        p_value = 1.0 if rank == 0 else _chi2_sf(rank, statistic)
    return result(p_value, statistic, df=rank, singular=rank < m - 1)


def _chi2_sf(df: int, x: float) -> float:
    """P(chi^2_df > x) for an integer df >= 1 and x >= 0 or NaN, in closed
    form with math alone (Abramowitz & Stegun 26.4.4 and 26.4.5):

        even df: e^(-x/2) sum_{j < df/2} (x/2)^j / j!
        odd df:  erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2)
                 sum_{j=1}^{(df-1)/2} x^(j-1) / (1 * 3 * ... * (2j - 1))

    x = 0 gives 1.0 and NaN gives NaN; a sum that rounds above 1 gives
    1.0.  Where e^(-x/2) underflows to 0 (x > 1490, inf included) the
    result is 0.0, not the NaN of 0 * an overflowed sum; for df < 15 only
    subnormal values round so.
    """
    half = x / 2.0
    decay = math.exp(-half)
    if decay == 0.0:
        return 0.0
    total, term = 0.0, 1.0
    if df % 2 == 0:
        for j in range(1, df // 2 + 1):
            total += term
            term *= half / j
        p = decay * total
    else:
        for j in range(1, (df - 1) // 2 + 1):
            total += term
            term *= x / (2 * j + 1)
        p = math.erfc(math.sqrt(half)) + math.sqrt(2.0 * x / math.pi) * decay * total
    return min(p, 1.0)  # min keeps a NaN p


def _spread(values: np.ndarray) -> float:
    finite = values.compress(np.isfinite(values))
    if finite.size == 0:
        return math.nan
    return float(np.max(finite) - np.min(finite))


def _select(row_tests, col_tests, row_spread, col_spread) -> tuple[int, int]:
    """The (row, column) whose homogeneity is least rejected.

    Ties on p-value break toward the smaller spread of the line, then
    the lower index.  NaN p-values (untestable lines) always lose.
    """

    def best(tests: list[HomogeneityResult], spreads: np.ndarray) -> int:
        def key(i: int) -> tuple:
            p = tests[i].p_value
            p = -math.inf if math.isnan(p) else p
            s = spreads[i]
            s = math.inf if math.isnan(s) else s
            return (-p, s, i)

        return min(range(len(tests)), key=key)

    return best(row_tests, row_spread), best(col_tests, col_spread)


def run_sensitivity(
    covariates,
    T,
    Y,
    p_specs,
    o_specs,
    estimator: str,
    boot_reps: int = 500,
    seed: int = 0,
) -> SensitivityMatrix:
    """Full sensitivity pass: matrix, line tests, spreads, selection.

    Draw b is shared by every line: it evaluates every cell whose
    full-sample estimate is finite once, and each line test reads its own
    cells.  A line's test equals homogeneity_test(..., seed=seed) on that
    line, so adding a row does not change the p-values of existing lines.
    Every argument is checked before the first fit: boot_reps must be an
    integer >= 2 and seed an integer in [0, 2**64).
    """
    boot_reps, seed = _check_draws(boot_reps, seed)
    p_specs, o_specs = _validate_specs(p_specs, o_specs, estimator)
    sample = _Sample(covariates, T, Y, p_specs + o_specs)
    estimates, messages = build_matrix(
        covariates, T, Y, p_specs, o_specs, estimator, _sample=sample
    )
    kept = [(p_specs[i], o_specs[j]) for i, j in zip(*np.nonzero(np.isfinite(estimates)))]
    draws = _Draws(sample, kept, estimator, boot_reps, seed)

    def line_tests(lines, fixed_specs, varying_specs):
        """The test and the spread of each line; line k holds fixed_specs[k]."""
        tests = [
            homogeneity_test(line, covariates, T, Y, fixed, varying_specs, estimator,
                             boot_reps=boot_reps, seed=seed, _draws=draws)
            for line, fixed in zip(lines, fixed_specs)
        ]
        return tests, np.array([_spread(line) for line in lines])

    row_tests, row_spread = line_tests(estimates, p_specs, o_specs)
    col_tests, col_spread = line_tests(estimates.T, o_specs, p_specs)
    selection = _select(row_tests, col_tests, row_spread, col_spread)
    return SensitivityMatrix(
        estimator=estimator,
        p_specs=p_specs,
        o_specs=o_specs,
        estimates=estimates,
        cell_messages=messages,
        row_tests=row_tests,
        col_tests=col_tests,
        row_spread=row_spread,
        col_spread=col_spread,
        selection=selection,
        boot_reps=boot_reps,
        seed=seed,
    )
