"""Sensitivity analysis over grids of candidate model specifications.

A doubly robust estimator is recomputed under every pairing of candidate
propensity and outcome specifications, giving a matrix of estimates.
For each line of the matrix (one model held fixed, the other varied) a
nonparametric-bootstrap Wald test asks whether the estimates along the
line are compatible with a single common value; a low p-value means the
held-fixed model cannot make the answer invariant to its partner, which
is evidence against that model.  The selection rule picks the row and
column with the largest p-values.

Bootstrap draw b resamples the rows with PCG64(derive_seed(seed, b)), the
splitmix64 derivation of the simulation harness, and is shared by every
line: it evaluates the whole matrix once, and each line test reads its
own cells from it.  Matrices and p-values are reproducible bit for bit,
and a line's p-value does not depend on which other lines are tested.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from ._util import check_int, check_seed, derive_seed
from .dgp import AnalysisView, design_matrix
from .errors import DrmeanError, InvalidArgumentError, NonconvergenceError
from .estimators import ESTIMATORS, Pipeline

# estimators that combine a propensity and an outcome fit, in table order
DR_ESTIMATORS = tuple(
    name for name, e in ESTIMATORS.items() if e.weighted and e.outcome is not None
)

_PROPENSITY_METHODS = {
    "LOGISTIC_MLE": None,
    "INV_LINEAR_ML": "likelihood",
    "INV_LINEAR_MOMENT": "moment",
    "INV_LINEAR_UNCONSTRAINED": "unconstrained_moment",
}

_MIN_BOOT_USED = 20


@dataclass(frozen=True)
class ModelSpec:
    """A candidate model: which covariate columns it uses, and how it fits.

    role is "propensity" or "outcome".  kind defaults by role: logistic
    maximum likelihood for propensity models, while for outcome models it
    is fixed by the estimator and may only be stated redundantly.
    """

    role: str
    covariates: tuple[int, ...]
    kind: str | None = None

    def __post_init__(self) -> None:
        if self.role not in ("propensity", "outcome"):
            raise InvalidArgumentError(f"unknown role {self.role!r}")
        try:
            covariates = tuple(self.covariates)
        except TypeError:
            raise InvalidArgumentError("covariates must be a tuple of integers") from None
        covariates = tuple(check_int(c, "a covariate index") for c in covariates)
        if len(covariates) == 0:
            raise InvalidArgumentError("covariates must be a nonempty index tuple")
        if min(covariates) < 0:
            raise InvalidArgumentError("covariate indices must be nonnegative integers")
        object.__setattr__(self, "covariates", covariates)
        if self.role == "propensity" and self.kind is not None:
            if self.kind not in _PROPENSITY_METHODS:
                raise InvalidArgumentError(f"unknown propensity kind {self.kind!r}")


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
        def clean(x: float) -> float | None:
            return None if (x is None or math.isnan(x)) else float(x)

        def spec_dict(s: ModelSpec) -> dict:
            return {"role": s.role, "covariates": list(s.covariates), "kind": s.kind}

        def test_dict(t: HomogeneityResult) -> dict:
            return {
                "p_value": clean(t.p_value),
                "statistic": clean(t.statistic),
                "df": t.df,
                "n_boot_used": t.n_boot_used,
                "boot_failures": t.boot_failures,
                "singular": t.singular,
                "note": t.note,
            }

        return {
            "estimator": self.estimator,
            "propensity_models": [spec_dict(s) for s in self.p_specs],
            "outcome_models": [spec_dict(s) for s in self.o_specs],
            "estimates": [[clean(v) for v in row] for row in self.estimates.tolist()],
            "cell_messages": {
                f"{i},{j}": msg for (i, j), msg in sorted(self.cell_messages.items())
            },
            "row_tests": [test_dict(t) for t in self.row_tests],
            "col_tests": [test_dict(t) for t in self.col_tests],
            "row_spread": [clean(v) for v in self.row_spread.tolist()],
            "col_spread": [clean(v) for v in self.col_spread.tolist()],
            "selection": {"propensity": self.selection[0], "outcome": self.selection[1]},
            "boot_reps": self.boot_reps,
            "seed": self.seed,
        }


def _check_draws(boot_reps, seed) -> tuple[int, int]:
    """boot_reps (at least 2) and seed (in [0, 2**64)) as checked ints."""
    boot_reps, seed = check_int(boot_reps, "boot_reps"), check_seed(seed, "seed")
    if boot_reps < 2:
        raise InvalidArgumentError("boot_reps must be at least 2")
    return boot_reps, seed


def _estimate_cell(
    view: AnalysisView,
    p_spec: ModelSpec,
    estimator: str,
    pi_start: np.ndarray | None,
    memo: dict,
) -> float:
    """One cell's estimate on a view of its two specs' designs, its logistic
    propensity fit started from pi_start.  The cells of one sample share
    memo (see Pipeline)."""
    method = _PROPENSITY_METHODS[p_spec.kind or "LOGISTIC_MLE"]
    pipe = Pipeline(view, inverse_linear=method, pi_start=pi_start, memo=memo)
    pipe.propensity()  # fit first: its failure ends the cell before any outcome fit
    return ESTIMATORS[estimator](pipe)


class _Sample:
    """The full sample as the cells see it: each spec's design, keyed by its
    covariate tuple, the masked outcomes, and the Pipeline memo of the
    full-sample fits, which build_matrix fills and the bootstrap reads.
    It is the one check of the data and the specs' column indices."""

    def __init__(self, covariates, T, Y, specs):
        covariates = np.asarray(covariates, dtype=float)
        T = np.asarray(T)
        Y = np.asarray(Y, dtype=float)
        if covariates.ndim != 2:
            raise InvalidArgumentError("covariates must be 2-d")
        n, n_cols = covariates.shape
        if T.shape != (n,) or Y.shape != (n,):
            raise InvalidArgumentError("T and Y must have one entry per row of covariates")
        if not np.all((T == 0) | (T == 1)):
            raise InvalidArgumentError("T must be 0/1")
        if not np.all(np.isfinite(Y[T == 1])):
            raise InvalidArgumentError("respondent outcomes must be finite")
        for s in specs:
            if max(s.covariates) >= n_cols:
                raise InvalidArgumentError(
                    f"covariate index {max(s.covariates)} out of range for {n_cols} columns"
                )
        self.designs = {s.covariates: design_matrix(covariates, s.covariates) for s in specs}
        self.T = T.astype(np.int64)
        self.y = np.where(self.T == 1, Y, np.nan)
        self.memo: dict = {}


def _estimate_cells(designs, T, y_observed, cells, estimator, starts, memo) -> dict:
    """Estimate each (p_spec, o_spec) cell on one sample.

    designs holds the sample's design per covariate tuple (see _Sample), so
    the cells of one covariate tuple see one array and, through the shared
    memo, share its fits: a propensity model is fitted once per design,
    method and start (starts.get(p_spec)), and an outcome design's
    respondent design and unweighted fit are made once.  Returns each
    cell's estimate, or the DrmeanError it failed with.
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
            out[ps, os_] = _estimate_cell(view, ps, estimator, starts.get(ps), memo)
        except DrmeanError as exc:
            out[ps, os_] = exc
    return out


def _validate_specs(p_specs, o_specs, estimator):
    p_specs = tuple(p_specs)
    o_specs = tuple(o_specs)
    if estimator not in DR_ESTIMATORS:
        raise InvalidArgumentError(
            f"estimator must be doubly robust, one of {DR_ESTIMATORS}"
        )
    if not p_specs or not o_specs:
        raise InvalidArgumentError("need at least one spec per role")
    for s in p_specs:
        if s.role != "propensity":
            raise InvalidArgumentError("p_specs must all have role 'propensity'")
    implied = ESTIMATORS[estimator].outcome
    for s in o_specs:
        if s.role != "outcome":
            raise InvalidArgumentError("o_specs must all have role 'outcome'")
        if s.kind is not None and s.kind != implied:
            raise InvalidArgumentError(
                f"outcome kind {s.kind!r} conflicts with {estimator} (implies {implied!r})"
            )
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

    Draw b resamples the rows of sample with PCG64(derive_seed(seed, b))
    and estimates every cell in cells on the resample, with one memo per
    draw.  Each logistic propensity spec starts its draw fits from its
    full-sample fit, read through a Pipeline on sample.memo: the one
    build_matrix left there, else one made and kept there now (from zero
    if that fit fails).  Logistic specs on one design therefore get the
    same start array and share one fit per draw.  The draws are evaluated
    on first use, inside the first line test that reads them.
    """

    def __init__(self, sample: _Sample, cells, estimator, boot_reps: int, seed: int):
        self.cells = tuple(dict.fromkeys(cells))
        self.estimator = estimator
        self.boot_reps = boot_reps
        self.seed = seed
        used = {s.covariates for cell in self.cells for s in cell}
        self._designs = {k: d for k, d in sample.designs.items() if k in used}
        self._T = sample.T
        self._y = sample.y
        p_specs = dict.fromkeys(ps for ps, _ in self.cells)
        self._starts = {
            ps: self._start(sample, ps) for ps in p_specs if ps.kind in (None, "LOGISTIC_MLE")
        }
        self._draws: list[dict] | None = None

    def _start(self, sample: _Sample, p_spec: ModelSpec) -> np.ndarray | None:
        d = sample.designs[p_spec.covariates]
        pipe = Pipeline(
            AnalysisView(design_pi=d, design_m=d, T=sample.T, y_observed=sample.y),
            memo=sample.memo,
        )
        try:
            return pipe.propensity().alpha
        except DrmeanError:
            return None

    def draws(self) -> list[dict]:
        """Per draw, each cell's estimate or the DrmeanError it failed with."""
        if self._draws is None:
            n = self._T.shape[0]
            draws = []
            for b in range(self.boot_reps):
                rng = np.random.Generator(np.random.PCG64(derive_seed(self.seed, b)))
                idx = rng.integers(0, n, size=n)
                draws.append(_estimate_cells(
                    {k: d[idx] for k, d in self._designs.items()},
                    self._T[idx], self._y[idx], self.cells, self.estimator,
                    self._starts, {},
                ))
            self._draws = draws
        return self._draws


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
    this line.  A singular contrast covariance falls back to a
    pseudoinverse with reduced degrees of freedom and is flagged.  Lines
    of length one are trivially homogeneous (p = 1).
    """
    varying_specs = tuple(varying_specs)
    line = np.asarray(estimates_line, dtype=float)
    m = len(varying_specs)

    def pair(v: ModelSpec) -> tuple[ModelSpec, ModelSpec]:
        if fixed_spec.role == "propensity":
            return fixed_spec, v
        return v, fixed_spec

    if _draws is None:
        if line.shape != (m,):
            raise InvalidArgumentError("estimates_line length must match varying_specs")
        boot_reps, seed = _check_draws(boot_reps, seed)
        for v in varying_specs:
            if v.role == fixed_spec.role:
                raise InvalidArgumentError("varying specs must have the opposite role")
            ps, os_ = pair(v)
            _validate_specs((ps,), (os_,), estimator)
        sample = _Sample(covariates, T, Y, (fixed_spec,) + varying_specs)

    keep = np.isfinite(line)
    note = ""
    if not keep.all():
        note = f"dropped {int((~keep).sum())} failed cell(s) from the line"
        line = line[keep]
        varying_specs = tuple(v for v, k in zip(varying_specs, keep) if k)
        m = len(varying_specs)
    if m <= 1:
        return HomogeneityResult(
            p_value=1.0 if m == 1 else math.nan,
            statistic=0.0,
            df=0,
            n_boot_used=0,
            boot_failures=0,
            singular=False,
            note=note or ("single-cell line" if m == 1 else "empty line"),
        )

    cells = [pair(v) for v in varying_specs]
    if _draws is None:
        _draws = _Draws(sample, cells, estimator, boot_reps, seed)
    boot_rows = []
    failures = 0
    for draw in _draws.draws():
        row = [draw[c] for c in cells]
        if any(isinstance(v, DrmeanError) for v in row):
            failures += 1
        else:
            boot_rows.append(row)
    used = len(boot_rows)
    if used < max(_MIN_BOOT_USED, m + 1):
        return HomogeneityResult(
            p_value=math.nan,
            statistic=math.nan,
            df=0,
            n_boot_used=used,
            boot_failures=failures,
            singular=False,
            note=(note + "; " if note else "") + "too few successful bootstrap draws",
        )
    boot = np.asarray(boot_rows)

    contrast = np.zeros((m - 1, m))
    contrast[:, 0] = 1.0
    contrast[np.arange(m - 1), np.arange(1, m)] = -1.0
    d = contrast @ line
    boot_contrasts = boot @ contrast.T
    if np.all(d == 0.0) and np.all(boot_contrasts == 0.0):
        # identical estimates in the data and every draw: homogeneous by
        # construction, exact unit p-value
        return HomogeneityResult(
            p_value=1.0,
            statistic=0.0,
            df=m - 1,
            n_boot_used=used,
            boot_failures=failures,
            singular=True,
            note=(note + "; " if note else "") + "all contrasts identically zero",
        )
    sigma_c = np.cov(boot_contrasts.T, ddof=1).reshape(m - 1, m - 1)
    try:
        rank = int(np.linalg.matrix_rank(sigma_c, hermitian=True))
        pinv = np.linalg.pinv(sigma_c, hermitian=True)
    except np.linalg.LinAlgError as exc:
        raise NonconvergenceError(f"contrast covariance: {exc}") from None
    singular = rank < m - 1
    statistic = float(d @ pinv @ d)
    if statistic < 0:  # numerically tiny negatives from the pseudoinverse
        statistic = 0.0
    df = rank
    if df == 0:
        p_value = 1.0 if statistic == 0.0 else 0.0
    else:
        p_value = float(chdtrc(df, statistic))
    return HomogeneityResult(
        p_value=p_value,
        statistic=statistic,
        df=df,
        n_boot_used=used,
        boot_failures=failures,
        singular=singular,
        note=note,
    )


def _spread(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return math.nan
    return float(np.max(finite) - np.min(finite))


def select_models(
    row_tests: list[HomogeneityResult],
    col_tests: list[HomogeneityResult],
    row_spread: np.ndarray,
    col_spread: np.ndarray,
) -> tuple[int, int]:
    """Pick the (row, column) whose homogeneity is least rejected.

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
    Every argument is checked before the first fit.
    """
    boot_reps, seed = _check_draws(boot_reps, seed)
    p_specs, o_specs = _validate_specs(p_specs, o_specs, estimator)
    sample = _Sample(covariates, T, Y, p_specs + o_specs)
    estimates, messages = build_matrix(
        covariates, T, Y, p_specs, o_specs, estimator, _sample=sample
    )
    kept = [(p_specs[i], o_specs[j]) for i, j in zip(*np.nonzero(np.isfinite(estimates)))]
    draws = _Draws(sample, kept, estimator, boot_reps, seed)
    row_tests = [
        homogeneity_test(
            estimates[i, :], covariates, T, Y, p_specs[i], o_specs, estimator,
            boot_reps=boot_reps, seed=seed, _draws=draws,
        )
        for i in range(len(p_specs))
    ]
    col_tests = [
        homogeneity_test(
            estimates[:, j], covariates, T, Y, o_specs[j], p_specs, estimator,
            boot_reps=boot_reps, seed=seed, _draws=draws,
        )
        for j in range(len(o_specs))
    ]
    row_spread = np.array([_spread(estimates[i, :]) for i in range(len(p_specs))])
    col_spread = np.array([_spread(estimates[:, j]) for j in range(len(o_specs))])
    selection = select_models(row_tests, col_tests, row_spread, col_spread)
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
