"""Sensitivity analysis over grids of candidate model specifications.

A doubly robust estimator is recomputed under every pairing of candidate
propensity and outcome specifications, giving a matrix of estimates.
For each line of the matrix (one model held fixed, the other varied) a
nonparametric-bootstrap Wald test asks whether the estimates along the
line are compatible with a single common value; a low p-value means the
held-fixed model cannot make the answer invariant to its partner, which
is evidence against that model.  The selection rule picks the row and
column with the largest p-values.

All bootstrap resampling is seeded through the same splitmix64
derivation as the simulation harness, so matrices and p-values are
reproducible bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from ._util import derive_seed
from .dgp import AnalysisView, design_matrix
from .errors import DrmeanError, InvalidArgumentError
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
        if len(self.covariates) == 0:
            raise InvalidArgumentError("covariates must be a nonempty index tuple")
        if any(int(c) != c or c < 0 for c in self.covariates):
            raise InvalidArgumentError("covariate indices must be nonnegative integers")
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


def _check_data(covariates, T, Y):
    covariates = np.asarray(covariates, dtype=float)
    T = np.asarray(T)
    Y = np.asarray(Y, dtype=float)
    if covariates.ndim != 2:
        raise InvalidArgumentError("covariates must be 2-d")
    n = covariates.shape[0]
    if T.shape != (n,) or Y.shape != (n,):
        raise InvalidArgumentError("T and Y must have one entry per row of covariates")
    if not np.all((T == 0) | (T == 1)):
        raise InvalidArgumentError("T must be 0/1")
    if not np.all(np.isfinite(Y[T == 1])):
        raise InvalidArgumentError("respondent outcomes must be finite")
    return covariates, T.astype(np.int64), Y


def _check_spec_indices(specs, n_cols: int) -> None:
    for s in specs:
        if max(s.covariates) >= n_cols:
            raise InvalidArgumentError(
                f"covariate index {max(s.covariates)} out of range for {n_cols} columns"
            )


def _estimate_cell(
    covariates: np.ndarray,
    T: np.ndarray,
    Y: np.ndarray,
    p_spec: ModelSpec,
    o_spec: ModelSpec,
    estimator: str,
    pi_cache: dict | None = None,
) -> float:
    """One cell's estimate.  pi_cache, if given, is shared by the cells of
    one sample and p_spec, which then fit their propensity model once."""
    view = AnalysisView(
        design_pi=design_matrix(covariates, p_spec.covariates),
        design_m=design_matrix(covariates, o_spec.covariates),
        T=T,
        y_observed=np.where(T == 1, Y, np.nan),
    )
    method = _PROPENSITY_METHODS[p_spec.kind or "LOGISTIC_MLE"]
    pipe = Pipeline(view, inverse_linear=method, pi_cache=pi_cache)
    pipe.propensity()  # fit first: its failure ends the cell before any outcome fit
    return ESTIMATORS[estimator](pipe)


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
) -> tuple[np.ndarray, dict[tuple[int, int], str]]:
    """Estimate under every (propensity, outcome) spec pairing.

    Returns the (J_p, J_o) estimate matrix with NaN for cells whose fit
    failed, plus failure messages keyed by cell index.  Each row fits its
    propensity model once; a failed fit gives every cell of the row its
    message.
    """
    covariates, T, Y = _check_data(covariates, T, Y)
    p_specs, o_specs = _validate_specs(p_specs, o_specs, estimator)
    _check_spec_indices(p_specs + o_specs, covariates.shape[1])
    estimates = np.full((len(p_specs), len(o_specs)), np.nan)
    messages: dict[tuple[int, int], str] = {}
    for i, ps in enumerate(p_specs):
        pi_cache: dict = {}
        for j, os_ in enumerate(o_specs):
            try:
                estimates[i, j] = _estimate_cell(
                    covariates, T, Y, ps, os_, estimator, pi_cache
                )
            except DrmeanError as exc:
                messages[(i, j)] = f"{type(exc).__name__}: {exc}"
    return estimates, messages


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
) -> HomogeneityResult:
    """Bootstrap Wald test that a line of estimates shares one value.

    The line holds fixed_spec fixed and varies varying_specs (the other
    role).  Contrasts are first-versus-rest; their covariance comes from
    boot_reps nonparametric bootstrap draws recomputed per spec, each
    propensity spec fitted once per draw.  Cells that fail in a draw
    discard that draw.  A singular contrast covariance falls back to a
    pseudoinverse with reduced degrees of freedom and is flagged.  Lines
    of length one are trivially homogeneous (p = 1).
    """
    covariates, T, Y = _check_data(covariates, T, Y)
    varying_specs = tuple(varying_specs)
    line = np.asarray(estimates_line, dtype=float)
    m = len(varying_specs)
    if line.shape != (m,):
        raise InvalidArgumentError("estimates_line length must match varying_specs")
    if boot_reps < 2:
        raise InvalidArgumentError("boot_reps must be at least 2")
    def pair(v: ModelSpec) -> tuple[ModelSpec, ModelSpec]:
        if fixed_spec.role == "propensity":
            return fixed_spec, v
        return v, fixed_spec

    for v in varying_specs:
        if v.role == fixed_spec.role:
            raise InvalidArgumentError("varying specs must have the opposite role")
        ps, os_ = pair(v)
        _validate_specs((ps,), (os_,), estimator)
    _check_spec_indices((fixed_spec,) + varying_specs, covariates.shape[1])

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

    n = covariates.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    boot_rows = []
    failures = 0
    for _ in range(boot_reps):
        idx = rng.integers(0, n, size=n)
        cov_b, t_b, y_b = covariates[idx], T[idx], Y[idx]
        row = np.empty(m)
        pi_caches: dict[ModelSpec, dict] = {}
        try:
            for k, v in enumerate(varying_specs):
                ps, os_ = pair(v)
                row[k] = _estimate_cell(
                    cov_b, t_b, y_b, ps, os_, estimator, pi_caches.setdefault(ps, {})
                )
        except DrmeanError:
            failures += 1
            continue
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
    rank = int(np.linalg.matrix_rank(sigma_c, hermitian=True))
    singular = rank < m - 1
    pinv = np.linalg.pinv(sigma_c, hermitian=True)
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

    Each line test gets its own derived seed, so adding a row does not
    change the p-values of existing rows.
    """
    covariates, T, Y = _check_data(covariates, T, Y)
    p_specs, o_specs = _validate_specs(p_specs, o_specs, estimator)
    estimates, messages = build_matrix(covariates, T, Y, p_specs, o_specs, estimator)
    row_tests = [
        homogeneity_test(
            estimates[i, :], covariates, T, Y, p_specs[i], o_specs, estimator,
            boot_reps=boot_reps, seed=derive_seed(seed, i),
        )
        for i in range(len(p_specs))
    ]
    col_tests = [
        homogeneity_test(
            estimates[:, j], covariates, T, Y, o_specs[j], p_specs, estimator,
            boot_reps=boot_reps, seed=derive_seed(seed, len(p_specs) + j),
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
