"""Point estimators of the outcome mean and the pipeline that runs them all.

Estimator names are part of the output schema (CSV and JSON) and never
change spelling:

  OLS         plug-in mean of the unweighted outcome regression
  HT          unnormalised inverse-probability weighting
  IPW_POP     weights normalised to sum to one
  DR_REG      augmented IPW with the unweighted regression
  DR_WLS      plug-in mean of the inverse-weighted regression
  DR_IPW_NR   plug-in mean of the weighted fit with pi_hat as covariate
  DR_EXT_REG  plug-in mean of the fit with 1/pi_hat as covariate
  B_DR_REG    bounded augmented IPW (correction renormalised)
  B_DR_EXT    bounded form under the one-parameter extended propensity
  FULL        mean of the complete outcomes (simulation reference)

Each formula is written once (_ht, _ipw_pop, _aipw, _b_dr, _plug_in), on
the respondent terms of a propensity fit (_Respondents: 1 / pi_hat and y
on respondents, the sums of w and w y) and the terms of an outcome fit
(_Fitted: m_hat and its sum).  The public mu_* functions build those
terms from their arguments.  ESTIMATORS is the single definition of each
estimator: the outcome fit it needs and how it combines the fits.
estimate_all and the sensitivity cells both evaluate it on a Pipeline,
which memoises the fits and their terms, so one replication checks each
propensity fit's respondents once and takes each shared exact sum once.
The weight diagnostics of estimate_all come from the base fit alone.

The three plug-in doubly robust forms (DR_WLS, DR_IPW_NR, DR_EXT_REG)
coincide with their augmented-IPW counterparts because each fit zeroes
the inverse-weighted respondent residual moment by construction; they
are reported through the plug-in route, which is bounded by the range
of the fitted values.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linmod
from ._util import fsum_col_means
from .dgp import AnalysisView, FullSample
from .errors import (
    DrmeanError,
    InvalidArgumentError,
    InvalidWeightError,
    UndefinedEstimatorError,
)

FLAG_OK = "ok"
FLAG_OUT_OF_RANGE = "out_of_observed_range"
FLAG_FAILED = "fit_failed"


def _respondents(pi_hat, T, Y):
    """(resp, 1 / pi_hat[resp], Y[resp]) for resp = (T == 1), all checked."""
    T = np.asarray(T)
    resp = T == 1
    pi_hat = np.asarray(pi_hat, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if pi_hat.shape != T.shape or Y.shape != T.shape:
        raise InvalidArgumentError("pi_hat and Y lengths must match T")
    if not resp.any():
        raise UndefinedEstimatorError("no respondents")
    pr = pi_hat[resp]
    if np.any(pr <= 0) or not np.all(np.isfinite(pr)):
        raise InvalidWeightError("pi_hat must be finite and positive on respondents")
    y = Y[resp]
    if not np.all(np.isfinite(y)):
        raise InvalidArgumentError("observed outcomes contain non-finite values")
    return resp, 1.0 / pr, y


def _check_fitted(m_hat, T) -> np.ndarray:
    """m_hat as a float array, checked to have one entry per unit."""
    m_hat = np.asarray(m_hat, dtype=float)
    if m_hat.shape != np.shape(T):
        raise InvalidArgumentError("m_hat length must match T")
    return m_hat


class _Respondents:
    """The respondent terms of one propensity fit, checked by _respondents.

    resp, w = 1 / pi_hat[resp] and y = Y[resp] over n units, with the
    exact sums of w and of w y that several estimators read, each taken
    on first use.
    """

    def __init__(self, pi_hat, T, Y):
        self.resp, self.w, self.y = _respondents(pi_hat, T, Y)
        self.n = len(self.resp)

    @cached_property
    def w_sum(self) -> float:
        return math.fsum(self.w.tolist())

    @cached_property
    def wy_sum(self) -> float:
        return math.fsum((self.w * self.y).tolist())

    def residual_sum(self, fitted: "_Fitted") -> float:
        """Exact sum of w (y - m_hat) over respondents."""
        return math.fsum((self.w * (self.y - fitted.m_hat[self.resp])).tolist())


class _Fitted:
    """Fitted values m_hat as a float array, with their exact sum taken on first use."""

    def __init__(self, m_hat):
        self.m_hat = np.asarray(m_hat, dtype=float)

    @cached_property
    def total(self) -> float:
        return math.fsum(self.m_hat.tolist())


# Each estimator's formula, written once: the public mu_* functions and
# ESTIMATORS both evaluate these on _Respondents and _Fitted terms.


def _ht(r: _Respondents) -> float:
    return r.wy_sum / r.n


def _ipw_pop(r: _Respondents) -> float:
    return r.wy_sum / r.w_sum


def _aipw(r: _Respondents, f: _Fitted) -> float:
    correction = r.residual_sum(f)
    return f.total / r.n + correction / r.n


def _b_dr(r: _Respondents, f: _Fitted) -> float:
    if r.w_sum <= 0:
        raise UndefinedEstimatorError("sum of inverse weights is not positive")
    correction = r.residual_sum(f)
    return f.total / r.n + correction / r.w_sum


def _plug_in(f: _Fitted) -> float:
    if f.m_hat.size == 0:
        raise UndefinedEstimatorError("no fitted values")
    return f.total / f.m_hat.size


def mu_ht(pi_hat, T, Y) -> float:
    """Unnormalised IPW mean: P_n[T y / pi_hat].  Unbounded."""
    return _ht(_Respondents(pi_hat, T, Y))


def mu_ipw_pop(pi_hat, T, Y) -> float:
    """Normalised IPW mean, a convex combination of observed outcomes."""
    return _ipw_pop(_Respondents(pi_hat, T, Y))


def mu_aipw(pi_hat, m_hat, T, Y) -> float:
    """Augmented IPW: P_n[m_hat] + P_n[T (y - m_hat) / pi_hat]."""
    return _aipw(_Respondents(pi_hat, T, Y), _Fitted(_check_fitted(m_hat, T)))


def mu_b_dr(pi_hat, m_hat, T, Y) -> float:
    """Bounded variant: the correction term is divided by P_n[T / pi_hat].

    Equals P_n[m_hat] plus a weighted mean of respondent residuals, so it
    can never leave [min m_hat, max m_hat] by more than the largest
    absolute residual.
    """
    return _b_dr(_Respondents(pi_hat, T, Y), _Fitted(_check_fitted(m_hat, T)))


def mu_from_regression(m_hat) -> float:
    """Plug-in mean of fitted values: P_n[m_hat]."""
    return _plug_in(_Fitted(m_hat))


def mu_full(Y) -> float:
    """Mean of the complete outcomes (available in simulation only)."""
    Y = np.asarray(Y, dtype=float)
    if Y.size == 0:
        raise UndefinedEstimatorError("no outcomes")
    if not np.all(np.isfinite(Y)):
        raise InvalidArgumentError("complete outcomes contain non-finite values")
    return math.fsum(Y.tolist()) / Y.size


@dataclass
class EstimateSet:
    """Results of estimate_all: values keyed by estimator name.

    flags[name] is "ok", "out_of_observed_range" (value defined but
    outside the respondent outcome range) or "fit_failed"; messages
    carries the failure reason for the last case.  values has an entry
    for every requested name, NaN when the fit failed.
    """

    values: dict[str, float]
    flags: dict[str, str]
    messages: dict[str, str] = field(default_factory=dict)
    diagnostics: linmod.WeightDiagnostics | None = None


class Pipeline:
    """Lazy, memoised model fits and respondent terms shared across the
    requested estimators.

    The propensity fit is logistic unless inverse_linear names a method of
    linmod.fit_inverse_linear; a logistic fit starts from the coefficients
    pi_start, if given.  Beside the fits, one replication's respondent
    algebra is memoised too: the checked respondent terms of the base and
    of the extended propensity fit, with their sums of w and w y
    (respondents), and the sum of each outcome fit's fitted values
    (fitted).  A failure is memoised as well and re-raised, with its
    class and message, to every estimator that needs it.  Pipelines on
    the same design_pi, T, inverse_linear and pi_start may share one
    pi_cache dict, so that their propensity model is fitted once for all
    of them.
    """

    def __init__(
        self,
        view: AnalysisView,
        full: FullSample | None = None,
        inverse_linear: str | None = None,
        pi_cache: dict | None = None,
        pi_start: np.ndarray | None = None,
    ):
        self.view = view
        self.full = full
        self.inverse_linear = inverse_linear
        self.pi_start = pi_start
        self.T = np.asarray(view.T)
        self.y = np.asarray(view.y_observed, dtype=float)
        self._cache: dict[str, object] = {}
        self._pi_cache = self._cache if pi_cache is None else pi_cache

    def _get(self, key: str, build, cache: dict | None = None):
        cache = self._cache if cache is None else cache
        if key not in cache:
            try:
                cache[key] = build()
            except DrmeanError as exc:
                cache[key] = exc
        out = cache[key]
        if isinstance(out, DrmeanError):
            raise out
        return out

    def propensity(self) -> linmod.PropensityFit:
        def build():
            if self.inverse_linear is None:
                return linmod.fit_logistic_propensity(
                    self.view.design_pi, self.view.T, start=self.pi_start
                )
            return linmod.fit_inverse_linear(
                self.view.design_pi, self.view.T, self.inverse_linear
            )

        return self._get("pi", build, self._pi_cache)

    def outcome(self, kind: str) -> linmod.OutcomeFit:
        """Outcome fit "REG", "WLS", "EXT_REG" or "IPW_NR" (fit_outcome_<kind>)."""

        def build():
            fit = getattr(linmod, f"fit_outcome_{kind.lower()}")
            if kind == "REG":
                return fit(self.view)
            return fit(self.view, self.propensity().pi_hat)

        return self._get(kind, build)

    def fitted(self, kind: str) -> _Fitted:
        """The fitted values of outcome(kind), with their memoised sum."""
        return self._get(f"{kind} fitted", lambda: _Fitted(self.outcome(kind).m_hat))

    def extended(self) -> linmod.PropensityFit:
        """Logistic fit extended along the centred unweighted regression."""

        def build():
            if self.inverse_linear is not None:
                raise InvalidArgumentError("B_DR_EXT requires a logistic propensity model")
            reg = self.fitted("REG")
            h = reg.m_hat - _plug_in(reg)
            return linmod.fit_extended_propensity(self.propensity(), h, self.view.T)

        return self._get("extended", build)

    def respondents(self, extended: bool = False) -> _Respondents:
        """The respondent terms of propensity(), or of extended() if extended."""
        fit = self.extended if extended else self.propensity
        return self._get(
            f"{'extended' if extended else 'pi'} respondents",
            lambda: _Respondents(fit().pi_hat, self.T, self.y),
        )


def _full_sample_mean(pipe: Pipeline, fitted) -> float:
    if pipe.full is None:
        raise UndefinedEstimatorError("complete outcomes unavailable")
    return mu_full(pipe.full.Y)


@dataclass(frozen=True)
class Estimator:
    """One estimator: the fits it needs and how it combines them.

    combine(pipeline, fitted) gets fitted as a thunk for the outcome fit's
    _Fitted terms, so that each estimator asks for its fits in its own
    order and the first failing fit is the one reported.
    """

    outcome: str | None  # outcome fit kind, a Pipeline.outcome key
    weighted: bool       # needs a propensity fit
    combine: Callable[[Pipeline, Callable[[], _Fitted]], float]

    def __call__(self, pipe: Pipeline) -> float:
        return self.combine(pipe, lambda: pipe.fitted(self.outcome))


def _plug_in_estimate(pipe, fitted):
    return _plug_in(fitted())


def _augmented(formula, extended: bool = False):
    """combine for formula(respondents, fitted): the propensity fit first,
    then the outcome fit, then the respondent check, as in the standalone
    mu_* call on those fits."""

    def combine(pipe, fitted):
        (pipe.extended if extended else pipe.propensity)()
        f = fitted()
        return formula(pipe.respondents(extended), f)

    return combine


# The order is the output order of every table and CSV.
ESTIMATORS: dict[str, Estimator] = {
    "OLS": Estimator("REG", False, _plug_in_estimate),
    "HT": Estimator(None, True, lambda p, f: _ht(p.respondents())),
    "IPW_POP": Estimator(None, True, lambda p, f: _ipw_pop(p.respondents())),
    "DR_REG": Estimator("REG", True, _augmented(_aipw)),
    "DR_WLS": Estimator("WLS", True, _plug_in_estimate),
    "DR_IPW_NR": Estimator("IPW_NR", True, _plug_in_estimate),
    "DR_EXT_REG": Estimator("EXT_REG", True, _plug_in_estimate),
    "B_DR_REG": Estimator("REG", True, _augmented(_b_dr)),
    "B_DR_EXT": Estimator("REG", True, _augmented(_b_dr, extended=True)),
    "FULL": Estimator(None, False, _full_sample_mean),
}

ESTIMATOR_NAMES = tuple(ESTIMATORS)


def check_estimator_names(names) -> tuple[str, ...]:
    """names as a tuple; InvalidArgumentError if any is unknown or repeated."""
    names = tuple(names)
    bad = [nm for nm in names if nm not in ESTIMATORS]
    if bad:
        raise InvalidArgumentError(f"unknown estimator name(s): {', '.join(map(str, bad))}")
    repeated = sorted({nm for nm in names if names.count(nm) > 1})
    if repeated:
        raise InvalidArgumentError(f"duplicate estimator name(s): {', '.join(repeated)}")
    return names


def estimate_all(
    view: AnalysisView,
    full: FullSample | None = None,
    which: tuple[str, ...] | None = None,
) -> EstimateSet:
    """Compute the requested estimators on one analysis view.

    Model fits are shared and each failure is isolated: a propensity fit
    that diverges marks every weighted estimator as failed but leaves OLS
    (and FULL, when a complete sample is supplied) intact.
    """
    names = ESTIMATOR_NAMES if which is None else check_estimator_names(which)
    pipe = Pipeline(view, full)
    y_resp = pipe.y[pipe.T == 1]
    y_resp = y_resp[~np.isnan(y_resp)]
    lo, hi = (y_resp.min(), y_resp.max()) if y_resp.size else (math.inf, -math.inf)
    values: dict[str, float] = {}
    flags: dict[str, str] = {}
    messages: dict[str, str] = {}
    for name in names:
        try:
            value = ESTIMATORS[name](pipe)
        except DrmeanError as exc:
            values[name] = math.nan
            flags[name] = FLAG_FAILED
            messages[name] = f"{type(exc).__name__}: {exc}"
            continue
        values[name] = value
        if lo <= value <= hi:
            flags[name] = FLAG_OK
        else:
            flags[name] = FLAG_OUT_OF_RANGE

    diagnostics = None
    try:
        diagnostics = linmod.weight_diagnostics(pipe.propensity().pi_hat, pipe.T)
    except DrmeanError:
        pass
    return EstimateSet(values=values, flags=flags, messages=messages, diagnostics=diagnostics)


@dataclass
class IdentitiesReport:
    """Outcome of the algebraic cross-checks around the OLS estimator."""

    mu_ols: float
    bounded_ht: float
    abs_difference: float
    eq_weighted_residuals: list[float]  # |P_n[T (a'x)(y - m_hat)]| per draw
    moment_residual: float              # max |P_n[(T alpha'x - 1) x]|
    tol: float
    passed: bool
    skipped: bool = False
    reason: str = ""


def mu_ols_identities_check(
    view: AnalysisView,
    n_random_alphas: int = 3,
    seed: int = 0,
    tol: float = 1e-8,
) -> IdentitiesReport:
    """Verify that OLS is itself an inverse-linear weighted mean.

    Fits the unconstrained inverse-linear response model on the outcome
    design and checks (a) the plug-in OLS mean equals the bounded
    weighted mean sum(T a'x y) / sum(T a'x) at the fitted alpha, and (b)
    the respondent residuals of the outcome fit are orthogonal to a'x
    for random coefficient draws.  Returns a report instead of raising
    when the moment system is singular, since the check is advisory.
    """
    m_fit = linmod.fit_outcome_reg(view)
    mu_ols = mu_from_regression(m_fit.m_hat)
    try:
        inv = linmod.fit_inverse_linear(view.design_m, view.T, "unconstrained_moment")
    except DrmeanError as exc:
        return IdentitiesReport(
            mu_ols=mu_ols,
            bounded_ht=math.nan,
            abs_difference=math.nan,
            eq_weighted_residuals=[],
            moment_residual=math.nan,
            tol=tol,
            passed=False,
            skipped=True,
            reason=f"{type(exc).__name__}: {exc}",
        )
    T = np.asarray(view.T)
    resp = T == 1
    y = np.asarray(view.y_observed, dtype=float)[resp]
    s = inv.eta[resp]  # alpha'x on respondents
    denom = math.fsum(s)
    if denom == 0:
        return IdentitiesReport(
            mu_ols=mu_ols,
            bounded_ht=math.nan,
            abs_difference=math.nan,
            eq_weighted_residuals=[],
            moment_residual=math.nan,
            tol=tol,
            passed=False,
            skipped=True,
            reason="weighted mean undefined: sum of alpha'x vanishes",
        )
    bounded_ht = math.fsum(s * y) / denom
    diff = abs(mu_ols - bounded_ht)

    design = np.asarray(view.design_m, dtype=float)
    n = design.shape[0]
    tx = design * resp[:, None].astype(float)
    moment = fsum_col_means(design * ((tx @ inv.alpha) - 1.0)[:, None])
    moment_residual = float(np.max(np.abs(moment)))

    rng = np.random.Generator(np.random.PCG64(seed))
    resid = y - m_fit.m_hat[resp]
    residuals = []
    for _ in range(n_random_alphas):
        a = rng.standard_normal(design.shape[1])
        residuals.append(abs(math.fsum((design[resp] @ a) * resid) / n))
    passed = diff <= tol and all(r <= tol for r in residuals)
    return IdentitiesReport(
        mu_ols=mu_ols,
        bounded_ht=bounded_ht,
        abs_difference=diff,
        eq_weighted_residuals=residuals,
        moment_residual=moment_residual,
        tol=tol,
        passed=passed,
    )
