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
on respondents, the sums of w and w y; w from linmod._inverse_pi, the same
rule as the weighted outcome fits), the terms of an outcome fit
(_Fitted: m_hat and its sum) and, for the augmented forms, the exact
residual correction sum.  The public mu_* functions build those terms
from their arguments.  ESTIMATORS is the single definition of each
estimator: the outcome fit it needs and how it combines the fits.
estimate_all and the sensitivity cells both evaluate it on a Pipeline,
which memoises the fits and their terms, so one replication checks each
propensity fit's respondents once and takes each shared exact sum once,
FULL's sum of the complete outcomes included.  The weight diagnostics of
estimate_all come from the base fit alone, taken when first read.  Each
memo entry is keyed by the inputs it depends on (see Pipeline), so
Pipelines on one sample that share a memo share every fit and sum whose
inputs they share: mc shares one between the scenarios of a replication,
sensitivity between the cells of one sample.

Every exact sum is _util.exact_sum: an error-free vector extraction,
certified correctly rounded (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
31(1), 2008), for arrays of at least _util.EXTRACT_MIN_TERMS terms, and
math.fsum read straight from the array's buffer (Shewchuk, Discrete
Comput. Geom. 18, 1997) for the rest and wherever the certificate fails.
Either way the result is the one double nearest the true sum of the
terms, whatever route the terms take to it.

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
from ._util import (
    as_array, check_observed, check_response, check_type, check_units, check_vector,
    exact_sum,
)
from .dgp import AnalysisView, FullSample
from .errors import DrmeanError, InvalidArgumentError, UndefinedEstimatorError

FLAG_OK = "ok"
FLAG_OUT_OF_RANGE = "out_of_observed_range"
FLAG_FAILED = "fit_failed"

# mu_ols_identities_check: random coefficient draws, their seed, and the
# tolerance per unit of _pow2(max |y|) on respondents (1e-8 for y in [2^8, 2^9))
IDENTITIES_ALPHAS = 3
IDENTITIES_SEED = 0
IDENTITIES_TOL = 1e-8 / 2**8


def _fsum(terms: np.ndarray) -> float:
    """exact_sum of terms; UndefinedEstimatorError if a term or the sum is
    not finite.  Callers make terms that may overflow under np.errstate."""
    try:
        total = exact_sum(terms)
    except (OverflowError, ValueError):  # inf - inf raises ValueError
        total = math.nan
    if not math.isfinite(total):
        raise UndefinedEstimatorError("an exact sum overflows")
    return total


class _Respondents:
    """The respondent terms of one propensity fit, checked once.

    resp = (T == 1), w = 1 / pi_hat[resp] and y = Y[resp] over n units,
    with the exact sums of w and of w y that several estimators read, each
    taken on first use.
    """

    def __init__(self, pi_hat, T, Y):
        T = check_response(T)
        resp = T == 1
        pi_hat, Y = check_units(pi_hat, T, "pi_hat"), check_units(Y, T, "Y")
        if not resp.any():
            raise UndefinedEstimatorError("no respondents")
        w = linmod._inverse_pi(pi_hat[resp], "respondents")
        self.resp, self.w, self.y, self.n = resp, w, check_observed(Y[resp]), len(resp)

    @cached_property
    def w_sum(self) -> float:
        return _fsum(self.w)

    @cached_property
    def wy_sum(self) -> float:
        with np.errstate(over="ignore"):
            return _fsum(self.w * self.y)

    def residual_sum(self, fitted: "_Fitted") -> float:
        """Exact sum of w (y - m_hat) over respondents."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _fsum(self.w * (self.y - fitted.m_hat[self.resp]))


class _Fitted:
    """Fitted values m_hat as a float array, with their exact sum taken on first use."""

    def __init__(self, m_hat):
        self.m_hat = np.asarray(m_hat, dtype=float)

    @cached_property
    def total(self) -> float:
        return _fsum(self.m_hat)


def _given_fitted(m_hat: np.ndarray) -> _Fitted:
    """m_hat from a caller of the public mu_* functions; InvalidArgumentError
    "m_hat contains non-finite values" unless every entry is finite, as the
    fits guarantee of their own."""
    if not np.isfinite(m_hat).all():
        raise InvalidArgumentError("m_hat contains non-finite values")
    return _Fitted(m_hat)


# Each estimator's formula, written once: the public mu_* functions and
# ESTIMATORS both evaluate these on _Respondents and _Fitted terms.


def _ht(r: _Respondents) -> float:
    return r.wy_sum / r.n


def _ipw_pop(r: _Respondents) -> float:
    return r.wy_sum / r.w_sum


def _aipw(r: _Respondents, f: _Fitted, correction: float) -> float:
    """correction is r.residual_sum(f)."""
    return f.total / r.n + correction / r.n


def _b_dr(r: _Respondents, f: _Fitted, correction: float) -> float:
    """correction is r.residual_sum(f)."""
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
    r, f = _Respondents(pi_hat, T, Y), _given_fitted(check_units(m_hat, T, "m_hat"))
    return _aipw(r, f, r.residual_sum(f))


def mu_b_dr(pi_hat, m_hat, T, Y) -> float:
    """Bounded variant: the correction term is divided by P_n[T / pi_hat].

    Equals P_n[m_hat] plus a weighted mean of respondent residuals, so it
    can never leave [min m_hat, max m_hat] by more than the largest
    absolute residual.
    """
    r, f = _Respondents(pi_hat, T, Y), _given_fitted(check_units(m_hat, T, "m_hat"))
    return _b_dr(r, f, r.residual_sum(f))


def mu_from_regression(m_hat) -> float:
    """Plug-in mean of fitted values: P_n[m_hat]."""
    return _plug_in(_given_fitted(check_vector(m_hat, "m_hat")))


def mu_full(Y) -> float:
    """Mean of the complete outcomes (available in simulation only)."""
    Y = check_vector(Y, "Y")
    if Y.size == 0:
        raise UndefinedEstimatorError("no outcomes")
    if not np.isfinite(Y).all():
        raise InvalidArgumentError("complete outcomes contain non-finite values")
    return _fsum(Y) / Y.size


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
    # the Pipeline of estimate_all when a requested estimator is weighted
    _pipeline: "Pipeline | None" = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def diagnostics(self) -> linmod.WeightDiagnostics | None:
        """The weight diagnostics of the base propensity fit, computed on
        first read (Pipeline.diagnostics) and kept: None when that fit
        failed or when no requested estimator is weighted.  Until then the
        EstimateSet keeps its Pipeline, and so the fits it memoised."""
        if self._pipeline is None:
            return None
        try:
            return self._pipeline.diagnostics()
        except DrmeanError:
            return None


class Pipeline:
    """Lazy, memoised model fits and respondent terms shared across the
    requested estimators.

    The propensity model is the logistic fit: fit_logistic_propensity,
    iterated to its stop rule from 0, or, given the coefficients pi_start,
    linmod._fit_logistic_draw, exactly linmod.DRAW_NEWTON_STEPS Newton
    steps from them.  Only the sensitivity draws pass pi_start, the
    full-sample fit of their spec.  Beside the fits, memo holds the
    checked respondent terms of the base and of the extended propensity
    fit (respondents), the sum of each outcome fit's fitted values
    (fitted), each residual correction sum (residual_sum), the base fit's
    weight diagnostics and the mean of the complete outcomes (full_mean).
    A failure is memoised as well, and re-raised with its class and
    message to every estimator that needs it.

    Each entry's key names the inputs it depends on, by the identity of
    the arrays the pipeline is handed: the pi part (id(design_pi),
    id(pi_start)) for the propensity fit, its respondents and diagnostics;
    the m part id(design_m) for the respondent design and the unweighted
    fit "REG"; id(full.Y) for full_mean; both parts for the rest.
    Pipelines on one sample (one T and y) may share one memo, and then
    every entry whose inputs they share.  memo["arrays"] keeps the arrays
    that keys name alive, so no id is reused while the memo lives.

    Each fit is called through its linmod module attribute, an outcome fit
    as linmod.fit_outcome_<kind>(respondent_design(), ...) on the one
    memoised RespondentDesign of design_m.
    """

    def __init__(
        self,
        view: AnalysisView,
        full: FullSample | None = None,
        pi_start: np.ndarray | None = None,
        memo: dict | None = None,
    ):
        self.view = view
        self.full = full
        self.pi_start = pi_start
        self.T = as_array(view.T, "T", None)
        self.y = as_array(view.y_observed, "y_observed")
        self._memo = {} if memo is None else memo
        y_full = None if full is None else full.Y
        self._memo.setdefault("arrays", []).append(
            (view.design_pi, view.design_m, pi_start, y_full))
        self._pi = (id(view.design_pi), id(pi_start))
        self._m = id(view.design_m)
        self._both = (self._pi, self._m)

    def _get(self, key: tuple, build):
        memo = self._memo
        if key not in memo:
            try:
                memo[key] = build()
            except DrmeanError as exc:
                memo[key] = exc
        out = memo[key]
        if isinstance(out, DrmeanError):
            raise out.with_traceback(None)  # not every earlier read's frames too
        return out

    def _inputs(self, kind: str):  # the key part outcome(kind) depends on
        return self._m if kind == "REG" else self._both

    def propensity(self) -> linmod.PropensityFit:
        def build():
            if self.pi_start is None:
                return linmod.fit_logistic_propensity(self.view.design_pi, self.view.T)
            return linmod._fit_logistic_draw(self.view.design_pi, self.view.T, self.pi_start)

        return self._get((self._pi, "pi"), build)

    def diagnostics(self) -> linmod.WeightDiagnostics:
        """Weight diagnostics of propensity()."""
        return self._get(
            (self._pi, "diagnostics"),
            lambda: linmod.weight_diagnostics(self.propensity().pi_hat, self.T),
        )

    def respondent_design(self) -> linmod.RespondentDesign:
        """The respondent rows of design_m, checked once for every outcome fit."""
        return self._get((self._m, "design"), lambda: linmod.RespondentDesign(self.view))

    def outcome(self, kind: str) -> linmod.OutcomeFit:
        """Outcome fit "REG", "WLS", "EXT_REG" or "IPW_NR" (fit_outcome_<kind>).

        The propensity fit comes first, then respondent_design(), then the
        fit's own checks of pi_hat."""

        def build():
            fit = getattr(linmod, f"fit_outcome_{kind.lower()}")
            args = () if kind == "REG" else (self.propensity().pi_hat,)
            return fit(self.respondent_design(), *args)

        return self._get((self._inputs(kind), kind), build)

    def fitted(self, kind: str) -> _Fitted:
        """The fitted values of outcome(kind), with their memoised sum."""
        key = (self._inputs(kind), kind, "fitted")
        return self._get(key, lambda: _Fitted(self.outcome(kind).m_hat))

    def extended(self) -> linmod.PropensityFit:
        """Logistic fit extended along the centred unweighted regression.

        Like every weighted estimator's fits, it asks for propensity()
        first, then fits "REG": when both fail, the propensity failure is
        the one reported."""

        def build():
            base = self.propensity()
            reg = self.fitted("REG")
            h = reg.m_hat - _plug_in(reg)
            return linmod.fit_extended_propensity(base, h, self.view.T)

        return self._get((self._both, "extended"), build)

    def respondents(self, extended: bool = False) -> _Respondents:
        """The respondent terms of propensity(), or of extended() if extended."""
        fit = self.extended if extended else self.propensity
        key = (self._both, "extended respondents") if extended else (self._pi, "respondents")
        return self._get(key, lambda: _Respondents(fit().pi_hat, self.T, self.y))

    def residual_sum(self, kind: str, extended: bool = False) -> float:
        """respondents(extended).residual_sum(fitted(kind)), taken once."""
        return self._get(
            (self._both, "residual", kind, extended),
            lambda: self.respondents(extended).residual_sum(self.fitted(kind)),
        )

    def full_mean(self) -> float:
        """mu_full of the complete outcomes full.Y, taken once per array Y."""
        if self.full is None:
            raise UndefinedEstimatorError("complete outcomes unavailable")
        Y = self.full.Y
        return self._get((id(Y), "full"), lambda: mu_full(Y))


@dataclass(frozen=True)
class Estimator:
    """One estimator: the fits it needs and how it combines them.

    combine(pipeline, outcome) asks the pipeline for the fits it needs in
    its own order, so that the first failing fit is the one reported.
    """

    outcome: str | None  # outcome fit kind, a Pipeline.outcome key
    weighted: bool       # needs a propensity fit
    combine: Callable[[Pipeline, str | None], float]

    def __call__(self, pipe: Pipeline) -> float:
        return self.combine(pipe, self.outcome)


def _plug_in_estimate(pipe, kind):
    return _plug_in(pipe.fitted(kind))


def _augmented(formula, extended: bool = False):
    """combine for formula(respondents, fitted, correction): the propensity
    fit first, then the outcome fit, then the respondent check, as in the
    standalone mu_* call on those fits."""

    def combine(pipe, kind):
        (pipe.extended if extended else pipe.propensity)()
        f = pipe.fitted(kind)
        r = pipe.respondents(extended)
        return formula(r, f, pipe.residual_sum(kind, extended))

    return combine


# The order is the output order of every table and CSV.
ESTIMATORS: dict[str, Estimator] = {
    "OLS": Estimator("REG", False, _plug_in_estimate),
    "HT": Estimator(None, True, lambda p, kind: _ht(p.respondents())),
    "IPW_POP": Estimator(None, True, lambda p, kind: _ipw_pop(p.respondents())),
    "DR_REG": Estimator("REG", True, _augmented(_aipw)),
    "DR_WLS": Estimator("WLS", True, _plug_in_estimate),
    "DR_IPW_NR": Estimator("IPW_NR", True, _plug_in_estimate),
    "DR_EXT_REG": Estimator("EXT_REG", True, _plug_in_estimate),
    "B_DR_REG": Estimator("REG", True, _augmented(_b_dr)),
    "B_DR_EXT": Estimator("REG", True, _augmented(_b_dr, extended=True)),
    "FULL": Estimator(None, False, lambda p, kind: p.full_mean()),
}

ESTIMATOR_NAMES = tuple(ESTIMATORS)


def check_estimator_names(names) -> tuple[str, ...]:
    """names as a tuple; InvalidArgumentError if names is not a collection
    of strings (a str is not) or one of them is unknown or repeated."""
    try:
        if isinstance(names, (str, bytes)):
            raise TypeError
        names = tuple(names)
    except TypeError:
        raise InvalidArgumentError("estimator names must be a collection of strings") from None
    bad = [nm for nm in names if not isinstance(nm, str) or nm not in ESTIMATORS]
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
    *,
    _memo: dict | None = None,
) -> EstimateSet:
    """Compute the requested estimators on one analysis view.

    Model fits are shared and each failure is isolated: a propensity fit
    that diverges marks every weighted estimator as failed but leaves OLS
    (and FULL, when a complete sample is supplied) intact.  The weight
    diagnostics of the propensity fit are reported only when a requested
    estimator is weighted, and computed when the result's diagnostics is
    first read; otherwise no propensity model is fitted and diagnostics
    is None.  view must be an AnalysisView and full, if given, a
    FullSample.  mc passes the views of one sample the Pipeline memo
    they share as _memo; the result equals the call without it.
    """
    check_type(view, AnalysisView, "view")
    if full is not None:
        check_type(full, FullSample, "full")
    names = ESTIMATOR_NAMES if which is None else check_estimator_names(which)
    pipe = Pipeline(view, full, memo=_memo)
    # no observed range if y_observed and T disagree: every estimator that
    # reads them fails on that
    y_resp = pipe.y[pipe.T == 1] if pipe.y.shape == pipe.T.shape else np.empty(0)
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
    result = EstimateSet(values=values, flags=flags, messages=messages)
    if any(ESTIMATORS[name].weighted for name in names):
        result._pipeline = pipe
    return result


@dataclass
class IdentitiesReport:
    """Outcome of the algebraic cross-checks around the OLS estimator."""

    mu_ols: float
    bounded_ht: float
    abs_difference: float
    eq_weighted_residuals: list[float]  # |P_n[T (a'x)(y - m_hat)]| per draw
    moment_residual: float              # max |P_n[(T alpha'x - 1) x]|
    passed: bool
    skipped: bool = False
    reason: str = ""


def mu_ols_identities_check(view: AnalysisView) -> IdentitiesReport:
    """Verify that OLS is itself an inverse-linear weighted mean.

    Fits the unconstrained inverse-linear response model on the outcome
    design and checks (a) the plug-in OLS mean equals the bounded
    weighted mean sum(T a'x y) / sum(T a'x) at the fitted alpha, and (b)
    the respondent residuals of the outcome fit are orthogonal to a'x
    for IDENTITIES_ALPHAS random coefficient draws (PCG64 seeded with
    IDENTITIES_SEED), each to within IDENTITIES_TOL times the power of two
    p with p <= max |y| < 2p on respondents: the report's values are in
    y's units, and the verdict does not depend on them.  Returns a report
    instead of raising when the moment system is singular, since the
    check is advisory.
    """
    m_fit = linmod.fit_outcome_reg(linmod.RespondentDesign(view))
    mu_ols = mu_from_regression(m_fit.m_hat)

    def skipped(reason: str) -> IdentitiesReport:
        nan = math.nan
        return IdentitiesReport(mu_ols, nan, nan, [], nan, False, skipped=True, reason=reason)

    try:
        inv = linmod.fit_inverse_linear(view.design_m, view.T)
    except DrmeanError as exc:
        return skipped(f"{type(exc).__name__}: {exc}")
    resp = np.asarray(view.T) == 1
    y = np.asarray(view.y_observed, dtype=float)[resp]
    s = inv.eta[resp]  # alpha'x on respondents
    denom = _fsum(s)
    if denom == 0:
        return skipped("weighted mean undefined: sum of alpha'x vanishes")
    design = np.asarray(view.design_m, dtype=float)
    n = design.shape[0]
    rng = np.random.Generator(np.random.PCG64(IDENTITIES_SEED))
    with np.errstate(over="ignore", invalid="ignore"):
        bounded_ht = _fsum(s * y) / denom
        moments = design * ((design * resp[:, None]) @ inv.alpha - 1.0)[:, None]
        moment_residual = max(abs(_fsum(col)) for col in moments.T) / n
        resid = y - m_fit.m_hat[resp]
        residuals = [
            abs(_fsum((design[resp] @ rng.standard_normal(design.shape[1])) * resid) / n)
            for _ in range(IDENTITIES_ALPHAS)
        ]
    diff = abs(mu_ols - bounded_ht)
    tol = IDENTITIES_TOL * float(linmod._pow2(np.abs(y).max()))
    passed = diff <= tol and all(r <= tol for r in residuals)
    return IdentitiesReport(
        mu_ols=mu_ols,
        bounded_ht=bounded_ht,
        abs_difference=diff,
        eq_weighted_residuals=residuals,
        moment_residual=moment_residual,
        passed=passed,
    )
