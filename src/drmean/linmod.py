"""Weighted linear and logistic fits, plus the propensity models.

Outcome fits go through one weighted least squares routine (_wls): a solve
on the Gram matrix of the column-equilibrated weighted design, once
Cholesky shows it well enough conditioned (else SVD least squares with a
rank check), then corrected semi-normal-equations steps on the residual.
Logistic Newton steps solve the p x p weighted Gram matrix of the
equilibrated design under the same Cholesky test (_newton_step).

Every Newton-type fit decides rank in its step solve and stops by one
rule (_settled): after the step that moves no unit's fitted linear
predictor x'beta by more than a tolerance, ETA_STEP_TOL for the logistic
alpha'x, which is free of units, and FIT_STEP_RTOL times max |x'beta| for
the linear solves.  The change x'step does not depend on the units of
the columns, so neither does the stop, and a non-finite step or fit never
passes it.  A fit that has not stopped after IRLS_MAX_ITER solves raises
NonconvergenceError.  The one fit without the stop rule is a bootstrap
draw's logistic fit (_fit_logistic_draw): exactly DRAW_NEWTON_STEPS
Newton steps from the full-sample coefficients.  k Newton steps from a
consistent start give a k-step bootstrap, whose distribution matches the
fully iterated one to an order that grows with k (Davidson & MacKinnon,
Int. Econ. Rev. 40(2), 1999; Andrews, Econometrica 70(1), 2002).

Propensity models, each told apart by its result's type and fields:
  * logistic maximum likelihood, pi = expit(alpha'x): a PropensityFit
    with phi None;
  * inverse-linear, pi = 1 / (alpha'x), fit by solving the unconstrained
    moment equation P_n[(T alpha'x - 1) x] = 0, under which OLS is a
    doubly robust mean: an InverseLinearFit;
  * a one-parameter logistic extension expit(alpha'x + phi h) whose phi
    solves P_n[(T / pi - 1) h] = 0 for a caller-chosen direction h, by a
    safeguarded Newton method: a PropensityFit with phi set.

Outcome fits are computed on respondents only and return fitted values
for every unit.  The four variants differ in weighting and in whether a
function of the fitted propensity is appended as an extra covariate.
Each takes RespondentDesign(view), the view's respondent rows and
outcomes checked once, so fits on one outcome design can share it.

The logistic function is numpy's 1 / (1 + e^-x) (_expit), not scipy's
expit, so no fit loads scipy.  Its exp is numpy's SIMD loop: numpy's
AVX2 exp is glibc's bit for bit, as is the exp inside scipy's expit, but
its AVX-512 exp rounds its own way, so fitted propensities may differ in
the last bit between those CPU classes, as the BLAS products already do.

Rows are cut by ndarray.compress on a boolean mask of units (the
respondents, a Newton step's live rows), never by advanced indexing:
compress copies the same values into a new C-ordered array, as
design[mask] does, so every BLAS call sees the bytes and layout it would
see anyway, at about a third of the cost on a 1000 x 5 design.  Unlike
indexing, compress silently drops the units past a short mask, so each
cut comes after the check that makes the two lengths equal.

Each check has one owner: RespondentDesign checks the design and outcomes,
_inverse_pi that 1 / pi_hat is finite and positive (an overflow fails) for
the weighted fits and estimators._Respondents, fit_outcome_ipw_nr only its
(0, 1) rule, and RespondentDesign._fit the rows of a design with a column
appended and the one errstate of the solve; _wls checks nothing.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from ._util import as_array, check_observed, check_response, check_type, check_units
# no fit here sums exactly; bench/layers.py wraps linmod.fsum_col_means, so
# a traced run needs the name
from ._util import fsum_col_means  # noqa: F401
from .dgp import AnalysisView
from .errors import (
    InvalidArgumentError,
    InvalidWeightError,
    NonconvergenceError,
    NoRootError,
    SingularDesignError,
)

IRLS_MAX_ITER = 100
ETA_STEP_TOL = 1e-6    # logistic: the last step moves no alpha'x by more
FIT_STEP_RTOL = 2.0**-26  # least squares: ... by more than this times max |x'beta|
RANK_RCOND = 1e-10     # singular values below rcond * smax count as zero
ETA_SEPARATION = 33.0  # |linear predictor| beyond this means separation
# Newton steps of a bootstrap draw's logistic fit from the full-sample fit
# (_fit_logistic_draw): a two-step bootstrap
DRAW_NEWTON_STEPS = 2
_SEPARATED = "fitted probabilities pinned at 0/1: data are separated"
PHI_BRACKET_MAX = 50.0
PHI_GTOL = 1e-10
PHI_XTOL = 1e-12       # relative accuracy of the extension coefficient


@dataclass
class WeightDiagnostics:
    """Summary of the inverse-probability weights implied by a fit."""

    min_pi: float
    max_inv_pi_respondents: float
    max_inv_pi_nonrespondents: float
    var_inv_pi: float


@dataclass
class PropensityFit:
    """A logistic propensity fit: fit_logistic_propensity's when phi is
    None, fit_extended_propensity's otherwise.  It carries no weight
    summaries: callers that report them call weight_diagnostics(pi_hat, T)
    themselves, as estimators.EstimateSet.diagnostics does for the base
    fit only."""

    alpha: np.ndarray       # coefficients of the base model
    phi: float | None       # extension coefficient, when applicable
    eta: np.ndarray         # per-unit linear predictor (alpha'x [+ phi h])
    pi_hat: np.ndarray      # per-unit fitted response probability
    iterations: int


@dataclass
class InverseLinearFit:
    """fit_inverse_linear's fit of pi = 1 / (alpha'x)."""

    alpha: np.ndarray
    eta: np.ndarray         # per-unit alpha'x
    pi_hat: np.ndarray      # 1 / eta, which may leave (0, 1]
    iterations: int


@dataclass
class OutcomeFit:
    beta: np.ndarray        # appended covariate's coefficient last, if any
    m_hat: np.ndarray       # fitted outcome mean for every unit
    iterations: int         # solves: the first plus its corrections


def weight_diagnostics(pi_hat: np.ndarray, T: np.ndarray) -> WeightDiagnostics:
    """Inverse-weight summaries split by response status.

    Groups with no members report 0 for their max; no units at all is an
    InvalidArgumentError.  With any pi_hat <= 0 the summaries can be
    infinite; callers decide whether that is fatal.
    """
    T = check_response(T)
    pi_hat = check_units(pi_hat, T, "pi_hat")
    if T.size == 0:
        raise InvalidArgumentError("T and pi_hat hold no units to summarise")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / pi_hat
        var = float(inv.var())
    resp = T == 1
    max_resp = float(inv.compress(resp).max()) if resp.any() else 0.0
    max_nonresp = float(inv.compress(~resp).max()) if (~resp).any() else 0.0
    return WeightDiagnostics(
        min_pi=float(pi_hat.min()),
        max_inv_pi_respondents=max_resp,
        max_inv_pi_nonrespondents=max_nonresp,
        var_inv_pi=var,
    )


def _check_rows(design: np.ndarray) -> np.ndarray:
    """design; SingularDesignError if it has fewer rows than columns."""
    if design.shape[0] < design.shape[1]:
        raise SingularDesignError(
            f"{design.shape[0]} rows cannot identify {design.shape[1]} coefficients")
    return design


def _check_design(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    design, response = as_array(design, "design"), as_array(response, "response")
    if design.ndim != 2:
        raise InvalidArgumentError("design must be 2-d")
    if design.shape[1] == 0:
        raise InvalidArgumentError("design must have at least one column")
    if response.shape != (design.shape[0],):
        raise InvalidArgumentError("response length must match design rows")
    if not np.isfinite(_check_rows(design)).all():
        raise InvalidArgumentError("design contains non-finite entries")
    return design, response


def _pow2(x):
    """The power of two p with p <= |x| < 2p, elementwise (0.5 for 0).  A
    division by it is exact, so every fit that rescales by one leaves its
    result free of the units of the data, bit for bit."""
    return np.ldexp(1.0, np.frexp(x)[1] - 1)


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + e^-x), elementwise: exactly 0 where
    e^-x overflows, 1 where it vanishes, NaN at NaN, and silent under any
    errstate, as scipy.special.expit."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _equilibrate(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(design / scale, scale), scale_j the root mean square of column j (1 if zero);
    a column whose squares overflow is first divided by _pow2 of its largest entry."""
    with np.errstate(over="ignore"):
        scale = np.sqrt(np.mean(design * design, axis=0))
    big = ~np.isfinite(scale)
    if big.any():
        m = _pow2(np.abs(design[:, big]).max(axis=0))
        scale[big] = m * np.sqrt(np.mean((design[:, big] / m) ** 2, axis=0))
    scale[scale == 0.0] = 1.0
    return design / scale, scale


def _equilibrated_lstsq(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least squares on a column-equilibrated design, with rank check."""
    xs, scale = _equilibrate(design)
    if not (np.isfinite(xs).all() and np.isfinite(rhs).all()):
        # LAPACK would print a complaint and return NaN
        raise NonconvergenceError("least squares input is not finite")
    try:
        coef, _, rank, _ = np.linalg.lstsq(xs, rhs, rcond=RANK_RCOND)
    except LinAlgError as exc:
        raise NonconvergenceError(f"least squares failed: {exc}") from None
    if rank < design.shape[1]:
        raise SingularDesignError(
            f"rank {rank} < {design.shape[1]} columns at rcond={RANK_RCOND:g}")
    return coef / scale


def _settled(change: np.ndarray, tol: float) -> bool:
    """The stop of every Newton-type fit: max |change| <= tol, where change
    is x'step on each row.  False if change or tol is not finite."""
    return bool(np.abs(change).max() <= tol < math.inf)


def _lapack(message: str) -> np.errstate:
    """A decorator: the call runs under the errstate numpy.linalg puts
    around its LAPACK gufuncs, so a failed routine, which numpy signals
    by the invalid flag, raises LinAlgError(message) as numpy.linalg does,
    and no other flag warns or raises.  The helpers below call the
    numpy.linalg._umath_linalg gufuncs that np.linalg.cholesky, inv and
    solve call, so they give the same bits, without numpy.linalg's
    per-call checks and conversions: they take float64 square matrices."""

    def fail(err, flag):
        raise LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack("Matrix is not positive definite")
def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower triangular factor."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@_lapack("Singular matrix")
def _inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a)."""
    return _umath_linalg.inv(a, signature="d->d")


@_lapack("Singular matrix")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a vector b."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _unit_diagonal(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gram * d * d', d), d = 1 / sqrt(diag(gram)) where that is positive and
    1 elsewhere: a zero or non-finite diagonal entry still fails _pivots_pass."""
    diag = gram.diagonal()
    d = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    return gram * d * d[:, None], d


def _pivots_pass(gram: np.ndarray) -> bool:
    """True if Cholesky shows gram positive definite with every pivot above
    sqrt(RANK_RCOND) times the largest."""
    try:
        d = _cholesky(gram).diagonal()
    except LinAlgError:
        return False
    return bool(d.min() > math.sqrt(RANK_RCOND) * d.max())


def _gram_solver(design: np.ndarray, w: np.ndarray | None):
    """solve(r), the c that minimizes sum w (r - design c)^2 (w = 1 if None),
    from the inverse of the weighted Gram matrix scaled to unit diagonal,
    which is the Gram matrix of the column-equilibrated weighted design; or
    None if that matrix is not finite or fails _pivots_pass.  Called under
    the errstate of RespondentDesign._fit."""
    wx = design.T if w is None else design.T * w
    gram, d = _unit_diagonal(wx @ design)
    if not _pivots_pass(gram):
        return None
    try:
        inverse = _inv(gram)
    except LinAlgError as exc:
        raise NonconvergenceError(f"normal equations failed: {exc}") from None
    return lambda r: d * (inverse @ (d * (wx @ r)))


def _lstsq_solver(design: np.ndarray, w: np.ndarray | None):
    """solve(r) as in _gram_solver, by SVD least squares (_equilibrated_lstsq)."""
    sw = np.ones(design.shape[0]) if w is None else np.sqrt(w)
    xs = design * sw[:, None]
    return lambda r: _equilibrated_lstsq(xs, r * sw)


def _wls(design: np.ndarray, response: np.ndarray, w: np.ndarray | None) -> tuple[np.ndarray, int]:
    """Weighted least squares, row i weighted by w[i] (1 if w is None):
    (coefficients, passes), passes counting solves.  It checks nothing; its
    caller RespondentDesign._fit owns the checks and the errstate.

    Each pass solves on the Gram matrix of the column-equilibrated weighted
    design (_gram_solver) when it passes the Cholesky test of _newton_step;
    else (a rank-deficient or ill-conditioned design) every pass is SVD
    least squares, whose rank check names the rank.  The Gram matrix
    squares the condition number, so the first solve is followed by
    corrected semi-normal-equations steps on its residual (Bjorck, Linear
    Algebra Appl. 88/89, 1987) until one moves the fit x'beta by at most
    FIT_STEP_RTOL max |x'beta|: the next correction would then be at
    rounding level (NonconvergenceError after IRLS_MAX_ITER solves).
    """
    solve = _gram_solver(design, w) or _lstsq_solver(design, w)
    beta = solve(response)
    for passes in range(2, IRLS_MAX_ITER + 1):
        step = solve(response - design @ beta)
        beta = beta + step
        level = np.abs(design @ beta).max()
        if _settled(design @ step, FIT_STEP_RTOL * level):
            return beta, passes
        if not level < math.inf:
            raise NonconvergenceError("least squares fit is not finite")
    raise NonconvergenceError(f"no convergence in {IRLS_MAX_ITER} solves")


def _newton_step(
    xs: np.ndarray, v: np.ndarray, live: np.ndarray, resid: np.ndarray
) -> np.ndarray:
    """Solve (xs' V xs) d = xs' resid over the rows live = (v > 0): on the Gram
    matrix if it passes _pivots_pass, else by lstsq."""
    gram = (xs.T * v) @ xs
    if _pivots_pass(gram):
        try:
            return _solve(gram, xs.T @ (resid * live))
        except LinAlgError:
            pass
    sv = np.sqrt(v.compress(live))
    return _equilibrated_lstsq(xs.compress(live, axis=0) * sv[:, None], resid.compress(live) / sv)


def fit_logistic_propensity(design: np.ndarray, T: np.ndarray) -> PropensityFit:
    """Logistic maximum-likelihood fit of P(T = 1 | x) = expit(alpha'x).

    Newton steps (_newton_step) from 0 until one moves no alpha'x by more
    than ETA_STEP_TOL (_settled), then a separation check on the final
    linear predictor; a fit that fails with some |alpha'x| >
    ETA_SEPARATION is reported as separated, and a final alpha'x that is
    NaN fails too.  The first step always runs, and its solve is the rank
    check.  The Gram solve squares the condition number, but each step is
    taken from the current score, so its error slows the iteration
    without moving the fit (Bjorck, Numerical Methods for Least Squares
    Problems, 1996).  iterations counts the steps.
    """
    return _logistic(design, T, None, None)


def _fit_logistic_draw(design: np.ndarray, T: np.ndarray, start: np.ndarray) -> PropensityFit:
    """The logistic fit of a bootstrap draw: exactly DRAW_NEWTON_STEPS
    Newton steps from start, the full-sample coefficients, and no stop rule.

    Its checks, steps and separation check are fit_logistic_propensity's
    (_logistic), so a rank-deficient design fails in the first step with
    SingularDesignError.  No stop rule judges a step, so a step or a final
    alpha'x that is not finite raises NonconvergenceError itself.
    iterations is DRAW_NEWTON_STEPS.  Only estimators.Pipeline calls it,
    for the sensitivity draws.
    """
    return _logistic(design, T, start, DRAW_NEWTON_STEPS)


def _logistic(
    design: np.ndarray, T: np.ndarray, start: np.ndarray | None, steps: int | None
) -> PropensityFit:
    """The logistic fit from start (0 if None): iterated to the stop rule
    as fit_logistic_propensity with steps None, else exactly steps Newton
    steps."""
    T = check_response(T)
    design, response = _check_design(design, T.astype(float))
    xs, scale = _equilibrate(design)
    if start is None:
        alpha = np.zeros(design.shape[1])
    else:
        alpha = as_array(start, "start")
        if alpha.shape != (design.shape[1],) or not np.isfinite(alpha).all():
            raise InvalidArgumentError("start must be finite, one entry per column")

    def stalled(eta: np.ndarray, reason: str) -> NonconvergenceError:
        """The failure for reason, named as separation if max |eta| shows it."""
        separated = np.abs(eta).max() > ETA_SEPARATION
        return NonconvergenceError(_SEPARATED if separated else reason)

    for iterations in range(1, (steps or IRLS_MAX_ITER) + 1):
        eta = design @ alpha
        mu = _expit(eta)
        v = mu * (1.0 - mu)
        live = v > 0
        if not live.any():
            raise stalled(eta, "all fitted variances vanished")
        try:
            step = _newton_step(xs, v, live, response - mu) / scale
        except SingularDesignError:
            if iterations == 1:
                raise
            raise stalled(
                eta, "weighted design lost rank during iteration (separation?)"
            ) from None
        alpha = alpha + step
        if steps is None:
            if _settled(design @ step, ETA_STEP_TOL):
                break
        elif not np.isfinite(step).all():  # no stop rule judges the step
            raise stalled(eta, "Newton step is not finite")
    else:
        if steps is None:
            raise NonconvergenceError(f"no convergence in {IRLS_MAX_ITER} iterations")
    eta = design @ alpha
    top = np.abs(eta).max()
    if not top <= ETA_SEPARATION:  # NaN fails too
        raise NonconvergenceError(_SEPARATED if top > ETA_SEPARATION
                                  else "logistic fit is not finite")
    return PropensityFit(alpha, None, eta, _expit(eta), iterations)


def _inv_linear_unconstrained(design: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the linear P_n[(T alpha'x - 1) x] = 0 by Newton steps from 0,
    stopped as _wls stops, on the respondent Gram matrix scaled to unit
    diagonal (_unit_diagonal; _equilibrated_lstsq checks its rank), so a
    column rescaled by a power of two leaves alpha'x bit for bit as is."""
    t = (T == 1).astype(float)
    rows = design.compress(T == 1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows.T @ rows
    if not np.isfinite(gram).all():
        raise InvalidArgumentError("moment Gram matrix is not finite")
    gram, d = _unit_diagonal(gram)
    alpha = np.zeros(design.shape[1])
    for iterations in range(1, IRLS_MAX_ITER + 1):
        q = t * (design @ alpha) - 1.0
        step = d * _equilibrated_lstsq(gram, d * (design.T @ q))
        alpha = alpha - step
        if _settled(design @ step, FIT_STEP_RTOL * np.abs(design @ alpha).max()):
            return alpha, iterations
    raise NonconvergenceError(f"no convergence in {IRLS_MAX_ITER} iterations")


def fit_inverse_linear(design: np.ndarray, T: np.ndarray) -> InverseLinearFit:
    """Fit the inverse-linear response model pi(x) = 1 / (alpha'x).

    alpha solves the moment equation P_n[(T alpha'x - 1) x] = 0.  The
    fitted values can fall outside (0, 1], which is intentional: the point
    of the fit is the algebraic identity it induces, OLS as a weighted mean
    of respondent outcomes, not plausible weights.
    """
    T = check_response(T)
    design, _ = _check_design(design, T.astype(float))
    alpha, iterations = _inv_linear_unconstrained(design, T)
    eta = design @ alpha
    with np.errstate(divide="ignore"):
        pi_hat = 1.0 / eta
    return InverseLinearFit(alpha, eta, pi_hat, iterations)


class RespondentDesign:
    """The outcome design of a view on its respondents, checked once: the
    first argument of every fit_outcome_*.

    Holds resp = (T == 1), the full design_m (for the fitted values of every
    unit), its respondent rows and the respondent outcomes divided by
    y_scale = _pow2(max |y|) (exact), so that no sum X'y overflows; _fit
    scales its results back.  The rows and outcomes are cut by compress
    after the checks that y_observed and design_m have one entry per unit:
    the values and C order of design_m[resp] and y_observed[resp].  _check_design checks the rows, then
    check_observed the outcomes.  The outcome fits on one design_m, T and
    y_observed can share one instance, as estimators.Pipeline does.
    """

    def __init__(self, view: AnalysisView):
        check_type(view, AnalysisView, "view")
        T = check_response(view.T)
        resp = T == 1
        if not resp.any():
            raise SingularDesignError("no respondents to fit on")
        y = check_units(view.y_observed, T, "y_observed").compress(resp)
        self.resp = resp
        self.design = as_array(view.design_m, "design_m")
        if self.design.shape[:1] != T.shape:
            raise InvalidArgumentError("design_m rows must match T")
        self.rows, y = _check_design(self.design.compress(resp, axis=0), y)
        y = check_observed(y)
        self.y_scale = _pow2(np.abs(y).max())
        self.y = y / self.y_scale

    def _fit(
        self, column: np.ndarray | None = None, weights: np.ndarray | None = None
    ) -> OutcomeFit:
        """Least squares on respondents, with fitted values for every unit.

        column, one finite value per unit, is appended as the last column;
        weights, one finite positive weight per respondent, weight the rows.
        Callers check both; _fit checks the rows of the stacked design, and
        runs _wls and m_hat under one errstate (a non-finite beta fails).
        """
        rows = self.rows
        if column is not None:
            rows = _check_rows(np.hstack([rows, column.compress(self.resp)[:, None]]))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            beta, iterations = _wls(rows, self.y, weights)
            if column is None:
                m_hat = self.design @ beta
            else:
                m_hat = self.design @ beta[:-1] + column * beta[-1]
            beta, m_hat = beta * self.y_scale, m_hat * self.y_scale
        if not np.isfinite(m_hat).all():
            raise NonconvergenceError("least squares fit is not finite")
        return OutcomeFit(beta, m_hat, iterations)


def fit_outcome_reg(design: RespondentDesign) -> OutcomeFit:
    """Unweighted outcome regression on respondents.

    Each fit_outcome_* takes the RespondentDesign(view) of the view it fits
    (InvalidArgumentError for any other object); the weighted ones check
    pi_hat against its response indicators.
    """
    return check_type(design, RespondentDesign, "design")._fit()


def _unit_pi(design: RespondentDesign, pi_hat: np.ndarray) -> np.ndarray:
    """pi_hat as a float array with one entry per unit of design."""
    return check_units(pi_hat, check_type(design, RespondentDesign, "design").resp, "pi_hat")


def _inverse_pi(pi_hat: np.ndarray, units: str) -> np.ndarray:
    """1 / pi_hat on the units pi_hat holds ("respondents" or "all units"), or
    InvalidWeightError unless every inverse is finite and positive: a pi_hat
    whose inverse overflows (5e-324) fails as one <= 0, NaN or inf does."""
    with np.errstate(divide="ignore", over="ignore"):
        inverse = 1.0 / pi_hat
    if not ((inverse > 0) & (inverse < math.inf)).all():
        raise InvalidWeightError(f"pi_hat must be finite and positive on {units}")
    return inverse


def fit_outcome_wls(design: RespondentDesign, pi_hat: np.ndarray) -> OutcomeFit:
    """Outcome regression on respondents, weighted by 1 / pi_hat."""
    pi_hat = _unit_pi(design, pi_hat)
    return design._fit(weights=_inverse_pi(pi_hat.compress(design.resp), "respondents"))


def fit_outcome_ext_reg(design: RespondentDesign, pi_hat: np.ndarray) -> OutcomeFit:
    """Unweighted regression with 1 / pi_hat appended as a covariate.

    1 / pi_hat must be finite and positive on all units, because the
    appended column predicts for nonrespondents too.  A constant pi_hat
    makes it collinear with the intercept and the fit fails.
    """
    pi_hat = _unit_pi(design, pi_hat)
    return design._fit(column=_inverse_pi(pi_hat, "all units"))


def fit_outcome_ipw_nr(design: RespondentDesign, pi_hat: np.ndarray) -> OutcomeFit:
    """Regression weighted by 1 / pi_hat with pi_hat appended as covariate.

    The fitted values satisfy both the inverse-weighted and the
    unweighted respondent moment conditions, so the plug-in mean
    P_n[m_hat] equals P_n[T y + (1 - T) m_hat].
    """
    pi_hat = _unit_pi(design, pi_hat)
    if not ((pi_hat > 0) & (pi_hat < 1)).all():
        raise InvalidWeightError("pi_hat must lie strictly inside (0, 1) on all units")
    return design._fit(pi_hat, weights=_inverse_pi(pi_hat.compress(design.resp), "respondents"))


def _extension_root(gd, g0: float, d0: float) -> float:
    """The root of the extension moment g, given gd(phi) = (g(phi), g'(phi))
    and g0 = g(0) != 0, d0 = g'(0).

    The first Newton iterate from 0 is kept if it lies within
    PHI_BRACKET_MAX.  If it does not change the sign of g, probes at 1, 2,
    4, ... up to PHI_BRACKET_MAX step out on the side of sign(g0) until one
    does (NoRootError if none does).  Inside the bracket, Newton steps start
    from the end with the smaller |g|, then from each new point; a step that
    would leave the bracket or is over half the step before last becomes
    bisection (rtsafe, Press et al., Numerical Recipes, 3rd ed., sec. 9.4).
    The direction h / c of g is below 2 in absolute value, so |g''| <= 2|g'|
    and over a distance t |g'| changes by a factor of at most e^(2t): a
    Newton step of length t <= 0.005 lands within 1.06 t^2 of the root.  The
    solve returns the new phi once 2 t^2, or t for a bisection step, is at
    most PHI_XTOL * max(|phi|, PHI_XTOL), or at an exact zero of g.
    """

    def pinned(error: float, phi: float) -> bool:
        return error <= PHI_XTOL * max(abs(phi), PHI_XTOL)

    s = math.copysign(1.0, g0)
    lo, hi = (0.0, g0, d0), None  # (phi, g, g'): g has the sign of g0 at lo, not at hi
    newton = -g0 / d0 if d0 < 0 else math.nan
    if pinned(2.0 * newton * newton, newton):
        return newton
    trial = newton if abs(newton) < PHI_BRACKET_MAX else None
    probe = 1.0
    while hi is None:
        if trial is None:
            if abs(lo[0]) >= PHI_BRACKET_MAX:
                raise NoRootError(
                    "no sign change for the extension moment between 0 and "
                    f"{s * PHI_BRACKET_MAX:g}"
                )
            while probe <= abs(lo[0]):
                probe *= 2.0
            trial = s * min(probe, PHI_BRACKET_MAX)
        point = (trial, *gd(trial))
        trial = None
        if point[1] == 0.0:
            return point[0]
        if math.copysign(1.0, point[1]) == s:
            lo = point
        else:
            hi = point

    x, gx, dx = min(lo, hi, key=lambda point: abs(point[1]))
    step_old = step = abs(hi[0] - lo[0])
    for _ in range(IRLS_MAX_ITER):
        a, b = sorted((lo[0], hi[0]))
        newton = x - gx / dx if dx < 0 else math.nan
        move = abs(newton - x)
        bisect = not (a <= newton <= b and 2.0 * move <= step_old)
        if bisect:
            move = 0.5 * (b - a)
            newton = a + move
        step_old, step = step, move
        if pinned(move if bisect else 2.0 * move * move, newton):
            return newton
        x, (gx, dx) = newton, gd(newton)
        if gx == 0.0:
            return x
        if math.copysign(1.0, gx) == s:
            lo = (x, gx, dx)
        else:
            hi = (x, gx, dx)
    raise NonconvergenceError(f"extension solve did not converge in {IRLS_MAX_ITER} steps")


def fit_extended_propensity(
    base: PropensityFit, h: np.ndarray, T: np.ndarray
) -> PropensityFit:
    """Add one coefficient to a logistic fit so that a chosen moment is zero.

    Solves g(phi) = P_n[(T / expit(eta + phi h) - 1) h] = 0 for scalar phi;
    h is both the direction and the moment weight.  The solve runs on h / c,
    c = _pow2(max |h|), free of the units of h.  g is nonincreasing,
    g'(phi) = -P_n[T exp(-eta - phi h) h^2], and both come from one
    exponential per respondent; the nonrespondents add the constant
    -P_n[(1 - T) h].  |g(0)| <= PHI_GTOL gives phi = 0; otherwise a
    safeguarded Newton method finds the root (_extension_root).
    iterations counts the distinct evaluations of g.
    With h = m_hat - P_n[m_hat] for an outcome fit m_hat, the bounded
    doubly robust estimator built from this fit is a weighted mean of
    observed outcomes.  base must be fit_logistic_propensity's fit: an
    InverseLinearFit fails the type check, and an extended fit (phi not
    None) is not extended again.
    """
    if check_type(base, PropensityFit, "base").phi is not None:
        raise InvalidArgumentError("extension requires a logistic base fit")
    T = check_response(T)
    h = as_array(h, "h")
    if h.shape != base.eta.shape or T.shape != h.shape:
        raise InvalidArgumentError("h and T must have one entry per unit")
    if not np.isfinite(h).all():
        raise InvalidArgumentError("h contains non-finite entries")
    resp = T == 1
    c = _pow2(np.abs(h).max(initial=0.0))
    hn = h / c
    n = hn.size
    eta_r, h_r = base.eta.compress(resp), hn.compress(resp)
    h2_r = h_r * h_r
    h_nonresp = float(np.sum(hn.compress(~resp)))
    evaluations = 0

    def gd(phi: float) -> tuple[float, float]:
        # T/expit(eta) - 1 = exp(-eta) for respondents, -1 otherwise
        nonlocal evaluations
        evaluations += 1
        e = np.exp(-np.clip(eta_r + phi * h_r, -700.0, 700.0))
        return (float(e @ h_r) - h_nonresp) / n, -float(e @ h2_r) / n

    g0, d0 = gd(0.0)
    phi_hat = 0.0 if abs(g0) <= PHI_GTOL else _extension_root(gd, g0, d0)
    eta = base.eta + phi_hat * hn
    pi_hat = _expit(eta)
    return PropensityFit(base.alpha.copy(), phi_hat / c, eta, pi_hat, evaluations)
