"""Weighted linear and logistic fits, plus the propensity models.

Outcome fits go through one weighted least squares routine and the
logistic propensity through one Newton routine.  Solves are done on
column-equilibrated designs via SVD least squares with an explicit rank
check, followed by iterative refinement until the mean score is within
SCORE_TOL.  The refinement matters: downstream identities are asserted
to absolute tolerances near 1e-10 on raw-scale designs whose columns
differ by orders of magnitude.

Each stopping test decides on the exactly rounded (fsum) mean score, but
sums exactly only the columns that a cheap numpy sum and its rigorous
error bound leave undecided (_score_within), so the decision, and with
it every fit, is the same as with exact sums throughout.

Propensity models:
  * logistic maximum likelihood, pi = expit(alpha'x);
  * inverse-linear, pi = 1 / (alpha'x), fit by constrained maximum
    likelihood, by a constrained moment criterion, or by solving the
    unconstrained moment equation P_n[(T alpha'x - 1) x] = 0 exactly;
  * a one-parameter logistic extension expit(alpha'x + phi h) whose phi
    solves P_n[(T / pi - 1) h] = 0 for a caller-chosen direction h.

Outcome fits are computed on respondents only and return fitted values
for every unit.  The four variants differ in weighting and in whether a
function of the fitted propensity is appended as an extra covariate.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import expit

from ._util import fsum_col_means
from .dgp import AnalysisView
from .errors import (
    InfeasibleConstraintError,
    InvalidArgumentError,
    InvalidWeightError,
    NonconvergenceError,
    NoRootError,
    SingularDesignError,
)

IRLS_MAX_ITER = 100
SCORE_TOL = 1e-10      # max-norm of the mean score at convergence
STEP_TOL = 1e-12       # max-norm of the Newton step at convergence
RANK_RCOND = 1e-10     # singular values below rcond * smax count as zero
ETA_SEPARATION = 33.0  # |linear predictor| beyond this means separation
PHI_BRACKET_MAX = 50.0
PHI_GTOL = 1e-10
PHI_XTOL = 1e-12
_CONSTRAINT_DELTA = 1e-6
_OPT_MAX_ITER = 10_000


class PropensityKind(enum.Enum):
    LOGISTIC_MLE = "LOGISTIC_MLE"
    INV_LINEAR_ML = "INV_LINEAR_ML"
    INV_LINEAR_MOMENT = "INV_LINEAR_MOMENT"
    INV_LINEAR_UNCONSTRAINED = "INV_LINEAR_UNCONSTRAINED"
    LOGISTIC_EXTENDED = "LOGISTIC_EXTENDED"


@dataclass
class WeightDiagnostics:
    """Summary of the inverse-probability weights implied by a fit."""

    min_pi: float
    max_inv_pi_respondents: float
    max_inv_pi_nonrespondents: float
    var_inv_pi: float


@dataclass
class PropensityFit:
    kind: PropensityKind
    alpha: np.ndarray       # coefficients of the base model
    phi: float | None       # extension coefficient, when applicable
    eta: np.ndarray         # per-unit linear predictor (alpha'x [+ phi h])
    pi_hat: np.ndarray      # per-unit fitted response probability
    diagnostics: WeightDiagnostics
    iterations: int


@dataclass
class OutcomeFit:
    beta: np.ndarray        # appended covariate's coefficient last, if any
    m_hat: np.ndarray       # fitted outcome mean for every unit
    iterations: int         # solve plus refinement passes


def weight_diagnostics(pi_hat: np.ndarray, T: np.ndarray) -> WeightDiagnostics:
    """Inverse-weight summaries split by response status.

    Groups with no members report 0 for their max.  With any pi_hat <= 0
    the summaries can be infinite; callers decide whether that is fatal.
    """
    pi_hat = np.asarray(pi_hat, dtype=float)
    T = np.asarray(T)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / pi_hat
    resp = T == 1
    max_resp = float(np.max(inv[resp])) if resp.any() else 0.0
    max_nonresp = float(np.max(inv[~resp])) if (~resp).any() else 0.0
    var = float(np.var(inv)) if pi_hat.size else 0.0
    return WeightDiagnostics(
        min_pi=float(np.min(pi_hat)),
        max_inv_pi_respondents=max_resp,
        max_inv_pi_nonrespondents=max_nonresp,
        var_inv_pi=var,
    )


def _check_design(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2:
        raise InvalidArgumentError("design must be 2-d")
    if response.shape != (design.shape[0],):
        raise InvalidArgumentError("response length must match design rows")
    if design.shape[0] < design.shape[1]:
        raise SingularDesignError(
            f"{design.shape[0]} rows cannot identify {design.shape[1]} coefficients"
        )
    if not np.all(np.isfinite(design)):
        raise InvalidArgumentError("design contains non-finite entries")
    if not np.all(np.isfinite(response)):
        raise InvalidArgumentError("response contains non-finite entries")
    return design, response


def _equilibrated_lstsq(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least squares on a column-equilibrated design, with rank check."""
    scale = np.sqrt(np.mean(design * design, axis=0))
    scale[scale == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(design / scale, rhs, rcond=RANK_RCOND)
    if rank < design.shape[1]:
        raise SingularDesignError(
            f"rank {rank} < {design.shape[1]} columns at rcond={RANK_RCOND:g}"
        )
    return coef / scale


def _assert_full_column_rank(design: np.ndarray) -> None:
    """Rank check with the lstsq cutoff, for paths that may never solve."""
    scale = np.sqrt(np.mean(design * design, axis=0))
    scale[scale == 0.0] = 1.0
    s = np.linalg.svd(design / scale, compute_uv=False)
    rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > RANK_RCOND * s[0]))
    if rank < design.shape[1]:
        raise SingularDesignError(
            f"rank {rank} < {design.shape[1]} columns at rcond={RANK_RCOND:g}"
        )


_U = 2.0**-53  # unit roundoff of float64


def _score_within(terms: np.ndarray, tol: float) -> bool:
    """np.max(np.abs(fsum_col_means(terms))) <= tol, with fewer exact sums.

    A floating-point sum of n terms in any order is within
    gamma_{n-1} * sum|terms| of the exact sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 4.2); e = 2 n u
    sum|terms| bounds that, the factor 2 covering the rounding of
    sum|terms| itself.  Columns that the numpy sum and e place certainly
    within tol need no exact sum; the rest (out of tol, undecided, or
    with a non-finite bound) are summed exactly and decide.
    """
    n = terms.shape[0]
    if terms.size == 0:
        return bool(np.max(np.abs(fsum_col_means(terms))) <= tol)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.abs(terms.sum(axis=0))
        e = (2.0 * n * _U) * np.abs(terms).sum(axis=0)
        hi = (s + e) / n
        lo = (s - e) / n
    open_ = ~(hi < tol * (1.0 - 4.0 * _U))
    if not open_.any():
        return True
    if np.all(np.isfinite(hi)) and np.any(lo > tol * (1.0 + 4.0 * _U)):
        return False
    return bool(np.max(np.abs(fsum_col_means(terms[:, open_]))) <= tol)


def _wls(
    design: np.ndarray,
    response: np.ndarray,
    unit_weights: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Weighted least squares.  Returns (coefficients, passes).

    One weighted solve, then refinement passes until the exactly rounded
    mean score is within SCORE_TOL (certified by _score_within) or the
    step stalls.
    """
    design, response = _check_design(design, response)
    n = design.shape[0]
    if unit_weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(unit_weights, dtype=float)
        if w.shape != (n,):
            raise InvalidArgumentError("unit_weights length must match design rows")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidWeightError("unit weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise InvalidWeightError("all unit weights are zero")

    sw = np.sqrt(w)
    beta = _equilibrated_lstsq(design * sw[:, None], response * sw)
    iterations = 1
    for _ in range(IRLS_MAX_ITER):
        resid = response - design @ beta
        if _score_within(design * (w * resid)[:, None], SCORE_TOL):
            break
        step = _equilibrated_lstsq(design * sw[:, None], resid * sw)
        beta = beta + step
        iterations += 1
        if np.max(np.abs(step)) <= STEP_TOL:
            break
    return beta, iterations


def _logistic_newton(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, int]:
    """Logistic maximum likelihood.  Returns (coefficients, iterations).

    Newton steps from beta = 0 with the exit rules of _wls, then a
    separation check on the final linear predictor.
    """
    design, response = _check_design(design, response)
    # The rank check must come first: a stationary start (score already
    # zero at beta = 0) would exit before any solve sees the design.
    _assert_full_column_rank(design)
    beta = np.zeros(design.shape[1])
    converged = False
    first = True
    for iterations in range(1, IRLS_MAX_ITER + 1):
        eta = design @ beta
        mu = expit(eta)
        resid = response - mu
        if _score_within(design * resid[:, None], SCORE_TOL):
            converged = True
            break
        v = mu * (1.0 - mu)
        live = v > 0
        if not live.any():
            raise NonconvergenceError("all fitted variances vanished")
        sv = np.sqrt(v[live])
        try:
            step = _equilibrated_lstsq(
                design[live] * sv[:, None], resid[live] / sv
            )
        except SingularDesignError:
            if first:
                raise
            raise NonconvergenceError(
                "weighted design lost rank during iteration (separation?)"
            ) from None
        first = False
        beta = beta + step
        if np.max(np.abs(step)) <= STEP_TOL:
            converged = True
            break
    if not converged:
        raise NonconvergenceError(f"no convergence in {IRLS_MAX_ITER} iterations")
    if np.max(np.abs(design @ beta)) > ETA_SEPARATION:
        raise NonconvergenceError(
            "fitted probabilities pinned at 0/1: data are separated"
        )
    return beta, iterations


def irls_fit(
    design: np.ndarray,
    response: np.ndarray,
    unit_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted least-squares regression coefficients."""
    beta, _ = _wls(design, response, unit_weights)
    return beta


def fit_logistic_propensity(design: np.ndarray, T: np.ndarray) -> PropensityFit:
    """Logistic maximum-likelihood fit of P(T = 1 | x) = expit(alpha'x)."""
    T = np.asarray(T)
    alpha, iterations = _logistic_newton(design, T.astype(float))
    eta = np.asarray(design, dtype=float) @ alpha
    pi_hat = expit(eta)
    return PropensityFit(
        kind=PropensityKind.LOGISTIC_MLE,
        alpha=alpha,
        phi=None,
        eta=eta,
        pi_hat=pi_hat,
        diagnostics=weight_diagnostics(pi_hat, T),
        iterations=iterations,
    )


def _inv_linear_unconstrained(design: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve P_n[(T alpha'x - 1) x] = 0 by linear solve plus refinement."""
    n, p = design.shape
    tx = design * (T == 1)[:, None].astype(float)
    gram = np.empty((p, p))
    for j in range(p):
        gram[j] = fsum_col_means(tx * design[:, j][:, None])
    target = fsum_col_means(design)
    alpha = _equilibrated_lstsq(gram, target)
    iterations = 1
    for _ in range(20):
        score = fsum_col_means(design * ((tx @ alpha) - 1.0)[:, None])
        if np.max(np.abs(score)) <= 1e-13:
            break
        step = _equilibrated_lstsq(gram, -score)
        alpha = alpha + step
        iterations += 1
        if np.max(np.abs(step)) <= STEP_TOL * max(1.0, np.max(np.abs(alpha))):
            break
    return alpha, iterations


def _inv_linear_constrained(
    design: np.ndarray, T: np.ndarray, method: str
) -> tuple[np.ndarray, int]:
    """Constrained inverse-linear fits via SLSQP with analytic gradients.

    likelihood: minimize -P_n[T log pi + (1 - T) log(1 - pi)] subject to
    alpha'x_i >= 1 + delta (keeps both logs finite).  moment: minimize
    ||P_n[(T alpha'x - 1) x]||^2 subject to alpha'x_i >= delta.
    """
    n, p = design.shape
    t = (np.asarray(T) == 1).astype(float)

    if method == "likelihood":
        bound = 1.0 + _CONSTRAINT_DELTA

        def objective(alpha):
            s = design @ alpha
            if np.any(s <= bound - 1e-12):
                s = np.maximum(s, bound)
            val = np.mean(np.log(s) - (1.0 - t) * np.log(s - 1.0))
            grad = fsum_col_means(
                design * (1.0 / s - (1.0 - t) / (s - 1.0))[:, None]
            )
            return val, grad

        x0 = np.zeros(p)
        x0[0] = 2.0 / np.min(design[:, 0]) if np.all(design[:, 0] > 0) else 0.0
        if np.any(design @ x0 < bound):
            raise InfeasibleConstraintError(
                "no feasible starting point for the likelihood constraints"
            )
    else:
        bound = _CONSTRAINT_DELTA
        tx = design * t[:, None]

        def objective(alpha):
            m = fsum_col_means(design * ((tx @ alpha) - 1.0)[:, None])
            jac = (tx.T @ design) / n
            return float(m @ m), 2.0 * (jac.T @ m)

        x0 = np.zeros(p)
        x0[0] = 1.0 if np.all(design[:, 0] > 0) else 0.0
        if np.any(design @ x0 < bound):
            raise InfeasibleConstraintError(
                "no feasible starting point for the moment constraints"
            )

    constraints = {
        "type": "ineq",
        "fun": lambda alpha: design @ alpha - bound,
        "jac": lambda alpha: design,
    }
    res = minimize(
        objective,
        x0,
        jac=True,
        method="SLSQP",
        constraints=[constraints],
        options={"maxiter": _OPT_MAX_ITER, "ftol": 1e-14},
    )
    if res.status == 4:
        raise InfeasibleConstraintError(res.message)
    if not res.success and res.status != 0:
        raise NonconvergenceError(f"constrained fit failed: {res.message}")
    return res.x, int(res.nit)


def fit_inverse_linear(
    design: np.ndarray, T: np.ndarray, method: str = "likelihood"
) -> PropensityFit:
    """Fit the inverse-linear response model pi(x) = 1 / (alpha'x).

    method is one of "likelihood", "moment", "unconstrained_moment".  The
    constrained variants keep alpha'x_i away from the region where the
    criterion is undefined; the unconstrained moment solve can produce
    fitted values outside (0, 1], which is intentional (its point is the
    algebraic identity it induces, not plausibility of the weights).
    """
    design = np.asarray(design, dtype=float)
    T = np.asarray(T)
    design, _ = _check_design(design, T.astype(float))
    kinds = {
        "likelihood": PropensityKind.INV_LINEAR_ML,
        "moment": PropensityKind.INV_LINEAR_MOMENT,
        "unconstrained_moment": PropensityKind.INV_LINEAR_UNCONSTRAINED,
    }
    if method not in kinds:
        raise InvalidArgumentError(f"unknown method {method!r}")
    if method == "unconstrained_moment":
        alpha, iterations = _inv_linear_unconstrained(design, T)
    else:
        alpha, iterations = _inv_linear_constrained(design, T, method)
    eta = design @ alpha
    with np.errstate(divide="ignore"):
        pi_hat = 1.0 / eta
    return PropensityFit(
        kind=kinds[method],
        alpha=alpha,
        phi=None,
        eta=eta,
        pi_hat=pi_hat,
        diagnostics=weight_diagnostics(pi_hat, T),
        iterations=iterations,
    )


def _fit_on_respondents(
    view: AnalysisView,
    appended: np.ndarray | None = None,
    weight_pi: np.ndarray | None = None,
) -> OutcomeFit:
    """Least squares on respondents, with fitted values for every unit.

    appended, if given, is added to design_m as a last column; weight_pi,
    if given, weights respondent i by 1 / weight_pi[i].  Callers check
    their pi_hat first.
    """
    resp = np.asarray(view.T) == 1
    if not resp.any():
        raise SingularDesignError("no respondents to fit on")
    y = np.asarray(view.y_observed, dtype=float)[resp]
    if not np.all(np.isfinite(y)):
        raise InvalidArgumentError("observed outcomes contain non-finite values")
    design = np.asarray(view.design_m, dtype=float)
    if appended is not None:
        design = np.hstack([design, appended[:, None]])
    weights = None if weight_pi is None else 1.0 / weight_pi[resp]
    beta, iterations = _wls(design[resp], y, weights)
    return OutcomeFit(beta, design @ beta, iterations)


def fit_outcome_reg(view: AnalysisView) -> OutcomeFit:
    """Unweighted outcome regression on respondents."""
    return _fit_on_respondents(view)


def fit_outcome_wls(view: AnalysisView, pi_hat: np.ndarray) -> OutcomeFit:
    """Outcome regression on respondents, weighted by 1 / pi_hat."""
    pi_hat = np.asarray(pi_hat, dtype=float)
    pi_resp = pi_hat[np.asarray(view.T) == 1]
    if np.any(pi_resp <= 0) or not np.all(np.isfinite(pi_resp)):
        raise InvalidWeightError("pi_hat must be finite and positive on respondents")
    return _fit_on_respondents(view, weight_pi=pi_hat)


def fit_outcome_ext_reg(view: AnalysisView, pi_hat: np.ndarray) -> OutcomeFit:
    """Unweighted regression with 1 / pi_hat appended as a covariate.

    pi_hat must be positive on all units because the appended column is
    needed to predict for nonrespondents too.  A constant pi_hat makes
    the appended column collinear with the intercept and the fit fails.
    """
    pi_hat = np.asarray(pi_hat, dtype=float)
    if np.any(pi_hat <= 0) or not np.all(np.isfinite(pi_hat)):
        raise InvalidWeightError("pi_hat must be finite and positive on all units")
    return _fit_on_respondents(view, appended=1.0 / pi_hat)


def fit_outcome_ipw_nr(view: AnalysisView, pi_hat: np.ndarray) -> OutcomeFit:
    """Regression weighted by 1 / pi_hat with pi_hat appended as covariate.

    The fitted values satisfy both the inverse-weighted and the
    unweighted respondent moment conditions, so the plug-in mean
    P_n[m_hat] equals P_n[T y + (1 - T) m_hat].
    """
    pi_hat = np.asarray(pi_hat, dtype=float)
    if np.any(pi_hat <= 0) or np.any(pi_hat >= 1) or not np.all(np.isfinite(pi_hat)):
        raise InvalidWeightError("pi_hat must lie strictly inside (0, 1) on all units")
    return _fit_on_respondents(view, appended=pi_hat, weight_pi=pi_hat)


def fit_extended_propensity(
    base: PropensityFit, h: np.ndarray, T: np.ndarray
) -> PropensityFit:
    """Add one coefficient to a logistic fit so that a chosen moment is zero.

    Solves g(phi) = P_n[(T / expit(eta + phi h) - 1) h] = 0 for scalar phi;
    h is both the direction and the moment weight.  g is nonincreasing
    in phi, so the root lies on the side given by the sign of g(0): the
    search steps out from 0 on that side only, through 1, 2, 4, ... up to
    PHI_BRACKET_MAX, and Brent's method solves on the first bracket.
    With h = m_hat - P_n[m_hat] for an outcome fit m_hat, the bounded
    doubly robust estimator built from this fit is a weighted mean of
    observed outcomes.
    """
    if base.kind not in (PropensityKind.LOGISTIC_MLE, PropensityKind.LOGISTIC_EXTENDED):
        raise InvalidArgumentError("extension requires a logistic base fit")
    T = np.asarray(T)
    h = np.asarray(h, dtype=float)
    if h.shape != base.eta.shape:
        raise InvalidArgumentError("h must have one entry per unit")
    if not np.all(np.isfinite(h)):
        raise InvalidArgumentError("h contains non-finite entries")
    t1 = (T == 1).astype(float)
    # by phi: brentq evaluates the bracket ends the step-out already has
    values: dict[float, float] = {}

    def g(phi: float) -> float:
        if phi not in values:
            eta = np.clip(base.eta + phi * h, -700.0, 700.0)
            # T/expit(eta) - 1 = exp(-eta) for respondents, -1 otherwise
            term = np.where(t1 == 1.0, np.exp(-eta), -1.0)
            values[phi] = float(np.mean(term * h))
        return values[phi]

    g0 = g(0.0)
    if abs(g0) <= PHI_GTOL:
        phi_hat = 0.0
    else:
        a, b = 0.0, math.copysign(1.0, g0)
        while g(b) * g0 > 0:
            if abs(b) >= PHI_BRACKET_MAX:
                raise NoRootError(
                    f"no sign change for the extension moment between 0 and {b:g}"
                )
            a, b = b, math.copysign(min(2.0 * abs(b), PHI_BRACKET_MAX), b)
        # an exact zero at b is returned by brentq as is
        phi_hat, result = brentq(
            g, min(a, b), max(a, b), xtol=PHI_XTOL, full_output=True, disp=False
        )
        if not result.converged:
            raise NonconvergenceError(f"extension solve did not converge: {result.flag}")

    eta = base.eta + phi_hat * h
    pi_hat = expit(eta)
    return PropensityFit(
        kind=PropensityKind.LOGISTIC_EXTENDED,
        alpha=base.alpha.copy(),
        phi=phi_hat,
        eta=eta,
        pi_hat=pi_hat,
        diagnostics=weight_diagnostics(pi_hat, T),
        iterations=len(values),
    )
