"""Weighted linear and logistic fits, plus the propensity models.

Outcome fits go through one weighted least squares routine (_wls): SVD
least squares on the column-equilibrated design with a rank check, then
refinement passes until the mean score is within SCORE_TOL.  That matters:
downstream identities are asserted to absolute tolerances near 1e-10 on
raw-scale designs whose columns differ by orders of magnitude.  Logistic
Newton steps solve the p x p weighted Gram matrix of the equilibrated
design, once Cholesky shows it positive definite (_newton_step).

Both fits stop once the mat-vec score and its rounding error bound can
no longer prove any column above SCORE_TOL (_score_within, scale-free), and
raise NonconvergenceError at IRLS_MAX_ITER passes.

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
STEP_TOL = 1e-12       # inverse-linear solve: step max-norm relative to alpha
RANK_RCOND = 1e-10     # singular values below rcond * smax count as zero
_U = 2.0**-53          # unit roundoff of float64
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
    """A fitted propensity model.  It carries no weight summaries: callers
    that report them call weight_diagnostics(pi_hat, T) themselves, as
    estimators.estimate_all does for the base fit only."""

    kind: PropensityKind
    alpha: np.ndarray       # coefficients of the base model
    phi: float | None       # extension coefficient, when applicable
    eta: np.ndarray         # per-unit linear predictor (alpha'x [+ phi h])
    pi_hat: np.ndarray      # per-unit fitted response probability
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / pi_hat
        var = float(np.var(inv)) if pi_hat.size else 0.0
    resp = T == 1
    max_resp = float(np.max(inv[resp])) if resp.any() else 0.0
    max_nonresp = float(np.max(inv[~resp])) if (~resp).any() else 0.0
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


def _equilibrate(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(design / scale, scale), scale_j the root mean square of column j (1 if zero);
    a column whose squares overflow is first divided by a power of two (exact)."""
    with np.errstate(over="ignore"):
        scale = np.sqrt(np.mean(design * design, axis=0))
    big = ~np.isfinite(scale)
    if big.any():
        m = np.ldexp(1.0, np.frexp(np.max(np.abs(design[:, big]), axis=0))[1] - 1)
        scale[big] = m * np.sqrt(np.mean((design[:, big] / m) ** 2, axis=0))
    scale[scale == 0.0] = 1.0
    return design / scale, scale


def _check_rank(rank: int, p: int) -> None:
    if rank < p:
        raise SingularDesignError(f"rank {rank} < {p} columns at rcond={RANK_RCOND:g}")


def _equilibrated_lstsq(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least squares on a column-equilibrated design, with rank check."""
    xs, scale = _equilibrate(design)
    try:
        coef, _, rank, _ = np.linalg.lstsq(xs, rhs, rcond=RANK_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NonconvergenceError(f"least squares failed: {exc}") from None
    _check_rank(rank, design.shape[1])
    return coef / scale


def _score_within(
    design: np.ndarray,
    q: np.ndarray,
    q_err: np.ndarray | float,
    tol: float,
    abs_design: np.ndarray | None = None,
) -> bool:
    """False only if the mat-vec design.T @ q proves a column's mean above tol.

    design.T @ q, in any order, with or without fused multiply-adds, is within
    e = |design|.T @ (2 (n + 1) u |q| + q_err) of the exact score, q_err
    bounding the rounding already in q (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.1).  |design.T @ q| - e <= tol n
    is a componentwise backward-error test (Arioli, Duff & Ruiz, SIAM J.
    Matrix Anal. Appl. 13, 1992), unchanged when q and q_err are scaled.
    abs_design, if given, is np.abs(design), taken once by a caller's loop.
    """
    n = design.shape[0]
    if abs_design is None:
        abs_design = np.abs(design)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.abs(design.T @ q)
        e = abs_design.T @ ((2.0 * (n + 1) * _U) * np.abs(q) + q_err)
        return bool(np.all(np.isfinite(e)) and np.all(s - e <= tol * n))


def _wls(
    design: np.ndarray,
    response: np.ndarray,
    unit_weights: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Weighted least squares.  Returns (coefficients, passes).

    One weighted solve, then refinement passes until _score_within stops
    them (NonconvergenceError after IRLS_MAX_ITER).  y - x'beta can cancel
    far below |y|, so q_err bounds its rounding by (p + 2) u (|y| + |x||beta|).
    """
    design, response = _check_design(design, response)
    n, p = design.shape
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
    abs_design = np.abs(design)
    beta = _equilibrated_lstsq(design * sw[:, None], response * sw)
    for iterations in range(1, IRLS_MAX_ITER + 1):
        resid = response - design @ beta
        q_err = ((p + 2) * _U) * w * (np.abs(response) + abs_design @ np.abs(beta))
        if _score_within(design, w * resid, q_err, SCORE_TOL, abs_design):
            break
        beta = beta + _equilibrated_lstsq(design * sw[:, None], resid * sw)
    else:
        raise NonconvergenceError(f"no convergence in {IRLS_MAX_ITER} passes")
    return beta, iterations


def _newton_step(xs: np.ndarray, v: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Solve (xs' V xs) d = xs' resid over the rows with v > 0: on the Gram matrix
    if its Cholesky pivots all exceed sqrt(RANK_RCOND) * the largest, else by lstsq."""
    live = v > 0
    gram = (xs.T * v) @ xs
    try:
        d = np.diag(np.linalg.cholesky(gram))
        if d.min() > math.sqrt(RANK_RCOND) * d.max():
            return np.linalg.solve(gram, xs.T @ (resid * live))
    except np.linalg.LinAlgError:
        pass
    sv = np.sqrt(v[live])
    return _equilibrated_lstsq(xs[live] * sv[:, None], resid[live] / sv)


def _logistic_newton(
    design: np.ndarray, response: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Logistic maximum likelihood.  Returns (coefficients, iterations).

    Newton steps (_newton_step) from start (default 0) with the stopping
    rule of _wls, then a separation check on the final linear predictor.
    The Gram solve squares the condition number, but each step is taken
    from the current score, so its error slows the iteration without
    moving the fit (Bjorck, Numerical Methods for Least Squares Problems,
    1996).
    """
    design, response = _check_design(design, response)
    xs, scale = _equilibrate(design)
    # rank check first: a stationary start would exit before any solve
    try:
        sv = np.linalg.svd(xs, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonconvergenceError(f"rank check failed: {exc}") from None
    _check_rank(int(np.sum(sv > RANK_RCOND * sv.max(initial=0.0))), xs.shape[1])
    if start is None:
        beta = np.zeros(design.shape[1])
    else:
        beta = np.array(start, dtype=float)
        if beta.shape != (design.shape[1],) or not np.all(np.isfinite(beta)):
            raise InvalidArgumentError("start must be finite, one entry per column")
    abs_design = np.abs(design)
    for iterations in range(1, IRLS_MAX_ITER + 1):
        mu = expit(design @ beta)
        resid = response - mu
        # T - mu is of order one on most units: the |q| term covers its rounding
        if _score_within(design, resid, 0.0, SCORE_TOL, abs_design):
            break
        v = mu * (1.0 - mu)
        if not np.any(v > 0):
            raise NonconvergenceError("all fitted variances vanished")
        try:
            step = _newton_step(xs, v, resid) / scale
        except SingularDesignError:
            if iterations == 1:
                raise
            raise NonconvergenceError(
                "weighted design lost rank during iteration (separation?)"
            ) from None
        beta = beta + step
    else:
        raise NonconvergenceError(f"no convergence in {IRLS_MAX_ITER} iterations")
    if np.max(np.abs(design @ beta)) > ETA_SEPARATION:
        raise NonconvergenceError("fitted probabilities pinned at 0/1: data are separated")
    return beta, iterations


def irls_fit(
    design: np.ndarray,
    response: np.ndarray,
    unit_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted least-squares regression coefficients."""
    beta, _ = _wls(design, response, unit_weights)
    return beta


def fit_logistic_propensity(
    design: np.ndarray, T: np.ndarray, start: np.ndarray | None = None
) -> PropensityFit:
    """Logistic maximum-likelihood fit of P(T = 1 | x) = expit(alpha'x).

    Newton's method starts from the coefficients start, or from 0.
    """
    T = np.asarray(T)
    alpha, iterations = _logistic_newton(design, T.astype(float), start)
    eta = np.asarray(design, dtype=float) @ alpha
    pi_hat = expit(eta)
    return PropensityFit(
        kind=PropensityKind.LOGISTIC_MLE,
        alpha=alpha,
        phi=None,
        eta=eta,
        pi_hat=pi_hat,
        iterations=iterations,
    )


def _inv_linear_unconstrained(design: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve P_n[(T alpha'x - 1) x] = 0 by linear solve plus refinement."""
    n, p = design.shape
    tx = design * (T == 1)[:, None].astype(float)
    with np.errstate(over="ignore"):
        terms = (design[:, :, None] * tx[:, None, :]).reshape(n, p * p)
    try:
        gram, target = fsum_col_means(terms).reshape(p, p), fsum_col_means(design)
    except (OverflowError, ValueError):  # math.fsum past the float range, or inf - inf
        gram = np.full((p, p), np.inf)
    if not np.all(np.isfinite(gram)):
        raise InvalidArgumentError("moment Gram matrix is not finite")
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
    # a design with huge entries overflows inside the criterion and inside
    # SLSQP itself; the outcome is judged by res.status and res.x instead
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not np.all(np.isfinite(res.x)):
        raise NonconvergenceError("constrained fit ended at non-finite coefficients")
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
    h is both the direction and the moment weight.  The solve runs on h / c,
    c = 2^floor(log2 max|h|), free of the units of h.  g is nonincreasing in
    phi, so the search steps out from 0 on the side of sign(g(0)) only,
    through 1, 2, 4, ... up to PHI_BRACKET_MAX, and Brent's method solves on
    the first bracket.
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
    c = math.ldexp(1.0, math.frexp(np.max(np.abs(h), initial=0.0))[1] - 1)
    hn = h / c
    # by phi: brentq evaluates the bracket ends the step-out already has
    values: dict[float, float] = {}

    def g(phi: float) -> float:
        if phi not in values:
            eta = np.clip(base.eta + phi * hn, -700.0, 700.0)
            # T/expit(eta) - 1 = exp(-eta) for respondents, -1 otherwise
            term = np.where(t1 == 1.0, np.exp(-eta), -1.0)
            values[phi] = float(np.mean(term * hn))
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

    eta = base.eta + phi_hat * hn
    pi_hat = expit(eta)
    return PropensityFit(
        kind=PropensityKind.LOGISTIC_EXTENDED,
        alpha=base.alpha.copy(),
        phi=phi_hat / c,
        eta=eta,
        pi_hat=pi_hat,
        iterations=len(values),
    )
