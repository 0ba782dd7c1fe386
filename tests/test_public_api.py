"""Every public entry point returns or raises a DrmeanError on finite input.

A derandomized hypothesis search over small samples whose columns and
outcomes span most of the float range: n from 2 to 60, covariate columns
scaled by up to 1e+-200 (some of them constant), outcomes scaled by up to
1e+-300, and samples in which every unit responded.  A call may fail, but
only with the package's own errors: it never warns and never raises an
exception of another type.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drmean
from drmean import AnalysisView, DrmeanError, ModelSpec

PROPENSITY_KINDS = ("LOGISTIC_MLE", "INV_LINEAR_ML", "INV_LINEAR_MOMENT",
                    "INV_LINEAR_UNCONSTRAINED")


def call(f, *args, **kwargs):
    """f(*args, **kwargs), or None if it raised a DrmeanError; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(*args, **kwargs)
        except DrmeanError:
            return None


@st.composite
def samples(draw):
    """(covariates, T, y, pi_hat, intercept): y complete, pi_hat in [0, 1]."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, draw(st.integers(1, 3))))
    for j in range(X.shape[1]):
        if draw(st.booleans()):
            X[:, j] = rng.standard_normal()
        X[:, j] *= 10.0 ** draw(st.integers(-200, 200))
    if draw(st.booleans()):
        T = np.ones(n, dtype=np.int64)
    else:
        T = (rng.uniform(size=n) < draw(st.floats(0.1, 0.9))).astype(np.int64)
    y = rng.standard_normal(n) * 10.0 ** draw(st.integers(-300, 300))
    pi_hat = rng.uniform(size=n) ** draw(st.sampled_from([1.0, 30.0, 300.0]))
    return X, T, y, pi_hat, draw(st.booleans())


def _case(covariates, T, y):
    T = np.array(T)
    return np.array(covariates, dtype=float), T, np.array(y), np.full(len(T), 0.5), True


# SLSQP's exact moment sums overflowed on this design: [1, 1.2e62] on every row
INV_LINEAR_OVERFLOW = _case(np.full((3, 1), 1.2e62), [0, 1, 1], [0.0, 1.0, 2.0])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(samples())
@example(INV_LINEAR_OVERFLOW)
# the summary's squared deviations, and then its exact sum, overflowed
@example(_case([[0.0], [1.0]], [1, 1], [1e200, -1e200]))
@example(_case([[0.0], [1.0]], [1, 1], [1e308, 1e308]))
def test_fits_and_estimators_raise_only_drmean_errors(case):
    X, T, y, pi_hat, intercept = case
    n = len(T)
    design = np.hstack([np.ones((n, 1)), X]) if intercept else X
    y_observed = np.where(T == 1, y, np.nan)
    view = AnalysisView(design_pi=design, design_m=design, T=T, y_observed=y_observed)
    call(drmean.estimate_all, view)
    call(drmean.mu_ols_identities_check, view)
    logistic = call(drmean.fit_logistic_propensity, design, T)
    if logistic is not None:
        call(drmean.fit_extended_propensity, logistic, X[:, 0], T)
    for method in ("likelihood", "moment", "unconstrained_moment"):
        call(drmean.fit_inverse_linear, design, T, method)
    reg = call(drmean.fit_outcome_reg, view)
    for fit in (drmean.fit_outcome_wls, drmean.fit_outcome_ext_reg,
                drmean.fit_outcome_ipw_nr):
        call(fit, view, pi_hat)
    m_hat = y if reg is None else reg.m_hat
    for mu in (drmean.mu_ht, drmean.mu_ipw_pop):
        call(mu, pi_hat, T, y_observed)
    for mu in (drmean.mu_aipw, drmean.mu_b_dr):
        call(mu, pi_hat, m_hat, T, y_observed)
    call(drmean.mu_from_regression, m_hat)
    call(drmean.mu_full, y)
    call(drmean.summarize, y, 0.0)
    call(drmean.density_points, y)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(samples(), st.sampled_from(drmean.DR_ESTIMATORS), st.integers(2, 3))
@example(INV_LINEAR_OVERFLOW, "DR_WLS", 2)
def test_sensitivity_raises_only_drmean_errors(case, estimator, boot_reps):
    X, T, y, _, _ = case
    every = tuple(range(X.shape[1]))
    p_specs = [ModelSpec("propensity", every, kind) for kind in PROPENSITY_KINDS]
    o_specs = [ModelSpec("outcome", cols) for cols in dict.fromkeys([(0,), every])]
    call(drmean.run_sensitivity, X, T, np.where(T == 1, y, np.nan), p_specs, o_specs,
         estimator, boot_reps=boot_reps, seed=0)
