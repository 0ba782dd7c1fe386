"""Every public entry point returns or raises a DrmeanError on finite input.

A derandomized hypothesis search over small samples whose columns and
outcomes span most of the float range: n from 2 to 60, covariate columns
scaled by up to 1e+-200 (some of them constant), outcomes scaled by up to
1e+-300, and samples in which every unit responded.  A call may fail, but
only with the package's own errors: it never warns and never raises an
exception of another type.  The same holds for the command line: fed
configs whose values are bools, floats, strings, null, negatives, seeds
beyond 64 bits and overflowing generator settings, it returns an exit code
of 0 to 3.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drmean
from drmean import AnalysisView, DrmeanError, ModelSpec, cli

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


# values of the wrong type or range; no large integer, which would be a
# valid replication or draw count
JUNK = st.sampled_from((True, 1.5, -1, 0, "x", None, [], {}, math.nan))
BAD_SEEDS = st.one_of(st.sampled_from((2**64, 2**64 + 3)), JUNK)
BAD_NUMBERS = st.one_of(st.sampled_from((1e308, -1e308, 1e307, 10**400, math.inf)), JUNK)
NAMES = st.sampled_from(("x1", "x2", "x3", "x4"))


def lists(strategy, lo: int, hi: int):
    return st.lists(strategy, min_size=lo, max_size=hi, unique_by=json.dumps)


@st.composite
def one_bad(draw, valid: dict, bad: dict) -> dict:
    """A config drawn from valid, with at most one key's value drawn from bad."""
    config = draw(st.fixed_dictionaries(valid))
    key = draw(st.sampled_from([None, None, None] + sorted(bad)))
    if key is not None:
        config[key] = draw(bad[key])
    return config


def dgp_settings(number, sd, weight, coefficient):
    return st.fixed_dictionaries({}, optional={
        "intercept": number, "slope": number, "noise_sd": sd,
        "z_star_weights": st.lists(weight, min_size=4, max_size=4),
        "propensity_coefficients": st.lists(coefficient, min_size=5, max_size=5),
    })


SIMULATE_CONFIGS = one_bad(
    {
        "base_seed": st.integers(0, 2**64 - 1),
        "reps": st.integers(1, 2),
        "sample_sizes": lists(st.integers(2, 30), 1, 2),
        "scenarios": lists(st.fixed_dictionaries(
            {"pi_correct": st.booleans(), "m_correct": st.booleans()}), 1, 2),
        "reverse_roles": st.booleans(),
        "estimators": lists(st.sampled_from(drmean.ESTIMATOR_NAMES), 1, 4),
        "dgp": dgp_settings(st.floats(-1e3, 1e3), st.floats(0.1, 10.0),
                            st.floats(-10.0, 10.0), st.floats(-3.0, 3.0)),
    },
    {
        "base_seed": BAD_SEEDS,
        "reps": JUNK,
        "sample_sizes": st.one_of(JUNK, lists(JUNK, 1, 2)),
        "scenarios": st.one_of(JUNK, lists(st.fixed_dictionaries(
            {"pi_correct": JUNK}, optional={"m_correct": st.booleans()}), 1, 2)),
        "reverse_roles": JUNK,
        "estimators": st.one_of(JUNK, lists(st.sampled_from(("NOPE", "OLS", 1)), 1, 3)),
        "dgp": st.one_of(JUNK, dgp_settings(BAD_NUMBERS, BAD_NUMBERS, BAD_NUMBERS,
                                            BAD_NUMBERS)),
    },
)


def models(kind=None):
    optional = {} if kind is None else {"kind": kind}
    return lists(st.fixed_dictionaries({"covariates": lists(NAMES, 1, 3)}, optional=optional),
                 1, 2)


def bad_models(kinds):
    covariates = st.one_of(JUNK, lists(st.sampled_from(("x1", "x9", 3)), 1, 2))
    return st.one_of(JUNK, lists(st.fixed_dictionaries(
        {"covariates": covariates}, optional={"kind": st.one_of(st.sampled_from(kinds), JUNK)}),
        1, 2))


SENSITIVITY_CONFIGS = one_bad(
    {
        "estimator": st.sampled_from(drmean.DR_ESTIMATORS),
        "boot_reps": st.integers(2, 3),
        "seed": st.integers(0, 2**64 - 1),
        "propensity_models": models(st.sampled_from(PROPENSITY_KINDS)),
        "outcome_models": models(),
    },
    {
        "estimator": st.one_of(st.just("OLS"), JUNK),
        "boot_reps": JUNK,
        "seed": BAD_SEEDS,
        "propensity_models": bad_models(("PROBIT",) + PROPENSITY_KINDS),
        "outcome_models": bad_models(("REG", "WLS", "EXT_REG", "IPW_NR")),
    },
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a 40-row dataset CSV (t, y, x1..x4)."""
    path = tmp_path_factory.mktemp("cli")
    sample = drmean.generate_sample(40, 5)
    rows = ["t,y,x1,x2,x3,x4"] + [
        ",".join([str(t), repr(float(y)) if t else ""] + [repr(float(v)) for v in x])
        for t, y, x in zip(sample.T, sample.Y, sample.X)
    ]
    (path / "data.csv").write_text("\n".join(rows) + "\n")
    return path


def run_cli(workdir, command: str, config: dict) -> int:
    """cli.main on config, checked to return an exit code and never warn."""
    (workdir / "config.json").write_text(json.dumps(config))
    args = ["--config", str(workdir / "config.json"), "--out"]
    if command == "simulate":
        args += [str(workdir / "out")]
    else:
        args = ["--data", str(workdir / "data.csv")] + args + [str(workdir / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command] + args)
    assert rc in (0, 1, 2, 3)
    return rc


SIMULATE = {"base_seed": 1, "reps": 2, "sample_sizes": [20], "estimators": ["OLS", "HT"]}
SENSITIVITY = {"estimator": "DR_WLS", "boot_reps": 2,
               "propensity_models": [{"covariates": ["x1", "x2"]}],
               "outcome_models": [{"covariates": ["x1"]}]}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(SIMULATE_CONFIGS)
@example({**SIMULATE, "base_seed": 2**64})
@example({**SIMULATE, "dgp": {"z_star_weights": [1e308, 1e308, 1, 1]}})
@example({**SIMULATE, "dgp": {"noise_sd": "x"}})
@example({**SIMULATE, "dgp": {"intercept": "x"}})
@example({**SIMULATE, "dgp": {"slope": None}})
def test_simulate_cli_returns_an_exit_code(workdir, config):
    run_cli(workdir, "simulate", config)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(SENSITIVITY_CONFIGS)
@example({**SENSITIVITY, "seed": -1})
@example({**SENSITIVITY, "seed": 2**64})
@example({**SENSITIVITY, "boot_reps": 1})
def test_sensitivity_cli_returns_an_exit_code(workdir, config):
    run_cli(workdir, "sensitivity", config)
