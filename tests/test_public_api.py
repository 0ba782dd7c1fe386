"""Every public entry point returns or raises a DrmeanError on finite input.

A derandomized hypothesis search over small samples whose columns and
outcomes span most of the float range: n from 2 to 60, covariate columns
scaled by up to 1e+-200 (some of them constant), outcomes scaled by up to
1e+-300, and samples in which every unit responded.  A call may fail, but
only with the package's own errors: it never warns and never raises an
exception of another type, whether the caller holds numpy's default
error state or one that raises or warns on every flag, and its result
is the same under each.  The same holds for the command line: fed
configs whose values are bools, floats, strings, null, negatives and
seeds beyond 64 bits, it returns an exit code of 0 to 3.  The scalar
arguments of the library (counts, seeds, flags, names and a summary's
truth), fed bools, floats, strings, lists, None and negative numbers,
raise nothing but DrmeanErrors; a bool never passes for a count nor
anything else for a flag, and a scenario never runs without an
estimator.  So do per-unit arrays of the wrong shape (one entry short
or long, a column, 2-d or 0-d) or of text, complex values or ragged
lists, and scenario and sensitivity specs, views, samples and fits of
another type are always rejected, as are a bare string of estimator
names and the spellings of removed features.  A table pins the class
and whole message of every pi_hat failure of the weighted fits and
estimators, and another those of a per-unit array one unit short at
every public entry that cuts rows by a mask, where ndarray.compress
would drop units that indexing rejected; estimate_all reports them per
estimator, as it does a design with no column, which every fit rejects
by name.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drmean
from drmean import (
    AnalysisView, DrmeanError, InvalidArgumentError, ModelSpec, UndefinedEstimatorError, cli,
)


# the error state a caller may hold: numpy's default, or every flag raising
# or warning (a warning fails the call)
CALLER_STATES = {"default": {}, "raise": {"all": "raise"}, "warn": {"all": "warn"}}


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


def _case(covariates, T, y, pi_hat=None):
    T = np.array(T)
    pi_hat = np.full(len(T), 0.5) if pi_hat is None else np.array(pi_hat)
    return np.array(covariates, dtype=float), T, np.array(y), pi_hat, True


# [1, 1.2e62] on every row: a constant column far from unit scale, on which
# the exact sums of a removed likelihood fit's criterion overflowed
INV_LINEAR_OVERFLOW = _case(np.full((3, 1), 1.2e62), [0, 1, 1], [0.0, 1.0, 2.0])

# Each of these once raised FloatingPointError under a raising caller
# state, and warned under a warning one.
LINE = np.linspace(-1.0, 1.0, 20)
# separated: alpha'x grows until e^-alpha'x underflows; with y = 1 + x the
# error escaped estimate_all too
SEPARATED = _case(LINE[:, None], (LINE > 0).astype(int), 1.0 + LINE)
# one pi_hat of 1e-200: the column 1 / pi_hat appended by the extended
# regression, divided by its largest entry, squares to below the subnormals
TINY_PI = _case(np.arange(6.0)[:, None], [1, 1, 0, 1, 0, 1], np.arange(6.0),
                [1e-200, 0.5, 0.5, 0.5, 0.5, 0.5])
# a covariate in units of 1e-160: the products of the Gram matrix underflow
TINY_UNITS = _case(1e-160 * LINE[:, None] ** 2, np.ones(20, dtype=int), LINE)
# the standardised deviations of tiny outcomes underflow when cubed
TINY_SPREAD = _case([[0.0], [1.0], [2.0]], [1, 1, 1], [1e-200, 2e-200, 3e-200])
# an outcome 320 decades below the largest underflows when the outcome
# fits divide y by a power of two near max |y|
TINY_BESIDE_HUGE = _case([[0.0], [1.0], [2.0]], [1, 1, 1], [1.2345e-300, 1e20, 3.0])
# a direction entry of 1e-170 underflows when the extension squares it
TINY_DIRECTION = _case([[1e-170], [0.3], [-0.5], [1.0], [-1.0], [0.2], [-0.2], [0.7]],
                       [1, 0, 1, 0, 1, 1, 0, 1], np.arange(8.0))


@pytest.mark.parametrize("caller_state", CALLER_STATES)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(samples())
@example(INV_LINEAR_OVERFLOW)
# the summary's squared deviations, and then its exact sum, overflowed
@example(_case([[0.0], [1.0]], [1, 1], [1e200, -1e200]))
@example(_case([[0.0], [1.0]], [1, 1], [1e308, 1e308]))
@example(SEPARATED)
@example(TINY_PI)
@example(TINY_UNITS)
@example(TINY_SPREAD)
@example(TINY_BESIDE_HUGE)
@example(TINY_DIRECTION)
def test_fits_and_estimators_raise_only_drmean_errors(caller_state, case):
    with np.errstate(**CALLER_STATES[caller_state]):
        fits_and_estimators(*case)


def fits_and_estimators(X, T, y, pi_hat, intercept):
    """Every public fit, estimator and summary on one sample, each through call."""
    n = len(T)
    design = np.hstack([np.ones((n, 1)), X]) if intercept else X
    y_observed = np.where(T == 1, y, np.nan)
    view = AnalysisView(design_pi=design, design_m=design, T=T, y_observed=y_observed)
    call(drmean.estimate_all, view)
    call(drmean.mu_ols_identities_check, view)
    logistic = call(drmean.fit_logistic_propensity, design, T)
    if logistic is not None:
        call(drmean.fit_extended_propensity, logistic, X[:, 0], T)
    call(drmean.fit_inverse_linear, design, T)
    reg = None
    respondents = call(drmean.RespondentDesign, view)
    if respondents is not None:
        reg = call(drmean.fit_outcome_reg, respondents)
        for fit in (drmean.fit_outcome_wls, drmean.fit_outcome_ext_reg,
                    drmean.fit_outcome_ipw_nr):
            call(fit, respondents, pi_hat)
    m_hat = y if reg is None else reg.m_hat
    for mu in (drmean.mu_ht, drmean.mu_ipw_pop):
        call(mu, pi_hat, T, y_observed)
    for mu in (drmean.mu_aipw, drmean.mu_b_dr):
        call(mu, pi_hat, m_hat, T, y_observed)
    call(drmean.linmod.weight_diagnostics, pi_hat, T)
    call(drmean.mu_from_regression, m_hat)
    call(drmean.mu_full, y)
    call(drmean.summarize, y, 0.0)


@pytest.mark.parametrize("caller_state", CALLER_STATES)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(samples(), st.sampled_from(drmean.DR_ESTIMATORS), st.integers(2, 3))
@example(INV_LINEAR_OVERFLOW, "DR_WLS", 2)
@example(SEPARATED, "DR_WLS", 2)
@example(TINY_UNITS, "B_DR_EXT", 2)
def test_sensitivity_raises_only_drmean_errors(caller_state, case, estimator, boot_reps):
    X, T, y, _, _ = case
    every = tuple(range(X.shape[1]))
    p_specs = [ModelSpec("propensity", every)]
    o_specs = [ModelSpec("outcome", cols) for cols in dict.fromkeys([(0,), every])]
    with np.errstate(**CALLER_STATES[caller_state]):
        call(drmean.run_sensitivity, X, T, np.where(T == 1, y, np.nan), p_specs, o_specs,
             estimator, boot_reps=boot_reps, seed=0)


def outcome(f, caller_state: str):
    """f() under caller_state, or the class and message of the DrmeanError
    it raised; a warning fails."""
    with np.errstate(**CALLER_STATES[caller_state]), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f()
        except DrmeanError as exc:
            return f"{type(exc).__name__}: {exc}"


def _view(case) -> AnalysisView:
    X, T, y, _, _ = case
    design = np.hstack([np.ones((len(T), 1)), X])
    return AnalysisView(design, design, T, np.where(T == 1, y, np.nan))


def _estimates(result) -> str:
    return json.dumps([result.values, result.flags, result.messages])


def _line_test() -> str:
    """A line test whose contrasts lie 320 decades apart: divided by a power
    of two near the largest, the smallest underflows."""
    sample = drmean.generate_sample(200, 5)
    return repr(drmean.homogeneity_test(
        [0.0, 1e-170, 1e150], np.hstack([sample.Z, sample.X]), sample.T,
        np.where(sample.T == 1, sample.Y, np.nan), ModelSpec("propensity", (0, 1, 2, 3)),
        [ModelSpec("outcome", (j,)) for j in range(3)], "DR_WLS", boot_reps=20, seed=1))


# per case, a call whose result once depended on the caller's error
# state, and the result under numpy's default state
CALLER_CASES = {
    "separated logistic": (
        lambda: drmean.fit_logistic_propensity(_view(SEPARATED).design_pi, SEPARATED[1]),
        "NonconvergenceError: fitted probabilities pinned at 0/1: data are separated"),
    "separated estimate_all": (lambda: _estimates(drmean.estimate_all(_view(SEPARATED))), None),
    "extended regression on a tiny pi_hat": (
        lambda: drmean.fit_outcome_ext_reg(drmean.RespondentDesign(_view(TINY_PI)),
                                           TINY_PI[3]).m_hat.tobytes(), None),
    "regression in tiny units": (
        lambda: drmean.fit_outcome_reg(drmean.RespondentDesign(_view(TINY_UNITS)))
        .m_hat.tobytes(), None),
    "summary of a tiny spread": (
        lambda: drmean.summarize(TINY_SPREAD[2], 0.0).variance, 0.0),
    "line test of far-apart contrasts": (_line_test, None),
}


@pytest.mark.parametrize("caller_state", ["raise", "warn"])
@pytest.mark.parametrize("case", CALLER_CASES)
def test_results_do_not_depend_on_the_caller_state(case, caller_state):
    f, want = CALLER_CASES[case]
    default = outcome(f, "default")
    assert want is None or default == want
    assert outcome(f, caller_state) == default


def test_a_raising_caller_state_moves_no_byte():
    # the four scenarios' estimates, a few replications with their summary
    # and a small sensitivity pass, at a size where exact_sum takes its
    # vector route
    sample = drmean.generate_sample(1000, 7)
    cov = np.hstack([sample.Z, sample.X])
    y = np.where(sample.T == 1, sample.Y, np.nan)
    specs = [(0, 1, 2, 3), (4, 5, 6, 7)]

    def run() -> str:
        out = []
        for pi_ok in (True, False):
            for m_ok in (True, False):
                result = drmean.estimate_all(drmean.make_view(sample, pi_ok, m_ok), sample)
                out.append(_estimates(result) + repr(result.diagnostics))
        matrix = drmean.run_sensitivity(
            cov, sample.T, y, [ModelSpec("propensity", c) for c in specs],
            [ModelSpec("outcome", c) for c in specs], "DR_WLS", boot_reps=20, seed=3)
        spec = drmean.ScenarioSpec(n=1000, reps=3, pi_model_correct=False,
                                   m_model_correct=False, base_seed=7)
        return json.dumps(out + [matrix.to_dict(), repr(drmean.run_scenario(spec))])

    with np.errstate(all="raise"):
        raising = run()
    assert raising == run()


# values of the wrong type or range; no large integer, which would be a
# valid replication or draw count
JUNK = st.sampled_from((True, 1.5, -1, 0, "x", None, [], {}, math.nan))
BAD_SEEDS = st.one_of(st.sampled_from((2**64, 2**64 + 3)), JUNK)
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


SIMULATE_CONFIGS = one_bad(
    {
        "base_seed": st.integers(0, 2**64 - 1),
        "reps": st.integers(1, 2),
        "sample_sizes": lists(st.integers(2, 30), 1, 2),
        "scenarios": lists(st.fixed_dictionaries(
            {"pi_correct": st.booleans(), "m_correct": st.booleans()}), 1, 2),
        "reverse_roles": st.booleans(),
        "estimators": lists(st.sampled_from(drmean.ESTIMATOR_NAMES), 1, 4),
    },
    {
        "base_seed": BAD_SEEDS,
        "reps": JUNK,
        "sample_sizes": st.one_of(JUNK, lists(JUNK, 1, 2)),
        "scenarios": st.one_of(JUNK, lists(st.fixed_dictionaries(
            {"pi_correct": JUNK}, optional={"m_correct": st.booleans()}), 1, 2)),
        "reverse_roles": JUNK,
        "estimators": st.one_of(JUNK, lists(st.sampled_from(("NOPE", "OLS", 1)), 1, 3)),
    },
)


def models():
    return lists(st.fixed_dictionaries({"covariates": lists(NAMES, 1, 3)}), 1, 2)


# a model's kind, a removed key, under the names it took
REMOVED_KIND = st.one_of(st.sampled_from(("LOGISTIC_MLE", "INV_LINEAR_UNCONSTRAINED", "WLS")),
                         JUNK)


def bad_models():
    covariates = st.one_of(JUNK, lists(st.sampled_from(("x1", "x9", 3)), 1, 2))
    return st.one_of(JUNK, lists(st.fixed_dictionaries(
        {"covariates": covariates}, optional={"kind": REMOVED_KIND}), 1, 2))


SENSITIVITY_CONFIGS = one_bad(
    {
        "estimator": st.sampled_from(drmean.DR_ESTIMATORS),
        "boot_reps": st.integers(2, 3),
        "seed": st.integers(0, 2**64 - 1),
        "propensity_models": models(),
        "outcome_models": models(),
    },
    {
        "estimator": st.one_of(st.just("OLS"), JUNK),
        "boot_reps": JUNK,
        "seed": BAD_SEEDS,
        "propensity_models": bad_models(),
        "outcome_models": bad_models(),
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
def test_simulate_cli_returns_an_exit_code(workdir, config):
    run_cli(workdir, "simulate", config)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(SENSITIVITY_CONFIGS)
@example({**SENSITIVITY, "seed": -1})
@example({**SENSITIVITY, "seed": 2**64})
@example({**SENSITIVITY, "boot_reps": 1})
def test_sensitivity_cli_returns_an_exit_code(workdir, config):
    run_cli(workdir, "sensitivity", config)


# each propensity kind in a sensitivity config, by test id
REMOVED_KINDS = {"sensitivity kind": "INV_LINEAR_MOMENT",
                 "sensitivity kind INV_LINEAR_ML": "INV_LINEAR_ML",
                 "sensitivity kind LOGISTIC_MLE": "LOGISTIC_MLE"}


@pytest.mark.parametrize("removed", ["moment", "INV_LINEAR_MOMENT", "sensitivity kind",
                                     "density", "likelihood", "INV_LINEAR_ML",
                                     "sensitivity kind INV_LINEAR_ML", "unconstrained_moment",
                                     "select_models", "outcome fit on a view", "LOGISTIC_MLE",
                                     "sensitivity kind LOGISTIC_MLE", "PropensityKind",
                                     "logistic start"])
def test_removed_spellings_are_rejected(workdir, capsys, removed):
    # the constrained moment fit, the density subcommand and the constrained
    # likelihood fit are gone; fit_inverse_linear lost its method, which had
    # one value left, select_models left the public API, each outcome fit
    # takes RespondentDesign(view) in place of a view and _design, a
    # sensitivity spec lost its kind: every propensity spec is logistic, a
    # fit is told apart by its type and phi, not by a PropensityKind, and
    # fit_logistic_propensity always starts from 0
    design, T = np.ones((4, 1)), np.array([1, 1, 1, 0])
    if removed in ("moment", "likelihood", "unconstrained_moment"):
        with pytest.raises(TypeError):
            drmean.fit_inverse_linear(design, T, removed)
        # a two-argument call, the likelihood fit's until it went, is the moment fit
        fit = drmean.fit_inverse_linear(design, T)
        assert isinstance(fit, drmean.InverseLinearFit)
    elif removed == "select_models":
        assert not hasattr(drmean, "select_models")
        assert "select_models" not in drmean.__all__
    elif removed == "PropensityKind":
        assert not hasattr(drmean.linmod, "PropensityKind")
    elif removed == "logistic start":
        with pytest.raises(TypeError):
            drmean.fit_logistic_propensity(design, T, start=np.zeros(1))
    elif removed == "outcome fit on a view":
        view = AnalysisView(design, design, T, np.array([1.0, 2.0, 4.0, np.nan]))
        respondents, pi_hat = drmean.RespondentDesign(view), np.array([0.2, 0.4, 0.6, 0.8])
        fits = {"reg": (), "wls": (pi_hat,), "ext_reg": (pi_hat,), "ipw_nr": (pi_hat,)}
        for kind, args in fits.items():
            fit = getattr(drmean, f"fit_outcome_{kind}")
            message = "^design must be of type RespondentDesign, not AnalysisView$"
            with pytest.raises(InvalidArgumentError, match=message):
                fit(view, *args)
            with pytest.raises(TypeError):
                fit(respondents, *args, _design=respondents)
            fit(respondents, *args)
    elif removed in ("INV_LINEAR_MOMENT", "INV_LINEAR_ML", "LOGISTIC_MLE"):
        with pytest.raises(TypeError):
            ModelSpec("propensity", (0, 1), removed)
    elif removed in REMOVED_KINDS:
        models = [{"covariates": ["x1"], "kind": REMOVED_KINDS[removed]}]
        assert run_cli(workdir, "sensitivity", {**SENSITIVITY, "propensity_models": models}) == 2
        assert "unknown key(s) in propensity_models[0]: kind" in capsys.readouterr().err
    else:
        with pytest.raises(SystemExit) as exit_:  # argparse's usage error
            cli.main(["density", "--data", str(workdir / "data.csv")])
        assert exit_.value.code == 2


# scalar arguments of the wrong type or range, beside small valid counts
ARGUMENTS = st.one_of(
    st.sampled_from((True, False, np.True_, 1.5, math.nan, -1, -(2**70), "x", "OLS",
                     "likelihood", "LOGISTIC_MLE", None, [], [1], [True], ["OLS"], [["OLS"]])),
    st.integers(0, 3),
)
SPEC = {"n": 10, "reps": 1, "pi_model_correct": True, "m_model_correct": False,
        "estimators": ("OLS", "DR_WLS")}


def scalar_targets() -> dict:
    """Per name, (the call on one scalar argument, what the argument is): an
    "int" that a bool must not pass for, a "flag" that only a bool passes
    for, "names" that must not be empty, or "other"."""
    sample = drmean.generate_sample(40, 5)
    cov = np.hstack([sample.Z, sample.X])
    y = np.where(sample.T == 1, sample.Y, np.nan)
    view = drmean.make_view(sample, True, True)
    pz, oz = ModelSpec("propensity", (0, 1, 2, 3)), ModelSpec("outcome", (0, 1, 2, 3))

    def scenario(field):
        return lambda v: drmean.run_scenario(drmean.ScenarioSpec(**{**SPEC, field: v}))

    def model_spec(field):
        base = {"role": "propensity", "covariates": (0,)}
        return lambda v: hash(ModelSpec(**{**base, field: v}))

    def sensitivity(**kwargs):
        return drmean.run_sensitivity(cov, sample.T, y, [pz], [oz], "DR_WLS",
                                      **{"boot_reps": 2, "seed": 0, **kwargs})

    # one task: workers never starts a pool
    one_task = drmean.ScenarioSpec(**SPEC)
    return {
        **{f"ScenarioSpec.{f}": (scenario(f), "int") for f in ("n", "reps", "base_seed")},
        **{f"ScenarioSpec.{f}": (scenario(f), "flag")
           for f in ("pi_model_correct", "m_model_correct", "reverse")},
        "ScenarioSpec.estimators": (scenario("estimators"), "names"),
        "make_view.pi_model_correct": (lambda v: drmean.make_view(sample, v, True), "flag"),
        "make_view.m_model_correct": (lambda v: drmean.make_view(sample, True, v), "flag"),
        **{f"ModelSpec.{f}": (model_spec(f), "other") for f in ("role", "covariates")},
        "run_scenarios.workers": (
            lambda v: drmean.run_scenarios([one_task], workers=v), "int"),
        "generate_sample.n": (lambda v: drmean.generate_sample(v, 1), "int"),
        "generate_sample.seed": (lambda v: drmean.generate_sample(5, v), "int"),
        "run_sensitivity.boot_reps": (lambda v: sensitivity(boot_reps=v), "int"),
        "run_sensitivity.seed": (lambda v: sensitivity(seed=v), "int"),
        "estimate_all.which": (lambda v: drmean.estimate_all(view, sample, v), "other"),
        "summarize.mu_true": (lambda v: drmean.summarize(sample.Y, v), "other"),
    }


SCALAR_TARGETS = scalar_targets()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCALAR_TARGETS)), ARGUMENTS)
# each ran, or raised a TypeError, before the checks of this argument
@example("ScenarioSpec.reps", True)
@example("ScenarioSpec.pi_model_correct", "no")
# each ran: a truthy flag passed for True, and no estimator was summarised
@example("make_view.pi_model_correct", "yes")
@example("make_view.m_model_correct", [1])
@example("ScenarioSpec.estimators", ())
@example("ModelSpec.covariates", (True,))
@example("ScenarioSpec.estimators", (["OLS"],))
@example("estimate_all.which", [["OLS"]])
# each raised TypeError, ValueError or AttributeError
@example("summarize.mu_true", "x")
@example("summarize.mu_true", None)
def test_scalar_arguments_raise_only_drmean_errors(name, value):
    target, kind = SCALAR_TARGETS[name]
    if (kind == "int" and isinstance(value, (bool, np.bool_))
            or kind == "flag" and not isinstance(value, (bool, np.bool_))
            or kind == "names" and isinstance(value, (tuple, list)) and not value):
        with warnings.catch_warnings(), pytest.raises(DrmeanError):
            warnings.simplefilter("error")
            target(value)
    else:
        call(target, value)


# per-unit arrays of the wrong shape, and of the right shape but not numbers
BAD_SHAPES = {
    "short": lambda a: a[:-1],
    "long": lambda a: np.concatenate([a, a[:1]]),
    "column": lambda a: np.expand_dims(a, -1),
    "pairs": lambda a: a[: len(a) // 2 * 2].reshape(len(a) // 2, 2, *a.shape[1:]),
    "0-d": lambda a: np.asarray(a.flat[0]),
    "text": lambda a: np.full(a.shape, "a"),
    "ragged": lambda a: [a[:1].tolist(), a[:2].tolist()],
    "complex": lambda a: a + 1j,
}


def one_bad(f, args, k, **kwargs):
    """The call f(*args, **kwargs) with args[k] passed through a BAD_SHAPES function."""
    return lambda bad: f(*args[:k], bad(args[k]), *args[k + 1:], **kwargs)


def array_targets() -> dict:
    """Per "<function>.<argument>", the call on that argument of the wrong shape."""
    sample = drmean.generate_sample(40, 5)
    view = drmean.make_view(sample, False, True)
    T, y, pi = view.T, view.y_observed, np.full(40, 0.5)
    m_hat = np.where(T == 1, y, 1.0)
    cov = np.hstack([sample.Z, sample.X])
    pz, oz = ModelSpec("propensity", (0, 1, 2, 3)), ModelSpec("outcome", (0, 1, 2, 3))
    base = drmean.fit_logistic_propensity(view.design_pi, T)

    def in_view(f, *fields):
        """f on the view with fields passed through a BAD_SHAPES function."""
        return lambda bad: f(dataclasses.replace(
            view, **{name: bad(getattr(view, name)) for name in fields}))

    targets = {
        **{f"estimate_all.{name}": in_view(lambda v: drmean.estimate_all(v, sample), name)
           for name in ("design_pi", "design_m", "T", "y_observed")},
        "RespondentDesign.T,y_observed": in_view(drmean.RespondentDesign, "T", "y_observed"),
        "RespondentDesign.y_observed": in_view(drmean.RespondentDesign, "y_observed"),
        "mu_ols_identities_check.T,y_observed": in_view(
            drmean.mu_ols_identities_check, "T", "y_observed"),
        **{f"{f.__name__}.pi_hat": one_bad(f, (drmean.RespondentDesign(view), pi), 1)
           for f in (drmean.fit_outcome_wls, drmean.fit_outcome_ext_reg,
                     drmean.fit_outcome_ipw_nr)},
        "fit_logistic_propensity.design": one_bad(drmean.fit_logistic_propensity,
                                                  (view.design_pi, T), 0),
        "fit_logistic_propensity.T": one_bad(drmean.fit_logistic_propensity,
                                             (view.design_pi, T), 1),
        "fit_inverse_linear.T": one_bad(drmean.fit_inverse_linear, (view.design_m, T), 1),
        **{f"fit_extended_propensity.{name}": one_bad(drmean.fit_extended_propensity,
                                                       (base, m_hat - 210.0, T), k)
           for k, name in ((1, "h"), (2, "T"))},
        "weight_diagnostics.pi_hat": one_bad(drmean.linmod.weight_diagnostics, (pi, T), 0),
        "weight_diagnostics.T": one_bad(drmean.linmod.weight_diagnostics, (pi, T), 1),
        "mu_from_regression.m_hat": one_bad(drmean.mu_from_regression, (m_hat,), 0),
        "mu_full.Y": one_bad(drmean.mu_full, (sample.Y,), 0),
        "summarize.values": one_bad(drmean.summarize, (sample.Y, 0.0), 0),
        **{f"run_sensitivity.{name}": one_bad(drmean.run_sensitivity,
                                              (cov, T, y, [pz], [oz], "DR_WLS"), k, boot_reps=2)
           for k, name in ((1, "T"), (2, "Y"))},
        "build_matrix.T": one_bad(drmean.build_matrix, (cov, T, y, [pz], [oz], "DR_WLS"), 1),
        "homogeneity_test.T": one_bad(drmean.homogeneity_test,
                                      (np.ones(1), cov, T, y, pz, [oz], "DR_WLS"), 2,
                                      boot_reps=2),
    }
    values = {"pi_hat": pi, "m_hat": m_hat, "T": T, "Y": y}
    for mu, names in ((drmean.mu_ht, "pi_hat T Y"), (drmean.mu_ipw_pop, "pi_hat T Y"),
                      (drmean.mu_aipw, "pi_hat m_hat T Y"), (drmean.mu_b_dr, "pi_hat m_hat T Y")):
        args = [values[name] for name in names.split()]
        for k, name in enumerate(names.split()):
            targets[f"{mu.__name__}.{name}"] = one_bad(mu, args, k)
    return targets


ARRAY_TARGETS = array_targets()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(ARRAY_TARGETS)), st.sampled_from(sorted(BAD_SHAPES)))
# each raised numpy's IndexError, ValueError or TypeError
@example("weight_diagnostics.pi_hat", "short")
@example("fit_outcome_wls.pi_hat", "short")
@example("fit_outcome_ext_reg.pi_hat", "short")
@example("fit_outcome_ext_reg.pi_hat", "column")
@example("fit_outcome_ipw_nr.pi_hat", "column")
@example("estimate_all.y_observed", "short")
@example("RespondentDesign.T,y_observed", "short")
@example("mu_ols_identities_check.T,y_observed", "short")
@example("mu_full.Y", "pairs")
@example("mu_from_regression.m_hat", "pairs")
@example("summarize.values", "pairs")
# each raised numpy's ValueError
@example("mu_ht.pi_hat", "text")
@example("mu_full.Y", "ragged")
@example("summarize.values", "text")
@example("fit_logistic_propensity.design", "text")
# each warned that the imaginary part was discarded
@example("mu_full.Y", "complex")
@example("fit_logistic_propensity.design", "complex")
def test_arrays_of_the_wrong_shape_raise_only_drmean_errors(name, shape):
    call(ARRAY_TARGETS[name], BAD_SHAPES[shape])


Y_OBSERVED, PI_HAT = "y_observed length must match T", "pi_hat length must match T"
DESIGN_M, RESPONSE = "design_m rows must match T", "response length must match design rows"
PER_ROW = "T and Y must have one entry per row of covariates"
# the InvalidArgumentError message of each call in ARRAY_TARGETS that reaches
# a row cut by a mask, given an argument one unit short.  ndarray.compress
# keeps the first len(mask) rows where indexing by the mask raised
# IndexError, so each of these checks is all that keeps a short T, pi_hat,
# outcome or h from cutting rows silently
SHORT_FAILURES = {
    "RespondentDesign.y_observed": Y_OBSERVED,
    "RespondentDesign.T,y_observed": DESIGN_M,
    "mu_ols_identities_check.T,y_observed": DESIGN_M,
    **{f"{f}.pi_hat": PI_HAT for f in ("fit_outcome_wls", "fit_outcome_ext_reg",
                                       "fit_outcome_ipw_nr", "mu_ht", "mu_ipw_pop",
                                       "mu_aipw", "mu_b_dr", "weight_diagnostics")},
    **{f"{f}.T": PI_HAT for f in ("mu_ht", "mu_ipw_pop", "mu_aipw", "mu_b_dr",
                                  "weight_diagnostics")},
    **{f"{f}.Y": "Y length must match T" for f in ("mu_ht", "mu_ipw_pop", "mu_aipw",
                                                   "mu_b_dr")},
    **{f"{f}.m_hat": "m_hat length must match T" for f in ("mu_aipw", "mu_b_dr")},
    "fit_extended_propensity.h": "h and T must have one entry per unit",
    "fit_extended_propensity.T": "h and T must have one entry per unit",
    "fit_logistic_propensity.T": RESPONSE,
    "fit_inverse_linear.T": RESPONSE,
    "run_sensitivity.T": PER_ROW,
    "run_sensitivity.Y": PER_ROW,
    "build_matrix.T": PER_ROW,
    "homogeneity_test.T": PER_ROW,
}


@pytest.mark.parametrize("name", sorted(SHORT_FAILURES))
def test_one_unit_short_fails_with_its_message(name):
    with warnings.catch_warnings(), pytest.raises(InvalidArgumentError) as info:
        warnings.simplefilter("error")
        ARRAY_TARGETS[name](BAD_SHAPES["short"])
    assert type(info.value) is InvalidArgumentError
    assert str(info.value) == SHORT_FAILURES[name]


WEIGHTED = ("HT", "IPW_POP", "DR_REG", "DR_WLS", "DR_IPW_NR", "DR_EXT_REG", "B_DR_REG",
            "B_DR_EXT")
NO_COLUMN = "design must have at least one column"
# a design with no column, which the fits' Cholesky pivot test met as a
# ValueError, beside the wrong shapes of BAD_SHAPES
VIEW_SHAPES = {**BAD_SHAPES, "no column": lambda a: a[:, :0]}
# (fields of the view passed through VIEW_SHAPES[shape]): OLS's message, the
# weighted estimators' messages, FULL's flag.  estimate_all reads the
# observed range only where y_observed and T have one shape, so a short one
# leaves FULL out of range, and a column of each still gives FULL its range
ESTIMATE_ALL_FAILURES = {
    (("y_observed",), "short"): (
        Y_OBSERVED, {**dict.fromkeys(WEIGHTED, Y_OBSERVED),
                     "HT": "Y length must match T", "IPW_POP": "Y length must match T"},
        "out_of_observed_range"),
    (("T",), "short"): (Y_OBSERVED, dict.fromkeys(WEIGHTED, RESPONSE),
                        "out_of_observed_range"),
    (("T", "y_observed"), "short"): (DESIGN_M, dict.fromkeys(WEIGHTED, RESPONSE), "ok"),
    (("T", "y_observed"), "column"): (
        "T must be a 1-d array of 0/1 response indicators",
        dict.fromkeys(WEIGHTED, "T must be a 1-d array of 0/1 response indicators"), "ok"),
    (("design_pi", "design_m"), "no column"): (NO_COLUMN, dict.fromkeys(WEIGHTED, NO_COLUMN),
                                               "ok"),
}


@pytest.mark.parametrize("fields, shape", ESTIMATE_ALL_FAILURES)
def test_estimate_all_isolates_a_short_unit_array(fields, shape):
    sample = drmean.generate_sample(40, 5)
    view = drmean.make_view(sample, False, True)
    bad = dataclasses.replace(view, **{f: VIEW_SHAPES[shape](getattr(view, f)) for f in fields})
    ols, weighted, full = ESTIMATE_ALL_FAILURES[fields, shape]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = drmean.estimate_all(bad, sample)
    assert result.messages == {name: f"InvalidArgumentError: {message}" for name, message
                               in {"OLS": ols, **weighted}.items()}
    assert result.flags["FULL"] == full


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("p_specs", "o_specs", "fixed_spec", "varying_specs")),
       st.sampled_from((1, [1], "x", None, [None], [[1]], (1, 2))))
# each raised AttributeError: 'int' object has no attribute 'role'
@example("p_specs", [1])
@example("varying_specs", [1, 2])
def test_specs_that_are_not_model_specs_are_rejected(argument, value):
    sample = drmean.generate_sample(40, 5)
    cov, y = np.hstack([sample.Z, sample.X]), np.where(sample.T == 1, sample.Y, np.nan)
    specs = {"p_specs": [ModelSpec("propensity", (0, 1))], "o_specs": [ModelSpec("outcome", (2,))],
             "fixed_spec": ModelSpec("propensity", (0, 1)),
             "varying_specs": (ModelSpec("outcome", (2,)), ModelSpec("outcome", (3,)))}
    specs[argument] = value
    with warnings.catch_warnings(), pytest.raises(DrmeanError):
        warnings.simplefilter("error")
        if argument in ("p_specs", "o_specs"):
            drmean.run_sensitivity(cov, sample.T, y, specs["p_specs"], specs["o_specs"],
                                   "DR_WLS", boot_reps=2)
        else:
            drmean.homogeneity_test(np.array([1.0, 2.0]), cov, sample.T, y,
                                    specs["fixed_spec"], specs["varying_specs"], "DR_WLS",
                                    boot_reps=2)


@pytest.mark.parametrize("value", [[1], 1, None, "x", [None], [[1]],
                                   [drmean.ScenarioSpec(**SPEC), 1]])
@pytest.mark.parametrize("runner", ["run_scenarios", "run_scenario"])
def test_specs_that_are_not_scenario_specs_are_rejected(runner, value):
    # each raised AttributeError or TypeError
    with warnings.catch_warnings(), pytest.raises(
            InvalidArgumentError, match="specs must be a collection of ScenarioSpecs"):
        warnings.simplefilter("error")
        getattr(drmean, runner)(value)


@pytest.mark.parametrize("target", [
    "logistic no column", "inverse linear no column", "regression no column",
    "identities no column", "summarize text", "summarize None", "regression empty",
    "full empty", "logistic 1-d", "logistic nan", "inverse linear nan", "extension inf",
    "matrix 1-d", "matrix role", "matrix no propensity",
])
def test_unchecked_inputs_raise_invalid_argument(target):
    # on a design with no column, the logistic fit, the outcome fit and the
    # identities check escaped as ValueError from a Cholesky pivot test and
    # the inverse-linear fit warned and returned an infinite pi_hat; the
    # two summarize calls escaped as another exception type; the others are
    # checks that no other test reached
    design, T = np.column_stack([np.ones(4), np.arange(4.0)]), np.array([1, 0, 1, 1])
    nan_design = np.where(design == 2.0, np.nan, design)
    cov = np.column_stack([np.arange(4.0), np.arange(4.0) ** 2])
    y = np.array([1.0, np.nan, 2.0, 4.0])
    no_column = AnalysisView(design[:, :0], design[:, :0], T, y)
    p_spec, o_spec = ModelSpec("propensity", (0,)), ModelSpec("outcome", (1,))
    calls = {
        "logistic no column": lambda: drmean.fit_logistic_propensity(design[:, :0], T),
        "inverse linear no column": lambda: drmean.fit_inverse_linear(design[:, :0], T),
        "regression no column": lambda: drmean.fit_outcome_reg(
            drmean.RespondentDesign(no_column)),
        "identities no column": lambda: drmean.mu_ols_identities_check(no_column),
        "summarize text": lambda: drmean.summarize(np.ones(3), "x"),
        "summarize None": lambda: drmean.summarize(np.ones(3), None),
        "regression empty": lambda: drmean.mu_from_regression([]),
        "full empty": lambda: drmean.mu_full([]),
        "logistic 1-d": lambda: drmean.fit_logistic_propensity(design[:, 1], T),
        "logistic nan": lambda: drmean.fit_logistic_propensity(nan_design, T),
        "inverse linear nan": lambda: drmean.fit_inverse_linear(nan_design, T),
        "extension inf": lambda: drmean.fit_extended_propensity(
            drmean.fit_logistic_propensity(design, T), np.array([0.0, np.inf, 1.0, 2.0]), T),
        "matrix 1-d": lambda: drmean.build_matrix(
            cov[:, 0], T, y, [p_spec], [o_spec], "DR_WLS"),
        "matrix role": lambda: drmean.build_matrix(
            cov, T, y, [p_spec], [o_spec, p_spec], "DR_WLS"),
        "matrix no propensity": lambda: drmean.build_matrix(
            cov, T, y, [], [o_spec], "DR_WLS"),
    }
    error, message = {
        **dict.fromkeys(("logistic no column", "inverse linear no column",
                         "regression no column", "identities no column"),
                        (InvalidArgumentError, f"^{NO_COLUMN}$")),
        "regression empty": (UndefinedEstimatorError, "^no fitted values$"),
        "full empty": (UndefinedEstimatorError, "^no outcomes$"),
        "logistic 1-d": (InvalidArgumentError, "^design must be 2-d$"),
        "logistic nan": (InvalidArgumentError, "^design contains non-finite entries$"),
        "inverse linear nan": (InvalidArgumentError, "^design contains non-finite entries$"),
        "extension inf": (InvalidArgumentError, "^h contains non-finite entries$"),
        "matrix 1-d": (InvalidArgumentError, "^covariates must be 2-d$"),
        "matrix role": (InvalidArgumentError, "^o_specs must all have role 'outcome'$"),
        "matrix no propensity": (InvalidArgumentError, "^need at least one spec per role$"),
    }.get(target, (InvalidArgumentError, None))
    with warnings.catch_warnings(), pytest.raises(error, match=message):
        warnings.simplefilter("error")
        calls[target]()


@pytest.mark.parametrize("call", ["estimate_all", "ScenarioSpec"])
@pytest.mark.parametrize("names", ["OLS", "HT", b"OLS"])
def test_bare_string_names_are_not_a_collection(call, names):
    # "OLS" was split into the unknown names O, L and S, and b"OLS" into 79,
    # 76 and 83
    sample = drmean.generate_sample(20, 1)
    view = drmean.make_view(sample, True, True)
    calls = {"estimate_all": lambda: drmean.estimate_all(view, sample, names),
             "ScenarioSpec": lambda: drmean.ScenarioSpec(**{**SPEC, "estimators": names})}
    with pytest.raises(InvalidArgumentError,
                       match="^estimator names must be a collection of strings$"):
        calls[call]()


@pytest.mark.parametrize("target", ["RespondentDesign", "estimate_all", "estimate_all full",
                                    "mu_ols_identities_check", "make_view", "reverse_roles",
                                    "fit_extended_propensity",
                                    "fit_extended_propensity inverse-linear"])
def test_composite_arguments_of_another_type_are_rejected(target):
    # each raised AttributeError on its first attribute read
    sample = drmean.generate_sample(40, 5)
    view = drmean.make_view(sample, True, True)
    calls = {
        "RespondentDesign": (lambda: drmean.RespondentDesign(None), "view", "NoneType"),
        "estimate_all": (lambda: drmean.estimate_all(sample), "view", "FullSample"),
        "estimate_all full": (lambda: drmean.estimate_all(view, view), "full", "AnalysisView"),
        "mu_ols_identities_check": (
            lambda: drmean.mu_ols_identities_check({}), "view", "dict"),
        "make_view": (lambda: drmean.make_view(view, True, True), "sample", "AnalysisView"),
        "reverse_roles": (lambda: drmean.reverse_roles(view), "sample", "AnalysisView"),
        "fit_extended_propensity": (
            lambda: drmean.fit_extended_propensity(None, view.design_pi[:, 1], view.T),
            "base", "NoneType"),
        "fit_extended_propensity inverse-linear": (
            lambda: drmean.fit_extended_propensity(
                drmean.fit_inverse_linear(view.design_m, view.T), view.design_pi[:, 1], view.T),
            "base", "InverseLinearFit"),
    }
    f, name, got = calls[target]
    cls = {"view": "AnalysisView", "full": "FullSample", "sample": "FullSample",
           "base": "PropensityFit"}[name]
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be of type {cls}, not {got}$"):
        f()


RESPONDENTS = "pi_hat must be finite and positive on respondents"
ALL_UNITS = "pi_hat must be finite and positive on all units"
INSIDE = "pi_hat must lie strictly inside (0, 1) on all units"
# (where, pi_hat there): the InvalidWeightError message of fit_outcome_wls,
# fit_outcome_ext_reg, fit_outcome_ipw_nr and the four respondent-term
# estimators mu_ht, mu_ipw_pop, mu_aipw and mu_b_dr, or None where the call
# succeeds.  5e-324 is positive, but its inverse overflows: one rule on
# 1 / pi_hat names it as it names 0, NaN and inf, where fit_outcome_wls and
# fit_outcome_ipw_nr once said "unit weights must be finite and nonnegative"
PI_FAILURES = {
    ("respondent", 0.0): (RESPONDENTS, ALL_UNITS, INSIDE, RESPONDENTS),
    ("respondent", -0.1): (RESPONDENTS, ALL_UNITS, INSIDE, RESPONDENTS),
    ("respondent", math.nan): (RESPONDENTS, ALL_UNITS, INSIDE, RESPONDENTS),
    ("respondent", math.inf): (RESPONDENTS, ALL_UNITS, INSIDE, RESPONDENTS),
    ("respondent", 5e-324): (RESPONDENTS, ALL_UNITS, RESPONDENTS, RESPONDENTS),
    ("respondent", 1.0): (None, None, INSIDE, None),
    ("nonrespondent", 0.0): (None, ALL_UNITS, INSIDE, None),
    ("nonrespondent", -0.1): (None, ALL_UNITS, INSIDE, None),
    ("nonrespondent", math.nan): (None, ALL_UNITS, INSIDE, None),
    ("nonrespondent", math.inf): (None, ALL_UNITS, INSIDE, None),
    ("nonrespondent", 5e-324): (None, ALL_UNITS, None, None),
    ("nonrespondent", 1.0): (None, None, INSIDE, None),
}


@pytest.fixture(scope="module")
def pi_case():
    sample = drmean.generate_sample(200, 3)
    view = drmean.make_view(sample, False, False)
    fit = drmean.fit_logistic_propensity(view.design_pi, view.T)
    m_hat = drmean.fit_outcome_reg(drmean.RespondentDesign(view)).m_hat
    return sample, view, fit, m_hat


@pytest.mark.parametrize("where, value", PI_FAILURES, ids=[f"{w}-{v!r}" for w, v in PI_FAILURES])
def test_pi_hat_failure_table(monkeypatch, pi_case, where, value):
    # every public fit and estimator that reads pi_hat, with one entry of a
    # logistic fit's pi_hat replaced: the class and the whole message of each
    # failure, and estimate_all reports the same message for each estimator
    sample, view, fit, m_hat = pi_case
    pi_hat = fit.pi_hat.copy()
    pi_hat[np.flatnonzero(view.T == (where == "respondent"))[0]] = value
    T, y = view.T, view.y_observed
    design = drmean.RespondentDesign(view)
    wls, ext_reg, ipw_nr, terms = PI_FAILURES[where, value]
    calls = {
        "DR_WLS": (wls, lambda: drmean.fit_outcome_wls(design, pi_hat)),
        "DR_EXT_REG": (ext_reg, lambda: drmean.fit_outcome_ext_reg(design, pi_hat)),
        "DR_IPW_NR": (ipw_nr, lambda: drmean.fit_outcome_ipw_nr(design, pi_hat)),
        "HT": (terms, lambda: drmean.mu_ht(pi_hat, T, y)),
        "IPW_POP": (terms, lambda: drmean.mu_ipw_pop(pi_hat, T, y)),
        "DR_REG": (terms, lambda: drmean.mu_aipw(pi_hat, m_hat, T, y)),
        "B_DR_REG": (terms, lambda: drmean.mu_b_dr(pi_hat, m_hat, T, y)),
    }
    for name, (message, f) in calls.items():
        if message is None:
            f()
        else:
            with pytest.raises(drmean.InvalidWeightError) as info:
                f()
            assert type(info.value) is drmean.InvalidWeightError, name
            assert str(info.value) == message, name
    monkeypatch.setattr(drmean.linmod, "fit_logistic_propensity",
                        lambda *args, **kwargs: dataclasses.replace(fit, pi_hat=pi_hat))
    messages = drmean.estimate_all(view, sample).messages
    assert messages == {name: f"InvalidWeightError: {message}"
                        for name, (message, _) in calls.items() if message is not None}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["respondent", "nonrespondent"])
def test_non_finite_m_hat_is_an_invalid_argument(pi_case, where, value):
    # each public estimator that reads m_hat names a NaN or inf in it, as
    # check_observed names one in Y, where the exact sum of the fitted values
    # once reported UndefinedEstimatorError "an exact sum overflows"
    sample, view, fit, m_hat = pi_case
    m_hat = m_hat.copy()
    m_hat[np.flatnonzero(view.T == (where == "respondent"))[0]] = value
    T, y = view.T, view.y_observed
    calls = {
        "mu_from_regression": lambda: drmean.mu_from_regression(m_hat),
        "mu_aipw": lambda: drmean.mu_aipw(fit.pi_hat, m_hat, T, y),
        "mu_b_dr": lambda: drmean.mu_b_dr(fit.pi_hat, m_hat, T, y),
    }
    for name, f in calls.items():
        with pytest.raises(InvalidArgumentError) as info:
            f()
        assert type(info.value) is InvalidArgumentError, name
        assert str(info.value) == "m_hat contains non-finite values", name


def test_the_non_finite_m_hat_probe():
    with pytest.raises(InvalidArgumentError, match="^m_hat contains non-finite values$"):
        drmean.mu_from_regression(np.array([1.0, np.nan]))
