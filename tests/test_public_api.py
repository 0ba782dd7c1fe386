"""Every public entry point returns or raises a DrmeanError on finite input.

A derandomized hypothesis search over small samples whose columns and
outcomes span most of the float range: n from 2 to 60, covariate columns
scaled by up to 1e+-200 (some of them constant), outcomes scaled by up to
1e+-300, and samples in which every unit responded.  A call may fail, but
only with the package's own errors: it never warns and never raises an
exception of another type.  The same holds for the command line: fed
configs whose values are bools, floats, strings, null, negatives and
seeds beyond 64 bits, it returns an exit code of 0 to 3.  The scalar
arguments of the library (counts, seeds, flags, names, methods, a
summary's truth and a selection's line tests), fed bools, floats,
strings, lists, None and negative numbers, raise nothing but
DrmeanErrors; a bool never passes for a count nor anything else for a
flag, and a scenario never runs without an estimator.  So do per-unit
arrays (and start coefficients and line spreads) of the wrong shape (one
entry short or long, a column, 2-d or 0-d) or of text, complex values or
ragged lists, and scenario and sensitivity specs of another type are
always rejected, as are the spellings of removed features.
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
from drmean import AnalysisView, DrmeanError, InvalidArgumentError, ModelSpec, cli

PROPENSITY_KINDS = ("LOGISTIC_MLE", "INV_LINEAR_UNCONSTRAINED")


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


# [1, 1.2e62] on every row: a constant column far from unit scale, on which
# the exact sums of a removed likelihood fit's criterion overflowed
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
    for method in drmean.linmod.INV_LINEAR_METHODS:
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


# one line test's result, for select_models
LINE_TEST = drmean.HomogeneityResult(0.5, 1.0, 1, 20, 0, False)


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
def test_simulate_cli_returns_an_exit_code(workdir, config):
    run_cli(workdir, "simulate", config)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(SENSITIVITY_CONFIGS)
@example({**SENSITIVITY, "seed": -1})
@example({**SENSITIVITY, "seed": 2**64})
@example({**SENSITIVITY, "boot_reps": 1})
def test_sensitivity_cli_returns_an_exit_code(workdir, config):
    run_cli(workdir, "sensitivity", config)


# each removed propensity kind in a sensitivity config, by test id
REMOVED_KINDS = {"sensitivity kind": "INV_LINEAR_MOMENT",
                 "sensitivity kind INV_LINEAR_ML": "INV_LINEAR_ML"}


@pytest.mark.parametrize("removed", ["moment", "INV_LINEAR_MOMENT", "sensitivity kind",
                                     "density", "likelihood", "INV_LINEAR_ML",
                                     "sensitivity kind INV_LINEAR_ML"])
def test_removed_spellings_are_rejected(workdir, removed):
    # the constrained moment fit, the density subcommand and the constrained
    # likelihood fit are gone
    design, T = np.ones((4, 1)), np.array([1, 1, 1, 0])
    if removed in ("moment", "likelihood"):
        with pytest.raises(InvalidArgumentError, match=f"unknown method '{removed}'"):
            drmean.fit_inverse_linear(design, T, removed)
        if removed == "likelihood":  # it was the default, and method has none now
            with pytest.raises(TypeError):
                drmean.fit_inverse_linear(design, T)
    elif removed in ("INV_LINEAR_MOMENT", "INV_LINEAR_ML"):
        with pytest.raises(InvalidArgumentError, match="unknown propensity kind"):
            ModelSpec("propensity", (0,), removed)
    elif removed in REMOVED_KINDS:
        models = [{"covariates": ["x1"], "kind": REMOVED_KINDS[removed]}]
        assert run_cli(workdir, "sensitivity", {**SENSITIVITY, "propensity_models": models}) == 2
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
        base = {"role": "propensity", "covariates": (0,), "kind": None}
        return lambda v: hash(ModelSpec(**{**base, field: v}))

    def sensitivity(**kwargs):
        return drmean.run_sensitivity(cov, sample.T, y, [pz], [oz], "DR_WLS",
                                      **{"boot_reps": 2, "seed": 0, **kwargs})

    # one task: workers never starts a pool
    one_task = drmean.ScenarioSpec(**SPEC)
    line = [LINE_TEST, LINE_TEST]
    return {
        **{f"ScenarioSpec.{f}": (scenario(f), "int") for f in ("n", "reps", "base_seed")},
        **{f"ScenarioSpec.{f}": (scenario(f), "flag")
           for f in ("pi_model_correct", "m_model_correct", "reverse")},
        "ScenarioSpec.estimators": (scenario("estimators"), "names"),
        "make_view.pi_model_correct": (lambda v: drmean.make_view(sample, v, True), "flag"),
        "make_view.m_model_correct": (lambda v: drmean.make_view(sample, True, v), "flag"),
        **{f"ModelSpec.{f}": (model_spec(f), "other") for f in ("role", "covariates", "kind")},
        "run_scenarios.workers": (
            lambda v: drmean.run_scenarios([one_task], workers=v), "int"),
        "generate_sample.n": (lambda v: drmean.generate_sample(v, 1), "int"),
        "generate_sample.seed": (lambda v: drmean.generate_sample(5, v), "int"),
        "run_sensitivity.boot_reps": (lambda v: sensitivity(boot_reps=v), "int"),
        "run_sensitivity.seed": (lambda v: sensitivity(seed=v), "int"),
        "estimate_all.which": (lambda v: drmean.estimate_all(view, sample, v), "other"),
        "fit_inverse_linear.method": (
            lambda v: drmean.fit_inverse_linear(view.design_pi, view.T, v), "other"),
        "summarize.mu_true": (lambda v: drmean.summarize(sample.Y, v), "other"),
        "select_models.row_tests": (
            lambda v: drmean.select_models(v, line, np.ones(2), np.ones(2)), "other"),
        "select_models.col_tests": (
            lambda v: drmean.select_models(line, v, np.ones(2), np.ones(2)), "other"),
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
@example("ModelSpec.kind", [1])
@example("ScenarioSpec.estimators", (["OLS"],))
@example("estimate_all.which", [["OLS"]])
@example("fit_inverse_linear.method", [1])
# each raised TypeError, ValueError or AttributeError
@example("summarize.mu_true", "x")
@example("summarize.mu_true", None)
@example("select_models.row_tests", [])
@example("select_models.col_tests", [1])
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
    spread = np.array([1.0, 0.5, 2.0, 0.5])

    def in_view(f, *fields):
        """f on the view with fields passed through a BAD_SHAPES function."""
        return lambda bad: f(dataclasses.replace(
            view, **{name: bad(getattr(view, name)) for name in fields}))

    targets = {
        **{f"estimate_all.{name}": in_view(lambda v: drmean.estimate_all(v, sample), name)
           for name in ("design_pi", "design_m", "T", "y_observed")},
        **{f"{f.__name__}.T,y_observed": in_view(f, "T", "y_observed")
           for f in (drmean.fit_outcome_reg, drmean.mu_ols_identities_check)},
        **{f"{f.__name__}.pi_hat": one_bad(f, (view, pi), 1)
           for f in (drmean.fit_outcome_wls, drmean.fit_outcome_ext_reg,
                     drmean.fit_outcome_ipw_nr)},
        "fit_logistic_propensity.design": one_bad(drmean.fit_logistic_propensity,
                                                  (view.design_pi, T), 0),
        "fit_logistic_propensity.start": one_bad(
            drmean.fit_logistic_propensity, (view.design_pi, T, np.zeros(5)), 2),
        **{f"select_models.{name}": one_bad(
            drmean.select_models, ([LINE_TEST] * 4, [LINE_TEST] * 4, spread, spread), k)
           for k, name in ((2, "row_spread"), (3, "col_spread"))},
        "weight_diagnostics.pi_hat": one_bad(drmean.linmod.weight_diagnostics, (pi, T), 0),
        "weight_diagnostics.T": one_bad(drmean.linmod.weight_diagnostics, (pi, T), 1),
        "mu_from_regression.m_hat": one_bad(drmean.mu_from_regression, (m_hat,), 0),
        "mu_full.Y": one_bad(drmean.mu_full, (sample.Y,), 0),
        "summarize.values": one_bad(drmean.summarize, (sample.Y, 0.0), 0),
        **{f"run_sensitivity.{name}": one_bad(drmean.run_sensitivity,
                                              (cov, T, y, [pz], [oz], "DR_WLS"), k, boot_reps=2)
           for k, name in ((1, "T"), (2, "Y"))},
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
@example("fit_outcome_reg.T,y_observed", "short")
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
# each raised numpy's ValueError or IndexError
@example("fit_logistic_propensity.start", "text")
@example("select_models.row_spread", "short")
@example("select_models.col_spread", "pairs")
def test_arrays_of_the_wrong_shape_raise_only_drmean_errors(name, shape):
    call(ARRAY_TARGETS[name], BAD_SHAPES[shape])


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
    "logistic start", "summarize text", "summarize None", "select empty", "select spreads",
    "select non-results",
])
def test_unchecked_inputs_raise_invalid_argument(target):
    # each escaped as ValueError, TypeError, IndexError or AttributeError
    design, T = np.column_stack([np.ones(4), np.arange(4.0)]), np.array([1, 0, 1, 1])
    calls = {
        "logistic start": lambda: drmean.fit_logistic_propensity(design, T, start="ab"),
        "summarize text": lambda: drmean.summarize(np.ones(3), "x"),
        "summarize None": lambda: drmean.summarize(np.ones(3), None),
        "select empty": lambda: drmean.select_models([], [], np.array([]), np.array([])),
        "select spreads": lambda: drmean.select_models(
            [LINE_TEST], [LINE_TEST], np.ones(2), np.ones(1)),
        "select non-results": lambda: drmean.select_models(
            [1], [1], np.ones(1), np.ones(1)),
    }
    with warnings.catch_warnings(), pytest.raises(InvalidArgumentError):
        warnings.simplefilter("error")
        calls[target]()
