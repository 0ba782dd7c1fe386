"""Doubly robust estimation of an outcome mean under data missing at random.

The package has three layers:

* model fits (:mod:`drmean.linmod`) and point estimators
  (:mod:`drmean.estimators`) that work on any dataset of covariates,
  response indicators, and partially observed outcomes;
* a benchmark data-generating process (:mod:`drmean.dgp`) and a
  deterministic Monte Carlo harness (:mod:`drmean.mc`) around it;
* sensitivity analysis over grids of candidate model specifications
  (:mod:`drmean.sensitivity`), and a command-line interface
  (:mod:`drmean.cli`).
"""

__version__ = "0.1.0"

from .dgp import (
    AnalysisView,
    FullSample,
    generate_sample,
    make_view,
    reverse_roles,
    transform_covariates,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    DrmeanError,
    InvalidArgumentError,
    InvalidWeightError,
    NoRootError,
    NonconvergenceError,
    SingularDesignError,
    UndefinedEstimatorError,
)
from .estimators import (
    ESTIMATOR_NAMES,
    EstimateSet,
    estimate_all,
    mu_aipw,
    mu_b_dr,
    mu_from_regression,
    mu_full,
    mu_ht,
    mu_ipw_pop,
    mu_ols_identities_check,
)
from .linmod import (
    OutcomeFit,
    PropensityFit,
    WeightDiagnostics,
    fit_extended_propensity,
    fit_inverse_linear,
    fit_logistic_propensity,
    fit_outcome_ext_reg,
    fit_outcome_ipw_nr,
    fit_outcome_reg,
    fit_outcome_wls,
)
from .mc import (
    EstimatorSummary,
    MCSummary,
    ScenarioSpec,
    run_scenario,
    run_scenarios,
    summarize,
)
from .sensitivity import (
    DR_ESTIMATORS,
    HomogeneityResult,
    ModelSpec,
    SensitivityMatrix,
    build_matrix,
    homogeneity_test,
    run_sensitivity,
    select_models,
)

__all__ = [
    "AnalysisView",
    "ConfigError",
    "DataError",
    "DegenerateInputError",
    "DrmeanError",
    "DR_ESTIMATORS",
    "ESTIMATOR_NAMES",
    "EstimateSet",
    "EstimatorSummary",
    "FullSample",
    "HomogeneityResult",
    "InvalidArgumentError",
    "InvalidWeightError",
    "MCSummary",
    "ModelSpec",
    "NoRootError",
    "NonconvergenceError",
    "OutcomeFit",
    "PropensityFit",
    "ScenarioSpec",
    "SensitivityMatrix",
    "SingularDesignError",
    "UndefinedEstimatorError",
    "WeightDiagnostics",
    "build_matrix",
    "estimate_all",
    "fit_extended_propensity",
    "fit_inverse_linear",
    "fit_logistic_propensity",
    "fit_outcome_ext_reg",
    "fit_outcome_ipw_nr",
    "fit_outcome_reg",
    "fit_outcome_wls",
    "generate_sample",
    "homogeneity_test",
    "make_view",
    "mu_aipw",
    "mu_b_dr",
    "mu_from_regression",
    "mu_full",
    "mu_ht",
    "mu_ipw_pop",
    "mu_ols_identities_check",
    "reverse_roles",
    "run_scenario",
    "run_scenarios",
    "run_sensitivity",
    "select_models",
    "summarize",
    "transform_covariates",
]
