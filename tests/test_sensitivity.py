import json
import math

import numpy as np
import pytest

from drmean import errors, linmod
from drmean import sensitivity as sens
from drmean.dgp import generate_sample, make_view
from drmean.errors import InvalidArgumentError, NonconvergenceError, SingularDesignError
from drmean.estimators import estimate_all

PZ = sens.ModelSpec(role="propensity", covariates=(0, 1, 2, 3))
PX = sens.ModelSpec(role="propensity", covariates=(4, 5, 6, 7))
OZ = sens.ModelSpec(role="outcome", covariates=(0, 1, 2, 3))
OX = sens.ModelSpec(role="outcome", covariates=(4, 5, 6, 7))


@pytest.fixture(scope="module")
def data600():
    s = generate_sample(600, 314)
    cov = np.hstack([s.Z, s.X])  # columns 0-3 latent, 4-7 transformed
    y = np.where(s.T == 1, s.Y, np.nan)
    return s, cov, s.T, y


class TestModelSpec:
    def test_bad_role(self):
        with pytest.raises(InvalidArgumentError):
            sens.ModelSpec(role="treatment", covariates=(0,))

    def test_empty_covariates(self):
        with pytest.raises(InvalidArgumentError):
            sens.ModelSpec(role="outcome", covariates=())

    def test_negative_index(self):
        with pytest.raises(InvalidArgumentError):
            sens.ModelSpec(role="outcome", covariates=(0, -1))

    @pytest.mark.parametrize("kind", ["REG", "WLS", "EXT_REG", "IPW_NR"])
    def test_outcome_kind_rejected(self, kind):
        # the estimator fixes the outcome fit: a kind could only restate it
        with pytest.raises(InvalidArgumentError, match="outcome model takes no kind"):
            sens.ModelSpec(role="outcome", covariates=(0,), kind=kind)

    def test_unknown_propensity_kind(self):
        with pytest.raises(InvalidArgumentError):
            sens.ModelSpec(role="propensity", covariates=(0,), kind="PROBIT")

    def test_bool_index_rejected(self):
        # (True,) read column 1
        with pytest.raises(InvalidArgumentError, match="must be an integer >= 0"):
            sens.ModelSpec(role="outcome", covariates=(True,))

    @pytest.mark.parametrize("role", ["propensity", "outcome"])
    @pytest.mark.parametrize("kind", [[1], 1, {"LOGISTIC_MLE"}])
    def test_non_string_kind_rejected(self, role, kind):
        # a list kind raised TypeError: unhashable type: 'list'
        with pytest.raises(InvalidArgumentError, match="kind must be a string"):
            sens.ModelSpec(role=role, covariates=(0,), kind=kind)

    def test_every_kind_has_its_fit(self):
        assert sens._PROPENSITY_METHODS == {
            "LOGISTIC_MLE": None,
            "INV_LINEAR_UNCONSTRAINED": "unconstrained_moment",
        }

    @pytest.mark.parametrize(
        "covariates",
        [(math.nan,), ("a",), (None,), (1.0, 2.0), (0, 1.5), 3, "01"],
        ids=["nan", "str", "none", "floats", "fraction", "scalar", "string"],
    )
    def test_non_integer_indices_rejected(self, covariates):
        with pytest.raises(InvalidArgumentError,
                           match="must be (an integer|a tuple of integers)"):
            sens.ModelSpec(role="outcome", covariates=covariates)

    @pytest.mark.parametrize("covariates", [[0, 3], tuple(np.arange(0, 4, 3)), range(0, 4, 3)],
                             ids=["list", "numpy", "range"])
    def test_indices_stored_as_a_tuple_of_ints(self, covariates):
        spec = sens.ModelSpec(role="outcome", covariates=covariates)
        assert spec.covariates == (0, 3)
        assert all(type(c) is int for c in spec.covariates)
        assert hash(spec) == hash(sens.ModelSpec(role="outcome", covariates=(0, 3)))
        assert json.dumps(spec.covariates) == "[0, 3]"


class TestBuildMatrix:
    @pytest.mark.parametrize("estimator", sens.DR_ESTIMATORS)
    @pytest.mark.parametrize(
        "p_spec, o_spec", [(PX, OX), (PZ, OZ), (PZ, OX)], ids=["X/X", "Z/Z", "Z/X"]
    )
    def test_single_cell_matches_estimate_all(self, data600, p_spec, o_spec, estimator):
        # one definition per estimator: a cell and estimate_all agree bitwise
        s, cov, T, y = data600
        estimates, messages = sens.build_matrix(cov, T, y, [p_spec], [o_spec], estimator)
        view = make_view(s, pi_model_correct=p_spec is PZ, m_model_correct=o_spec is OZ)
        want = estimate_all(view, None, (estimator,)).values[estimator]
        assert estimates.shape == (1, 1)
        assert estimates[0, 0] == want
        assert messages == {}

    def test_two_by_two_all_finite(self, data600):
        _, cov, T, y = data600
        estimates, messages = sens.build_matrix(
            cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS"
        )
        assert estimates.shape == (2, 2)
        assert np.all(np.isfinite(estimates))
        assert messages == {}

    def test_cells_of_one_outcome_design_share_its_fits(self, monkeypatch, data600):
        # 2 x 2 cells: one respondent design and one unweighted fit per
        # outcome spec, one weighted fit per cell
        _, cov, T, y = data600
        calls = []
        for name in ("RespondentDesign", "fit_outcome_reg", "fit_outcome_wls"):
            real = getattr(linmod, name)
            monkeypatch.setattr(linmod, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        for estimator, weighted in (("DR_REG", "fit_outcome_reg"),
                                    ("DR_WLS", "fit_outcome_wls")):
            calls.clear()
            estimates, _ = sens.build_matrix(cov, T, y, [PZ, PX], [OZ, OX], estimator)
            assert np.all(np.isfinite(estimates))
            assert calls.count("RespondentDesign") == 2
            assert calls.count(weighted) == (2 if weighted == "fit_outcome_reg" else 4)

    def test_cell_failure_is_isolated(self, data600):
        _, cov, T, y = data600
        pz_inv = sens.ModelSpec(
            role="propensity", covariates=(0, 1, 2, 3), kind="INV_LINEAR_UNCONSTRAINED"
        )
        estimates, messages = sens.build_matrix(
            cov, T, y, [PZ, pz_inv], [OZ], "B_DR_EXT"
        )
        assert np.isfinite(estimates[0, 0])
        assert math.isnan(estimates[1, 0])
        assert "logistic" in messages[(1, 0)]

    def test_estimator_must_be_doubly_robust(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError):
            sens.build_matrix(cov, T, y, [PZ], [OZ], "OLS")

    def test_role_mismatch_rejected(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError):
            sens.build_matrix(cov, T, y, [OZ], [OZ], "DR_WLS")

    def test_outcome_kind_conflict_rejected(self, data600):
        # the estimator fixes the outcome fit, so an outcome spec takes no kind
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError):
            bad = sens.ModelSpec(role="outcome", covariates=(0,), kind="WLS")
            sens.build_matrix(cov, T, y, [PZ], [bad], "DR_REG")

    def test_out_of_range_index_rejected(self, data600):
        _, cov, T, y = data600
        far = sens.ModelSpec(role="outcome", covariates=(0, 99))
        with pytest.raises(InvalidArgumentError):
            sens.build_matrix(cov, T, y, [PZ], [far], "DR_WLS")

    def test_data_validation(self):
        cov = np.ones((4, 2))
        with pytest.raises(InvalidArgumentError):
            sens.build_matrix(cov, np.array([1, 0, 2, 0]), np.ones(4), [PZ], [OZ],
                              "DR_WLS")
        with pytest.raises(InvalidArgumentError):
            sens.build_matrix(cov, np.array([1, 0, 1, 0]), np.full(4, np.nan),
                              [sens.ModelSpec(role="propensity", covariates=(0,))],
                              [sens.ModelSpec(role="outcome", covariates=(0,))],
                              "DR_WLS")


class TestHomogeneity:
    def test_detects_wrong_propensity_row(self, data600):
        # row holding the misspecified propensity model fixed: its two
        # outcome models disagree, and the test should reject
        _, cov, T, y = data600
        estimates, _ = sens.build_matrix(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS")
        right = sens.homogeneity_test(
            estimates[0, :], cov, T, y, PZ, (OZ, OX), "DR_WLS",
            boot_reps=150, seed=11,
        )
        wrong = sens.homogeneity_test(
            estimates[1, :], cov, T, y, PX, (OZ, OX), "DR_WLS",
            boot_reps=150, seed=11,
        )
        assert right.p_value > 0.2
        assert wrong.p_value < 0.02
        assert right.n_boot_used > 100
        assert wrong.df == 1

    def test_reproducible_under_seed(self, data600):
        _, cov, T, y = data600
        line = np.array([210.3, 209.1])
        a = sens.homogeneity_test(line, cov, T, y, PZ, (OZ, OX), "DR_WLS",
                                  boot_reps=60, seed=42)
        b = sens.homogeneity_test(line, cov, T, y, PZ, (OZ, OX), "DR_WLS",
                                  boot_reps=60, seed=42)
        c = sens.homogeneity_test(line, cov, T, y, PZ, (OZ, OX), "DR_WLS",
                                  boot_reps=60, seed=43)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.statistic != c.statistic

    def test_spec_order_does_not_matter(self, data600):
        _, cov, T, y = data600
        estimates, _ = sens.build_matrix(cov, T, y, [PZ], [OZ, OX], "DR_WLS")
        fwd = sens.homogeneity_test(estimates[0, :], cov, T, y, PZ, (OZ, OX),
                                    "DR_WLS", boot_reps=60, seed=9)
        rev = sens.homogeneity_test(estimates[0, ::-1], cov, T, y, PZ, (OX, OZ),
                                    "DR_WLS", boot_reps=60, seed=9)
        assert np.isclose(fwd.statistic, rev.statistic, rtol=1e-12)
        assert np.isclose(fwd.p_value, rev.p_value, rtol=1e-12)

    @pytest.mark.parametrize("fixed, estimator, message", [
        (("propensity", (0,)), "NOPE", "doubly robust"),
        (("outcome", (0,), "WLS"), "DR_REG", "outcome model takes no kind"),
    ], ids=["estimator", "outcome-kind"])
    def test_empty_line_checks_its_estimator(self, data600, fixed, estimator, message):
        # with no varying specs neither was checked: p = nan, "empty line"
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=message):
            sens.homogeneity_test(np.array([]), cov, T, y, sens.ModelSpec(*fixed), (),
                                  estimator)

    def test_empty_line_is_untestable(self, data600):
        _, cov, T, y = data600
        out = sens.homogeneity_test(np.array([]), cov, T, y, sens.ModelSpec("propensity", (0,)),
                                    (), "DR_WLS")
        assert math.isnan(out.p_value)
        assert out.note == "empty line"

    def test_single_spec_line_trivially_homogeneous(self, data600):
        _, cov, T, y = data600
        out = sens.homogeneity_test(np.array([210.0]), cov, T, y, PZ, (OZ,),
                                    "DR_WLS", boot_reps=30, seed=0)
        assert out.p_value == 1.0
        assert out.statistic == 0.0
        assert out.n_boot_used == 0
        assert "single-cell" in out.note

    def test_duplicate_specs_give_exact_unit_p(self, data600):
        _, cov, T, y = data600
        estimates, _ = sens.build_matrix(cov, T, y, [PZ], [OZ, OZ], "DR_WLS")
        assert estimates[0, 0] == estimates[0, 1]
        out = sens.homogeneity_test(estimates[0, :], cov, T, y, PZ, (OZ, OZ),
                                    "DR_WLS", boot_reps=25, seed=1)
        assert out.p_value == 1.0
        assert out.statistic == 0.0
        assert out.singular
        assert "identically zero" in out.note

    def test_failed_cells_dropped_from_line(self, data600):
        _, cov, T, y = data600
        out = sens.homogeneity_test(np.array([210.0, np.nan]), cov, T, y, PZ,
                                    (OZ, OX), "DR_WLS", boot_reps=25, seed=0)
        assert "dropped 1" in out.note
        assert out.p_value == 1.0

    def test_line_length_must_match(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError):
            sens.homogeneity_test(np.array([210.0]), cov, T, y, PZ, (OZ, OX),
                                  "DR_WLS")

    def test_varying_role_must_oppose_fixed(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError):
            sens.homogeneity_test(np.array([210.0]), cov, T, y, PZ, (PX,),
                                  "DR_WLS")

    def test_boot_reps_floor(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                  (OZ, OX), "DR_WLS", boot_reps=1)

    @pytest.mark.parametrize("name, value", [("seed", 1.5), ("boot_reps", 20.5),
                                             ("seed", "1")])
    def test_non_integer_arguments_rejected(self, data600, name, value):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                  (OZ, OX), "DR_WLS", **{name: value})

    def test_seed_beyond_64_bits_rejected(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=r"seed must be in \[0, 2\*\*64\)"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                  (OZ, OX), "DR_WLS", seed=2**64)


@pytest.fixture
def logistic_fits(monkeypatch):
    """Design row counts of every logistic propensity fit made."""
    fits = []
    fit = linmod.fit_logistic_propensity
    monkeypatch.setattr(
        linmod, "fit_logistic_propensity",
        lambda design, T, start=None: fits.append(len(design)) or fit(design, T, start),
    )
    return fits


class TestSharedPropensityFits:
    def test_line_fits_fixed_propensity_once_per_draw(self, data600, logistic_fits):
        # once per draw, plus the full-sample fit that the draw fits start from
        _, cov, T, y = data600
        out = sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                    (OZ, OX), "DR_WLS", boot_reps=25, seed=3)
        assert out.n_boot_used == 25
        assert len(logistic_fits) == 25 + 1

    def test_matrix_fits_each_propensity_once(self, data600, logistic_fits):
        _, cov, T, y = data600
        o_third = sens.ModelSpec(role="outcome", covariates=(0, 5))
        estimates, messages = sens.build_matrix(
            cov, T, y, [PZ, PX], [OZ, OX, o_third], "DR_WLS"
        )
        assert np.all(np.isfinite(estimates)) and messages == {}
        assert len(logistic_fits) == 2

    def test_equivalent_propensity_specs_share_one_fit(self, data600, logistic_fits):
        # no kind and an explicit LOGISTIC_MLE name one model on one design:
        # one full-sample fit and one fit per draw serve both rows
        _, cov, T, y = data600
        p_named = sens.ModelSpec(role="propensity", covariates=PZ.covariates,
                                 kind="LOGISTIC_MLE")
        out = sens.run_sensitivity(cov, T, y, [PZ, p_named], [OZ, OX], "DR_WLS",
                                   boot_reps=25, seed=2)
        assert len(logistic_fits) == 25 + 1
        assert out.estimates[0].tobytes() == out.estimates[1].tobytes()
        assert out.row_tests[0].n_boot_used == 25
        assert repr(out.row_tests[0]) == repr(out.row_tests[1])

    def test_equivalent_propensity_specs_share_one_outcome_fit(self, data600, monkeypatch):
        # the two rows also share each weighted outcome fit: one per outcome
        # spec on the full sample and in each draw, where each row fitted its own
        _, cov, T, y = data600
        fits = []
        fit = linmod.fit_outcome_wls
        monkeypatch.setattr(linmod, "fit_outcome_wls",
                            lambda *a, **k: fits.append(1) or fit(*a, **k))
        p_named = sens.ModelSpec(role="propensity", covariates=PZ.covariates,
                                 kind="LOGISTIC_MLE")
        out = sens.run_sensitivity(cov, T, y, [PZ, p_named], [OZ, OX], "DR_WLS",
                                   boot_reps=25, seed=2)
        assert out.estimates[0].tobytes() == out.estimates[1].tobytes()
        assert len(fits) == (25 + 1) * 2

    def test_singular_propensity_row(self, data600, logistic_fits):
        # the failed fit is made once and reported by every cell of its row
        _, cov, T, y = data600
        p_singular = sens.ModelSpec(role="propensity", covariates=(0, 0))
        estimates, messages = sens.build_matrix(
            cov, T, y, [PZ, p_singular], [OZ, OX], "DR_WLS"
        )
        assert len(logistic_fits) == 2
        assert np.all(np.isfinite(estimates[0])) and np.all(np.isnan(estimates[1]))
        assert sorted(messages) == [(1, 0), (1, 1)]
        assert messages[(1, 0)] == messages[(1, 1)]
        assert messages[(1, 0)].startswith(SingularDesignError.__name__ + ":")
        out = sens.run_sensitivity(cov, T, y, [PZ, p_singular], [OZ, OX], "DR_WLS",
                                   boot_reps=25, seed=0)
        assert out.cell_messages == messages
        assert math.isnan(out.row_tests[1].p_value)
        assert out.row_tests[1].n_boot_used == 0
        assert out.row_tests[1].note.startswith("dropped 2 failed cell(s)")
        assert all(t.note.startswith("dropped 1 failed cell(s)") for t in out.col_tests)


@pytest.fixture(scope="module")
def result(data600):
    _, cov, T, y = data600
    return sens.run_sensitivity(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                boot_reps=60, seed=11)


class TestRunSensitivity:

    def test_shapes_and_selection(self, result):
        assert result.estimates.shape == (2, 2)
        assert len(result.row_tests) == 2
        assert len(result.col_tests) == 2
        assert result.selection == (0, 0)

    def test_correct_models_preferred(self, result):
        assert result.row_tests[0].p_value > result.row_tests[1].p_value
        assert result.col_tests[0].p_value > result.col_tests[1].p_value

    def test_spreads(self, result):
        want_row0 = abs(result.estimates[0, 0] - result.estimates[0, 1])
        assert np.isclose(result.row_spread[0], want_row0, rtol=1e-15)

    def test_to_dict_round_trips_through_json(self, result):
        payload = result.to_dict()
        blob = json.dumps(payload, sort_keys=True)
        back = json.loads(blob)
        assert back["selection"] == {"propensity": 0, "outcome": 0}
        assert len(back["estimates"]) == 2
        assert back["estimator"] == "DR_WLS"
        assert back["boot_reps"] == 60

    @pytest.mark.parametrize("name, value", [("seed", 1.5), ("boot_reps", 20.5),
                                             ("boot_reps", None)])
    def test_non_integer_arguments_rejected(self, data600, name, value):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer"):
            sens.run_sensitivity(cov, T, y, [PZ], [OZ, OX], "DR_WLS",
                                 **{"boot_reps": 20, "seed": 1, name: value})

    @pytest.mark.parametrize(
        "settings, message",
        [({"seed": -1}, r"seed must be in \[0, 2\*\*64\)"),
         ({"seed": 2**64}, r"seed must be in \[0, 2\*\*64\)"),
         ({"boot_reps": 1}, "boot_reps must be an integer >= 2")],
        ids=["negative-seed", "seed-2**64", "one-draw"],
    )
    def test_draw_settings_checked_before_any_fit(self, data600, logistic_fits,
                                                  settings, message):
        # these failed only after build_matrix had fitted every cell
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=message):
            sens.run_sensitivity(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                 **{"boot_reps": 20, "seed": 1, **settings})
        assert logistic_fits == []

    def test_inputs_checked_once(self, data600, monkeypatch):
        # one spec check and one data and index check for the whole run
        _, cov, T, y = data600
        calls = []
        for name in ("_validate_specs", "_check_draws"):
            real = getattr(sens, name)
            monkeypatch.setattr(sens, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        sample_init = sens._Sample.__init__
        monkeypatch.setattr(sens._Sample, "__init__", lambda self, *a:
                            calls.append("_Sample") or sample_init(self, *a))
        sens.run_sensitivity(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS", boot_reps=5, seed=1)
        assert sorted(calls) == ["_Sample", "_check_draws", "_validate_specs"]

    def test_non_finite_used_covariate_rejected_before_any_fit(self, logistic_fits):
        # every cell failed with "design contains non-finite entries"
        sample = generate_sample(100, 1)
        cov = np.hstack([sample.Z, sample.X])
        cov[3, 0] = np.inf
        y = np.where(sample.T == 1, sample.Y, np.nan)
        with pytest.raises(InvalidArgumentError, match="covariate column 0 holds non-finite"):
            sens.run_sensitivity(cov, sample.T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                 boot_reps=2, seed=1)
        assert logistic_fits == []

    def test_infinite_respondent_outcome_named_as_in_estimate_all(self, logistic_fits):
        # _util.check_observed is the one check of respondent outcomes, so
        # the sensitivity pass names the fault as estimate_all does
        sample = generate_sample(100, 1)
        cov = np.hstack([sample.Z, sample.X])
        y = np.where(sample.T == 1, sample.Y, np.nan)
        y[np.flatnonzero(sample.T == 1)[0]] = np.inf
        with pytest.raises(InvalidArgumentError,
                           match="^observed outcomes contain non-finite values$"):
            sens.run_sensitivity(cov, sample.T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                 boot_reps=2, seed=1)
        assert logistic_fits == []

    def test_non_finite_unused_covariate_allowed(self):
        sample = generate_sample(100, 1)
        cov = np.hstack([sample.Z, sample.X])
        y = np.where(sample.T == 1, sample.Y, np.nan)
        want = sens.run_sensitivity(cov, sample.T, y, [PX], [OX], "DR_WLS", boot_reps=2, seed=1)
        cov[3, 0] = np.inf
        got = sens.run_sensitivity(cov, sample.T, y, [PX], [OX], "DR_WLS", boot_reps=2, seed=1)
        assert got.to_dict() == want.to_dict()
        assert np.isfinite(got.estimates).all()

    @pytest.mark.parametrize("cov", [np.full((100, 8), "a"), [[0.0] * 8] * 99 + [[0.0]]],
                             ids=["strings", "ragged"])
    def test_non_numeric_covariates_rejected(self, cov):
        # numpy's ValueError escaped
        sample = generate_sample(100, 1)
        y = np.where(sample.T == 1, sample.Y, np.nan)
        with pytest.raises(InvalidArgumentError, match="must be numeric"):
            sens.run_sensitivity(cov, sample.T, y, [PZ], [OZ], "DR_WLS", boot_reps=2)

    def test_to_dict_keys_follow_the_dataclasses(self, result):
        payload = result.to_dict()
        assert list(payload["propensity_models"][0]) == ["role", "covariates", "kind"]
        assert list(payload["row_tests"][0]) == [
            "p_value", "statistic", "df", "n_boot_used", "boot_failures", "singular", "note"]

    def test_integer_arguments_stored_as_ints(self, data600):
        _, cov, T, y = data600
        out = sens.run_sensitivity(cov, T, y, [PZ], [OZ], "DR_WLS",
                                   boot_reps=np.int64(20), seed=np.uint8(1))
        assert type(out.boot_reps) is int and type(out.seed) is int
        assert json.dumps(out.to_dict()["seed"]) == "1"

    def test_nan_cells_serialise_as_null(self, data600):
        _, cov, T, y = data600
        pz_inv = sens.ModelSpec(
            role="propensity", covariates=(0, 1, 2, 3), kind="INV_LINEAR_UNCONSTRAINED"
        )
        out = sens.run_sensitivity(cov, T, y, [pz_inv], [OZ], "B_DR_EXT",
                                   boot_reps=25, seed=0)
        payload = json.loads(json.dumps(out.to_dict()))
        assert payload["estimates"][0][0] is None
        assert "0,0" in payload["cell_messages"]


class TestSharedDraws:
    """Every line of a run reads its cells from one shared set of draws."""

    def test_line_tests_equal_standalone_tests(self, data600, result):
        _, cov, T, y = data600
        for i, ps in enumerate((PZ, PX)):
            alone = sens.homogeneity_test(result.estimates[i, :], cov, T, y, ps,
                                          (OZ, OX), "DR_WLS", boot_reps=60, seed=11)
            assert alone == result.row_tests[i]
        for j, os_ in enumerate((OZ, OX)):
            alone = sens.homogeneity_test(result.estimates[:, j], cov, T, y, os_,
                                          (PZ, PX), "DR_WLS", boot_reps=60, seed=11)
            assert alone == result.col_tests[j]

    def test_draw_fits_start_from_the_full_sample_fit(self, data600, monkeypatch):
        _, cov, T, y = data600
        calls = []
        fit = linmod.fit_logistic_propensity

        def spy(design, T, start=None):
            out = fit(design, T, start)
            calls.append((start, out.alpha))
            return out

        monkeypatch.setattr(linmod, "fit_logistic_propensity", spy)
        sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ, (OZ, OX),
                              "DR_WLS", boot_reps=5, seed=3)
        (first, alpha), *draws = calls
        assert first is None and len(draws) == 5
        assert all(np.array_equal(start, alpha) for start, _ in draws)

    def test_adding_a_row_leaves_row_tests_unchanged(self, data600):
        _, cov, T, y = data600
        p_third = sens.ModelSpec(role="propensity", covariates=(0, 5))
        two = sens.run_sensitivity(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                   boot_reps=30, seed=4)
        three = sens.run_sensitivity(cov, T, y, [PZ, PX, p_third], [OZ, OX],
                                     "DR_WLS", boot_reps=30, seed=4)
        assert three.row_tests[:2] == two.row_tests

    def test_failing_cell_discards_draws_of_its_lines_only(self, data600, monkeypatch):
        # cell (p_small, o_small) is the only one whose designs have 4 and 3
        # columns; it fails in the draws whose respondent count has the
        # other parity than the full sample's
        _, cov, T, y = data600
        p_small = sens.ModelSpec(role="propensity", covariates=(4, 5, 6))
        o_small = sens.ModelSpec(role="outcome", covariates=(4, 5))

        def run():
            return sens.run_sensitivity(cov, T, y, [PZ, p_small], [OZ, o_small],
                                        "DR_WLS", boot_reps=40, seed=8)

        clean = run()
        fit = linmod.fit_outcome_wls

        def flaky(view, pi_hat, **kwargs):
            if (view.design_pi.shape[1], view.design_m.shape[1]) == (4, 3) and (
                    int(view.T.sum()) % 2 != int(T.sum()) % 2):
                raise NonconvergenceError("injected")
            return fit(view, pi_hat, **kwargs)

        monkeypatch.setattr(linmod, "fit_outcome_wls", flaky)
        out = run()
        assert out.cell_messages == {}
        hit = out.row_tests[1]
        assert 0 < hit.boot_failures < 40
        assert hit.n_boot_used == 40 - hit.boot_failures
        assert out.col_tests[1].boot_failures == hit.boot_failures
        assert clean.row_tests[1].boot_failures == clean.col_tests[1].boot_failures == 0
        assert out.row_tests[0] == clean.row_tests[0]
        assert out.col_tests[0] == clean.col_tests[0]
        assert out.row_tests[0].n_boot_used == out.col_tests[0].n_boot_used == 40

    def test_two_runs_in_one_process_agree(self, data600, result):
        _, cov, T, y = data600
        again = sens.run_sensitivity(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                     boot_reps=60, seed=11)
        assert json.dumps(again.to_dict()) == json.dumps(result.to_dict())


class TestNoForeignExceptions:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_moment_row_fails_alone(self, data600):
        # the unconstrained moment Gram of a x1e160 column overflows: that
        # row fails with a DrmeanError and the rest of the run goes on
        _, cov, T, y = data600
        cov = cov.copy()
        cov[:, 0] *= 1e160
        p_moment = sens.ModelSpec(
            role="propensity", covariates=(0, 1, 2, 3), kind="INV_LINEAR_UNCONSTRAINED"
        )
        out = sens.run_sensitivity(cov, T, y, [PZ, p_moment], [OZ, OX], "DR_WLS",
                                   boot_reps=25, seed=5)
        alone = sens.run_sensitivity(cov, T, y, [PZ], [OZ, OX], "DR_WLS",
                                     boot_reps=25, seed=5)
        assert sorted(out.cell_messages) == [(1, 0), (1, 1)]
        for msg in out.cell_messages.values():
            name = msg.split(":")[0]
            assert issubclass(getattr(errors, name), errors.DrmeanError)
        assert np.all(np.isfinite(out.estimates[0]))
        assert out.row_tests[0].p_value == alone.row_tests[0].p_value

    @pytest.mark.parametrize("name", ["matrix_rank", "pinv"])
    def test_linalg_error_in_the_wald_test(self, data600, monkeypatch, name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, name, fail)
        _, cov, T, y = data600
        with pytest.raises(NonconvergenceError, match="SVD did not converge"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                  (OZ, OX), "DR_WLS", boot_reps=25, seed=3)


class TestSelectModels:
    def mk(self, p):
        return sens.HomogeneityResult(
            p_value=p, statistic=0.0, df=1, n_boot_used=50, boot_failures=0,
            singular=False,
        )

    def test_highest_p_wins(self):
        rows = [self.mk(0.2), self.mk(0.9)]
        cols = [self.mk(0.5), self.mk(0.4)]
        sel = sens.select_models(rows, cols, np.array([1.0, 1.0]),
                                 np.array([1.0, 1.0]))
        assert sel == (1, 0)

    def test_tie_breaks_toward_smaller_spread(self):
        rows = [self.mk(0.5), self.mk(0.5)]
        sel = sens.select_models(rows, [self.mk(1.0)], np.array([2.0, 1.0]),
                                 np.array([0.0]))
        assert sel == (1, 0)

    def test_nan_p_always_loses(self):
        rows = [self.mk(math.nan), self.mk(0.01)]
        sel = sens.select_models(rows, [self.mk(1.0)], np.array([0.0, 5.0]),
                                 np.array([0.0]))
        assert sel == (1, 0)


class TestSpecTypes:
    # each raised AttributeError: 'int' object has no attribute 'role'
    @pytest.mark.parametrize("p_specs, o_specs, name",
                             [([1], [OZ], "p_specs"), ([PZ], [OZ, 2], "o_specs"),
                              (PZ, [OZ], "p_specs")], ids=["int", "int-outcome", "bare-spec"])
    def test_run_sensitivity_needs_model_specs(self, data600, logistic_fits,
                                               p_specs, o_specs, name):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=f"{name} must be a collection of"):
            sens.run_sensitivity(cov, T, y, p_specs, o_specs, "DR_WLS", boot_reps=5)
        assert logistic_fits == []

    def test_line_test_needs_model_specs(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match="varying_specs must be a collection"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ, [1, 2], "DR_WLS")
        with pytest.raises(InvalidArgumentError, match="fixed_spec must be a ModelSpec"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, 1, (OZ, OX), "DR_WLS")


class TestLazyDraws:
    def test_nothing_is_fitted_before_the_draws_are_read(self, data600, logistic_fits):
        _, cov, T, y = data600
        sample = sens._Sample(cov, T, y, (PZ, OZ, OX))
        draws = sens._Draws(sample, [(PZ, OZ), (PZ, OX)], "DR_WLS", 4, 3)
        assert logistic_fits == []
        first = draws.draws
        # the start fit, then one fit per draw, and nothing on a second read
        assert len(logistic_fits) == 1 + 4
        assert draws.draws is first and len(logistic_fits) == 1 + 4
