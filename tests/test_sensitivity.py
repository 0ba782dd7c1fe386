import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from drmean import errors, linmod
from drmean import sensitivity as sens
from drmean._util import derive_seed
from drmean.dgp import AnalysisView, design_matrix, generate_sample, make_view
from drmean.errors import InvalidArgumentError, NonconvergenceError, SingularDesignError
from drmean.estimators import estimate_all

PZ = sens.ModelSpec(role="propensity", covariates=(0, 1, 2, 3))
PX = sens.ModelSpec(role="propensity", covariates=(4, 5, 6, 7))
OZ = sens.ModelSpec(role="outcome", covariates=(0, 1, 2, 3))
OX = sens.ModelSpec(role="outcome", covariates=(4, 5, 6, 7))
# column 8 of twinned(cov) repeats column 0, so this spec's design loses rank
P_TWINS = sens.ModelSpec(role="propensity", covariates=(0, 8))
FULL, DRAW = "fit_logistic_propensity", "_fit_logistic_draw"


def twinned(cov):
    """cov with a copy of its column 0 appended as column 8."""
    return np.column_stack([cov, cov[:, 0]])


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

    def test_repeated_index_rejected(self):
        # (0, 0, 1) was accepted, and every cell of its row failed with
        # "SingularDesignError: rank 3 < 4 columns"
        with pytest.raises(InvalidArgumentError, match=r"covariates repeat index\(es\) 3, 0$"):
            sens.ModelSpec(role="propensity", covariates=(3, 0, 3, 1, 0))

    @pytest.mark.parametrize("kind", ["REG", "WLS", "EXT_REG", "IPW_NR"])
    def test_outcome_kind_rejected(self, kind):
        # the estimator fixes the outcome fit: a spec has no kind to restate it
        with pytest.raises(TypeError):
            sens.ModelSpec(role="outcome", covariates=(0,), kind=kind)

    def test_unknown_propensity_kind(self):
        # every propensity spec is a logistic fit: a spec names no other
        with pytest.raises(TypeError):
            sens.ModelSpec(role="propensity", covariates=(0,), kind="PROBIT")

    def test_bool_index_rejected(self):
        # (True,) read column 1
        with pytest.raises(InvalidArgumentError, match="must be an integer >= 0"):
            sens.ModelSpec(role="outcome", covariates=(True,))

    @pytest.mark.parametrize("role", ["propensity", "outcome"])
    @pytest.mark.parametrize("kind", [[1], 1, {"LOGISTIC_MLE"}])
    def test_non_string_kind_rejected(self, role, kind):
        # a spec is its role and covariates: a third field is no spec
        with pytest.raises(TypeError):
            sens.ModelSpec(role, (0,), kind)

    @pytest.mark.parametrize("estimator", ["DR_WLS", "B_DR_EXT"])
    def test_cell_fits_the_logistic_model(self, data600, estimator):
        # a cell fits one logistic propensity model, first; B_DR_EXT
        # extends that fit, so the extended fit is no spec's model
        _, cov, T, y = data600
        d = np.column_stack([np.ones(len(T)), cov[:, :4]])
        memo = {}
        sens._estimate_cell(AnalysisView(d, d, T, y), estimator, None, memo)
        fits = [v for v in memo.values() if isinstance(v, linmod.PropensityFit)]
        extended = [False] + [True] * (estimator == "B_DR_EXT")
        assert [fit.phi is not None for fit in fits] == extended

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
        # the class is counted by its __init__, so it stays a class for isinstance
        for owner, name in ((linmod.RespondentDesign, "__init__"), (linmod, "fit_outcome_reg"),
                            (linmod, "fit_outcome_wls")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        for estimator, weighted in (("DR_REG", "fit_outcome_reg"),
                                    ("DR_WLS", "fit_outcome_wls")):
            calls.clear()
            estimates, _ = sens.build_matrix(cov, T, y, [PZ, PX], [OZ, OX], estimator)
            assert np.all(np.isfinite(estimates))
            assert calls.count("__init__") == 2
            assert calls.count(weighted) == (2 if weighted == "fit_outcome_reg" else 4)

    def test_cell_failure_is_isolated(self, data600):
        _, cov, T, y = data600
        estimates, messages = sens.build_matrix(
            twinned(cov), T, y, [PZ, P_TWINS], [OZ], "B_DR_EXT"
        )
        assert np.isfinite(estimates[0, 0])
        assert math.isnan(estimates[1, 0])
        assert messages[(1, 0)].startswith("SingularDesignError: ")

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
        with pytest.raises(TypeError):
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
        (("outcome", (0,)), "OLS", "doubly robust"),
    ], ids=["estimator", "outcome"])
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

    @pytest.mark.parametrize("line, p_value", [([215.0, 210.0], 0.0), ([215.0, 215.0], 1.0)],
                             ids=["contrast-5", "contrast-0"])
    def test_contrast_without_bootstrap_variance(self, line, p_value):
        # each draw's contrast is 5, so the contrast covariance is zero (rank
        # 0); its zero pseudoinverse gave statistic 0 and p = 1 for any line.
        # A nonzero contrast is rejected with no finite statistic: NaN, which
        # the JSON writes as null, not a 0 beside p = 0
        draws = SimpleNamespace(draws=[{(PZ, OZ): 215.0 + b, (PZ, OX): 210.0 + b}
                                       for b in range(30)])
        out = sens.homogeneity_test(np.array(line), None, None, None, PZ, (OZ, OX),
                                    "DR_WLS", _draws=draws)
        assert (out.p_value, out.df, out.singular) == (p_value, 0, True)
        if p_value == 0.0:
            assert math.isnan(out.statistic)
            assert out.note == "no contrast varies over the draws"
        else:
            assert (out.statistic, out.note) == (0.0, "")
        assert out.n_boot_used == 30

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

    @pytest.mark.parametrize("k", [-560, 520])
    def test_free_of_the_units_of_y(self, k):
        # the criterion-8 grid with Y scaled by 2**k: the estimates scale
        # exactly, and each line's test is the unscaled one bit for bit
        # (the contrast covariance overflowed at 2**520 and underflowed at
        # 2**-560, and every line read p = 0, df 0)
        s = generate_sample(400, 3)
        cov, y = np.hstack([s.Z, s.X]), np.where(s.T == 1, s.Y, np.nan)

        def run(y):
            return sens.run_sensitivity(cov, s.T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                        boot_reps=60, seed=1)

        base, scaled = run(y), run(np.ldexp(y, k))
        assert np.array_equal(scaled.estimates, np.ldexp(base.estimates, k))
        for got, want in zip(scaled.row_tests + scaled.col_tests,
                             base.row_tests + base.col_tests):
            assert (got.p_value, got.statistic, got.df) == (want.p_value, want.statistic,
                                                            want.df)
            assert want.df > 0

    def test_seed_beyond_64_bits_rejected(self, data600):
        _, cov, T, y = data600
        with pytest.raises(InvalidArgumentError, match=r"seed must be in \[0, 2\*\*64\)"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                  (OZ, OX), "DR_WLS", seed=2**64)


class TestChi2Survival:
    """sens._chi2_sf, the closed-form chi^2 survival of the Wald test."""

    # over this grid the largest relative difference from scipy's chdtrc was
    # 1.84e-13 (df 1, where erfc meets a rounded sqrt); every value is normal
    XS = np.concatenate([np.geomspace(1e-12, 1400.0, 4001), np.linspace(0.0, 60.0, 1201)])

    @pytest.mark.parametrize("df", range(1, 9))
    def test_matches_scipy_chdtrc(self, df):
        from scipy.special import chdtrc
        ref = chdtrc(df, self.XS)
        got = np.array([sens._chi2_sf(df, float(x)) for x in self.XS])
        assert ref.min() > 0.0
        np.testing.assert_allclose(got, ref, rtol=2.5e-13, atol=0.0)

    @pytest.mark.parametrize("df", range(1, 9))
    def test_a_probability(self, df):
        # without the clamp, the even sums round above 1 at tiny x (1 + 2**-52
        # for df 6)
        got = [sens._chi2_sf(df, float(x)) for x in np.geomspace(1e-300, 1.0, 2001)]
        assert all(0.0 <= p <= 1.0 for p in got)

    @pytest.mark.parametrize("df", range(1, 9))
    @pytest.mark.parametrize("x, p", [(0.0, 1.0), (math.inf, 0.0), (1e300, 0.0)])
    def test_edges(self, df, x, p):
        # e^(-x/2) underflows before the even sums' 0 * inf could give NaN
        assert sens._chi2_sf(df, x) == p

    @pytest.mark.parametrize("df", range(1, 9))
    def test_nan_stays_nan(self, df):
        assert math.isnan(sens._chi2_sf(df, math.nan))


@pytest.fixture
def logistic_fits(monkeypatch):
    """The routine of every logistic propensity fit made, in order: FULL for
    the stop-rule fit, DRAW for a bootstrap draw's fixed-step fit."""
    fits = []
    for name in (FULL, DRAW):
        monkeypatch.setattr(linmod, name, lambda *a, _name=name, _fit=getattr(linmod, name):
                            fits.append(_name) or _fit(*a))
    return fits


class TestSharedPropensityFits:
    def test_line_fits_fixed_propensity_once_per_draw(self, data600, logistic_fits):
        # once per draw, plus the full-sample fit that the draw fits start from
        _, cov, T, y = data600
        out = sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ,
                                    (OZ, OX), "DR_WLS", boot_reps=25, seed=3)
        assert out.n_boot_used == 25
        assert logistic_fits == [FULL] + [DRAW] * 25

    def test_matrix_fits_each_propensity_once(self, data600, logistic_fits):
        _, cov, T, y = data600
        o_third = sens.ModelSpec(role="outcome", covariates=(0, 5))
        estimates, messages = sens.build_matrix(
            cov, T, y, [PZ, PX], [OZ, OX, o_third], "DR_WLS"
        )
        assert np.all(np.isfinite(estimates)) and messages == {}
        assert logistic_fits == [FULL] * 2

    def test_equivalent_propensity_specs_share_one_fit(self, data600, logistic_fits):
        # two specs on one design name one model: one full-sample fit and
        # one fit per draw serve both rows
        _, cov, T, y = data600
        p_twin = sens.ModelSpec(role="propensity", covariates=PZ.covariates)
        out = sens.run_sensitivity(cov, T, y, [PZ, p_twin], [OZ, OX], "DR_WLS",
                                   boot_reps=25, seed=2)
        assert logistic_fits == [FULL] + [DRAW] * 25
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
        p_twin = sens.ModelSpec(role="propensity", covariates=PZ.covariates)
        out = sens.run_sensitivity(cov, T, y, [PZ, p_twin], [OZ, OX], "DR_WLS",
                                   boot_reps=25, seed=2)
        assert out.estimates[0].tobytes() == out.estimates[1].tobytes()
        assert len(fits) == (25 + 1) * 2

    def test_singular_propensity_row(self, data600, logistic_fits):
        # the failed fit is made once and reported by every cell of its row
        _, cov, T, y = data600
        cov = twinned(cov)
        estimates, messages = sens.build_matrix(
            cov, T, y, [PZ, P_TWINS], [OZ, OX], "DR_WLS"
        )
        assert logistic_fits == [FULL] * 2
        assert np.all(np.isfinite(estimates[0])) and np.all(np.isnan(estimates[1]))
        assert sorted(messages) == [(1, 0), (1, 1)]
        assert messages[(1, 0)] == messages[(1, 1)]
        assert messages[(1, 0)].startswith(SingularDesignError.__name__ + ":")
        out = sens.run_sensitivity(cov, T, y, [PZ, P_TWINS], [OZ, OX], "DR_WLS",
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
        assert list(payload["propensity_models"][0]) == ["role", "covariates"]
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
        out = sens.run_sensitivity(twinned(cov), T, y, [P_TWINS], [OZ], "B_DR_EXT",
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
        # and take exactly DRAW_NEWTON_STEPS steps from it
        _, cov, T, y = data600
        calls = []
        for name in (FULL, DRAW):
            def spy(design, T, *start, _name=name, _fit=getattr(linmod, name)):
                out = _fit(design, T, *start)
                calls.append((_name, start, out))
                return out

            monkeypatch.setattr(linmod, name, spy)
        sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PZ, (OZ, OX),
                              "DR_WLS", boot_reps=5, seed=3)
        (name, first, full), *draws = calls
        assert (name, first) == (FULL, ()) and full.iterations > linmod.DRAW_NEWTON_STEPS
        assert [name for name, _, _ in draws] == [DRAW] * 5
        assert all(start is full.alpha for _, (start,), _ in draws)
        assert [fit.iterations for _, _, fit in draws] == [linmod.DRAW_NEWTON_STEPS] * 5

    def test_draws_start_from_zero_when_the_full_sample_fit_fails(self, data600,
                                                                  monkeypatch):
        # a propensity model on a column equal to T fails on the full sample
        # and in every draw: each draw fit is fit_logistic_propensity, from
        # zero to the stop rule, as no start makes it a two-step draw, and
        # the line, finite as given, reports every draw as failed
        _, cov, T, y = data600
        full, fixed = [], []
        fit = linmod.fit_logistic_propensity
        monkeypatch.setattr(linmod, "fit_logistic_propensity",
                            lambda design, T: full.append(design) or fit(design, T))
        monkeypatch.setattr(linmod, "_fit_logistic_draw", lambda *a: fixed.append(a))
        separated = sens.ModelSpec(role="propensity", covariates=(8,))
        out = sens.homogeneity_test(np.array([210.0, 211.0]), np.column_stack([cov, T]), T,
                                    y, separated, (OZ, OX), "DR_WLS", boot_reps=25, seed=3)
        assert len(full) == 26 and fixed == []
        assert out.note == "too few successful bootstrap draws"
        assert (out.n_boot_used, out.boot_failures) == (0, 25)
        assert math.isnan(out.p_value) and math.isnan(out.statistic)

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
        small_pi = []  # the pi_hat of each draw fit on p_small's 4-column design
        logistic = linmod._fit_logistic_draw

        def spy(design, *args):
            out = logistic(design, *args)
            if design.shape[1] == 4:
                small_pi.append(out.pi_hat)
            return out

        def flaky(design, pi_hat):
            if design.design.shape[1] == 3 and any(pi_hat is p for p in small_pi) and (
                    int(design.resp.sum()) % 2 != int(T.sum()) % 2):
                raise NonconvergenceError("injected")
            return fit(design, pi_hat)

        monkeypatch.setattr(linmod, "_fit_logistic_draw", spy)
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

    def test_draws_cut_the_rows_of_the_sample(self, data600, monkeypatch):
        # draw b hands the cells designs[k][idx], T[idx] and y[idx] for the
        # idx of PCG64(derive_seed(seed, b)), byte for byte and in C order
        _, cov, T, y = data600
        seen = []
        estimate_cells = sens._estimate_cells

        def spy(designs, T, y_observed, *args):
            seen.append((designs, T, y_observed))
            return estimate_cells(designs, T, y_observed, *args)

        monkeypatch.setattr(sens, "_estimate_cells", spy)
        sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, PX, (OZ, OX),
                              "DR_WLS", boot_reps=4, seed=5)
        assert len(seen) == 4
        for b, (designs, T_b, y_b) in enumerate(seen):
            rng = np.random.Generator(np.random.PCG64(derive_seed(5, b)))
            idx = rng.integers(0, T.size, size=T.size)
            assert sorted(designs) == sorted({PX.covariates, OZ.covariates, OX.covariates})
            want = {k: design_matrix(cov, k)[idx] for k in designs}
            want["T"], want["y"] = T.astype(np.int64)[idx], np.where(T == 1, y, np.nan)[idx]
            for k, have in {**designs, "T": T_b, "y": y_b}.items():
                assert have.flags.c_contiguous, k
                assert have.dtype == want[k].dtype and have.shape == want[k].shape, k
                assert have.tobytes() == want[k].tobytes(), k

    def test_two_runs_in_one_process_agree(self, data600, result):
        _, cov, T, y = data600
        again = sens.run_sensitivity(cov, T, y, [PZ, PX], [OZ, OX], "DR_WLS",
                                     boot_reps=60, seed=11)
        assert json.dumps(again.to_dict()) == json.dumps(result.to_dict())


class TestNoForeignExceptions:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_separated_row_fails_alone(self, data600):
        # a propensity model on a column equal to T separates the data: that
        # row fails with a DrmeanError and the rest of the run goes on
        _, cov, T, y = data600
        cov = np.column_stack([cov, T])
        p_separated = sens.ModelSpec(role="propensity", covariates=(8,))
        out = sens.run_sensitivity(cov, T, y, [PZ, p_separated], [OZ, OX], "DR_WLS",
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
        sel = sens._select(rows, cols, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert sel == (1, 0)

    def test_tie_breaks_toward_smaller_spread(self):
        rows = [self.mk(0.5), self.mk(0.5)]
        sel = sens._select(rows, [self.mk(1.0)], np.array([2.0, 1.0]), np.array([0.0]))
        assert sel == (1, 0)

    def test_nan_p_always_loses(self):
        rows = [self.mk(math.nan), self.mk(0.01)]
        sel = sens._select(rows, [self.mk(1.0)], np.array([0.0, 5.0]), np.array([0.0]))
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
        with pytest.raises(InvalidArgumentError, match="fixed_spec must be of type ModelSpec"):
            sens.homogeneity_test(np.array([210.0, 211.0]), cov, T, y, 1, (OZ, OX), "DR_WLS")


class TestLazyDraws:
    def test_nothing_is_fitted_before_the_draws_are_read(self, data600, logistic_fits):
        _, cov, T, y = data600
        sample = sens._Sample(cov, T, y, (PZ, OZ, OX))
        draws = sens._Draws(sample, [(PZ, OZ), (PZ, OX)], "DR_WLS", 4, 3)
        assert logistic_fits == []
        first = draws.draws
        # the start fit, then one fit per draw, and nothing on a second read
        assert logistic_fits == [FULL] + [DRAW] * 4
        assert draws.draws is first and logistic_fits == [FULL] + [DRAW] * 4


def _criterion_8(n: int):
    """The criterion-8 2x2 with DR_WLS on generate_sample(n, 99), 300 draws, seed 7."""
    s = generate_sample(n, 99)
    return sens.run_sensitivity(np.hstack([s.Z, s.X]), s.T, np.where(s.T == 1, s.Y, np.nan),
                                [PZ, PX], [OZ, OX], "DR_WLS", boot_reps=300, seed=7)


class TestTwoStepDraws:
    """Each draw's propensity fit takes DRAW_NEWTON_STEPS Newton steps from
    the full-sample fit, without the stop rule (linmod._fit_logistic_draw)."""

    @pytest.mark.parametrize("n", [200, 1000])
    def test_line_p_values_match_converged_draws(self, monkeypatch, n):
        # the paired gate: the same run with every draw fit iterated to the
        # stop rule from the same start (linmod._logistic) differs only in
        # the line tests' p-values and statistics, and each p-value by less
        # than the 0.005-0.013 seed-to-seed SD of a line p-value on this
        # sample
        two_step = _criterion_8(n)
        monkeypatch.setattr(linmod, "_fit_logistic_draw",
                            lambda design, T, start: linmod._logistic(design, T, start, None))
        converged = _criterion_8(n)
        assert two_step.estimates.tobytes() == converged.estimates.tobytes()
        assert two_step.cell_messages == converged.cell_messages == {}
        assert two_step.row_spread.tobytes() == converged.row_spread.tobytes()
        assert two_step.col_spread.tobytes() == converged.col_spread.tobytes()
        assert two_step.selection == converged.selection
        lines = list(zip(two_step.row_tests + two_step.col_tests,
                         converged.row_tests + converged.col_tests))
        for got, want in lines:
            assert (got.n_boot_used, got.boot_failures) == (want.n_boot_used, want.boot_failures)
            assert got.boot_failures == 0
            assert abs(got.p_value - want.p_value) <= 0.005

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_separating_start_fails_as_separated(self):
        # T is a sign of the column: two steps from a slope of 32 reach
        # |alpha'x| = 34, past ETA_SEPARATION; from 30 they stop at 32
        T = np.array([0, 1] * 10)
        design = np.column_stack([np.ones(20), 2.0 * T - 1])
        fit = linmod._fit_logistic_draw(design, T, np.array([0.0, 30.0]))
        assert fit.iterations == linmod.DRAW_NEWTON_STEPS
        assert 32 < np.abs(fit.eta).max() < linmod.ETA_SEPARATION
        with pytest.raises(NonconvergenceError, match="data are separated"):
            linmod._fit_logistic_draw(design, T, np.array([0.0, 32.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, -1e300])
    def test_overflowing_start_fails_without_a_nan_estimate(self, data600, scale):
        s, *_ = data600
        view = make_view(s, True, True)
        start = linmod.fit_logistic_propensity(view.design_pi, view.T).alpha * scale
        with pytest.raises(NonconvergenceError):
            linmod._fit_logistic_draw(view.design_pi, view.T, start)
        with pytest.raises(NonconvergenceError):
            sens._estimate_cell(view, "DR_WLS", start, {})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("at", [1, 2])
    def test_non_finite_step_fails(self, data600, monkeypatch, bad, at):
        # no stop rule judges a step, so a non-finite one must still fail
        s, *_ = data600
        view = make_view(s, True, True)
        start = linmod.fit_logistic_propensity(view.design_pi, view.T).alpha
        steps = []
        real = linmod._newton_step

        def newton_step(*args):
            step = real(*args)
            steps.append(step)
            return np.full_like(step, bad) if len(steps) == at else step

        monkeypatch.setattr(linmod, "_newton_step", newton_step)
        with pytest.raises(NonconvergenceError):
            linmod._fit_logistic_draw(view.design_pi, view.T, start)
        assert len(steps) == at

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1), (1, -1, 1, -1, 1)])
    def test_overflowing_fit_fails(self, data600, monkeypatch, signs):
        # a finite last step whose alpha'x overflows to inf or NaN: the
        # separation test alone let a NaN through
        s, *_ = data600
        view = make_view(s, True, True)
        start = linmod.fit_logistic_propensity(view.design_pi, view.T).alpha
        real = linmod._newton_step
        steps = []

        def newton_step(*args):
            steps.append(real(*args))
            return 1e308 * np.array(signs, dtype=float) if len(steps) == 2 else steps[-1]

        monkeypatch.setattr(linmod, "_newton_step", newton_step)
        with pytest.raises(NonconvergenceError, match="logistic fit is not finite"):
            linmod._fit_logistic_draw(view.design_pi, view.T, start)

    def test_rank_deficient_resample_fails_at_the_first_step(self, data600):
        # column 8 is nonzero on three units only: a draw that resamples
        # none of them has a zero column, and its fit fails in the first
        # step's solve, by name; every other draw fits
        s, cov, T, y = data600
        rows = [int(i) for i in np.flatnonzero(T == 1)[:2]] + [int(np.flatnonzero(T == 0)[0])]
        cov = np.column_stack([cov, np.isin(np.arange(len(T)), rows).astype(float)])
        p_sparse = sens.ModelSpec(role="propensity", covariates=(0, 1, 2, 3, 8))
        sample = sens._Sample(cov, T, y, (p_sparse, OZ))
        draws = sens._Draws(sample, [(p_sparse, OZ)], "DR_WLS", 60, 3).draws
        lost = 0
        for b, draw in enumerate(draws):
            rng = np.random.Generator(np.random.PCG64(sens.derive_seed(3, b)))
            missing = not np.isin(rows, rng.integers(0, len(T), size=len(T))).any()
            value = draw[p_sparse, OZ]
            if missing:
                lost += 1
                assert isinstance(value, SingularDesignError)
                assert str(value).startswith("rank 5 < 6 columns")
            else:
                assert math.isfinite(value)
        assert lost == 8
