import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmean import errors, linmod
from drmean.dgp import AnalysisView, generate_sample, make_view
from drmean.errors import (
    DrmeanError,
    InvalidArgumentError,
    InvalidWeightError,
    NoRootError,
    NonconvergenceError,
    SingularDesignError,
)
from drmean.estimators import estimate_all, mu_b_dr, mu_from_regression, mu_ipw_pop


def view_from(design_m, T, y_full, design_pi=None):
    """Small helper: build a view, masking outcomes where T == 0."""
    T = np.asarray(T)
    y = np.where(T == 1, np.asarray(y_full, dtype=float), np.nan)
    design_m = np.asarray(design_m, dtype=float)
    return AnalysisView(
        design_pi=design_m if design_pi is None else np.asarray(design_pi, dtype=float),
        design_m=design_m,
        T=T,
        y_observed=y,
    )


class TestIdentityLink:
    def test_ols_hand_solution(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 4.0])
        beta, _ = linmod._wls(design, y, None)
        assert np.allclose(beta, [5.0 / 6.0, 3.0 / 2.0], rtol=1e-12)
        assert np.allclose(np.array([1.0, 3.0]) @ beta, 16.0 / 3.0, rtol=1e-12)

    def test_wls_hand_solution(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 4.0])
        w = np.array([4.0, 2.0, 1.0])
        beta, _ = linmod._wls(design, y, w)
        assert np.allclose(beta, [12.0 / 13.0, 18.0 / 13.0], rtol=1e-12)

    def test_exact_fit_recovers_coefficients(self):
        rng = np.random.default_rng(5)
        design = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        beta0 = np.array([2.0, -1.0, 0.5, 3.0])
        beta, _ = linmod._wls(design, design @ beta0, None)
        assert np.allclose(beta, beta0, rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weight_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        design = np.column_stack([np.ones(12), rng.normal(size=12)])
        y = rng.normal(size=12)
        w = rng.uniform(0.1, 5.0, size=12)
        b1, _ = linmod._wls(design, y, w)
        b2, _ = linmod._wls(design, y, w * scale)
        assert np.allclose(b1, b2, rtol=1e-9)

    def test_zero_weight_rows_ignored(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 9.0]])
        y = np.array([1.0, 2.0, 4.0, 500.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        beta, _ = linmod._wls(design, y, w)
        assert np.allclose(beta, [5.0 / 6.0, 3.0 / 2.0], rtol=1e-10)

    def test_duplicate_column_raises(self):
        design = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularDesignError):
            linmod._wls(design, np.array([1.0, 2.0, 3.0]), None)

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(SingularDesignError, match="cannot identify"):
            linmod.fit_outcome_reg(view_from(np.ones((2, 3)), np.ones(2, dtype=int),
                                             np.array([1.0, 2.0])))
        with pytest.raises(SingularDesignError, match="rank"):
            linmod._wls(np.ones((2, 3)), np.array([1.0, 2.0]), None)

    def test_negative_weight_raises(self):
        design = np.ones((3, 1))
        with pytest.raises(InvalidWeightError):
            linmod._wls(design, np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 1.0]))

    def test_all_zero_weights_raise(self):
        design = np.ones((3, 1))
        with pytest.raises(InvalidWeightError):
            linmod._wls(design, np.array([1.0, 2.0, 3.0]), np.zeros(3))

    def test_nonfinite_response_raises(self):
        view = view_from(np.ones((3, 1)), np.ones(3, dtype=int), np.array([1.0, np.nan, 3.0]))
        with pytest.raises(InvalidArgumentError):
            linmod.fit_outcome_reg(view)

    @pytest.mark.parametrize("shift", [1e8, 1e12])
    def test_shifted_response_stops_at_working_precision(self, wrong_view, shift):
        # y - x'beta cancels 8 to 12 digits of y; the stop is relative to
        # the fit, so the shift does not ask for more passes
        resp = wrong_view.T == 1
        design, y = wrong_view.design_m[resp], wrong_view.y_observed[resp]
        beta, passes = linmod._wls(design, y + shift, None)
        ref, _ = linmod._wls(design, y, None)
        assert passes <= 2
        m_hat, want = wrong_view.design_m @ beta - shift, wrong_view.design_m @ ref
        assert np.max(np.abs(m_hat - want)) <= 1e-14 * shift

    def test_pass_cap_raises(self, monkeypatch):
        # a tolerance no step meets: the fit stops at IRLS_MAX_ITER solves
        monkeypatch.setattr(linmod, "FIT_STEP_RTOL", -1.0)
        design = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(NonconvergenceError,
                           match=f"no convergence in {linmod.IRLS_MAX_ITER} solves"):
            linmod._wls(design, np.array([1.0, 2.0, 4.0, 3.0]), None)


class TestLogisticPropensity:
    def test_intercept_only_closed_form(self):
        design = np.ones((4, 1))
        T = np.array([1, 1, 1, 0])
        fit = linmod.fit_logistic_propensity(design, T)
        assert fit.kind is linmod.PropensityKind.LOGISTIC_MLE
        assert np.allclose(fit.alpha, [math.log(3.0)], rtol=1e-8)
        assert np.allclose(fit.pi_hat, 0.75, rtol=1e-8)

    def test_score_vanishes_on_nonlinear_design(self, wrong_view):
        fit = linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)
        resid = wrong_view.T - fit.pi_hat
        score = np.array(
            [math.fsum(col * resid) / len(resid) for col in wrong_view.design_pi.T]
        )
        assert np.max(np.abs(score)) <= 1e-10

    def test_recovers_true_coefficients_at_large_n(self):
        s = generate_sample(1_000_000, 21)
        design = np.hstack([np.ones((s.n, 1)), s.Z])
        fit = linmod.fit_logistic_propensity(design, s.T)
        want = np.array([0.0, -1.0, 0.5, -0.25, -0.1])
        assert np.max(np.abs(fit.alpha - want)) < 0.02

    def test_separated_data_raise(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        T = np.array([0, 0, 1, 1])
        with pytest.raises(NonconvergenceError):
            linmod.fit_logistic_propensity(design, T)

    def test_separation_is_named_when_the_weighted_design_loses_rank(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(NonconvergenceError, match="data are separated"):
            linmod.fit_logistic_propensity(design, np.array([0, 0, 1, 1]))

    def test_separation_is_named_on_a_separated_sample(self):
        s = generate_sample(1000, 3)
        design = np.hstack([np.ones((s.n, 1)), s.Z])
        T = (s.Z[:, 0] > 0).astype(np.int64)
        with pytest.raises(NonconvergenceError, match="data are separated"):
            linmod.fit_logistic_propensity(design, T)

    def test_singular_design_raises(self):
        design = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        T = np.array([0, 1, 0, 1])
        with pytest.raises(SingularDesignError):
            linmod.fit_logistic_propensity(design, T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [1e160, 1e300])
    def test_huge_column_fits(self, factor):
        # the squares of such a column overflow in the equilibration scale
        view = make_view(generate_sample(1000, 3), True, True)
        big = view.design_pi.copy()
        big[:, 1] *= factor
        fit = linmod.fit_logistic_propensity(big, view.T)
        ref = linmod.fit_logistic_propensity(view.design_pi, view.T)
        assert np.max(np.abs(fit.pi_hat - ref.pi_hat)) <= 1e-12

    @pytest.mark.parametrize("z", [True, False], ids=["Z", "X"])
    def test_warm_start_reaches_the_same_fit(self, z):
        # started from the fit of another sample, as in the bootstrap
        start = make_view(generate_sample(1000, 1), z, z)
        view = make_view(generate_sample(1000, 2), z, z)
        alpha0 = linmod.fit_logistic_propensity(start.design_pi, start.T).alpha
        cold = linmod.fit_logistic_propensity(view.design_pi, view.T)
        warm = linmod.fit_logistic_propensity(view.design_pi, view.T, start=alpha0)
        assert warm.iterations < cold.iterations
        assert np.max(np.abs(warm.pi_hat - cold.pi_hat)) <= 1e-9

    def test_stationary_start_still_checks_rank(self, right_view):
        # the first Newton step always runs, and its solve is the rank check
        fit = linmod.fit_logistic_propensity(right_view.design_pi, right_view.T)
        again = linmod.fit_logistic_propensity(right_view.design_pi, right_view.T,
                                               start=fit.alpha)
        assert again.iterations == 1
        assert np.max(np.abs(again.pi_hat - fit.pi_hat)) <= 1e-12
        doubled = np.column_stack([right_view.design_pi, right_view.design_pi[:, 1]])
        with pytest.raises(SingularDesignError):
            linmod.fit_logistic_propensity(doubled, right_view.T,
                                           start=np.append(fit.alpha, 0.0))

    @pytest.mark.parametrize("start", [np.zeros(4), np.full(5, np.nan)],
                             ids=["length", "nan"])
    def test_bad_start_rejected(self, right_view, start):
        with pytest.raises(InvalidArgumentError, match="start"):
            linmod.fit_logistic_propensity(right_view.design_pi, right_view.T, start)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fit_needs_no_exact_sum(self, monkeypatch, seed):
        # the logistic fit and the four outcome fits on the raw-scale X
        # design stop on numpy mat-vecs alone: every exact sum of the
        # package is a math.fsum, and none runs
        view = make_view(generate_sample(1000, seed), True, False)
        calls = []
        exact = math.fsum
        monkeypatch.setattr(math, "fsum", lambda a: calls.append(len(a)) or exact(a))
        pi_hat = linmod.fit_logistic_propensity(view.design_pi, view.T).pi_hat
        linmod.fit_outcome_reg(view)
        for fit in (linmod.fit_outcome_wls, linmod.fit_outcome_ext_reg,
                    linmod.fit_outcome_ipw_nr):
            fit(view, pi_hat)
        assert calls == []


@pytest.fixture(scope="module")
def pi_fit(wrong_view):
    return linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)


class TestOutcomeFits:
    def p_n_score(self, view, m_hat, weights, design):
        resp = view.T == 1
        resid = (view.y_observed[resp] - m_hat[resp]) * weights[resp]
        n = len(view.T)
        return np.max(np.abs(
            np.array([math.fsum(col * resid) / n for col in design[resp].T])
        ))

    def test_reg_score(self, wrong_view):
        fit = linmod.fit_outcome_reg(wrong_view)
        ones = np.ones(len(wrong_view.T))
        assert self.p_n_score(wrong_view, fit.m_hat, ones, wrong_view.design_m) <= 1e-10

    def test_wls_score(self, wrong_view, pi_fit):
        fit = linmod.fit_outcome_wls(wrong_view, pi_fit.pi_hat)
        w = 1.0 / pi_fit.pi_hat
        assert self.p_n_score(wrong_view, fit.m_hat, w, wrong_view.design_m) <= 1e-10

    def test_ext_reg_score(self, wrong_view, pi_fit):
        fit = linmod.fit_outcome_ext_reg(wrong_view, pi_fit.pi_hat)
        aug = np.hstack([wrong_view.design_m, (1.0 / pi_fit.pi_hat)[:, None]])
        ones = np.ones(len(wrong_view.T))
        assert self.p_n_score(wrong_view, fit.m_hat, ones, aug) <= 1e-10
        assert fit.beta.shape == (wrong_view.design_m.shape[1] + 1,)

    def test_ipw_nr_score(self, wrong_view, pi_fit):
        fit = linmod.fit_outcome_ipw_nr(wrong_view, pi_fit.pi_hat)
        aug = np.hstack([wrong_view.design_m, pi_fit.pi_hat[:, None]])
        w = 1.0 / pi_fit.pi_hat
        assert self.p_n_score(wrong_view, fit.m_hat, w, aug) <= 1e-10

    @pytest.mark.parametrize("k", [-30, -3, 5, 40])
    def test_power_of_two_column_scaling(self, wrong_view, pi_fit, k):
        # the fitted values do not depend on the units of the covariates
        design = wrong_view.design_m.copy()
        design[:, 1:] = np.ldexp(design[:, 1:], k)
        scaled = AnalysisView(wrong_view.design_pi, design, wrong_view.T,
                              wrong_view.y_observed)
        for fit, args in [(linmod.fit_outcome_reg, ()),
                          (linmod.fit_outcome_wls, (pi_fit.pi_hat,)),
                          (linmod.fit_outcome_ext_reg, (pi_fit.pi_hat,)),
                          (linmod.fit_outcome_ipw_nr, (pi_fit.pi_hat,))]:
            want = fit(wrong_view, *args).m_hat
            got = fit(scaled, *args).m_hat
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [-60, -7, 9, 60])
    def test_power_of_two_outcome_scaling(self, wrong_view, pi_fit, k):
        # y x 2^k gives beta x 2^k bit for bit
        scaled = AnalysisView(wrong_view.design_pi, wrong_view.design_m, wrong_view.T,
                              np.ldexp(wrong_view.y_observed, k))
        for fit, args in [(linmod.fit_outcome_reg, ()),
                          (linmod.fit_outcome_wls, (pi_fit.pi_hat,)),
                          (linmod.fit_outcome_ext_reg, (pi_fit.pi_hat,)),
                          (linmod.fit_outcome_ipw_nr, (pi_fit.pi_hat,))]:
            want, got = fit(wrong_view, *args), fit(scaled, *args)
            assert np.array_equal(got.beta, np.ldexp(want.beta, k))
            assert np.array_equal(got.m_hat, np.ldexp(want.m_hat, k))

    def test_outcomes_near_the_top_of_the_float_range_fit(self):
        # X'y overflowed here, though every fit is representable
        view = make_view(generate_sample(1000, 3), True, True)
        huge = AnalysisView(view.design_pi, view.design_m, view.T, view.y_observed * 1e305)
        pi_hat = linmod.fit_logistic_propensity(view.design_pi, view.T).pi_hat
        for fit, args in [(linmod.fit_outcome_reg, ()),
                          (linmod.fit_outcome_wls, (pi_hat,)),
                          (linmod.fit_outcome_ext_reg, (pi_hat,)),
                          (linmod.fit_outcome_ipw_nr, (pi_hat,))]:
            want = fit(view, *args).m_hat * 1e305
            got = fit(huge, *args).m_hat
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_ipw_nr_plugin_equals_imputation_form(self, wrong_view, pi_fit):
        # the appended pi covariate makes the unweighted respondent-mean
        # moment hold too, so imputing only nonrespondents gives the same
        # plug-in value
        fit = linmod.fit_outcome_ipw_nr(wrong_view, pi_fit.pi_hat)
        plug = mu_from_regression(fit.m_hat)
        resp = wrong_view.T == 1
        mixed = np.where(resp, wrong_view.y_observed, fit.m_hat)
        assert abs(plug - mu_from_regression(mixed)) <= 1e-8

    def test_fit_ignores_nonrespondent_outcome_slot(self, wrong_view):
        poisoned = AnalysisView(
            design_pi=wrong_view.design_pi,
            design_m=wrong_view.design_m,
            T=wrong_view.T,
            y_observed=np.where(wrong_view.T == 1, wrong_view.y_observed, 1e12),
        )
        a = linmod.fit_outcome_reg(wrong_view)
        b = linmod.fit_outcome_reg(poisoned)
        assert np.array_equal(a.beta, b.beta)

    def test_no_respondents_raises(self):
        v = view_from(np.ones((3, 1)), np.zeros(3, dtype=int), np.ones(3))
        with pytest.raises(SingularDesignError):
            linmod.fit_outcome_reg(v)

    def test_too_few_respondents_raises(self):
        design = np.column_stack([np.ones(5), np.arange(5.0)])
        v = view_from(design, np.array([1, 0, 0, 0, 0]), np.arange(5.0))
        with pytest.raises(SingularDesignError):
            linmod.fit_outcome_reg(v)

    def test_wls_rejects_nonpositive_pi(self, wrong_view):
        pi = np.full(len(wrong_view.T), 0.5)
        pi[int(np.flatnonzero(wrong_view.T == 1)[0])] = 0.0
        with pytest.raises(InvalidWeightError):
            linmod.fit_outcome_wls(wrong_view, pi)

    def test_ext_reg_rejects_nonpositive_pi_anywhere(self, wrong_view):
        pi = np.full(len(wrong_view.T), 0.5)
        pi[int(np.flatnonzero(wrong_view.T == 0)[0])] = 0.0
        with pytest.raises(InvalidWeightError):
            linmod.fit_outcome_ext_reg(wrong_view, pi)

    def test_ipw_nr_rejects_pi_of_one(self, wrong_view):
        pi = np.full(len(wrong_view.T), 0.5)
        pi[0] = 1.0
        with pytest.raises(InvalidWeightError):
            linmod.fit_outcome_ipw_nr(wrong_view, pi)

    @pytest.mark.parametrize("fit", [linmod.fit_outcome_wls, linmod.fit_outcome_ext_reg,
                                     linmod.fit_outcome_ipw_nr])
    def test_pi_whose_inverse_overflows_is_invalid(self, wrong_view, fit):
        # 1e-310 is positive, but 1 / 1e-310 overflows
        pi_hat = np.full(len(wrong_view.T), 0.5)
        pi_hat[np.flatnonzero(wrong_view.T == 1)[0]] = 1e-310
        with pytest.raises(InvalidWeightError):
            fit(wrong_view, pi_hat)

    def test_overflowing_weighted_design_fails_quietly(self, capfd):
        # the weighted design overflows; LAPACK printed a complaint for each
        # of its scalings before the fit failed
        design = np.column_stack([np.ones(6), np.arange(6) * 1e200])
        pi_hat = np.full(6, 0.5)
        pi_hat[2] = 1e-250
        view = view_from(design, np.ones(6, dtype=np.int64), np.arange(6.0))
        with pytest.raises(NonconvergenceError, match="not finite"):
            linmod.fit_outcome_wls(view, pi_hat)
        assert capfd.readouterr() == ("", "")

    def test_ext_reg_constant_pi_collinear(self, wrong_view):
        pi = np.full(len(wrong_view.T), 0.4)
        with pytest.raises(SingularDesignError):
            linmod.fit_outcome_ext_reg(wrong_view, pi)


class TestInverseLinear:
    @pytest.mark.parametrize("method", [[1], None, 1, "MOMENT"])
    def test_malformed_method_rejected(self, method):
        # a list method raised TypeError: unhashable type: 'list'
        design = np.column_stack([np.ones(4), [0.0, 1.0, 3.0, 8.0]])
        with pytest.raises(InvalidArgumentError, match="unknown method"):
            linmod.fit_inverse_linear(design, np.array([1, 1, 1, 0]), method)

    def test_unconstrained_hand_solution(self):
        design = np.column_stack([np.ones(4), [0.0, 1.0, 3.0, 8.0]])
        T = np.array([1, 1, 1, 0])
        fit = linmod.fit_inverse_linear(design, T, "unconstrained_moment")
        assert fit.kind is linmod.PropensityKind.INV_LINEAR_UNCONSTRAINED
        assert np.allclose(fit.alpha, [-4.0 / 7.0, 10.0 / 7.0], rtol=1e-10)

    def test_unconstrained_induces_weighted_mean_identity(self):
        # with alpha solving the moment equations, the bounded weighted
        # mean of respondent outcomes reproduces the plug-in OLS mean
        design = np.column_stack([np.ones(4), [0.0, 1.0, 3.0, 8.0]])
        T = np.array([1, 1, 1, 0])
        y = np.array([1.0, 2.0, 4.0, np.nan])
        fit = linmod.fit_inverse_linear(design, T, "unconstrained_moment")
        resp = T == 1
        s = fit.eta[resp]
        bounded = math.fsum(s * y[resp]) / math.fsum(s)
        v = view_from(design, T, y)
        mu_ols = mu_from_regression(linmod.fit_outcome_reg(v).m_hat)
        assert abs(bounded - 4.0) < 1e-10
        assert abs(mu_ols - bounded) < 1e-10

    def test_unconstrained_moment_residual_on_sample(self, wrong_view):
        fit = linmod.fit_inverse_linear(wrong_view.design_m, wrong_view.T,
                                        "unconstrained_moment")
        design = wrong_view.design_m
        t1 = (wrong_view.T == 1).astype(float)
        resid = t1 * (design @ fit.alpha) - 1.0
        moment = np.array(
            [math.fsum(col * resid) / len(t1) for col in design.T]
        )
        assert np.max(np.abs(moment)) <= 1e-10

    def test_intercept_only_closed_forms(self):
        design = np.ones((4, 1))
        T = np.array([1, 1, 1, 0])
        fit = linmod.fit_inverse_linear(design, T, "unconstrained_moment")
        assert np.allclose(fit.alpha, [4.0 / 3.0], rtol=1e-12, atol=0.0)
        assert np.allclose(fit.pi_hat, 0.75, rtol=1e-12, atol=0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidArgumentError):
            linmod.fit_inverse_linear(np.ones((3, 1)), np.array([1, 0, 1]), "mle")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "cols, factor",
        [((1,), 1e153), ((1,), 1e160), ((1, 2), 1e160)],
        ids=["sum-overflows", "product-overflows", "inf-minus-inf"],
    )
    def test_unconstrained_gram_out_of_range(self, cols, factor):
        view = make_view(generate_sample(1000, 3), True, True)
        design = view.design_pi.copy()
        design[:, cols] *= factor
        with pytest.raises(InvalidArgumentError, match="moment Gram matrix"):
            linmod.fit_inverse_linear(design, view.T, "unconstrained_moment")


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [1e150, 1e160, 1e300])
    @pytest.mark.parametrize("z", [True, False], ids=["Z", "X"])
    def test_huge_design_fits_or_fails_cleanly(self, z, factor):
        # every inverse-linear fit, and estimate_all, on a design_m column
        # scaled far out: finite coefficients or a DrmeanError, no warning
        s = generate_sample(1000, 3)
        view = make_view(s, z, z)
        design = view.design_m.copy()
        design[:, 1] *= factor
        for method in linmod.INV_LINEAR_METHODS:
            try:
                fit = linmod.fit_inverse_linear(design, view.T, method)
            except DrmeanError:
                continue
            assert np.all(np.isfinite(fit.alpha)), method
        big = AnalysisView(design.copy(), design, view.T, view.y_observed)
        out = estimate_all(big, s)
        for name, msg in out.messages.items():
            assert issubclass(getattr(errors, msg.split(":")[0]), DrmeanError), name

    @pytest.mark.parametrize("method", list(linmod.INV_LINEAR_METHODS))
    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("z", [True, False], ids=["Z", "X"])
    def test_fit_is_free_of_column_units(self, method, n, z):
        # multiplying a column by a power of two is exact, so pi_hat is too
        view = make_view(generate_sample(n, 6), z, z)
        ref = linmod.fit_inverse_linear(view.design_pi, view.T, method)
        for k in (-30, -20, -10, 10, 20, 30):
            design = view.design_pi.copy()
            design[:, 1:] *= 2.0**k
            fit = linmod.fit_inverse_linear(design, view.T, method)
            assert np.array_equal(fit.pi_hat, ref.pi_hat), k
            assert fit.iterations == ref.iterations, k

    def test_unconstrained_raises_at_its_cap(self, monkeypatch, wrong_view):
        monkeypatch.setattr(linmod, "FIT_STEP_RTOL", -1.0)
        solves = _spy(monkeypatch, "_equilibrated_lstsq")
        with pytest.raises(NonconvergenceError, match="no convergence"):
            linmod.fit_inverse_linear(wrong_view.design_pi, wrong_view.T,
                                      "unconstrained_moment")
        assert len(solves) == linmod.IRLS_MAX_ITER

    def test_unconstrained_memory_is_a_few_designs(self):
        # the fit needs a few n-vectors and one copy of the design, not n p^2 terms
        view = make_view(generate_sample(200_000, 8), True, True)
        design, T = view.design_pi, view.T
        tracemalloc.start()
        try:
            linmod.fit_inverse_linear(design, T, "unconstrained_moment")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * design.nbytes


class TestExtendedPropensity:
    def quartic_setup(self):
        design_pi = np.ones((4, 1))
        T = np.array([1, 0, 1, 0])
        design_m = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
        y = np.array([1.0, np.nan, 3.0, np.nan])
        view = view_from(design_m, T, y, design_pi=design_pi)
        base = linmod.fit_logistic_propensity(design_pi, T)
        m_reg = linmod.fit_outcome_reg(view)
        mu_ols = mu_from_regression(m_reg.m_hat)
        return base, m_reg, mu_ols, T, y

    def test_root_matches_quartic_solution(self):
        # with eta = 0 and centered fitted values (-1.5, -0.5, 0.5, 1.5),
        # the moment reduces to 1.5 u**4 + u - 0.5 = 0 for u = exp(phi/2)
        base, m_reg, mu_ols, T, _ = self.quartic_setup()
        assert np.allclose(m_reg.m_hat, [1.0, 2.0, 3.0, 4.0], rtol=1e-10)
        h = m_reg.m_hat - mu_ols
        fit = linmod.fit_extended_propensity(base, h, T)
        roots = np.roots([1.0, 0.0, 0.0, 2.0 / 3.0, -1.0 / 3.0])
        u_star = float(
            roots[(np.abs(roots.imag) < 1e-12) & (roots.real > 0)].real[0]
        )
        assert abs(fit.phi - 2.0 * math.log(u_star)) < 1e-9
        assert fit.kind is linmod.PropensityKind.LOGISTIC_EXTENDED
        # pins the solver's cost: 9 distinct evaluations of g here (11
        # when brentq recomputed the two bracket ends)
        assert fit.iterations <= 9

    def test_moment_residual_small_after_solve(self):
        base, m_reg, mu_ols, T, _ = self.quartic_setup()
        h = m_reg.m_hat - mu_ols
        fit = linmod.fit_extended_propensity(base, h, T)
        g = np.mean(
            ((T == 1) / fit.pi_hat - 1.0) * (m_reg.m_hat - mu_ols)
        )
        assert abs(float(g)) <= 1e-8

    def test_bounded_dr_becomes_weighted_mean(self, wrong_view):
        base = linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)
        m_reg = linmod.fit_outcome_reg(wrong_view)
        mu_ols = mu_from_regression(m_reg.m_hat)
        h = m_reg.m_hat - mu_ols
        ext = linmod.fit_extended_propensity(base, h, wrong_view.T)
        left = mu_b_dr(ext.pi_hat, m_reg.m_hat, wrong_view.T, wrong_view.y_observed)
        right = mu_ipw_pop(ext.pi_hat, wrong_view.T, wrong_view.y_observed)
        assert abs(left - right) <= 1e-8

    def test_zero_phi_when_fitted_values_constant(self):
        design_pi = np.ones((4, 1))
        T = np.array([1, 0, 1, 0])
        view = view_from(np.ones((4, 1)), T, np.array([2.0, 0.0, 2.0, 0.0]),
                         design_pi=design_pi)
        base = linmod.fit_logistic_propensity(design_pi, T)
        m_reg = linmod.fit_outcome_reg(view)
        mu_ols = mu_from_regression(m_reg.m_hat)
        fit = linmod.fit_extended_propensity(base, m_reg.m_hat - mu_ols, T)
        assert fit.phi == 0.0
        assert np.array_equal(fit.pi_hat, base.pi_hat)

    def test_one_signed_moment_has_no_root(self):
        # eta = 0; h = (1, -1) gives g(phi) = (exp(-phi) + 1) / 2 > 0 and
        # h = (-1, 1) gives g(phi) = -(exp(phi) + 1) / 2 < 0
        design_pi = np.ones((2, 1))
        T = np.array([1, 0])
        base = linmod.fit_logistic_propensity(design_pi, T)
        for h in ([1.0, -1.0], [-1.0, 1.0]):
            with pytest.raises(NoRootError):
                linmod.fit_extended_propensity(base, np.array(h), T)

    def test_flat_moment_has_no_root(self):
        # h = 0 on the respondent: g(phi) = -1/2 for every phi, g' = 0
        design_pi = np.ones((2, 1))
        T = np.array([1, 0])
        base = linmod.fit_logistic_propensity(design_pi, T)
        with pytest.raises(NoRootError):
            linmod.fit_extended_propensity(base, np.array([0.0, 1.0]), T)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_root_exactly_at_bracket_probe(self, sign):
        # eta = 0 and h = sign * (1, exp(-1)):
        # g(phi) = sign * (exp(-sign * phi) - exp(-1)) / 2, zero at phi = sign
        design_pi = np.ones((2, 1))
        T = np.array([1, 0])
        base = linmod.fit_logistic_propensity(design_pi, T)
        h = sign * np.array([1.0, math.exp(-1.0)])
        fit = linmod.fit_extended_propensity(base, h, T)
        assert fit.phi == sign

    def test_requires_logistic_base(self):
        base, m_reg, mu_ols, T, _ = self.quartic_setup()
        inv = linmod.fit_inverse_linear(np.ones((4, 1)), T, "unconstrained_moment")
        with pytest.raises(InvalidArgumentError):
            linmod.fit_extended_propensity(inv, m_reg.m_hat - mu_ols, T)

    def test_rejects_mismatched_direction_length(self):
        base, m_reg, mu_ols, T, _ = self.quartic_setup()
        with pytest.raises(InvalidArgumentError):
            linmod.fit_extended_propensity(base, np.zeros(3), T)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(linmod, name)
    monkeypatch.setattr(linmod, name, lambda *a: calls.append(1) or real(*a))
    return calls


class TestGramNewton:
    @pytest.mark.parametrize("z", [True, False], ids=["Z", "X"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_well_conditioned_fit_needs_no_lstsq(self, monkeypatch, seed, z):
        calls = _spy(monkeypatch, "_equilibrated_lstsq")
        view = make_view(generate_sample(1000, seed), z, z)
        linmod.fit_logistic_propensity(view.design_pi, view.T)
        assert calls == []

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_near_collinear_design_falls_back(self, monkeypatch, eps):
        s = generate_sample(500, 4)
        z = s.Z[:, 0]
        design = np.column_stack([np.ones(s.n), z, z + eps * s.Z[:, 1], s.Z[:, 2]])
        calls = _spy(monkeypatch, "_equilibrated_lstsq")
        fit = linmod.fit_logistic_propensity(design, s.T)
        assert calls
        monkeypatch.undo()

        def no_cholesky(a):
            raise np.linalg.LinAlgError("lstsq steps only")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        ref = linmod.fit_logistic_propensity(design, s.T)
        assert fit.iterations == ref.iterations
        assert np.max(np.abs(fit.alpha - ref.alpha)) <= 1e-10 * np.max(np.abs(ref.alpha))

    def test_newton_steps_pinned(self):
        # Newton solves over 20 fits each
        totals = {}
        for z in (True, False):
            totals[z] = sum(
                linmod.fit_logistic_propensity(v.design_pi, v.T).iterations
                for v in (make_view(generate_sample(1000, s), z, z) for s in range(20))
            )
        assert totals == {True: 101, False: 114}

    @pytest.mark.parametrize("name", ["inv", "lstsq", "logistic"])
    def test_linalg_error_becomes_drmean_error(self, monkeypatch, name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "inv" if name == "inv" else "lstsq", fail)
        if name != "inv":  # a failed Cholesky test sends the solve to lstsq
            monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(NonconvergenceError, match="SVD did not converge"):
            if name == "logistic":
                linmod.fit_logistic_propensity(np.eye(3), np.array([1, 0, 1]))
            else:
                linmod._wls(np.eye(3), np.ones(3), None)


class TestGramOutcomeSolve:
    FITS = [("reg", False), ("wls", True), ("ext_reg", True), ("ipw_nr", True)]

    @pytest.mark.parametrize("kind, weighted", FITS)
    def test_gram_and_lstsq_paths_agree(self, monkeypatch, wrong_view, pi_fit, kind,
                                        weighted):
        fit = getattr(linmod, f"fit_outcome_{kind}")
        args = (pi_fit.pi_hat,) if weighted else ()
        calls = _spy(monkeypatch, "_equilibrated_lstsq")
        gram = fit(wrong_view, *args)
        assert calls == []
        monkeypatch.setattr(linmod, "_gram_solver", lambda design, w: None)
        ref = fit(wrong_view, *args)
        assert calls
        err = np.max(np.abs(gram.m_hat - ref.m_hat))
        assert err <= 1e-12 * np.max(np.abs(ref.m_hat))
        assert gram.iterations == ref.iterations == 2

    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    def test_near_collinear_design_falls_back(self, monkeypatch, eps):
        s = generate_sample(500, 4)
        z = s.Z[:, 0]
        design = np.column_stack([np.ones(s.n), z, z + eps * s.Z[:, 1], s.Z[:, 2]])
        view = view_from(design, s.T, s.Y)
        calls = _spy(monkeypatch, "_equilibrated_lstsq")
        fit = linmod.fit_outcome_reg(view)
        assert len(calls) == fit.iterations == 2

    def test_shared_design_gives_the_same_fit(self, wrong_view, pi_fit):
        design = linmod.RespondentDesign(wrong_view)
        for kind, weighted in self.FITS:
            fit = getattr(linmod, f"fit_outcome_{kind}")
            args = (pi_fit.pi_hat,) if weighted else ()
            shared = fit(wrong_view, *args, _design=design)
            alone = fit(wrong_view, *args)
            assert np.array_equal(shared.beta, alone.beta), kind
            assert np.array_equal(shared.m_hat, alone.m_hat), kind


class TestNewtonExtension:
    @pytest.fixture(scope="class")
    def solves(self):
        # 20 samples: the Z and X views of ten n = 1000 draws, each extended
        # along its centred unweighted regression
        out = []
        for seed in range(10):
            sample = generate_sample(1000, seed)
            for z in (True, False):
                view = make_view(sample, z, z)
                base = linmod.fit_logistic_propensity(view.design_pi, view.T)
                m_hat = linmod.fit_outcome_reg(view).m_hat
                h = m_hat - np.mean(m_hat)
                out.append((base, h, view.T,
                            linmod.fit_extended_propensity(base, h, view.T)))
        return out

    def test_phi_matches_brent_reference(self, solves):
        from scipy.optimize import brentq

        for base, h, T, fit in solves:
            resp = T == 1

            def g(phi):
                return float(np.mean(np.where(resp, np.exp(-(base.eta + phi * h)), -1.0) * h))

            b = math.copysign(1.0, g(0.0)) / np.max(np.abs(h))
            while g(b) * g(0.0) > 0:
                b *= 2.0
            ref = brentq(g, min(0.0, b), max(0.0, b), xtol=1e-300,
                         rtol=4 * np.finfo(float).eps)
            assert abs(fit.phi - ref) <= 1e-12 * abs(ref)

    def test_few_g_evaluations(self, solves):
        assert np.mean([fit.iterations for *_, fit in solves]) <= 5


class TestEquilibrate:
    def test_scale_is_the_root_mean_square(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            design = rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-150, 150, 4)
            design[:, rng.integers(4)] = 0.0
            want = np.sqrt(np.mean(design * design, axis=0))
            want[want == 0.0] = 1.0
            xs, scale = linmod._equilibrate(design)
            assert np.array_equal(scale, want)
            assert np.array_equal(xs, design / want)

    def test_scale_is_finite_for_huge_columns(self):
        design = np.array([[1e300, 1.7e308, 0.0], [-1e300, -1.5e308, 0.0]])
        _, scale = linmod._equilibrate(design)
        assert scale[0] == 1e300 and scale[2] == 1.0
        assert scale[1] == pytest.approx(math.sqrt((1.7**2 + 1.5**2) / 2) * 1e308, rel=1e-15)


class TestResponseIndicators:
    """Every public fit and weight summary rejects a T that is not 0/1."""

    @pytest.fixture(params=[2, 0.5], ids=["two", "half"])
    def case(self, request, sample_1000):
        # the logistic fit with T = 2 or 0.5 reported convergence
        view = make_view(sample_1000, True, True)
        T = view.T.astype(float)
        T[:5] = request.param
        return view, T

    def fits(self, view, T):
        design = view.design_pi
        base = linmod.fit_logistic_propensity(design, view.T)
        bad_view = AnalysisView(design, design, T, view.y_observed)
        pi_hat = np.full(len(T), 0.5)
        return {
            "logistic": lambda: linmod.fit_logistic_propensity(design, T),
            **{method: lambda method=method: linmod.fit_inverse_linear(design, T, method)
               for method in linmod.INV_LINEAR_METHODS},
            "extended": lambda: linmod.fit_extended_propensity(base, base.eta, T),
            "diagnostics": lambda: linmod.weight_diagnostics(base.pi_hat, T),
            "reg": lambda: linmod.fit_outcome_reg(bad_view),
            "wls": lambda: linmod.fit_outcome_wls(bad_view, pi_hat),
            "ipw_nr": lambda: linmod.fit_outcome_ipw_nr(bad_view, pi_hat),
            "ext_reg": lambda: linmod.fit_outcome_ext_reg(bad_view, pi_hat),
        }

    @pytest.mark.parametrize("name", ["logistic", *linmod.INV_LINEAR_METHODS, "extended",
                                      "diagnostics", "reg", "wls", "ipw_nr", "ext_reg"])
    def test_rejected(self, case, name):
        with pytest.raises(InvalidArgumentError, match="T must be a 1-d array of 0/1"):
            self.fits(*case)[name]()

    def test_extension_needs_one_indicator_per_unit(self, sample_1000):
        # a short T raised numpy's IndexError
        view = make_view(sample_1000, True, True)
        base = linmod.fit_logistic_propensity(view.design_pi, view.T)
        with pytest.raises(InvalidArgumentError, match="one entry per unit"):
            linmod.fit_extended_propensity(base, base.eta, view.T[:-1])


class TestWeightDiagnostics:
    def test_hand_values(self):
        d = linmod.weight_diagnostics(np.array([0.5, 0.1, 0.25]), np.array([1, 0, 1]))
        assert d.min_pi == 0.1
        assert d.max_inv_pi_respondents == 4.0
        assert d.max_inv_pi_nonrespondents == 10.0
        assert np.isclose(d.var_inv_pi, 104.0 / 9.0, rtol=1e-12)

    def test_empty_groups_report_zero(self):
        d = linmod.weight_diagnostics(np.array([0.5, 0.5]), np.array([1, 1]))
        assert d.max_inv_pi_nonrespondents == 0.0
        d = linmod.weight_diagnostics(np.array([0.5, 0.5]), np.array([0, 0]))
        assert d.max_inv_pi_respondents == 0.0

    def test_zero_units_rejected(self):
        # numpy's ValueError: zero-size array to reduction operation minimum
        with pytest.raises(InvalidArgumentError, match="T and pi_hat hold no units"):
            linmod.weight_diagnostics(np.array([]), np.array([], dtype=np.int64))

    def test_reported_for_base_propensity_fit(self, wrong_view):
        fit = linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)
        d = estimate_all(wrong_view).diagnostics
        assert d == linmod.weight_diagnostics(fit.pi_hat, wrong_view.T)
        assert 0.0 < d.min_pi < 1.0
        assert d.max_inv_pi_respondents > 1.0
        assert d.max_inv_pi_nonrespondents > 1.0
        assert d.var_inv_pi > 0.0


class TestStepStop:
    """Every Newton-type fit stops after the step that moves no x'beta by
    more than its tolerance, a rule free of the columns' units."""

    @pytest.fixture(scope="class")
    def estimates(self):
        out = []
        for n, seed in ((200, 0), (200, 1), (1000, 0)):
            sample = generate_sample(n, seed)
            for z in (True, False):
                view = make_view(sample, z, z)
                out.append((sample, view, estimate_all(view, sample)))
        return out

    @staticmethod
    def moved(sample, view, ref, field, design):
        got = estimate_all(dataclasses.replace(view, **{field: design}), sample)
        assert got.flags == ref.flags
        return max(abs(got.values[k] - v) / abs(v) for k, v in ref.values.items())

    @pytest.mark.parametrize("field", ["design_pi", "design_m"])
    def test_power_of_two_column_scaling_moves_no_bit(self, estimates, field):
        for sample, view, ref in estimates:
            for j in range(1, getattr(view, field).shape[1]):
                for k in (-20, -10, 10, 20):
                    design = getattr(view, field).copy()
                    design[:, j] = np.ldexp(design[:, j], k)
                    assert self.moved(sample, view, ref, field, design) == 0.0, (j, k)

    @pytest.mark.parametrize("field", ["design_pi", "design_m"])
    def test_other_units_agree_to_rounding(self, estimates, field):
        # a column times 1000, and an invertible affine map of the
        # non-intercept columns (condition number 3.3)
        a = np.array([[2.0, 0.5, 0.0, 0.0], [0.0, 1.0, -0.5, 0.0],
                      [0.0, 0.0, 3.0, 0.5], [0.5, 0.0, 0.0, 1.0]])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        for sample, view, ref in estimates:
            base = getattr(view, field)
            for j in range(1, base.shape[1]):
                design = base.copy()
                design[:, j] *= 1000.0
                assert self.moved(sample, view, ref, field, design) <= 1e-13, j
            design = base.copy()
            design[:, 1:] = base[:, 1:] @ a + b
            assert self.moved(sample, view, ref, field, design) <= 1e-13

    def test_probe_scores_at_rounding_level(self):
        # the mean scores of 32 logistic fits, in the units of the raw
        # designs, end at rounding level whatever those units
        worst = 0.0
        for n in (200, 1000):
            for seed in range(8):
                sample = generate_sample(n, seed)
                for z in (True, False):
                    view = make_view(sample, z, z)
                    fit = linmod.fit_logistic_propensity(view.design_pi, view.T)
                    resid = view.T - fit.pi_hat
                    worst = max(worst, max(abs(math.fsum(col * resid)) / n
                                           for col in view.design_pi.T))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind", ["logistic", "reg", "wls", "ext_reg", "ipw_nr"])
    def test_every_fit_raises_at_its_cap(self, monkeypatch, wrong_view, pi_fit, kind):
        # a negative tolerance, which no step meets
        monkeypatch.setattr(linmod, "ETA_STEP_TOL", -1.0)
        monkeypatch.setattr(linmod, "FIT_STEP_RTOL", -1.0)
        solves = _spy(monkeypatch, "_newton_step" if kind == "logistic" else
                      "_equilibrated_lstsq")
        if kind != "logistic":  # count every outcome solve on the lstsq path
            monkeypatch.setattr(linmod, "_gram_solver", lambda design, w: None)
        with pytest.raises(NonconvergenceError, match="no convergence in 100"):
            if kind == "logistic":
                linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)
            else:
                args = () if kind == "reg" else (pi_fit.pi_hat,)
                getattr(linmod, f"fit_outcome_{kind}")(wrong_view, *args)
        assert len(solves) == linmod.IRLS_MAX_ITER

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [1e300, 1e304, 1e305])
    @pytest.mark.parametrize("z", [True, False], ids=["Z", "X"])
    def test_huge_outcomes_fit_or_fail_cleanly(self, z, factor):
        # X'y overflows from about 1e303 on: a DrmeanError, no warning
        view = make_view(generate_sample(1000, 3), z, z)
        pi_hat = linmod.fit_logistic_propensity(view.design_pi, view.T).pi_hat
        big = dataclasses.replace(view, y_observed=view.y_observed * factor)
        for kind in ("reg", "wls", "ext_reg", "ipw_nr"):
            args = () if kind == "reg" else (pi_hat,)
            try:
                fit = getattr(linmod, f"fit_outcome_{kind}")(big, *args)
            except DrmeanError:
                continue
            assert np.all(np.isfinite(fit.m_hat)), kind


class TestUnitArrays:
    """A per-unit array whose shape differs from T's is rejected by name; each
    of these raised numpy's IndexError or ValueError."""

    @pytest.fixture(scope="class")
    def case(self):
        view = make_view(generate_sample(50, 1), True, True)
        pi = linmod.fit_logistic_propensity(view.design_pi, view.T).pi_hat
        return view, pi

    def test_weight_diagnostics(self, case):
        view, pi = case
        with pytest.raises(InvalidArgumentError, match="pi_hat length must match T"):
            linmod.weight_diagnostics(pi[:-1], view.T)

    @pytest.mark.parametrize("fit", [linmod.fit_outcome_wls, linmod.fit_outcome_ext_reg,
                                     linmod.fit_outcome_ipw_nr])
    @pytest.mark.parametrize("shape", ["short", "column"])
    def test_weighted_outcome_fits(self, case, fit, shape):
        view, pi = case
        bad = pi[:-1] if shape == "short" else pi[:, None]
        with pytest.raises(InvalidArgumentError, match="pi_hat length must match T"):
            fit(view, bad)

    def test_outcome_rows_must_match_t(self, case):
        view, _ = case
        short = AnalysisView(view.design_pi, view.design_m, view.T[:-1], view.y_observed[:-1])
        with pytest.raises(InvalidArgumentError, match="design_m rows must match T"):
            linmod.fit_outcome_reg(short)

    def test_outcomes_must_match_t(self, case):
        view, _ = case
        short_y = dataclasses.replace(view, y_observed=view.y_observed[:-1])
        with pytest.raises(InvalidArgumentError, match="y_observed length must match T"):
            linmod.RespondentDesign(short_y)
