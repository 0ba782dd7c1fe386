import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmean import errors, linmod
from drmean._util import fsum_col_means
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
        beta = linmod.irls_fit(design, y)
        assert np.allclose(beta, [5.0 / 6.0, 3.0 / 2.0], rtol=1e-12)
        assert np.allclose(np.array([1.0, 3.0]) @ beta, 16.0 / 3.0, rtol=1e-12)

    def test_wls_hand_solution(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 4.0])
        w = np.array([4.0, 2.0, 1.0])
        beta = linmod.irls_fit(design, y, unit_weights=w)
        assert np.allclose(beta, [12.0 / 13.0, 18.0 / 13.0], rtol=1e-12)

    def test_exact_fit_recovers_coefficients(self):
        rng = np.random.default_rng(5)
        design = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        beta0 = np.array([2.0, -1.0, 0.5, 3.0])
        beta = linmod.irls_fit(design, design @ beta0)
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
        b1 = linmod.irls_fit(design, y, unit_weights=w)
        b2 = linmod.irls_fit(design, y, unit_weights=w * scale)
        assert np.allclose(b1, b2, rtol=1e-9)

    def test_zero_weight_rows_ignored(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 9.0]])
        y = np.array([1.0, 2.0, 4.0, 500.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        beta = linmod.irls_fit(design, y, unit_weights=w)
        assert np.allclose(beta, [5.0 / 6.0, 3.0 / 2.0], rtol=1e-10)

    def test_duplicate_column_raises(self):
        design = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularDesignError):
            linmod.irls_fit(design, np.array([1.0, 2.0, 3.0]))

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(SingularDesignError):
            linmod.irls_fit(np.ones((2, 3)), np.array([1.0, 2.0]))

    def test_negative_weight_raises(self):
        design = np.ones((3, 1))
        with pytest.raises(InvalidWeightError):
            linmod.irls_fit(design, np.array([1.0, 2.0, 3.0]),
                            unit_weights=np.array([1.0, -1.0, 1.0]))

    def test_all_zero_weights_raise(self):
        design = np.ones((3, 1))
        with pytest.raises(InvalidWeightError):
            linmod.irls_fit(design, np.array([1.0, 2.0, 3.0]),
                            unit_weights=np.zeros(3))

    def test_nonfinite_response_raises(self):
        design = np.ones((3, 1))
        with pytest.raises(InvalidArgumentError):
            linmod.irls_fit(design, np.array([1.0, np.nan, 3.0]))

    @pytest.mark.parametrize("shift", [1e8, 1e12])
    def test_shifted_response_stops_at_working_precision(self, wrong_view, shift):
        # y - x'beta cancels 8 to 12 digits of y; the rounding of the
        # residual itself must count, or no pass meets SCORE_TOL
        resp = wrong_view.T == 1
        design, y = wrong_view.design_m[resp], wrong_view.y_observed[resp]
        beta, passes = linmod._wls(design, y + shift, None)
        ref = linmod.irls_fit(design, y)
        assert passes <= 2
        m_hat, want = wrong_view.design_m @ beta - shift, wrong_view.design_m @ ref
        assert np.max(np.abs(m_hat - want)) <= 1e-14 * shift

    def test_pass_cap_raises(self, monkeypatch):
        checks = []
        monkeypatch.setattr(
            linmod, "_score_within", lambda *args: checks.append(args) or False
        )
        design = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(NonconvergenceError):
            linmod.irls_fit(design, np.array([1.0, 2.0, 4.0, 3.0]))
        assert len(checks) == linmod.IRLS_MAX_ITER


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

    @pytest.mark.parametrize("start", [np.zeros(4), np.full(5, np.nan)],
                             ids=["length", "nan"])
    def test_bad_start_rejected(self, right_view, start):
        with pytest.raises(InvalidArgumentError, match="start"):
            linmod.fit_logistic_propensity(right_view.design_pi, right_view.T, start)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fit_needs_no_exact_sum(self, monkeypatch, seed):
        # the stopping tests of the logistic fit and of the four outcome fits
        # on the raw-scale X design decide on the numpy score sums alone
        calls = []
        exact = linmod.fsum_col_means
        monkeypatch.setattr(
            linmod, "fsum_col_means", lambda m: calls.append(m.shape) or exact(m)
        )
        view = make_view(generate_sample(1000, seed), True, False)
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

    def test_ext_reg_constant_pi_collinear(self, wrong_view):
        pi = np.full(len(wrong_view.T), 0.4)
        with pytest.raises(SingularDesignError):
            linmod.fit_outcome_ext_reg(wrong_view, pi)


class TestInverseLinear:
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
        for method in ("likelihood", "moment"):
            fit = linmod.fit_inverse_linear(design, T, method)
            assert np.allclose(fit.alpha, [4.0 / 3.0], atol=1e-6), method
            assert np.allclose(fit.pi_hat, 0.75, atol=1e-6), method

    def test_likelihood_respects_constraints(self, wrong_view):
        fit = linmod.fit_inverse_linear(wrong_view.design_pi, wrong_view.T,
                                        "likelihood")
        assert np.all(fit.eta >= 1.0 + 1e-6 - 1e-9)
        assert np.all(fit.pi_hat <= 1.0 + 1e-12)
        assert np.all(fit.pi_hat > 0)

    def test_moment_respects_constraints(self, wrong_view):
        fit = linmod.fit_inverse_linear(wrong_view.design_pi, wrong_view.T,
                                        "moment")
        assert np.all(fit.eta >= 1e-6 - 1e-9)

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
        for method in ("likelihood", "moment", "unconstrained_moment"):
            try:
                fit = linmod.fit_inverse_linear(design, view.T, method)
            except DrmeanError:
                continue
            assert np.all(np.isfinite(fit.alpha)), method
        big = AnalysisView(design.copy(), design, view.T, view.y_observed)
        out = estimate_all(big, s)
        for name, msg in out.messages.items():
            assert issubclass(getattr(errors, msg.split(":")[0]), DrmeanError), name

    def test_non_finite_slsqp_result_raises(self, monkeypatch, wrong_view):
        class Result:
            x = np.full(5, np.nan)
            status, success, nit, message = 0, True, 3, "done"

        monkeypatch.setattr(linmod, "minimize", lambda *a, **k: Result())
        with pytest.raises(NonconvergenceError, match="non-finite"):
            linmod.fit_inverse_linear(wrong_view.design_pi, wrong_view.T, "moment")


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
        inv = linmod.fit_inverse_linear(np.ones((4, 1)), T, "moment")
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
        # the totals of the SVD least squares steps these fits replaced
        totals = {}
        for z in (True, False):
            totals[z] = sum(
                linmod.fit_logistic_propensity(v.design_pi, v.T).iterations
                for v in (make_view(generate_sample(1000, s), z, z) for s in range(20))
            )
        assert totals == {True: 120, False: 120}

    @pytest.mark.parametrize("name", ["lstsq", "svd"])
    def test_linalg_error_becomes_drmean_error(self, monkeypatch, name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(NonconvergenceError, match="SVD did not converge"):
            if name == "lstsq":
                linmod.irls_fit(np.eye(3), np.ones(3))
            else:
                linmod.fit_logistic_propensity(np.eye(3), np.array([1, 0, 1]))


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

    def test_reported_for_base_propensity_fit(self, wrong_view):
        fit = linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)
        d = estimate_all(wrong_view).diagnostics
        assert d == linmod.weight_diagnostics(fit.pi_hat, wrong_view.T)
        assert 0.0 < d.min_pi < 1.0
        assert d.max_inv_pi_respondents > 1.0
        assert d.max_inv_pi_nonrespondents > 1.0
        assert d.var_inv_pi > 0.0


def exact_within(terms, tol):
    return bool(np.max(np.abs(fsum_col_means(terms))) <= tol)


@st.composite
def score_cases(draw):
    """(design, q, tol) with score-like products design * q: mixed scales,
    heavy cancellation, and exact column sums placed within a few ulps of
    +-tol * n.  q is all ones, random signed powers of two (so that the
    products keep those exact sums), or standard normal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-10, 1e-13, 3.7e-6, 1.0]))
    pairs = draw(st.integers(0, 30))
    n = 2 * pairs + 1
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        scale = 10.0 ** draw(st.integers(-12, 16))
        kind = draw(st.sampled_from(["plain", "cancel", "edge"]))
        if kind == "plain":
            cols.append(rng.standard_normal(n) * scale)
            continue
        if kind == "cancel":
            last = rng.uniform(-2.0, 2.0) * tol * n
        else:
            last = draw(st.sampled_from([-1.0, 1.0])) * tol * n
            for _ in range(draw(st.integers(0, 3))):
                last = np.nextafter(last, draw(st.sampled_from([-np.inf, np.inf])))
        x = rng.standard_normal(pairs) * scale
        col = np.concatenate([x, -x, [last]])  # exact sum: last
        cols.append(rng.permutation(col))
    terms = np.column_stack(cols)
    q_kind = draw(st.sampled_from(["ones", "pow2", "normal"]))
    if q_kind == "ones":
        return terms, np.ones(n), tol
    if q_kind == "pow2":
        q = np.ldexp(rng.choice([-1.0, 1.0], n), rng.integers(-30, 31, n))
        return terms / q[:, None], q, tol  # design * q == terms exactly
    return terms, rng.standard_normal(n), tol


def rounding_bound(design, q):
    n = design.shape[0]
    return 2.0 * (n + 1) * 2.0**-53 * (np.abs(design).T @ np.abs(q))


class TestScoreWithin:
    @settings(max_examples=300, deadline=None)
    @given(score_cases())
    def test_brackets_the_exact_decision(self, case):
        # exactly within tol => True => exactly within tol + 2 e / n
        design, q, tol = case
        got = linmod._score_within(design, q, 0.0, tol)
        if exact_within(design * q[:, None], tol):
            assert got is True
        if got:
            means = np.abs(fsum_col_means(design * q[:, None]))
            assert np.all(means <= tol + 2.0 * rounding_bound(design, q) / len(q))

    @settings(max_examples=300, deadline=None)
    @given(score_cases(), st.integers(-60, 60))
    def test_decision_is_scale_free(self, case, k):
        design, q, _ = case
        want = linmod._score_within(design, q, 0.0, 0.0)
        assert linmod._score_within(design, np.ldexp(q, k), 0.0, 0.0) is want

    def test_cancellation_within_rounding_is_converged(self):
        # exact means 1/3 and 64/3; the rounding bound e is about 17.8
        design = np.array([[1e16], [1.0], [-1e16]])
        assert rounding_bound(design, np.ones(3))[0] > 1.0
        assert linmod._score_within(design, np.ones(3), 0.0, 1e-10) is True
        design[1, 0] = 64.0
        assert 64.0 - rounding_bound(design, np.ones(3))[0] > 1e-10 * 3
        assert linmod._score_within(design, np.ones(3), 0.0, 1e-10) is False

    def test_weights_enter_the_products(self):
        # products [1e16, 64, -1e16]: exact mean 64/3, beyond the bound
        design = np.array([[1e16], [64.0], [1e16]])
        q = np.array([1.0, 1.0, -1.0])
        assert linmod._score_within(design, q, 0.0, 1e-10) is False
        q = np.array([1.0, 0.0, -1.0])
        assert linmod._score_within(design, q, 0.0, 1e-10) is True

    def test_nan_column_is_not_within(self):
        design = np.array([[0.0, np.nan], [0.0, 1.0]])
        assert linmod._score_within(design, np.ones(2), 0.0, 1e-10) is False

    def test_error_in_q_widens_the_bound(self):
        # mean score 1e-9 > tol, but each q_i may be off by 1e-9
        design, q = np.ones((2, 1)), np.full(2, 1e-9)
        assert linmod._score_within(design, q, 0.0, 1e-10) is False
        assert linmod._score_within(design, q, np.full(2, 1e-9), 1e-10) is True

    def test_infinite_bound_is_not_within(self):
        # the products cancel exactly, but the bound |design|.T @ q_err overflows
        design = np.array([[10.0], [10.0]])
        q_err = np.array([1e308, 1e308])
        assert linmod._score_within(design, np.array([1.0, -1.0]), q_err, 1e-10) is False
