import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmean import linmod
from drmean._util import fsum_col_means
from drmean.dgp import AnalysisView, generate_sample, make_view
from drmean.errors import (
    InvalidArgumentError,
    InvalidWeightError,
    NoRootError,
    NonconvergenceError,
    SingularDesignError,
)
from drmean.estimators import mu_b_dr, mu_from_regression, mu_ipw_pop


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fit_needs_no_exact_sum(self, monkeypatch, seed):
        # the error bound of the numpy score sums settles every stopping test
        calls = []
        exact = linmod.fsum_col_means
        monkeypatch.setattr(
            linmod, "fsum_col_means", lambda m: calls.append(m.shape) or exact(m)
        )
        view = make_view(generate_sample(1000, seed), True, True)
        linmod.fit_logistic_propensity(view.design_pi, view.T)
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

    def test_attached_to_propensity_fit(self, wrong_view):
        fit = linmod.fit_logistic_propensity(wrong_view.design_pi, wrong_view.T)
        d = fit.diagnostics
        assert 0.0 < d.min_pi < 1.0
        assert d.max_inv_pi_respondents > 1.0
        assert d.max_inv_pi_nonrespondents > 1.0
        assert d.var_inv_pi > 0.0


def exact_within(terms, tol):
    return bool(np.max(np.abs(fsum_col_means(terms))) <= tol)


@st.composite
def score_terms(draw):
    """Score-like columns: mixed scales, heavy cancellation, and exact
    column sums placed within a few ulps of +-tol * n."""
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
    return np.column_stack(cols), tol


class TestScoreWithin:
    @settings(max_examples=300, deadline=None)
    @given(score_terms())
    def test_agrees_with_exact_sums(self, case):
        terms, tol = case
        assert linmod._score_within(terms, tol) == exact_within(terms, tol)

    def test_cancellation_is_summed_exactly(self):
        # the numpy sum is 0, the exact mean is 1/3
        terms = np.array([[1e16], [1.0], [-1e16]])
        assert float(np.sum(terms)) == 0.0
        assert linmod._score_within(terms, 1e-10) is False

    def test_nan_column_is_not_within(self):
        terms = np.array([[0.0, np.nan], [0.0, 1.0]])
        assert linmod._score_within(terms, 1e-10) is False
