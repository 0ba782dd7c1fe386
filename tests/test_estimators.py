import dataclasses
import gc
import math
import re
import traceback
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drmean import estimators as est
from drmean import linmod, mc
from drmean import sensitivity as sens
from drmean.dgp import (
    AnalysisView,
    FullSample,
    design_matrix,
    generate_sample,
    make_view,
    reverse_roles,
)
from drmean.errors import (
    DrmeanError,
    InvalidArgumentError,
    InvalidWeightError,
    NonconvergenceError,
    UndefinedEstimatorError,
)
from drmean.linmod import RespondentDesign

# the linmod calls a Pipeline makes, each memoised once per key; the
# draw fit serves a Pipeline given pi_start
PIPELINE_FITS = ("fit_logistic_propensity", "_fit_logistic_draw", "weight_diagnostics",
                 "RespondentDesign", "fit_outcome_reg", "fit_outcome_wls",
                 "fit_outcome_ipw_nr", "fit_outcome_ext_reg", "fit_extended_propensity")


def count_calls(monkeypatch, module, names) -> dict:
    """The number of calls to each of module's names from now on, by name; a
    class is counted by its __init__, so it stays a class for isinstance."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)
        owner, attr = (real, "__init__") if isinstance(real, type) else (module, name)

        def spy(*args, _name=name, _real=getattr(owner, attr), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    return counts


# one fully worked example shared by the point-estimator tests:
# units (respondent?, pi_hat, y, m_hat)
TOY_T = np.array([1, 1, 0, 1])
TOY_PI = np.array([0.5, 0.25, 0.9, 1.0])
TOY_Y = np.array([1.0, 2.0, np.nan, 3.0])
TOY_M = np.array([1.0, 1.0, 2.0, 2.0])


class TestPointEstimators:
    def test_ht(self):
        # (2*1 + 4*2 + 1*3) / 4
        assert est.mu_ht(TOY_PI, TOY_T, TOY_Y) == 13.0 / 4.0

    def test_ipw_pop(self):
        # same numerator over the summed weights 2 + 4 + 1
        assert est.mu_ipw_pop(TOY_PI, TOY_T, TOY_Y) == 13.0 / 7.0

    def test_aipw(self):
        # mean(m_hat) + (2*0 + 4*1 + 1*1) / 4
        assert est.mu_aipw(TOY_PI, TOY_M, TOY_T, TOY_Y) == 1.5 + 5.0 / 4.0

    def test_b_dr(self):
        # correction renormalised by the summed weights
        assert est.mu_b_dr(TOY_PI, TOY_M, TOY_T, TOY_Y) == 1.5 + 5.0 / 7.0

    def test_regression_form(self):
        assert est.mu_from_regression(TOY_M) == 1.5

    def test_full(self):
        assert est.mu_full(np.array([1.0, 2.0, 5.0, 3.0])) == 11.0 / 4.0

    def test_overflowing_sums_are_undefined(self):
        # w y and the exact sum of the outcomes overflow the float range
        with pytest.raises(UndefinedEstimatorError, match="overflow"):
            est.mu_ht(np.array([1e-10, 0.5]), np.array([1, 1]), np.array([1e300, 1.0]))
        with pytest.raises(UndefinedEstimatorError, match="overflow"):
            est.mu_full(np.array([1e308, 1e308]))

    def test_weight_overflow_is_invalid(self):
        # pi_hat is positive, but 1 / pi_hat overflows
        with pytest.raises(InvalidWeightError):
            est.mu_ipw_pop(np.array([1e-310, 0.5]), np.array([1, 1]), np.array([1.0, 2.0]))

    def test_no_respondents_rejected(self):
        with pytest.raises(UndefinedEstimatorError):
            est.mu_ht(TOY_PI, np.zeros(4, dtype=int), TOY_Y)

    def test_nonpositive_weight_rejected(self):
        pi = TOY_PI.copy()
        pi[0] = 0.0
        with pytest.raises(InvalidWeightError):
            est.mu_ipw_pop(pi, TOY_T, TOY_Y)

    def test_nonpositive_pi_on_nonrespondent_tolerated(self):
        pi = TOY_PI.copy()
        pi[2] = 0.0  # nonrespondent: its weight is never formed
        assert est.mu_ht(pi, TOY_T, TOY_Y) == 13.0 / 4.0

    def test_full_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            est.mu_full(TOY_Y)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidArgumentError):
            est.mu_ht(TOY_PI[:3], TOY_T, TOY_Y)
        with pytest.raises(InvalidArgumentError):
            est.mu_ht(TOY_PI, TOY_T, TOY_Y[:3])

    @pytest.mark.parametrize("fn", [est.mu_aipw, est.mu_b_dr])
    @pytest.mark.parametrize("length", [2, 4])
    def test_m_hat_length_must_match(self, fn, length):
        T = np.array([1, 0, 1])
        with pytest.raises(InvalidArgumentError, match="m_hat length must match T"):
            fn(np.full(3, 0.5), np.ones(length), T, np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("T", [[1, 1, 0, 2], [1, 0.5, 0, 1], [[1, 1, 0, 1]]],
                             ids=["two", "half", "2-d"])
    def test_response_indicators_must_be_zero_or_one(self, T):
        # mu_ht with T = 2 returned a value
        for call in (lambda: est.mu_ht(TOY_PI, T, TOY_Y),
                     lambda: est.mu_ipw_pop(TOY_PI, T, TOY_Y),
                     lambda: est.mu_aipw(TOY_PI, TOY_M, T, TOY_Y),
                     lambda: est.mu_b_dr(TOY_PI, TOY_M, T, TOY_Y)):
            with pytest.raises(InvalidArgumentError, match="T must be a 1-d array of 0/1"):
                call()


class TestAlgebraicReductions:
    def test_aipw_with_zero_m_is_ht(self):
        m0 = np.zeros(4)
        assert est.mu_aipw(TOY_PI, m0, TOY_T, TOY_Y) == est.mu_ht(TOY_PI, TOY_T, TOY_Y)

    def test_unit_pi_full_response_is_sample_mean(self):
        T = np.ones(4, dtype=int)
        pi = np.ones(4)
        y = np.array([1.0, 2.0, 5.0, 3.0])
        assert est.mu_ht(pi, T, y) == 11.0 / 4.0
        assert est.mu_ipw_pop(pi, T, y) == 11.0 / 4.0

    def test_zero_residuals_collapse_to_plugin(self):
        # when respondents are fitted exactly, the corrections vanish term
        # by term and both DR forms equal the plug-in mean bit for bit
        y = np.where(TOY_T == 1, TOY_M, np.nan)
        plugin = est.mu_from_regression(TOY_M)
        assert est.mu_aipw(TOY_PI, TOY_M, TOY_T, y) == plugin
        assert est.mu_b_dr(TOY_PI, TOY_M, TOY_T, y) == plugin

    def test_b_dr_equals_aipw_when_weights_average_to_one(self):
        # scale pi so that sum of respondent weights is n
        resp = TOY_T == 1
        s = math.fsum(1.0 / TOY_PI[resp]) / len(TOY_T)
        pi = TOY_PI * s
        a = est.mu_aipw(pi, TOY_M, TOY_T, TOY_Y)
        b = est.mu_b_dr(pi, TOY_M, TOY_T, TOY_Y)
        assert np.isclose(a, b, rtol=1e-12)


def _case(draw, with_m=False):
    n = draw(st.integers(2, 20))
    T = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(T.any())
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    pi = np.array(draw(st.lists(st.floats(1e-8, 1.0), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    if not with_m:
        return T, pi, y
    m = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return T, pi, y, m


@st.composite
def ipw_cases(draw):
    return _case(draw)


@st.composite
def dr_cases(draw):
    return _case(draw, with_m=True)


class TestBoundedness:
    @settings(max_examples=200, deadline=None)
    @given(ipw_cases())
    def test_ipw_pop_stays_in_respondent_range(self, case):
        T, pi, y = case
        v = est.mu_ipw_pop(pi, T, y)
        yr = y[T == 1]
        slack = 1e-12 * max(1.0, float(np.max(np.abs(yr))))
        assert yr.min() - slack <= v <= yr.max() + slack

    @settings(max_examples=200, deadline=None)
    @given(dr_cases())
    def test_regression_form_stays_in_fitted_range(self, case):
        T, pi, y, m = case
        v = est.mu_from_regression(m)
        slack = 1e-12 * max(1.0, float(np.max(np.abs(m))))
        assert m.min() - slack <= v <= m.max() + slack

    @settings(max_examples=200, deadline=None)
    @given(dr_cases())
    def test_b_dr_hull_and_absolute_bound(self, case):
        T, pi, y, m = case
        v = est.mu_b_dr(pi, m, T, y)
        resid = y[T == 1] - m[T == 1]
        plugin = est.mu_from_regression(m)
        scale = max(1.0, float(np.max(np.abs(m))), float(np.max(np.abs(resid))))
        slack = 1e-12 * scale
        # correction is a convex combination of respondent residuals
        assert plugin + resid.min() - slack <= v <= plugin + resid.max() + slack
        bound = float(np.max(np.abs(resid))) + float(np.max(np.abs(m)))
        assert abs(v) <= bound + slack

    def test_tiny_pi_contrast_with_ht(self):
        # one near-zero fitted probability: the unnormalised estimator
        # explodes, the normalised one stays inside the observed range
        pi = np.array([1e-8, 0.5, 0.5, 0.5])
        T = np.ones(4, dtype=int)
        y = np.array([4.0, 1.0, 2.0, 3.0])
        ht = est.mu_ht(pi, T, y)
        pop = est.mu_ipw_pop(pi, T, y)
        assert ht > 1e7
        assert 1.0 <= pop <= 4.0


class TestEstimateAll:
    def test_all_ok_on_generated_sample(self, sample_1000, right_view):
        out = est.estimate_all(right_view, sample_1000)
        assert set(out.values) == set(est.ESTIMATOR_NAMES)
        assert all(flag == est.FLAG_OK for flag in out.flags.values())
        assert all(np.isfinite(v) for v in out.values.values())
        assert out.diagnostics is not None
        assert out.messages == {}

    def test_subset_request(self, right_view):
        out = est.estimate_all(right_view, None, ("OLS", "HT"))
        assert set(out.values) == {"OLS", "HT"}

    def test_unknown_name_rejected(self, right_view):
        with pytest.raises(InvalidArgumentError):
            est.estimate_all(right_view, None, ("OLS", "MYSTERY"))

    def test_duplicate_name_rejected(self, right_view):
        with pytest.raises(InvalidArgumentError):
            est.estimate_all(right_view, None, ("OLS", "HT", "OLS"))

    @pytest.mark.parametrize("which", [[["OLS"]], ["OLS", 1], 1.5, "OLS"],
                             ids=["list-name", "int-name", "scalar", "string"])
    def test_names_must_be_a_collection_of_strings(self, right_view, which):
        # a list name raised TypeError: unhashable type: 'list'
        with pytest.raises(InvalidArgumentError, match="estimator"):
            est.estimate_all(right_view, None, which)

    def test_response_indicators_must_be_zero_or_one(self):
        # T[:5] = 2 gave ten values and no message
        sample = generate_sample(300, 1)
        view = make_view(sample, True, True)
        view.T[:5] = 2
        out = est.estimate_all(view, sample)
        assert out.flags.pop("FULL") == est.FLAG_OK
        assert set(out.flags.values()) == {est.FLAG_FAILED}
        assert all("T must be a 1-d array of 0/1" in m for m in out.messages.values())

    def test_unweighted_request_fits_no_propensity_model(
        self, monkeypatch, sample_1000, right_view
    ):
        # diagnostics describe the propensity fit's weights, which no
        # requested estimator uses here
        fits = []
        fit = linmod.fit_logistic_propensity
        monkeypatch.setattr(linmod, "fit_logistic_propensity",
                            lambda *a, **k: fits.append(a) or fit(*a, **k))
        out = est.estimate_all(right_view, sample_1000, ("OLS", "FULL"))
        assert fits == []
        assert out.diagnostics is None
        assert set(out.flags.values()) == {est.FLAG_OK}

    def test_late_diagnostics_equal_the_eager_value(self, sample_1000):
        # read only after the four scenarios of one memo ran, each result's
        # diagnostics equal those taken at once from its own fit
        memo = {}
        views = [make_view(sample_1000, p, m)
                 for p in (True, False) for m in (True, False)]
        results = [est.estimate_all(view, sample_1000, _memo=memo) for view in views]
        for view, out in zip(views, results):
            fit = linmod.fit_logistic_propensity(view.design_pi, view.T)
            eager = linmod.weight_diagnostics(fit.pi_hat, view.T)
            assert repr(out.diagnostics) == repr(eager)

    @pytest.mark.parametrize("which", [("OLS", "FULL"), None], ids=["unweighted", "failed"])
    def test_late_diagnostics_none(self, monkeypatch, sample_1000, right_view, which):
        # None when no weighted estimator was requested or the propensity
        # fit failed, however late it is read, and then no summary is taken
        def separated(*args, **kwargs):
            raise NonconvergenceError("separated")

        monkeypatch.setattr(linmod, "fit_logistic_propensity", separated)
        calls = []
        diagnose = linmod.weight_diagnostics
        monkeypatch.setattr(linmod, "weight_diagnostics",
                            lambda *a: calls.append(1) or diagnose(*a))
        out = est.estimate_all(right_view, sample_1000, which)
        est.estimate_all(right_view, sample_1000)
        assert out.diagnostics is None and out.diagnostics is None
        assert calls == []

    def test_full_needs_complete_sample(self, right_view):
        out = est.estimate_all(right_view, None, ("OLS", "FULL"))
        assert out.flags["FULL"] == est.FLAG_FAILED
        assert math.isnan(out.values["FULL"])
        assert "UndefinedEstimatorError" in out.messages["FULL"]
        assert out.flags["OLS"] == est.FLAG_OK

    def test_propensity_failure_isolated(self):
        # design_pi separates T perfectly, so every weighted estimator
        # fails, while OLS and FULL still report values
        rng = np.random.default_rng(8)
        n = 12
        x = np.arange(float(n))
        T = (x >= 6).astype(np.int64)
        w = rng.normal(size=n)
        y_full = 1.0 + w + rng.normal(size=n)
        view = AnalysisView(
            design_pi=np.column_stack([np.ones(n), x]),
            design_m=np.column_stack([np.ones(n), w]),
            T=T,
            y_observed=np.where(T == 1, y_full, np.nan),
        )
        full = FullSample(n=n, Z=np.zeros((n, 4)), X=np.zeros((n, 4)),
                          pi_true=np.full(n, 0.5), T=T, Y=y_full)
        out = est.estimate_all(view, full)
        assert out.flags["OLS"] != est.FLAG_FAILED
        assert out.flags["FULL"] != est.FLAG_FAILED
        for name in ("HT", "IPW_POP", "DR_REG", "DR_WLS", "DR_IPW_NR",
                     "DR_EXT_REG", "B_DR_REG", "B_DR_EXT"):
            assert out.flags[name] == est.FLAG_FAILED, name
            assert "NonconvergenceError" in out.messages[name], name
        assert out.diagnostics is None

    def test_out_of_range_flagged(self):
        # chosen draw where an anomalous respondent weight pushes the
        # unnormalised estimator far above every observed outcome
        sample = generate_sample(80, 4)
        view = make_view(sample, pi_model_correct=False, m_model_correct=False)
        out = est.estimate_all(view, sample)
        resp_y = sample.Y[sample.T == 1]
        assert out.flags["HT"] == est.FLAG_OUT_OF_RANGE
        assert out.values["HT"] > resp_y.max()
        assert out.flags["OLS"] == est.FLAG_OK

    def test_estimate_on_the_edge_of_the_range_is_ok(self):
        # the observed range is closed: with every respondent outcome 1.0,
        # the normalised weighted mean and the plug-ins of the unweighted
        # and weighted regressions on the right designs are exactly 1.0,
        # both ends of it
        view = make_view(generate_sample(200, 5), True, True)
        view = dataclasses.replace(view, y_observed=np.where(view.T == 1, 1.0, np.nan))
        out = est.estimate_all(view, which=("IPW_POP", "OLS", "DR_WLS"))
        assert out.values == dict.fromkeys(("IPW_POP", "OLS", "DR_WLS"), 1.0)
        assert set(out.flags.values()) == {est.FLAG_OK}

    def test_nonfinite_respondent_outcome_fails_each_estimator(
        self, sample_1000, right_view
    ):
        y = right_view.y_observed.copy()
        y[int(np.flatnonzero(right_view.T == 1)[0])] = np.nan
        out = est.estimate_all(dataclasses.replace(right_view, y_observed=y), sample_1000)
        assert out.flags["FULL"] == est.FLAG_OK
        for name in (nm for nm in est.ESTIMATOR_NAMES if nm != "FULL"):
            assert out.flags[name] == est.FLAG_FAILED, name
            assert "non-finite" in out.messages[name], name

    def test_infinite_respondent_outcome_named_once(self):
        # one check of the respondent outcomes, so one text whichever fit
        # or respondent term an estimator reads first
        sample = generate_sample(200, 1)
        view = make_view(sample, True, True)
        y = view.y_observed.copy()
        y[int(np.flatnonzero(view.T == 1)[0])] = np.inf
        out = est.estimate_all(dataclasses.replace(view, y_observed=y), sample)
        names = [nm for nm in est.ESTIMATOR_NAMES if nm != "FULL"]
        assert len(names) == 9
        assert {out.messages[nm] for nm in names} == {
            "InvalidArgumentError: observed outcomes contain non-finite values"}


def _outcome(fn, *args):
    """fn(*args), or the class and message of the DrmeanError it raised."""
    try:
        return fn(*args)
    except DrmeanError as exc:
        return f"{type(exc).__name__}: {exc}"


def separated_covariates():
    """(covariates [x, c, c], T, y masked where T is 0) on 12 units: x
    separates T exactly, and the last two columns are equal."""
    x = np.arange(1.0, 13.0)
    T = (x > 6).astype(np.int64)
    c = np.sin(x)
    return np.column_stack([x, c, c]), T, np.where(T == 1, 2.0 * c + x, np.nan)


class TestOneDefinition:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "pi_ok, m_ok, reverse",
        [(True, True, False), (True, False, False), (False, True, False),
         (False, False, False), (False, False, True)],
    )
    def test_estimate_all_equals_public_functions(self, seed, pi_ok, m_ok, reverse):
        # each estimate_all value is the public mu_* function on the same fits
        sample = generate_sample(1000, seed)
        if reverse:
            sample = reverse_roles(sample)
        view = make_view(sample, pi_ok, m_ok)
        out = est.estimate_all(view, sample)
        pipe = est.Pipeline(view, sample)
        T, y = view.T, view.y_observed
        pi = pipe.propensity().pi_hat
        m = {kind: pipe.fitted(kind).m_hat for kind in ("REG", "WLS", "IPW_NR", "EXT_REG")}
        want = {
            "OLS": _outcome(est.mu_from_regression, m["REG"]),
            "HT": _outcome(est.mu_ht, pi, T, y),
            "IPW_POP": _outcome(est.mu_ipw_pop, pi, T, y),
            "DR_REG": _outcome(est.mu_aipw, pi, m["REG"], T, y),
            "DR_WLS": _outcome(est.mu_from_regression, m["WLS"]),
            "DR_IPW_NR": _outcome(est.mu_from_regression, m["IPW_NR"]),
            "DR_EXT_REG": _outcome(est.mu_from_regression, m["EXT_REG"]),
            "B_DR_REG": _outcome(est.mu_b_dr, pi, m["REG"], T, y),
            "B_DR_EXT": _outcome(est.mu_b_dr, pipe.extended().pi_hat, m["REG"], T, y),
            "FULL": _outcome(est.mu_full, sample.Y),
        }
        got = {nm: out.messages.get(nm, out.values[nm]) for nm in est.ESTIMATOR_NAMES}
        assert got == want

    def test_work_per_estimate_all(self, sample_1000, right_view, monkeypatch,
                                  exact_sums):
        # one respondent check per propensity fit, each exact sum that
        # several estimators read taken once (DR_REG and B_DR_REG share one
        # residual correction sum), and one diagnostics call, on the first
        # read of the result's diagnostics
        calls = {"respondents": 0, "diagnostics": 0}

        def spy(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(est, "_Respondents", spy("respondents", est._Respondents))
        monkeypatch.setattr(
            linmod, "weight_diagnostics", spy("diagnostics", linmod.weight_diagnostics)
        )
        out = est.estimate_all(right_view, sample_1000)
        assert out.messages == {}
        assert calls["respondents"] <= 2
        assert calls["diagnostics"] == 0
        assert len(exact_sums) == 10
        assert out.diagnostics is out.diagnostics
        assert calls["diagnostics"] == 1

    def test_scenarios_sharing_a_memo_sum_full_once(self, sample_1000, monkeypatch):
        # FULL's exact sum is keyed by the complete outcome array, so the
        # four scenarios of one replication take it once, as mc runs them
        want = est.mu_full(sample_1000.Y)
        full_sums = []
        fsum = est._fsum

        def spy(terms):
            full_sums.append(terms is sample_1000.Y)
            return fsum(terms)

        monkeypatch.setattr(est, "_fsum", spy)
        memo = {}
        for pi_ok in (True, False):
            for m_ok in (True, False):
                view = make_view(sample_1000, pi_ok, m_ok)
                out = est.estimate_all(view, sample_1000, _memo=memo)
                assert out.values["FULL"] == want
        assert full_sums.count(True) == 1

    def test_shared_caches_hold_single_design_terms(self, monkeypatch):
        # the memo mc shares between the four scenarios of one replication
        # fits each of Z and X once as propensity and once as outcome design,
        # and each (propensity, outcome) design pair once where both are
        # read; no summary reads the weight diagnostics, so none are taken,
        # and no fit starts from given coefficients, so none is a draw fit
        fits = count_calls(monkeypatch, linmod, PIPELINE_FITS)
        specs = [mc.ScenarioSpec(n=200, reps=2, pi_model_correct=p, m_model_correct=m)
                 for p in (True, False) for m in (True, False)]
        summaries = mc.run_scenarios(specs)
        assert all(row.failures == 0 for s in summaries for row in s.rows.values())
        per_design = {"fit_logistic_propensity": 2, "_fit_logistic_draw": 0,
                      "weight_diagnostics": 0, "RespondentDesign": 2, "fit_outcome_reg": 2}
        per_pair = {name: 4 for name in PIPELINE_FITS if name not in per_design}
        assert fits == {name: 2 * k for name, k in {**per_design, **per_pair}.items()}

    def test_memo_shares_only_identical_inputs(self, sample_1000, monkeypatch):
        # sharing follows array identity: equal values in distinct arrays
        # or another start (alpha, scale) pair share no fit
        fits = count_calls(monkeypatch, linmod, PIPELINE_FITS)
        view = make_view(sample_1000, True, True)
        twin = dataclasses.replace(view, design_pi=view.design_pi.copy(),
                                   design_m=view.design_m.copy())
        memo = {}
        one = est.estimate_all(view, sample_1000, ("OLS", "HT"), _memo=memo)
        two = est.estimate_all(twin, sample_1000, ("OLS", "HT"), _memo=memo)
        assert one.values == two.values
        for name in ("fit_logistic_propensity", "RespondentDesign", "fit_outcome_reg"):
            assert fits[name] == 2

        memo = {}
        scale = linmod._equilibrate(view.design_pi)[1]
        start = (np.zeros(view.design_pi.shape[1]), scale)
        pipes = [est.Pipeline(view, memo=memo),
                 est.Pipeline(view, pi_start=start, memo=memo),
                 est.Pipeline(view, pi_start=(start[0].copy(), scale), memo=memo),
                 est.Pipeline(view, pi_start=(np.zeros_like(start[0]), scale), memo=memo)]
        fitted = [pipe.propensity() for pipe in pipes]
        weighted = [pipe.fitted("WLS") for pipe in pipes]
        # the three Pipelines given a start fit by the draw routine
        assert (fits["fit_logistic_propensity"], fits["_fit_logistic_draw"]) == (2 + 1, 3)
        assert fits["fit_outcome_wls"] == 4
        assert len({id(f) for f in fitted}) == len({id(f) for f in weighted}) == 4
        again = est.Pipeline(view, pi_start=start, memo=memo)
        assert again.propensity() is fitted[1] and again.fitted("WLS") is weighted[1]

    def test_memo_keeps_its_designs_alive(self, sample_1000):
        # a memo entry keeps the arrays its key names, so their ids cannot
        # be reused by other arrays while the memo lives; the designs are
        # copies, since the sample keeps the ones make_view hands out
        view = make_view(sample_1000, False, True)
        view = dataclasses.replace(view, design_pi=view.design_pi.copy(),
                                   design_m=view.design_m.copy())
        refs = [weakref.ref(view.design_pi), weakref.ref(view.design_m)]
        memo = {}
        est.estimate_all(view, None, ("HT",), _memo=memo)
        del view
        gc.collect()
        assert all(ref() is not None for ref in refs)
        del memo
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_failed_respondent_check_memoised(self, monkeypatch):
        # a propensity fit (the unconstrained inverse-linear one, in place of
        # the logistic fit) puts pi_hat < 0 on the first respondent: the
        # check runs once, and every estimator that reads it reports the
        # standalone call's failure, while OLS and FULL still report their
        # values
        monkeypatch.setattr(linmod, "fit_logistic_propensity", linmod.fit_inverse_linear)
        x = np.array([-3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0])
        T = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        y_full = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 7.0, 6.5, 8.0, 7.5])
        design = np.column_stack([np.ones_like(x), x])
        view = AnalysisView(design_pi=design, design_m=design, T=T,
                            y_observed=np.where(T == 1, y_full, np.nan))
        full = FullSample(n=10, Z=np.zeros((10, 4)), X=np.zeros((10, 4)),
                          pi_true=np.full(10, 0.5), T=T, Y=y_full)
        pipe = est.Pipeline(view, full)
        pi = pipe.propensity().pi_hat
        assert pi[0] < 0
        m_reg = linmod.fit_outcome_reg(RespondentDesign(view)).m_hat
        standalone = {
            "HT": lambda: est.mu_ht(pi, T, view.y_observed),
            "IPW_POP": lambda: est.mu_ipw_pop(pi, T, view.y_observed),
            "DR_REG": lambda: est.mu_aipw(pi, m_reg, T, view.y_observed),
            "B_DR_REG": lambda: est.mu_b_dr(pi, m_reg, T, view.y_observed),
        }
        checks = []
        respondents = est._Respondents
        monkeypatch.setattr(
            est, "_Respondents", lambda *args: checks.append(args) or respondents(*args)
        )
        raised = []
        for name in standalone:
            with pytest.raises(InvalidWeightError) as exc:
                est.ESTIMATORS[name](pipe)
            raised.append(exc.value)
        assert len(checks) == 1
        assert all(exc is raised[0] for exc in raised)
        for call in standalone.values():
            with pytest.raises(InvalidWeightError) as want:
                call()
            assert (type(want.value), str(want.value)) == (type(raised[0]), str(raised[0]))
        assert est.ESTIMATORS["OLS"](pipe) == est.mu_from_regression(m_reg)
        assert est.ESTIMATORS["FULL"](pipe) == est.mu_full(y_full)

    def test_weighted_estimators_fit_the_propensity_model_first(self):
        # the propensity design separates T and the outcome design repeats
        # a column: every weighted estimator reports the separation, in
        # estimate_all and in a sensitivity cell alike (B_DR_EXT in
        # estimate_all reported the rank failure of its outcome fit)
        covariates, T, y = separated_covariates()
        view = AnalysisView(design_matrix(covariates, [0]), design_matrix(covariates, [1, 2]),
                            T, y)
        out = est.estimate_all(view)
        assert out.messages["OLS"].startswith("SingularDesignError: rank 2 < 3")
        assert "separated" in out.messages["B_DR_REG"]
        weighted = [name for name, e in est.ESTIMATORS.items() if e.weighted]
        assert {out.messages[name] for name in weighted} == {out.messages["B_DR_REG"]}
        _, messages = sens.build_matrix(
            covariates, T, y, [sens.ModelSpec("propensity", (0,))],
            [sens.ModelSpec("outcome", (1, 2))], "B_DR_EXT")
        assert messages == {(0, 0): out.messages["B_DR_EXT"]}

    def test_memoised_failure_keeps_its_traceback_depth(self):
        # each read re-raised the stored exception, whose traceback kept
        # the frames of every earlier read: 7, 10, 13, 16, then 19 frames
        covariates, T, y = separated_covariates()
        design = design_matrix(covariates, [0])
        view = AnalysisView(design, design, T, y)
        memo, depths, raised = {}, [], []
        for _ in range(5):
            with pytest.raises(NonconvergenceError, match="separated") as exc:
                est.Pipeline(view, memo=memo).propensity()
            depths.append(len(traceback.extract_tb(exc.value.__traceback__)))
            raised.append(exc.value)
        assert len(set(depths)) == 1
        assert all(e is raised[0] for e in raised)


@pytest.fixture(scope="module")
def unit_scale_estimates():
    """(sample, view, estimate_all values) for seeds 1-3 x the 4 scenarios."""
    out = []
    for seed in (1, 2, 3):
        sample = generate_sample(1000, seed)
        for pi_ok in (True, False):
            for m_ok in (True, False):
                view = make_view(sample, pi_ok, m_ok)
                out.append((sample, view, est.estimate_all(view, sample).values))
    return out


@pytest.mark.parametrize("b", [0.0, 1e4])
@pytest.mark.parametrize("a", [2.0**-20, 1e3, 1e6, 2.0**40, -3.0])
def test_affine_equivariance_in_y(unit_scale_estimates, monkeypatch, a, b):
    # every estimator maps y -> a y + b to v -> a v + b, HT only for b = 0
    # (unnormalised weights do not sum to one), and no outcome fit needs
    # more than 2 passes at any scale
    passes = []
    wls = linmod._wls

    def counted(*args):
        beta, iterations = wls(*args)
        passes.append(iterations)
        return beta, iterations

    monkeypatch.setattr(linmod, "_wls", counted)
    for sample, view, values in unit_scale_estimates:
        moved = est.estimate_all(
            dataclasses.replace(view, y_observed=a * view.y_observed + b),
            dataclasses.replace(sample, Y=a * sample.Y + b),
        )
        for name, v in values.items():
            if name == "HT" and b != 0.0:
                continue
            assert np.isfinite(v), name
            err = abs(moved.values[name] - (a * v + b))
            assert err <= 1e-12 * (abs(a) * abs(v) + abs(b)), name
    assert passes and max(passes) <= 2


class TestIdentitiesCheck:
    def test_passes_on_misspecified_design(self, wrong_view):
        rep = est.mu_ols_identities_check(wrong_view)
        assert not rep.skipped
        assert rep.passed
        assert rep.abs_difference <= 1e-8
        assert rep.moment_residual <= 1e-10
        assert all(r <= 1e-8 for r in rep.eq_weighted_residuals)

    def test_passes_on_correct_design(self, right_view):
        assert est.mu_ols_identities_check(right_view).passed

    @pytest.mark.parametrize("factor", [1.0, 1e3, 1e-6, 1e6, 2.0**30])
    def test_verdict_is_free_of_the_units_of_y(self, factor):
        # the identities hold to rounding at every scale of y; the
        # tolerance was absolute, and failed at 1e6 and 2**30.  Under
        # y -> 2**k y the report scales exactly and keeps its verdict
        view = make_view(generate_sample(1000, 3), True, False)

        def check(c):
            return est.mu_ols_identities_check(
                dataclasses.replace(view, y_observed=view.y_observed * c))

        base = check(factor)
        assert base.passed
        for k in (-300, 300):
            rep = check(np.ldexp(factor, k))
            assert rep.passed
            assert rep.abs_difference == np.ldexp(base.abs_difference, k)
            assert rep.eq_weighted_residuals == list(np.ldexp(base.eq_weighted_residuals, k))

    def test_skips_when_weighted_mean_degenerates(self):
        # no-intercept design whose moment solution is alpha = 0: the
        # induced weights sum to zero and the check reports itself skipped
        x = np.array([1.0, -1.0, 2.0, -2.0])
        T = np.array([1, 1, 0, 0])
        view = AnalysisView(
            design_pi=x[:, None],
            design_m=x[:, None],
            T=T,
            y_observed=np.array([3.0, 5.0, np.nan, np.nan]),
        )
        rep = est.mu_ols_identities_check(view)
        assert rep.skipped
        assert not rep.passed
        assert "vanishes" in rep.reason


class TestUnitArrays:
    """Per-unit arrays must have T's shape and plain value vectors must be
    1-d; each of these raised a foreign IndexError or TypeError."""

    @pytest.fixture(scope="class")
    def sample(self):
        return generate_sample(50, 1)

    @pytest.fixture(scope="class")
    def view(self, sample):
        return make_view(sample, True, True)

    def test_mismatch_names_the_array(self):
        with pytest.raises(InvalidArgumentError, match="pi_hat length must match T"):
            est.mu_ht(TOY_PI[:3], TOY_T, TOY_Y)
        with pytest.raises(InvalidArgumentError, match="Y length must match T"):
            est.mu_ipw_pop(TOY_PI, TOY_T, TOY_Y[:, None])

    def test_estimate_all_isolates_a_short_outcome_array(self, sample, view):
        short = dataclasses.replace(view, y_observed=view.y_observed[:-1])
        out = est.estimate_all(short, sample)
        assert out.values["FULL"] == est.mu_full(sample.Y)
        failed = set(est.ESTIMATOR_NAMES) - {"FULL"}
        assert {name for name, flag in out.flags.items() if flag == est.FLAG_FAILED} == failed
        for name in failed:
            assert re.fullmatch("InvalidArgumentError: (y_observed|Y) length must match T",
                                out.messages[name])

    def test_identities_check_rejects_short_t(self, view):
        short = dataclasses.replace(view, T=view.T[:-1], y_observed=view.y_observed[:-1])
        with pytest.raises(InvalidArgumentError, match="design_m rows must match T"):
            est.mu_ols_identities_check(short)

    @pytest.mark.parametrize("fn", [est.mu_full, est.mu_from_regression])
    def test_value_vectors_must_be_1d(self, fn):
        with pytest.raises(InvalidArgumentError, match="must be 1-d"):
            fn(np.ones((3, 2)))
