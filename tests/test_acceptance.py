"""End-to-end acceptance checks for the benchmark reproduction.

Each criterion test covers one numbered criterion and prints a single
"ACCEPTANCE k ... PASS/FAIL" line (visible with pytest -s); the assert
carries the failing sub-checks.  The Monte Carlo criteria run five
scenarios at n = 1000 with 1000 replications each: the four of one group
through one run_scenarios call, which shares their samples and fits, and
the reversed one alone.  Everything is deterministic under the pinned
seed.
"""

import math
import time

import numpy as np
import pytest

from drmean import cli, linmod, mc, sensitivity as sens
from drmean.dgp import generate_sample, make_view
from drmean.estimators import (
    mu_aipw,
    mu_b_dr,
    mu_from_regression,
    mu_ipw_pop,
    mu_ols_identities_check,
)

ACCEPT_SEED = 42
N = 1000
REPS = 1000

DR_NAMES = ("DR_REG", "DR_WLS", "DR_IPW_NR", "DR_EXT_REG", "B_DR_REG", "B_DR_EXT")


def _spec(pi_correct, m_correct, reverse=False, reps=REPS):
    return mc.ScenarioSpec(
        n=N,
        reps=reps,
        pi_model_correct=pi_correct,
        m_model_correct=m_correct,
        reverse=reverse,
        base_seed=ACCEPT_SEED,
    )


# the four scenarios of Kang & Schafer's table, (pi_correct, m_correct)
PAIRS = ((True, True), (True, False), (False, True), (False, False))


@pytest.fixture(scope="module")
def grid():
    # one run_scenarios call: the four scenarios share each replication's
    # sample and single-design fits, and their values equal standalone
    # runs (test_grid_equals_standalone_runs)
    return dict(zip(PAIRS, mc.run_scenarios([_spec(*pair) for pair in PAIRS])))


@pytest.fixture(scope="module")
def both_right(grid):
    return grid[True, True]


@pytest.fixture(scope="module")
def pi_right_m_wrong(grid):
    return grid[True, False]


@pytest.fixture(scope="module")
def pi_wrong_m_right(grid):
    return grid[False, True]


@pytest.fixture(scope="module")
def both_wrong(grid):
    return grid[False, False]


@pytest.fixture(scope="module")
def reversed_both_wrong():
    return mc.run_scenario(_spec(False, False, reverse=True))


def test_grid_equals_standalone_runs():
    specs = [_spec(*pair, reps=5) for pair in PAIRS]
    assert mc.run_scenarios(specs) == [mc.run_scenario(spec) for spec in specs]


def _verdict(number, description, checks):
    failed = [label for label, ok in checks if not ok]
    print(f"ACCEPTANCE {number} ({description}): {'FAIL' if failed else 'PASS'}")
    assert not failed, f"criterion {number} failed sub-checks: {failed}"


def _p_n_score(view, m_hat, weights, design):
    resp = view.T == 1
    resid = (view.y_observed[resp] - m_hat[resp]) * weights[resp]
    n = len(view.T)
    return max(abs(math.fsum(col * resid) / n) for col in design[resp].T)


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    checks = []

    sample = generate_sample(400, 11)
    view = make_view(sample, pi_model_correct=False, m_model_correct=False)
    n = sample.n
    ones = np.ones(n)
    pfit = linmod.fit_logistic_propensity(view.design_pi, view.T)
    w = 1.0 / pfit.pi_hat

    reg = linmod.fit_outcome_reg(view)
    checks.append((
        "reg score <= 1e-10",
        _p_n_score(view, reg.m_hat, ones, view.design_m) <= 1e-10,
    ))
    wls = linmod.fit_outcome_wls(view, pfit.pi_hat)
    checks.append((
        "wls score <= 1e-10",
        _p_n_score(view, wls.m_hat, w, view.design_m) <= 1e-10,
    ))
    ext = linmod.fit_outcome_ext_reg(view, pfit.pi_hat)
    aug_ext = np.hstack([view.design_m, w[:, None]])
    checks.append((
        "ext-reg score <= 1e-10",
        _p_n_score(view, ext.m_hat, ones, aug_ext) <= 1e-10,
    ))
    nr = linmod.fit_outcome_ipw_nr(view, pfit.pi_hat)
    aug_nr = np.hstack([view.design_m, pfit.pi_hat[:, None]])
    checks.append((
        "ipw-nr score <= 1e-10",
        _p_n_score(view, nr.m_hat, w, aug_nr) <= 1e-10,
    ))

    report = mu_ols_identities_check(view)
    checks.append(("weighted-residual identity for random coefficients",
                   all(r <= 1e-8 for r in report.eq_weighted_residuals)))
    checks.append(("plug-in OLS equals bounded weighted mean",
                   (not report.skipped) and report.abs_difference <= 1e-8))
    checks.append(("inverse-linear moment residual <= 1e-10",
                   report.moment_residual <= 1e-10))

    # alternative form of the appended-covariate weighted fit
    resp = view.T == 1
    plug = mu_from_regression(nr.m_hat)
    mixed = np.where(resp, view.y_observed, nr.m_hat)
    checks.append(("imputation form matches plug-in form",
                   abs(plug - mu_from_regression(mixed)) <= 1e-8))

    # extension moment after the one-dimensional solve
    mu_ols = mu_from_regression(reg.m_hat)
    h = reg.m_hat - mu_ols
    efit = linmod.fit_extended_propensity(pfit, h, view.T)
    g = float(np.mean(((view.T == 1) / efit.pi_hat - 1.0) * h))
    checks.append(("extension moment residual <= 1e-8", abs(g) <= 1e-8))

    # boundedness under an adversarial weight: one respondent with
    # fitted probability 1e-8 cannot drag the normalised forms outside
    # the observed/fitted ranges
    pi_adv = np.array([1e-8, 0.4, 0.6, 0.5, 0.9])
    T_adv = np.array([1, 1, 0, 1, 1])
    y_adv = np.array([9.0, 2.0, np.nan, 4.0, 3.0])
    m_adv = np.array([5.0, 2.5, 3.0, 3.5, 3.0])
    pop = mu_ipw_pop(pi_adv, T_adv, y_adv)
    checks.append(("normalised weighting stays in observed range",
                   2.0 <= pop <= 9.0))
    plug_adv = mu_from_regression(m_adv)
    checks.append(("regression form stays in fitted range",
                   2.5 <= plug_adv <= 5.0))
    bdr = mu_b_dr(pi_adv, m_adv, T_adv, y_adv)
    resid_adv = y_adv[T_adv == 1] - m_adv[T_adv == 1]
    bound = float(np.max(np.abs(resid_adv))) + float(np.max(np.abs(m_adv)))
    checks.append(("bounded correction obeys the absolute bound",
                   abs(bdr) < bound))

    elapsed = time.perf_counter() - start
    checks.append(("suite runs in under one second", elapsed < 1.0))
    _verdict(1, "algebraic identity suite", checks)


def test_criterion_2_well_behaved_rows(both_right, pi_wrong_m_right, pi_right_m_wrong):
    checks = []

    for name in ("OLS",) + DR_NAMES:
        row = both_right.rows[name]
        checks.append((f"both-right {name} bias",
                       abs(row.bias - (-0.03)) <= 0.12))
        checks.append((f"both-right {name} variance",
                       1.41 * 0.85 <= row.variance <= 1.41 * 1.15))

    targets = {
        "DR_REG": (-0.03, 1.77),
        "DR_WLS": (-0.03, 1.41),
        "DR_IPW_NR": (-0.03, 1.41),
        "B_DR_REG": (-0.02, 1.43),
        "B_DR_EXT": (-0.02, 1.42),
    }
    for name, (b, v) in targets.items():
        row = pi_wrong_m_right.rows[name]
        checks.append((f"pi-wrong {name} bias", abs(row.bias - b) <= 0.12))
        checks.append((f"pi-wrong {name} variance",
                       v * 0.85 <= row.variance <= v * 1.15))

    wls = pi_right_m_wrong.rows["DR_WLS"]
    checks.append(("m-wrong DR_WLS bias", abs(wls.bias - 0.16) <= 0.35))
    checks.append(("m-wrong DR_WLS variance",
                   1.90 * 0.75 <= wls.variance <= 1.90 * 1.25))
    nr = pi_right_m_wrong.rows["DR_IPW_NR"]
    checks.append(("m-wrong DR_IPW_NR bias", abs(nr.bias - (-0.10)) <= 0.35))

    checks.append(("no replication failures", all(
        row.failures == 0
        for out in (both_right, pi_wrong_m_right, pi_right_m_wrong)
        for row in out.rows.values()
    )))
    _verdict(2, "well-behaved benchmark rows", checks)


def test_criterion_3_double_misspecification(both_wrong):
    rows = both_wrong.rows
    mse = {name: rows[name].mse for name in rows}
    checks = [
        ("DR_WLS bias in [-4, -2]", -4.0 <= rows["DR_WLS"].bias <= -2.0),
        ("DR_IPW_NR bias in [-3.5, -1.5]", -3.5 <= rows["DR_IPW_NR"].bias <= -1.5),
        ("OLS bias in [-1.3, -0.4]", -1.3 <= rows["OLS"].bias <= -0.4),
        ("MSE ordering OLS < DR_IPW_NR < DR_WLS < B_DR_EXT",
         mse["OLS"] < mse["DR_IPW_NR"] < mse["DR_WLS"] < mse["B_DR_EXT"]),
        ("unnormalised weighting skewed right", rows["HT"].skewness > 0.0),
        ("unbounded correction skewed left", rows["DR_REG"].skewness < 0.0),
        ("bounded correction skewed left", rows["B_DR_REG"].skewness < 0.0),
    ]
    for name in ("HT", "DR_REG", "B_DR_REG"):
        checks.append((f"{name} MSE at least 3x DR_WLS's",
                       mse[name] >= 3.0 * mse["DR_WLS"]))
    _verdict(3, "double misspecification patterns", checks)


def test_criterion_4_role_reversal(reversed_both_wrong):
    rows = reversed_both_wrong.rows
    dr_bias = {name: rows[name].bias for name in DR_NAMES}
    dr_mse = {name: rows[name].mse for name in DR_NAMES}
    checks = [
        ("OLS bias exceeds every DR bias by >= 1.0",
         rows["OLS"].bias - max(dr_bias.values()) >= 1.0),
        ("every DR bias <= 3.5", max(dr_bias.values()) <= 3.5),
        ("OLS MSE exceeds every DR MSE",
         rows["OLS"].mse > max(dr_mse.values())),
    ]
    _verdict(4, "role reversal turns the tables", checks)


def test_criterion_5_generator_moments():
    big = generate_sample(1_000_000, ACCEPT_SEED)
    var_y = float(np.var(big.Y, ddof=1))
    corr = float(np.corrcoef(big.pi_true, big.Y)[0, 1])
    rate = float(np.mean(big.T))
    checks = [
        ("Var(Y) within 2% of 1314.83", abs(var_y / 1314.83 - 1.0) <= 0.02),
        ("corr(pi, Y) in [-0.65, -0.55]", -0.65 <= corr <= -0.55),
        ("response rate in [0.48, 0.52]", 0.48 <= rate <= 0.52),
    ]
    _verdict(5, "generator population moments", checks)


def test_criterion_6_near_equivalences(both_right):
    checks = []
    v_full = both_right.rows["FULL"].variance
    v_ols = both_right.rows["OLS"].variance
    checks.append(("Var(FULL) within 5% of Var(OLS)",
                   abs(v_full / v_ols - 1.0) <= 0.05))

    # respondent-exact-fit property: zero residuals collapse every
    # corrected estimator onto the plug-in mean, bit for bit
    sample = generate_sample(500, 6)
    view = make_view(sample, pi_model_correct=False, m_model_correct=False)
    pfit = linmod.fit_logistic_propensity(view.design_pi, view.T)
    m_hat = linmod.fit_outcome_reg(view).m_hat
    y_exact = np.where(view.T == 1, m_hat, np.nan)
    plug = mu_from_regression(m_hat)
    checks.append(("corrected form equals plug-in exactly",
                   mu_aipw(pfit.pi_hat, m_hat, view.T, y_exact) == plug))
    checks.append(("bounded form equals plug-in exactly",
                   mu_b_dr(pfit.pi_hat, m_hat, view.T, y_exact) == plug))
    shifted = np.clip(pfit.pi_hat * 0.7, 1e-6, 1.0)
    checks.append(("equality holds under different weights",
                   mu_aipw(shifted, m_hat, view.T, y_exact) == plug
                   and mu_b_dr(shifted, m_hat, view.T, y_exact) == plug))
    _verdict(6, "near-equivalence and exact-fit property", checks)


def test_criterion_7_worker_invariant_csv(tmp_path):
    import json

    cfg = {
        "base_seed": 7,
        "reps": 16,
        "sample_sizes": [150],
        "scenarios": [{"pi_correct": False, "m_correct": False}],
    }
    cfg_path = tmp_path / "accept.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    rc1 = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1),
                    "--workers", "1"])
    rc8 = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out8),
                    "--workers", "8"])
    bytes1 = (out1 / "results.csv").read_bytes()
    bytes8 = (out8 / "results.csv").read_bytes()
    checks = [
        ("both runs exit 0", rc1 == 0 and rc8 == 0),
        ("results byte-identical across worker counts", bytes1 == bytes8),
        ("metadata byte-identical across worker counts",
         (out1 / "metadata.json").read_bytes() == (out8 / "metadata.json").read_bytes()),
    ]
    _verdict(7, "worker-count determinism", checks)


def test_criterion_8_sensitivity_flags_misspecification():
    sample = generate_sample(N, 99)
    cov = np.hstack([sample.Z, sample.X])
    y = np.where(sample.T == 1, sample.Y, np.nan)
    pz = sens.ModelSpec(role="propensity", covariates=(0, 1, 2, 3))
    px = sens.ModelSpec(role="propensity", covariates=(4, 5, 6, 7))
    oz = sens.ModelSpec(role="outcome", covariates=(0, 1, 2, 3))
    ox = sens.ModelSpec(role="outcome", covariates=(4, 5, 6, 7))

    out = sens.run_sensitivity(cov, sample.T, y, [pz, px], [oz, ox], "DR_WLS",
                               boot_reps=300, seed=7)
    e = out.estimates
    checks = [
        ("matrix complete", bool(np.all(np.isfinite(e)))),
        ("doubly misspecified cell is the worst",
         e[1, 1] == e.min() and 210.0 - e[1, 1] >= 1.5),
        ("cells with a correct model stay near the truth",
         max(abs(e[0, 0] - 210.0), abs(e[0, 1] - 210.0), abs(e[1, 0] - 210.0)) <= 2.0),
        ("correct propensity row looks homogeneous",
         out.row_tests[0].p_value > 0.05),
        ("misspecified propensity row is rejected",
         out.row_tests[1].p_value < 0.05),
        ("correct outcome column looks homogeneous",
         out.col_tests[0].p_value > 0.05),
        ("misspecified outcome column is rejected",
         out.col_tests[1].p_value < 0.05),
        ("selection picks the correct pair", out.selection == (0, 0)),
    ]

    single = sens.homogeneity_test(np.array([e[0, 0]]), cov, sample.T, y, pz,
                                   (oz,), "DR_WLS", boot_reps=25, seed=1)
    checks.append(("single-model line has p = 1", single.p_value == 1.0))

    again = sens.run_sensitivity(cov, sample.T, y, [pz, px], [oz, ox], "DR_WLS",
                                 boot_reps=60, seed=5)
    again2 = sens.run_sensitivity(cov, sample.T, y, [pz, px], [oz, ox], "DR_WLS",
                                  boot_reps=60, seed=5)
    checks.append(("fixed seed reproduces every p-value", all(
        a.p_value == b.p_value and a.statistic == b.statistic
        for a, b in zip(again.row_tests + again.col_tests,
                        again2.row_tests + again2.col_tests)
    ) and np.array_equal(again.estimates, again2.estimates)))
    _verdict(8, "sensitivity analysis", checks)
