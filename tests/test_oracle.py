"""An exact-arithmetic oracle for the least-squares estimators.

Given the pi_hat of the package's own logistic fit, taken exactly into
fractions.Fraction, OLS, DR_WLS, DR_REG, B_DR_REG, HT and IPW_POP are
recomputed without rounding: each outcome fit is exact least squares on
the respondent rows, by Gaussian elimination on the normal equations
(weighted by 1 / pi_hat for DR_WLS), and each formula is evaluated in
rationals.  Every finite estimate_all value must lie within MAX_ULPS
units in the last place of the exact value, on n = 60 samples under the
four make_view scenarios.  The golden hashes show that no bit moved;
this shows that the bits are the right number.  EXT_REG, IPW_NR,
B_DR_EXT and the defining equations of the nonlinear fits are not
checked here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from drmean import estimate_all, fit_logistic_propensity, generate_sample, make_view
from drmean._util import derive_seed

ORACLE_SEED = 20260101
# the largest error measured here is 1.29 ulps (DR_REG; 1.10 under the
# golden test's AVX2_ENV), and over seeds 0-39 it is 1.45 (DR_REG)
MAX_ULPS = 1.5
CHECKED = ("OLS", "HT", "IPW_POP", "DR_REG", "DR_WLS", "B_DR_REG")


def dyadic(values) -> tuple[list[int], int]:
    """(k, e): integers k and one exponent e with values[i] == k[i] / 2**e."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(den for _, den in ratios).bit_length() - 1
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


def exact_lstsq(rows, y, w) -> list[Fraction]:
    """The exact beta minimizing sum w (y - rows beta)^2 for integer rows, y
    and w: Gaussian elimination on the normal equations, in Fractions."""
    p = len(rows[0])
    a = [[Fraction(sum(wi * r[j] * r[k] for wi, r in zip(w, rows))) for k in range(p)]
         + [Fraction(sum(wi * r[j] * yi for wi, r, yi in zip(w, rows, y)))] for j in range(p)]
    for k in range(p):
        pivot = next(i for i in range(k, p) if a[i][k] != 0)
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, p):
            f = a[i][k] / a[k][k]
            a[i] = [aij - f * akj for aij, akj in zip(a[i], a[k])]
    beta = [Fraction(0)] * p
    for k in reversed(range(p)):
        beta[k] = (a[k][p] - sum(a[k][j] * beta[j] for j in range(k + 1, p))) / a[k][k]
    return beta


def exact_estimates(view, pi_hat) -> dict[str, Fraction]:
    """The CHECKED estimators of view, in exact arithmetic, given pi_hat.

    The design, the outcomes and the inverse weights are taken as integers
    over one common denominator each (2**ex, 2**ey and big), so that every
    sum over units is an integer sum; the mean of the fitted values x'beta
    is beta'(P_n[x])."""
    n, p = view.design_m.shape
    resp = np.flatnonzero(view.T == 1)
    x, ex = dyadic(view.design_m.ravel())
    design = [x[i * p:(i + 1) * p] for i in range(n)]
    rows = [design[i] for i in resp]
    y, ey = dyadic(view.y_observed[resp])
    ratios = [float(v).as_integer_ratio() for v in pi_hat[resp]]
    big = math.lcm(*(num for num, _ in ratios))
    w = [big // num * den for num, den in ratios]  # 1 / pi_hat on respondents, times big

    unit = Fraction(2**ex, 2**ey)  # x = design / 2**ex and y = y / 2**ey
    beta_reg = [b * unit for b in exact_lstsq(rows, y, [1] * len(y))]
    beta_wls = [b * unit for b in exact_lstsq(rows, y, w)]
    x_mean = [Fraction(sum(r[j] for r in design), n * 2**ex) for j in range(p)]
    wx_sum = [Fraction(sum(wi * r[j] for wi, r in zip(w, rows)), big * 2**ex)
              for j in range(p)]
    w_sum = Fraction(sum(w), big)
    wy_sum = Fraction(sum(wi * yi for wi, yi in zip(w, y)), big * 2**ey)
    mean_reg = sum(b * m for b, m in zip(beta_reg, x_mean))
    correction = wy_sum - sum(b * s for b, s in zip(beta_reg, wx_sum))
    return {
        "OLS": mean_reg,
        "HT": wy_sum / n,
        "IPW_POP": wy_sum / w_sum,
        "DR_REG": mean_reg + correction / n,
        "DR_WLS": sum(b * m for b, m in zip(beta_wls, x_mean)),
        "B_DR_REG": mean_reg + correction / w_sum,
    }


def ulps(value: float, exact: Fraction) -> float:
    """|value - exact| in units in the last place of exact."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def test_exact_lstsq_hand_solution():
    # the line through (0, 1), (1, 2), (3, 5): intercept 6/7, slope 19/14,
    # under any constant weight; weight 0 on (3, 5) leaves the line
    # through the other two
    rows, y = [[1, 0], [1, 1], [1, 3]], [1, 2, 5]
    assert exact_lstsq(rows, y, [1] * 3) == [Fraction(6, 7), Fraction(19, 14)]
    assert exact_lstsq(rows, y, [3] * 3) == [Fraction(6, 7), Fraction(19, 14)]
    assert exact_lstsq(rows, y, [1, 1, 0]) == [1, 1]


def test_dyadic_is_exact():
    assert dyadic([0.5, 3.0, -0.375, 0.0]) == ([4, 24, -3, 0], 3)
    assert dyadic([2.0**70, 1.0]) == ([2**70, 1], 0)


@pytest.mark.parametrize("pi_ok, m_ok", [(True, True), (True, False), (False, True),
                                         (False, False)])
@pytest.mark.parametrize("s", range(6))
def test_estimates_within_max_ulps_of_exact(s, pi_ok, m_ok):
    sample = generate_sample(60, derive_seed(ORACLE_SEED, s))
    view = make_view(sample, pi_ok, m_ok)
    out = estimate_all(view, sample, CHECKED)
    pi_hat = fit_logistic_propensity(view.design_pi, view.T).pi_hat
    exact = exact_estimates(view, pi_hat)
    errors = {name: ulps(out.values[name], exact[name]) for name in CHECKED
              if math.isfinite(out.values[name])}
    assert "OLS" in errors
    assert {name: e for name, e in errors.items() if e > MAX_ULPS} == {}
