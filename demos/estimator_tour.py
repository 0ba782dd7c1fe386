"""Walk the estimator zoo on a single benchmark draw.

Generates one dataset, analyses it twice (correct models, then the
misspecified transforms), and prints every estimator with its flag.
The weight diagnostics and the algebraic identity report at the end
show why the normalised and plug-in forms stay calm while the raw
inverse-weighted mean does not.
"""

from drmean import (
    estimate_all,
    generate_sample,
    make_view,
    mu_ols_identities_check,
)

N = 1000
SEED = 7


def show(title, view, sample):
    result = estimate_all(view, sample)
    print(f"\n{title}")
    print(f"  {'estimator':<12} {'estimate':>10}  flag")
    for name, value in result.values.items():
        flag = result.flags[name]
        mark = "" if flag == "ok" else f"  <- {flag}"
        print(f"  {name:<12} {value:>10.3f}{mark}")
    d = result.diagnostics
    if d is not None:
        print(f"  weights 1/pi on respondents: max {d.max_inv_pi_respondents:.1f}, "
              f"var {d.var_inv_pi:.1f}, smallest pi {d.min_pi:.4f}")
    return result


def main():
    sample = generate_sample(N, SEED)
    print(f"one draw: n = {N}, respondents = {int(sample.T.sum())}, "
          f"mean of complete outcomes = {sample.Y.mean():.3f}")

    right = make_view(sample, pi_model_correct=True, m_model_correct=True)
    show("both models correct", right, sample)

    wrong = make_view(sample, pi_model_correct=False, m_model_correct=False)
    show("both models misspecified (transformed covariates)", wrong, sample)

    report = mu_ols_identities_check(wrong)
    print("\nidentity report on the misspecified view:")
    print(f"  plug-in OLS mean        {report.mu_ols:.6f}")
    print(f"  bounded weighted mean   {report.bounded_ht:.6f}")
    print(f"  |difference|            {report.abs_difference:.2e}")
    print(f"  residual orthogonality  "
          f"{max(report.eq_weighted_residuals):.2e} (3 random directions)")
    print(f"  passed: {report.passed}")


if __name__ == "__main__":
    main()
