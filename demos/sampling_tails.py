"""Sampling distributions of two estimators under double misspecification.

Runs the doubly misspecified scenario for a stable and a fragile
estimator and prints each one's summary of its sampling distribution:
the quantiles q01-q99, the extremes and the skewness, the same figures
`drmean simulate` writes to results.csv.  DR_WLS keeps a tight, nearly
symmetric body; HT has a body near the truth and a long right tail that
the top quantiles, the maximum and the skewness all show.
"""

from drmean import ScenarioSpec, run_scenario
from drmean.mc import QUANTILE_LEVELS

N = 200
REPS = 400
NAMES = ("DR_WLS", "HT")


def main():
    spec = ScenarioSpec(n=N, reps=REPS, pi_model_correct=False, m_model_correct=False,
                        base_seed=1_000, estimators=NAMES)
    summary = run_scenario(spec)
    print(f"n = {N}, {REPS} replications, both models wrong, true mean {summary.mu_true:g}\n")
    columns = [f"q{q:02d}" for q in QUANTILE_LEVELS] + ["min", "max", "skew"]
    print(f"{'':>8}" + "".join(f"{c:>9}" for c in columns))
    for name in NAMES:
        row = summary.rows[name]
        cells = [row.quantiles[q] for q in QUANTILE_LEVELS]
        cells += [row.minimum, row.maximum, row.skewness]
        print(f"{name:>8}" + "".join(f"{v:>9.2f}" for v in cells))
        if row.failures:
            print(f"{'':>8}({row.failures} replications failed)")


if __name__ == "__main__":
    main()
