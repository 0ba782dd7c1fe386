"""Scaled-down benchmark table.

Runs all four model-correctness scenarios (plus the reversed variant of
the doubly misspecified one) at a reduced size and prints bias,
variance, and MSE per estimator.  All five run in one run_scenarios
call, so the four unreversed scenarios share each replication's sample
and single-design fits.  The full-size table in the test suite
uses n = 1000 with 1000 replications; this script defaults to a tenth
of that so it finishes in a few seconds.
"""

import argparse

from drmean import ScenarioSpec, run_scenarios
from drmean.dgp import MU_TRUE

SCENARIOS = [
    (True, True, False),
    (True, False, False),
    (False, True, False),
    (False, False, False),
    (False, False, True),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    specs = [
        ScenarioSpec(
            n=args.n,
            reps=args.reps,
            pi_model_correct=pi_ok,
            m_model_correct=m_ok,
            reverse=rev,
            base_seed=args.seed,
        )
        for pi_ok, m_ok, rev in SCENARIOS
    ]
    for out in run_scenarios(specs, workers=args.workers):
        print(f"\n{out.scenario.label()}  (n={args.n}, reps={args.reps}, "
              f"truth={MU_TRUE})")
        print(f"  {'estimator':<12} {'bias':>8} {'variance':>10} "
              f"{'mse':>10} {'fails':>6}")
        for name, row in out.rows.items():
            print(f"  {name:<12} {row.bias:>8.3f} {row.variance:>10.2f} "
                  f"{row.mse:>10.2f} {row.failures:>6d}")


if __name__ == "__main__":
    main()
