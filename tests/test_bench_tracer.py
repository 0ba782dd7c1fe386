"""The benchmark tracer still sees every layer boundary it wraps.

bench/layers.py records spans by replacing module attributes such as
linmod.fit_outcome_wls and linmod.fsum_col_means.  A call that bypasses
one of them would silently zero a per-layer metric, so this test runs the
tracer around one estimate_all and one small sensitivity run and asks for
a span from each wrapped fit, the exact column sums and the bootstrap
cells.
"""

from pathlib import Path

import numpy as np
import pytest

from drmean import dgp, estimate_all, run_sensitivity
from drmean import sensitivity as sens

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def test_tracer_records_every_wrapped_layer(layers):
    sample = dgp.generate_sample(300, 5)
    cov = np.hstack([sample.Z, sample.X])
    y = np.where(sample.T == 1, sample.Y, np.nan)
    z = (0, 1, 2, 3)
    with layers.Tracer() as tracer:
        estimate_all(dgp.make_view(sample, True, True), sample)
        # the unconstrained inverse-linear fit sums its moments exactly
        run_sensitivity(
            cov, sample.T, y,
            [sens.ModelSpec("propensity", z),
             sens.ModelSpec("propensity", z, "INV_LINEAR_UNCONSTRAINED")],
            [sens.ModelSpec("outcome", z), sens.ModelSpec("outcome", (4, 5, 6, 7))],
            "DR_WLS", boot_reps=3, seed=1,
        )
    names = {span[0] for span in tracer.spans}
    wanted = set(layers.IRLS_FITS) | {
        "linmod.fit_extended_propensity",
        "util.fsum_col_means",
        "sensitivity.build_matrix",
        "sensitivity.homogeneity_test",
        "sensitivity.cell",
    }
    assert wanted <= names
    counters = tracer.counters()
    assert counters["pi_fits_in_draws"] > 0
    assert counters["newton_steps.total"] > 0
