"""The benchmark tracer still sees every layer boundary it wraps.

bench/layers.py records spans by replacing module attributes such as
linmod.fit_outcome_wls.  A call that bypasses one of them would silently
zero a per-layer metric, so these tests run the tracer around one
estimate_all, small sensitivity runs and a small simulate, and ask for a
span from each wrapped fit, the bootstrap cells and the simulate layers.
"""

from pathlib import Path

import numpy as np
import pytest

from drmean import cli, dgp, estimate_all, run_sensitivity
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
        run_sensitivity(
            cov, sample.T, y,
            [sens.ModelSpec("propensity", z), sens.ModelSpec("propensity", (4, 5, 6, 7))],
            [sens.ModelSpec("outcome", z), sens.ModelSpec("outcome", (4, 5, 6, 7))],
            "DR_WLS", boot_reps=3, seed=1,
        )
    names = {span[0] for span in tracer.spans}
    wanted = set(layers.IRLS_FITS) | {
        "linmod.fit_extended_propensity",
        "sensitivity.build_matrix",
        "sensitivity.homogeneity_test",
        "sensitivity.cell",
    }
    assert wanted <= names
    counters = tracer.counters()
    assert counters["pi_fits_in_draws"] > 0
    assert counters["newton_steps.total"] > 0


def test_shared_draws_fit_each_propensity_once_per_draw(layers):
    # a 2x2 run evaluates each draw once for its four lines: 2 propensity
    # fits per draw, over 4 lines x 3 draws counted by the bench
    sample = dgp.generate_sample(300, 5)
    cov = np.hstack([sample.Z, sample.X])
    y = np.where(sample.T == 1, sample.Y, np.nan)
    z, x = (0, 1, 2, 3), (4, 5, 6, 7)
    with layers.Tracer() as tracer:
        run_sensitivity(
            cov, sample.T, y,
            [sens.ModelSpec("propensity", z), sens.ModelSpec("propensity", x)],
            [sens.ModelSpec("outcome", z), sens.ModelSpec("outcome", x)],
            "DR_WLS", boot_reps=3, seed=1,
        )
    counters = tracer.counters()
    assert counters["pi_fits_in_draws"] == 6
    assert counters["boot_draws"] == 12
    assert tracer.count_metrics()["sensitivity.pi_fits_per_draw"] == 0.5


def test_full_sample_fits_are_made_once(layers):
    # build_matrix's full-sample fits start the draw fits: 2 full-sample
    # and 2 x 5 draw fits, none of them repeated
    sample = dgp.generate_sample(300, 5)
    cov = np.hstack([sample.Z, sample.X])
    y = np.where(sample.T == 1, sample.Y, np.nan)
    z, x = (0, 1, 2, 3), (4, 5, 6, 7)
    with layers.Tracer() as tracer:
        run_sensitivity(
            cov, sample.T, y,
            [sens.ModelSpec("propensity", z), sens.ModelSpec("propensity", x)],
            [sens.ModelSpec("outcome", z), sens.ModelSpec("outcome", x)],
            "DR_WLS", boot_reps=5, seed=1,
        )
    counters = tracer.counters()
    assert counters["pi_fits"] == 12
    assert counters["pi_fits_distinct"] == 12


def test_tracer_sees_the_simulate_layers(layers, tmp_path):
    # Tracer.__enter__ wraps cli.cmd_simulate and cli.run_scenario, so this
    # fails if cli stops exporting either name
    config = tmp_path / "config.json"
    config.write_text(
        '{"base_seed": 2, "reps": 2, "sample_sizes": [60],'
        ' "scenarios": [{"pi_correct": true, "m_correct": false}]}'
    )
    with layers.Tracer() as tracer:
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--workers", "1"])
    assert rc == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.simulate", "dgp.generate_sample", "estimators.estimate_all",
            "mc.summarize"} <= names
