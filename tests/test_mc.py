import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmean import mc
from drmean.dgp import DgpConfig
from drmean.errors import DegenerateInputError, InvalidArgumentError

trapezoid = getattr(np, "trapezoid", None) or np.trapz


class TestSummarize:
    def test_three_point_example(self):
        s = mc.summarize(np.array([1.0, 2.0, 3.0]), mu_true=2.0)
        assert s.n_used == 3
        assert s.mean == 2.0
        assert s.bias == 0.0
        assert s.variance == 1.0
        assert np.isclose(s.mse, 2.0 / 3.0, rtol=1e-15)
        assert s.skewness == 0.0
        assert s.quantiles[50] == 2.0
        assert np.isclose(s.quantiles[25], 1.5, rtol=1e-15)
        assert np.isclose(s.quantiles[75], 2.5, rtol=1e-15)
        assert np.isclose(s.quantiles[1], 1.02, rtol=1e-12)
        assert np.isclose(s.quantiles[99], 2.98, rtol=1e-12)
        assert s.minimum == 1.0
        assert s.maximum == 3.0

    def test_constant_values(self):
        s = mc.summarize(np.full(5, 7.0), mu_true=7.0)
        assert s.bias == 0.0
        assert s.variance == 0.0
        assert s.mse == 0.0
        assert s.skewness == 0.0

    def test_single_value(self):
        s = mc.summarize(np.array([7.0]), mu_true=6.0)
        assert s.bias == 1.0
        assert math.isnan(s.variance)
        assert s.mse == 1.0

    def test_asymmetry_sign(self):
        s = mc.summarize(np.array([0.0, 0.0, 0.0, 10.0]), mu_true=0.0)
        assert s.skewness > 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=50),
        mu=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_mse_decomposition(self, values, mu):
        s = mc.summarize(np.array(values), mu)
        r = len(values)
        lhs = s.mse
        rhs = s.bias**2 + s.variance * (r - 1) / r
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            mc.summarize(np.array([]), 0.0)
        with pytest.raises(InvalidArgumentError):
            mc.summarize(np.array([1.0, math.nan]), 0.0)


class TestScenarioSpec:
    def test_labels(self):
        spec = mc.ScenarioSpec(n=10, reps=1, pi_model_correct=True, m_model_correct=False)
        assert spec.label() == "pi_right_m_wrong"
        spec = mc.ScenarioSpec(
            n=10, reps=1, pi_model_correct=False, m_model_correct=True, reverse=True
        )
        assert spec.label() == "pi_wrong_m_right_reversed"

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(n=1, reps=1, pi_model_correct=True, m_model_correct=True)
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(n=10, reps=0, pi_model_correct=True, m_model_correct=True)
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(
                n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                estimators=("OLS", "NOPE"),
            )
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(
                n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                base_seed=-1,
            )

    def test_duplicate_estimators_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(
                n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                estimators=("OLS", "OLS"),
            )


SMALL = mc.ScenarioSpec(
    n=60, reps=12, pi_model_correct=False, m_model_correct=False, base_seed=911
)


def rows_equal(a, b):
    for name in a:
        ra, rb = a[name], b[name]
        for f in ("n_used", "failures", "mean", "bias", "variance", "mse",
                  "skewness", "minimum", "maximum"):
            va, vb = getattr(ra, f), getattr(rb, f)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), (name, f)
            else:
                assert va == vb, (name, f)
        assert ra.quantiles == rb.quantiles, name
    return True


class TestRunScenario:
    def test_rerun_is_bitwise_identical(self):
        a = mc.run_scenario(SMALL)
        b = mc.run_scenario(SMALL)
        assert rows_equal(a.rows, b.rows)

    def test_worker_count_does_not_change_results(self):
        a = mc.run_scenario(SMALL, workers=1)
        b = mc.run_scenario(SMALL, workers=3)
        assert rows_equal(a.rows, b.rows)

    def test_replication_recomputable_in_isolation(self):
        cfg = DgpConfig()
        batch = [mc._replicate((r, SMALL, cfg)) for r in range(SMALL.reps)]
        alone = mc._replicate((7, SMALL, cfg))
        assert alone == batch[7]

    def test_metadata_recorded(self):
        out = mc.run_scenario(SMALL)
        assert out.mu_true == 210.0
        assert out.prng == "numpy.random.PCG64"
        assert "splitmix64" in out.seed_derivation
        assert out.scenario is SMALL

    def test_mu_true_tracks_config(self):
        cfg = DgpConfig(intercept=50.0, slope=0.0)
        spec = mc.ScenarioSpec(
            n=40, reps=5, pi_model_correct=True, m_model_correct=True, base_seed=2,
            estimators=("OLS", "FULL"),
        )
        out = mc.run_scenario(spec, cfg)
        assert out.mu_true == 50.0
        assert abs(out.rows["FULL"].bias) < 0.5

    def test_failures_counted_per_estimator(self):
        # n close to the column count: many replications cannot fit the
        # five-coefficient models, but FULL never fails
        spec = mc.ScenarioSpec(
            n=6, reps=40, pi_model_correct=False, m_model_correct=False, base_seed=5
        )
        out = mc.run_scenario(spec)
        assert out.rows["FULL"].failures == 0
        assert out.rows["FULL"].n_used == 40
        assert sum(row.failures for row in out.rows.values()) > 0
        for name, row in out.rows.items():
            assert row.n_used + row.failures == 40, name

    def test_skewness_signs_under_double_misspecification(self):
        spec = mc.ScenarioSpec(
            n=200, reps=150, pi_model_correct=False, m_model_correct=False,
            base_seed=3, estimators=("HT", "DR_REG"),
        )
        out = mc.run_scenario(spec)
        assert out.rows["HT"].skewness > 0.0
        assert out.rows["DR_REG"].skewness < 0.0

    def test_worker_validation(self):
        with pytest.raises(InvalidArgumentError):
            mc.run_scenario(SMALL, workers=0)


@pytest.fixture(scope="module")
def bimodal():
    rng = np.random.default_rng(17)
    return np.concatenate([rng.normal(0.0, 1.0, 400), rng.normal(6.0, 0.5, 200)])


class TestDensity:

    def test_grid_span_and_normalisation(self, bimodal):
        s = mc.density_points(bimodal)
        assert s.grid.shape == (512,)
        assert s.density.shape == (512,)
        assert s.grid[0] == pytest.approx(bimodal.min() - 3 * s.bandwidth)
        assert s.grid[-1] == pytest.approx(bimodal.max() + 3 * s.bandwidth)
        assert np.all(s.density >= 0.0)
        assert abs(trapezoid(s.density, s.grid) - 1.0) < 0.01

    def test_taller_mode_located(self, bimodal):
        s = mc.density_points(bimodal)
        assert abs(s.grid[int(np.argmax(s.density))]) < 0.5

    def test_automatic_bandwidth_formula(self, bimodal):
        s = mc.density_points(bimodal)
        sd = float(np.std(bimodal, ddof=1))
        q25, q75 = np.percentile(bimodal, [25, 75])
        want = 0.9 * min(sd, (q75 - q25) / 1.34) * bimodal.size ** (-0.2)
        assert np.isclose(s.bandwidth, want, rtol=1e-12)

    def test_explicit_bandwidth(self, bimodal):
        s = mc.density_points(bimodal, bandwidth=2.5)
        assert s.bandwidth == 2.5
        narrow = mc.density_points(bimodal, bandwidth=0.25)
        assert narrow.density.max() > s.density.max()

    def test_clip_removes_outlier(self):
        rng = np.random.default_rng(23)
        values = np.concatenate([rng.normal(size=99), [1e6]])
        s = mc.density_points(values, clip_quantile=0.02)
        assert s.n_used < 100
        assert s.grid[-1] < 1e5
        assert s.clip_quantile == 0.02

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateInputError):
            mc.density_points(np.array([3.0, 3.0, 3.0]))
        with pytest.raises(DegenerateInputError):
            mc.density_points(np.array([3.0]))

    def test_bad_arguments_rejected(self, bimodal):
        with pytest.raises(InvalidArgumentError):
            mc.density_points(bimodal, bandwidth=-1.0)
        with pytest.raises(InvalidArgumentError):
            mc.density_points(bimodal, bandwidth="silverman")
        with pytest.raises(InvalidArgumentError):
            mc.density_points(bimodal, clip_quantile=0.7)
        with pytest.raises(InvalidArgumentError):
            mc.density_points(np.array([1.0, math.inf]))

    def test_quantile_levels_fixed(self):
        assert mc.QUANTILE_LEVELS == (1, 5, 25, 50, 75, 95, 99)
