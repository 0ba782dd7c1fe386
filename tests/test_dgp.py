import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtri

from drmean import dgp
from drmean.errors import InvalidArgumentError


class TestConfigValidation:
    """generate_sample's own arguments: the design itself is fixed."""

    def test_n_at_least_one(self):
        with pytest.raises(InvalidArgumentError):
            dgp.generate_sample(0, 1)

    @pytest.mark.parametrize("n, seed", [(1.5, 1), (10, 1.5), (10, -1), ("10", 1)])
    def test_size_and_seed_checked(self, n, seed):
        with pytest.raises(InvalidArgumentError):
            dgp.generate_sample(n, seed)


class TestTransform:
    def test_hand_values_at_zero(self):
        X = dgp.transform_covariates(np.zeros((1, 4)))
        want = np.array([[1.0, 10.0, 0.6**3, 400.0]])
        assert np.allclose(X, want, rtol=0, atol=1e-15)

    def test_hand_values_generic_point(self):
        Z = np.array([[2.0, 1.0, -1.0, 0.5]])
        X = dgp.transform_covariates(Z)
        want = np.array(
            [
                [
                    math.exp(1.0),
                    1.0 / (1.0 + math.exp(2.0)) + 10.0,
                    (2.0 * -1.0 / 25.0 + 0.6) ** 3,
                    21.5**2,
                ]
            ]
        )
        assert np.allclose(X, want, rtol=1e-15)

    def test_pure_function_of_z(self, sample_1000):
        again = dgp.transform_covariates(sample_1000.Z)
        assert np.array_equal(again, sample_1000.X)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidArgumentError):
            dgp.transform_covariates(np.zeros((3, 3)))
        # a ragged nesting raised numpy's ValueError
        with pytest.raises(InvalidArgumentError, match="Z must be numeric"):
            dgp.transform_covariates([[0.0] * 4, [0.0] * 3])


class TestGenerate:
    @pytest.mark.parametrize("n, seed, message",
                             [(True, 1, "n must be an integer >= 1"),
                              (0, 1, "n must be an integer >= 1"),
                              (10, True, "seed must be an integer >= 0"),
                              (10, -1, "seed must be an integer >= 0")])
    def test_bad_size_or_seed_rejected(self, n, seed, message):
        with pytest.raises(InvalidArgumentError, match=message):
            dgp.generate_sample(n, seed)

    def test_bitwise_determinism(self):
        a = dgp.generate_sample(250, 7)
        b = dgp.generate_sample(250, 7)
        for field in ("Z", "X", "pi_true", "T", "Y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_seed_changes_draw(self):
        a = dgp.generate_sample(50, 1)
        b = dgp.generate_sample(50, 2)
        assert not np.array_equal(a.Y, b.Y)

    def test_shapes_and_ranges(self, sample_1000):
        s = sample_1000
        assert s.Z.shape == (1000, 4)
        assert s.X.shape == (1000, 4)
        assert s.pi_true.shape == (1000,)
        assert s.T.shape == (1000,)
        assert s.Y.shape == (1000,)
        assert np.all((s.pi_true > 0) & (s.pi_true < 1))
        assert set(np.unique(s.T)) <= {0, 1}
        assert s.T.dtype == np.int64
        assert np.all(np.isfinite(s.Y))

    def test_outcome_equation(self, sample_1000):
        s = sample_1000
        z_star = s.Z @ np.array([2.0, 1.0, 1.0, 1.0])
        eps = s.Y - 210.0 - 13.7 * z_star
        # residual noise is standard normal by construction
        assert abs(float(np.mean(eps))) < 0.1
        assert abs(float(np.var(eps, ddof=1)) - 1.0) < 0.15

    def test_propensity_equation(self, sample_1000):
        s = sample_1000
        eta = s.Z @ np.array([-1.0, 0.5, -0.25, -0.1])
        assert np.allclose(s.pi_true, 1.0 / (1.0 + np.exp(-eta)), rtol=1e-12)

    @pytest.mark.parametrize("n, seed", [(1, 0), (1, 9), (7, 3), (250, 7), (1000, 2**63)])
    def test_design_formulas_bit_for_bit(self, n, seed):
        # Kang & Schafer's design on the raw stream: six uniforms per unit,
        # the first five floored at 1e-300, normals by the inverse CDF.  The
        # weighted sums are matrix-vector products, as in the generator:
        # BLAS may round a sum of four products unlike left-to-right addition.
        u = np.random.Generator(np.random.PCG64(seed)).random((n, 6))
        u[:, :5] = np.maximum(u[:, :5], 1e-300)
        Z, eps = ndtri(u[:, :4]), ndtri(u[:, 4])
        Y = 210.0 + 13.7 * (Z @ np.array([2.0, 1.0, 1.0, 1.0])) + eps
        pi = expit(Z @ np.array([-1.0, 0.5, -0.25, -0.1]))
        s = dgp.generate_sample(n, seed)
        want = {"Z": Z, "X": dgp.transform_covariates(Z), "pi_true": pi,
                "T": (u[:, 5] < pi).astype(np.int64), "Y": Y}
        for name, array in want.items():
            got = getattr(s, name)
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name
        assert s.n == n and dgp.MU_TRUE == 210.0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**63 - 1))
    def test_small_sample_invariants(self, n, seed):
        s = dgp.generate_sample(n, seed)
        assert np.all(np.isfinite(s.Z))
        assert np.all(np.isfinite(s.X))
        assert np.all((s.pi_true > 0) & (s.pi_true < 1))
        assert np.all((s.T == 0) | (s.T == 1))


class TestReverseRoles:
    def test_t_flips_exactly(self, sample_1000):
        r = dgp.reverse_roles(sample_1000)
        assert np.array_equal(r.T, 1 - sample_1000.T)
        rr = dgp.reverse_roles(r)
        assert np.array_equal(rr.T, sample_1000.T)

    def test_pi_complements(self, sample_1000):
        r = dgp.reverse_roles(sample_1000)
        assert np.allclose(r.pi_true + sample_1000.pi_true, 1.0, rtol=0, atol=1e-15)
        rr = dgp.reverse_roles(r)
        # 1 - (1 - x) can round, but never by more than one ulp of 1
        assert np.allclose(rr.pi_true, sample_1000.pi_true, rtol=0, atol=1.2e-16)

    def test_covariates_and_outcome_shared(self, sample_1000):
        r = dgp.reverse_roles(sample_1000)
        assert r.Z is sample_1000.Z
        assert r.X is sample_1000.X
        assert r.Y is sample_1000.Y


class TestMakeView:
    def test_correct_designs_use_z(self, sample_1000, right_view):
        ones = np.ones((1000, 1))
        want = np.hstack([ones, sample_1000.Z])
        assert np.array_equal(right_view.design_pi, want)
        assert np.array_equal(right_view.design_m, want)

    def test_wrong_designs_use_x(self, sample_1000, wrong_view):
        ones = np.ones((1000, 1))
        want = np.hstack([ones, sample_1000.X])
        assert np.array_equal(wrong_view.design_pi, want)
        assert np.array_equal(wrong_view.design_m, want)

    def test_mixed_view(self, sample_1000):
        v = dgp.make_view(sample_1000, pi_model_correct=True, m_model_correct=False)
        assert np.array_equal(v.design_pi[:, 1:], sample_1000.Z)
        assert np.array_equal(v.design_m[:, 1:], sample_1000.X)

    def test_shared_parts_build_each_array_once(self, sample_1000):
        # the views of one sample share their designs, T and masked y, and
        # equal the views built alone
        parts = {}
        views = {
            (p, m): dgp.make_view(sample_1000, p, m, _parts=parts)
            for p in (True, False) for m in (True, False)
        }
        assert len(parts) == 4  # [1, Z], [1, X], T, y
        for (p, m), view in views.items():
            alone = dgp.make_view(sample_1000, p, m)
            for name in ("design_pi", "design_m", "T", "y_observed"):
                got, want = getattr(view, name), getattr(alone, name)
                assert got.flags.c_contiguous and want.flags.c_contiguous
                assert np.array_equal(got, want, equal_nan=True), name
            assert view.design_pi is views[(p, not m)].design_pi
            assert view.T is views[(True, True)].T

    def test_outcomes_masked_to_nan(self, sample_1000, right_view):
        resp = sample_1000.T == 1
        assert np.array_equal(right_view.y_observed[resp], sample_1000.Y[resp])
        assert np.all(np.isnan(right_view.y_observed[~resp]))


@pytest.fixture(scope="module")
def big():
    return dgp.generate_sample(1_000_000, 13)


class TestPopulationMoments:
    """Checks of the generating process against its analytic moments."""

    def test_outcome_variance(self, big):
        # slope^2 * Var(2 Z1 + Z2 + Z3 + Z4) + 1 = 13.7^2 * 7 + 1
        assert abs(float(np.var(big.Y, ddof=1)) / 1314.83 - 1.0) < 0.02

    def test_outcome_mean(self, big):
        se = math.sqrt(1314.83 / 1_000_000)
        assert abs(float(np.mean(big.Y)) - 210.0) < 3 * se

    def test_response_rate_near_half(self, big):
        assert 0.48 <= float(np.mean(big.T)) <= 0.52

    def test_outcome_propensity_correlation(self, big):
        r = float(np.corrcoef(big.pi_true, big.Y)[0, 1])
        assert -0.65 <= r <= -0.55

    def test_noise_variance(self, big):
        eps = big.Y - 210.0 - 13.7 * (big.Z @ np.array([2.0, 1.0, 1.0, 1.0]))
        assert abs(float(np.var(eps, ddof=1)) - 1.0) < 0.02
