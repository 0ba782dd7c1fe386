import math

import numpy as np
import pytest

from drmean import _util
from drmean.errors import InvalidArgumentError


class TestDeriveSeed:
    def test_splitmix64_known_answers(self):
        # Reference outputs of the splitmix64 stream started at 0.
        assert _util.derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert _util.derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert _util.derive_seed(0, 2) == 0x06C45D188009454F

    def test_output_in_uint64_range(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            for idx in (0, 1, 10**12):
                s = _util.derive_seed(base, idx)
                assert 0 <= s < 2**64

    def test_distinct_over_indices(self):
        seen = {_util.derive_seed(12345, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_distinct_over_bases(self):
        assert _util.derive_seed(1, 0) != _util.derive_seed(2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _util.derive_seed(0, -1)

    def test_negative_base_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _util.derive_seed(-1, 0)

    @pytest.mark.parametrize("base", [2**64, 2**64 + 3, 2**70])
    def test_base_beyond_64_bits_rejected(self, base):
        # masked to 64 bits, base 2**64 + k replayed the runs of base k
        with pytest.raises(InvalidArgumentError, match=r"base_seed must be in \[0, 2\*\*64\)"):
            _util.derive_seed(base, 3)

    @pytest.mark.parametrize("args", [(1.5, 0), (1, 2.0), ("1", 0)],
                             ids=["float-base", "float-index", "str-base"])
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            _util.derive_seed(*args)

    def test_numpy_integers_accepted(self):
        assert _util.derive_seed(np.uint64(7), np.int32(3)) == _util.derive_seed(7, 3)


class TestCheckInt:
    @pytest.mark.parametrize("value", [True, False, np.True_, 1.0, "1", None, -1],
                             ids=["true", "false", "numpy-bool", "float", "str", "none",
                                  "below"])
    def test_rejected_with_the_bound(self, value):
        with pytest.raises(InvalidArgumentError, match=r"^k must be an integer >= 0$"):
            _util.check_int(value, "k", 0)

    def test_no_bound(self):
        assert _util.check_int(-5, "k") == -5
        with pytest.raises(InvalidArgumentError, match=r"^k must be an integer$"):
            _util.check_int(True, "k")

    def test_numpy_integer_at_the_bound_passes(self):
        value = _util.check_int(np.int32(3), "k", 3)
        assert value == 3 and type(value) is int

    def test_bool_index_rejected(self):
        # derive_seed(0, True) was derive_seed(0, 1)
        with pytest.raises(InvalidArgumentError, match="index must be an integer >= 0"):
            _util.derive_seed(0, True)


class TestCheckResponse:
    @pytest.mark.parametrize("T", [[0, 1, 1], [0.0, 1.0], [True, False], []],
                             ids=["int", "float", "bool", "empty"])
    def test_zero_one_vectors_pass(self, T):
        assert np.array_equal(_util.check_response(T), np.asarray(T))

    @pytest.mark.parametrize("T", [[0, 2], [0.5, 1.0], [math.nan, 1.0], [[0, 1]], 1,
                                   ["0", "1"]],
                             ids=["two", "half", "nan", "2-d", "scalar", "strings"])
    def test_others_rejected(self, T):
        with pytest.raises(InvalidArgumentError, match="T must be a 1-d array of 0/1"):
            _util.check_response(T)


class TestFsumReductions:
    def test_fsum_col_means_matches_per_column(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(37, 5)) * 10.0**rng.integers(-8, 8, size=(37, 5))
        got = _util.fsum_col_means(a)
        want = np.array([math.fsum(a[:, j]) / 37 for j in range(5)])
        assert got.shape == (5,)
        assert np.array_equal(got, want)


class TestUnitArrays:
    def test_check_units_returns_floats_shaped_as_t(self):
        out = _util.check_units([1, 2, 3], np.array([0, 1, 1]), "pi_hat")
        assert out.dtype == float and out.shape == (3,)

    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0], [2.0], [3.0]],
                                        1.0], ids=["short", "long", "column", "0-d"])
    def test_check_units_rejects_other_shapes(self, values):
        with pytest.raises(InvalidArgumentError, match="pi_hat length must match T"):
            _util.check_units(values, np.array([0, 1, 1]), "pi_hat")

    def test_check_vector(self):
        assert _util.check_vector([1, 2], "values").dtype == float
        for values in (np.ones((3, 2)), 1.0):
            with pytest.raises(InvalidArgumentError, match="values must be 1-d"):
                _util.check_vector(values, "values")

    @pytest.mark.parametrize("values", [["a", "b", "c"], [[1.0], [1.0, 2.0], [3.0]],
                                        [{}, 1.0, 2.0], [1.0, 2.0, 1j]],
                             ids=["text", "ragged", "object", "complex"])
    def test_non_numeric_values_rejected(self, values):
        # numpy's ValueError or TypeError escaped, or its ComplexWarning
        T = np.array([0, 1, 1])
        with pytest.raises(InvalidArgumentError, match="pi_hat must be numeric"):
            _util.check_units(values, T, "pi_hat")
        with pytest.raises(InvalidArgumentError, match="values must be numeric"):
            _util.check_vector(values, "values")

    def test_ragged_response_rejected(self):
        with pytest.raises(InvalidArgumentError, match="T must be numeric"):
            _util.check_response([[0], [0, 1]])

    def test_nan_to_none(self):
        assert _util.nan_to_none(math.nan) is None
        assert [_util.nan_to_none(v) for v in (1.5, math.inf, 2, "x")] == [1.5, math.inf, 2, "x"]
