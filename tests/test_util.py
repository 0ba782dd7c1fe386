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


class TestFsumReductions:
    def test_fsum_col_means_matches_per_column(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(37, 5)) * 10.0**rng.integers(-8, 8, size=(37, 5))
        got = _util.fsum_col_means(a)
        want = np.array([math.fsum(a[:, j]) / 37 for j in range(5)])
        assert got.shape == (5,)
        assert np.array_equal(got, want)
