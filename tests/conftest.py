"""Shared fixtures: one simulated sample reused across test modules, and a
count of the exact sums the package takes."""

import math
import sys

import numpy as np
import pytest

from drmean import _util, dgp

SEED = 20260819


@pytest.fixture(scope="session")
def sample_1000():
    return dgp.generate_sample(1000, SEED)


@pytest.fixture(scope="session")
def right_view(sample_1000):
    return dgp.make_view(sample_1000, pi_model_correct=True, m_model_correct=True)


@pytest.fixture(scope="session")
def wrong_view(sample_1000):
    return dgp.make_view(sample_1000, pi_model_correct=False, m_model_correct=False)


@pytest.fixture
def exact_sums(monkeypatch):
    """(terms, extracted) for each _util.exact_sum the package calls while
    the test runs, in call order; extracted is False where the sum fell
    back to math.fsum.  Every drmean module that binds exact_sum gets the
    spy, so a sum counts by whatever route it is taken."""
    calls, fallbacks = [], []
    exact_sum, fsum = _util.exact_sum, math.fsum

    def fsum_spy(a):
        fallbacks.append(a)
        return fsum(a)

    def spy(a):
        before = len(fallbacks)
        try:
            return exact_sum(a)
        finally:
            calls.append((np.size(a), len(fallbacks) == before))

    monkeypatch.setattr(math, "fsum", fsum_spy)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "drmean" and getattr(module, "exact_sum", None) is exact_sum:
            monkeypatch.setattr(module, "exact_sum", spy)
    return calls
